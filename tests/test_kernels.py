"""The numpy kernels against plain-Python scalar loops.

The loops below are the reference backend: one subject and one locus at a
time, with the model tables taken from the independent oracles in
``conftest`` rather than from the package.  Counts, admixture statistics,
imputation and recombination counts must match exactly; FFBS paths may
differ only where a uniform falls within rounding of a cumulative weight.
"""
import tracemalloc
import warnings

import numpy as np
import pytest

from admixscan import kernels
from admixscan.errors import ForwardUnderflowError
from admixscan.hmm import observation_rows, transition_kernels
from conftest import hwe_vector, log_space_ffbs, obs_row, trans_prob


@pytest.fixture
def state(rng):
    n_sub, n_loc = 40, 12
    s = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    x = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    r = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    start = np.zeros(n_loc, dtype=bool)
    start[[0, 7]] = True
    r[:, start] = 2
    return s, x, r, start


def pick3(w, u):
    tot = w[0] + w[1] + w[2]
    c = w[0] / tot
    if u < c:
        return 0
    c += w[1] / tot
    if u < c:
        return 1
    return 2


def ref_ffbs(x, r, chrom_start, p_a, p_b, rho, u):
    n_sub, n_loc = x.shape
    s = np.empty((n_sub, n_loc), dtype=np.int8)
    for i in range(n_sub):
        pair = np.empty((n_loc, 3, 3))
        filt = np.empty((n_loc, 3))
        for j in range(n_loc):
            obs = np.array([obs_row(p_a[j], p_b[j], k)[x[i, j]] for k in range(3)])
            if chrom_start[j]:
                f = hwe_vector(rho[i]) * obs
                filt[j] = f / f.sum()
                continue
            for m in range(3):
                for n in range(3):
                    pair[j, m, n] = filt[j - 1, m] * trans_prob(rho[i], r[i, j], m, n) * obs[n]
            pair[j] /= pair[j].sum()
            filt[j] = pair[j].sum(axis=0)
        for j in range(n_loc - 1, -1, -1):
            if j == n_loc - 1 or chrom_start[j + 1]:
                s[i, j] = pick3(filt[j], u[i, j])
            else:
                s[i, j] = pick3(pair[j + 1, :, s[i, j + 1]], u[i, j])
    return s


def per_locus_ffbs(x, r, p_a, p_b, rho, u):
    """FFBS one locus at a time, in logs, on the tables of these parameters.

    The kernel steps once per run, combines a run's emissions once and
    normalises its filtered vectors; it redraws in logs a lane whose mass
    that loses.  The two differ in rounding only, which moves no draw here.
    """
    return log_space_ffbs(x, r, observation_rows(p_a, p_b), transition_kernels(rho), u)


def ffbs(x, r, p_a, p_b, rho, u):
    """The kernel on the model tables of these parameters, as a sweep builds them.

    The kernel filters chunks of whole rows of at most ``CHUNK_RUNS`` runs;
    every call here runs the whole call in one chunk and again one row a
    chunk, which must draw the same path or name the same lost cell.
    """
    args = x, r, observation_rows(p_a, p_b), transition_kernels(rho), u[kernels.read_cells(r)]
    outcomes = []
    for runs in (kernels.CHUNK_RUNS, 1):   # the whole call, then one row a chunk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "CHUNK_RUNS", runs)
            try:
                outcomes.append(kernels.ffbs_paths(*args))
            except ForwardUnderflowError as err:
                outcomes.append(err)
    whole, rows = outcomes
    if isinstance(whole, ForwardUnderflowError):
        assert isinstance(rows, ForwardUnderflowError)
        assert (rows.locus, rows.subject) == (whole.locus, whole.subject)
        raise whole
    assert np.array_equal(whole, rows)
    return whole


def segmented_chain(rng, n_sub, lengths, p_r=(0.6, 0.3, 0.1)):
    """Inputs whose all-r = 2 columns cut the chain into segments of ``lengths``.

    ``p_r`` is the law of r at the other cells: at the default, 40% of them
    are kernel cells (r > 0).
    """
    n_loc = sum(lengths)
    x = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    r = rng.choice(3, p=p_r, size=(n_sub, n_loc)).astype(np.int8)
    heads = np.cumsum([0, *lengths[:-1]])
    r[:, heads] = 2
    if n_sub > 1:
        r[0, np.setdiff1d(np.arange(n_loc), heads)] = 0   # no other column is all 2
    p_a = rng.uniform(0.55, 0.95, n_loc)
    p_b = rng.uniform(0.05, 0.45, n_loc)
    rho = rng.uniform(0.5, 0.95, n_sub)
    u = rng.random((n_sub, n_loc))
    return x, r, p_a, p_b, rho, u


def ref_recombination_counts(s, chrom_start, gamma, rho, u):
    n_sub, n_loc = s.shape
    out = np.zeros((n_sub, n_loc), dtype=np.int8)
    for i in range(n_sub):
        for j in range(n_loc):
            if chrom_start[j]:
                out[i, j] = 2
                continue
            g = gamma[j]
            m, n = s[i, j - 1], s[i, j]
            w0 = (1 - g) ** 2 if m == n else 0.0
            w1 = 2 * g * (1 - g) * trans_prob(rho[i], 1, m, n)
            w2 = g ** 2 * hwe_vector(rho[i])[n]
            out[i, j] = pick3((w0, w1, w2), u[i, j])
    return out


def recombination_inputs(rng, path_like, gamma_level, n_sub=16, n_loc=250):
    """A path, its model and uniforms; chromosomes start at loci 0 and n_loc / 2.

    A path-like ``s`` keeps each subject's state but at ~0.2% of cells; a
    random one changes state at 2/3 of them.
    """
    if path_like:
        s = np.repeat(rng.integers(0, 3, size=(n_sub, 1)), n_loc, axis=1)
        flip = rng.random(s.shape) < 0.001
        s[flip] = rng.integers(0, 3, size=flip.sum())
    else:
        s = rng.integers(0, 3, size=(n_sub, n_loc))
    start = np.zeros(n_loc, dtype=bool)
    start[[0, n_loc // 2]] = True
    gamma = np.where(start, 1.0, gamma_level)
    rho = rng.uniform(0.5, 0.95, n_sub)
    return s.astype(np.int8), start, gamma, rho, rng.random((n_sub, n_loc))


def certificate(gamma):
    """Below it, a cell whose state does not change draws r = 0."""
    return (1.0 - gamma) ** 2 * (1.0 - 2.0 ** -30)


def open_share(s, gamma, u):
    """The share of cells whose state changes or whose u is not below the certificate."""
    return ((s != np.roll(s, 1, axis=1)) | ~(u < certificate(gamma))).mean()


def ref_impute(x, missing, s, p_a, p_b, u):
    out = x.copy()
    for i, j in zip(*np.nonzero(missing)):
        out[i, j] = pick3(obs_row(p_a[j], p_b[j], s[i, j]), u[i, j])
    return out


def ref_genotype_counts(s, x):
    out = np.zeros((s.shape[1], 3, 3), dtype=np.int64)
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            out[j, s[i, j], x[i, j]] += 1
    return out


def ref_rho_counts(s, r, chrom_start):
    n_sub, n_loc = s.shape
    a = np.zeros(n_sub)
    b = np.zeros(n_sub)
    for i in range(n_sub):
        for j in range(n_loc):
            n = s[i, j]
            if chrom_start[j] or r[i, j] == 2:
                a[i] += n
                b[i] += 2 - n
            elif r[i, j] == 1:
                m = s[i, j - 1]
                if (m, n) in ((0, 1), (1, 2), (2, 2)):
                    a[i] += 1.0
                elif (m, n) in ((0, 0), (1, 0), (2, 1)):
                    b[i] += 1.0
                # the 1 -> 1 transition carries no information on rho
    return a, b


def test_genotype_state_counts_identical_across_backends(state):
    s, x, _, _ = state
    counts = kernels.genotype_state_counts(s, x)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, ref_genotype_counts(s, x))
    assert counts.sum() == s.size


def test_genotype_state_counts_take_any_integer_layout(state):
    # int64 states or genotypes, strided views and column-major copies count
    # the same cells
    s, x, _, _ = state
    want = ref_genotype_counts(s, x)
    strided = [np.repeat(a, 2, axis=1)[:, ::2] for a in (s, x)]
    for a, b in [(s.astype(np.int64), x), (s, x.astype(np.int64)),
                 (s.astype(np.int64), x.astype(np.int64)), strided,
                 (np.asfortranarray(s), np.asfortranarray(x))]:
        counts = kernels.genotype_state_counts(a, b)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want)


def test_genotype_state_counts_peak_memory_per_cell(rng):
    # the codes 3 s + x and one mask at a time, one byte a cell each, plus
    # the (locus, code) table: under 3 B a cell, where int64 codes took 16
    s = rng.integers(0, 3, size=(200, 2000)).astype(np.int8)
    x = rng.integers(0, 3, size=(200, 2000)).astype(np.int8)
    tracemalloc.start()
    try:
        kernels.genotype_state_counts(s, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * s.size, f"peak {peak / s.size:.2f} B a cell"


def test_rho_count_stats_identical_across_backends(state):
    s, _, r, start = state
    a, b = kernels.ancestry_count_stats(s, r)
    ref_a, ref_b = ref_rho_counts(s, r, start)
    assert np.array_equal(a, ref_a)
    assert np.array_equal(b, ref_b)


def take_counts(s, r):
    """The admixture counts by np.take of int8 codes from the two lineage tables."""
    table = np.stack([kernels._lineage_count_table(((0, 1), (1, 2), (2, 2)), [0, 1, 2]),
                      kernels._lineage_count_table(((0, 0), (1, 0), (2, 1)), [2, 1, 0])])
    code = kernels._previous(s) * 3 + s + r * 9
    return table.take(code, axis=1).sum(axis=2)


def test_rho_count_stats_translate_as_np_take_counts_at_every_code(rng):
    # row c of the first block holds the code c = 9 r + 3 s_prev + s at
    # locus 1, after a start; the random rows hold every code many times
    code = np.arange(27)
    s = np.stack([code // 3 % 3, code % 3], axis=1)
    r = np.stack([np.full(27, 2), code // 9], axis=1)
    for s, r in ((s, r), (rng.integers(0, 3, (50, 300)), rng.integers(0, 3, (50, 300)))):
        s, r = s.astype(np.int8), r.astype(np.int8)
        assert np.unique(kernels._previous(s) * 3 + s + r * 9).size == 27
        assert np.array_equal(kernels.ancestry_count_stats(s, r), take_counts(s, r))


def test_impute_identical_across_backends(state, rng):
    s, x, _, _ = state
    missing = rng.random(x.shape) < 0.3
    p_a = rng.uniform(0.6, 0.95, x.shape[1])
    p_b = rng.uniform(0.05, 0.4, x.shape[1])
    u = rng.random(x.shape)
    rows = observation_rows(p_a, p_b)
    out = kernels.impute_genotypes(x, np.nonzero(missing), s, rows, u[missing])
    assert np.array_equal(out, ref_impute(x, missing, s, p_a, p_b, u))
    assert np.array_equal(out[~missing], x[~missing])
    assert (out[missing] != x[missing]).any()


def test_impute_with_no_missing_cell_returns_an_equal_copy(state, rng):
    s, x, _, _ = state
    none = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    p = rng.uniform(0.05, 0.95, (2, x.shape[1]))
    out = kernels.impute_genotypes(x, none, s, observation_rows(p[0], p[1]), np.empty(0))
    assert out is not x
    assert out.dtype == np.int8
    assert np.array_equal(out, x)


def test_recombination_counts_identical_across_backends(state, rng):
    s, _, _, start = state
    gamma = rng.uniform(0.05, 0.6, s.shape[1])
    gamma[start] = 1.0
    rho = rng.uniform(0.5, 0.95, s.shape[0])
    u = rng.random(s.shape)
    r = kernels.recombination_counts(s, gamma, transition_kernels(rho), u)
    assert np.array_equal(r, ref_recombination_counts(s, start, gamma, rho, u))
    assert (r[:, start] == 2).all()
    assert set(np.unique(r[:, ~start])) == {0, 1, 2}


def test_recombination_counts_name_the_zero_mass_cell():
    s = np.array([[0, 2, 2], [0, 0, 2]], dtype=np.int8)
    # gamma = 0 forbids any change of state, so subject 0 fails at locus 1
    with pytest.raises(RuntimeError, match="subject 0, locus 1"):
        kernels.recombination_counts(
            s, np.array([1.0, 0.0, 0.0]), transition_kernels(np.full(2, 0.5)),
            np.full((2, 3), 0.5)
        )


@pytest.mark.parametrize("path_like, gamma_level, share", [
    (True, 1e-4, (0.0, 0.02)),
    (True, 0.5, (0.6, 0.9)),
    (False, 1e-4, (0.55, 0.8)),
    (False, 0.5, (0.85, 0.97)),
    (True, 1 - 1e-9, (1.0, 1.0)),
    (False, 1 - 1e-9, (1.0, 1.0)),
], ids=["path-gamma0", "path-gamma0.5", "random-gamma0", "random-gamma0.5",
        "path-gamma1", "random-gamma1"])
def test_recombination_counts_match_the_loop_at_every_open_share(
        rng, path_like, gamma_level, share):
    s, start, gamma, rho, u = recombination_inputs(rng, path_like, gamma_level)
    assert share[0] <= open_share(s, gamma, u) <= share[1]
    r = kernels.recombination_counts(s, gamma, transition_kernels(rho), u)
    assert np.array_equal(r, ref_recombination_counts(s, start, gamma, rho, u))
    assert (r[:, start] == 2).all()


@pytest.mark.parametrize("side", [-1, 0, 1], ids=["below", "at", "above"])
def test_recombination_counts_match_the_loop_at_the_certificate(rng, side):
    # u one ulp below, at and one ulp above the certificate at every cell but
    # the starts, where it is 0: a cell whose state does not change draws 0
    s, start, gamma, rho, u = recombination_inputs(rng, False, 0.05)
    gamma[~start] = rng.uniform(1e-4, 0.6, (~start).sum())
    cert = np.broadcast_to(certificate(gamma)[~start], (s.shape[0], (~start).sum()))
    u[:, ~start] = np.nextafter(cert, side * np.inf) if side else cert
    r = kernels.recombination_counts(s, gamma, transition_kernels(rho), u)
    assert np.array_equal(r, ref_recombination_counts(s, start, gamma, rho, u))
    kept = (s == np.roll(s, 1, axis=1)) & ~start
    assert (r[kept] == 0).all() and (r[~kept & ~start] > 0).any()


def test_recombination_counts_certificate_is_tight():
    # with rho = 0 every entry from state 0 to state 0 is 1, so the total
    # weight is 1 up to rounding and c0 is prior0: a u just above prior0
    # draws r = 1, and one just below the certificate draws 0
    prior0 = (1.0 - 0.3) ** 2
    u = np.array([[0.5, prior0 * (1.0 + 2.0 ** -31), prior0 * (1.0 - 2.0 ** -29)]])
    r = kernels.recombination_counts(np.zeros((1, 3), dtype=np.int8),
                                     np.array([1.0, 0.3, 0.3]), transition_kernels(np.zeros(1)), u)
    assert r.tolist() == [[2, 1, 0]]


def test_recombination_counts_never_close_a_start():
    # gamma = 1 leaves no mass on r = 0, so no uniform certifies a start: a
    # negative one still reaches the zero-mass check, which subject 1 fails
    # (rho = 1 gives state 0 no mass after two recombinations)
    u = np.full((2, 3), 0.5)
    u[1, 0] = -0.5
    with pytest.raises(RuntimeError, match="subject 1, locus 0"):
        kernels.recombination_counts(np.zeros((2, 3), dtype=np.int8), np.array([1.0, 0.1, 0.1]),
                                     transition_kernels(np.array([0.5, 1.0])), u)


def test_recombination_counts_wrap_locus_0_round_to_the_last(rng):
    # where gamma < 1 at locus 0, its previous state is the last locus's, as
    # the loop's s[i, j - 1] reads it
    s, start, gamma, rho, u = recombination_inputs(rng, False, 0.3)
    start[0] = False
    gamma[0] = 0.3
    r = kernels.recombination_counts(s, gamma, transition_kernels(rho), u)
    assert np.array_equal(r, ref_recombination_counts(s, start, gamma, rho, u))
    assert (r[s[:, 0] != s[:, -1], 0] > 0).all()


@pytest.mark.parametrize("cells", [1, 7, kernels.CHUNK_CELLS])
def test_recombination_counts_chunking_changes_no_draw(rng, monkeypatch, cells):
    s, start, gamma, rho, u = recombination_inputs(rng, False, 0.3)
    monkeypatch.setattr(kernels, "CHUNK_CELLS", cells)
    r = kernels.recombination_counts(s, gamma, transition_kernels(rho), u)
    assert np.array_equal(r, ref_recombination_counts(s, start, gamma, rho, u))


@pytest.mark.parametrize("bad, cell", [
    (("gamma", np.nan), (0, 2)),
    (("gamma", np.inf), (0, 2)),
    (("gamma", -np.inf), (0, 2)),
    (("gamma", -0.1), (2, 2)),   # mass < 0 only where the state changes
    (("gamma", 1.5), (2, 2)),
    (("rho", np.nan), (1, 0)),
], ids=["gamma-nan", "gamma-inf", "gamma-minus-inf", "gamma-below-0", "gamma-above-1",
        "rho-nan"])
def test_recombination_counts_name_the_first_cell_out_of_the_model(bad, cell):
    # subjects 0 and 1 keep their state, subject 2 goes 0 -> 1 at locus 2, and
    # every u = 0.5 is below a proper certificate: the cells that name the
    # error would draw 0 unseen were the certificate applied where it fails
    s = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=np.int8)
    rho = np.full(3, 0.8)
    what, value = bad
    if what == "gamma":
        gamma = np.array([1.0, 0.1, value, 0.1])
    else:
        gamma = np.full(4, 0.1)   # no start: locus 0 is weighed as any other
        rho[1] = value
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError) as info:
        kernels.recombination_counts(s, gamma, transition_kernels(rho), np.full((3, 4), 0.5))
    assert str(info.value) == (f"zero recombination mass at subject {cell[0]}, "
                               f"locus {cell[1]}; gamma or rho left the open unit interval")


def test_ffbs_forward_normalisation_consistent(rng):
    # same inputs, same uniforms: the kernel and the scalar loop sample the
    # same paths except where rounding moves a cumulative weight across u
    n_sub, n_loc = 200, 9
    x = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    r = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    start = np.zeros(n_loc, dtype=bool)
    start[[0, 5]] = True
    r[:, start] = 2
    p_a = rng.uniform(0.6, 0.95, n_loc)
    p_b = rng.uniform(0.05, 0.4, n_loc)
    rho = rng.uniform(0.5, 0.95, n_sub)
    u = rng.random((n_sub, n_loc))
    s = ffbs(x, r, p_a, p_b, rho, u)
    assert (s == ref_ffbs(x, r, start, p_a, p_b, rho, u)).mean() > 0.999


@pytest.mark.parametrize("n_sub, lengths", [
    (40, [5, 1, 9, 3]),   # ragged segments
    (40, [12]),           # one segment
    (1, [5, 1, 9, 3]),    # one subject
    (40, [4, 4, 4]),      # equal lengths
])
def test_ffbs_matches_the_per_locus_loop(rng, n_sub, lengths):
    args = segmented_chain(rng, n_sub, lengths)
    assert np.array_equal(ffbs(*args), per_locus_ffbs(*args))


def test_ffbs_inner_restart_is_not_a_chromosome_start(rng):
    # one chromosome whose column 6 drew r = 2 for every subject: the chain
    # forgets its past there, and the kernel cuts it without reading starts
    x, r, p_a, p_b, rho, u = segmented_chain(rng, 30, [20])
    r[:, 6] = 2
    s = ffbs(x, r, p_a, p_b, rho, u)
    assert np.array_equal(s, per_locus_ffbs(x, r, p_a, p_b, rho, u))


@pytest.mark.parametrize("n_sub, lengths, case", [
    (40, [12, 1, 20, 7], "identity between heads"),   # kernel cells only at the heads
    (40, [12, 1, 20, 7], "every cell a kernel"),
    (40, [1] * 12, "every locus a segment"),         # 2 in every column
])
def test_ffbs_matches_the_per_locus_loop_at_extreme_r(rng, n_sub, lengths, case):
    x, r, p_a, p_b, rho, u = segmented_chain(rng, n_sub, lengths)
    inner = ~(r == 2).all(axis=0)
    if case == "identity between heads":
        r[:, inner] = 0
    elif case == "every cell a kernel":
        r[:, inner] = rng.integers(1, 3, size=(n_sub, inner.sum()))
        r[0, inner] = 1   # no other column is all 2
    assert np.array_equal(ffbs(x, r, p_a, p_b, rho, u),
                          per_locus_ffbs(x, r, p_a, p_b, rho, u))


@pytest.mark.parametrize("n_sub", [40, 2000])
@pytest.mark.parametrize("share", [0.05, 0.15, 0.3, 0.5, 0.75, 1.0])
def test_ffbs_matches_the_per_locus_loop_at_every_kernel_share(rng, n_sub, share):
    # share: the law's fraction of kernel cells (r > 0) away from the heads;
    # 40 subjects sum their log emissions in one chunk, 2000 in five
    args = segmented_chain(rng, n_sub, [12, 1, 20, 7], (1 - share, share / 2, share / 2))
    assert np.array_equal(ffbs(*args), per_locus_ffbs(*args))


@pytest.mark.parametrize("kernel_rich, p_r",
                         [(True, (0.6, 0.3, 0.1)), (False, (0.95, 0.04, 0.01))])
def test_ffbs_draw_before_an_identity_kernel_is_a_copy(rng, kernel_rich, p_r):
    # where the next cell has r = 0 the kernel is the identity, so the draw
    # is the next cell's state whatever the cell's own uniform
    x, r, p_a, p_b, rho, u = segmented_chain(rng, 40, [12, 1, 20, 7], p_r)
    assert ((r > 0).mean() > 0.2) == kernel_rich
    s = ffbs(x, r, p_a, p_b, rho, u)
    copied = np.zeros(r.shape, dtype=bool)
    copied[:, :-1] = r[:, 1:] == 0
    assert copied.mean() > 0.3
    assert np.array_equal(s[:, :-1][copied[:, :-1]], s[:, 1:][copied[:, :-1]])
    u[copied] = rng.random(copied.sum())
    assert np.array_equal(ffbs(x, r, p_a, p_b, rho, u), s)


def test_ffbs_chunking_changes_no_draw(rng, monkeypatch):
    args = segmented_chain(rng, 50, [7, 2, 11, 11, 4])
    sparse = segmented_chain(rng, 50, [7, 2, 11, 11, 4], (0.95, 0.04, 0.01))
    whole = ffbs(*args), ffbs(*sparse)
    # the log emissions are summed in chunks of whole rows: one row a chunk
    # (1 and 60 cells), 3 and 20 rows a chunk, and every row in one chunk at
    # the default size; the kernel entries and emission factors are gathered
    # per chunk of steps, a sixteenth as many runs
    for cells in (1, 60, 130, 700, kernels.CHUNK_CELLS):
        monkeypatch.setattr(kernels, "CHUNK_CELLS", cells)
        assert np.array_equal(ffbs(*args), whole[0])
        assert np.array_equal(ffbs(*sparse), whole[1])


def test_ffbs_draw_table_holds_one_row_per_non_head_kernel_cell(rng, monkeypatch):
    # the backward pass reads a row before every run start but a lane's
    # first (locus 0 or r = 2), so the forward pass draws rows only for the
    # cells with r = 1 past locus 0
    calls = []

    def backward(moves, cur, heads, count, out):
        calls.append(moves)
        return real(moves, cur, heads, count, out)

    real = kernels._sample_backward
    monkeypatch.setattr(kernels, "_sample_backward", backward)
    for lengths in ([12, 1, 20, 7], [40]):
        x, r, p_a, p_b, rho, u = segmented_chain(rng, 40, lengths)
        calls.clear()
        s = kernels.ffbs_paths(x, r, observation_rows(p_a, p_b), transition_kernels(rho),
                               u[kernels.read_cells(r)])
        assert np.array_equal(s, per_locus_ffbs(x, r, p_a, p_b, rho, u))
        (moves,) = calls   # one chunk
        assert moves[0] is None   # step 0 holds every lane's first run
        # each step reads its rows of its chunk's table: count the tables drawn
        drawn = {id(rows.base): rows.base for _, rows in moves[1:]}
        assert sum(table.size for table in drawn.values()) // 3 == (r[:, 1:] == 1).sum()


def test_ffbs_underflow_in_two_segments_names_the_smaller_locus(rng):
    # segments [0, 3) and [3, 10): subject 0 fails at locus 4, subjects 2 and
    # 3 at locus 2; the error names the first locus on the chromosome, then
    # its smallest subject, whatever order the lanes are stepped in
    x, r, p_a, p_b, rho, u = segmented_chain(rng, 6, [3, 7])
    for j, bad_subjects in ((2, [3, 2]), (4, [0])):
        p_a[j] = p_b[j] = 0.0   # genotype 0 is certain, genotype 1 impossible
        x[:, j] = 0
        x[bad_subjects, j] = 1
    with pytest.raises(ForwardUnderflowError) as info:
        ffbs(x, r, p_a, p_b, rho, u)
    assert (info.value.locus, info.value.subject) == (2, 2)
    with pytest.raises(ForwardUnderflowError) as ref:
        per_locus_ffbs(x, r, p_a, p_b, rho, u)
    assert (ref.value.locus, ref.value.subject) == (2, 2)


def identity_run(rng, n_sub, n_loc):
    """One identity run per subject: r = 2 at locus 0 and 0 elsewhere."""
    x, r, p_a, p_b, rho, u = segmented_chain(rng, n_sub, [n_loc])
    r[:, 1:] = 0
    return x, r, p_a, p_b, rho, u


def test_ffbs_run_whose_emission_product_underflows_does_not_raise(rng):
    # 300 identity cells of genotype 1 at frequencies near 1e-3: every
    # state's emission is ~2e-3, and their product over the run, ~1e-810,
    # is 0 in float64; a few kernel cells follow the run
    x, r, p_a, p_b, rho, u = identity_run(rng, 8, 310)
    x[:, :300] = 1
    p_a[:300] = rng.uniform(0.9e-3, 1.1e-3, 300)
    p_b[:300] = rng.uniform(0.9e-3, 1.1e-3, 300)
    rows = observation_rows(p_a, p_b)
    assert (rows[:, 1, :300] < 2.3e-3).all()
    assert np.prod(rows[:, 1, :300], axis=1).max() == 0.0
    r[::2, 303] = 1
    assert np.array_equal(ffbs(x, r, p_a, p_b, rho, u),
                          per_locus_ffbs(x, r, p_a, p_b, rho, u))


@pytest.mark.parametrize("case", ["impossible genotype", "NaN frequency"])
def test_ffbs_loss_inside_a_long_identity_run_names_its_locus(rng, case):
    # locus 150 lies deep inside every subject's one run; subject 5 also has
    # a kernel cell before it, which splits its run there
    x, r, p_a, p_b, rho, u = identity_run(rng, 6, 200)
    r[5, 40] = 1
    if case == "impossible genotype":
        p_a[150] = p_b[150] = 0.0   # genotype 0 is certain
        x[:, 150] = 0
        x[[4, 2, 5], 150] = 1
        x[0, 170] = 1               # later on the chromosome
        p_a[170] = p_b[170] = 0.0
        want = (150, 2)
    else:
        p_a[150] = np.nan
        want = (150, 0)
    with pytest.raises(ForwardUnderflowError) as info:
        ffbs(x, r, p_a, p_b, rho, u)
    assert (info.value.locus, info.value.subject) == want
    with pytest.raises(ForwardUnderflowError) as ref:
        per_locus_ffbs(x, r, p_a, p_b, rho, u)
    assert (ref.value.locus, ref.value.subject) == want


def path_or_lost_cell(sample, *args):
    """The path ``sample`` draws, or the (locus, subject) whose mass it names lost."""
    try:
        return sample(*args)
    except ForwardUnderflowError as err:
        return err.locus, err.subject


def test_ffbs_matches_the_per_locus_loop_when_mass_is_lost(rng):
    # small random chains at kernel shares from 3% to 100%, each with one
    # way to lose the forward mass at 1-3 loci, or none: the kernel, in one
    # chunk and one row a chunk (the ffbs helper), and the per-locus loop
    # draw the same path or name the same cell
    cases = ("impossible genotype", "NaN frequency", "fixed allele", "nothing")
    lost = inside_a_run = 0
    for k in range(300):
        n_sub, n_loc = int(rng.integers(1, 26)), int(rng.integers(1, 61))
        share = rng.uniform(0.03, 1.0)
        x = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
        r = rng.choice(3, p=(1 - share, 0.8 * share, 0.2 * share), size=(n_sub, n_loc))
        r = r.astype(np.int8)
        r[:, 0] = 2
        p_a = rng.uniform(0.55, 0.95, n_loc)
        p_b = rng.uniform(0.05, 0.45, n_loc)
        rho = rng.uniform(0.5, 0.95, n_sub)
        u = rng.random((n_sub, n_loc))
        loci = rng.choice(n_loc, size=min(n_loc, int(rng.integers(1, 4))), replace=False)
        case = cases[k % 4]
        if case == "impossible genotype":
            p_a[loci] = p_b[loci] = 0.0   # genotype 0 is certain, genotype 1 impossible
            x[:, loci] = rng.choice(2, p=(0.8, 0.2), size=(n_sub, loci.size))
        elif case == "NaN frequency":
            (p_a if k % 8 < 4 else p_b)[loci[0]] = np.nan
        elif case == "fixed allele":
            # each population fixed for one allele: a shared allele makes the
            # genotypes without it impossible, and different alleles make the
            # genotype name the state, which an identity run cannot change
            p_a[loci] = rng.integers(0, 2, loci.size)
            p_b[loci] = rng.integers(0, 2, loci.size)
        args = x, r, p_a, p_b, rho, u
        got = path_or_lost_cell(ffbs, *args)
        want = path_or_lost_cell(per_locus_ffbs, *args)
        if isinstance(want, tuple):
            assert got == want, (k, case)
            lost += 1
            inside_a_run += r[want[1], want[0]] == 0
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, want), (k, case)
    # the losses are many, and some fall inside a run, where the float pass
    # sees them only in its final vectors
    assert lost > 100 and inside_a_run > 30, (lost, inside_a_run)


def spy_log_lanes(monkeypatch):
    """The flat cells (first, past the last) of every lane redrawn in logs from here on."""
    lanes = []

    def log_lane(x, rows, fwd, starts, rs, u, a, b, out):
        lanes.append((int(starts[a]), int(starts[b + 1])))
        return real(x, rows, fwd, starts, rs, u, a, b, out)

    real = kernels._log_lane
    monkeypatch.setattr(kernels, "_log_lane", log_lane)
    return lanes


def test_ffbs_lane_that_loses_its_mass_is_redone_in_logs_which_names_the_cell(rng, monkeypatch):
    # the run pass does not trace a lost mass itself: it filters the lane
    # that lost it again, alone and in logs, and that names the cell
    x, r, p_a, p_b, rho, u = identity_run(rng, 6, 40)
    p_a[25] = p_b[25] = 0.0   # genotype 0 is certain
    x[:, 25] = 0
    x[3, 25] = 1
    lanes = spy_log_lanes(monkeypatch)
    with pytest.raises(ForwardUnderflowError) as info:
        kernels.ffbs_paths(x, r, observation_rows(p_a, p_b), transition_kernels(rho),
                           u[kernels.read_cells(r)])
    assert lanes == [(3 * 40, 4 * 40)]   # subject 3's one lane
    with pytest.raises(ForwardUnderflowError) as ref:
        per_locus_ffbs(x, r, p_a, p_b, rho, u)
    named = info.value.locus, info.value.subject
    assert named == (ref.value.locus, ref.value.subject) == (25, 3)


def test_ffbs_names_the_smallest_locus_when_a_later_chunk_loses_it_first(rng, monkeypatch):
    # one row a chunk: subject 1 loses its mass at locus 30 and subjects 5
    # and 4, in later chunks, at locus 12; the error names locus 12 and its
    # smallest subject
    x, r, p_a, p_b, rho, u = segmented_chain(rng, 8, [20, 25], (0.8, 0.15, 0.05))
    for j, bad_subjects in ((30, [1]), (12, [5, 4])):
        p_a[j] = p_b[j] = 0.0   # genotype 0 is certain, genotype 1 impossible
        x[:, j] = 0
        x[bad_subjects, j] = 1
    monkeypatch.setattr(kernels, "CHUNK_RUNS", 1)
    lanes = spy_log_lanes(monkeypatch)
    with pytest.raises(ForwardUnderflowError) as info:
        kernels.ffbs_paths(x, r, observation_rows(p_a, p_b), transition_kernels(rho),
                           u[kernels.read_cells(r)])
    assert (info.value.locus, info.value.subject) == (12, 4)
    assert len(lanes) == 3   # each chunk's lost lane is redrawn
    with pytest.raises(ForwardUnderflowError) as ref:
        per_locus_ffbs(x, r, p_a, p_b, rho, u)
    assert (ref.value.locus, ref.value.subject) == (12, 4)


def test_ffbs_keeps_a_state_whose_evidence_swings_inside_an_identity_run(rng):
    # subject 0 has one run at near-fixed frequencies: genotype 1 over loci
    # 0-99 and 2 over loci 100-199.  A constant path has likelihood 1e-1170,
    # 1e-400 and 1e-370 in states 0, 1 and 2, so state 2 has posterior
    # ~1 - 1e-30.  Its mass relative to state 1's falls to ~1e-400 by locus
    # 99 and rises back by the end: a loop that normalises at every locus
    # loses it there, and drew state 1 at every locus.  The other subjects
    # have r in {0, 1}: 45% of the cells are kernel cells
    n_sub, n_loc = 10, 200
    x = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    x[0] = np.repeat([1, 2], 100)
    r = rng.integers(0, 2, size=(n_sub, n_loc)).astype(np.int8)
    r[:, 0] = 2
    r[0, 1:] = 0
    p_a, p_b = np.full(n_loc, 0.9999), np.full(n_loc, 0.0001)
    rho, u = np.full(n_sub, 0.5), rng.random((n_sub, n_loc))
    s = ffbs(x, r, p_a, p_b, rho, u)
    assert (s[0] == 2).all()
    assert np.array_equal(s, per_locus_ffbs(x, r, p_a, p_b, rho, u))


def unreachable_best_state(n_sub):
    """Subjects whose best state in their second run the float vector cannot reach.

    Near-fixed frequencies.  Genotype 0 over loci 0-99 leaves the filtered
    vector at (1, 0, 0) in floats, ~(1, 1e-400, 1e-800) exactly; genotype 2
    over loci 100-199 favours state 2, which one recombination (r = 1 at
    locus 100) cannot reach from state 0.  The paths 0 then 1 and 1 then 2
    are equally likely.
    """
    n_loc = 200
    x = np.zeros((n_sub, n_loc), dtype=np.int8)
    x[:, 100:] = 2
    r = np.zeros((n_sub, n_loc), dtype=np.int8)
    r[:, 0], r[:, 100] = 2, 1
    return x, r, np.full(n_loc, 0.9999), np.full(n_loc, 0.0001), np.full(n_sub, 0.5)


def test_ffbs_draws_an_unreachable_best_state_from_the_exact_law(rng, monkeypatch):
    # scaled by state 2's, the second run's emission product is 0 at both
    # states it can reach, so every lane loses its mass in floats and is
    # redrawn in logs, where state 1 keeps its mass over the first run.  A
    # loop over loci, or a rescue from the float vector, draws 0 then 1 on
    # every row
    x, r, p_a, p_b, rho = unreachable_best_state(400)
    u = rng.random(x.shape)
    lanes = spy_log_lanes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = kernels.ffbs_paths(x, r, observation_rows(p_a, p_b), transition_kernels(rho),
                               u[kernels.read_cells(r)])
    assert len(lanes) == 400
    assert np.array_equal(s, per_locus_ffbs(x, r, p_a, p_b, rho, u))
    low = (s == np.repeat([0, 1], 100)).all(axis=1)
    high = (s == np.repeat([1, 2], 100)).all(axis=1)
    assert (low | high).all()
    assert 0.4 < low.mean() < 0.6, low.mean()


def spy_reads(monkeypatch):
    """The uniforms each FFBS pass from here on draws with: (kind, list) a pass.

    A pass is a chunk's ("chunk") or a lane's redrawn in logs ("lane").
    """
    passes = []

    def wrap(kind, real):
        def a_pass(*args):
            passes.append((kind, []))
            return real(*args)
        return a_pass

    def draw3(w, u, tot=None):
        passes[-1][1].append(np.array(u))
        return real_draw3(w, u, tot)

    real_draw3 = kernels._draw3
    monkeypatch.setattr(kernels, "_ffbs", wrap("chunk", kernels._ffbs))
    monkeypatch.setattr(kernels, "_log_lane", wrap("lane", kernels._log_lane))
    monkeypatch.setattr(kernels, "_draw3", draw3)
    return passes


def read_once_per_pass(monkeypatch, x, r, p_a, p_b, rho):
    """FFBS on uniforms that name their cells; asserts which cells each pass reads.

    The chunks read every read cell once between them, and a lane redrawn
    in logs reads the read cells of its row between its first and last
    once.  Returns the path, the uniforms and the kind of each pass.
    """
    read = kernels.read_cells(r)
    want = np.zeros(r.shape, dtype=bool)
    want[:, -1] = True
    want[:, :-1] = r[:, 1:] > 0
    assert np.array_equal(read, want)
    # the uniform of flat cell c is (c + 1/2) / r.size
    u = (np.arange(r.size).reshape(r.shape) + 0.5) / r.size
    passes = spy_reads(monkeypatch)
    s = kernels.ffbs_paths(x, r, observation_rows(p_a, p_b), transition_kernels(rho), u[read])
    cells = {kind: [] for kind in ("chunk", "lane")}
    for kind, drawn in passes:
        cells[kind].append((np.concatenate(drawn) * r.size).astype(np.intp))
    assert np.array_equal(np.bincount(np.concatenate(cells["chunk"]), minlength=r.size),
                          read.ravel())
    for lane in cells["lane"]:
        lo, hi = lane.min(), lane.max()
        assert lo // r.shape[1] == hi // r.shape[1]
        assert np.array_equal(np.sort(lane), lo + np.flatnonzero(read.ravel()[lo:hi + 1]))
    return s, u, [kind for kind, _ in passes]


@pytest.mark.parametrize("lengths", [[12, 1, 20, 7], [40]], ids=["segments", "one segment"])
@pytest.mark.parametrize("runs", [65536, 50], ids=["one chunk", "chunks"])
def test_ffbs_reads_each_read_cell_once_per_pass(rng, monkeypatch, lengths, runs):
    # in one chunk and in several, on rows whose locus 0 has r = 2 and rows
    # where it has r = 0; the path is the per-locus loop's on the uniforms of
    # every cell
    x, r, p_a, p_b, rho, _ = segmented_chain(rng, 30, lengths, (0.8, 0.15, 0.05))
    r[1::3, 0] = 0
    monkeypatch.setattr(kernels, "CHUNK_RUNS", runs)
    s, u, kinds = read_once_per_pass(monkeypatch, x, r, p_a, p_b, rho)
    assert set(kinds) == {"chunk"} and (len(kinds) > 1) == (runs < r.size)
    assert np.array_equal(s, per_locus_ffbs(x, r, p_a, p_b, rho, u))


def test_ffbs_lane_redrawn_in_logs_reads_each_read_cell_once(monkeypatch):
    # subject 0 loses its mass in floats (see
    # test_ffbs_draws_an_unreachable_best_state_from_the_exact_law), and its
    # lane is redrawn in logs; subjects 1 and 3 have r = 0 at locus 0
    x, r, p_a, p_b, rho = unreachable_best_state(4)
    x[1:] = 0
    r[1:] = 0
    r[1:, 50], r[2, 0], r[3, 150] = 1, 2, 2
    s, u, kinds = read_once_per_pass(monkeypatch, x, r, p_a, p_b, rho)
    assert kinds == ["chunk", "lane"]
    assert np.array_equal(s, per_locus_ffbs(x, r, p_a, p_b, rho, u))


def test_ffbs_refuses_a_uniform_per_cell(rng):
    x, r, p_a, p_b, rho, u = segmented_chain(rng, 5, [6, 4], (0.8, 0.15, 0.05))
    with pytest.raises(ValueError, match=f"FFBS reads {kernels.read_cells(r).sum()} cells"):
        kernels.ffbs_paths(x, r, observation_rows(p_a, p_b), transition_kernels(rho), u)


@pytest.mark.parametrize("pick",["one subject", "every other subject", "reversed"])
def test_ffbs_on_a_subset_of_subjects_draws_their_rows_of_the_whole(rng, pick):
    # a lane is cut where its own subject has r = 2, not where every subject
    # in the call has, so no draw depends on which other subjects share the
    # call or its chunk
    x, r, p_a, p_b, rho, u = segmented_chain(rng, 30, [25, 15])
    assert ((r == 2).any(axis=0) & ~(r == 2).all(axis=0)).sum() > 10
    whole = ffbs(x, r, p_a, p_b, rho, u)
    assert np.array_equal(whole, per_locus_ffbs(x, r, p_a, p_b, rho, u))
    idx = {"one subject": [7], "every other subject": np.arange(0, 30, 2),
           "reversed": np.arange(30)[::-1]}[pick]
    part = ffbs(x[idx], r[idx], p_a, p_b, rho[idx], u[idx])
    assert np.array_equal(part, whole[idx])


def ffbs_peak_per_cell(rng, p_r, n_sub=200):
    """tracemalloc's peak in ``ffbs_paths`` on ``n_sub`` x 2000 cells, per cell.

    r has the law ``p_r`` away from the chromosome starts; the uniforms and
    the other inputs are made before tracing starts.
    """
    n_loc = 2000
    x = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    r = rng.choice(3, p=p_r, size=(n_sub, n_loc)).astype(np.int8)
    start = np.zeros(n_loc, dtype=bool)
    start[::500] = True
    r[:, start] = 2
    rows = observation_rows(rng.uniform(0.55, 0.95, n_loc), rng.uniform(0.05, 0.45, n_loc))
    kern = transition_kernels(rng.uniform(0.5, 0.95, n_sub))
    u = rng.random((n_sub, n_loc))[kernels.read_cells(r)]
    tracemalloc.start()
    try:
        kernels.ffbs_paths(x, r, rows, kern, u)
        return tracemalloc.get_traced_memory()[1] / x.size
    finally:
        tracemalloc.stop()


def test_ffbs_peak_memory_per_cell(rng):
    # FFBS keeps no filtered vector per cell. With 10% kernel cells, 40,000
    # runs in one chunk, it keeps, per cell, the output; per run, its start,
    # r and state and its three emission factors; per run past a lane's
    # first, its three backward draws; per chunk of rows, its gathered logs:
    # ~6.4 B a cell.
    # The per-lane kernels kept for the whole pass, or a second copy of the
    # factors, would break the bound
    peak = ffbs_peak_per_cell(rng, [0.9, 0.09, 0.01])
    assert peak < 7.2, f"peak {peak:.2f} B a cell"


@pytest.mark.parametrize("p_r, bound", [([0.6, 0.36, 0.04], 12.0), ([0.0, 0.9, 0.1], 24.0)])
def test_ffbs_peak_memory_per_cell_at_a_high_kernel_share(rng, p_r, bound):
    # with 40% and 100% kernel cells, 160,000 and 400,000 runs, FFBS filters
    # chunks of at most CHUNK_RUNS runs: ~8.9 and ~8.8 B a cell. The whole
    # call in one chunk took ~21 and ~50, its 24 B of emission factors and
    # 9 B of start, r, state and draws a run outgrowing the 1 B of output a
    # cell
    peak = ffbs_peak_per_cell(rng, p_r)
    assert peak < bound, f"peak {peak:.2f} B a cell"


@pytest.mark.parametrize("p_r", [[0.6, 0.36, 0.04], [0.0, 0.9, 0.1]], ids=["40%", "100%"])
def test_ffbs_peak_memory_is_bounded_across_chunks(rng, p_r):
    # 200 and 400 subjects, both past one chunk: per added cell the peak may
    # grow by the output and the per-row run counts, not by any array of
    # every run (the whole call in one chunk grew by 5.7 and 4.2 B)
    sizes = (200, 400)
    assert sizes[0] * 2000 * (1 - p_r[0]) > 2 * kernels.CHUNK_RUNS
    peaks = [ffbs_peak_per_cell(rng, p_r, n_sub) * n_sub * 2000 for n_sub in sizes]
    growth = (peaks[1] - peaks[0]) / ((sizes[1] - sizes[0]) * 2000)
    assert growth < 2.0, f"{growth:.2f} B a cell"


def test_recombination_counts_peak_memory(rng):
    # the three category weights are built and normalised in place: at most
    # four float64 subject x locus arrays are alive at once
    n_sub, n_loc = 200, 2000
    s = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    start = np.zeros(n_loc, dtype=bool)
    start[::500] = True
    gamma = rng.uniform(1e-4, 0.05, n_loc)
    gamma[start] = 1.0
    kern = transition_kernels(rng.uniform(0.5, 0.95, n_sub))
    u = rng.random((n_sub, n_loc))
    one_array = n_sub * n_loc * 8
    tracemalloc.start()
    try:
        kernels.recombination_counts(s, gamma, kern, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * one_array, f"peak {peak} B vs {one_array} B per array"


@pytest.mark.parametrize("path_like", [True, False], ids=["path", "random"])
def test_recombination_counts_peak_memory_per_cell(rng, path_like):
    # weights only at open cells, in chunks: the output, the open mask and the
    # open cells' indices, under 1.5 float64 arrays (12 B a cell) even where
    # most cells are open
    s, _, gamma, rho, u = recombination_inputs(rng, path_like, 0.01, 200, 2000)
    kern = transition_kernels(rho)
    one_array = s.size * 8
    tracemalloc.start()
    try:
        kernels.recombination_counts(s, gamma, kern, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * one_array, f"peak {peak} B vs {one_array} B per array"
