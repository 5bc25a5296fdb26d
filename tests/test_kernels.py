"""The numpy kernels against plain-Python scalar loops.

The loops below are the reference backend: one subject and one locus at a
time, with the model tables taken from the independent oracles in
``conftest`` rather than from the package.  Counts, admixture statistics,
imputation and recombination counts must match exactly; FFBS paths may
differ only where a uniform falls within rounding of a cumulative weight.
"""
import tracemalloc

import numpy as np
import pytest

from admixscan import kernels
from admixscan.errors import ForwardUnderflowError
from admixscan.hmm import observation_rows, transition_kernels
from conftest import hwe_vector, obs_row, trans_prob


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


def per_locus_draw3(w, u):
    tot = w[0] + w[1] + w[2]
    c0 = w[0] / tot
    c1 = c0 + w[1] / tot
    return (u >= c0).astype(np.int8) + (u >= c1).astype(np.int8)


def per_locus_ffbs(x, r, p_a, p_b, rho, u):
    """FFBS one locus at a time for every subject, the loop the lanes replaced.

    Same tables and per-cell arithmetic as the kernel; only where a segment
    starts or ends may rounding differ, which moves no draw here.
    """
    n_sub, n_loc = x.shape
    rows = np.arange(n_sub)
    emit = observation_rows(p_a, p_b)
    kern = transition_kernels(rho)
    filt = np.empty((n_loc, 3, n_sub))
    prev = kern[2, 0]
    for j in range(n_loc):
        t = kern[r[:, j], :, :, rows]
        f = np.einsum("mi,imn->ni", prev, t) * emit[:, x[:, j], j]
        tot = f[0] + f[1] + f[2]
        bad = ~((tot > 0.0) & np.isfinite(tot))
        if bad.any():
            raise ForwardUnderflowError(int(np.flatnonzero(bad)[0]), j)
        prev = np.divide(f, tot, out=filt[j])
    s = np.empty((n_sub, n_loc), dtype=np.int8)
    s[:, -1] = per_locus_draw3(filt[-1], u[:, -1])
    for j in range(n_loc - 2, -1, -1):
        w = filt[j] * kern[r[:, j + 1], :, s[:, j + 1], rows].T
        s[:, j] = per_locus_draw3(w, u[:, j])
    return s


def segmented_chain(rng, n_sub, lengths):
    """Inputs whose all-r = 2 columns cut the chain into segments of ``lengths``."""
    n_loc = sum(lengths)
    x = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    r = rng.choice(3, p=[0.6, 0.3, 0.1], size=(n_sub, n_loc)).astype(np.int8)
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


def test_rho_count_stats_identical_across_backends(state):
    s, _, r, start = state
    a, b = kernels.ancestry_count_stats(s, r)
    ref_a, ref_b = ref_rho_counts(s, r, start)
    assert np.array_equal(a, ref_a)
    assert np.array_equal(b, ref_b)


def test_impute_identical_across_backends(state, rng):
    s, x, _, _ = state
    missing = rng.random(x.shape) < 0.3
    p_a = rng.uniform(0.6, 0.95, x.shape[1])
    p_b = rng.uniform(0.05, 0.4, x.shape[1])
    u = rng.random(x.shape)
    out = kernels.impute_genotypes(x, np.nonzero(missing), s, p_a, p_b, u[missing])
    assert np.array_equal(out, ref_impute(x, missing, s, p_a, p_b, u))
    assert np.array_equal(out[~missing], x[~missing])
    assert (out[missing] != x[missing]).any()


def test_impute_with_no_missing_cell_returns_an_equal_copy(state, rng):
    s, x, _, _ = state
    none = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
    p = rng.uniform(0.05, 0.95, (2, x.shape[1]))
    out = kernels.impute_genotypes(x, none, s, p[0], p[1], np.empty(0))
    assert out is not x
    assert out.dtype == np.int8
    assert np.array_equal(out, x)


def test_recombination_counts_identical_across_backends(state, rng):
    s, _, _, start = state
    gamma = rng.uniform(0.05, 0.6, s.shape[1])
    gamma[start] = 1.0
    rho = rng.uniform(0.5, 0.95, s.shape[0])
    u = rng.random(s.shape)
    r = kernels.recombination_counts(s, gamma, rho, u)
    assert np.array_equal(r, ref_recombination_counts(s, start, gamma, rho, u))
    assert (r[:, start] == 2).all()
    assert set(np.unique(r[:, ~start])) == {0, 1, 2}


def test_recombination_counts_name_the_zero_mass_cell():
    s = np.array([[0, 2, 2], [0, 0, 2]], dtype=np.int8)
    # gamma = 0 forbids any change of state, so subject 0 fails at locus 1
    with pytest.raises(RuntimeError, match="subject 0, locus 1"):
        kernels.recombination_counts(
            s, np.array([1.0, 0.0, 0.0]), np.full(2, 0.5), np.full((2, 3), 0.5)
        )


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
    s = kernels.ffbs_paths(x, r, p_a, p_b, rho, u)
    assert (s == ref_ffbs(x, r, start, p_a, p_b, rho, u)).mean() > 0.999


@pytest.mark.parametrize("n_sub, lengths", [
    (40, [5, 1, 9, 3]),   # ragged segments, ranked 9, 5, 3, 1 in the lanes
    (40, [12]),           # one segment
    (1, [5, 1, 9, 3]),    # one subject
    (40, [4, 4, 4]),      # equal lengths: every step holds all three
])
def test_ffbs_matches_the_per_locus_loop(rng, n_sub, lengths):
    args = segmented_chain(rng, n_sub, lengths)
    assert np.array_equal(kernels.ffbs_paths(*args), per_locus_ffbs(*args))


def test_ffbs_inner_restart_is_not_a_chromosome_start(rng):
    # one chromosome whose column 6 drew r = 2 for every subject: the chain
    # forgets its past there, and the kernel cuts it without reading starts
    x, r, p_a, p_b, rho, u = segmented_chain(rng, 30, [20])
    r[:, 6] = 2
    s = kernels.ffbs_paths(x, r, p_a, p_b, rho, u)
    assert np.array_equal(s, per_locus_ffbs(x, r, p_a, p_b, rho, u))


def test_ffbs_chunking_changes_no_draw(rng, monkeypatch):
    args = segmented_chain(rng, 50, [7, 2, 11, 11, 4])
    whole = kernels.ffbs_paths(*args)
    for cells in (1, 60, 130):   # one step a chunk; ragged chunk edges
        monkeypatch.setattr(kernels, "CHUNK_CELLS", cells)
        assert np.array_equal(kernels.ffbs_paths(*args), whole)


def test_ffbs_underflow_in_two_segments_names_the_smaller_locus(rng):
    # segments [0, 3) and [3, 10): locus 4 (step 1 of the longer segment)
    # fails before locus 2 (step 2 of the shorter) in lane order, but locus 2
    # comes first on the chromosome; subjects 2 and 3 fail there
    x, r, p_a, p_b, rho, u = segmented_chain(rng, 6, [3, 7])
    for j, bad_subjects in ((2, [3, 2]), (4, [0])):
        p_a[j] = p_b[j] = 0.0   # genotype 0 is certain, genotype 1 impossible
        x[:, j] = 0
        x[bad_subjects, j] = 1
    with pytest.raises(ForwardUnderflowError) as info:
        kernels.ffbs_paths(x, r, p_a, p_b, rho, u)
    assert (info.value.locus, info.value.subject) == (2, 2)
    with pytest.raises(ForwardUnderflowError) as ref:
        per_locus_ffbs(x, r, p_a, p_b, rho, u)
    assert (ref.value.locus, ref.value.subject) == (2, 2)


def test_ffbs_peak_memory_is_the_filtered_vectors(rng):
    # the forward pass may keep one float per (locus, state, subject) and
    # nothing of that order besides: no per-locus pair tensor
    n_sub, n_loc = 200, 2000
    x = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    r = rng.choice(3, p=[0.9, 0.09, 0.01], size=(n_sub, n_loc)).astype(np.int8)
    start = np.zeros(n_loc, dtype=bool)
    start[::500] = True
    r[:, start] = 2
    p_a = rng.uniform(0.55, 0.95, n_loc)
    p_b = rng.uniform(0.05, 0.45, n_loc)
    rho = rng.uniform(0.5, 0.95, n_sub)
    u = rng.random((n_sub, n_loc))
    filtered_bytes = n_loc * 3 * n_sub * 8
    tracemalloc.start()
    try:
        kernels.ffbs_paths(x, r, p_a, p_b, rho, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * filtered_bytes, f"peak {peak} B vs {filtered_bytes} B filtered"


def test_recombination_counts_peak_memory(rng):
    # the three category weights are built and normalised in place: at most
    # four float64 subject x locus arrays are alive at once
    n_sub, n_loc = 200, 2000
    s = rng.integers(0, 3, size=(n_sub, n_loc)).astype(np.int8)
    start = np.zeros(n_loc, dtype=bool)
    start[::500] = True
    gamma = rng.uniform(1e-4, 0.05, n_loc)
    gamma[start] = 1.0
    rho = rng.uniform(0.5, 0.95, n_sub)
    u = rng.random((n_sub, n_loc))
    one_array = n_sub * n_loc * 8
    tracemalloc.start()
    try:
        kernels.recombination_counts(s, gamma, rho, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * one_array, f"peak {peak} B vs {one_array} B per array"
