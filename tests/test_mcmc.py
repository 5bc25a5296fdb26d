import dataclasses
import logging
import re
import tracemalloc

import numpy as np
import pytest

from admixscan import kernels, sampler
from admixscan.errors import ForwardUnderflowError
from admixscan.hmm import (
    AimPanel,
    GenotypeMatrix,
    hwe_rows,
    observation_rows,
    transition_kernels,
)
from admixscan.sampler import TRACED, HmmHyperparams, HmmState, run_mcmc
from admixscan.simulate import sample_ancestry_hwe, sample_genotypes_from_ancestry
from conftest import (
    fail_ffbs_at_sweep,
    hwe_vector,
    log_space_ffbs,
    obs_row,
    simulate_chain_ancestry,
)


def chain_panel(n_loci, chrom=None, p_a0=0.8, p_b0=0.2, spacing=0.03):
    chrom = chrom if chrom is not None else [1] * n_loci
    position = []
    pos = 0.0
    last = None
    for c in chrom:
        pos = 0.0 if c != last else pos + spacing
        position.append(pos)
        last = c
    return AimPanel(
        marker_ids=[f"m{j}" for j in range(n_loci)],
        chrom=chrom,
        position=position,
        p_a0=np.full(n_loci, p_a0),
        p_b0=np.full(n_loci, p_b0),
    )



def test_generative_round_trip_recovers_ancestry():
    # near-degenerate reference frequencies and noiseless genotypes: the
    # sampler should read the ancestry straight off the data
    rng = np.random.default_rng(42)
    n_sub, n_loc = 40, 30
    panel = chain_panel(n_loc, p_a0=1.0, p_b0=0.0)  # clamped internally
    s_true = simulate_chain_ancestry(rng, n_sub, panel.gamma0(6.0), 0.8)
    x = s_true.copy()  # variant count equals ancestry count when pa=1, pb=0
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(n_sub)])
    hyper = HmmHyperparams(burn_in=100, n_draws=50, thin=5, seed=1)
    draws = run_mcmc(g, panel, hyper)
    agreement = (draws.draws == s_true[None]).mean()
    assert agreement > 0.99


def test_single_locus_chain_reduces_to_initial_vector_times_likelihood():
    # one marker, no transitions: the path draw collapses to the initial
    # vector reweighted by the observation row
    n = 60000
    rng = np.random.default_rng(3)
    u = rng.random((n, 1))
    r = np.zeros((n, 1), dtype=np.int8)
    s = kernels.ffbs_paths(
        np.ones((n, 1), dtype=np.int8),
        r,
        observation_rows(np.array([0.9]), np.array([0.1])),
        transition_kernels(np.full(n, 0.8)),
        u[kernels.read_cells(r)],
        np.empty((n, 1), dtype=np.int8),
    )
    expected = hwe_vector(0.8) * np.array(
        [obs_row(0.9, 0.1, state)[1] for state in range(3)]
    )
    expected /= expected.sum()
    freqs = np.array([(s[:, 0] == k).mean() for k in range(3)])
    assert np.abs(freqs - expected).max() < 0.01


@pytest.mark.parametrize("spacing, shares", [(0.005, (0.03, 0.12)), (0.02, (0.18, 0.35))],
                         ids=["dense", "sparse"])
def test_ffbs_draws_the_log_space_loops_path_on_sampler_inputs(monkeypatch, spacing, shares):
    # on the r, emissions and kernels a sweep makes, on AIMs 0.5 cM (~6%
    # kernel cells) and 2 cM (~20-30%) apart, FFBS draws the path of the
    # per-locus loop in logs; a cell whose uniform FFBS does not read is
    # before an identity kernel, where the loop copies the next state
    rng = np.random.default_rng(8)
    panel = chain_panel(120, chrom=[1] * 60 + [2] * 60, spacing=spacing)
    s = simulate_chain_ancestry(rng, 40, panel.gamma0(6.0), 0.8, panel.chrom_start)
    x = sample_genotypes_from_ancestry(s, panel.p_a0, panel.p_b0, rng)
    genotypes = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(40)])
    real, seen = kernels.ffbs_paths, []

    def checked(x, r, rows, kern, u, s):
        path = real(x, r, rows, kern, u, s)
        u_full = np.full(r.shape, 0.5)
        u_full[kernels.read_cells(r)] = u
        assert np.array_equal(path, log_space_ffbs(x, r, rows, kern, u_full))
        seen.append(np.count_nonzero(r) / r.size)
        return path

    monkeypatch.setattr(kernels, "ffbs_paths", checked)
    run_mcmc(genotypes, panel, HmmHyperparams(burn_in=8, n_draws=2, thin=1, seed=3))
    assert len(seen) == 10
    assert shares[0] < np.median(seen) < shares[1], seen


def test_a_runs_first_ffbs_call_replays_after_the_run(monkeypatch):
    # perfbench's traced run keeps the arguments of the first FFBS call and
    # replays it after the run to measure its memory. The recombination
    # counts fill a new r each sweep, so that call's r is still the one it
    # read: filled in place, r would have the last sweep's kernel cells, and
    # the replay would refuse the first sweep's uniforms
    rng = np.random.default_rng(9)
    panel = chain_panel(120, chrom=[1] * 60 + [2] * 60, spacing=0.02)
    s = simulate_chain_ancestry(rng, 30, panel.gamma0(6.0), 0.8, panel.chrom_start)
    x = sample_genotypes_from_ancestry(s, panel.p_a0, panel.p_b0, rng, missing_rate=0.05)
    genotypes = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(30)])
    real, calls = kernels.ffbs_paths, []

    def recorded(*args):
        calls.append((args, args[1].copy()))
        return real(*args)

    monkeypatch.setattr(kernels, "ffbs_paths", recorded)
    run_mcmc(genotypes, panel, HmmHyperparams(burn_in=4, n_draws=2, thin=1, seed=3))
    assert len(calls) == 6
    # each sweep's state.r, which its FFBS call reads, is a new object
    assert len({id(args[1]) for args, _ in calls}) == len(calls)
    args, r_then = calls[0]
    assert np.array_equal(args[1], r_then)
    assert real(*args).shape == x.shape   # the replay raises nothing


def test_identical_seeds_give_byte_identical_draws():
    rng = np.random.default_rng(7)
    n_sub, n_loc = 12, 9
    panel = chain_panel(n_loc, chrom=[1] * 5 + [2] * 4)
    s = sample_ancestry_hwe(np.full(n_loc, 0.8), n_sub, rng)
    x = sample_genotypes_from_ancestry(
        s, panel.p_a0, panel.p_b0, rng, missing_rate=0.1
    )
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(n_sub)])
    hyper = HmmHyperparams(burn_in=40, n_draws=30, thin=3, seed=123)
    a = run_mcmc(g, panel, hyper)
    b = run_mcmc(g, panel, hyper)
    assert a.draws.tobytes() == b.draws.tobytes()
    assert a.sweep_index.tolist() == b.sweep_index.tolist()
    for key in a.traces:
        assert np.array_equal(a.traces[key], b.traces[key])


def test_hotspot_interval_found_by_its_own_prior():
    # one interval recombines at 0.3 where the map gives gamma0 = 0.0296:
    # with the default mu0 its Beta(8.4, 277) prior, central 99%
    # [0.010, 0.061], gives way to the data, and mu0 = 1e-8, a map-only
    # model, pins it.  Floors from seeds 0-9: hotspot mean 0.075-0.108,
    # its 2.5% quantile 0.046-0.085, no far interval outside its prior's
    # central 99%, and the window accuracy lower at mu0 = 1e-8 on every seed
    beta = pytest.importorskip("scipy.stats").beta
    rng = np.random.default_rng(3)
    n_sub, n_loc, hot = 300, 120, 60
    panel = AimPanel(
        marker_ids=[f"m{j}" for j in range(n_loc)],
        chrom=[1] * n_loc,
        position=np.arange(n_loc) * 0.005,
        p_a0=rng.uniform(0.8, 0.95, n_loc),
        p_b0=rng.uniform(0.05, 0.2, n_loc),
    )
    gamma0 = panel.gamma0(6.0)
    gamma = gamma0.copy()
    gamma[hot] = 0.3
    s = simulate_chain_ancestry(rng, n_sub, gamma, 0.8)
    x = sample_genotypes_from_ancestry(s, panel.p_a0, panel.p_b0, rng, missing_rate=0.0)
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(n_sub)])
    window = slice(hot - 5, hot + 5)
    accuracy = {}
    for mu0 in (1e-4, 1e-8):
        draws = run_mcmc(g, panel, HmmHyperparams(mu0=mu0, burn_in=200, n_draws=200, thin=2, seed=3))
        mean = draws.draws.mean(axis=0)
        accuracy[mu0] = (np.rint(mean[:, window]) == s[:, window]).mean()
        if mu0 == 1e-8:
            continue
        trace = draws.traces["gamma"]
        assert trace[:, hot].mean() > 0.07
        assert np.quantile(trace[:, hot], 0.025) > gamma0[hot]
        far = np.r_[1:hot - 5, hot + 6:n_loc]
        conc = gamma0[far] * (1.0 - gamma0[far]) / mu0 - 1.0
        lo, hi = beta.ppf([[0.005], [0.995]], conc * gamma0[far], conc * (1.0 - gamma0[far]))
        far_mean = trace[:, far].mean(axis=0)
        assert ((lo < far_mean) & (far_mean < hi)).all()
    assert accuracy[1e-8] < accuracy[1e-4]


def test_missing_genotypes_imputed_within_support():
    rng = np.random.default_rng(17)
    n_sub, n_loc = 10, 8
    panel = chain_panel(n_loc)
    s = sample_ancestry_hwe(np.full(n_loc, 0.8), n_sub, rng)
    x = sample_genotypes_from_ancestry(
        s, panel.p_a0, panel.p_b0, rng, missing_rate=0.3
    )
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(n_sub)])
    hyper = HmmHyperparams(burn_in=30, n_draws=10, thin=1, seed=5)
    draws = run_mcmc(g, panel, hyper)
    assert draws.m == 10
    assert set(np.unique(draws.draws)).issubset({0, 1, 2})
    # a chromosome start is an interval on which both lineages recombine
    assert (draws.traces["gamma"][:, panel.chrom_start] == 1.0).all()
    inner = draws.traces["gamma"][:, ~panel.chrom_start]
    for values in (inner, draws.traces["rho"], draws.traces["p_a"], draws.traces["p_b"]):
        assert (values > 0.0).all() and (values < 1.0).all()
    for key in ("tau_a", "tau_b"):
        assert (draws.traces[key] >= 50.0).all()
        assert (draws.traces[key] <= 1000.0).all()


def test_traces_record_the_state_after_each_retained_sweep(monkeypatch):
    assert set(TRACED) <= {f.name for f in dataclasses.fields(HmmState)}
    after_sweep = []
    last_step = sampler.update_tau_mh

    def recording_last_step(state, derived, rng):
        last_step(state, derived, rng)
        after_sweep.append({name: np.copy(getattr(state, name)) for name in TRACED})

    monkeypatch.setattr(sampler, "update_tau_mh", recording_last_step)
    rng = np.random.default_rng(23)
    panel = chain_panel(6, chrom=[1, 1, 1, 2, 2, 2])
    s = sample_ancestry_hwe(np.full(6, 0.7), 8, rng)
    x = sample_genotypes_from_ancestry(s, panel.p_a0, panel.p_b0, rng, missing_rate=0.1)
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(8)])
    draws = run_mcmc(g, panel, HmmHyperparams(burn_in=5, n_draws=6, thin=2, seed=3))
    assert len(after_sweep) == 11
    assert tuple(draws.traces) == TRACED
    for k, t in enumerate(draws.sweep_index):
        for name in TRACED:
            assert np.array_equal(draws.traces[name][k], after_sweep[t][name]), name


def test_each_sweep_builds_its_model_tables_once(monkeypatch):
    # the kernels read the tables the sweep hands them and build none
    assert not {"observation_rows", "transition_kernels"} & set(vars(kernels))
    calls = []
    for name in ("observation_rows", "transition_kernels"):
        def counting(*args, _build=getattr(sampler, name), _name=name):
            calls.append(_name)
            return _build(*args)

        monkeypatch.setattr(sampler, name, counting)
    rng = np.random.default_rng(29)
    panel = chain_panel(6, chrom=[1, 1, 1, 2, 2, 2])
    s = sample_ancestry_hwe(np.full(6, 0.7), 8, rng)
    x = sample_genotypes_from_ancestry(s, panel.p_a0, panel.p_b0, rng, missing_rate=0.1)
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(8)])
    run_mcmc(g, panel, HmmHyperparams(burn_in=5, n_draws=6, thin=2, seed=3))
    assert calls.count("observation_rows") == calls.count("transition_kernels") == 11


def test_lost_forward_mass_names_its_sweep(monkeypatch):
    # a clamped panel cannot lose forward mass, so the kernel is made to lose it
    panel = chain_panel(6, chrom=[1, 1, 1, 2, 2, 2])
    g = GenotypeMatrix(x=np.ones((8, 6), dtype=np.int8), subject_ids=[f"s{i}" for i in range(8)])
    fail_ffbs_at_sweep(monkeypatch, 3)
    with pytest.raises(ForwardUnderflowError,
                       match="^sweep 3: zero forward mass at subject 4, locus 7$") as info:
        run_mcmc(g, panel, HmmHyperparams(burn_in=5, n_draws=6, thin=2, seed=3))
    assert (info.value.subject, info.value.locus) == (4, 7)


def test_dimension_mismatch_rejected():
    panel = chain_panel(4)
    g = GenotypeMatrix(x=np.zeros((3, 5), dtype=np.int8), subject_ids=list("abc"))
    with pytest.raises(ValueError, match="markers"):
        run_mcmc(g, panel, HmmHyperparams())


def test_retention_schedule_counts():
    rng = np.random.default_rng(11)
    panel = chain_panel(3)
    x = sample_ancestry_hwe(np.full(3, 0.8), 5, rng).astype(np.int8)
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(5)])
    hyper = HmmHyperparams(burn_in=10, n_draws=25, thin=10, seed=2)
    draws = run_mcmc(g, panel, hyper)
    assert draws.m == 2
    assert draws.sweep_index.tolist() == [19, 29]


def test_run_stops_at_the_last_retained_draw(monkeypatch):
    # 25 draws thinned by 10 keep sweeps 19 and 29: the 5 sweeps after the
    # last would draw states that nothing reads
    rng = np.random.default_rng(11)
    panel = chain_panel(3)
    x = sample_ancestry_hwe(np.full(3, 0.8), 5, rng).astype(np.int8)
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(5)])
    hyper = HmmHyperparams(burn_in=10, n_draws=25, thin=10, seed=2)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = sampler.sweep
    monkeypatch.setattr(sampler, "sweep", counted)
    draws = run_mcmc(g, panel, hyper)
    assert len(calls) == 30
    assert draws.sweep_index.tolist() == [19, 29]


def test_progress_logged_at_info_with_rate_and_eta(monkeypatch, caplog):
    rng = np.random.default_rng(11)
    panel = chain_panel(3)
    x = sample_ancestry_hwe(np.full(3, 0.8), 5, rng).astype(np.int8)
    g = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(5)])
    hyper = HmmHyperparams(burn_in=10, n_draws=25, thin=10, seed=2)
    quiet = run_mcmc(g, panel, hyper)
    monkeypatch.setattr(sampler, "PROGRESS_EVERY", 10)
    with caplog.at_level(logging.INFO, logger="admixscan.sampler"):
        draws = run_mcmc(g, panel, hyper)
    records = [r for r in caplog.records if r.name == "admixscan.sampler"]
    assert [r.levelno for r in records] == [logging.INFO] * 3
    pattern = r"sweep (\d+)/30, ([\d.]+) sweeps/s, ETA (\d+:\d\d:\d\d) \((\d+) draws kept\)"
    fields = [re.fullmatch(pattern, r.getMessage()).groups() for r in records]
    assert [(int(t), int(k)) for t, _, _, k in fields] == [(10, 0), (20, 1), (30, 2)]
    assert all(float(rate) > 0 for _, rate, _, _ in fields)
    # logging reads no random number: the draws are those of a run that logs nothing
    assert np.array_equal(draws.draws, quiet.draws)


def sweep_state(n_sub, n_loc=400, seed=4, missing_rate=0.0):
    """A state two sweeps in, with its priors and generator, on AIMs 0.5 cM apart.

    Two chromosomes; ~6% of the cells have r > 0, and ``missing_rate`` of
    the genotypes are missing.
    """
    rng = np.random.default_rng(seed)
    panel = chain_panel(n_loc, chrom=[1] * (n_loc // 2) + [2] * (n_loc - n_loc // 2),
                        spacing=0.005)
    s = simulate_chain_ancestry(rng, n_sub, panel.gamma0(6.0), 0.8, panel.chrom_start)
    x = sample_genotypes_from_ancestry(s, panel.p_a0, panel.p_b0, rng, missing_rate)
    genotypes = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(n_sub)])
    derived = sampler.derive_priors(genotypes, panel, HmmHyperparams())
    state = sampler.initial_state(genotypes, derived, rng)
    for _ in range(2):
        sampler.sweep(state, derived, rng)
    return state, derived, rng


def traced_peak(step, *args):
    """tracemalloc's peak while ``step(*args)`` runs, above what was allocated before."""
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_steps_hold_no_full_size_input_beyond_ffbs_own_arrays():
    # per cell the cohort adds, a step's peak may grow by FFBS's own arrays
    # plus 1 B, so no step holds a uniform, code or index array of every
    # cell: whole-array uniforms for FFBS or the recombination counts, or
    # np.take's index cast of the admixture codes, take 8 B a cell each.
    # FFBS's own arrays grow by 1.75 B here: the kernel's peak with its
    # uniforms and output made before tracing. The paths' step grows by 2.2
    # B, the counts' by 1.0 (the new r) and the proportions' by 2.0; a path
    # array of FFBS's own added 1 B to the paths' step
    own = 1.75
    n_loc, sizes = 400, (200, 600)   # past one chunk of rows at either size
    assert sizes[0] * n_loc > sampler.ROW_CHUNK_CELLS
    peaks, missing = [], []
    for n_sub in sizes:
        state, derived, rng = sweep_state(n_sub, n_loc, missing_rate=0.05)
        rows, kern = observation_rows(state.p_a, state.p_b), transition_kernels(state.rho)
        assert 0.03 < np.count_nonzero(state.r) / state.r.size < 0.15
        missing.append(derived.missing_cells[0].size)
        peaks.append([traced_peak(sampler.sample_ancestry_paths, state, rows, kern, rng),
                      traced_peak(sampler.sample_recombination_counts, state, kern, rng),
                      traced_peak(sampler.update_rho, state, derived, rng),
                      traced_peak(sampler.impute_missing_genotypes, state, derived, rows, rng)])
    growth = np.subtract(*peaks[::-1]) / ((sizes[1] - sizes[0]) * n_loc)
    assert (growth[:3] < own + 1.0).all(), f"{growth[:3]} B a cell"
    # imputation holds, per missing cell, its uniform, its three weights and
    # the draw's temporaries: ~50 B. A copy of x, 1 B a cell, added ~20 B a
    # missing cell at 5% missing
    per_missing = (peaks[1][3] - peaks[0][3]) / (missing[1] - missing[0])
    assert per_missing < 56, f"{per_missing:.1f} B a missing cell"


def test_initial_state_holds_no_full_size_draw_temporary():
    # s and r take 1 B a cell each; a whole-matrix uniform or binomial array
    # takes 8 B more (18 B a cell before they were drawn by chunks of rows).
    # x_imp's 1 B is made after the chunks' buffers are freed, so at these
    # sizes the peak is at r's draw
    n_loc, sizes = 400, (200, 600)   # past one chunk of rows at either size
    assert sizes[0] * n_loc > sampler.ROW_CHUNK_CELLS
    peaks = []
    for n_sub in sizes:
        rng = np.random.default_rng(4)
        x = sample_genotypes_from_ancestry(np.ones((n_sub, n_loc), dtype=np.int8),
                                           np.full(n_loc, 0.8), np.full(n_loc, 0.2), rng,
                                           missing_rate=0.05)
        genotypes = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(n_sub)])
        derived = sampler.derive_priors(genotypes, chain_panel(n_loc), HmmHyperparams())
        peaks.append(traced_peak(sampler.initial_state, genotypes, derived, rng))
    growth = (peaks[1] - peaks[0]) / ((sizes[1] - sizes[0]) * n_loc)
    assert growth < 2.5, f"{growth} B a cell"


@pytest.mark.parametrize("rows", [1, 7, 40], ids=["one row", "a non-divisor", "the whole"])
def test_initial_state_by_chunks_of_rows_draws_the_whole(monkeypatch, rows):
    rng = np.random.default_rng(6)
    x = sample_genotypes_from_ancestry(np.ones((40, 30), dtype=np.int8), np.full(30, 0.8),
                                       np.full(30, 0.2), rng, missing_rate=0.1)
    genotypes = GenotypeMatrix(x=x, subject_ids=[f"s{i}" for i in range(40)])
    derived = sampler.derive_priors(genotypes, chain_panel(30), HmmHyperparams())
    whole = np.random.default_rng(5)
    s = kernels._draw3(hwe_rows(derived.rho0)[:, :, None], whole.random(x.shape))
    r = whole.binomial(2, derived.gamma0[None, :], size=x.shape)
    monkeypatch.setattr(sampler, "ROW_CHUNK_CELLS", rows * 30)
    state = sampler.initial_state(genotypes, derived, np.random.default_rng(5))
    assert np.array_equal(state.s, s) and np.array_equal(state.r, r)
    assert state.s.dtype == state.r.dtype == np.int8


@pytest.mark.parametrize("rows", [1, 7, 40], ids=["one row", "a non-divisor", "the whole"])
def test_recombination_counts_by_chunks_of_rows_draw_the_whole(monkeypatch, rows):
    state, _, _ = sweep_state(40, 30)
    kern = transition_kernels(state.rho)
    whole = kernels.recombination_counts(state.s, state.gamma, kern,
                                         np.random.default_rng(5).random(state.s.shape),
                                         np.empty(state.s.shape, dtype=np.int8))
    monkeypatch.setattr(sampler, "ROW_CHUNK_CELLS", rows * 30)
    sampler.sample_recombination_counts(state, kern, np.random.default_rng(5))
    assert np.array_equal(state.r, whole)
    # gamma = 0 forbids any change of state: the error names the first cell
    # that changes, subjects counted from the cohort's first row
    state.gamma[1:] = 0.0
    state.s[:, 1:] = state.s[:, :1]
    state.s[[23, 37], 9] = (state.s[[23, 37], 8] + 1) % 3
    with pytest.raises(RuntimeError, match="subject 23, locus 9;"):
        sampler.sample_recombination_counts(state, kern, np.random.default_rng(5))
