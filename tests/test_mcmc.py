import dataclasses

import numpy as np
import pytest

from admixscan import sampler
from admixscan.hmm import AimPanel, GenotypeMatrix
from admixscan.sampler import TRACED, HmmHyperparams, HmmState, run_mcmc
from admixscan.simulate import sample_ancestry_hwe, sample_genotypes_from_ancestry
from conftest import hwe_vector, obs_row, simulate_chain_ancestry


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
    from admixscan import kernels

    n = 60000
    rng = np.random.default_rng(3)
    u = rng.random((n, 1))
    s = kernels.ffbs_paths(
        np.ones((n, 1), dtype=np.int8),
        np.zeros((n, 1), dtype=np.int8),
        np.array([0.9]),
        np.array([0.1]),
        np.full(n, 0.8),
        u,
    )
    expected = hwe_vector(0.8) * np.array(
        [obs_row(0.9, 0.1, state)[1] for state in range(3)]
    )
    expected /= expected.sum()
    freqs = np.array([(s[:, 0] == k).mean() for k in range(3)])
    assert np.abs(freqs - expected).max() < 0.01


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

    def recording_last_step(state, panel, rng):
        last_step(state, panel, rng)
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
