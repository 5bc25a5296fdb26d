import numpy as np
import pytest

from admixscan import kernels
from admixscan.errors import ForwardUnderflowError
from admixscan.hmm import observation_rows, transition_kernels
from conftest import (
    empirical_state_freqs,
    enumerate_path_marginals,
    hwe_vector,
    trans_prob,
    tv_distance,
)


def sample_many(x, r, p_a, p_b, rho, n, seed=5):
    rng = np.random.default_rng(seed)
    u = rng.random((n, len(x)))
    r = np.tile(np.asarray(r, np.int8), (n, 1))
    return kernels.ffbs_paths(
        np.tile(np.asarray(x, np.int8), (n, 1)),
        r,
        observation_rows(np.asarray(p_a, float), np.asarray(p_b, float)),
        transition_kernels(np.full(n, rho)),
        u[kernels.read_cells(r)],
    )


def test_single_locus_degenerate_frequencies_force_state():
    eps = 1e-12
    s = sample_many([2], [0], [1 - eps], [eps], 0.5, 2000)
    assert (s == 2).all()


def test_uninformative_likelihood_reduces_to_prior_chain():
    # equal frequencies: posterior marginals equal the prior chain marginals
    x = [1, 0, 2, 1]
    r = [0, 1, 2, 1]
    p = [0.6, 0.6, 0.6, 0.6]
    rho = 0.7
    marg = hwe_vector(rho)
    expected = [marg]
    for j in range(1, 4):
        t = np.array([[trans_prob(rho, r[j], m, n) for n in range(3)] for m in range(3)])
        marg = marg @ t
        expected.append(marg)
    s = sample_many(x, r, p, p, rho, 60000)
    emp = empirical_state_freqs(s)
    for j in range(4):
        assert tv_distance(emp[j], expected[j]) < 0.01


def test_three_locus_chain_matches_enumeration():
    cases = [
        # (x, r, p_a, p_b, rho)
        ([0, 1, 2], [0, 1, 2], [0.8, 0.7, 0.9], [0.2, 0.3, 0.1], 0.8),
        ([1, 2, 0], [0, 1, 1], [0.85, 0.7, 0.9], [0.15, 0.25, 0.1], 0.75),
    ]
    start = np.array([True, False, False])
    for x, r, p_a, p_b, rho in cases:
        x = np.array(x, dtype=np.int8)
        r = np.array(r, dtype=np.int8)
        p_a = np.array(p_a)
        p_b = np.array(p_b)
        exact = enumerate_path_marginals(x, r, start, p_a, p_b, rho)
        s = sample_many(x, r, p_a, p_b, rho, 50000)
        emp = empirical_state_freqs(s)
        for j in range(3):
            assert tv_distance(emp[j], exact[j]) < 0.01


def test_chromosome_restart_matches_enumeration():
    x = np.array([0, 1, 2, 1, 0], dtype=np.int8)
    r = np.array([0, 1, 2, 2, 1], dtype=np.int8)
    start = np.array([True, False, False, True, False])
    p_a = np.array([0.8, 0.7, 0.9, 0.75, 0.85])
    p_b = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
    rho = 0.8
    exact = enumerate_path_marginals(x, r, start, p_a, p_b, rho)
    s = sample_many(x, r, p_a, p_b, rho, 50000)
    emp = empirical_state_freqs(s)
    for j in range(5):
        assert tv_distance(emp[j], exact[j]) < 0.01


def test_locus_zero_ignores_its_recombination_count():
    # every kernel leaves the Hardy-Weinberg row unchanged, so the count at
    # the first locus does not change the path drawn from the same uniforms;
    # only rounding at a cumulative weight may move a draw
    x = [0, 1, 2, 1, 0]
    p_a = [0.8, 0.7, 0.9, 0.75, 0.85]
    p_b = [0.2, 0.3, 0.1, 0.25, 0.15]
    paths = [sample_many(x, [r0, 1, 2, 2, 1], p_a, p_b, 0.8, 50000)
             for r0 in (0, 1, 2)]
    for s in paths[1:]:
        assert (s == paths[0]).mean() > 0.9999


def test_zero_forward_mass_names_the_locus():
    # impossible observation: both frequencies exactly zero but genotype 1
    with pytest.raises(ForwardUnderflowError) as info:
        sample_many([0, 1], [0, 0], [0.0, 0.0], [0.0, 0.0], 0.5, 4)
    assert info.value.locus == 1
    assert "locus 1" in str(info.value)
