"""Shared oracles and helpers for the test suite.

The model-definition helpers here (observation rows, conditional transition
probabilities, exhaustive path enumeration) are written independently of
the package internals so they can serve as oracles for the sampling code.
"""
import itertools
import shutil
import tempfile

import numpy as np
import pytest

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Give Hypothesis a temporary home directory for the session.

    Its pytest plugin caches source constants under ``.hypothesis/`` in the
    working directory while collecting; the fuzz tests store no examples.
    """
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    if _HYPOTHESIS_HOME in config.stash:
        shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


def obs_row(p_a, p_b, state):
    if state == 0:
        return np.array([(1 - p_b) ** 2, 2 * p_b * (1 - p_b), p_b ** 2])
    if state == 1:
        return np.array(
            [(1 - p_a) * (1 - p_b), p_a * (1 - p_b) + p_b * (1 - p_a), p_a * p_b]
        )
    return np.array([(1 - p_a) ** 2, 2 * p_a * (1 - p_a), p_a ** 2])


def trans_prob(rho, r, m, n):
    if r == 0:
        return 1.0 if m == n else 0.0
    if r == 1:
        q1 = [
            [1 - rho, rho, 0.0],
            [0.5 * (1 - rho), 0.5, 0.5 * rho],
            [0.0, 1 - rho, rho],
        ]
        return q1[m][n]
    return [(1 - rho) ** 2, 2 * rho * (1 - rho), rho ** 2][n]


def hwe_vector(rho):
    return np.array([(1 - rho) ** 2, 2 * rho * (1 - rho), rho ** 2])


def enumerate_path_marginals(x, r, chrom_start, p_a, p_b, rho):
    """Exact per-locus state marginals by summing over every path."""
    n_loc = len(x)
    marg = np.zeros((n_loc, 3))
    total = 0.0
    for path in itertools.product(range(3), repeat=n_loc):
        w = 1.0
        for j in range(n_loc):
            if chrom_start[j]:
                w *= hwe_vector(rho)[path[j]]
            else:
                w *= trans_prob(rho, r[j], path[j - 1], path[j])
            w *= obs_row(p_a[j], p_b[j], path[j])[x[j]]
        total += w
        for j in range(n_loc):
            marg[j, path[j]] += w
    return marg / total


def tv_distance(p, q):
    return 0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum()


def simulate_chain_ancestry(rng, n_sub, gamma0, rho, chrom_start=None):
    """Forward-simulate ancestry paths from the two-lineage chain."""
    n_loc = len(gamma0)
    if chrom_start is None:
        chrom_start = np.zeros(n_loc, dtype=bool)
        chrom_start[0] = True
    s = np.empty((n_sub, n_loc), dtype=np.int8)
    for j in range(n_loc):
        if chrom_start[j]:
            u = rng.random(n_sub)
            s[:, j] = (u >= (1 - rho) ** 2) + (u >= 1 - rho ** 2)
            continue
        r = rng.binomial(2, gamma0[j], size=n_sub)
        redraw = rng.binomial(1, rho, size=(n_sub, 2))
        prev = s[:, j - 1]
        # swap lineages at random so single recombinations hit either one
        keep_first = rng.random(n_sub) < 0.5
        lin1 = np.where(prev == 2, 1, np.where(prev == 0, 0, keep_first))
        lin2 = prev - lin1
        lin1 = np.where(r >= 1, redraw[:, 0], lin1)
        lin2 = np.where(r == 2, redraw[:, 1], lin2)
        s[:, j] = (lin1 + lin2).astype(np.int8)
    return s


def empirical_state_freqs(samples):
    """(n_draws, n_loci) integer states -> (n_loci, 3) frequencies."""
    samples = np.asarray(samples)
    return np.stack([(samples == k).mean(axis=0) for k in range(3)], axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
