"""Shared oracles and helpers for the test suite.

The model-definition helpers here (observation rows, conditional transition
probabilities, exhaustive path enumeration) are written independently of
the package internals so they can serve as oracles for the sampling code.
The marginal transition matrix, the correlated-pair generator, the
log-space FFBS loop and the sampler-state invariant check are references no
command runs.
"""
import itertools
import shutil
import tempfile

import numpy as np
import pytest

from admixscan import kernels
from admixscan.errors import ForwardUnderflowError
from admixscan.hmm import TAU_RANGE, two_lineages
from admixscan.simulate import _threshold_to_counts

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


def fail_ffbs_at_sweep(monkeypatch, sweep):
    """Make the FFBS call of sweep ``sweep`` (from 0) lose its mass at subject 4, locus 7."""
    calls = []
    ffbs_paths = kernels.ffbs_paths

    def failing(*args):
        calls.append(None)
        if len(calls) == sweep + 1:
            raise ForwardUnderflowError(4, 7)
        return ffbs_paths(*args)

    monkeypatch.setattr(kernels, "ffbs_paths", failing)


def _draw3(w, u):
    tot = w[0] + w[1] + w[2]
    c0 = w[0] / tot
    c1 = c0 + w[1] / tot
    return (u >= c0).astype(np.int8) + (u >= c1).astype(np.int8)


def log_space_ffbs(x, r, rows, kern, u):
    """FFBS one locus at a time for every subject, in logs: the kernel's reference.

    ``rows`` and ``kern`` are the kernel's tables, and ``u`` holds a uniform
    per cell.  The filtered vectors are log masses carried through every
    kernel, the r = 2 one too, so no state's mass is lost below the float
    range.  A locus where every state's log mass is -inf, or one is NaN,
    raises ForwardUnderflowError for its first subject.
    """
    n_sub, n_loc = x.shape
    subjects = np.arange(n_sub)
    with np.errstate(divide="ignore", invalid="ignore"):
        lemit, lkern = np.log(rows), np.log(kern)
        filt = np.empty((n_loc, 3, n_sub))
        prev = lkern[2, 0]   # the Hardy-Weinberg row
        for j in range(n_loc):
            # log of sum over m of exp(prev[m] + log T(m, n)), by subject
            terms = prev.T[:, :, None] + lkern[r[:, j], :, :, subjects]
            top = terms.max(axis=1)
            top = np.where(top > -np.inf, top, 0.0)
            pred = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
            f = pred.T + lemit[:, x[:, j], j]
            bad = ~(f.max(axis=0) > -np.inf)
            if bad.any():
                raise ForwardUnderflowError(int(np.flatnonzero(bad)[0]), j)
            prev = filt[j] = f
        s = np.empty((n_sub, n_loc), dtype=np.int8)
        w = filt[-1]
        s[:, -1] = _draw3(np.exp(w - w.max(axis=0)), u[:, -1])
        for j in range(n_loc - 2, -1, -1):
            w = filt[j] + lkern[r[:, j + 1], :, s[:, j + 1], subjects].T
            s[:, j] = _draw3(np.exp(w - w.max(axis=0)), u[:, j])
    return s


def empirical_state_freqs(samples):
    """(n_draws, n_loci) integer states -> (n_loci, 3) frequencies."""
    samples = np.asarray(samples)
    return np.stack([(samples == k).mean(axis=0) for k in range(3)], axis=1)


def build_transition_matrix(rho, gamma):
    """Marginal ancestry transition matrix for one marker interval.

    Closed form of the binomial mixture
    ``sum_r Q^(r) * C(2, r) * gamma^r * (1 - gamma)^(2 - r)``: each lineage
    independently recombines with probability gamma and is then redrawn.
    """
    rho = float(rho)
    gamma = float(gamma)
    if not (0.0 <= rho <= 1.0) or not (0.0 <= gamma <= 1.0):
        raise ValueError("rho and gamma must lie in [0, 1]")
    a = gamma * rho                # a lineage recombines into ancestry A
    b = gamma * (1.0 - rho)        # a lineage recombines into ancestry B
    # from-states 0, 1, 2 hold B+B, A+B, A+A: a lineage ends in A w.p. a if
    # it was B, 1 - b if it was A
    return two_lineages([a, 1.0 - b, 1.0 - b], [a, a, 1.0 - b]).T


def sample_correlated_ancestry(p_a, rho_latent, n_subjects, rng):
    """Ancestry pairs coupled through correlated standard-normal latents.

    Each latent is cut at the standard-normal quantiles of ``(1-p_a)^2`` and
    ``1-p_a^2`` so the marginals stay exactly Hardy-Weinberg whatever the
    latent correlation.
    """
    if not (0.0 <= rho_latent < 1.0):
        raise ValueError("latent correlation must lie in [0, 1)")
    z1 = rng.standard_normal(n_subjects)
    z2 = rho_latent * z1 + np.sqrt(1.0 - rho_latent ** 2) * rng.standard_normal(n_subjects)
    return _threshold_to_counts(np.column_stack([z1, z2]), [p_a, p_a])


def validate_ranges(state, chrom_start):
    """Raise if any support invariant of a sampler state is violated."""
    start = np.asarray(chrom_start, dtype=bool)
    if np.any((state.s < 0) | (state.s > 2)):
        raise ValueError("ancestry state outside {0, 1, 2}")
    if np.any((state.r < 0) | (state.r > 2)):
        raise ValueError("recombination count outside {0, 1, 2}")
    if np.any((state.x_imp < 0) | (state.x_imp > 2)):
        raise ValueError("imputed genotype outside {0, 1, 2}")
    if np.any(state.gamma[start] != 1.0) or np.any(state.r[:, start] != 2):
        raise ValueError("a chromosome start needs gamma = 1 and two recombinations")
    for name, arr in (("p_a", state.p_a), ("p_b", state.p_b),
                      ("gamma", state.gamma[~start]), ("rho", state.rho)):
        if np.any((arr <= 0.0) | (arr >= 1.0)):
            raise ValueError(f"{name} left the open unit interval")
    lo, hi = TAU_RANGE
    if not (lo <= state.tau_a <= hi and lo <= state.tau_b <= hi):
        raise ValueError("tau outside its support")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
