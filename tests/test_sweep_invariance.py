"""Whole-state check of the Gibbs sweep against the joint prior (Geweke 2004, JASA).

With every genotype missing, the posterior is the joint prior, and each step
of ``sampler.sweep`` draws from a full conditional of it, so a sweep leaves
the prior invariant.  Chains started at exact prior draws are therefore
exact prior draws after any number of sweeps, and independent of one
another: the check needs no burn-in and no ESS correction.  After the sweeps
every quantity of the state, each gamma_j, rho_i, p_a,j, p_b,j, tau_a,
tau_b, s_ij and r_ij, is compared with fresh prior draws by a two-sample
test on the mean (Welch) and one on the spread (Brown-Forsythe), under one
family-wise p floor.

This checks invariance only.  A sampler that leaves the prior invariant but
cannot leave part of the space passes it.
"""
import numpy as np
import pytest

from admixscan.hmm import MISSING, TAU_RANGE, AimPanel, GenotypeMatrix
from admixscan.sampler import HmmHyperparams, HmmState, derive_priors, sweep

stats = pytest.importorskip("scipy.stats")

# the chance that a correct sampler fails one panel's check, over all of its
# tests (Bonferroni)
FAMILY_P = 1e-3
N_CHAINS = 1000
N_SWEEPS = 8
# weak priors on gamma (as in acceptance test 7) and on rho, Beta(0.8, 0.2),
# so the counts move them: a rho step that drops the two lineages of each
# chromosome start then moves the law of s within these sweeps
HYPER = HmmHyperparams(mu0=0.005, nu0=0.08)


def joint_prior_draws(derived, n, rng):
    """``n`` exact draws from the joint prior, by their generative order.

    gamma, rho, tau_a, tau_b, p_a and p_b from their priors, then r given
    gamma, then s given r and rho, following each subject's two lineages: a
    lineage that recombines is redrawn from rho, and with one recombination
    either lineage is the one redrawn.
    """
    inner = derived.gamma_mask
    n_sub, n_loc = derived.rho0.size, inner.size
    g0, tg = derived.gamma0[inner], derived.tau_gamma[inner]
    gamma = np.ones((n, n_loc))
    gamma[:, inner] = rng.beta(tg * g0, tg * (1.0 - g0), size=(n, g0.size))
    rho = rng.beta(derived.tau_rho * derived.rho0, derived.tau_rho * (1.0 - derived.rho0),
                   size=(n, n_sub))
    tau_a, tau_b = rng.uniform(*TAU_RANGE, size=(2, n, 1))
    m_a, m_b = derived.prior_a.means, derived.prior_b.means
    p_a = rng.beta(tau_a * m_a, tau_a * (1.0 - m_a))
    p_b = rng.beta(tau_b * m_b, tau_b * (1.0 - m_b))
    r = rng.binomial(2, gamma[:, None, :], size=(n, n_sub, n_loc)).astype(np.int8)
    s = np.empty_like(r)
    high = np.zeros((n, n_sub, 2), dtype=bool)   # each lineage from population a
    for j in range(n_loc):
        first = rng.random((n, n_sub)) < 0.5
        redrawn = np.stack(((r[..., j] == 2) | ((r[..., j] == 1) & first),
                            (r[..., j] == 2) | ((r[..., j] == 1) & ~first)), axis=-1)
        high = np.where(redrawn, rng.random((n, n_sub, 2)) < rho[..., None], high)
        s[..., j] = high.sum(axis=-1)
    return {"gamma": gamma, "rho": rho, "p_a": p_a, "p_b": p_b,
            "tau_a": tau_a[:, 0], "tau_b": tau_b[:, 0], "s": s, "r": r}


def quantities(draws, inner):
    """Every compared quantity, one column each: gamma and r at inner loci only."""
    n = draws["s"].shape[0]
    parts = {
        "gamma": draws["gamma"][:, inner],
        "rho": draws["rho"],
        "p_a": draws["p_a"],
        "p_b": draws["p_b"],
        "tau_a": draws["tau_a"][:, None],
        "tau_b": draws["tau_b"][:, None],
        "s": draws["s"].reshape(n, -1),
        "r": draws["r"][:, :, inner].reshape(n, -1),
    }
    names = [f"{key}[{k}]" for key, part in parts.items() for k in range(part.shape[1])]
    return names, np.column_stack(list(parts.values())).astype(np.float64)


def swept_draws(panel, n_subjects, seed):
    """Each chain started at its own prior draw, after N_SWEEPS sweeps."""
    rng = np.random.default_rng(seed)
    genotypes = GenotypeMatrix(x=np.full((n_subjects, panel.n_loci), MISSING),
                               subject_ids=[f"s{i}" for i in range(n_subjects)])
    derived = derive_priors(genotypes, panel, HYPER)
    start = joint_prior_draws(derived, N_CHAINS, rng)
    out = {key: np.empty_like(value) for key, value in start.items()}
    for c in range(N_CHAINS):
        state = HmmState(
            s=start["s"][c].copy(), r=start["r"][c].copy(),
            # every cell is missing, so the first step redraws all of x
            x_imp=np.zeros((n_subjects, panel.n_loci), dtype=np.int8),
            p_a=start["p_a"][c].copy(), p_b=start["p_b"][c].copy(),
            gamma=start["gamma"][c].copy(), rho=start["rho"][c].copy(),
            tau_a=float(start["tau_a"][c]), tau_b=float(start["tau_b"][c]),
        )
        for _ in range(N_SWEEPS):
            sweep(state, derived, rng)
        for key in out:
            out[key][c] = getattr(state, key)
    return derived, out


def failures(panel, n_subjects, seed):
    """The (quantity, test, p) whose p falls under the family-wise floor."""
    derived, swept = swept_draws(panel, n_subjects, seed)
    fresh = joint_prior_draws(derived, N_CHAINS, np.random.default_rng(seed + 1))
    names, a = quantities(swept, derived.gamma_mask)
    _, b = quantities(fresh, derived.gamma_mask)
    floor = FAMILY_P / (2 * len(names))
    found = []
    for name, x, y in zip(names, a.T, b.T):
        assert x.std() > 0 and y.std() > 0, f"{name} is constant: the check cannot see it"
        p_mean = stats.ttest_ind(x, y, equal_var=False).pvalue
        p_spread = stats.levene(x, y, center="median").pvalue
        found += [(name, test, p) for test, p in (("mean", p_mean), ("spread", p_spread))
                  if not p > floor]
    return found


def test_sweep_keeps_the_joint_prior_on_one_chromosome():
    # the 3 x 4 panel of acceptance test 7
    panel = AimPanel(marker_ids=["m0", "m1", "m2", "m3"], chrom=[1, 1, 1, 1],
                     position=[0.0, 0.05, 0.10, 0.16],
                     p_a0=[0.7, 0.8, 0.75, 0.85], p_b0=[0.2, 0.15, 0.25, 0.1])
    assert failures(panel, 3, seed=2004) == []


def test_sweep_keeps_the_joint_prior_on_two_chromosomes():
    # two starts per subject, where gamma = 1 and r = 2, and an FFBS
    # segment per chromosome
    panel = AimPanel(marker_ids=[f"m{j}" for j in range(7)], chrom=[1] * 4 + [2] * 3,
                     position=[0.0, 0.05, 0.10, 0.16, 0.0, 0.04, 0.10],
                     p_a0=[0.7, 0.8, 0.75, 0.85, 0.9, 0.6, 0.8],
                     p_b0=[0.2, 0.15, 0.25, 0.1, 0.3, 0.05, 0.2])
    assert failures(panel, 3, seed=2010) == []
