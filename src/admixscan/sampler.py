"""Blocked Gibbs sampler for the admixture HMM.

One sweep updates, in order: imputed genotypes, ancestry paths (forward
filtering backward sampling, one block per subject),
per-interval recombination counts, recombination probabilities, subject
admixture proportions, reference allele frequencies (with a latent phase
split at ancestry-heterozygous genotype-heterozygous cells), and the two
frequency-dispersion parameters by one exact slice step each (Neal 2003,
Ann. Statist.) over their uniform-prior support (50, 1000), with no step
size and no tuning.

All randomness flows through one generator in a fixed order, and the
kernels consume pre-drawn uniforms, so a run is reproducible from its seed.

Conditional structure worth knowing before editing:

* A chromosome start is an interval on which both lineages recombine:
  ``gamma`` stays 1 there and ``r`` is 2, so the Hardy-Weinberg restart is
  the two-recombination kernel and no kernel reads where chromosomes begin.
* Because that redraw depends on the admixture proportion, the proportion's
  Beta full conditional counts both lineages of every two-recombination
  arrival, starts included, alongside the informative single-recombination
  transitions.  Dropping the starts leaves a sampler whose stationary law is
  not the posterior (the forward/Gibbs agreement test catches it).
* The allele-frequency full conditionals likewise count every lineage the
  path assigns: homozygous-ancestry cells, the split latent count at
  (ancestry 1, genotype 1) cells, and the unambiguous (1, 0) / (1, 2)
  cells.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ForwardUnderflowError
from .hmm import (
    MISSING,
    TAU_RANGE,
    AimPanel,
    AncestryDraws,
    GenotypeMatrix,
    hwe_rows,
)

log = logging.getLogger(__name__)

_PROB_EPS = 1e-12          # keep sampled probabilities off exact 0/1
# the HmmState attributes recorded per retained draw, as AncestryDraws.traces
TRACED = ("gamma", "rho", "p_a", "p_b", "tau_a", "tau_b")


@dataclass
class HmmHyperparams:
    """Prior settings and sweep schedule for :func:`run_mcmc`.

    ``mu0`` is the prior variance of each recombination probability, which
    fixes a per-interval concentration ``gamma0*(1-gamma0)/mu0 - 1``
    (floored at 1).  ``nu0`` plays the same role for the admixture
    proportions.  ``rho0`` may be a scalar or a per-subject vector.
    """

    lam: float = 6.0
    mu0: float = 1e-4
    rho0: float | np.ndarray = 0.8
    nu0: float = 0.01
    burn_in: int = 500
    n_draws: int = 200
    thin: int = 10
    seed: int | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.mu0 <= 0 or self.nu0 <= 0:
            raise ValueError("mu0 and nu0 must be positive")
        if self.burn_in < 1 or self.n_draws < 1:
            raise ValueError("burn_in and n_draws must be at least 1")
        if self.thin < 1 or self.thin > self.n_draws:
            raise ValueError("thin must lie in [1, n_draws]")

    def rho0_vector(self, n_subjects):
        rho0 = np.asarray(self.rho0, dtype=np.float64)
        if rho0.ndim == 0:
            rho0 = np.full(n_subjects, float(rho0))
        if rho0.shape != (n_subjects,):
            raise ValueError("rho0 must be scalar or one value per subject")
        if np.any((rho0 <= 0.0) | (rho0 >= 1.0)):
            raise ValueError("rho0 must lie strictly inside (0, 1)")
        return rho0


@dataclass
class HmmState:
    """Mutable sampler state for one sweep."""

    s: np.ndarray        # (n_sub, n_loc) int8 ancestry counts
    r: np.ndarray        # (n_sub, n_loc) int8 recombination counts
    x_imp: np.ndarray    # (n_sub, n_loc) int8 genotypes with gaps filled
    p_a: np.ndarray      # (n_loc,) variant frequency, high-risk population
    p_b: np.ndarray      # (n_loc,) variant frequency, low-risk population
    gamma: np.ndarray    # (n_loc,) recombination probabilities
    rho: np.ndarray      # (n_sub,) admixture proportions
    tau_a: float
    tau_b: float


@dataclass
class DerivedPriors:
    """Panel- and hyperparameter-derived quantities fixed across sweeps."""

    gamma0: np.ndarray
    tau_gamma: np.ndarray
    gamma_mask: np.ndarray   # loci whose recombination probability is updated
    rho0: np.ndarray
    tau_rho: float
    missing_cells: tuple   # np.nonzero of the missing-genotype mask


def derive_priors(genotypes: GenotypeMatrix, panel: AimPanel, hyper: HmmHyperparams):
    gamma0 = panel.gamma0(hyper.lam)
    mask = ~panel.chrom_start
    if mask.any():
        spread = gamma0[mask] * (1.0 - gamma0[mask])
        if hyper.mu0 >= spread.max():
            raise ValueError(
                "mu0 must be smaller than max gamma0*(1-gamma0) "
                f"({spread.max():.3g}) for the concentration to be positive"
            )
    tau_gamma = np.maximum(gamma0 * (1.0 - gamma0) / hyper.mu0 - 1.0, 1.0)
    rho0 = hyper.rho0_vector(genotypes.n_subjects)
    spread = rho0 * (1.0 - rho0)
    if hyper.nu0 >= spread.min():
        raise ValueError("nu0 must be smaller than min rho0*(1-rho0)")
    tau_rho = float((spread / hyper.nu0).mean() - 1.0)
    return DerivedPriors(
        gamma0=gamma0,
        tau_gamma=tau_gamma,
        gamma_mask=mask,
        rho0=rho0,
        tau_rho=tau_rho,
        missing_cells=np.nonzero(genotypes.missing_mask),
    )


def initial_state(genotypes: GenotypeMatrix, panel: AimPanel,
                  derived: DerivedPriors, rng) -> HmmState:
    n_sub, n_loc = genotypes.x.shape
    u = rng.random((n_sub, n_loc))
    s = kernels._draw3(hwe_rows(derived.rho0)[:, :, None], u)
    # draw initial recombination counts from their prior: starting from
    # all-zero would force the first sampled paths constant per chromosome
    r = rng.binomial(2, derived.gamma0[None, :], size=(n_sub, n_loc)).astype(np.int8)
    x_imp = genotypes.x.copy()
    x_imp[derived.missing_cells] = 0  # replaced by the first imputation step
    return HmmState(
        s=s,
        r=r,
        x_imp=x_imp,
        p_a=panel.p_a0.copy(),
        p_b=panel.p_b0.copy(),
        gamma=derived.gamma0.copy(),
        rho=derived.rho0.copy(),
        tau_a=float(np.mean(TAU_RANGE)),
        tau_b=float(np.mean(TAU_RANGE)),
    )


# --- individual sweep steps -------------------------------------------------


def impute_missing_genotypes(state: HmmState, missing_cells, rng):
    """Redraw the MISSING genotype cells from the current observation rows.

    ``missing_cells`` is ``np.nonzero`` of the missing mask; one uniform is
    drawn per cell.
    """
    n_missing = missing_cells[0].size
    if not n_missing:
        return
    u = rng.random(n_missing)
    state.x_imp = kernels.impute_genotypes(
        state.x_imp, missing_cells, state.s, state.p_a, state.p_b, u
    )


def sample_ancestry_paths(state: HmmState, rng):
    """FFBS block update of every subject's ancestry path."""
    u = rng.random(state.s.shape)
    state.s = kernels.ffbs_paths(
        state.x_imp, state.r, state.p_a, state.p_b, state.rho, u
    )


def sample_recombination_counts(state: HmmState, rng):
    """Per-interval recombination counts given the ancestry transitions."""
    u = rng.random(state.r.shape)
    state.r = kernels.recombination_counts(state.s, state.gamma, state.rho, u)


def _off_bounds(probs):
    """``np.clip`` into [_PROB_EPS, 1 - _PROB_EPS] at half its cost on a sweep's few values."""
    return np.minimum(np.maximum(probs, _PROB_EPS), 1.0 - _PROB_EPS)


def update_gamma(state: HmmState, derived: DerivedPriors, n_subjects, rng):
    """Conjugate Beta update of recombination probabilities, per interval."""
    mask = derived.gamma_mask
    r_sum = state.r.sum(axis=0, dtype=np.float64)
    a = derived.tau_gamma * derived.gamma0 + r_sum
    b = derived.tau_gamma * (1.0 - derived.gamma0) + 2.0 * n_subjects - r_sum
    draws = rng.beta(a[mask], b[mask])
    state.gamma[mask] = _off_bounds(draws)


def update_rho(state: HmmState, derived: DerivedPriors, rng):
    """Conjugate Beta update of per-subject admixture proportions."""
    a_extra, b_extra = kernels.ancestry_count_stats(state.s, state.r)
    a = derived.tau_rho * derived.rho0 + a_extra
    b = derived.tau_rho * (1.0 - derived.rho0) + b_extra
    state.rho = _off_bounds(rng.beta(a, b))


def allele_freq_posterior_params(counts, n_va, p_a0, p_b0, tau_a, tau_b):
    """Beta parameters for the allele-frequency full conditionals.

    ``counts[j, k, l]`` tabulates (ancestry k, genotype l) at locus j and
    ``n_va`` is the latent number of (1, 1) cells whose variant allele sits
    on the high-risk lineage.
    """
    n = counts.astype(np.float64)
    n00, n01, n02 = n[:, 0, 0], n[:, 0, 1], n[:, 0, 2]
    n10, n11, n12 = n[:, 1, 0], n[:, 1, 1], n[:, 1, 2]
    n20, n21, n22 = n[:, 2, 0], n[:, 2, 1], n[:, 2, 2]
    a_a = tau_a * p_a0 + n21 + 2.0 * n22 + n_va + n12
    b_a = tau_a * (1.0 - p_a0) + n21 + 2.0 * n20 + (n11 - n_va) + n10
    a_b = tau_b * p_b0 + n01 + 2.0 * n02 + (n11 - n_va) + n12
    b_b = tau_b * (1.0 - p_b0) + n01 + 2.0 * n00 + n_va + n10
    return (a_a, b_a), (a_b, b_b)


def update_allele_freqs(state: HmmState, panel: AimPanel, rng):
    """Impute the latent phase split, then Beta-update both frequencies."""
    counts = kernels.genotype_state_counts(state.s, state.x_imp)
    n11 = counts[:, 1, 1]
    w = state.p_a * (1.0 - state.p_b)
    w = w / (w + state.p_b * (1.0 - state.p_a))
    n_va = rng.binomial(n11, w)
    (a_a, b_a), (a_b, b_b) = allele_freq_posterior_params(
        counts, n_va, panel.p_a0, panel.p_b0, state.tau_a, state.tau_b
    )
    state.p_a = _off_bounds(rng.beta(a_a, b_a))
    state.p_b = _off_bounds(rng.beta(a_b, b_b))


def _beta_loglik(tau, freqs, means):
    """Sum over loci of the Beta(tau*means, tau*(1-means)) log density."""
    a = tau * means
    b = tau * (1.0 - means)
    return (
        means.size * math.lgamma(tau)
        - math.fsum(map(math.lgamma, a.tolist()))
        - math.fsum(map(math.lgamma, b.tolist()))
        + float((a - 1.0) @ np.log(freqs))
        + float((b - 1.0) @ np.log1p(-freqs))
    )


def slice_step_tau(tau, freqs, means, rng):
    """One slice-sampling step for a dispersion parameter (Neal 2003).

    The bracket starts as the whole uniform-prior support and shrinks
    towards ``tau`` at each rejected proposal.  It always contains ``tau``,
    whose density clears the level, so the loop ends with probability 1 and
    needs no step size.
    """
    level = _beta_loglik(tau, freqs, means) + math.log1p(-rng.random())
    lo, hi = TAU_RANGE
    while True:
        prop = rng.uniform(lo, hi)
        if _beta_loglik(prop, freqs, means) >= level:
            return prop
        if prop < tau:
            lo = prop
        else:
            hi = prop


def update_tau_mh(state: HmmState, panel: AimPanel, rng):
    """Slice update of both dispersion parameters.

    The name predates the slice step; ``perfbench/spans.py`` wraps the step
    under it.
    """
    state.tau_a = slice_step_tau(state.tau_a, state.p_a, panel.p_a0, rng)
    state.tau_b = slice_step_tau(state.tau_b, state.p_b, panel.p_b0, rng)


# --- the full sampler -------------------------------------------------------


def run_mcmc(genotypes: GenotypeMatrix, panel: AimPanel,
             hyper: HmmHyperparams) -> AncestryDraws:
    """Run the Gibbs sweep schedule and return the retained ancestry draws.

    ``burn_in`` sweeps are discarded, then every ``thin``-th of the next
    ``n_draws`` sweeps is retained, giving ``n_draws // thin`` imputations.
    Deterministic given ``hyper.seed``.
    """
    if genotypes.n_loci != panel.n_loci:
        raise ValueError(
            f"genotype matrix has {genotypes.n_loci} markers, "
            f"panel has {panel.n_loci}"
        )
    derived = derive_priors(genotypes, panel, hyper)
    rng = np.random.default_rng(hyper.seed)
    state = initial_state(genotypes, panel, derived, rng)

    n_sub, n_loc = genotypes.x.shape
    m = hyper.n_draws // hyper.thin
    draws = np.empty((m, n_sub, n_loc), dtype=np.int8)
    sweep_index = np.empty(m, dtype=np.int64)
    traces = {name: np.empty((m, *np.shape(getattr(state, name)))) for name in TRACED}

    kept = 0
    total = hyper.burn_in + hyper.n_draws
    for t in range(total):
        try:
            impute_missing_genotypes(state, derived.missing_cells, rng)
            sample_ancestry_paths(state, rng)
        except ForwardUnderflowError as exc:
            raise ForwardUnderflowError(
                exc.subject,
                exc.locus,
                f"sweep {t}: zero forward mass at subject {exc.subject}, "
                f"locus {exc.locus}",
            ) from exc
        sample_recombination_counts(state, rng)
        update_gamma(state, derived, n_sub, rng)
        update_rho(state, derived, rng)
        update_allele_freqs(state, panel, rng)
        update_tau_mh(state, panel, rng)

        post = t - hyper.burn_in + 1
        if post >= 1 and post % hyper.thin == 0 and kept < m:
            draws[kept] = state.s
            sweep_index[kept] = t
            for name in TRACED:
                traces[name][kept] = getattr(state, name)
            kept += 1
        if (t + 1) % 500 == 0:
            log.debug("sweep %d/%d (%d draws kept)", t + 1, total, kept)

    return AncestryDraws(
        draws=draws,
        sweep_index=sweep_index,
        traces=traces,
        subject_ids=list(genotypes.subject_ids),
        marker_ids=list(panel.marker_ids),
        chrom=panel.chrom.copy(),
        position=panel.position.copy(),
        seed=hyper.seed,
    )
