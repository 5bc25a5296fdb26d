"""Blocked Gibbs sampler for the admixture HMM.

``sweep(state, derived, rng)`` updates, in order: imputed genotypes,
ancestry paths (forward filtering backward sampling, one block per
subject), per-interval recombination counts, recombination probabilities,
subject admixture proportions, reference allele frequencies (with a latent
phase split at ancestry-heterozygous genotype-heterozygous cells), and the
two frequency-dispersion parameters by one exact slice step each (Neal
2003, Ann. Statist.) over their uniform-prior support (50, 1000), with no
step size and no tuning.  ``run_mcmc`` repeats it and keeps the draws.

Everything fixed for a run is one ``DerivedPriors``, built by
``derive_priors``; each step reads only the state, those priors, the
sweep's tables and the generator.

A slice step's output is the proposal it accepts, so only each comparison
of a proposal's log density with the level must be the exact density's.
The prior means are fixed for a run, so each population's ``FreqPrior``
carries their moments, and Stirling's series turns the 2 L lgamma terms of
the Beta log density into a few scalar operations per proposal, with a
proven bound on the distance from the exact sum: the series' remainder
plus the rounding of both evaluations (``_fast_loglik``).  A comparison
that the bounds at tau and at the proposal cannot decide, or whose bound
is inf or NaN (means near 0 or 1, as at FREQ_CLAMP), is recomputed with
the exact density, so every draw is the exact density's, bit for bit.

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
import time
from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from . import kernels
from .errors import ForwardUnderflowError
from .hmm import (
    TAU_RANGE,
    AimPanel,
    AncestryDraws,
    GenotypeMatrix,
    hwe_rows,
    observation_rows,
    transition_kernels,
)

log = logging.getLogger(__name__)

_PROB_EPS = 1e-12          # keep sampled probabilities off exact 0/1
PROGRESS_EVERY = 500       # sweeps between progress lines
# cells in a chunk of whole rows whose uniforms are drawn at once
ROW_CHUNK_CELLS = 65536
# the HmmState attributes recorded per retained draw, as AncestryDraws.traces
TRACED = ("gamma", "rho", "p_a", "p_b", "tau_a", "tau_b")


@dataclass
class HmmHyperparams:
    """Prior settings and sweep schedule for :func:`run_mcmc`.

    ``mu0`` is the prior variance of each recombination probability, which
    fixes a per-interval concentration ``gamma0*(1-gamma0)/mu0 - 1``
    (floored at 1).  ``nu0`` plays the same role for the admixture
    proportions, whose prior mean ``rho0`` every subject shares.
    """

    lam: float = 6.0
    mu0: float = 1e-4
    rho0: float = 0.8
    nu0: float = 0.01
    burn_in: int = 500
    n_draws: int = 200
    thin: int = 10
    seed: int | None = None

    def __post_init__(self):
        for name in ("lam", "mu0", "nu0", "rho0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.mu0 <= 0 or self.nu0 <= 0:
            raise ValueError("mu0 and nu0 must be positive")
        if not 0.0 < self.rho0 < 1.0:
            raise ValueError("rho0 must lie strictly inside (0, 1)")
        if self.nu0 >= self.rho0 * (1.0 - self.rho0):
            raise ValueError("nu0 must be smaller than rho0*(1-rho0)")
        if self.burn_in < 1 or self.n_draws < 1:
            raise ValueError("burn_in and n_draws must be at least 1")
        if self.thin < 1 or self.thin > self.n_draws:
            raise ValueError("thin must lie in [1, n_draws]")


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


@dataclass(frozen=True, eq=False)
class FreqPrior:
    """One population's prior allele-frequency means m, with sums over q = (m, 1 - m).

    The frequencies are Beta(tau m, tau (1 - m)).  With the sums
    ``slice_step_tau`` reads that log density, and a bound on its error, in
    O(1) per proposed tau.  The inverse powers give Stirling's series and
    its remainder.  A mean at or within ~1e-28 of 0 or 1, or outside [0, 1],
    makes a sum inf or NaN, which sends every comparison of the slice step
    to the exact density; every finite set of sums has all q in (0, 1], so
    ln q <= 0.
    """

    means: np.ndarray
    weights: np.ndarray  # rows q and ones, for the sums of q ln f and of ln f
    q: float             # sum q
    qlnq: float          # sum q ln q
    lnq: float           # sum ln q
    inv: tuple           # sum q**(1 - 2k), k = 1..6

    @classmethod
    def of(cls, means):
        means = np.asarray(means, dtype=np.float64)
        q = np.concatenate((means, 1.0 - means))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lnq = np.log(q)
            inv = 1.0 / q
            sums = [float(x.sum()) for x in (q, q * lnq, lnq)]
            powers = tuple(float((inv * (inv * inv) ** k).sum()) for k in range(6))
        return cls(means, np.stack((q, np.ones_like(q))), *sums, powers)


@dataclass
class DerivedPriors:
    """Everything a run holds fixed, derived once by :func:`derive_priors`."""

    gamma0: np.ndarray
    tau_gamma: np.ndarray
    gamma_mask: np.ndarray   # loci whose recombination probability is updated
    rho0: np.ndarray         # (n_sub,) prior mean admixture proportions
    tau_rho: float
    prior_a: FreqPrior       # allele frequencies, high-risk population
    prior_b: FreqPrior       # allele frequencies, low-risk population
    missing_cells: tuple     # np.nonzero of the missing-genotype mask


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
    rho0 = np.full(genotypes.n_subjects, hyper.rho0)
    # averaged over subjects: the scalar formula can differ in the last bit
    tau_rho = float((rho0 * (1.0 - rho0) / hyper.nu0).mean() - 1.0)
    return DerivedPriors(
        gamma0=gamma0,
        tau_gamma=tau_gamma,
        gamma_mask=mask,
        rho0=rho0,
        tau_rho=tau_rho,
        prior_a=FreqPrior.of(panel.p_a0),
        prior_b=FreqPrior.of(panel.p_b0),
        missing_cells=np.nonzero(genotypes.missing_mask),
    )


def initial_state(genotypes: GenotypeMatrix, derived: DerivedPriors, rng) -> HmmState:
    """Draw s, then r, by chunks of rows: the stream of one whole-matrix draw of each."""
    s = np.empty(genotypes.x.shape, dtype=np.int8)
    parts = []
    for part, u in _chunk_uniforms(s.shape, rng):
        s[part] = kernels._draw3(hwe_rows(derived.rho0[part])[:, :, None], u)
        parts.append(part)
    # draw initial recombination counts from their prior: starting from
    # all-zero would force the first sampled paths constant per chromosome
    r = np.empty(s.shape, dtype=np.int8)
    for part in parts:
        r[part] = rng.binomial(2, derived.gamma0, size=r[part].shape)
    x_imp = genotypes.x.copy()
    x_imp[derived.missing_cells] = 0  # replaced by the first imputation step
    return HmmState(
        s=s,
        r=r,
        x_imp=x_imp,
        p_a=derived.prior_a.means.copy(),
        p_b=derived.prior_b.means.copy(),
        gamma=derived.gamma0.copy(),
        rho=derived.rho0.copy(),
        tau_a=float(np.mean(TAU_RANGE)),
        tau_b=float(np.mean(TAU_RANGE)),
    )


# --- individual sweep steps -------------------------------------------------


def impute_missing_genotypes(state: HmmState, derived: DerivedPriors, rows, rng):
    """Redraw the MISSING genotype cells from the sweep's observation rows.

    One uniform is drawn per cell of ``derived.missing_cells``.
    """
    cells = derived.missing_cells
    if cells[0].size:
        u = rng.random(cells[0].size)
        state.x_imp = kernels.impute_genotypes(state.x_imp, cells, state.s, rows, u)


def _chunk_uniforms(shape, rng):
    """Each chunk of ``ROW_CHUNK_CELLS`` cells in whole rows (at least one) with its uniforms.

    Over the chunks, in order, ``rng`` draws what one ``rng.random(shape)``
    draws.  Every chunk's uniforms overwrite the last chunk's.
    """
    n_sub, n_loc = shape
    step = max(1, ROW_CHUNK_CELLS // n_loc)
    buf = np.empty((min(step, n_sub), n_loc))
    for a in range(0, n_sub, step):
        u = buf[:n_sub - a]
        rng.random(out=u)
        yield slice(a, a + step), u


def sample_ancestry_paths(state: HmmState, rows, kern, rng):
    """FFBS block update of every subject's ancestry path, on the sweep's tables.

    A uniform is drawn for every cell, and those of the cells FFBS reads are
    kept.
    """
    r = state.r
    u = np.concatenate([np.compress(kernels.read_cells(r[part]).ravel(), chunk)
                        for part, chunk in _chunk_uniforms(r.shape, rng)])
    state.s = kernels.ffbs_paths(state.x_imp, r, rows, kern, u)


def sample_recombination_counts(state: HmmState, kern, rng):
    """Per-interval recombination counts given the ancestry transitions, by chunks of rows."""
    r = np.empty(state.s.shape, dtype=np.int8)
    for part, u in _chunk_uniforms(r.shape, rng):
        r[part] = kernels.recombination_counts(state.s[part], state.gamma, kern[..., part], u,
                                               part.start)
    state.r = r


def _off_bounds(probs):
    """``np.clip`` into [_PROB_EPS, 1 - _PROB_EPS] at half its cost on a sweep's few values."""
    return np.minimum(np.maximum(probs, _PROB_EPS), 1.0 - _PROB_EPS)


def update_gamma(state: HmmState, derived: DerivedPriors, rng):
    """Conjugate Beta update of recombination probabilities, per interval."""
    mask = derived.gamma_mask
    r_sum = state.r.sum(axis=0, dtype=np.float64)
    a = derived.tau_gamma * derived.gamma0 + r_sum
    b = derived.tau_gamma * (1.0 - derived.gamma0) + 2.0 * state.r.shape[0] - r_sum
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


def update_allele_freqs(state: HmmState, derived: DerivedPriors, rng):
    """Impute the latent phase split, then Beta-update both frequencies."""
    counts = kernels.genotype_state_counts(state.s, state.x_imp)
    n11 = counts[:, 1, 1]
    w = state.p_a * (1.0 - state.p_b)
    w = w / (w + state.p_b * (1.0 - state.p_a))
    n_va = rng.binomial(n11, w)
    (a_a, b_a), (a_b, b_b) = allele_freq_posterior_params(
        counts, n_va, derived.prior_a.means, derived.prior_b.means, state.tau_a, state.tau_b
    )
    # one call: Generator.beta draws element by element, so the stream is that
    # of p_a's call then p_b's, with one set of argument checks
    state.p_a, state.p_b = _off_bounds(rng.beta(np.stack((a_a, a_b)), np.stack((b_a, b_b))))


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


_U = 2.0 ** -53                        # unit roundoff of float64
_LN_2PI = math.log(2.0 * math.pi)
# Stirling's series (DLMF 5.11.1): B_2k / (2k (2k - 1)) for k = 1..5, and
# |B_12| / (12 * 11): for a positive argument z the remainder after five
# terms is at most the first omitted term, c6 z**-11 (DLMF 5.11(ii))
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_REMAINDER = 691.0 / 360360.0


def _fast_loglik(tau, prior, a_sum, b_sum):
    """``_beta_loglik`` from the moments of ``prior``, and a bound on its distance from it.

    With q running over the 2 L values (m, 1 - m), Stirling's series gives

        sum_q lgamma(tau q) = tau ln tau sum q + tau sum q ln q - L ln tau
                              - sum ln q / 2 - tau sum q + L ln 2 pi
                              + sum_k c_k tau**(1 - 2k) sum q**(1 - 2k) + R,

    |R| <= c6 tau**-11 sum q**-11, and the data part is tau a_sum - b_sum.

    The bound adds the rounding of both evaluations.  With
    s(z) = z |ln z| + z + |ln z| + 8 for an lgamma argument z, the exact
    side errs by at most (16 + 1 + 1) u s(z) per lgamma term (math.lgamma
    within 16 ulps of s(z), measured within 2.1; the rounded argument
    tau * q; fsum), and each sum over L or 2 L terms, in either evaluation,
    by gamma_N = N u / (1 - N u) times the sum of its absolute terms, with
    N = 2 L + 2.  Every term is bounded by the scale S below, built from
    |ln(tau q)| <= ln tau - ln q (q <= 1 < tau), |a - 1| <= a + 1 and the
    moments, and the dozen scalar operations add a few u S.  The series
    terms sum to under 0.09 per argument z >= 1, inside the 16 L of S; a
    smaller z makes the remainder bound dwarf their rounding.  So
    kappa = (4 N + 64) u gives kappa S at least twice the rounding, which
    also covers the rounding of the level (|level| <= S + 37) and of the
    gap it is compared with.  The remainder is inflated by 1 + kappa for
    the rounding of its own moment and powers.  The bound is inf or NaN
    when a moment is.
    """
    m = prior
    n = m.means.size
    lx = math.log(tau)
    y = 1.0 / tau
    y2 = y * y
    c1, c2, c3, c4, c5 = _STIRLING
    s1, s3, s5, s7, s9, s11 = m.inv
    series = y * (c1 * s1 + y2 * (c2 * s3 + y2 * (c3 * s5 + y2 * (c4 * s7 + y2 * c5 * s9))))
    lg = n * math.lgamma(tau)
    stirling = tau * (m.q * (lx - 1.0) + m.qlnq) - n * lx - 0.5 * m.lnq + n * _LN_2PI + series
    value = lg - stirling + tau * a_sum - b_sum
    scale = (tau * (m.q * (lx + 1.0) - m.qlnq) + 2 * n * lx - m.lnq + 16 * n
             + lg + tau * abs(a_sum) + abs(b_sum))
    kappa = (8 * n + 72) * _U
    remainder = _STIRLING_REMAINDER * y * y2 ** 5 * s11
    return value, (1.0 + kappa) * remainder + kappa * scale


def slice_step_tau(tau, freqs, prior: FreqPrior, rng):
    """One slice-sampling step for a dispersion parameter (Neal 2003).

    The bracket starts as the whole uniform-prior support and shrinks
    towards ``tau`` at each rejected proposal.  It always contains ``tau``,
    whose density clears the level, so the loop ends with probability 1 and
    needs no step size.

    Each proposal is judged against the level by ``_fast_loglik`` when the
    two differ by more than the sum of its bounds at ``tau`` and at the
    proposal.  Otherwise, or where a bound is inf or NaN, both sides are
    recomputed exactly by ``_beta_loglik``, so every decision, and every
    draw, is the exact density's.
    """
    # sum q ln f over (f, 1 - f) against q = (m, 1 - m), and sum ln f
    a_sum, b_sum = (prior.weights @ np.concatenate((np.log(freqs), np.log1p(-freqs)))).tolist()
    cur, cur_bound = _fast_loglik(tau, prior, a_sum, b_sum)
    drop = math.log1p(-rng.random())
    level = cur + drop
    exact_level = None
    lo, hi = TAU_RANGE
    while True:
        prop = rng.uniform(lo, hi)
        value, bound = _fast_loglik(prop, prior, a_sum, b_sum)
        gap = value - level
        if abs(gap) > cur_bound + bound:     # False for an inf or NaN bound
            clears = gap > 0.0
        else:
            if exact_level is None:
                exact_level = _beta_loglik(tau, freqs, prior.means) + drop
            clears = _beta_loglik(prop, freqs, prior.means) >= exact_level
        if clears:
            return prop
        if prop < tau:
            lo = prop
        else:
            hi = prop


def update_tau_mh(state: HmmState, derived: DerivedPriors, rng):
    """Slice update of both dispersion parameters.

    The name predates the slice step; ``perfbench/spans.py`` wraps the step
    under it.
    """
    state.tau_a = slice_step_tau(state.tau_a, state.p_a, derived.prior_a, rng)
    state.tau_b = slice_step_tau(state.tau_b, state.p_b, derived.prior_b, rng)


def sweep(state: HmmState, derived: DerivedPriors, rng):
    """One Gibbs sweep: every step once, in order, on ``state`` in place.

    Each step is looked up on this module per call, so a wrapper set there
    (``perfbench/spans.py``) sees it.
    """
    # the tables of the first three steps, which change none of p_a, p_b, rho
    rows = observation_rows(state.p_a, state.p_b)
    kern = transition_kernels(state.rho)
    impute_missing_genotypes(state, derived, rows, rng)
    sample_ancestry_paths(state, rows, kern, rng)
    sample_recombination_counts(state, kern, rng)
    update_gamma(state, derived, rng)
    update_rho(state, derived, rng)
    update_allele_freqs(state, derived, rng)
    update_tau_mh(state, derived, rng)


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
    state = initial_state(genotypes, derived, rng)

    m = hyper.n_draws // hyper.thin
    draws = np.empty((m, *genotypes.x.shape), dtype=np.int8)
    sweep_index = np.empty(m, dtype=np.int64)
    traces = {name: np.empty((m, *np.shape(getattr(state, name)))) for name in TRACED}

    kept = 0
    total = hyper.burn_in + hyper.n_draws
    start = time.perf_counter()
    for t in range(total):
        try:
            sweep(state, derived, rng)
        except ForwardUnderflowError as exc:
            raise ForwardUnderflowError(
                exc.subject,
                exc.locus,
                f"sweep {t}: zero forward mass at subject {exc.subject}, "
                f"locus {exc.locus}",
            ) from exc

        post = t - hyper.burn_in + 1
        if post >= 1 and post % hyper.thin == 0 and kept < m:
            draws[kept] = state.s
            sweep_index[kept] = t
            for name in TRACED:
                traces[name][kept] = getattr(state, name)
            kept += 1
        if (t + 1) % PROGRESS_EVERY == 0:
            rate = (t + 1) / (time.perf_counter() - start)
            log.info("sweep %d/%d, %.1f sweeps/s, ETA %s (%d draws kept)", t + 1, total,
                     rate, timedelta(seconds=round((total - t - 1) / rate)), kept)

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
