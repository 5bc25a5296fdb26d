"""Quadratic-moment prior density and the closed-form Bayes factor.

The prior on the p ancestry coefficients is a mean-zero Gaussian with
covariance ``n * tau * sigma2 * Sigma`` multiplied by the normalised
quadratic form ``beta' Sigma^-1 beta / (n tau sigma2 p)``, so it vanishes
at beta = 0 and pushes mass away from the null.  With ``sigma2 * Sigma``
read as the sampling covariance of the coefficient estimate, the Bayes
factor against the all-zero null reduces to

    BF = (p + T) / (p * (1 + n*tau)^(p/2 + 1)) * exp(T / 2),
    T  = n*tau / (1 + n*tau) * W,

where W is the Wald quadratic form of the fit.  Note sigma2 cancels out of
T once Sigma_beta_hat already is the estimated covariance of beta_hat; the
fit supplies exactly that, so W = beta' Sigma_beta_hat^-1 beta.

The dispersion tau is set empirically: the Bayes factor's maximiser over
tau is the root of a quadratic (see :func:`bf_for_fit`), clamped to a
wide bracket.  Data consistent with the null (W <= p) put the maximiser at
the lower bracket edge, which is returned as-is and yields BF <= 1.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .glm import NOT_PD, solve_spd, solve_spd_stack

TAU_BRACKET = (1e-8, 1e4)


@dataclass
class QnmSpec:
    """Prior specification: dispersion, variance scale, and scale matrix.

    ``sigma2 * scale`` is the sampling covariance of the coefficient
    estimator; ``n_subjects`` enters the prior covariance multiplicatively.
    """

    tau: float
    sigma2: float
    scale: np.ndarray
    n_subjects: int = 1

    def __post_init__(self):
        self.scale = np.atleast_2d(np.asarray(self.scale, dtype=np.float64))
        if self.tau <= 0 or self.sigma2 <= 0 or self.n_subjects < 1:
            raise ValueError("tau, sigma2 must be positive and n_subjects >= 1")
        if self.scale.shape[0] != self.scale.shape[1]:
            raise ValueError("scale matrix must be square")

    @property
    def p(self):
        return self.scale.shape[0]


@dataclass
class BfValue:
    """A Bayes factor on the log10 scale, with its ingredients; a batch holds arrays."""

    log10_bf: float
    tau_hat: float
    p: int
    flag: str | None = None

    def reshape(self, *shape):
        """A batch with its fit axis reshaped, e.g. to (sets, imputations)."""
        return BfValue(self.log10_bf.reshape(shape), self.tau_hat.reshape(shape),
                       self.p, self.flag.reshape(shape))


def qnm_density(beta, spec: QnmSpec):
    """Evaluate the prior density at one point (p,) or many points (m, p)."""
    beta = np.asarray(beta, dtype=np.float64)
    single = beta.ndim == 1
    pts = np.atleast_2d(beta)
    p = spec.p
    if pts.shape[1] != p:
        raise ValueError(f"beta has dimension {pts.shape[1]}, spec has {p}")
    v = spec.n_subjects * spec.tau * spec.sigma2
    quad = np.einsum("ij,ij->i", pts, solve_spd(spec.scale, pts.T).T)
    logdet = np.linalg.slogdet(spec.scale)[1]
    log_norm = -0.5 * (p * np.log(2.0 * np.pi * v) + logdet) - quad / (2.0 * v)
    dens = quad / (v * p) * np.exp(log_norm)
    return float(dens[0]) if single else dens


def log_bf(wald, p, n_tau):
    """Natural-log Bayes factor for Wald statistics and scaled dispersions."""
    t = n_tau / (1.0 + n_tau) * wald
    return np.log1p(t / p) - (p / 2.0 + 1.0) * np.log1p(n_tau) + t / 2.0


def _tau_from_wald(wald, p, n_subjects):
    # With x = n*tau, d log BF / dx = 0 reduces to A x^2 - B x - C = 0 with
    # A = (p+2)(W+p) > 0, B = W^2 - 2p(p+2), C = (p+2)(W-p).  For W > p it
    # has exactly one positive root, where log BF turns from rising to
    # falling; for W <= p log BF falls for every x > 0.
    lo, hi = TAU_BRACKET
    a = (p + 2.0) * (wald + p)
    b = wald * wald - 2.0 * p * (p + 2.0)
    c = (p + 2.0) * (wald - p)
    with np.errstate(invalid="ignore"):   # W <= p: no positive root to take
        n_tau = (b + np.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)
    return np.where(wald <= p, lo, np.clip(n_tau / n_subjects, lo, hi))


def bf_for_fit(fit, n_subjects) -> BfValue:
    """Bayes factor at the tau in ``TAU_BRACKET`` that maximises it.

    Takes one fit or a batch from :func:`glm.fit_glm` and returns one value
    or a batch.  A fit that cannot be scored comes back flagged with the
    reason.
    """
    single = np.ndim(fit.converged) == 0
    p = fit.p
    beta = fit.beta_hat.reshape(-1, p)
    ok = np.flatnonzero(fit.converged)
    flag = np.array([fit.flag] if single else fit.flag, dtype=object)
    flag[(flag == None) & ~np.atleast_1d(fit.converged)] = "fit not converged"  # noqa: E711
    x, solved = solve_spd_stack(fit.sigma_beta_hat.reshape(-1, p, p)[ok], beta[ok])
    wald = np.einsum("bp,bp->b", beta[ok], x)
    flag[ok[~solved]] = "coefficient covariance: " + NOT_PD.format(p)
    flag[ok[solved & ~np.isfinite(wald)]] = "non-finite quadratic statistic"
    good = np.isfinite(wald)
    tau_hat, log10_bf = np.full((2, len(flag)), np.nan)
    tau_hat[ok[good]] = _tau_from_wald(wald[good], p, n_subjects)
    log10_bf[ok[good]] = log_bf(wald[good], p, n_subjects * tau_hat[ok[good]]) / math.log(10.0)
    if single:
        return BfValue(float(log10_bf[0]), float(tau_hat[0]), p, flag[0])
    return BfValue(log10_bf, tau_hat, p, flag)


def average_bf(values) -> BfValue:
    """Average Bayes factors (on the BF scale, not log) across imputations.

    ``values`` is a list of single values, or a batch of shape (sets,
    imputations) averaged per set.  Flagged entries drop out and the rest
    count equally; the average is computed in log space for stability.  When
    every entry is flagged the result carries the most common reason.
    """
    if not isinstance(values, BfValue):
        values = list(values)
        if not values:
            raise ValueError("no Bayes factors to average")
        one = average_bf(BfValue(np.array([[v.log10_bf for v in values]]), None, values[0].p,
                                 np.array([[v.flag for v in values]], dtype=object)))
        return BfValue(float(one.log10_bf[0]), float("nan"), one.p, one.flag[0])
    kept = values.flag == None  # noqa: E711 -- elementwise over the flag array
    ln_bf = np.where(kept, values.log10_bf * math.log(10.0), -np.inf)
    top = ln_bf.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):   # rows with nothing kept
        ln_avg = top[:, 0] + np.log(np.exp(ln_bf - top).sum(axis=1) / kept.sum(axis=1))
    flag = np.empty(len(kept), dtype=object)
    for i in np.flatnonzero(~kept.any(axis=1)):
        [(flag[i], _)] = Counter(values.flag[i]).most_common(1)
    return BfValue(ln_avg / math.log(10.0), np.full(len(kept), np.nan), values.p, flag)


def hwe_second_moment(p_a):
    """E[S^2] for an ancestry count under Hardy-Weinberg at frequency p_a."""
    return 2.0 * p_a * (1.0 + p_a)


def spec_for_frequency(p_a, tau, sigma2, n_subjects) -> QnmSpec:
    """Univariate prior spec whose scale is the expected (S'S)^-1 at p_a."""
    scale = 1.0 / (n_subjects * hwe_second_moment(p_a))
    return QnmSpec(tau=tau, sigma2=sigma2, scale=np.array([[scale]]),
                   n_subjects=n_subjects)


def spec_from_ancestry(raw_s, tau, sigma2) -> QnmSpec:
    """Prior spec built from sampled ancestry columns via (S'S)^-1."""
    raw_s = np.asarray(raw_s, dtype=np.float64)
    if raw_s.ndim == 1:
        raw_s = raw_s[:, None]
    gram = raw_s.T @ raw_s
    scale = solve_spd(gram, np.eye(gram.shape[0]))
    return QnmSpec(tau=tau, sigma2=sigma2, scale=scale,
                   n_subjects=raw_s.shape[0])


def density_grid(p_a_values, tau, sigma2, n_subjects, betas=None):
    """Tabulate univariate prior surfaces over a beta grid, one per frequency.

    Returns an array with columns (p_a, beta, density), ready to write as a
    plot table.
    """
    rows = []
    for p_a in p_a_values:
        spec = spec_for_frequency(p_a, tau, sigma2, n_subjects)
        v = spec.n_subjects * spec.tau * spec.sigma2 * spec.scale[0, 0]
        grid = betas
        if grid is None:
            half = 6.0 * math.sqrt(v)
            grid = np.linspace(-half, half, 201)
        dens = qnm_density(np.asarray(grid, dtype=np.float64)[:, None], spec)
        for b, f in zip(grid, dens):
            rows.append((float(p_a), float(b), float(f)))
    return np.array(rows)
