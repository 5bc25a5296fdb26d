"""Closed-form Bayes factor under the quadratic-moment prior.

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

No command evaluates the prior density itself; ``tests/qnm_helpers.py``
holds it, as the reference the tests check the closed form against by
quadrature.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .glm import NOT_PD, solve_spd_stack

TAU_BRACKET = (1e-8, 1e4)


@dataclass
class BfValue:
    """A batch of log10 Bayes factors: every field but the shared ``p`` is an array over fits."""

    log10_bf: np.ndarray
    tau_hat: np.ndarray
    p: int
    flag: np.ndarray    # objects: each fit's reason for not scoring it, or None

    def reshape(self, *shape):
        """The batch with its fit axis reshaped, e.g. to (sets, imputations)."""
        return BfValue(self.log10_bf.reshape(shape), self.tau_hat.reshape(shape),
                       self.p, self.flag.reshape(shape))


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
    """Bayes factor of each fit of a batch, at the tau in ``TAU_BRACKET`` that maximises it.

    Takes a batch from :func:`glm.fit_glm` and returns a batch.  A fit that
    cannot be scored comes back flagged with the reason.
    """
    p = fit.p
    ok = np.flatnonzero(fit.converged)
    flag = np.array(fit.flag, dtype=object)
    flag[(flag == None) & ~fit.converged] = "fit not converged"  # noqa: E711
    x, solved = solve_spd_stack(fit.sigma_beta_hat[ok], fit.beta_hat[ok])
    wald = np.einsum("bp,bp->b", fit.beta_hat[ok], x)
    flag[ok[~solved]] = "coefficient covariance: " + NOT_PD.format(p)
    flag[ok[solved & ~np.isfinite(wald)]] = "non-finite quadratic statistic"
    good = np.isfinite(wald)
    tau_hat, log10_bf = np.full((2, len(flag)), np.nan)
    tau_hat[ok[good]] = _tau_from_wald(wald[good], p, n_subjects)
    log10_bf[ok[good]] = log_bf(wald[good], p, n_subjects * tau_hat[ok[good]]) / math.log(10.0)
    return BfValue(log10_bf, tau_hat, p, flag)


def average_bf(values) -> BfValue:
    """Average Bayes factors (on the BF scale, not log) across imputations.

    ``values`` is a batch of shape (sets, imputations), averaged per set.
    Flagged entries drop out and the rest count equally; the average is
    computed in log space for stability.  When every entry of a set is
    flagged the result carries the most common reason.
    """
    kept = values.flag == None  # noqa: E711 -- elementwise over the flag array
    ln_bf = np.where(kept, values.log10_bf * math.log(10.0), -np.inf)
    top = ln_bf.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):   # rows with nothing kept
        ln_avg = top[:, 0] + np.log(np.exp(ln_bf - top).sum(axis=1) / kept.sum(axis=1))
    flag = np.empty(len(kept), dtype=object)
    for i in np.flatnonzero(~kept.any(axis=1)):
        [(flag[i], _)] = Counter(values.flag[i]).most_common(1)
    return BfValue(ln_avg / math.log(10.0), np.full(len(kept), np.nan), values.p, flag)
