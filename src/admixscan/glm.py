"""Regression fits feeding the Bayes-factor scan.

Traits regress on centered local-ancestry columns plus optional covariates,
with an intercept always included.  Continuous traits use exact least
squares; binary and count traits use iteratively reweighted least squares
with canonical links and dispersion fixed at one.  A fit returns what the
Bayes factor reads: the ancestry coefficients and their estimated
covariance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit, gammaln

from .errors import DegenerateDesignError

TRAIT_KINDS = ("continuous", "binary", "count")

_IRLS_MAX_ITER = 100
_IRLS_TOL = 1e-10          # relative log-likelihood change
_SEPARATION_LIMIT = 15.0   # |ancestry coefficient| flagging separation


@dataclass
class TraitData:
    """Response vector plus covariates; rows must already be complete."""

    y: np.ndarray
    kind: str
    covariates: np.ndarray | None = None
    covariate_names: list | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.y.ndim != 1:
            raise ValueError("trait must be one-dimensional")
        if not np.isfinite(self.y).all():
            raise ValueError("trait contains non-finite values")
        if self.kind not in TRAIT_KINDS:
            raise ValueError(f"unknown trait kind {self.kind!r}")
        if self.kind == "binary" and not np.isin(self.y, (0.0, 1.0)).all():
            raise ValueError("binary trait must take values in {0, 1}")
        if self.kind == "count":
            if np.any(self.y < 0) or np.any(self.y != np.round(self.y)):
                raise ValueError("count trait must hold nonnegative integers")
        if self.covariates is None:
            self.covariates = np.empty((self.y.shape[0], 0))
        self.covariates = np.asarray(self.covariates, dtype=np.float64)
        if self.covariates.ndim != 2 or self.covariates.shape[0] != self.y.shape[0]:
            raise ValueError("covariate matrix must be (n_subjects, q)")
        if not np.isfinite(self.covariates).all():
            raise ValueError("covariates contain non-finite values")

    @property
    def n_subjects(self):
        return self.y.shape[0]

    @property
    def n_covariates(self):
        return self.covariates.shape[1]


@dataclass
class AncestryDesign:
    """Column-centered ancestry values for the loci under test."""

    s: np.ndarray
    locus_ids: list

    @property
    def n_subjects(self):
        return self.s.shape[0]

    @property
    def n_loci(self):
        return self.s.shape[1]


def center_ancestries(raw, locus_ids=None) -> AncestryDesign:
    """Center raw ancestry counts column-wise.

    A constant column cannot be centered into a usable regressor and raises
    :class:`DegenerateDesignError` naming the locus.
    """
    raw = np.asarray(raw)
    if raw.ndim == 1:
        raw = raw[:, None]
    if np.any((raw < 0) | (raw > 2)) or np.any(raw != np.round(raw)):
        raise ValueError("raw ancestry values must be integers in {0, 1, 2}")
    if locus_ids is None:
        locus_ids = list(range(raw.shape[1]))
    spread = raw.max(axis=0) - raw.min(axis=0)
    if np.any(spread == 0):
        j = int(np.flatnonzero(spread == 0)[0])
        raise DegenerateDesignError(
            f"ancestry column {locus_ids[j]!r} is constant"
        )
    s = raw.astype(np.float64)
    s -= s.mean(axis=0)
    return AncestryDesign(s=s, locus_ids=list(locus_ids))


@dataclass
class FitResult:
    beta_hat: np.ndarray          # ancestry coefficients, length p
    alpha_hat: np.ndarray         # covariate coefficients, length q
    intercept: float
    sigma_beta_hat: np.ndarray    # estimated covariance of beta_hat, (p, p)
    sigma2_hat: float             # residual variance (continuous) or 1.0
    converged: bool
    n_used: int
    flag: str | None = None

    @property
    def p(self):
        return self.beta_hat.shape[0]


def _solve_spd(a, b):
    try:
        factor = cho_factor(a)
    except LinAlgError as exc:
        raise DegenerateDesignError(f"singular information matrix: {exc}") from exc
    return cho_solve(factor, b), factor


def _inv_spd(a):
    sol, _ = _solve_spd(a, np.eye(a.shape[0]))
    return sol


def _ols(y, z):
    n, k = z.shape
    ztz = z.T @ z
    coef, _ = _solve_spd(ztz, z.T @ y)
    resid = y - z @ coef
    rss = float(resid @ resid)
    return coef, rss, ztz


def _link_terms(y, eta, kind):
    """Mean and IRLS weight under the canonical link."""
    if kind == "binary":
        mu = np.clip(expit(eta), 1e-12, 1.0 - 1e-12)
        return mu, np.maximum(mu * (1.0 - mu), 1e-10)
    mu = np.clip(np.exp(np.clip(eta, -500, 30)), 1e-12, None)
    return mu, mu


def _irls(y, z, kind):
    # the count log-likelihood's constant term, sum(log y!), is fixed per fit
    log_y_fact = gammaln(y + 1.0).sum() if kind == "count" else 0.0
    coef = np.zeros(z.shape[1])
    loglik = -np.inf
    converged = False
    for _ in range(_IRLS_MAX_ITER):
        eta = z @ coef
        mu, w = _link_terms(y, eta, kind)
        if kind == "binary":
            new_loglik = float(y @ np.log(mu) + (1.0 - y) @ np.log1p(-mu))
        else:
            new_loglik = float(y @ np.log(mu) - mu.sum() - log_y_fact)
        adj = eta + (y - mu) / w
        wz = z * w[:, None]
        coef, _ = _solve_spd(z.T @ wz, wz.T @ adj)
        if np.isfinite(loglik) and abs(new_loglik - loglik) <= _IRLS_TOL * max(
            1.0, abs(loglik)
        ):
            converged = True
            break
        loglik = new_loglik
    # refresh the information at the final coefficients
    _, w = _link_terms(y, z @ coef, kind)
    return coef, z.T @ (z * w[:, None]), converged


def fit_glm(trait: TraitData, design: AncestryDesign) -> FitResult:
    """Fit the trait on centered ancestries plus covariates.

    Binary and count fits showing separation (an ancestry coefficient beyond
    ``_SEPARATION_LIMIT`` on the link scale) or failing to converge come
    back flagged rather than raising, so a scan can skip the locus and keep
    going.
    """
    y = trait.y
    n = trait.n_subjects
    if design.n_subjects != n:
        raise ValueError("trait and ancestry design are not row-aligned")
    p = design.n_loci
    q = trait.n_covariates
    if n <= p + q + 1:
        raise DegenerateDesignError(
            f"{n} subjects cannot identify {p + q + 1} coefficients"
        )
    z = np.column_stack([np.ones(n), design.s, trait.covariates])
    sl = slice(1, 1 + p)

    if trait.kind == "continuous":
        coef, rss, ztz = _ols(y, z)
        dof = n - (1 + p + q)
        sigma2 = rss / dof
        cov = sigma2 * _inv_spd(ztz)
        return FitResult(
            beta_hat=coef[sl],
            alpha_hat=coef[1 + p:],
            intercept=float(coef[0]),
            sigma_beta_hat=cov[sl, sl],
            sigma2_hat=float(sigma2),
            converged=True,
            n_used=n,
        )

    coef, info, converged = _irls(y, z, trait.kind)
    flag = None
    if not converged:
        flag = "irls did not converge"
    elif np.max(np.abs(coef[sl])) > _SEPARATION_LIMIT:
        flag = "separation"
        converged = False
    cov = _inv_spd(info)
    return FitResult(
        beta_hat=coef[sl],
        alpha_hat=coef[1 + p:],
        intercept=float(coef[0]),
        sigma_beta_hat=cov[sl, sl],
        sigma2_hat=1.0,
        converged=converged,
        n_used=n,
        flag=flag,
    )
