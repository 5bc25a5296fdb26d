"""Regression fits feeding the Bayes-factor scan.

Traits regress on centered local-ancestry columns plus optional covariates,
with an intercept always included.  Continuous traits use exact least
squares; binary and count traits use Newton's method on the score with
canonical links and dispersion fixed at one.  A fit returns what the Bayes
factor reads: the ancestry coefficients and their estimated covariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError

TRAIT_KINDS = ("continuous", "binary", "count")

_IRLS_MAX_ITER = 100
_IRLS_TOL = 1e-10          # relative log-likelihood gain a Newton step predicts
_MAX_HALVINGS = 50         # step halvings before a Newton direction is given up
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
        # the fits start at logit(mean) or log(mean), which must be finite
        if self.kind == "binary" and np.unique(self.y).size < 2:
            raise ValueError("binary trait has a single class")
        if self.kind == "count" and not self.y.any():
            raise ValueError("count trait has no events")
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
    flag: str | None = None

    @property
    def p(self):
        return self.beta_hat.shape[0]


def solve_spd(a, b):
    """Solve ``a x = b`` for a symmetric positive-definite ``a``.

    Raises :class:`DegenerateDesignError` when ``a`` is not positive
    definite: a singular design, collinear columns, or non-finite entries,
    also when the Cholesky factor passes on a rounding-level pivot.
    """
    try:
        if np.isfinite(np.linalg.cholesky(a)).all():
            return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        pass
    raise DegenerateDesignError(
        f"{a.shape[0]}x{a.shape[0]} matrix is not positive definite"
    )


def expit(eta):
    """Logistic function, computed without overflow for either sign."""
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _irls(y, z, kind):
    """Newton's method on the score, from the intercept-only MLE.

    A step that lowers the log-likelihood is halved until it does not.  The
    fit has converged when a step predicts a gain within the tolerance; that
    step is taken whole.  Returns the coefficients, the information at them
    and whether the fit converged.
    """
    # the count log-likelihood's constant term, sum(log y!), is fixed per fit
    log_y_fact = sum(map(math.lgamma, (y + 1.0).tolist())) if kind == "count" else 0.0

    def terms(coef):
        """Mean, Newton weight and log-likelihood under the canonical link."""
        eta = z @ coef
        if kind == "binary":
            mu = np.clip(expit(eta), 1e-12, 1.0 - 1e-12)
            loglik = y @ np.log(mu) + (1.0 - y) @ np.log1p(-mu)
            return mu, np.maximum(mu * (1.0 - mu), 1e-10), float(loglik)
        mu = np.clip(np.exp(np.clip(eta, -500, 30)), 1e-12, None)
        return mu, mu, float(y @ np.log(mu) - mu.sum() - log_y_fact)

    ybar = y.mean()
    coef = np.zeros(z.shape[1])
    coef[0] = math.log(ybar / (1.0 - ybar)) if kind == "binary" else math.log(ybar)
    mu, w, loglik = terms(coef)
    converged = False
    for _ in range(_IRLS_MAX_ITER):
        score = z.T @ (y - mu)
        step = solve_spd(z.T @ (z * w[:, None]), score)
        converged = score @ step <= 2.0 * _IRLS_TOL * max(1.0, abs(loglik))
        for _ in range(_MAX_HALVINGS):
            trial = coef + step
            trial_terms = terms(trial)
            if converged or trial_terms[2] >= loglik:
                break
            step = step / 2.0
        else:
            break   # no step along the Newton direction raises the likelihood
        coef, (mu, w, loglik) = trial, trial_terms
        if converged:
            break
    return coef, z.T @ (z * w[:, None]), bool(converged)


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
        ztz = z.T @ z
        coef = solve_spd(ztz, z.T @ y)
        resid = y - z @ coef
        sigma2 = float(resid @ resid) / (n - (1 + p + q))
        cov = sigma2 * solve_spd(ztz, np.eye(z.shape[1]))
        return FitResult(
            beta_hat=coef[sl],
            alpha_hat=coef[1 + p:],
            intercept=float(coef[0]),
            sigma_beta_hat=cov[sl, sl],
            sigma2_hat=sigma2,
            converged=True,
        )

    coef, info, converged = _irls(y, z, trait.kind)
    flag = None
    if not converged:
        flag = "irls did not converge"
    elif np.max(np.abs(coef[sl])) > _SEPARATION_LIMIT:
        flag = "separation"
        converged = False
    cov = solve_spd(info, np.eye(z.shape[1]))
    return FitResult(
        beta_hat=coef[sl],
        alpha_hat=coef[1 + p:],
        intercept=float(coef[0]),
        sigma_beta_hat=cov[sl, sl],
        sigma2_hat=1.0,
        converged=converged,
        flag=flag,
    )
