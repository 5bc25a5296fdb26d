"""Regression fits feeding the Bayes-factor scan.

Traits regress on centered local-ancestry columns plus optional covariates,
with an intercept always included.  Continuous traits use exact least
squares; binary and count traits use Newton's method on the score with
canonical links and dispersion fixed at one.  A fit returns what the Bayes
factor reads: the ancestry coefficients and their estimated covariance.

A design holds one fit's ancestry columns, ``(n, p)``, or a batch of B fits
sharing the trait and covariates, ``(B, n, p)``; one design is a batch of
one.  Each fit converges and halves its steps on its own: the rest of its
batch touches it only through the rounding of sums over subjects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
    """Column-centered ancestry values for the loci under test; a batch flags each fit."""

    s: np.ndarray
    locus_ids: list
    flags: list | None = None


def center_ancestries(raw, locus_ids=None) -> AncestryDesign:
    """Center raw ancestry counts column-wise, per fit for a ``(B, n, p)`` batch.

    A constant column cannot be centered into a usable regressor: one design
    raises :class:`DegenerateDesignError` naming the locus, a batch (with a
    list of locus ids per fit) flags that fit.
    """
    raw = np.asarray(raw)
    if raw.ndim == 1:
        raw = raw[:, None]
    single = raw.ndim == 2
    if np.any((raw < 0) | (raw > 2)) or np.any(raw != np.round(raw)):
        raise ValueError("raw ancestry values must be integers in {0, 1, 2}")
    if locus_ids is None:
        locus_ids = [*range(raw.shape[-1])] if single else [[*range(raw.shape[-1])]] * len(raw)
    batch, ids = (raw[None], [locus_ids]) if single else (raw, locus_ids)
    constant = batch.max(axis=1) == batch.min(axis=1)
    flags = [f"ancestry column {ids[b][np.argmax(c)]!r} is constant" if c.any() else None
             for b, c in enumerate(constant)]
    if single and flags[0]:
        raise DegenerateDesignError(flags[0])
    s = raw.astype(np.float64)
    s -= s.mean(axis=-2, keepdims=True)
    return AncestryDesign(s=s, locus_ids=list(locus_ids), flags=flags)


@dataclass
class FitResult:
    """One fit, or a batch with a leading fit axis on every field."""

    beta_hat: np.ndarray          # ancestry coefficients, length p
    alpha_hat: np.ndarray         # covariate coefficients, length q
    intercept: float
    sigma_beta_hat: np.ndarray    # estimated covariance of beta_hat, (p, p)
    sigma2_hat: float             # residual variance (continuous) or 1.0
    converged: bool
    flag: str | None = None       # a batch holds a list of flags

    @property
    def p(self):
        return self.beta_hat.shape[-1]


NOT_PD = "{0}x{0} matrix is not positive definite"


def solve_spd(a, b):
    """Solve ``a x = b`` for a symmetric positive-definite ``a``.

    Raises :class:`DegenerateDesignError` when ``a`` is not positive
    definite: a singular design, collinear columns, or non-finite entries,
    also when the Cholesky factor passes on a rounding-level pivot.
    """
    x, solved = solve_spd_stack(a[None], b[None])
    if not solved[0]:
        raise DegenerateDesignError(NOT_PD.format(a.shape[0]))
    return x[0]


def solve_spd_stack(a, b):
    """Solve every system of a stack, ``a`` (B, k, k) and ``b`` (B, k) or (B, k, ...).

    Returns the solutions and a mask of the systems solved; a system that
    :func:`solve_spd` refuses comes back NaN, found one system at a time.
    """
    vector = b.ndim == 2
    try:
        if np.isfinite(np.linalg.cholesky(a)).all():
            x = np.linalg.solve(a, b[..., None] if vector else b)
            return (x[..., 0] if vector else x), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    if len(a) == 1:
        return np.full(b.shape, np.nan), np.zeros(1, dtype=bool)
    parts = [solve_spd_stack(a[i:i + 1], b[i:i + 1]) for i in range(len(a))]
    return tuple(np.concatenate(part) for part in zip(*parts))


def expit(eta):
    """Logistic function, computed without overflow for either sign."""
    e = np.exp(-np.abs(eta))
    # 1 where eta >= 0, else e (e <= 1): np.where, without its slow scalar path
    return np.maximum(e, eta >= 0) / (1.0 + e)


# A fit's design is [1, covariates, s]: ``base`` holds the shared columns as
# rows, (r, n); ``s`` the fits' own columns subject-last, (B, p, n).
def _eta(coef, base, s):
    """Linear predictor per fit, (B, n)."""
    r = len(base)
    return coef[:, :r] @ base + np.einsum("bpn,bp->bn", s, coef[:, r:])


def _sums(v, base, s):
    """Z' v per fit, from weighted sums over subjects: (B, n) -> (B, k)."""
    return np.concatenate([v @ base.T, np.einsum("bpn,bn->bp", s, v)], axis=1)


def _information(w, base, s):
    """Z' diag(w) Z per fit, one column of it at a time."""
    return np.stack([_sums(w * z, base, s) for z in [*base, *s.transpose(1, 0, 2)]], axis=2)


def _newton(y, base, s, kind):
    """Newton's method on the score for every fit, from the intercept-only MLE.

    A step that lowers a fit's log-likelihood is halved until it does not.
    A fit has converged when a step predicts a gain within the tolerance;
    that step is taken whole.  It also stops when no halving helps or on a
    singular information matrix (its information comes back NaN).  Returns
    the coefficients, the information at them and which fits converged.
    """
    # the count log-likelihood's constant term, sum(log y!), is fixed per fit
    log_y_fact = sum(map(math.lgamma, (y + 1.0).tolist())) if kind == "count" else 0.0

    def terms(coef, rows):
        """Mean, Newton weight and log-likelihood under the canonical link."""
        eta = _eta(coef, base, s[rows])
        if kind == "binary":
            mu = np.clip(expit(eta), 1e-12, 1.0 - 1e-12)
            loglik = np.log(mu) @ y + np.log1p(-mu) @ (1.0 - y)
            return mu, np.maximum(mu * (1.0 - mu), 1e-10), loglik
        mu = np.clip(np.exp(np.clip(eta, -500, 30)), 1e-12, None)
        return mu, mu, np.log(mu) @ y - mu.sum(axis=1) - log_y_fact

    ybar = y.mean()
    coef = np.zeros((len(s), len(base) + s.shape[1]))
    coef[:, 0] = math.log(ybar / (1.0 - ybar)) if kind == "binary" else math.log(ybar)
    converged, singular = np.zeros((2, len(s)), dtype=bool)
    rows = np.arange(len(s))          # the fits still running
    mu, w, loglik = terms(coef, rows)
    for _ in range(_IRLS_MAX_ITER):
        score = _sums(y - mu[rows], base, s[rows])
        step, solved = solve_spd_stack(_information(w[rows], base, s[rows]), score)
        step[~solved] = 0.0
        conv = solved & (np.einsum("bk,bk->b", score, step)
                         <= 2.0 * _IRLS_TOL * np.maximum(1.0, np.abs(loglik[rows])))
        trial = coef[rows] + step
        t_mu, t_w, t_loglik = terms(trial, rows)
        worse = solved & ~conv & (t_loglik < loglik[rows])
        for _ in range(_MAX_HALVINGS - 1):
            if not worse.any():
                break
            i = np.flatnonzero(worse)
            step[i] /= 2.0
            trial[i] = coef[rows[i]] + step[i]
            t_mu[i], t_w[i], t_loglik[i] = terms(trial[i], rows[i])
            worse[i] = t_loglik[i] < loglik[rows[i]]
        take = solved & ~worse
        for whole, new in ((coef, trial), (mu, t_mu), (w, t_w), (loglik, t_loglik)):
            whole[rows[take]] = new[take]
        converged[rows], singular[rows] = conv, ~solved
        rows = rows[take & ~conv]     # the rest stop
        if not rows.size:
            break
    info = _information(w, base, s)
    info[singular] = np.nan
    return coef, info, converged


def fit_glm(trait: TraitData, design: AncestryDesign) -> FitResult:
    """Fit the trait on centered ancestries plus covariates, one design or a batch.

    A batch ``(B, n, p)`` gives one :class:`FitResult` with a leading fit
    axis and a list of flags; a fit its design flags is not fitted.  Too few
    subjects raise :class:`DegenerateDesignError` for one design and flag a
    batch.  Singular fits, binary and count fits showing separation (an
    ancestry coefficient beyond ``_SEPARATION_LIMIT`` on the link scale) and
    fits failing to converge come back flagged rather than raising, so a
    scan can skip the locus and keep going.
    """
    y = trait.y
    single = design.s.ndim == 2
    s = design.s[None] if single else design.s
    n_fits, n, p = s.shape
    if n != trait.n_subjects:
        raise ValueError("trait and ancestry design are not row-aligned")
    r = 1 + trait.n_covariates
    k = r + p
    flags = list(design.flags or [None] * n_fits)
    if n <= k:
        problem = f"{n} subjects cannot identify {k} coefficients"
        if single:
            raise DegenerateDesignError(problem)
        flags = [f or problem for f in flags]
    idx = np.flatnonzero([f is None for f in flags])
    coef = np.full((n_fits, k), np.nan)
    cov = np.full((n_fits, k, k), np.nan)
    sigma2 = np.ones(n_fits)
    converged = np.zeros(n_fits, dtype=bool)
    base = np.vstack([np.ones(n), trait.covariates.T])
    sub = np.ascontiguousarray((s if idx.size == n_fits else s[idx]).transpose(0, 2, 1))
    if trait.kind == "continuous":   # the w = 1 case: one exact solve
        info = _information(np.ones((idx.size, n)), base, sub)
        coef[idx], _ = solve_spd_stack(info, _sums(np.broadcast_to(y, (idx.size, n)), base, sub))
        resid = y - _eta(coef[idx], base, sub)
        sigma2[idx] = np.einsum("bn,bn->b", resid, resid) / (n - k)
        conv = np.ones(idx.size, dtype=bool)
    else:
        coef[idx], info, conv = _newton(y, base, sub, trait.kind)
    separated = conv & (trait.kind != "continuous") & (
        np.abs(coef[idx, r:]) > _SEPARATION_LIMIT).any(axis=1)
    inv, inverted = solve_spd_stack(info, np.broadcast_to(np.eye(k), info.shape))
    cov[idx] = sigma2[idx, None, None] * inv
    converged[idx] = conv & ~separated & inverted
    for i, c, sep, ok in zip(idx, conv, separated, inverted):
        if not ok:
            flags[i] = NOT_PD.format(k)
        elif not c:
            flags[i] = "irls did not converge"
        elif sep:
            flags[i] = "separation"
    fit = FitResult(beta_hat=coef[:, r:], alpha_hat=coef[:, 1:r], intercept=coef[:, 0],
                    sigma_beta_hat=cov[:, r:, r:], sigma2_hat=sigma2,
                    converged=converged, flag=flags)
    if single:   # the batch of one, unwrapped
        return FitResult(**{f.name: getattr(fit, f.name)[0] for f in fields(fit)})
    return fit
