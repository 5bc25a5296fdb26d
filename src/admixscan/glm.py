"""Regression fits feeding the Bayes-factor scan.

Traits regress on centered local-ancestry columns plus optional covariates,
with an intercept always included.  Continuous traits use exact least
squares; binary and count traits use Newton's method on the score with
canonical links and dispersion fixed at one.  A fit returns what the Bayes
factor reads: the ancestry coefficients and their estimated covariance.

A design is a batch of B fits sharing the trait and covariates, ``(B, p,
n)``: fits, then ancestry columns, then subjects last, the axis every sum
runs along.  Each fit converges and halves its steps on its own: the rest
of its batch touches it only through the rounding of sums over subjects.
Only :func:`fit_glm` also takes one ``(n, p)`` design, because the
benchmark's independent oracle fits one locus set at a time through it.

An iteration makes few passes over the batch's fit x subject cells.  The
logistic mean, weight and log-likelihood come from one exponential a cell,
``e = exp(-|eta|)``: ``mu = max(e, eta >= 0) / (1 + e)``,
``w = e / (1 + e)^2`` and ``loglik = y.eta - sum(max(eta, 0) + log1p(e))``.
The information is three products over subjects: ``w`` against the row
products of ``[1, covariates]``, then ``w * s`` against the covariates and
against ``s``.  Every fit starts from the intercept-only fit, so its terms
are one row evaluated once, and the running fits' arrays are gathered again
only when some fit stops.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

TRAIT_KINDS = ("continuous", "binary", "count")

_IRLS_MAX_ITER = 100
_IRLS_TOL = 1e-10          # relative log-likelihood gain a Newton step predicts
_MAX_HALVINGS = 50         # step halvings before a Newton direction is given up
_SEPARATION_LIMIT = 15.0   # |ancestry coefficient| flagging separation
_EPS = np.finfo(np.float64).eps


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
    """Column-centered ancestry values, ``(B, p, n)``, with each fit's locus ids and flag."""

    s: np.ndarray
    locus_ids: list
    flags: list | None = None


def center_ancestries(raw, locus_ids) -> AncestryDesign:
    """Center a ``(B, p, n)`` batch of raw ancestry counts over subjects, per fit.

    ``locus_ids`` holds each fit's list of ids.  A constant column cannot be
    centered into a usable regressor: its fit is flagged with the locus.
    """
    raw = np.asarray(raw)
    if np.any((raw < 0) | (raw > 2)) or np.any(raw != np.round(raw)):
        raise ValueError("raw ancestry values must be integers in {0, 1, 2}")
    constant = raw.max(axis=2) == raw.min(axis=2)
    flags = [f"ancestry column {locus_ids[b][np.argmax(c)]!r} is constant" if c.any() else None
             for b, c in enumerate(constant)]
    s = raw.astype(np.float64, order="C")
    s -= s.mean(axis=2, keepdims=True)
    return AncestryDesign(s=s, locus_ids=list(locus_ids), flags=flags)


@dataclass
class FitResult:
    """A batch of fits: every field has a leading fit axis, and ``flag`` is a list."""

    beta_hat: np.ndarray          # ancestry coefficients, (B, p)
    alpha_hat: np.ndarray         # covariate coefficients, (B, q)
    intercept: np.ndarray         # (B,)
    sigma_beta_hat: np.ndarray    # estimated covariance of beta_hat, (B, p, p)
    sigma2_hat: np.ndarray        # residual variance (continuous) or 1.0, (B,)
    converged: np.ndarray         # (B,) bool
    flag: list                    # each fit's reason for not scoring it, or None

    @property
    def p(self):
        return self.beta_hat.shape[-1]


NOT_PD = "{0}x{0} matrix is not positive definite"


def solve_spd_stack(a, b):
    """Solve every system of a stack, ``a`` (B, k, k) and ``b`` (B, k) or (B, k, ...).

    Returns the solutions and a mask of the systems solved.  A system whose
    ``a`` is not positive definite (a singular design, collinear columns,
    non-finite entries) comes back NaN, found one system at a time.  So does
    one whose Cholesky factor passes on a pivot within rounding of zero: a
    squared pivot no larger than ``k * eps`` times its diagonal entry, the
    rounding of the k-term sum that forms it, as two identical columns give.
    """
    vector = b.ndim == 2
    try:
        pivots = np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2)
        floor = np.sqrt(a.shape[-1] * _EPS * np.diagonal(a, axis1=1, axis2=2))
        if (pivots > floor).all():   # False for a NaN or infinite factor too
            x = np.linalg.solve(a, b[..., None] if vector else b)
            return (x[..., 0] if vector else x), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    if len(a) == 1:
        return np.full(b.shape, np.nan), np.zeros(1, dtype=bool)
    parts = [solve_spd_stack(a[i:i + 1], b[i:i + 1]) for i in range(len(a))]
    return tuple(np.concatenate(part) for part in zip(*parts))


# A fit's design is [1, covariates, s]: ``base`` holds the shared columns as
# rows, (r, n); ``s`` the fits' own columns subject-last, (B, p, n).
def _eta(coef, base, s):
    """Linear predictor per fit, (B, n)."""
    r = len(base)
    eta = coef[:, :r] @ base
    eta += np.einsum("bpn,bp->bn", s, coef[:, r:])
    return eta


def _sums(v, base, s):
    """Z' v per fit, from weighted sums over subjects: (B, n) -> (B, k)."""
    return np.concatenate([v @ base.T, np.einsum("bpn,bn->bp", s, v)], axis=1)


def _row_products(base):
    """Every product of two shared columns, (n, r * r): the information's shared block reads it."""
    return (base[:, None] * base[None]).reshape(-1, base.shape[1]).T


def _information(w, base, s, products):
    """Z' diag(w) Z per fit, from three products over subjects."""
    n_fits, r, p = len(w), len(base), s.shape[1]
    ws = w[:, None] * s
    cross = (ws.reshape(-1, s.shape[2]) @ base.T).reshape(n_fits, p, r)
    info = np.empty((n_fits, r + p, r + p))
    info[:, :r, :r] = (w @ products).reshape(n_fits, r, r)
    info[:, r:, :r] = cross
    info[:, :r, r:] = cross.transpose(0, 2, 1)
    info[:, r:, r:] = ws @ s.transpose(0, 2, 1)
    return info


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

    def terms(eta):
        """Mean, Newton weight and log-likelihood under the canonical link."""
        if kind == "binary":   # one exponential a cell, e = exp(-|eta|), and few temporaries
            e = np.abs(eta)
            np.exp(np.negative(e, out=e), out=e)
            d = e + 1.0
            mu = np.maximum(e, eta >= 0)
            mu /= d
            np.clip(mu, 1e-12, 1.0 - 1e-12, out=mu)
            w = np.divide(e, np.multiply(d, d, out=d), out=d)   # e / (1 + e)^2
            np.maximum(w, 1e-10, out=w)
            loglik = eta @ y - np.log1p(e, out=e).sum(axis=1)
            return mu, w, loglik - np.maximum(eta, 0.0, out=e).sum(axis=1)
        mu = np.clip(np.exp(np.clip(eta, -500, 30)), 1e-12, None)
        return mu, mu, np.log(mu) @ y - mu.sum(axis=1) - log_y_fact

    n_fits, n = len(s), len(y)
    products = _row_products(base)
    ybar = y.mean()
    coef = np.zeros((n_fits, len(base) + s.shape[1]))
    coef[:, 0] = start = math.log(ybar / (1.0 - ybar)) if kind == "binary" else math.log(ybar)
    w_end = np.empty((n_fits, n))     # each fit's weights where it stopped
    converged, singular = np.zeros((2, n_fits), dtype=bool)
    # the fits still running, with their designs, coefficients and terms; at
    # the start every fit has one linear predictor, so its terms are one row
    rows, s_run, c_run = np.arange(n_fits), s, coef.copy()
    mu, w, loglik = (np.broadcast_to(t, (n_fits, *t.shape[1:]))
                     for t in terms(np.full((1, n), start)))
    for _ in range(_IRLS_MAX_ITER):
        score = _sums(y - mu, base, s_run)
        step, solved = solve_spd_stack(_information(w, base, s_run, products), score)
        step[~solved] = 0.0
        conv = solved & (np.einsum("bk,bk->b", score, step)
                         <= 2.0 * _IRLS_TOL * np.maximum(1.0, np.abs(loglik)))
        trial = c_run + step
        t_mu, t_w, t_loglik = terms(_eta(trial, base, s_run))
        worse = solved & ~conv & (t_loglik < loglik)
        for _ in range(_MAX_HALVINGS - 1):
            if not worse.any():
                break
            i = np.flatnonzero(worse)
            step[i] /= 2.0
            trial[i] = c_run[i] + step[i]
            t_mu[i], t_w[i], t_loglik[i] = terms(_eta(trial[i], base, s_run[i]))
            worse[i] = t_loglik[i] < loglik[i]
        take = solved & ~worse
        if not take.all():           # a fit that takes no step keeps its terms
            for new, old in ((trial, c_run), (t_mu, mu), (t_w, w), (t_loglik, loglik)):
                new[~take] = old[~take]
        c_run, mu, w, loglik = trial, t_mu, t_w, t_loglik
        converged[rows], singular[rows] = conv, ~solved
        stop = ~take | conv
        if stop.any():               # only then are the running rows gathered again
            coef[rows[stop]], w_end[rows[stop]] = c_run[stop], w[stop]
            keep = ~stop
            rows, s_run, c_run = rows[keep], s_run[keep], c_run[keep]
            mu, w, loglik = mu[keep], w[keep], loglik[keep]
            if not rows.size:
                break
    coef[rows], w_end[rows] = c_run, w
    info = _information(w_end, base, s, products)
    info[singular] = np.nan
    return coef, info, converged


def fit_glm(trait: TraitData, design: AncestryDesign) -> FitResult:
    """Fit the trait on each design of a ``(B, p, n)`` batch, plus covariates.

    Gives one :class:`FitResult` with a leading fit axis and a list of
    flags; a fit its design flags is not fitted.  Too few subjects, singular
    fits, binary and count fits showing separation (an ancestry coefficient
    beyond ``_SEPARATION_LIMIT`` on the link scale) and fits failing to
    converge come back flagged rather than raising, so a scan can skip the
    locus and keep going.

    The benchmark's independent oracle passes one ``(n, p)`` design; it is
    fitted as a batch of one, and its result comes back unwrapped.
    """
    y = trait.y
    single = design.s.ndim == 2   # the oracle's (n, p) design, as a batch of one
    s = np.ascontiguousarray(design.s.T)[None] if single else design.s
    n_fits, p, n = s.shape
    if n != trait.n_subjects:
        raise ValueError("trait and ancestry design are not row-aligned")
    r = 1 + trait.n_covariates
    k = r + p
    flags = np.array(design.flags or [None] * n_fits, dtype=object)
    if n <= k:
        flags[flags == None] = f"{n} subjects cannot identify {k} coefficients"  # noqa: E711
    idx = np.flatnonzero(flags == None)  # noqa: E711
    coef = np.full((n_fits, k), np.nan)
    cov = np.full((n_fits, k, k), np.nan)
    sigma2 = np.ones(n_fits)
    converged = np.zeros(n_fits, dtype=bool)
    base = np.vstack([np.ones(n), trait.covariates.T])
    sub = s if idx.size == n_fits else s[idx]
    if trait.kind == "continuous":   # the w = 1 case: one exact solve
        info = _information(np.ones((idx.size, n)), base, sub, _row_products(base))
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
    # later assignments win: not PD over no convergence over separation
    flags[idx[separated]] = "separation"
    flags[idx[~conv]] = "irls did not converge"
    flags[idx[~inverted]] = NOT_PD.format(k)
    fit = FitResult(beta_hat=coef[:, r:], alpha_hat=coef[:, 1:r], intercept=coef[:, 0],
                    sigma_beta_hat=cov[:, r:, r:], sigma2_hat=sigma2,
                    converged=converged, flag=flags.tolist())
    if single:   # the batch of one, unwrapped
        return FitResult(**{f.name: getattr(fit, f.name)[0] for f in fields(fit)})
    return fit
