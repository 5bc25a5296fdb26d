"""Independent Bayes-factor oracle for the scan checks.

It shares only the regression fit (``glm.fit_glm``) and the closed-form
log Bayes factor (``qnm.log_bf``) with the program.  The Wald statistic, the
dispersion search and the average over imputations are written here: the
dispersion is maximised by bounded Brent search on log10(tau) instead of the
program's golden-section search, and imputations are averaged with
``logsumexp``.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from admixscan.glm import AncestryDesign, fit_glm
from admixscan.qnm import TAU_BRACKET, log_bf


def max_log_bf(wald, p, n_subjects):
    """Natural-log Bayes factor maximised over the dispersion bracket."""
    lo, hi = (math.log10(t) for t in TAU_BRACKET)

    def negative(log10_tau):
        return -log_bf(wald, p, n_subjects * 10.0 ** log10_tau)

    best = minimize_scalar(
        negative, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10},
    )
    return max(-best.fun, -negative(lo))


def oracle_log10_bf(draws, trait, columns):
    """Averaged log10 Bayes factor of a locus set over all imputations."""
    n = trait.n_subjects
    logs = []
    for raw in draws:
        s = raw[:, columns].astype(np.float64)
        s -= s.mean(axis=0)
        fit = fit_glm(trait, AncestryDesign(s=s, locus_ids=list(columns)))
        if not fit.converged:
            raise ValueError(f"oracle fit for loci {columns} did not converge")
        wald = float(fit.beta_hat @ np.linalg.solve(fit.sigma_beta_hat, fit.beta_hat))
        logs.append(max_log_bf(wald, len(columns), n))
    return float(logsumexp(logs, b=1.0 / len(logs)) / math.log(10.0))


def marginal_log10_bfs(draws, trait):
    """Averaged log10 Bayes factor of every single locus, continuous traits.

    The least-squares Wald statistic of each column comes in closed form
    after residualising the trait and the ancestry columns on the intercept
    and covariates, so no per-locus fit runs.
    """
    if trait.kind != "continuous":
        raise ValueError("closed-form marginal scan covers continuous traits")
    n = trait.n_subjects
    z = np.column_stack([np.ones(n), trait.covariates])
    proj = z @ np.linalg.solve(z.T @ z, z.T)
    y = trait.y - proj @ trait.y
    dof = n - z.shape[1] - 1
    logs = []
    for raw in draws:
        s = raw.astype(np.float64)
        s -= proj @ s
        ss = np.einsum("ij,ij->j", s, s)
        sy = s.T @ y
        rss = y @ y - sy ** 2 / ss
        wald = (sy / ss) ** 2 / (rss / dof / ss)
        logs.append([max_log_bf(w, 1, n) for w in wald])
    logs = np.asarray(logs)
    return logsumexp(logs, axis=0, b=1.0 / logs.shape[0]) / math.log(10.0)
