"""Prior-density references and Bayes-factor helpers that only the tests read.

No command needs them: the scan scores Bayes factors by block through
``qnm.bf_for_fit``.  The prior density here is the reference the closed-form
Bayes factor is checked against by quadrature; ``density_grid`` tabulates
it for plotting.
"""
import math
from dataclasses import dataclass

import numpy as np

from admixscan.errors import DegenerateDesignError
from admixscan.glm import NOT_PD, solve_spd_stack
from admixscan.qnm import BfValue


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


def wald_statistic(fit):
    """Quadratic form of the ancestry estimates in their estimated covariance."""
    return float(fit.beta_hat @ solve_spd(fit.sigma_beta_hat, fit.beta_hat))


def flagged_bf(reason, p=0):
    """A Bayes factor that could not be scored, carrying its reason."""
    return BfValue(log10_bf=float("nan"), tau_hat=float("nan"), p=p, flag=reason)


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
