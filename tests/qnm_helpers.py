"""Bayes-factor helpers that only the tests read.

No command needs them: the scan scores Bayes factors by block through
``qnm.bf_for_fit``.
"""
from admixscan.glm import solve_spd
from admixscan.qnm import BfValue


def wald_statistic(fit):
    """Quadratic form of the ancestry estimates in their estimated covariance."""
    return float(fit.beta_hat @ solve_spd(fit.sigma_beta_hat, fit.beta_hat))


def flagged_bf(reason, p=0):
    """A Bayes factor that could not be scored, carrying its reason."""
    return BfValue(log10_bf=float("nan"), tau_hat=float("nan"), p=p, flag=reason)
