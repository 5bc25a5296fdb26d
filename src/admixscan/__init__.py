"""Local-ancestry imputation and Bayes-factor admixture mapping."""

__version__ = "0.1.0"

from .hmm import AimPanel, AncestryDraws, GenotypeMatrix, MISSING
from .kernels import active_backend
from .sampler import HmmHyperparams, run_mcmc

__all__ = [
    "AimPanel",
    "AncestryDraws",
    "GenotypeMatrix",
    "MISSING",
    "HmmHyperparams",
    "run_mcmc",
    "active_backend",
    "__version__",
]
