"""Local-ancestry imputation and Bayes-factor admixture mapping."""

__version__ = "0.1.0"
