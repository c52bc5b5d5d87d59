"""Bayesian nonparametric forecasting toolkit.

Gaussian-process regression means (optionally shrunk toward a linear
subspace), nonparametric mixture and stochastic-volatility error models,
recursive expanding-window forecast experiments, and density-forecast
scoring utilities.
"""

__version__ = "0.1.0"

__all__ = [
    "data_pipeline",
    "gp_core",
    "error_models",
    "model_engine",
    "evaluation",
    "linear_summary",
    "__version__",
]
