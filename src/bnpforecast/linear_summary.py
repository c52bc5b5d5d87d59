"""Penalized linear summaries of predictive quantile paths.

Fits LASSO regressions of model-implied predictive quantiles on the
standardized predictors, one fit per probability level, with the penalty
chosen by contiguous-block cross-validation. The objective is
sum_t (Q_t - beta'x_t)^2 + lambda * sum_j |beta_j| (no 1/(2n) factor), so
the soft-threshold in the coordinate update divides lambda by two.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .evaluation import P_GRID

__all__ = [
    "P_GRID",
    "QuantilePathSet",
    "LassoFit",
    "lasso_fit",
    "cross_validate",
    "quantile_r2",
    "heatmap_data",
    "default_lambda_grid",
    "fit_quantile_paths",
    "write_lasso_csv",
    "write_r2_csv",
]

MAX_SWEEPS = 100000
COORD_TOL = 1e-8


@dataclass
class QuantilePathSet:
    """Predictive quantiles per origin at the fixed probability grid."""

    dates: np.ndarray
    Q: np.ndarray
    p_grid: tuple = P_GRID

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if self.Q.shape != (self.dates.size, len(self.p_grid)):
            raise ValueError("quantile matrix must be origins x probability grid")
        if np.any(np.diff(self.Q, axis=1) < 0.0):
            raise ValueError("quantile rows must be monotone in p")

    def column(self, p: float) -> np.ndarray:
        return self.Q[:, self.p_grid.index(p)].copy()


@dataclass
class LassoFit:
    """One penalized fit: standardized coefficients, penalty, fit statistic."""

    beta: np.ndarray
    lam: float
    r2: float
    intercept: float = 0.0
    p: float | None = None

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("penalty must be nonnegative")

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.beta)


def lasso_fit(Qp: np.ndarray, X: np.ndarray, lam: float,
              beta0: np.ndarray | None = None,
              max_sweeps: int = MAX_SWEEPS, tol: float = COORD_TOL) -> np.ndarray:
    """Cyclic coordinate descent with soft-thresholding.

    Expects standardized predictor columns and a centered response; the
    update for column j is beta_j = S(X_j'r_{-j}, lam/2) / ||X_j||^2.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(Qp, dtype=float)
    n, K = X.shape
    if y.size != n:
        raise ValueError("response length must match the predictor rows")
    if lam < 0.0:
        raise ValueError("penalty must be nonnegative")
    norms = np.einsum("ij,ij->j", X, X)
    if np.any(norms <= 0.0):
        raise ValueError("zero-variance predictor column; standardize first")
    beta = np.zeros(K) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    resid = y - X @ beta
    half = 0.5 * lam
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(K):
            b_old = beta[j]
            rho = X[:, j] @ resid + norms[j] * b_old
            b_new = 0.0
            if rho > half:
                b_new = (rho - half) / norms[j]
            elif rho < -half:
                b_new = (rho + half) / norms[j]
            if b_new != b_old:
                resid += X[:, j] * (b_old - b_new)
                beta[j] = b_new
                delta = max(delta, abs(b_new - b_old))
        if delta < tol:
            return beta
    grad = X.T @ resid
    raise RuntimeError(
        f"coordinate descent failed to converge in {max_sweeps} sweeps "
        f"(SSR {float(resid @ resid):.6g}, max |gradient| {float(np.abs(grad).max()):.6g})")


def default_lambda_grid(Qp: np.ndarray, X: np.ndarray, n_points: int = 50,
                        ratio: float = 1e-4) -> np.ndarray:
    """Geometric grid from the all-zero threshold down to ratio times it."""
    lam_max = 2.0 * float(np.abs(np.asarray(X).T @ np.asarray(Qp)).max())
    lam_max = max(lam_max, 1e-12)
    return np.geomspace(lam_max, ratio * lam_max, n_points)


def cross_validate(Qp: np.ndarray, X: np.ndarray, lambda_grid: np.ndarray,
                   folds: int = 5) -> float:
    """Contiguous-block (time-ordered) cross-validation of the penalty.

    Returns the grid value minimizing mean held-out squared error; exact
    ties resolve to the larger penalty. Folds with a constant response
    are skipped with a warning.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(Qp, dtype=float)
    grid = np.sort(np.asarray(lambda_grid, dtype=float))[::-1]
    if folds < 2:
        raise ValueError("need at least 2 folds")
    n = y.size
    blocks = np.array_split(np.arange(n), folds)
    errors = np.zeros(grid.size)
    counts = np.zeros(grid.size)
    for block in blocks:
        if block.size == 0:
            continue
        mask = np.ones(n, dtype=bool)
        mask[block] = False
        y_tr, X_tr = y[mask], X[mask]
        if np.std(y_tr) == 0.0:
            warnings.warn("constant response in a training fold; fold skipped")
            continue
        center = float(y_tr.mean())
        y_tr = y_tr - center
        beta = None
        for g, lam in enumerate(grid):
            beta = lasso_fit(y_tr, X_tr, lam, beta0=beta)
            pred = X[block] @ beta + center
            errors[g] += float(np.sum((y[block] - pred) ** 2))
            counts[g] += block.size
    if not counts.any():
        raise ValueError("all cross-validation folds degenerate")
    mean_err = errors / counts
    best = np.flatnonzero(mean_err == mean_err.min())
    return float(grid[best[0]])  # grid is descending, so ties pick the largest


def quantile_r2(Qp: np.ndarray, X: np.ndarray, beta: np.ndarray) -> float:
    """1 - SSR/SST with SST about the mean of the quantile path."""
    y = np.asarray(Qp, dtype=float)
    yc = y - y.mean()
    sst = float(yc @ yc)
    if sst == 0.0:
        warnings.warn("constant quantile path; fit statistic undefined")
        return float("nan")
    resid = yc - np.asarray(X, dtype=float) @ np.asarray(beta, dtype=float)
    return 1.0 - float(resid @ resid) / sst


def heatmap_data(fits: dict[float, LassoFit], names: list[str],
                 floor: float = 1e-3) -> list[tuple[str, float, float]]:
    """(variable, p, standardized coefficient) triples above the display floor."""
    out: list[tuple[str, float, float]] = []
    for p in sorted(fits):
        beta = fits[p].beta
        for j, name in enumerate(names):
            if abs(beta[j]) > floor:
                out.append((name, p, float(beta[j])))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def fit_quantile_paths(paths: QuantilePathSet, X_raw: np.ndarray,
                       lambda_grid: np.ndarray | None = None,
                       folds: int = 5) -> dict[float, LassoFit]:
    """Standardize predictors over the path window and fit one LASSO per p."""
    X = np.asarray(X_raw, dtype=float)
    sd = X.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    Xs = (X - X.mean(axis=0)) / sd
    fits: dict[float, LassoFit] = {}
    for p in paths.p_grid:
        q = paths.column(p)
        center = float(q.mean())
        qc = q - center
        grid = default_lambda_grid(qc, Xs) if lambda_grid is None else lambda_grid
        lam = cross_validate(qc, Xs, grid, folds=folds)
        beta = lasso_fit(qc, Xs, lam)
        fits[p] = LassoFit(beta=beta, lam=lam, r2=quantile_r2(q, Xs, beta),
                           intercept=center, p=p)
    return fits


def write_lasso_csv(path, triples: list[tuple[str, float, float]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["variable", "p", "coefficient"])
        for name, p, coef in triples:
            w.writerow([name, "%g" % p, "%.10g" % coef])


def write_r2_csv(path, fits: dict[float, LassoFit]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "r2", "lambda", "n_active"])
        for p in sorted(fits):
            f = fits[p]
            w.writerow(["%g" % p, "%.10g" % f.r2, "%.10g" % f.lam, f.support.size])
