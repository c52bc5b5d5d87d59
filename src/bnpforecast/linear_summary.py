"""Penalized linear summaries of predictive quantile paths.

Fits LASSO regressions of model-implied predictive quantiles on the
standardized predictors, one fit per probability level, with the penalty
chosen by contiguous-block cross-validation. The objective is
sum_t (Q_t - beta'x_t)^2 + lambda * sum_j |beta_j| (no 1/(2n) factor), so
the optimality conditions hold the gradient X'r at lambda/2. The solution
is piecewise linear in lambda; one exact homotopy pass over the Gram
matrix gives it at every penalty of a descending grid, so each
cross-validation fold takes one path and each final fit is the path's
value at the chosen penalty. Every returned fit passes a check of the
optimality conditions.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .evaluation import P_GRID

__all__ = [
    "P_GRID",
    "QuantilePathSet",
    "LassoFit",
    "lasso_fit",
    "cross_validate",
    "quantile_r2",
    "default_lambda_grid",
    "fit_quantile_paths",
]

MAX_BREAKPOINTS = 1000
# KKT certificate: a gradient gap below KKT_RTOL times the largest term that
# enters the gradient is rounding, not a violation.
KKT_RTOL = 1e-12
# A support whose Gram block has eigenvalues below RCOND times the largest
# is singular. A column whose join rate 1 -/+ b_j is below RCOND lies in the
# span of the support's: its gradient tracks the bound, so it never joins.
RCOND = 1e-10


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


def _lasso_path(Qp: np.ndarray, X: np.ndarray, halves: np.ndarray,
                max_breakpoints: int = MAX_BREAKPOINTS) -> np.ndarray:
    """Exact LASSO coefficients, one row per value mu = lam/2 of the
    descending ``halves``, from one homotopy pass down the solution path.

    Zero for mu >= max|c|. Below, on a segment with support A and signs
    theta_A, beta_A(mu) = G_AA^-1 (c_A - mu theta_A) and the gradient
    g = c - G beta is affine in mu. The segment ends at the largest mu' < mu
    where an off-support |g_j| reaches mu' (j joins with the sign of g_j) or
    an on-support beta_j reaches 0 (j drops); each requested mu in [mu', mu]
    is solved on A, so nothing accumulates across segments.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(Qp, dtype=float)
    if y.size != X.shape[0]:
        raise ValueError("response length must match the predictor rows")
    if halves.size and halves[-1] < 0.0:
        raise ValueError("penalty must be nonnegative")
    G = X.T @ X
    if np.any(np.diag(G) <= 0.0):
        raise ValueError("zero-variance predictor column; standardize first")
    c = X.T @ y
    B = np.zeros((halves.size, c.size))
    theta = np.zeros(c.size)
    mu = float(np.abs(c).max())
    i = int(np.searchsorted(-halves, -mu, side="right"))  # rows i on lie below mu
    j = int(np.argmax(np.abs(c)))  # the last variable to join or drop
    theta[j], left, breaks = np.sign(c[j]), 0.0, 0
    while i < halves.size and breaks < max_breakpoints:  # unfilled rows fail below
        breaks += 1
        A = np.flatnonzero(theta)
        w, V = np.linalg.eigh(G[np.ix_(A, A)])
        if w[0] <= RCOND * w[-1]:
            raise RuntimeError(f"singular Gram block on the LASSO support {A.tolist()}")
        u, v = (V @ ((V.T @ np.column_stack([c[A], theta[A]])) / w[:, None])).T
        # as mu falls by d, beta_A rises by d v and g falls by d G_:A v: the
        # slacks mu -/+ g_j close at rate 1 -/+ b_j, theta_j beta_j at -theta_j v_j
        beta_A = u - mu * v
        g, b = c - G[:, A] @ beta_A, G[:, A] @ v
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(1.0 - b > RCOND, np.maximum(mu - g, 0.0) / (1.0 - b), np.inf)
            down = np.where(1.0 + b > RCOND, np.maximum(mu + g, 0.0) / (1.0 + b), np.inf)
            drop = np.where(theta[A] * v < 0.0, np.maximum(theta[A] * beta_A, 0.0)
                            / np.abs(v), np.inf)
        # a variable that just joined moves away from zero, and one that just
        # dropped back inside the bound it left
        if theta[j]:
            drop[A == j] = np.inf
        else:
            (up if left > 0.0 else down)[j] = np.inf
        join = np.minimum(up, down)
        join[A] = np.inf
        k_join, k_drop = int(np.argmin(join)), int(np.argmin(drop))
        mu = max(mu - min(join[k_join], drop[k_drop]), 0.0)
        k = int(np.searchsorted(-halves, -mu, side="right"))
        R = c[A, None] - theta[A, None] * halves[i:k]
        B[i:k, A] = (V @ ((V.T @ R) / w[:, None])).T
        i = k
        if drop[k_drop] <= join[k_join]:
            j = int(A[k_drop])
            left, theta[j] = theta[j], 0.0
        else:
            j = k_join
            theta[j] = 1.0 if up[j] <= down[j] else -1.0
    # KKT certificate; rounding in g grows with the terms it sums
    grad = c - B @ G
    tol = KKT_RTOL * np.maximum(np.abs(c).max(), (np.abs(B) @ np.abs(G)).max(axis=1))
    gap = np.where(B != 0.0, np.abs(grad - halves[:, None] * np.sign(B)),
                   np.abs(grad) - halves[:, None]).max(axis=1)
    if np.any(gap > tol):
        k = int(np.argmax(gap > tol))
        resid = y - X @ B[k]
        raise RuntimeError(
            f"LASSO path fails the optimality conditions at lambda {2.0 * halves[k]:.6g} "
            f"after {breaks} breakpoints (SSR {float(resid @ resid):.6g}, "
            f"max |gradient| {float(np.abs(X.T @ resid).max()):.6g})")
    return B


def lasso_fit(Qp: np.ndarray, X: np.ndarray, lam: float,
              max_breakpoints: int = MAX_BREAKPOINTS) -> np.ndarray:
    """Exact LASSO at one penalty: the value at lam/2 of ``_lasso_path``, the
    homotopy (Osborne, Presnell & Turlach 2000; Efron, Hastie, Johnstone &
    Tibshirani 2004) from the all-zero threshold through at most
    ``max_breakpoints`` support changes. For standardized predictors and a
    centered response; the result meets the KKT conditions on
    g = X'(Q - X beta), g_j = (lam/2) sign(beta_j) on the support and
    |g_j| <= lam/2 off it, to rounding, or the path raises."""
    return _lasso_path(Qp, X, np.array([0.5 * lam]), max_breakpoints)[0]


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
    count = 0
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
        B = _lasso_path(y_tr - center, X_tr, 0.5 * grid)
        resid = y[block, None] - (X[block] @ B.T + center)
        errors += np.einsum("ij,ij->j", resid, resid)
        count += block.size
    if not count:
        raise ValueError("all cross-validation folds degenerate")
    mean_err = errors / count
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


def fit_quantile_paths(paths: QuantilePathSet, X_raw: np.ndarray,
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
        lam = cross_validate(qc, Xs, default_lambda_grid(qc, Xs), folds=folds)
        beta = lasso_fit(qc, Xs, lam)
        fits[p] = LassoFit(beta=beta, lam=lam, r2=quantile_r2(q, Xs, beta),
                           intercept=center, p=p)
    return fits
