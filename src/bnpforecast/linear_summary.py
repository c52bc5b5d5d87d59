"""Penalized linear summaries of predictive quantile paths.

Fits LASSO regressions of model-implied predictive quantiles on the
standardized predictors, one fit per probability level, with the penalty
chosen by contiguous-block cross-validation. The objective is
sum_t (Q_t - beta'x_t)^2 + lambda * sum_j |beta_j| (no 1/(2n) factor), so
the optimality conditions hold the gradient X'r at lambda/2. Each fit is
an exact active-set (feature-sign) solve on the Gram matrix, ending in a
check of those conditions.
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

MAX_SWEEPS = 1000
# KKT certificate: a gradient gap below KKT_RTOL times the largest term that
# enters the gradient is rounding, not a violation.
KKT_RTOL = 1e-12
# Eigenvalues of the support's Gram block below RCOND times the largest are
# treated as zero: the block is singular (more active columns than rows).
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


def lasso_fit(Qp: np.ndarray, X: np.ndarray, lam: float,
              beta0: np.ndarray | None = None,
              max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Exact LASSO by feature-sign active-set search on G = X'X, c = X'Q.

    Expects standardized predictor columns and a centered response. At the
    optimum the gradient g = c - G beta meets the KKT conditions
    g_j = (lam/2) sign(beta_j) on the support and |g_j| <= lam/2 off it.
    Each iteration checks them; while the support is optimal it adds the
    largest violator with the sign of its gradient, then it solves the
    signed system G_AA beta_A = c_A - (lam/2) theta_A on the support. When
    a coefficient would change sign on the way, the step stops at its zero
    and drops it (Lee, Battle, Raina & Ng 2007; Osborne, Presnell & Turlach
    2000). A singular G_AA has no signed solution; the objective then falls
    linearly along the null space until a coefficient reaches zero. Every
    step lowers the objective, so the search cannot cycle. ``beta0`` supplies
    the starting support and signs (warm start along a penalty grid), and
    ``max_sweeps`` caps the iterations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(Qp, dtype=float)
    n, K = X.shape
    if y.size != n:
        raise ValueError("response length must match the predictor rows")
    if lam < 0.0:
        raise ValueError("penalty must be nonnegative")
    G = X.T @ X
    if np.any(np.diag(G) <= 0.0):
        raise ValueError("zero-variance predictor column; standardize first")
    c = X.T @ y
    G_abs = np.abs(G)
    half = 0.5 * lam
    beta = np.zeros(K) if beta0 is None else np.asarray(beta0, dtype=float).copy()
    theta = np.sign(beta)
    for _ in range(max_sweeps):
        g = c - G @ beta
        # rounding in g grows with the terms it sums; below this it is noise
        tol = KKT_RTOL * max(float(np.abs(c).max()), float((G_abs @ np.abs(beta)).max()))
        A = np.flatnonzero(theta)
        r = g[A] - half * theta[A]
        if not A.size or np.abs(r).max() <= tol:
            excess = np.where(theta == 0.0, np.abs(g) - half, 0.0)
            j = int(np.argmax(excess))
            if excess[j] <= tol:
                return beta
            theta[j] = np.sign(g[j])
            A = np.flatnonzero(theta)
            r = g[A] - half * theta[A]
        # beta_A + d solves the signed system when G_AA d = r
        w, V = np.linalg.eigh(G[np.ix_(A, A)])
        null = w <= RCOND * w[-1]
        z = V.T @ r
        if null.any() and np.abs(z[null]).max() > tol:
            # r has a null-space part: the objective falls without bound
            # along it while the signs hold, so go to the first zero
            d = V[:, null] @ z[null]
            t = np.inf
        else:
            d = V[:, ~null] @ (z[~null] / w[~null])
            t = 1.0
        toward_zero = theta[A] * d < 0.0
        if toward_zero.any():
            cross = -beta[A][toward_zero] / d[toward_zero]
            k = int(np.argmin(cross))
            if cross[k] <= t:
                beta[A] += cross[k] * d
                drop = A[toward_zero][k]
                beta[drop] = theta[drop] = 0.0
                continue
        if t == np.inf:  # no zero ahead: only rounding can get here
            break
        beta[A] += d
    g = c - G @ beta
    raise RuntimeError(
        f"active-set LASSO failed to converge in {max_sweeps} iterations "
        f"(SSR {float(np.sum((y - X @ beta) ** 2)):.6g}, max |gradient| {float(np.abs(g).max()):.6g})")


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
