"""Penalized linear summaries: LASSO homotopy path, block CV, fit statistics."""

import warnings

import numpy as np
import pytest

from bnpforecast.linear_summary import (
    P_GRID,
    LassoFit,
    QuantilePathSet,
    cross_validate,
    default_lambda_grid,
    fit_quantile_paths,
    lasso_fit,
    quantile_r2,
)
from bnpforecast import linear_summary
from bnpforecast.data_pipeline import DatasetSpec, assemble_regression


def _standardize(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


def _coordinate_descent(y, X, lam, beta0=None, tol=1e-8, max_sweeps=100000):
    """Reference solver: cyclic coordinate descent with soft-thresholding,
    beta_j = S(X_j'r_{-j}, lam/2) / ||X_j||^2, until no coefficient moves by
    tol in a sweep."""
    norms = np.einsum("ij,ij->j", X, X)
    beta = np.zeros(X.shape[1]) if beta0 is None else beta0.copy()
    resid = y - X @ beta
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(X.shape[1]):
            rho = X[:, j] @ resid + norms[j] * beta[j]
            b_new = np.sign(rho) * max(abs(rho) - 0.5 * lam, 0.0) / norms[j]
            if b_new != beta[j]:
                resid += X[:, j] * (beta[j] - b_new)
                delta = max(delta, abs(b_new - beta[j]))
                beta[j] = b_new
        if delta < tol:
            return beta
    raise RuntimeError("reference coordinate descent did not converge")


def _kkt_gap(y, X, lam, beta):
    """Largest violation of the optimality conditions of
    sum (y - Xb)^2 + lam sum |b|, in units of the gradient X'r."""
    grad = X.T @ (y - X @ beta)
    active = beta != 0.0
    return float(np.max(np.where(active, np.abs(grad - np.sign(beta) * lam / 2),
                                 np.maximum(np.abs(grad) - lam / 2, 0.0))))


@pytest.fixture(scope="module")
def sparse_problem():
    """n=150, K=20 with three active standardized predictors."""
    rng = np.random.default_rng(42)
    X = _standardize(rng.standard_normal((150, 20)))
    beta = np.zeros(20)
    beta[[0, 7, 14]] = [3.0, -2.0, 1.5]
    y = X @ beta + 0.3 * rng.standard_normal(150)
    return X, y - y.mean(), beta


# ---------------------------------------------------------------------------
# containers


def test_quantile_path_set_validation():
    dates = np.arange(4)
    Q = np.cumsum(np.ones((4, 5)), axis=1)
    paths = QuantilePathSet(dates=dates, Q=Q)
    col = paths.column(0.5)
    assert np.array_equal(col, Q[:, 2])
    col[0] = 99.0
    assert paths.Q[0, 2] != 99.0
    with pytest.raises(ValueError, match="origins x probability"):
        QuantilePathSet(dates=dates, Q=np.ones((4, 3)))
    bad = Q.copy()
    bad[1, 3] = -5.0
    with pytest.raises(ValueError, match="monotone"):
        QuantilePathSet(dates=dates, Q=bad)


def test_lasso_fit_container():
    fit = LassoFit(beta=np.array([0.0, 1.5, 0.0, -0.2]), lam=3.0, r2=0.8)
    assert np.array_equal(fit.support, [1, 3])
    with pytest.raises(ValueError, match="nonnegative"):
        LassoFit(beta=np.zeros(2), lam=-1.0, r2=0.0)


# ---------------------------------------------------------------------------
# homotopy path


def test_unpenalized_fit_equals_least_squares():
    rng = np.random.default_rng(7)
    X = _standardize(rng.standard_normal((60, 5)))
    y = X @ np.array([1.0, -0.5, 0.0, 2.0, 0.3]) + rng.standard_normal(60)
    y -= y.mean()
    beta = lasso_fit(y, X, 0.0)
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.max(np.abs(beta - ols)) < 1e-6


def test_kill_threshold_zeroes_everything(sparse_problem):
    X, y, _ = sparse_problem
    lam_kill = 2.0 * float(np.abs(X.T @ y).max())
    assert np.max(np.abs(lasso_fit(y, X, lam_kill))) < 1e-12
    assert not lasso_fit(y, X, lam_kill * 1.5).any()
    assert lasso_fit(y, X, lam_kill * 0.99).any()
    assert default_lambda_grid(y, X)[0] == pytest.approx(lam_kill)


def test_support_recovery_at_oracle_penalty(sparse_problem):
    X, y, beta_true = sparse_problem
    beta = lasso_fit(y, X, 30.0)
    assert set(np.flatnonzero(beta)) == {0, 7, 14}
    assert np.all(np.sign(beta[[0, 7, 14]]) == np.sign(beta_true[[0, 7, 14]]))
    assert quantile_r2(y, X, beta) > 0.98


def test_kkt_conditions_hold_exactly(sparse_problem):
    """Stationarity of the objective sum (y - Xb)^2 + lam sum|b|: active
    gradients sit at +/- lam/2, inactive ones strictly inside."""
    X, y, _ = sparse_problem
    lam = 30.0
    beta = lasso_fit(y, X, lam)
    grad = X.T @ (y - X @ beta)
    active = np.flatnonzero(beta)
    inactive = np.setdiff1d(np.arange(X.shape[1]), active)
    assert np.max(np.abs(grad[active] - np.sign(beta[active]) * lam / 2)) < 1e-10
    assert np.all(np.abs(grad[inactive]) <= lam / 2 + 1e-10)


def test_matches_coordinate_descent_along_warm_grid(sparse_problem):
    """Every point of one path over the 50-point grid agrees with the
    reference coordinate descent, warm-started along the same grid."""
    X, y, _ = sparse_problem
    grid = default_lambda_grid(y, X)
    path = linear_summary._lasso_path(y, X, 0.5 * grid)
    ref = None
    for lam, beta in zip(grid, path):
        ref = _coordinate_descent(y, X, lam, beta0=ref)
        assert np.max(np.abs(beta - ref)) < 1e-6


def _assert_certified(y, X, lams, path):
    """Each point of a path meets the optimality conditions to 1e-10 of the
    all-zero threshold, on a support no larger than the design's rank."""
    lam_max = 2.0 * float(np.abs(X.T @ y).max())
    rank = np.linalg.matrix_rank(X)
    for lam, beta in zip(lams, path):
        assert _kkt_gap(y, X, lam, beta) <= 1e-10 * lam_max
        assert np.count_nonzero(beta) <= rank


def _record_paths(monkeypatch):
    """Wrap the path and the fit entry points: every path's inputs and
    output, the number of paths each cross_validate call builds, and every
    lasso_fit call."""
    paths, per_cv, fits = [], [], []
    real_path = linear_summary._lasso_path
    real_cv = linear_summary.cross_validate
    real_fit = linear_summary.lasso_fit

    def recording_path(Qp, X, halves, *args):
        out = real_path(Qp, X, halves, *args)
        paths.append((Qp, X, 2.0 * halves, out))
        return out

    def counting_cv(*args, **kwargs):
        before = len(paths)
        lam = real_cv(*args, **kwargs)
        per_cv.append(len(paths) - before)
        return lam

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(linear_summary, "_lasso_path", recording_path)
    monkeypatch.setattr(linear_summary, "cross_validate", counting_cv)
    monkeypatch.setattr(linear_summary, "lasso_fit", counting_fit)
    return paths, per_cv, fits


def test_wide_design_fits_meet_kkt(panel, monkeypatch):
    """Eight origins against the 29 Moderate predictors, as summarize-lasso
    sees a short evaluation window: every point of every fold's path and
    the final fits meet the optimality conditions to rounding. Training
    folds have 6 or 7 rows, so supports reach the rank of the design."""
    data = assemble_regression(panel, DatasetSpec("Moderate", "PRICE", 1))
    n = 8
    X_raw = data.X[-n:]
    assert X_raw.shape == (n, 29)
    rng = np.random.default_rng(0)
    offsets = np.array([-1.6, -0.8, 0.0, 0.8, 1.6])
    Q = np.sort(data.y[-n:, None] + offsets + 0.3 * rng.standard_normal((n, 5)), axis=1)
    paths, per_cv, fits = _record_paths(monkeypatch)
    fit_quantile_paths(QuantilePathSet(dates=np.arange(n), Q=Q), X_raw)
    assert per_cv == [5] * 5
    assert len(fits) == 5
    assert len(paths) == 5 * 5 + 5
    assert sum(len(lams) for _, _, lams, _ in paths) == 5 * (5 * 50 + 1)
    for Qp, X, lams, path in paths:
        _assert_certified(Qp, X, lams, path)


@pytest.mark.parametrize("n", [8, 12, 20])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_wide_designs_meet_kkt(n, seed):
    """Random designs with fewer rows than the 29 predictors, some columns
    strongly correlated: every point of each fold's path and of the full
    path meets the optimality conditions to 1e-10 of the threshold."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 29))
    X[:, 1::3] = X[:, ::3] + 0.2 * rng.standard_normal((n, 10))
    X = _standardize(X)
    y = X[:, :4] @ np.array([1.0, -0.6, 0.4, 0.2]) + 0.5 * rng.standard_normal(n)
    y -= y.mean()
    grid = default_lambda_grid(y, X)
    _assert_certified(y, X, grid, linear_summary._lasso_path(y, X, 0.5 * grid))
    for block in np.array_split(np.arange(n), 5):
        mask = np.ones(n, dtype=bool)
        mask[block] = False
        y_tr = y[mask] - y[mask].mean()
        _assert_certified(y_tr, X[mask], grid,
                          linear_summary._lasso_path(y_tr, X[mask], 0.5 * grid))


@pytest.mark.parametrize("n", [20, 60])
def test_correlated_designs_meet_kkt(n):
    """Twelve predictors in six pairs with correlation near 0.99, where
    variables drop and join again, sometimes with the other sign: every
    point of the path meets the optimality conditions."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 12))
        X[:, 1::2] = X[:, ::2] + 0.1 * rng.standard_normal((n, 6))
        X = _standardize(X)
        y = X[:, :3] @ rng.standard_normal(3) + rng.standard_normal(n)
        y -= y.mean()
        grid = default_lambda_grid(y, X)
        _assert_certified(y, X, grid, linear_summary._lasso_path(y, X, 0.5 * grid))


def test_collinear_predictors_stay_off_the_support():
    """With one column duplicated and one the sum of two others, a column in
    the span of the support has its gradient on the bound and never joins:
    every point of the path meets the optimality conditions on a support
    no larger than the rank, with no singular Gram block."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 6))
    X[:, 3] = X[:, 1]
    X[:, 5] = X[:, 0] + X[:, 2]
    X = _standardize(X)
    y = X @ rng.standard_normal(6) + rng.standard_normal(30)
    y -= y.mean()
    grid = default_lambda_grid(y, X)
    _assert_certified(y, X, grid, linear_summary._lasso_path(y, X, 0.5 * grid))


def test_solution_path_is_continuous(sparse_problem):
    X, y, _ = sparse_problem
    grid = np.geomspace(2.0 * np.abs(X.T @ y).max(), 0.03, 20)
    prev = None
    for lam in grid:
        beta = lasso_fit(y, X, lam)
        if prev is not None:
            assert np.max(np.abs(beta - prev)) < 1.5
        prev = beta


def test_nonconvergence_raises_with_diagnostics():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((60, 8))
    X[:, 1] = X[:, 0] + 0.01 * rng.standard_normal(60)
    y = X[:, 0] * 2.0 + 0.1 * rng.standard_normal(60)
    y -= y.mean()
    with pytest.raises(RuntimeError, match="after 3 breakpoints .SSR"):
        lasso_fit(y, X, 0.001, max_breakpoints=3)


def test_lasso_fit_input_validation(sparse_problem):
    X, y, _ = sparse_problem
    with pytest.raises(ValueError, match="nonnegative"):
        lasso_fit(y, X, -1.0)
    with pytest.raises(ValueError, match="length"):
        lasso_fit(y[:-1], X, 1.0)
    Xz = X.copy()
    Xz[:, 3] = 0.0
    with pytest.raises(ValueError, match="zero-variance"):
        lasso_fit(y, Xz, 1.0)


# ---------------------------------------------------------------------------
# cross-validation


def test_cv_noiseless_picks_smallest_penalty(sparse_problem):
    X, _, beta_true = sparse_problem
    y = X @ beta_true
    y -= y.mean()
    grid = default_lambda_grid(y, X, n_points=8, ratio=1e-2)
    assert cross_validate(y, X, grid, folds=5) == grid.min()


def test_cv_pure_noise_picks_largest_penalty():
    rng = np.random.default_rng(103)
    X = _standardize(rng.standard_normal((80, 10)))
    y = rng.standard_normal(80)
    y -= y.mean()
    grid = default_lambda_grid(y, X, n_points=30)
    lam = cross_validate(y, X, grid, folds=5)
    assert lam == grid.max()
    assert not lasso_fit(y, X, lam).any()


def test_cv_matches_exhaustive_oracle(sparse_problem):
    """Cold-start fold-by-fold enumeration must land on the same grid point
    (tolerating one step for warm-start tie effects)."""
    X, _, beta_true = sparse_problem
    rng = np.random.default_rng(77)
    y = X @ beta_true + 1.5 * rng.standard_normal(150)
    y -= y.mean()
    grid = np.sort(default_lambda_grid(y, X, n_points=25))[::-1]
    lam_cv = cross_validate(y, X, grid, folds=5)

    n = y.size
    errors = np.zeros(grid.size)
    for block in np.array_split(np.arange(n), 5):
        mask = np.ones(n, dtype=bool)
        mask[block] = False
        center = y[mask].mean()
        for i, lam in enumerate(grid):
            beta = lasso_fit(y[mask] - center, X[mask], lam)
            errors[i] += np.sum((y[block] - X[block] @ beta - center) ** 2)
    idx_oracle = int(np.argmin(errors))
    idx_cv = int(np.argmin(np.abs(grid - lam_cv)))
    assert abs(idx_cv - idx_oracle) <= 1


def test_cv_ties_resolve_to_larger_penalty(sparse_problem):
    X, y, _ = sparse_problem
    lam_kill = 2.0 * float(np.abs(X.T @ y).max())
    grid = np.array([lam_kill * 4.0, lam_kill * 2.5, lam_kill * 1.5])
    assert cross_validate(y, X, grid, folds=5) == grid.max()


def test_cv_degenerate_folds():
    rng = np.random.default_rng(3)
    X = _standardize(rng.standard_normal((40, 3)))
    y = np.concatenate([np.zeros(20),
                        np.random.default_rng(4).standard_normal(20)])
    with pytest.warns(UserWarning, match="fold skipped"):
        lam = cross_validate(y, X, np.array([1.0, 0.5]), folds=2)
    assert lam in (1.0, 0.5)
    with pytest.raises(ValueError, match="degenerate"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cross_validate(np.zeros(40), X, np.array([1.0, 0.5]), folds=2)
    with pytest.raises(ValueError, match="folds"):
        cross_validate(y, X, np.array([1.0]), folds=1)


# ---------------------------------------------------------------------------
# fit statistics


def test_quantile_r2_limits(sparse_problem):
    X, _, beta_true = sparse_problem
    y = X @ beta_true
    assert quantile_r2(y, X, beta_true) == pytest.approx(1.0, abs=1e-12)
    assert quantile_r2(y, X, np.zeros(20)) == pytest.approx(0.0, abs=1e-12)
    with pytest.warns(UserWarning, match="constant"):
        assert np.isnan(quantile_r2(np.full(10, 2.0), X[:10], np.zeros(20)))


def test_standardization_invariance():
    """Rescaling a raw predictor column must not move the standardized
    coefficients."""
    rng = np.random.default_rng(11)
    n = 80
    X_raw = rng.standard_normal((n, 4))
    base = np.sort(rng.standard_normal((n, 5)) * 0.1 +
                   X_raw[:, [1]] * 0.8, axis=1)
    paths = QuantilePathSet(dates=np.arange(n), Q=base)
    scaled = X_raw.copy()
    scaled[:, 1] *= 1000.0
    scaled[:, 3] /= 57.0
    fits_a = fit_quantile_paths(paths, X_raw, folds=4)
    fits_b = fit_quantile_paths(paths, scaled, folds=4)
    for p in paths.p_grid:
        assert np.max(np.abs(fits_a[p].beta - fits_b[p].beta)) < 1e-10
        assert fits_a[p].lam == pytest.approx(fits_b[p].lam, rel=1e-10)


def test_fit_quantile_paths_end_to_end():
    rng = np.random.default_rng(5)
    n = 90
    X_raw = rng.standard_normal((n, 6)) * np.array([1, 3, 0.5, 2, 1, 1])
    signal = 1.2 * X_raw[:, 0] - 0.7 * X_raw[:, 2]
    offsets = np.array([-1.5, -0.8, 0.0, 0.8, 1.5])
    Q = signal[:, None] + offsets[None, :]
    paths = QuantilePathSet(dates=np.arange(n), Q=Q)
    fits = fit_quantile_paths(paths, X_raw, folds=5)
    assert set(fits) == set(P_GRID)
    for fit in fits.values():
        assert fit.lam >= 0.0
        assert fit.r2 > 0.95
        assert {0, 2} <= set(fit.support)
