"""Chain assembly: grid enumeration, sweeps, retention, prediction, recursion."""

import warnings

import numpy as np
import pytest

import bnpforecast.model_engine as me
from bnpforecast.data_pipeline import (
    DatasetSpec,
    SeriesPanel,
    assemble_regression,
    format_quarter,
)
from bnpforecast.error_models import ErrorState, SvState
from bnpforecast.gp_core import KernelHyper, gaussian_kernel_matrix
from bnpforecast.model_engine import (
    LINEAR_TAU2,
    MEAN_KINDS,
    MIN_TRAIN_QUARTERS,
    P_GRID,
    UC_PRIOR_INIT_VAR,
    UC_TREND_VAR_PRIOR,
    McmcConfig,
    McmcError,
    ModelSpec,
    PosteriorDraws,
    WindowData,
    derive_cell_seed,
    forecast_cell,
    forecast_origins,
    inefficiency_factor,
    init_state,
    mcmc_step,
    model_grid,
    predictive_simulate,
    recursive_forecast,
    run_chain,
    uc_trend_update,
)
from bnpforecast.synthetic import synthetic_panel

DS_H1 = DatasetSpec(variant="Moderate", target_series="PRICE", horizon=1,
                    include_expectations=False)
DS_H4 = DatasetSpec(variant="Moderate", target_series="PRICE", horizon=4,
                    include_expectations=False)

SHORT_TRACE = "ignore:inefficiency factor on a trace shorter"


class _ZeroRng:
    """Stub generator: all normals zero, gamma draws pinned at their mean."""

    def standard_normal(self, n=None):
        return np.zeros(n) if n is not None else 0.0

    def gamma(self, shape, scale=1.0, size=None):
        return float(shape) * scale


def _linear_fixture(sigma, seed=5, T=200, K=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((T, K))
    beta = np.array([1.0, -0.5, 0.3])
    y = X @ beta + sigma * rng.standard_normal(T)
    ols_fit = X @ np.linalg.lstsq(X, y, rcond=None)[0]
    return X, y, ols_fit


def _hand_draws(spec, window, scalars, f, n):
    return PosteriorDraws(spec=spec, window=window, scalars=scalars, f=f,
                          err_weights=None, err_means=None, err_vars=None,
                          ifs={}, accept={}, seed=0, runtime=0.0, n_retained=n)


# ---------------------------------------------------------------------------
# grid, spec and config plumbing


def test_model_grid_covers_all_combinations():
    grid = model_grid()
    assert len(grid) == 16
    assert len(set(grid)) == 16
    assert "UC-SV" in grid
    for mid in grid:
        mean_kind, error_kind = mid.split("-", 1)
        assert mean_kind in MEAN_KINDS
        assert error_kind in ("Homosk", "DPM", "SV", "DPMSV")
    # mean-major ordering: all error kinds of one mean kind are contiguous
    assert grid[:4] == ["UC-Homosk", "UC-DPM", "UC-SV", "UC-DPMSV"]


def test_model_spec_validation():
    spec = ModelSpec("GP", "DPM", DS_H1)
    assert spec.horizon == 1
    assert spec.model_id == "GP-DPM"
    with pytest.raises(ValueError, match="mean kind"):
        ModelSpec("BART", "DPM", DS_H1)
    with pytest.raises(ValueError, match="error kind"):
        ModelSpec("GP", "GARCH", DS_H1)
    with pytest.raises(ValueError, match="horizon"):
        ModelSpec("GP", "DPM", DS_H1, horizon=4)


def test_linear_is_pinned_subspace_limit():
    spec = ModelSpec("Linear", "Homosk", DS_H1)
    assert spec.pinned_tau2 == LINEAR_TAU2
    assert LINEAR_TAU2 <= 1e-6


def test_mcmc_config_retention_arithmetic():
    cfg = McmcConfig()
    assert (cfg.n_iter, cfg.n_burn) == (20000, 10000)
    assert cfg.n_retained == 10000
    assert McmcConfig(n_iter=20000, n_burn=10000, thin=5).n_retained == 2000
    assert McmcConfig(n_iter=11, n_burn=10).n_retained == 1
    with pytest.raises(ValueError):
        McmcConfig(n_iter=100, n_burn=100)
    with pytest.raises(ValueError):
        McmcConfig(n_iter=100, n_burn=10, thin=0)


def test_derive_cell_seed_is_stable_and_distinct():
    s = derive_cell_seed(7, "GP-DPM", "Moderate", 1, "1990Q1")
    assert s == derive_cell_seed(7, "GP-DPM", "Moderate", 1, "1990Q1")
    assert 0 <= s < 2 ** 128
    others = [
        derive_cell_seed(8, "GP-DPM", "Moderate", 1, "1990Q1"),
        derive_cell_seed(7, "GP-SV", "Moderate", 1, "1990Q1"),
        derive_cell_seed(7, "GP-DPM", "Large", 1, "1990Q1"),
        derive_cell_seed(7, "GP-DPM", "Moderate", 4, "1990Q1"),
        derive_cell_seed(7, "GP-DPM", "Moderate", 1, "1990Q2"),
    ]
    assert s not in others
    assert len(set(others)) == len(others)


# ---------------------------------------------------------------------------
# random-walk trend update


def test_uc_trend_dense_conditioning_oracle():
    """With zeroed innovations the sampled path is the exact smoothing mean,
    which must agree with brute-force joint-Gaussian conditioning."""
    y = np.array([0.5, -1.0, 2.0])
    sig2 = np.array([0.5, 1.0, 2.0])
    state = ErrorState(kind="SV", sv=SvState(h=np.log(sig2), mu_h=0.0,
                                             rho_h=0.5, sig2_h=0.1))
    q = 0.3
    trend, q_new = uc_trend_update(y, y.copy(), state, _ZeroRng(), q)

    D = np.diff(np.eye(3), axis=0)
    prec = D.T @ D / q + np.diag(1.0 / sig2)
    prec[0, 0] += 1.0 / UC_PRIOR_INIT_VAR
    eta = y / sig2
    eta[0] += y[0] / UC_PRIOR_INIT_VAR
    mean = np.linalg.solve(prec, eta)
    assert np.allclose(trend, mean, atol=1e-8)

    a0, b0 = UC_TREND_VAR_PRIOR
    shape = a0 + 0.5 * (y.size - 1)
    rate = b0 + 0.5 * np.sum(np.diff(trend) ** 2)
    assert q_new == pytest.approx(rate / shape, rel=1e-12)


def test_uc_trend_static_level_limit():
    """Vanishing innovation variance collapses the trend to one level: the
    precision-weighted mean of the observations and the initial anchor."""
    y = np.array([0.5, -1.0, 2.0, 0.7, 1.4])
    sig2 = np.array([0.5, 1.0, 2.0, 0.8, 1.2])
    state = ErrorState(kind="SV", sv=SvState(h=np.log(sig2), mu_h=0.0,
                                             rho_h=0.5, sig2_h=0.1))
    trend, _ = uc_trend_update(y, y.copy(), state, _ZeroRng(), 1e-14)
    level = ((y[0] / UC_PRIOR_INIT_VAR + np.sum(y / sig2))
             / (1.0 / UC_PRIOR_INIT_VAR + np.sum(1.0 / sig2)))
    assert np.ptp(trend) < 1e-10
    assert np.allclose(trend, level, atol=1e-9)


def test_uc_trend_no_information_limit():
    """Infinite observation variance leaves prior random-walk paths anchored
    at the initialization."""
    y = np.array([0.5, -1.0, 2.0, 0.7, 1.4])
    state = ErrorState(kind="Homosk", sigma2=1e30, sigma2_prior=(3.0, 3.0))
    q = 0.7
    rng = np.random.default_rng(3)
    n = 30000
    paths = np.empty((n, y.size))
    for i in range(n):
        paths[i] = uc_trend_update(y, y.copy(), state, rng, q)[0]
    se0 = np.sqrt(UC_PRIOR_INIT_VAR / n)
    assert abs(paths[:, 0].mean() - y[0]) < 3 * se0
    assert abs(paths[:, 0].var() / UC_PRIOR_INIT_VAR - 1.0) < 0.05
    incr = np.diff(paths, axis=1)
    assert np.all(np.abs(incr.var(axis=0) / q - 1.0) < 0.05)
    assert np.all(np.abs(incr.mean(axis=0)) < 3 * np.sqrt(q / n))


# ---------------------------------------------------------------------------
# one sweep


def test_mcmc_step_updates_error_block_before_mean_block(monkeypatch):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 2))
    y = X @ np.array([0.5, -0.2]) + 0.4 * rng.standard_normal(50)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    spec = ModelSpec("Linear", "Homosk", DS_H1)
    calls = []
    orig_sweep, orig_draw = me.error_sweep, me._draw_f
    monkeypatch.setattr(me, "error_sweep",
                        lambda *a, **k: (calls.append("error"),
                                         orig_sweep(*a, **k))[1])
    monkeypatch.setattr(me, "_draw_f",
                        lambda *a, **k: (calls.append("mean"),
                                         orig_draw(*a, **k))[1])
    state = init_state(spec, data, McmcConfig(n_iter=30, n_burn=5, seed=3))
    mcmc_step(spec, data, state, np.random.default_rng(0))
    assert calls == ["error", "mean"]


def test_linear_chain_matches_projection_fit_at_high_snr():
    """With noise far below the signal the likelihood dominates the function
    prior and the posterior mean fit lands on the least-squares projection."""
    X, y, ols_fit = _linear_fixture(sigma=0.02)
    data = WindowData(y=y, X=X, x_new=np.zeros(3), horizon=1)
    draws = run_chain(ModelSpec("Linear", "Homosk", DS_H1), data,
                      McmcConfig(n_iter=2500, n_burn=1000, seed=11))
    dev = np.max(np.abs(draws.f.mean(axis=0) - ols_fit))
    assert dev < 1e-3 * np.max(np.abs(ols_fit))


def test_linear_chain_shrinks_toward_projection_fit_at_unit_noise():
    """At unit noise the bounded-amplitude function prior still binds, so the
    fit is a shrunk but near-perfectly-correlated copy of the projection."""
    X, y, ols_fit = _linear_fixture(sigma=1.0)
    data = WindowData(y=y, X=X, x_new=np.zeros(3), horizon=1)
    draws = run_chain(ModelSpec("Linear", "Homosk", DS_H1), data,
                      McmcConfig(n_iter=2500, n_burn=1000, seed=11))
    fmean = draws.f.mean(axis=0)
    assert np.corrcoef(fmean, ols_fit)[0, 1] > 0.999
    slope = np.polyfit(ols_fit, fmean, 1)[0]
    assert 0.5 < slope < 1.0


def test_uc_chain_tracks_random_walk():
    rng = np.random.default_rng(6)
    y = np.cumsum(rng.standard_normal(300))
    spec = ModelSpec("UC", "Homosk", DS_H1)
    data = WindowData(y=y, X=None, x_new=None, horizon=1)
    state = init_state(spec, data, McmcConfig(n_iter=10, n_burn=5, seed=7))
    step_rng = np.random.default_rng(7)
    acc = np.zeros(y.size)
    for i in range(800):
        state = mcmc_step(spec, data, state, step_rng)
        if i >= 200:
            acc += state.trend
    assert np.corrcoef(acc / 600, y)[0, 1] > 0.95


def test_mcmc_step_preserves_invariants_across_grid():
    rng = np.random.default_rng(9)
    T = 60
    X = rng.standard_normal((T, 3))
    y = np.sin(X[:, 0]) + 0.5 * rng.standard_normal(T)
    for mid in model_grid():
        mean_kind, error_kind = mid.split("-", 1)
        spec = ModelSpec(mean_kind, error_kind, DS_H1)
        data = (WindowData(y=y, X=None, x_new=None, horizon=1)
                if mean_kind == "UC"
                else WindowData(y=y, X=X, x_new=np.zeros(3), horizon=1))
        state = init_state(spec, data, McmcConfig(n_iter=30, n_burn=10, seed=1))
        step_rng = np.random.default_rng(abs(hash(mid)) % 2 ** 32)
        for _ in range(25):
            state = mcmc_step(spec, data, state, step_rng)
        state.error.validate()
        if mean_kind == "UC":
            assert np.all(np.isfinite(state.trend))
            assert state.trend_var > 0
        else:
            assert np.all(np.isfinite(state.f))
            assert 0 < state.hyper.xi < 1
            assert 0 < state.hyper.phi < 1
        if mean_kind == "GPSub":
            assert state.tau2 > 0
        if mean_kind == "Linear":
            assert state.tau2 == LINEAR_TAU2


def test_linear_chain_equals_subspace_chain_at_full_weight(monkeypatch):
    """Pinning the subspace scale at its limiting value makes the two code
    paths produce the same stream, sweep by sweep."""
    monkeypatch.setattr(me, "sample_tau2", lambda *a, **k: LINEAR_TAU2)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 2))
    y = X @ np.array([0.5, -0.2]) + 0.4 * rng.standard_normal(50)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    cfg = McmcConfig(n_iter=50, n_burn=10, seed=3)
    spec_lin = ModelSpec("Linear", "Homosk", DS_H1)
    spec_sub = ModelSpec("GPSub", "Homosk", DS_H1)
    st_lin = init_state(spec_lin, data, cfg)
    st_sub = init_state(spec_sub, data, cfg)
    st_sub.tau2 = LINEAR_TAU2
    rng_lin = np.random.default_rng(3)
    rng_sub = np.random.default_rng(3)
    for _ in range(40):
        st_lin = mcmc_step(spec_lin, data, st_lin, rng_lin)
        st_sub = mcmc_step(spec_sub, data, st_sub, rng_sub)
    assert np.max(np.abs(st_lin.f - st_sub.f)) < 1e-6
    assert st_lin.hyper == st_sub.hyper
    assert st_lin.error.sigma2 == pytest.approx(st_sub.error.sigma2, rel=1e-12)


class _UnitRng:
    """Stub generator whose normal vector is the i-th unit vector."""

    def __init__(self, i):
        self.i = i

    def standard_normal(self, n):
        z = np.zeros(n)
        z[self.i] = 1.0
        return z


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("mean_kind, tau2, tol", [
    ("GP", None, 1e-10), ("GPSub", 0.7, 1e-10), ("Linear", LINEAR_TAU2, 1e-6)])
def test_mean_block_matches_dense_oracle(mean_kind, tau2, tol):
    """Collapsed likelihood, conditional mean and noise map of the
    precision-form mean block against plain-inverse oracles with
    heteroskedastic errors: log N(r; 0, K1 + Sigma) with
    K1 = (K^-1 + zeta (I - Phi0))^-1, mean P^-1 Sigma^-1 r, and W W' = P^-1."""
    rng = np.random.default_rng(31)
    T, K = 25, 3
    X = rng.standard_normal((T, K))
    r = np.tanh(X @ np.array([1.0, -0.6, 0.4])) + 0.5 * rng.standard_normal(T)
    sigma = rng.uniform(0.1, 0.6, T)
    hyper = KernelHyper(xi=0.9, phi=0.6)
    zeta = None if tau2 is None else 1.0 / tau2
    spec = ModelSpec(mean_kind, "Homosk", DS_H1)
    ctx = me._GpContext(spec, WindowData(y=r, X=X, x_new=np.zeros(K), horizon=1))
    if zeta is not None:
        me._a_pieces(ctx, hyper, 0.5 * zeta)  # the cached A must follow zeta

    A, _, logdetA = me._a_pieces(ctx, hyper, zeta)
    cP, logdetP = me._p_pieces(A, sigma)
    ll = me._collapsed_loglik(r, sigma, logdetA, cP, logdetP)

    Kinv = np.linalg.inv(gaussian_kernel_matrix(X, hyper))
    A_o = Kinv if zeta is None else Kinv + zeta * (np.eye(T) - ctx.Phi0)
    K1 = np.linalg.inv(A_o)
    C = K1 + np.diag(sigma)
    _, logdetC = np.linalg.slogdet(C)
    ll_o = -0.5 * (T * np.log(2 * np.pi) + logdetC + r @ np.linalg.solve(C, r))
    assert abs(ll - ll_o) / abs(ll_o) < tol

    Pinv = np.linalg.inv(A_o + np.diag(1.0 / sigma))
    fbar_o = Pinv @ (r / sigma)
    fbar = me._draw_f(r, sigma, cP, _ZeroRng())
    assert _rel(fbar, fbar_o) < tol
    W = np.column_stack([me._draw_f(r, sigma, cP, _UnitRng(i)) - fbar
                         for i in range(T)])
    assert _rel(W @ W.T, Pinv) < tol


@pytest.mark.parametrize("mean_kind, budget", [("GP", 3), ("Linear", 4), ("GPSub", 5)])
def test_sweep_factorization_budget(monkeypatch, mean_kind, budget):
    """A sweep with a new hyperparameter proposal factors only what its math
    needs: P at the current and proposed hyper, K at the proposed one, A at
    the proposed one unless A = K^-1 (GP), and A at the current one only when
    tau^2 moved (GPSub). No dense multi-column solve."""
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 2))
    y = np.sin(X[:, 0]) + 0.4 * rng.standard_normal(40)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    spec = ModelSpec(mean_kind, "Homosk", DS_H1)
    cfg = McmcConfig(n_iter=30, n_burn=5, seed=3)
    ctx = me._GpContext(spec, data)
    state = init_state(spec, data, cfg)
    step_rng = np.random.default_rng(3)
    mcmc_step(spec, data, state, step_rng, ctx)  # caches the current hyper

    chol, solves = [], []
    orig_chol, orig_solve = me.chol_psd, me.cho_solve
    monkeypatch.setattr(me, "chol_psd",
                        lambda *a, **k: (chol.append(k.get("what")), orig_chol(*a, **k))[1])
    monkeypatch.setattr(me, "cho_solve",
                        lambda c, b, **k: (solves.append(np.ndim(b)), orig_solve(c, b, **k))[1])
    mcmc_step(spec, data, state, step_rng, ctx)
    assert chol.count("kernel matrix") == 1  # the proposal's kernel, once
    assert len(chol) <= budget, chol
    assert solves and all(nd == 1 for nd in solves)


# ---------------------------------------------------------------------------
# whole chains


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_run_chain_deterministic_given_seed():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 2))
    y = X @ np.array([0.6, -0.3]) + rng.standard_normal(60)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    cfg = McmcConfig(n_iter=120, n_burn=40, seed=99)
    for mid in ("Linear-DPM", "GPSub-SV"):
        mean_kind, error_kind = mid.split("-", 1)
        spec = ModelSpec(mean_kind, error_kind, DS_H1)
        a = run_chain(spec, data, cfg)
        b = run_chain(spec, data, cfg)
        assert np.array_equal(a.f, b.f)
        for name in a.scalars:
            assert np.array_equal(a.scalars[name], b.scalars[name])
        if a.err_weights is not None:
            assert all(np.array_equal(u, v)
                       for u, v in zip(a.err_weights, b.err_weights))


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_run_chain_single_retained_draw():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    cfg = McmcConfig(n_iter=40, n_burn=39, seed=1)
    draws = run_chain(ModelSpec("GP", "Homosk", DS_H1), data, cfg)
    assert draws.n_retained == 1
    assert draws.f.shape == (1, 50)
    assert all(v.size == 1 for v in draws.scalars.values())


def test_run_chain_aborts_on_nonfinite_state(monkeypatch):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 2))
    data = WindowData(y=rng.standard_normal(50), X=X, x_new=np.zeros(2),
                      horizon=1)
    orig = me.error_variance_diag
    calls = {"n": 0}

    def poisoned(state, T):
        calls["n"] += 1
        out = orig(state, T)
        if calls["n"] >= 4:
            out = out.copy()
            out[0] = np.inf
        return out

    monkeypatch.setattr(me, "error_variance_diag", poisoned)
    with pytest.raises(McmcError, match=r"error block at iteration 3"):
        run_chain(ModelSpec("Linear", "Homosk", DS_H1), data,
                  McmcConfig(n_iter=30, n_burn=5, seed=1))


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_run_chain_reports_acceptance_and_mixing():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 2))
    y = X @ np.array([0.6, -0.3]) + rng.standard_normal(60)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    draws = run_chain(ModelSpec("GPSub", "DPM", DS_H1), data,
                      McmcConfig(n_iter=150, n_burn=50, seed=2))
    assert set(draws.accept) <= {"hyper", "alpha"}
    assert all(0.0 <= v <= 1.0 for v in draws.accept.values())
    assert draws.ifs
    assert all(v >= 1.0 or np.isnan(v) for v in draws.ifs.values())
    assert draws.runtime > 0
    assert draws.seed == 2


# ---------------------------------------------------------------------------
# inefficiency factors


def test_inefficiency_factor_white_noise():
    trace = np.random.default_rng(0).standard_normal(10_000)
    assert abs(inefficiency_factor(trace) - 1.0) < 0.2


def test_inefficiency_factor_ar1_closed_form():
    rng = np.random.default_rng(0)
    rng.standard_normal(10_000)  # skip the white-noise block of the stream
    trace = np.empty(10_000)
    trace[0] = rng.standard_normal()
    for t in range(1, trace.size):
        trace[t] = 0.9 * trace[t - 1] + rng.standard_normal()
    target = (1 + 0.9) / (1 - 0.9)
    assert abs(inefficiency_factor(trace) - target) < 0.2 * target


def test_inefficiency_factor_alternating_trace_exact():
    """Hand arithmetic: n=100 gives a 4-lag taper, and the alternating trace
    has autocorrelation (-1)^k (n-k)/n, so the factor is exactly 0.2."""
    trace = np.tile([1.0, -1.0], 50)
    expected = 1.0 + 2.0 * sum(
        (1.0 - k / 5.0) * (-1.0) ** k * (100 - k) / 100 for k in range(1, 5))
    assert expected == pytest.approx(0.2, abs=1e-15)
    assert inefficiency_factor(trace) == pytest.approx(expected, abs=1e-12)


def test_inefficiency_factor_degenerate_traces():
    with pytest.warns(UserWarning, match="constant"):
        assert inefficiency_factor(np.full(500, 3.14)) == 1.0
    with pytest.warns(UserWarning, match="shorter than 100"):
        inefficiency_factor(np.random.default_rng(1).standard_normal(50))


# ---------------------------------------------------------------------------
# predictive simulation


def test_predictive_matches_closed_form_gaussian():
    """Holding every retained draw at one fixed linear fit, the simulated
    outcomes must be Gaussian around the plane value plus the window level."""
    n = 50_000
    rng = np.random.default_rng(8)
    X = rng.standard_normal((60, 2))
    beta = np.array([0.8, -0.4])
    f_fix = X @ beta
    x_new = np.array([0.5, 1.0])
    offset = 0.3
    sigma2 = 1.0
    window = WindowData(y=f_fix.copy(), X=X, x_new=x_new, horizon=1,
                        y_offset=offset)
    scalars = {"xi": np.full(n, 0.6), "phi": np.full(n, 0.4),
               "f_mean": np.full(n, f_fix.mean()), "sigma2": np.full(n, sigma2)}
    spec = ModelSpec("Linear", "Homosk", DS_H1)
    draws = _hand_draws(spec, window, scalars, np.tile(f_fix, (n, 1)), n)
    out = predictive_simulate(spec, draws, x_new, np.random.default_rng(77))
    target_mean = float(x_new @ beta) + offset
    assert out.draws.size == n
    assert abs(out.draws.mean() - target_mean) < 0.02
    assert abs(out.draws.var() / sigma2 - 1.0) < 0.02
    assert out.point == pytest.approx(out.draws.mean())
    assert list(out.quantiles) == list(P_GRID)
    qs = [out.quantiles[p] for p in P_GRID]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_predictive_constant_trend_is_horizon_invariant():
    """A zero-variance trend forecasts the same at any horizon."""
    n = 5000
    scalars = {"trend_last": np.full(n, 1.7), "trend_var": np.zeros(n),
               "sigma2": np.full(n, 0.8)}
    outs = []
    for ds in (DS_H1, DS_H4):
        spec = ModelSpec("UC", "Homosk", ds)
        window = WindowData(y=np.zeros(10), X=None, x_new=None,
                            horizon=ds.horizon)
        draws = _hand_draws(spec, window, scalars, None, n)
        outs.append(predictive_simulate(spec, draws, None,
                                        np.random.default_rng(5)))
    assert outs[0].point == outs[1].point
    assert np.array_equal(outs[0].draws, outs[1].draws)


def test_predictive_bimodal_mixture():
    """Two far-separated error components must show up as two predictive
    modes with an empty valley between them."""
    n = 4000
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 2))
    window = WindowData(y=np.zeros(50), X=X, x_new=np.zeros(2), horizon=1)
    scalars = {"xi": np.full(n, 0.5), "phi": np.full(n, 0.5),
               "f_mean": np.zeros(n), "alpha": np.full(n, 0.5),
               "n_occupied": np.full(n, 2.0)}
    spec = ModelSpec("Linear", "DPM", DS_H1)
    draws = _hand_draws(spec, window, scalars, np.zeros((n, 50)), n)
    draws.err_weights = [np.array([0.5, 0.5]) for _ in range(n)]
    draws.err_means = [np.array([-4.0, 4.0]) for _ in range(n)]
    draws.err_vars = [np.array([0.25, 0.25]) for _ in range(n)]
    out = predictive_simulate(spec, draws, np.zeros(2),
                              np.random.default_rng(9))
    assert np.mean(np.abs(out.draws) < 2.0) < 0.01
    assert 0.4 < np.mean(out.draws < -2.0) < 0.6
    assert 0.4 < np.mean(out.draws > 2.0) < 0.6
    assert out.quantiles[0.05] < -3.0 < 3.0 < out.quantiles[0.95]


def test_predictive_linear_equals_subspace_at_full_weight():
    n = 2000
    rng = np.random.default_rng(8)
    X = rng.standard_normal((60, 2))
    f_fix = X @ np.array([0.8, -0.4])
    x_new = np.array([0.5, 1.0])
    window = WindowData(y=f_fix.copy(), X=X, x_new=x_new, horizon=1,
                        y_offset=0.3)
    base = {"xi": np.full(n, 0.55), "phi": np.full(n, 0.45),
            "f_mean": np.full(n, f_fix.mean()), "sigma2": np.full(n, 0.7)}
    sub = dict(base, tau2=np.full(n, LINEAR_TAU2),
               omega=np.full(n, 1.0 / (1.0 + LINEAR_TAU2)))
    spec_lin = ModelSpec("Linear", "Homosk", DS_H1)
    spec_sub = ModelSpec("GPSub", "Homosk", DS_H1)
    out_lin = predictive_simulate(
        spec_lin, _hand_draws(spec_lin, window, base, np.tile(f_fix, (n, 1)), n),
        x_new, np.random.default_rng(12))
    out_sub = predictive_simulate(
        spec_sub, _hand_draws(spec_sub, window, sub, np.tile(f_fix, (n, 1)), n),
        x_new, np.random.default_rng(12))
    assert np.max(np.abs(out_lin.draws - out_sub.draws)) < 1e-6
    assert out_lin.point == pytest.approx(out_sub.point, abs=1e-6)


# ---------------------------------------------------------------------------
# expanding-window recursion


@pytest.fixture(scope="module")
def small_panel():
    return synthetic_panel()


def test_forecast_origin_selection(small_panel):
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    start = int(full.origin_dates[-10]) + 1
    end = start + 7
    origins = forecast_origins(full, start, end)
    assert len(origins) == 8
    assert origins[-1] + 1 == end
    full4 = assemble_regression(small_panel, DS_H4, standardize=False)
    origins4 = forecast_origins(full4, start, end)
    assert origins4[-1] == end - 4


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_recursive_forecast_one_cell_per_origin(small_panel):
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    start = int(full.origin_dates[-10]) + 1
    spec = ModelSpec("Linear", "Homosk", DS_H1)
    cfg = McmcConfig(n_iter=60, n_burn=20, seed=4)
    results = recursive_forecast(spec, small_panel, start, start + 7, cfg,
                                 master_seed=99)
    assert len(results) == 8
    for res in results:
        assert res.horizon == 1
        assert np.isfinite(res.y_true)
        assert res.draws.size == cfg.n_retained
        assert {"seed", "ifs", "accept", "runtime", "train_quarters",
                "model", "dataset"} <= set(res.diagnostics)
        qs = [res.quantiles[p] for p in P_GRID]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_recursive_forecast_skips_short_training_windows(small_panel):
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    start = int(full.origin_dates[10])
    spec = ModelSpec("UC", "Homosk", DS_H1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = recursive_forecast(spec, small_panel, start, start + 5,
                                     McmcConfig(n_iter=40, n_burn=10, seed=4))
    assert results == []
    skips = [w for w in caught if "minimum 40" in str(w.message)]
    assert len(skips) == 6


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_forecast_cell_ignores_data_after_origin(small_panel):
    """Estimation and prediction must not react to observations dated after
    the forecast origin; only the realized outcome may differ."""
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    origin = int(full.origin_dates[-5])
    tampered = small_panel.values.copy()
    tampered[small_panel.dates > origin, :] += 3.7
    panel2 = SeriesPanel(small_panel.dates, small_panel.names, tampered,
                         small_panel.tcodes, small_panel.flags)
    spec = ModelSpec("GP", "Homosk", DS_H1)
    cfg = McmcConfig(n_iter=60, n_burn=20)
    a = forecast_cell(spec, small_panel, origin, cfg, master_seed=5)
    b = forecast_cell(spec, panel2, origin, cfg, master_seed=5)
    assert np.array_equal(a.draws, b.draws)
    assert a.quantiles == b.quantiles
    assert a.y_true != b.y_true


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_forecast_cell_seed_derivation_and_min_window(small_panel):
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    origin = int(full.origin_dates[-5])
    spec = ModelSpec("Linear", "SV", DS_H1)
    cfg = McmcConfig(n_iter=60, n_burn=20)
    res = forecast_cell(spec, small_panel, origin, cfg, master_seed=11)
    expected = derive_cell_seed(11, "Linear-SV", spec.dataset_label, 1,
                                format_quarter(origin))
    assert res.diagnostics["seed"] == expected
    assert res.diagnostics["train_quarters"] >= MIN_TRAIN_QUARTERS
    early = int(full.origin_dates[5])
    with pytest.raises(ValueError, match="minimum 40"):
        forecast_cell(spec, small_panel, early, cfg, master_seed=11)
