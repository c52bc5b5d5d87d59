"""Chain assembly: grid enumeration, sweeps, retention, prediction, recursion."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import bnpforecast.data_pipeline as dp
import bnpforecast.model_engine as me
from bnpforecast import cli
from bnpforecast.data_pipeline import (
    DatasetSpec,
    SeriesPanel,
    assemble_regression,
    format_quarter,
    forecast_origins,
)
from bnpforecast.error_models import (
    error_mean_offsets,
    error_variance_diag,
    init_error_state,
)
from bnpforecast.gp_core import AdaptiveStep, KernelHyper
from bnpforecast.model_engine import (
    MEAN_KINDS,
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
    inefficiency_factor,
    init_state,
    mcmc_step,
    model_grid,
    predictive_simulate,
    run_chain,
    uc_trend_update,
)
from conftest import (
    ZeroRng,
    assert_error_state,
    dense_kernel,
    engine_conditional,
    engine_context,
    geweke_z,
    run_chain_recording_f,
)
from synthetic import synthetic_panel

DS_H1 = DatasetSpec(variant="Moderate", target_series="PRICE", horizon=1,
                    include_expectations=False)
DS_H4 = DatasetSpec(variant="Moderate", target_series="PRICE", horizon=4,
                    include_expectations=False)

SHORT_TRACE = "ignore:inefficiency factor on a trace shorter"


def _linear_fixture(sigma, seed=5, T=200, K=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((T, K))
    beta = np.array([1.0, -0.5, 0.3])
    y = X @ beta + sigma * rng.standard_normal(T)
    ols_fit = X @ np.linalg.lstsq(X, y, rcond=None)[0]
    return X, y, ols_fit


def _hand_draws(spec, window, scalars, f, n):
    """Retained draws set by hand, with the origin moments that
    ``run_chain`` would record for them: the trend's for UC, the mean
    block's ``origin_moments`` otherwise."""
    if spec.mean_kind == "UC":
        mean = scalars["trend_last"]
        var = window.horizon * scalars["trend_var"]
    else:
        ctx = me._GpContext(spec, window)
        tau2 = scalars.get("tau2")
        mean, var = np.empty(n), np.empty(n)
        for i in range(n):
            hyper = KernelHyper(scalars["xi"][i], scalars["phi"][i])
            zeta = None if tau2 is None else 1.0 / tau2[i]
            mean[i], var[i] = ctx.origin_moments(hyper, f[i], zeta)
    return PosteriorDraws(window=window, scalars=scalars,
                          origin_mean=mean, origin_var=var,
                          err_mixture=None,
                          ifs={}, accept={}, runtime=0.0, n_retained=n)


def _context(spec, data):
    """The window context ``run_chain`` builds and ``mcmc_step`` takes:
    None for UC."""
    return None if spec.mean_kind == "UC" else me._GpContext(spec, data)


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
    assert spec.model_id == "GP-DPM"
    with pytest.raises(ValueError, match="mean kind"):
        ModelSpec("BART", "DPM", DS_H1)
    with pytest.raises(ValueError, match="error kind"):
        ModelSpec("GP", "GARCH", DS_H1)


def test_linear_is_exact_subspace_limit():
    """Linear carries no shrinkage scale, and its draw lies in the span of
    the window basis to rounding: f = U beta, not a pinned tiny tau^2."""
    spec = ModelSpec("Linear", "Homosk", DS_H1)
    assert not hasattr(dp, "LINEAR_TAU2") and not hasattr(me, "LINEAR_TAU2")
    assert not hasattr(spec, "pinned_tau2")
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 3))
    y = np.sin(X[:, 0]) + 0.3 * rng.standard_normal(30)
    data = WindowData(y=y, X=X, x_new=np.zeros(3), horizon=1)
    ctx = _context(spec, data)
    state = init_state(spec, data, McmcConfig(n_iter=30, n_burn=5), ctx)
    assert state.tau2 is None
    step_rng = np.random.default_rng(4)
    for _ in range(5):
        mcmc_step(spec, data, state, step_rng, ctx)
        resid = state.f - X @ np.linalg.lstsq(X, state.f, rcond=None)[0]
        assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(state.f))


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
    q = 0.3
    trend, q_new = uc_trend_update(y, np.zeros(3), sig2, ZeroRng(), q)

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
    trend, _ = uc_trend_update(y, np.zeros(5), sig2, ZeroRng(), 1e-14)
    level = ((y[0] / UC_PRIOR_INIT_VAR + np.sum(y / sig2))
             / (1.0 / UC_PRIOR_INIT_VAR + np.sum(1.0 / sig2)))
    assert np.ptp(trend) < 1e-10
    assert np.allclose(trend, level, atol=1e-9)


def test_uc_trend_no_information_limit():
    """Infinite observation variance leaves prior random-walk paths anchored
    at the initialization."""
    y = np.array([0.5, -1.0, 2.0, 0.7, 1.4])
    q = 0.7
    rng = np.random.default_rng(3)
    n = 30000
    paths = np.empty((n, y.size))
    for i in range(n):
        paths[i] = uc_trend_update(y, np.zeros(5), np.full(5, 1e30), rng, q)[0]
    se0 = np.sqrt(UC_PRIOR_INIT_VAR / n)
    assert abs(paths[:, 0].mean() - y[0]) < 3 * se0
    assert abs(paths[:, 0].var() / UC_PRIOR_INIT_VAR - 1.0) < 0.05
    incr = np.diff(paths, axis=1)
    assert np.all(np.abs(incr.var(axis=0) / q - 1.0) < 0.05)
    assert np.all(np.abs(incr.mean(axis=0)) < 3 * np.sqrt(q / n))


def _uc_trend_numpy(y, error_state, rng, trend_var):
    """``uc_trend_update`` on numpy float64 scalars, as first written: the
    oracle for its Python-float loops."""
    T = y.size
    sigma = error_variance_diag(error_state, T)
    obs = y - error_mean_offsets(error_state, T)
    q = max(float(trend_var), 1e-15)
    m = np.empty(T)
    C = np.empty(T)
    a, R = y[0], UC_PRIOR_INIT_VAR
    for t in range(T):
        if t > 0:
            a, R = m[t - 1], C[t - 1] + q
        gain = R / (R + sigma[t])
        m[t] = a + gain * (obs[t] - a)
        C[t] = (1.0 - gain) * R
    new = np.empty(T)
    z = rng.standard_normal(T)
    new[-1] = m[-1] + math.sqrt(max(C[-1], 0.0)) * z[-1]
    for t in range(T - 2, -1, -1):
        prec = 1.0 / C[t] + 1.0 / q
        var = 1.0 / prec
        mean = var * (m[t] / C[t] + new[t + 1] / q)
        new[t] = mean + math.sqrt(var) * z[t]
    a0, b0 = UC_TREND_VAR_PRIOR
    rate = b0 + 0.5 * float(np.sum(np.diff(new) ** 2))
    return new, float(rate / rng.gamma(a0 + 0.5 * (T - 1), 1.0))


@pytest.mark.parametrize("T", [1, 2, 5, 97])
@pytest.mark.parametrize("q", [1e-14, 0.05])
@pytest.mark.parametrize("kind", ["SV", "DPM"])
def test_uc_trend_equals_numpy_scalar_oracle(kind, T, q):
    rng = np.random.default_rng(T)
    y = np.cumsum(rng.standard_normal(T))
    state = init_error_state(kind, T, 0.4)
    if kind == "SV":
        state.sv.h = rng.normal(-1.0, 0.5, T)
    else:
        state.dpm.alloc = rng.integers(0, state.dpm.comp_mean.size, T)
        state.dpm.comp_mean = rng.normal(0.0, 0.3, state.dpm.comp_mean.size)
    want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
    want = _uc_trend_numpy(y, state, want_rng, q)
    got = uc_trend_update(y, error_mean_offsets(state, T), error_variance_diag(state, T),
                          got_rng, q)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


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
    ctx = _context(spec, data)
    state = init_state(spec, data, McmcConfig(n_iter=30, n_burn=5), ctx)
    mcmc_step(spec, data, state, np.random.default_rng(0), ctx)
    assert calls == ["error", "mean"]


def test_linear_chain_matches_projection_fit_at_high_snr():
    """With noise far below the signal the likelihood dominates the function
    prior and the posterior mean fit lands on the least-squares projection."""
    X, y, ols_fit = _linear_fixture(sigma=0.02)
    data = WindowData(y=y, X=X, x_new=np.zeros(3), horizon=1)
    _, f = run_chain_recording_f(ModelSpec("Linear", "Homosk", DS_H1), data,
                                 McmcConfig(n_iter=2500, n_burn=1000), 11)
    dev = np.max(np.abs(f.mean(axis=0) - ols_fit))
    assert dev < 1e-3 * np.max(np.abs(ols_fit))


def test_linear_chain_shrinks_toward_projection_fit_at_unit_noise():
    """At unit noise the bounded-amplitude function prior still binds, so the
    fit is a shrunk but near-perfectly-correlated copy of the projection."""
    X, y, ols_fit = _linear_fixture(sigma=1.0)
    data = WindowData(y=y, X=X, x_new=np.zeros(3), horizon=1)
    _, f = run_chain_recording_f(ModelSpec("Linear", "Homosk", DS_H1), data,
                                 McmcConfig(n_iter=2500, n_burn=1000), 11)
    fmean = f.mean(axis=0)
    assert np.corrcoef(fmean, ols_fit)[0, 1] > 0.999
    slope = np.polyfit(ols_fit, fmean, 1)[0]
    assert 0.5 < slope < 1.0


def test_uc_chain_tracks_random_walk():
    rng = np.random.default_rng(6)
    y = np.cumsum(rng.standard_normal(300))
    spec = ModelSpec("UC", "Homosk", DS_H1)
    data = WindowData(y=y, X=None, x_new=None, horizon=1)
    state = init_state(spec, data, McmcConfig(n_iter=10, n_burn=5), None)
    step_rng = np.random.default_rng(7)
    acc = np.zeros(y.size)
    for i in range(800):
        state = mcmc_step(spec, data, state, step_rng, None)
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
        ctx = _context(spec, data)
        state = init_state(spec, data, McmcConfig(n_iter=30, n_burn=10), ctx)
        step_rng = np.random.default_rng(abs(hash(mid)) % 2 ** 32)
        for _ in range(25):
            state = mcmc_step(spec, data, state, step_rng, ctx)
            assert_error_state(state.error)
        if mean_kind == "UC":
            assert np.all(np.isfinite(state.trend))
            assert state.trend_var > 0
        else:
            assert np.all(np.isfinite(state.f))
            assert 0 < state.hyper.xi < 1
            assert 0 < state.hyper.phi < 1
        if mean_kind == "GPSub":
            assert state.tau2 > 0
        if mean_kind != "GPSub":
            assert state.tau2 is None


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("mean_kind, tau2, tol", [
    ("GP", None, 1e-10), ("GPSub", 0.7, 1e-10), ("GPSub", 1e3, 1e-10),
    ("GPSub", 1e-4, 1e-10)])
def test_mean_block_matches_dense_oracle(mean_kind, tau2, tol):
    """Collapsed likelihood, conditional mean and noise map of the mean
    block against plain-inverse precision-form oracles with heteroskedastic
    errors: log N(r; 0, K1 + Sigma) with K1 = (K^-1 + zeta (I - Phi0))^-1,
    mean P^-1 Sigma^-1 r, and W W' = P^-1, at zeta = 1/tau^2 from 1e-3 to
    1e4."""
    rng = np.random.default_rng(31)
    T, K = 25, 3
    X = rng.standard_normal((T, K))
    r = np.tanh(X @ np.array([1.0, -0.6, 0.4])) + 0.5 * rng.standard_normal(T)
    sigma = rng.uniform(0.1, 0.6, T)
    hyper = KernelHyper(xi=0.9, phi=0.6)
    zeta = None if tau2 is None else 1.0 / tau2
    ctx = engine_context(mean_kind, X)
    if zeta is not None:
        me._conditional(ctx, hyper, r, sigma, 0.5 * zeta)  # the cached prior term must follow zeta
    ll, fbar, cov = engine_conditional(mean_kind, X, r, sigma, hyper, zeta, ctx=ctx)

    Kinv = np.linalg.inv(dense_kernel(X, hyper))
    A_o = Kinv if zeta is None else Kinv + zeta * (np.eye(T) - ctx.Phi0)
    K1 = np.linalg.inv(A_o)
    C = K1 + np.diag(sigma)
    _, logdetC = np.linalg.slogdet(C)
    ll_o = -0.5 * (T * np.log(2 * np.pi) + logdetC + r @ np.linalg.solve(C, r))
    assert abs(ll - ll_o) / abs(ll_o) < tol

    Pinv = np.linalg.inv(A_o + np.diag(1.0 / sigma))
    assert _rel(fbar, Pinv @ (r / sigma)) < tol
    assert _rel(cov, Pinv) < tol


@pytest.mark.parametrize("mean_kind, zeta", [("GP", None), ("GPSub", 1.43), ("Linear", None)])
def test_mean_block_exact_at_small_phi(mean_kind, zeta):
    """At phi = 1e-4 the kernel's exponential part is singular to working
    precision; with its nugget, K has condition number about 2.5e9. Every
    mean block, Linear included (which factors K itself), warns nothing and
    matches to 1e-10 the oracle of the nugget model, with the covariance
    exact too: the pathwise prior draw is g ~ N(0, K) of the same K. The
    oracles form no K^-1: K1 = K for GP, K1 = K - KV (V'KV + I/zeta)^-1 V'K
    for GPSub, with V spanning I - Phi0, and K1 = U (U'K^-1 U)^-1 U' for
    Linear, with K^-1 U from one solve."""
    rng = np.random.default_rng(31)
    T = 25
    X = rng.standard_normal((T, 3))
    r = np.tanh(X @ np.array([1.0, -0.6, 0.4])) + 0.5 * rng.standard_normal(T)
    sigma = np.full(T, 0.25)
    hyper = KernelHyper(xi=0.9, phi=1e-4)
    ctx = engine_context(mean_kind, X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll, fbar, cov = engine_conditional(mean_kind, X, r, sigma, hyper, zeta, ctx=ctx)
    Kmat = dense_kernel(X, hyper)
    K1 = Kmat
    if mean_kind == "GPSub":
        V = np.linalg.svd(np.eye(T) - ctx.Phi0)[0][:, :T - 3]
        KV = Kmat @ V
        K1 = Kmat - KV @ np.linalg.solve(V.T @ KV + np.eye(T - 3) / zeta, KV.T)
    elif mean_kind == "Linear":
        U = np.linalg.qr(X)[0]
        K1 = U @ np.linalg.solve(U.T @ np.linalg.solve(Kmat, U), U.T)
    C = K1 + np.diag(sigma)
    _, logdetC = np.linalg.slogdet(C)
    ll_o = -0.5 * (T * np.log(2 * np.pi) + logdetC + r @ np.linalg.solve(C, r))
    assert abs(ll - ll_o) / abs(ll_o) < 1e-10
    gain = K1 @ np.linalg.inv(C)
    assert _rel(fbar, gain @ r) < 1e-10
    assert _rel(cov, K1 - gain @ K1) < 1e-10


def _mean_block_fixture(T=25):
    rng = np.random.default_rng(31)
    X = rng.standard_normal((T, 3))
    r = np.tanh(X @ np.array([1.0, -0.6, 0.4])) + 0.5 * rng.standard_normal(T)
    sigma = rng.uniform(0.1, 0.6, T)
    return X, r, sigma, KernelHyper(xi=0.9, phi=0.6)


def test_linear_mean_block_matches_dense_limit_oracle():
    """Linear's k x k mean block against the dense tau^2 -> 0 limit:
    K1 = U (U'K^-1 U)^-1 U', log N(r; 0, K1 + Sigma), conditional mean
    K1 (K1 + Sigma)^-1 r and covariance K1 - K1 (K1 + Sigma)^-1 K1."""
    X, r, sigma, hyper = _mean_block_fixture()
    ll, fbar, cov = engine_conditional("Linear", X, r, sigma, hyper)

    U = np.linalg.qr(X)[0]
    Kinv = np.linalg.inv(dense_kernel(X, hyper))
    K1 = U @ np.linalg.inv(U.T @ Kinv @ U) @ U.T
    C = K1 + np.diag(sigma)
    _, logdetC = np.linalg.slogdet(C)
    T = r.size
    ll_o = -0.5 * (T * np.log(2 * np.pi) + logdetC + r @ np.linalg.solve(C, r))
    assert abs(ll - ll_o) / abs(ll_o) < 1e-10
    gain = K1 @ np.linalg.inv(C)
    assert _rel(fbar, gain @ r) < 1e-10
    assert _rel(cov, K1 - gain @ K1) < 1e-10


def test_linear_conditional_equals_subspace_conditional_at_full_weight():
    """GPSub at tau^2 = 1e-8 is within 1e-6 of its limit, Linear: the same
    collapsed likelihood and the same conditional mean and covariance of f."""
    X, r, sigma, hyper = _mean_block_fixture()
    ll_lin, mean_lin, cov_lin = engine_conditional("Linear", X, r, sigma, hyper)
    ll_sub, mean_sub, cov_sub = engine_conditional("GPSub", X, r, sigma, hyper, zeta=1e8)
    assert abs(ll_lin - ll_sub) / abs(ll_sub) < 1e-6
    assert _rel(mean_lin, mean_sub) < 1e-6
    assert _rel(cov_lin, cov_sub) < 1e-6


def _mean_block_gets_it_right(monkeypatch, mean_kind, move_tau2=True):
    """Geweke (2004) joint check at T = 5: alternating the mean block
    (hyperparameter MH with f integrated out, then f, then GPSub's tau^2
    move) with r | f ~ N(f, s2 I) leaves the joint prior of (xi, phi, tau, f)
    invariant. Test functions of the chain are compared with direct prior
    draws by z-scores with batch-means standard errors. The direct draws:
    xi, phi ~ U(0, 1); f ~ N(0, K) for GP, with K the nugget kernel; f ~ N(0, A^-1) with
    A = K^-1 + (I - Phi0)/tau^2 and tau half-Cauchy for GPSub; and
    f = U beta, beta ~ N(0, (U'K^-1 U)^-1) for Linear. tau^2 itself has no
    mean, so GPSub compares the bounded omega = 1/(1 + tau^2). Without
    ``move_tau2``, GPSub holds tau^2 = 1/2 in the chain and in the draws."""
    T, s2, n_chain, n_iid = 5, 0.25, 20_000, 200_000
    rng = np.random.default_rng(1)
    X = rng.standard_normal((T, 2))
    U = np.linalg.qr(X)[0]
    xi, phi = rng.uniform(size=n_iid), rng.uniform(size=n_iid)
    K = dense_kernel(X, SimpleNamespace(xi=xi, phi=phi))
    tau2 = None
    if mean_kind == "Linear":
        L = np.linalg.cholesky(U.T @ np.linalg.inv(K) @ U)
        beta = np.linalg.solve(np.swapaxes(L, 1, 2),
                               rng.standard_normal((n_iid, 2, 1)))[:, :, 0]
        f_iid = beta @ U.T
    else:
        g = np.linalg.cholesky(K) @ rng.standard_normal((n_iid, T, 1))
        f_iid = g[:, :, 0]
    if mean_kind == "GPSub":
        # N(0, A^-1) pathwise: g ~ N(0, K) conditioned on V'g + tau e = 0,
        # where V spans I - Phi0, has covariance K - KV(V'KV + tau^2 I)^-1 V'K
        tau2 = rng.standard_cauchy(n_iid) ** 2 if move_tau2 else np.full(n_iid, 0.5)
        V = np.linalg.svd(np.eye(T) - U @ U.T)[0][:, :T - 2]
        KV = K @ V
        S = V.T @ KV + tau2[:, None, None] * np.eye(T - 2)
        e = np.sqrt(tau2)[:, None, None] * rng.standard_normal((n_iid, T - 2, 1))
        f_iid = (g - KV @ np.linalg.solve(S, V.T @ g + e))[:, :, 0]

    monkeypatch.setattr(me, "error_sweep", lambda st, resid, r, **k: (st, None))
    if not move_tau2:
        monkeypatch.setattr(me, "sample_tau2", lambda f, P, t, r, **k: t)
    spec = ModelSpec(mean_kind, "Homosk", DS_H1)
    data = WindowData(y=f_iid[0] + np.sqrt(s2) * rng.standard_normal(T), X=X,
                      x_new=np.zeros(2), horizon=1)
    ctx = me._GpContext(spec, data)
    state = init_state(spec, data, McmcConfig(n_iter=10, n_burn=1), ctx)
    state.error.sigma2 = s2
    state.hyper = KernelHyper(float(xi[0]), float(phi[0]))
    state.f = f_iid[0].copy()
    if tau2 is not None:
        state.tau2 = float(tau2[0])
    state.hyper_step = AdaptiveStep(step=1.5, frozen=True)
    chain = np.empty((n_chain, 3 + T))
    for i in range(n_chain):
        mcmc_step(spec, data, state, rng, ctx)
        data.y = state.f + np.sqrt(s2) * rng.standard_normal(T)
        chain[i, :3] = state.hyper.xi, state.hyper.phi, state.tau2 or 0.0
        chain[i, 3:] = state.f

    def tests(xi, phi, tau2, f):
        fsq = np.mean(f ** 2, axis=1)
        out = {"xi": xi, "phi": phi, "f0": f[:, 0], "f0^2": f[:, 0] ** 2,
               "mean f^2": fsq, "xi mean f^2": xi * fsq}
        if tau2 is not None and move_tau2:
            omega = 1.0 / (1.0 + tau2)
            out.update({"omega": omega, "omega mean f^2": omega * fsq})
        return out

    got = tests(chain[:, 0], chain[:, 1], None if tau2 is None else chain[:, 2],
                chain[:, 3:])
    want = tests(xi, phi, tau2, f_iid)
    for name in got:
        z = geweke_z(got[name], want[name])
        assert abs(z) < 4.0, (name, z)


def test_linear_mean_block_gets_it_right(monkeypatch):
    _mean_block_gets_it_right(monkeypatch, "Linear")


@pytest.mark.parametrize("mean_kind, move_tau2", [
    pytest.param("GP", True, id="GP"),
    pytest.param("GPSub", False, id="GPSub-fixed-tau2"),
    pytest.param("GPSub", True, id="GPSub", marks=pytest.mark.xfail(strict=True, reason=(
        "sample_tau2 drops the zeta-dependence of the prior's normalizing "
        "constant det(K^-1 + zeta (I - Phi0))^(1/2): omega's chain mean is "
        "0.96 against 0.50 under the prior")))])
def test_gp_mean_block_gets_it_right(monkeypatch, mean_kind, move_tau2):
    _mean_block_gets_it_right(monkeypatch, mean_kind, move_tau2)


@pytest.mark.parametrize("mean_kind, budget", [("GP", 3), ("Linear", 1), ("GPSub", 5)])
def test_sweep_factorization_budget(monkeypatch, mean_kind, budget):
    """A sweep with a new hyperparameter proposal factors only what its math
    needs, counted by size. T x T, at most ``budget``: GP factors K + Sigma
    at the current and the proposed hyper; GPSub factors K + D^-1 and, as
    tau^2 moved, I + zeta K at both; each factors K itself only when the
    proposal is accepted, for the draw of f. Linear factors only the
    proposal's K. k x k, at most 4: GPSub's U'B^-1 U and C at both hypers,
    Linear's P at both and M at the proposal. No K^-1 is formed (no
    ``dpotri``), and every ``dpotrs`` solves for one vector."""
    n_kk = {"GP": 0, "Linear": 3, "GPSub": 4}[mean_kind]
    rng = np.random.default_rng(2)
    T = 40
    X = rng.standard_normal((T, 2))
    y = np.sin(X[:, 0]) + 0.4 * rng.standard_normal(T)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    spec = ModelSpec(mean_kind, "Homosk", DS_H1)
    cfg = McmcConfig(n_iter=30, n_burn=5)
    ctx = me._GpContext(spec, data)
    state = init_state(spec, data, cfg, ctx)
    step_rng = np.random.default_rng(3)
    mcmc_step(spec, data, state, step_rng, ctx)  # caches the current hyper

    chol, sizes, solves = [], [], []
    orig_chol, orig_potrf, orig_solve = me.chol_psd, me.dpotrf, me.dpotrs

    def _chol(M, *a, **k):
        chol.append(k.get("what"))
        sizes.append(np.shape(M)[0])
        return orig_chol(M, *a, **k)

    monkeypatch.setattr(me, "chol_psd", _chol)
    monkeypatch.setattr(me, "dpotrf",
                        lambda M, **k: (sizes.append(np.shape(M)[0]), orig_potrf(M, **k))[1])
    monkeypatch.setattr(me, "dpotrs",
                        lambda c, b, **k: (solves.append(np.ndim(b)), orig_solve(c, b, **k))[1])
    assert not hasattr(me, "dpotri")
    seen = set()
    for _ in range(12):
        chol.clear()
        sizes.clear()
        prev = state.hyper
        mcmc_step(spec, data, state, step_rng, ctx)
        accepted = state.hyper is not prev
        seen.add(accepted)
        kernel = 1 if mean_kind == "Linear" else int(accepted)
        assert chol.count("kernel matrix") == kernel, (chol, accepted)
        assert sizes.count(T) == (budget if mean_kind == "Linear" or accepted
                                  else budget - 1), sizes
        assert len(sizes) - sizes.count(T) == n_kk <= 4, sizes
    assert seen == {True, False}
    assert solves and all(nd == 1 for nd in solves)


@pytest.mark.filterwarnings(SHORT_TRACE)
@pytest.mark.parametrize("mean_kind", ["GP", "GPSub"])
def test_forecast_cell_factors_only_inside_sweeps(monkeypatch, small_panel, mean_kind):
    """In a whole cell, every factorization, T x T and k x k, runs inside
    ``mcmc_step``: the origin moments and the predictive simulation reuse
    the factor of K the sweeps' draws of f left."""
    depth, calls, outside = [0], [], []
    orig_step = me.mcmc_step

    def step(*a, **k):
        depth[0] += 1
        try:
            return orig_step(*a, **k)
        finally:
            depth[0] -= 1

    def watched(name, orig):
        def call(M, *a, **k):
            calls.append((name, np.shape(M)[0]))
            if not depth[0]:
                outside.append(name)
            return orig(M, *a, **k)
        return call

    monkeypatch.setattr(me, "mcmc_step", step)
    for name in ("chol_psd", "dpotrf"):
        monkeypatch.setattr(me, name, watched(name, getattr(me, name)))
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    origin = int(full.origin_dates[-5])
    res = forecast_cell(ModelSpec(mean_kind, "Homosk", DS_H1), small_panel, origin,
                        McmcConfig(n_iter=60, n_burn=20), full, master_seed=5)
    assert np.all(np.isfinite(res.draws))
    names = {name for name, _ in calls}
    assert names == ({"chol_psd", "dpotrf"} if mean_kind == "GPSub" else {"chol_psd"})
    assert outside == []


# ---------------------------------------------------------------------------
# whole chains


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_run_chain_deterministic_given_seed():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 2))
    y = X @ np.array([0.6, -0.3]) + rng.standard_normal(60)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    cfg = McmcConfig(n_iter=120, n_burn=40)
    for mid in ("Linear-DPM", "GPSub-SV"):
        mean_kind, error_kind = mid.split("-", 1)
        spec = ModelSpec(mean_kind, error_kind, DS_H1)
        a, fa = run_chain_recording_f(spec, data, cfg, 99)
        b, fb = run_chain_recording_f(spec, data, cfg, 99)
        assert np.array_equal(fa, fb)
        assert np.array_equal(a.origin_mean, b.origin_mean)
        for name in a.scalars:
            assert np.array_equal(a.scalars[name], b.scalars[name])
        if a.err_mixture is not None:
            assert all(np.array_equal(u, v) for da, db in zip(a.err_mixture, b.err_mixture)
                       for u, v in zip(da, db))


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_run_chain_single_retained_draw():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    cfg = McmcConfig(n_iter=40, n_burn=39)
    draws, f = run_chain_recording_f(ModelSpec("GP", "Homosk", DS_H1), data, cfg, 1)
    assert draws.n_retained == 1
    assert f.shape == (1, 50)
    assert draws.origin_mean.shape == draws.origin_var.shape == (1,)
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
                  McmcConfig(n_iter=30, n_burn=5), np.random.default_rng(1))


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_run_chain_reports_acceptance_and_mixing(monkeypatch):
    """The acceptance rates are the moves' own accepted flags over every
    sweep, burn-in included: the hyper move's and the DPM alpha move's."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 2))
    y = X @ np.array([0.6, -0.3]) + rng.standard_normal(60)
    data = WindowData(y=y, X=X, x_new=np.zeros(2), horizon=1)
    flags = {"hyper": [], "alpha": []}
    hyper_move, error_move = me.sample_kernel_hyper, me.error_sweep

    def hyper(*a, **k):
        out = hyper_move(*a, **k)
        flags["hyper"].append(out[1])
        return out

    def sweep(*a, **k):
        out = error_move(*a, **k)
        flags["alpha"].append(out[1])
        return out

    monkeypatch.setattr(me, "sample_kernel_hyper", hyper)
    monkeypatch.setattr(me, "error_sweep", sweep)
    draws = run_chain(ModelSpec("GPSub", "DPM", DS_H1), data,
                      McmcConfig(n_iter=150, n_burn=50), np.random.default_rng(2))
    assert set(draws.accept) == {"hyper", "alpha"}
    for name, seen in flags.items():
        assert len(seen) == 150 and 0 < sum(seen) < 150
        assert draws.accept[name] == sum(seen) / 150
    assert draws.ifs
    assert all(v >= 1.0 or np.isnan(v) for v in draws.ifs.values())
    assert draws.runtime > 0


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
    out = predictive_simulate(spec, draws, np.random.default_rng(77))
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
        outs.append(predictive_simulate(spec, draws, np.random.default_rng(5)))
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
    draws.err_mixture = [(np.array([0.5, 0.5]), np.array([-4.0, 4.0]), np.array([0.25, 0.25]))
                         for _ in range(n)]
    out = predictive_simulate(spec, draws, np.random.default_rng(9))
    assert np.mean(np.abs(out.draws) < 2.0) < 0.01
    assert 0.4 < np.mean(out.draws < -2.0) < 0.6
    assert 0.4 < np.mean(out.draws > 2.0) < 0.6
    assert out.quantiles[0.05] < -3.0 < 3.0 < out.quantiles[0.95]


def test_predictive_linear_equals_subspace_at_full_weight():
    """GPSub's predictive converges to Linear's as tau^2 -> 0, at rate
    O(tau^2) once zeta dominates K^-1, and Linear's forecast is the limit
    itself: the plane value at the origin plus the window level."""
    n = 2000
    rng = np.random.default_rng(8)
    X = rng.standard_normal((60, 2))
    f_fix = X @ np.array([0.8, -0.4])
    x_new = np.array([0.5, 1.0])
    window = WindowData(y=f_fix.copy(), X=X, x_new=x_new, horizon=1,
                        y_offset=0.3)
    base = {"xi": np.full(n, 0.55), "phi": np.full(n, 0.45),
            "f_mean": np.full(n, f_fix.mean()), "sigma2": np.full(n, 0.7)}
    spec_lin = ModelSpec("Linear", "Homosk", DS_H1)
    spec_sub = ModelSpec("GPSub", "Homosk", DS_H1)
    out_lin = predictive_simulate(
        spec_lin, _hand_draws(spec_lin, window, base, np.tile(f_fix, (n, 1)), n),
        np.random.default_rng(12))
    assert all(m == pytest.approx(0.3 + x_new @ [0.8, -0.4], abs=1e-12)
               for m in out_lin.mixture[1])
    gaps = []
    for tau2 in (1e-8, 1e-10, 1e-12):
        sub = dict(base, tau2=np.full(n, tau2), omega=np.full(n, 1.0 / (1.0 + tau2)))
        out_sub = predictive_simulate(
            spec_sub, _hand_draws(spec_sub, window, sub, np.tile(f_fix, (n, 1)), n),
            np.random.default_rng(12))
        gaps.append(np.max(np.abs(out_lin.draws - out_sub.draws)))
    assert gaps[0] > gaps[1] > 50 * gaps[2]  # O(tau^2) once zeta dominates K^-1
    assert gaps[2] < 1e-6
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


def _run_config(models, start, end):
    """A run configuration over the synthetic panel: PRICE at h = 1 on the
    Moderate design without expectations, as DS_H1."""
    return cli.RunConfig(panel="", sidecar="", target="PRICE", out_dir="",
                         eval_start=format_quarter(start), eval_end=format_quarter(end),
                         expectations=None, models=models)


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_recursive_forecast_one_cell_per_origin(small_panel):
    """``cli.enumerate_cells`` gives one cell per origin of the evaluation
    window, and ``forecast_cell`` estimates each on the data ``cli``
    assembles for it."""
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    start = int(full.origin_dates[-10]) + 1
    cfg = _run_config(["Linear-Homosk"], start, start + 7)
    cells = cli.enumerate_cells(small_panel, cfg)
    assert [c.origin for c in cells] == forecast_origins(full, start, start + 7)
    assert len(cells) == 8
    spec = ModelSpec("Linear", "Homosk", cfg.dataset_spec("Moderate", 1))
    assert spec.dataset == DS_H1
    mcmc = McmcConfig(n_iter=60, n_burn=20)
    data = cli.cell_data(small_panel, spec.dataset, is_uc=False)
    for c in cells:
        res = forecast_cell(spec, small_panel, c.origin, mcmc, data, master_seed=99)
        assert np.isfinite(res.y_true)
        assert res.draws.size == mcmc.n_retained
        assert {"seed", "ifs", "accept", "runtime", "train_quarters"} <= set(res.diagnostics)
        qs = [res.quantiles[p] for p in P_GRID]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


def test_recursive_forecast_skips_short_training_windows(small_panel):
    """Origins with fewer than ``min_train`` training quarters get no cell,
    each with a warning."""
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    start = int(full.origin_dates[10])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cells = cli.enumerate_cells(small_panel,
                                    _run_config(["UC-Homosk"], start, start + 5))
    assert cells == []
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
    full2 = assemble_regression(panel2, DS_H1, standardize=False)
    a = forecast_cell(spec, small_panel, origin, cfg, full, master_seed=5)
    b = forecast_cell(spec, panel2, origin, cfg, full2, master_seed=5)
    assert np.array_equal(a.draws, b.draws)
    assert a.quantiles == b.quantiles
    assert a.y_true != b.y_true


@pytest.mark.filterwarnings(SHORT_TRACE)
def test_forecast_cell_seed_derivation_and_min_window(small_panel):
    full = assemble_regression(small_panel, DS_H1, standardize=False)
    origin = int(full.origin_dates[-5])
    spec = ModelSpec("Linear", "SV", DS_H1)
    cfg = McmcConfig(n_iter=60, n_burn=20)
    res = forecast_cell(spec, small_panel, origin, cfg, full, master_seed=11)
    expected = derive_cell_seed(11, "Linear-SV", spec.dataset_label, 1,
                                format_quarter(origin))
    assert res.diagnostics["seed"] == expected
    assert res.diagnostics["train_quarters"] >= dp.MIN_TRAIN_QUARTERS
