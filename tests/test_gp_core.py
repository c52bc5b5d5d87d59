"""Tests for the latent-function machinery: kernels, the window basis and
subspace shrinkage, the f conditional, the tau^2 and hyperparameter moves,
and the predictive at the forecast origin. Each piece is tested where the
engine computes it (``gp_core`` and ``model_engine``), against dense
plain-inverse oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.linalg import cho_factor, qr

import bnpforecast.model_engine as me
from bnpforecast.data_pipeline import PC_BASIS_RANK, DatasetSpec, ModelSpec
from bnpforecast.gp_core import (
    NUGGET,
    AdaptiveStep,
    KernelHyper,
    SingularKernelError,
    chol_psd,
    kernel_from_sqdist,
    sample_kernel_hyper,
    sample_tau2,
    squared_distances,
)
from conftest import dense_kernel, engine_conditional, engine_context, run_chain_recording_f


def _kernel(X, hyper):
    """The kernel function's matrix as the engine forms it, before the
    nugget."""
    return kernel_from_sqdist(squared_distances(X), hyper)


# ---------------------------------------------------------------------------
# kernel construction


def test_kernel_diagonal_is_amplitude():
    X = np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -1.0]])  # duplicate rows
    K = _kernel(X, KernelHyper(0.5, 0.3))
    assert_allclose(np.diag(K), 0.5)
    # the duplicate pair also hits the amplitude off the diagonal
    assert K[0, 1] == 0.5


def test_kernel_closed_form_entry():
    # k(x, x') = xi * exp(-phi/2 * ||x-x'||^2); at xi=0.5, phi=0.5, d^2=4
    X = np.array([[0.0], [2.0]])
    K = _kernel(X, KernelHyper(0.5, 0.5))
    assert_allclose(K[0, 1], 0.5 * np.exp(-1.0), rtol=1e-14)
    assert_allclose(K[0, 1], 0.18393972058572117, rtol=1e-14)


def test_kernel_flat_limit():
    # phi -> 0 makes every entry the amplitude
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 3))
    K = _kernel(X, KernelHyper(0.4, 1e-12))
    assert_allclose(K, 0.4, rtol=1e-9)


def test_squared_distances_cross():
    X = np.array([[0.0], [3.0]])
    Z = np.array([[1.0], [1.0], [-2.0]])
    D2 = squared_distances(X, Z)
    assert_allclose(D2, [[1.0, 1.0, 4.0], [4.0, 4.0, 25.0]])


@settings(max_examples=25, deadline=None)
@given(
    xi=st.floats(0.01, 0.99),
    phi=st.floats(0.01, 0.99),
    seed=st.integers(0, 10_000),
)
def test_kernel_symmetric_psd(xi, phi, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((8, 4))
    K = _kernel(X, KernelHyper(xi, phi))
    assert_allclose(K, K.T, atol=1e-14)
    assert np.linalg.eigvalsh(K).min() >= -1e-8 * xi


def test_kernel_hyper_validation():
    KernelHyper(1e-6, 1.0 - 1e-6)  # interior is fine
    for bad in [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (-0.1, 0.5)]:
        with pytest.raises(ValueError, match="kernel hyperparameters"):
            KernelHyper(*bad)


def test_kernel_from_sqdist_matches_matrix_off_diagonal():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 2))
    h = KernelHyper(0.8, 0.6)
    K = kernel_from_sqdist(squared_distances(X), h)
    K2 = dense_kernel(X, h)
    off = ~np.eye(5, dtype=bool)
    assert_allclose(K[off], K2[off], rtol=1e-14)
    assert_allclose(np.diag(K), 0.8, rtol=1e-14)


# ---------------------------------------------------------------------------
# window basis and projector


def _spec(mean_kind="GPSub", variant="Moderate"):
    return ModelSpec(mean_kind, "Homosk", DatasetSpec(variant, "PRICE", 1, False))


def _ctx(X, mean_kind="GPSub", variant="Moderate"):
    X = np.asarray(X, dtype=float)
    data = me.WindowData(y=np.zeros(X.shape[0]), X=X, x_new=X[0])
    return me._GpContext(_spec(mean_kind, variant), data)


def _svd_projector(X, r):
    """Oracle projector onto the r leading left singular vectors of X, the
    span of its r leading principal-component scores."""
    U = np.linalg.svd(X, full_matrices=False)[0][:, :r]
    return U @ U.T


def test_projection_onto_constant_column():
    X = np.ones((7, 1))
    ctx = _ctx(X)
    y = np.arange(7.0)
    assert_allclose(ctx.Phi0 @ y, np.full(7, y.mean()), atol=1e-12)
    assert ctx.basis_rank == 1


def test_projection_orthonormal_basis():
    rng = np.random.default_rng(2)
    Q = qr(rng.standard_normal((8, 3)), mode="economic")[0]
    assert_allclose(_ctx(Q).Phi0, Q @ Q.T, atol=1e-12)


def test_projection_idempotent_symmetric():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 4))
    ctx = _ctx(X)
    P = ctx.Phi0
    assert_allclose(P @ P, P, atol=1e-10)
    assert_allclose(P, P.T, atol=1e-12)
    assert_allclose(np.trace(P), 4.0, atol=1e-10)
    assert_allclose(X - P @ X, 0.0, atol=1e-10)
    assert_allclose(ctx.U @ ctx.U.T, P, atol=1e-12)


def test_projection_rejects_collinear_basis():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(10)
    X = np.column_stack([x, 2.0 * x, rng.standard_normal(10)])
    for mean_kind in ("GPSub", "Linear"):
        with pytest.raises(SingularKernelError, match="rank deficient"):
            _ctx(X, mean_kind)


def test_projection_switches_to_principal_components():
    # with K >= T the basis becomes leading PC scores, capped at T-1
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 9))
    B, b_new, k = me._window_basis(_spec(), X, X[2])
    assert k == 4 and B.shape == (5, 4)
    assert_allclose(b_new, B[2], atol=1e-12)
    assert np.array_equal(_ctx(X, "GP").B, B)  # GP's context carries the basis too
    ctx = _ctx(X)
    assert ctx.basis_rank == 4
    assert_allclose(ctx.Phi0 @ B, B, atol=1e-10)
    assert_allclose(ctx.Phi0, _svd_projector(X, 4), atol=1e-10)


def test_projection_pc_rank_cap():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 40))
    ctx = _ctx(X)
    assert ctx.basis_rank == PC_BASIS_RANK == 6
    assert_allclose(ctx.Phi0, _svd_projector(X, 6), atol=1e-10)


def test_projection_large_variant_uses_principal_components():
    """The Large variant shrinks toward the leading PC scores even when
    K < T, and maps the origin row through the same loadings; the other
    variants keep the raw predictors."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 8))
    B, b_new, k = me._window_basis(_spec(variant="Large"), X, X[3])
    assert k == PC_BASIS_RANK and B.shape == (40, k)
    assert_allclose(b_new, B[3], atol=1e-12)
    for mean_kind in ("GPSub", "Linear"):
        ctx = _ctx(X, mean_kind, "Large")
        assert ctx.basis_rank == k
        Phi0 = ctx.Phi0 if ctx.U is None else ctx.U @ ctx.U.T
        assert_allclose(Phi0, _svd_projector(X, k), atol=1e-10)
    B, b_new, k = me._window_basis(_spec(variant="Moderate"), X, X[3])
    assert k == 8 and B is X and np.array_equal(b_new, X[3])
    assert _ctx(X).basis_rank == 8


# ---------------------------------------------------------------------------
# subspace-shrunk prior: precision A = K^-1 + zeta (I - Phi0), K1 = A^-1


def _shrunk_kernel(ctx, hyper, tau2):
    """K1 as the covariance of the engine's draw of f given no data
    (Sigma = inf, so the conditional is the prior), and log det A + log det K
    from the engine's cached prior term."""
    T = ctx.T
    zeta = 1.0 / tau2
    _, _, K1 = engine_conditional("GPSub", None, np.zeros(T), np.full(T, np.inf),
                                  hyper, zeta, ctx=ctx)
    return K1, me._prior_logdet(ctx, ctx.kernel_pieces(hyper), zeta)


def test_subspace_kernel_two_by_two_oracle():
    # X = (1, 0)': Phi0 = diag(1, 0), and K = [[a, c], [c, a]] with the
    # nugget diagonal a = xi (1 + eps) and c = xi exp(-phi/2). At xi = 1/2,
    # tau2 = 1 with d = a^2 - c^2 = det K: A = K^-1 + diag(0, 1),
    # det A = (1 + a) / d and K1 = [[a + d, c], [c, a]] / (1 + a)
    hyper = KernelHyper(0.5, 0.5)
    a = 0.5 * (1.0 + NUGGET)
    c = 0.5 * np.exp(-0.25)
    d = a * a - c * c
    ctx = _ctx([[1.0], [0.0]])
    assert_allclose(ctx.Phi0, np.diag([1.0, 0.0]), atol=1e-15)
    K1, logdet_ak = _shrunk_kernel(ctx, hyper, 1.0)
    assert_allclose(K1, np.array([[a + d, c], [c, a]]) / (1.0 + a), atol=1e-12)
    assert_allclose(logdet_ak - np.log(d), np.log((1.0 + a) / d), rtol=1e-12)


def test_subspace_kernel_large_tau2_recovers_kernel():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 3))
    hyper = KernelHyper(0.7, 0.4)
    K = dense_kernel(X, hyper)
    K1, _ = _shrunk_kernel(_ctx(X), hyper, 1e8)
    assert np.max(np.abs(K1 - K)) < 1e-4 * np.max(np.abs(K))


def test_subspace_kernel_full_projector_is_identity_map():
    # shrinkage acts only off the subspace: with the whole space as the
    # subspace, A = K^-1 and K1 = K at any tau2
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 2))
    hyper = KernelHyper(0.6, 0.5)
    ctx = _ctx(X)
    ctx.U = ctx.Phi0 = np.eye(6)
    K1, logdet_ak = _shrunk_kernel(ctx, hyper, 0.01)
    assert_allclose(K1, dense_kernel(X, hyper), atol=1e-10)
    assert abs(logdet_ak) < 1e-10


def test_subspace_kernel_matches_direct_inverse():
    rng = np.random.default_rng(9)
    T = 12
    X = rng.standard_normal((T, 3))
    hyper = KernelHyper(0.75, 0.35)
    K = dense_kernel(X, hyper)
    Q = qr(X, mode="economic")[0]
    tau2 = 0.7
    direct = np.linalg.inv(np.linalg.inv(K) + (np.eye(T) - Q @ Q.T) / tau2)
    K1, logdet_ak = _shrunk_kernel(_ctx(X), hyper, tau2)
    assert_allclose(K1, direct, atol=1e-9)
    assert_allclose(logdet_ak - np.linalg.slogdet(K)[1], -np.linalg.slogdet(direct)[1],
                    rtol=1e-10)


def test_chol_psd_failure_modes():
    with pytest.raises(SingularKernelError):
        chol_psd(np.full((3, 3), np.nan))
    with pytest.raises(SingularKernelError):
        chol_psd(-np.eye(3))
    for bad in (np.nan, np.inf):  # one non-finite entry below the diagonal
        M = np.eye(3)
        M[2, 0] = bad
        with pytest.raises(SingularKernelError):
            chol_psd(M)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean factorization warns nothing
        c = chol_psd(np.eye(3))
    assert_allclose(np.tril(c[0]) @ np.tril(c[0]).T, np.eye(3), atol=1e-12)
    # rank-deficient PSD is singular: no jitter is added, the error names it
    with pytest.raises(SingularKernelError, match="^ones: "):
        chol_psd(np.ones((4, 4)), what="ones")


def test_chol_psd_is_scipy_cho_factor_bit_for_bit():
    """``chol_psd`` factors through one ``dpotrf`` call and returns
    exactly what scipy's ``cho_factor`` does, the untouched upper triangle
    included: the Linear mean block's draws do not depend on which of the
    two factors K."""
    rng = np.random.default_rng(14)
    X = rng.standard_normal((193, 28))
    K = _kernel(X, KernelHyper(0.6, 0.05))
    c, lower = chol_psd(K)
    want, want_lower = cho_factor(K, lower=True, check_finite=False)
    assert lower and want_lower
    assert c.dtype == want.dtype and np.array_equal(c, want)
    assert not np.array_equal(np.triu(c, 1), 0.0)


# ---------------------------------------------------------------------------
# latent-function full conditional (the engine's mean block)


def _toy_f_problem():
    X = np.array([[0.0], [2.0], [4.0]])
    s = np.array([0.3, 0.5, 0.2])
    y = np.array([0.4, -0.2, 0.9])
    return X, KernelHyper(0.9, 0.9), s, y


def test_sample_f_moments_match_dense_oracle():
    X, hyper, s, y = _toy_f_problem()
    K1 = dense_kernel(X, hyper)
    Minv = np.linalg.inv(K1 + np.diag(s))
    fbar_o = K1 @ Minv @ y
    Vbar_o = K1 - K1 @ Minv @ K1
    _, fbar, Vbar = engine_conditional("GP", X, y, s, hyper)
    assert_allclose(fbar, fbar_o, atol=1e-10)
    assert_allclose(Vbar, Vbar_o, atol=1e-10)


def test_sample_f_prior_mean_limit():
    # huge error variance pushes the conditional mean to the prior mean
    X, hyper, s, y = _toy_f_problem()
    _, fbar, _ = engine_conditional("GP", X, y, np.full(3, 1e12), hyper)
    assert np.max(np.abs(fbar)) < 1e-9


def test_sample_f_interpolation_limit():
    X, hyper, s, y = _toy_f_problem()
    _, fbar, _ = engine_conditional("GP", X, y, np.full(3, 1e-12), hyper)
    assert_allclose(fbar, y, atol=1e-5)


def test_sample_f_draw_distribution():
    X, hyper, s, y = _toy_f_problem()
    K1 = dense_kernel(X, hyper)
    Minv = np.linalg.inv(K1 + np.diag(s))
    fbar = K1 @ Minv @ y
    Vbar = K1 - K1 @ Minv @ K1
    ctx = engine_context("GP", X)
    post = me._conditional(ctx, hyper, y, s, None)
    rng = np.random.default_rng(5)
    sims = np.array([me._draw_f(ctx, post, rng) for _ in range(4000)])
    assert np.max(np.abs(sims.mean(axis=0) - fbar)) < 0.05
    assert np.max(np.abs(np.cov(sims.T) - Vbar)) < 0.05


# ---------------------------------------------------------------------------
# shrinkage-scale slice update


def _oracle_projector(X):
    Q = np.linalg.qr(X)[0]
    return Q @ Q.T


def test_tau2_chain_stationary_distribution():
    # the slice update leaves pi(zeta) ∝ zeta^(a-1) e^(-b zeta) (1+zeta)^(-1)
    # invariant (zeta = 1/tau2); compare a long chain against the
    # quadrature CDF of that density
    rng = np.random.default_rng(31)
    T, k = 20, 3
    X = rng.standard_normal((T, k))
    P = _oracle_projector(X)
    f = rng.standard_normal(T) * 0.8
    qf = float(f @ f - f @ (P @ f))
    shape = 0.5 + 0.5 * (T - k)
    rate = 0.5 * qf

    n = 100_000
    draws = np.empty(n)
    tau2 = 1.0
    r = np.random.default_rng(7)
    for i in range(n):
        tau2 = sample_tau2(f, P, tau2, r, k)
        draws[i] = 1.0 / tau2

    hi = stats.gamma.ppf(1 - 1e-12, shape, scale=1.0 / rate) * 2
    grid = np.linspace(1e-12, hi, 200_001)
    logp = (shape - 1) * np.log(grid) - rate * grid - np.log1p(grid)
    p = np.exp(logp - logp.max())
    cdf = np.concatenate(
        [[0.0], np.cumsum((p[1:] + p[:-1]) * 0.5 * np.diff(grid))]
    )
    cdf /= cdf[-1]
    qs = np.linspace(0.005, 0.995, 99)
    qgrid = np.interp(qs, cdf, grid)
    ecdf = np.searchsorted(np.sort(draws), qgrid) / n
    assert np.max(np.abs(ecdf - qs)) < 0.02


def test_tau2_degenerate_quadratic_form_warns():
    rng = np.random.default_rng(12)
    P = _oracle_projector(rng.standard_normal((10, 2)))
    f = P @ rng.standard_normal(10)  # exactly inside the subspace
    with pytest.warns(UserWarning, match="shrinkage subspace"):
        tau2 = sample_tau2(f, P, 1.0, np.random.default_rng(0), 2)
    assert np.isfinite(tau2) and tau2 > 0.0


def test_tau2_input_validation():
    rng = np.random.default_rng(13)
    P = _oracle_projector(rng.standard_normal((4, 2)))
    with pytest.raises(ValueError, match="exceed"):
        sample_tau2(np.ones(2), P, 1.0, rng, 2)
    f = rng.standard_normal(4)
    t = sample_tau2(f, P, 1.0, np.random.default_rng(1), 2)
    assert t > 0.0


# ---------------------------------------------------------------------------
# kernel hyperparameter random walk


def test_hyper_update_reports_loglik_of_returned_state():
    rng = np.random.default_rng(20)
    ll = lambda a, b: -3.0 * (a - 0.4) ** 2 - 2.0 * (b - 0.7) ** 2
    h = KernelHyper(0.5, 0.5)
    llc = ll(h.xi, h.phi)
    seen_accept = seen_reject = False
    for _ in range(200):
        h, accepted, llc = sample_kernel_hyper(h, ll, rng, step=0.8, loglik_current=llc)
        assert_allclose(llc, ll(h.xi, h.phi), atol=1e-12)
        seen_accept |= accepted
        seen_reject |= not accepted
    assert seen_accept and seen_reject


def test_hyper_chain_uniform_under_flat_likelihood():
    # flat log likelihood + U(0,1) priors: the chain's marginals must be
    # uniform on the unit interval
    flat = lambda a, b: 0.0
    h = KernelHyper(0.5, 0.5)
    rng = np.random.default_rng(11)
    ll = 0.0
    xs = np.empty(20_000)
    ps = np.empty(20_000)
    for i in range(20_000):
        h, _, ll = sample_kernel_hyper(h, flat, rng, step=1.5, loglik_current=ll)
        xs[i], ps[i] = h.xi, h.phi
    xs, ps = xs[1000:], ps[1000:]
    for draws in (xs, ps):
        assert abs(draws.mean() - 0.5) < 0.03
        for q in (0.25, 0.5, 0.75):
            assert abs(np.mean(draws <= q) - q) < 0.04


def test_hyper_chain_follows_likelihood_pull():
    ll = lambda a, b: 80.0 * (a + b)
    h = KernelHyper(0.5, 0.5)
    rng = np.random.default_rng(21)
    llc = ll(0.5, 0.5)
    tail = []
    for i in range(3000):
        h, _, llc = sample_kernel_hyper(h, ll, rng, step=1.0, loglik_current=llc)
        if i >= 2000:
            tail.append(h.xi)
    assert np.mean(tail) > 0.85


def test_adaptive_step_updates():
    s = AdaptiveStep(step=1.0, target=0.3, window=25)
    for _ in range(25):
        s.update(True)
    assert_allclose(s.step, np.exp(0.7), rtol=1e-12)
    for _ in range(25):
        s.update(False)
    assert_allclose(s.step, np.exp(0.7) * np.exp(-0.3), rtol=1e-12)
    s.freeze()
    frozen = s.step
    for _ in range(50):
        s.update(True)
    assert s.step == frozen


def test_adaptive_step_reaches_target_band():
    target_ll = lambda a, b: -8.0 * ((a - 0.3) ** 2 + (b - 0.6) ** 2)
    h = KernelHyper(0.5, 0.5)
    step = AdaptiveStep(step=0.3, target=0.3, window=25)
    rng = np.random.default_rng(17)
    ll = target_ll(0.5, 0.5)
    for _ in range(5000):
        h, a, ll = sample_kernel_hyper(h, target_ll, rng, step=step.step, loglik_current=ll)
        step.update(a)
    step.freeze()
    acc = 0
    for _ in range(4000):
        h, a, ll = sample_kernel_hyper(h, target_ll, rng, step=step.step, loglik_current=ll)
        acc += a
    assert 0.15 < acc / 4000 < 0.5


# ---------------------------------------------------------------------------
# prediction at the forecast origin (the mean block's origin moments)


def _predict(X, f, hyper, tau2, x_new, variant="Moderate"):
    """(mean, var) of f at x_new from the mean block's ``origin_moments``:
    GP without tau2, GPSub with it."""
    mean_kind = "GP" if tau2 is None else "GPSub"
    data = me.WindowData(y=np.zeros(len(X)), X=X, x_new=x_new, horizon=1)
    ctx = me._GpContext(_spec(mean_kind, variant), data)
    return ctx.origin_moments(hyper, f, None if tau2 is None else 1.0 / tau2)


def _dense_predict(X, f, hyper, tau2, x_new, Ba):
    """Oracle: condition the last coordinate of the (T+1)-point prior
    K1a = (Ka^-1 + (I - Phi_a)/tau2)^-1 on the first T, by plain inverses;
    Phi_a projects onto the augmented basis Ba. tau2 None: K1a = Ka (GP)."""
    T = X.shape[0]
    Ka = dense_kernel(np.vstack([X, x_new]), hyper)
    K1a = Ka
    if tau2 is not None:
        Q = qr(Ba, mode="economic")[0]
        K1a = np.linalg.inv(np.linalg.inv(Ka) + (np.eye(T + 1) - Q @ Q.T) / tau2)
    mean = K1a[:T, T] @ np.linalg.solve(K1a[:T, :T], f)
    var = K1a[T, T] - K1a[:T, T] @ np.linalg.solve(K1a[:T, :T], K1a[:T, T])
    return mean, var


def test_gp_predict_interpolates_training_point():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((6, 2))
    f = rng.standard_normal(6)
    mean, var = _predict(X, f, KernelHyper(0.8, 0.5), None, X[2])
    assert_allclose(mean, f[2], atol=1e-7)
    assert var < 1e-7


def test_gp_predict_matches_dense_conditional():
    rng = np.random.default_rng(31)
    T = 10
    X = rng.standard_normal((T, 3))
    f = rng.standard_normal(T)
    x_new = rng.standard_normal(3)
    hyp = KernelHyper(0.7, 0.3)
    tau2 = 0.7
    mean_o, var_o = _dense_predict(X, f, hyp, tau2, x_new, np.vstack([X, x_new]))
    mean, var = _predict(X, f, hyp, tau2, x_new)
    assert_allclose(mean, mean_o, atol=1e-10)
    assert_allclose(var, var_o, atol=1e-10)


def test_gp_predict_no_shrinkage_matches_dense_conditional():
    rng = np.random.default_rng(32)
    T = 10
    X = rng.standard_normal((T, 3))
    f = rng.standard_normal(T)
    x_new = rng.standard_normal(3)
    hyp = KernelHyper(0.6, 0.4)
    Ka = dense_kernel(np.vstack([X, x_new]), hyp)
    mean_o = Ka[:T, T] @ np.linalg.solve(Ka[:T, :T], f)
    var_o = Ka[T, T] - Ka[:T, T] @ np.linalg.solve(Ka[:T, :T], Ka[:T, T])
    mean, var = _predict(X, f, hyp, None, x_new)
    assert_allclose(mean, mean_o, atol=1e-10)
    assert_allclose(var, var_o, atol=1e-10)


def test_gp_predict_large_variant_shrinks_toward_pc_basis():
    """Large: the shrinkage target at the origin is the PC-score basis
    augmented with the origin row's scores under the window's loadings."""
    rng = np.random.default_rng(35)
    T, K = 20, 8
    X = rng.standard_normal((T, K))
    f = rng.standard_normal(T)
    x_new = rng.standard_normal(K)
    hyp = KernelHyper(0.7, 0.3)
    V = np.linalg.svd(X, full_matrices=False)[2][:PC_BASIS_RANK].T
    Ba = np.vstack([X @ V, x_new @ V])
    mean_o, var_o = _dense_predict(X, f, hyp, 0.7, x_new, Ba)
    mean, var = _predict(X, f, hyp, 0.7, x_new, variant="Large")
    assert_allclose(mean, mean_o, atol=1e-10)
    assert_allclose(var, var_o, atol=1e-10)
    assert abs(mean - _predict(X, f, hyp, 0.7, x_new)[0]) > 1e-3


def test_gp_predict_tiny_tau2_hits_regression_plane():
    # when the latent values lie in the basis span and the shrinkage scale
    # vanishes, prediction collapses onto the linear fit
    rng = np.random.default_rng(31)
    T, K = 30, 3
    X = rng.standard_normal((T, K))
    beta = np.array([1.2, -0.7, 0.4])
    x_new = rng.standard_normal(K)
    mean, var = _predict(X, X @ beta, KernelHyper(0.6, 0.4), 1e-8, x_new)
    assert_allclose(mean, x_new @ beta, rtol=1e-3)
    assert var < 1e-6


def test_gp_predict_large_tau2_matches_unshrunk():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((8, 2))
    f = rng.standard_normal(8)
    x_new = rng.standard_normal(2)
    hyp = KernelHyper(0.5, 0.5)
    m0, v0 = _predict(X, f, hyp, None, x_new)
    m1, v1 = _predict(X, f, hyp, 1e10, x_new)
    assert_allclose(m1, m0, atol=1e-4)
    assert_allclose(v1, v0, atol=1e-4)


@pytest.mark.filterwarnings("ignore:inefficiency factor on a trace shorter")
@pytest.mark.parametrize("mean_kind", ["GP", "GPSub"])
def test_chain_origin_moments_match_dense_oracle(mean_kind):
    """Each retained draw's recorded origin moments are the dense conditional
    at that draw's f, hyperparameter and tau^2: the chain reads the slot of
    the current hyperparameter, not a rejected proposal's, and the tau^2
    left by the sweep's last move."""
    rng = np.random.default_rng(41)
    T = 30
    X = 2.0 * rng.standard_normal((T, 2))
    y = np.sin(X[:, 0]) + 0.3 * rng.standard_normal(T)
    x_new = rng.standard_normal(2)
    data = me.WindowData(y=y, X=X, x_new=x_new, horizon=1)
    draws, f = run_chain_recording_f(_spec(mean_kind), data,
                                     me.McmcConfig(n_iter=90, n_burn=30), 6)
    s = draws.scalars
    moved = np.flatnonzero(np.diff(s["xi"]) != 0.0)
    assert 0 < moved.size < draws.n_retained - 1  # accepted and rejected proposals
    if mean_kind == "GPSub":
        assert np.all(np.diff(s["tau2"]) != 0.0)
    Ba = np.vstack([X, x_new])
    for i in range(draws.n_retained):
        hyper = KernelHyper(s["xi"][i], s["phi"][i])
        tau2 = s["tau2"][i] if mean_kind == "GPSub" else None
        mean_o, var_o = _dense_predict(X, f[i], hyper, tau2, x_new, Ba)
        assert_allclose(draws.origin_mean[i], mean_o, rtol=1e-10, atol=1e-10)
        assert_allclose(draws.origin_var[i], var_o, rtol=1e-10, atol=1e-10)
