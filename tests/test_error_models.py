"""Tests for the error-term machinery: stick-breaking mixture updates,
slice sampling, stochastic volatility, and predictive plumbing."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import digamma

import bnpforecast.error_models as em
import bnpforecast.model_engine as me
from bnpforecast.data_pipeline import DatasetSpec, ModelSpec
from bnpforecast.error_models import (
    ERROR_KINDS,
    KAPPA,
    LOG_RESID_FLOOR,
    TRUNCATION_CAP,
    DpmPriors,
    DpmState,
    ErrorState,
    SvPriors,
    SvState,
    _SV_M,
    _SV_P,
    _SV_V,
    _beta_logpdf,
    _gig_rvs,
    _sv_ffbs,
    _sv_indicators,
    _truncnorm_rvs,
    error_mean_offsets,
    error_sweep,
    error_variance_diag,
    ffbs,
    init_error_state,
    sample_alpha,
    sample_component_means,
    sample_component_vars,
    sample_homosk_var,
    sample_slice_and_alloc,
    sample_sticks,
    slice_sequence,
    stick_beta_params,
    stick_to_weights,
    sv_update,
    truncation_level,
    update_truncation,
)

from conftest import mixture_density


def _iact(x, L=200):
    """Bartlett-windowed integrated autocorrelation time."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    n = x.size
    acf = np.correlate(x, x, "full")[n - 1 : n + L]
    acf = acf / acf[0]
    return 1.0 + 2.0 * float(np.sum((1.0 - np.arange(1, L + 1) / n) * acf[1:]))


# ---------------------------------------------------------------------------
# constants and priors


def test_frozen_constants():
    assert KAPPA == 0.8
    assert TRUNCATION_CAP == 100
    assert LOG_RESID_FLOOR == 1e-6
    assert ERROR_KINDS == ("Homosk", "DPM", "SV", "DPMSV")


def test_prior_defaults():
    d = DpmPriors()
    assert (d.mean_var, d.prec_shape, d.prec_rate) == (4.0, 10.0, 5.0)
    assert (d.alpha_shape, d.alpha_rate) == (2.0, 4.0)
    # precision prior has mean 2 and variance 0.4
    assert d.prec_shape / d.prec_rate == 2.0
    assert d.prec_shape / d.prec_rate**2 == pytest.approx(0.4)
    s = SvPriors()
    assert (s.mu_var, s.rho_a, s.rho_b) == (10.0, 25.0, 5.0)
    assert (s.sig_shape, s.sig_rate) == (0.5, 0.5)


def test_log_chi2_mixture_moments():
    # the 10-component approximation must reproduce the exact moments of
    # log chi^2_1: mean psi(1/2) + log 2, variance pi^2/2
    assert_allclose(_SV_P.sum(), 1.0, atol=1e-12)
    mean = float(_SV_P @ _SV_M)
    var = float(_SV_P @ (_SV_V + _SV_M**2) - mean**2)
    assert_allclose(mean, digamma(0.5) + math.log(2.0), atol=0.01)
    assert_allclose(var, math.pi**2 / 2.0, atol=0.01)


# ---------------------------------------------------------------------------
# sticks and weights


def test_slice_sequence_values():
    assert_allclose(
        slice_sequence(5), [0.2, 0.16, 0.128, 0.1024, 0.08192], rtol=1e-14
    )
    assert_allclose(slice_sequence(30).sum(), 1.0 - 0.8**30, rtol=1e-12)


def test_stick_to_weights_examples():
    assert_allclose(stick_to_weights(np.array([1.0])), [1.0])
    assert_allclose(
        stick_to_weights(np.array([0.5, 0.5, 1.0])), [0.5, 0.25, 0.25]
    )


def test_stick_to_weights_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        J = rng.integers(1, 12)
        sticks = rng.uniform(1e-6, 1.0 - 1e-6, J)
        sticks[-1] = 1.0
        w = stick_to_weights(sticks)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0.0)


def test_stick_beta_params():
    alloc = np.repeat([0, 1], [3, 2])
    a, b = stick_beta_params(alloc, 2.0, 3)
    assert_allclose(a, [4.0, 3.0, 1.0])
    assert_allclose(b, [4.0, 2.0, 2.0])


def test_sample_sticks_prior_when_empty():
    rng = np.random.default_rng(1)
    draws = np.array(
        [sample_sticks(np.array([], dtype=int), 2.0, 3, rng)[0] for _ in range(10_000)]
    )
    ks = stats.kstest(draws, lambda x: stats.beta.cdf(x, 1.0, 2.0))
    assert ks.statistic < 0.02


def test_sample_sticks_mean_oracle():
    # counts (3,2,0), alpha=2: first stick ~ Beta(4,4), mean 1/2
    alloc = np.repeat([0, 1], [3, 2])
    rng = np.random.default_rng(2)
    m = np.mean([sample_sticks(alloc, 2.0, 3, rng)[0] for _ in range(100_000)])
    assert abs(m - 0.5) < 0.005
    s = sample_sticks(alloc, 2.0, 3, rng)
    assert s[-1] == 1.0


# ---------------------------------------------------------------------------
# slice sampling and allocation


def _fixed_three_comp(T, alloc_at=2, alpha=0.001):
    sticks = np.array([0.45, 0.55, 1.0])
    return DpmState(
        sticks=sticks,
        weights=stick_to_weights(sticks),
        alloc=np.full(T, alloc_at, dtype=int),
        slice_u=np.full(T, 0.05),
        comp_mean=np.array([-1.5, 0.3, 2.0]),
        comp_var=np.array([0.4, 0.9, 0.25]),
        alpha=alpha,
    )


def test_allocation_frequencies_match_enumeration():
    # all observations start in the last component, so u < pi_3 and every
    # component stays reachable: the allocation mass is exactly
    # (w_j / pi_j) N(eps; mu_j, sigma2_j). A tiny alpha makes the weight
    # perturbation from transient truncation growth negligible.
    resid = np.array([-1.0, 1.4])
    base = _fixed_three_comp(resid.size)
    pw = slice_sequence(3)
    dev = resid[:, None] - base.comp_mean[None, :]
    mass = (base.weights / pw)[None, :] * np.exp(
        -0.5 * dev**2 / base.comp_var[None, :]
    ) / np.sqrt(base.comp_var[None, :])
    p_oracle = mass / mass.sum(axis=1, keepdims=True)

    n = 40_000
    rng = np.random.default_rng(99)
    counts = np.zeros((resid.size, 3))
    for _ in range(n):
        st = dataclasses.replace(
            base,
            sticks=base.sticks.copy(),
            weights=base.weights.copy(),
            alloc=base.alloc.copy(),
            comp_mean=base.comp_mean.copy(),
            comp_var=base.comp_var.copy(),
        )
        out = sample_slice_and_alloc(resid, st, rng)
        for t in range(resid.size):
            if out.alloc[t] < 3:
                counts[t, out.alloc[t]] += 1
    assert np.max(np.abs(counts / n - p_oracle)) < 0.01


def test_single_component_keeps_allocation():
    rng = np.random.default_rng(3)
    resid = np.array([0.1, -0.2, 0.05])
    moved = 0
    for _ in range(2000):
        state = init_error_state("DPM", resid.size, 1.0)
        state.dpm.alpha = 1e-4  # grown components carry ~zero weight
        out = sample_slice_and_alloc(resid, state.dpm, rng)
        moved += int(np.any(out.alloc != 0))
    assert moved / 2000 < 0.01


def test_allocation_prefers_likely_component():
    # equal weights and variances, residual at the first mean
    sticks = np.array([0.5, 1.0])
    state = DpmState(
        sticks=sticks,
        weights=stick_to_weights(sticks),
        alloc=np.array([1]),
        slice_u=np.array([0.05]),
        comp_mean=np.array([0.0, 3.0]),
        comp_var=np.array([1.0, 1.0]),
        alpha=0.001,
    )
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(2000):
        st = dataclasses.replace(state, alloc=state.alloc.copy())
        hits += int(sample_slice_and_alloc(np.array([0.0]), st, rng).alloc[0] == 0)
    assert hits / 2000 > 0.9


def test_allocation_growth_covers_slices():
    rng = np.random.default_rng(5)
    state = init_error_state("DPM", 30, 1.0)
    resid = rng.standard_normal(30)
    out = sample_slice_and_alloc(resid, state.dpm, rng)
    # every reachable component exists: pi_{J+1} <= min u (unless capped)
    if out.J < TRUNCATION_CAP:
        assert (1.0 - KAPPA) * KAPPA ** out.J <= out.slice_u.min()
    assert out.alloc.min() >= 0 and out.alloc.max() < out.J
    assert np.all(out.slice_u > 0.0)


def test_allocation_underflow_fallback_warns():
    state = _fixed_three_comp(1)
    with pytest.warns(UserWarning, match="underflow"):
        out = sample_slice_and_alloc(
            np.array([1e200]), state, np.random.default_rng(6)
        )
    assert 0 <= out.alloc[0] < out.J


# ---------------------------------------------------------------------------
# truncation level


def test_truncation_level_cases():
    w = np.array([0.6, 0.3, 0.1])
    assert truncation_level(w, np.array([0.9])) == 1
    assert truncation_level(w, np.array([0.15])) == 2
    assert truncation_level(w, np.array([0.05])) == 3
    # tail must fall below the smallest slice across observations
    assert truncation_level(w, np.array([0.9, 0.15])) == 2
    w20 = np.full(20, 0.05)
    assert truncation_level(w20, np.array([0.01])) == 20


def test_truncation_level_matches_sequential_oracle():
    rng = np.random.default_rng(7)
    got = np.empty(3000)
    want = np.empty(3000)
    exact = 0
    for i in range(3000):
        sticks = rng.beta(1.0, 1.0, size=60)
        sticks[-1] = 1.0
        w = stick_to_weights(sticks)
        u = rng.uniform(0.0, 1.0, size=10)
        got[i] = truncation_level(w, u)
        acc = 0.0
        min_u = u.min()
        for j in range(60):
            acc += w[j]
            if 1.0 - acc < min_u:
                want[i] = j + 1
                break
        exact += got[i] == want[i]
    assert exact / 3000 > 0.99
    assert abs(got.mean() / want.mean() - 1.0) < 0.05


def test_update_truncation_shrinks_to_occupied():
    sticks = np.array([0.7, 0.5, 0.5, 0.5, 1.0])
    state = DpmState(
        sticks=sticks,
        weights=stick_to_weights(sticks),
        alloc=np.array([0, 2, 1]),
        slice_u=np.array([0.5, 0.5, 0.5]),
        comp_mean=np.zeros(5),
        comp_var=np.ones(5),
        alpha=0.5,
    )
    out = update_truncation(state, np.random.default_rng(8))
    assert out.J == 3  # weight rule says 1, occupancy forces 3
    assert out.sticks[-1] == 1.0
    assert_allclose(out.weights.sum(), 1.0, atol=1e-12)
    out.validate()


def test_update_truncation_cap_warns(monkeypatch):
    monkeypatch.setattr(em, "TRUNCATION_CAP", 35)
    sticks = np.concatenate([np.full(39, 0.01), [1.0]])
    state = DpmState(
        sticks=sticks,
        weights=stick_to_weights(sticks),
        alloc=np.zeros(4, dtype=int),
        slice_u=np.full(4, 1e-9),
        comp_mean=np.zeros(40),
        comp_var=np.ones(40),
        alpha=0.5,
    )
    with pytest.warns(UserWarning, match="capped"):
        out = update_truncation(state, np.random.default_rng(9))
    assert out.J == 35


# ---------------------------------------------------------------------------
# concentration parameter


def test_alpha_zero_step_always_accepts():
    sticks = np.array([0.3, 0.4, 1.0])
    alpha, accepted = sample_alpha(sticks, 0.7, np.random.default_rng(10), step=0.0)
    assert accepted and alpha == 0.7


def test_alpha_shifts_down_for_large_sticks():
    # sticks near one mean few clusters, pulling alpha below its prior mean
    sticks = np.array([0.999, 0.999, 0.999, 1.0])
    rng = np.random.default_rng(11)
    alpha = 0.5
    draws = []
    for _ in range(3000):
        alpha, _ = sample_alpha(sticks, alpha, rng)
        draws.append(alpha)
    assert np.mean(draws[500:]) < 0.4


def test_alpha_chain_matches_quadrature_oracle():
    # stationary density ∝ alpha^(n+a0) e^(-b0 alpha) (1-s_j)^alpha terms,
    # transformed back from the log scale; integrate it numerically
    sticks = np.array([0.6, 0.3, 0.5, 1.0])
    L = float(np.sum(np.log1p(-sticks[:-1])))
    rng = np.random.default_rng(3)
    alpha = 0.5
    draws = np.empty(50_000)
    for i in range(50_000):
        alpha, _ = sample_alpha(sticks, alpha, rng)
        draws[i] = alpha

    grid = np.linspace(1e-9, 12.0, 200_001)
    logp = (3.0 + 2.0 - 1.0) * np.log(grid) + grid * L - 4.0 * grid
    p = np.exp(logp - logp.max())
    cdf = np.concatenate([[0.0], np.cumsum((p[1:] + p[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    qs = np.linspace(0.01, 0.99, 99)
    qgrid = np.interp(qs, cdf, grid)
    ecdf = np.searchsorted(np.sort(draws), qgrid) / draws.size
    assert np.max(np.abs(ecdf - qs)) < 0.03


# ---------------------------------------------------------------------------
# conjugate component updates


def test_component_mean_posterior_moments():
    # one observation eps=2 with sigma2=1, prior variance 4:
    # posterior N(1.6, 0.8)
    state = DpmState(
        sticks=np.array([1.0]),
        weights=np.array([1.0]),
        alloc=np.array([0]),
        slice_u=np.array([0.1]),
        comp_mean=np.array([0.0]),
        comp_var=np.array([1.0]),
        alpha=0.5,
    )
    rng = np.random.default_rng(12)
    draws = np.array(
        [sample_component_means(np.array([2.0]), state, rng)[0] for _ in range(15_000)]
    )
    assert abs(draws.mean() - 1.6) < 0.05
    assert abs(draws.std() - math.sqrt(0.8)) < 0.05


def test_component_mean_empty_component_draws_prior():
    state = DpmState(
        sticks=np.array([0.5, 1.0]),
        weights=np.array([0.5, 0.5]),
        alloc=np.array([0, 0]),
        slice_u=np.array([0.1, 0.1]),
        comp_mean=np.zeros(2),
        comp_var=np.ones(2),
        alpha=0.5,
    )
    rng = np.random.default_rng(13)
    resid = np.array([0.5, -0.5])
    draws = np.array(
        [sample_component_means(resid, state, rng)[1] for _ in range(15_000)]
    )
    assert abs(draws.mean()) < 0.1
    assert abs(draws.std() - 2.0) < 0.1


def test_component_mean_sv_weighting():
    # hybrid kind: per-observation variances weight the sufficient stats
    state = DpmState(
        sticks=np.array([1.0]),
        weights=np.array([1.0]),
        alloc=np.array([0, 0, 0]),
        slice_u=np.full(3, 0.1),
        comp_mean=np.array([0.0]),
        comp_var=None,
        alpha=0.5,
    )
    resid = np.array([1.0, 2.0, -0.5])
    sv_var = np.array([0.5, 2.0, 1.0])
    prec = np.sum(1.0 / sv_var) + 0.25
    mean = np.sum(resid / sv_var) / prec
    rng = np.random.default_rng(14)
    draws = np.array(
        [
            sample_component_means(resid, state, rng, sv_var=sv_var)[0]
            for _ in range(15_000)
        ]
    )
    assert abs(draws.mean() - mean) < 0.04
    assert abs(draws.std() - math.sqrt(1.0 / prec)) < 0.04


def test_component_var_posterior_distribution():
    # one observation with squared deviation 4: InvGamma(10.5, 7)
    state = DpmState(
        sticks=np.array([1.0]),
        weights=np.array([1.0]),
        alloc=np.array([0]),
        slice_u=np.array([0.1]),
        comp_mean=np.array([1.0]),
        comp_var=np.array([1.0]),
        alpha=0.5,
    )
    rng = np.random.default_rng(15)
    draws = np.array(
        [sample_component_vars(np.array([3.0]), state, rng)[0] for _ in range(5000)]
    )
    ks = stats.kstest(draws, lambda x: stats.invgamma.cdf(x, 10.5, scale=7.0))
    assert ks.statistic < 0.03


def test_component_var_empty_component_draws_prior():
    state = DpmState(
        sticks=np.array([0.5, 1.0]),
        weights=np.array([0.5, 0.5]),
        alloc=np.array([0]),
        slice_u=np.array([0.1]),
        comp_mean=np.zeros(2),
        comp_var=np.ones(2),
        alpha=0.5,
    )
    rng = np.random.default_rng(16)
    draws = np.array(
        [sample_component_vars(np.array([0.3]), state, rng)[1] for _ in range(5000)]
    )
    prec = 1.0 / draws
    assert abs(prec.mean() - 2.0) < 0.05
    assert abs(prec.var() - 0.4) < 0.05


def test_homosk_var_posterior_distribution():
    rng = np.random.default_rng(17)
    resid = np.array([0.5, -1.0, 0.2, 1.5])
    a = 3.0 + 2.0
    b = 3.0 + 0.5 * float(resid @ resid)
    draws = np.array(
        [sample_homosk_var(resid, (3.0, 3.0), rng) for _ in range(5000)]
    )
    ks = stats.kstest(draws, lambda x: stats.invgamma.cdf(x, a, scale=b))
    assert ks.statistic < 0.03


# ---------------------------------------------------------------------------
# stochastic volatility


def test_sv_scale_equivariance():
    # scaling residuals by c shifts the sampled log-variance path by
    # exactly 2 ln c when the AR mean moves with it: the same indicators,
    # and an FFBS path equivariant in the observations, the initial mean
    # and the AR mean together
    rng = np.random.default_rng(18)
    resid = rng.standard_normal(40) + np.sign(rng.standard_normal(40)) * 0.05
    c = 3.0
    shift = 2.0 * math.log(c)
    mu, rho, q = 0.0, 0.6, 0.2
    paths = []
    for scale, level in ((1.0, 0.0), (c, shift)):
        gen = np.random.default_rng(77)
        ystar = np.log(np.maximum((scale * resid) ** 2, LOG_RESID_FLOOR))
        s = _sv_indicators(ystar, np.full(40, level), gen)
        paths.append(ffbs(ystar - _SV_M[s], _SV_V[s], mu + level, q / (1.0 - rho * rho),
                          mu + level, rho, q, gen))
    assert_allclose(paths[1] - paths[0], shift, atol=1e-10)


def test_ffbs_sequential_density_matches_dense_posterior():
    # the backward-sampling factorization and the dense joint Gaussian
    # must assign the same log density to the sampled path
    rng = np.random.default_rng(8)
    T = 4
    mu_h, rho, q = -0.5, 0.8, 0.3
    s_idx = np.array([2, 5, 7, 4])
    ystar = rng.normal(-1.0, 1.5, T)
    twin = copy.deepcopy(rng)
    h, bm, bv = _sv_ffbs_numpy(ystar, s_idx, mu_h, rho, q, rng)
    assert np.array_equal(_sv_ffbs(ystar, s_idx, mu_h, rho, q, twin), h)

    lags = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
    Sp = q / (1.0 - rho**2) * rho**lags
    obs = ystar - _SV_M[s_idx]
    vobs = _SV_V[s_idx]
    Lam = np.linalg.inv(Sp) + np.diag(1.0 / vobs)
    cov = np.linalg.inv(Lam)
    mean = cov @ (np.linalg.inv(Sp) @ np.full(T, mu_h) + obs / vobs)

    dense = stats.multivariate_normal.logpdf(h, mean, cov)
    seq = stats.norm.logpdf(h[-1], bm[-1], math.sqrt(bv[-1])) + sum(
        stats.norm.logpdf(h[t], bm[t], math.sqrt(bv[t])) for t in range(T - 1)
    )
    assert_allclose(seq, dense, atol=1e-8)
    # the last filtered moments are the marginal posterior at T-1
    assert_allclose(bm[-1], mean[-1], atol=1e-10)
    assert_allclose(bv[-1], cov[-1, -1], atol=1e-10)


def _sv_ffbs_numpy(ystar, s, mu, rho, q, rng):
    """The FFBS recursions on numpy float64 scalars, as first written for the
    log-variance path: the oracle for the Python-float loops of ``ffbs``
    that ``_sv_ffbs`` runs, returning the path and its backward moments."""
    T = ystar.size
    obs = ystar - _SV_M[s]
    v = _SV_V[s]
    m = np.empty(T)
    C = np.empty(T)
    a = mu
    R = q / (1.0 - rho * rho)
    for t in range(T):
        if t > 0:
            a = mu + rho * (m[t - 1] - mu)
            R = rho * rho * C[t - 1] + q
        gain = R / (R + v[t])
        m[t] = a + gain * (obs[t] - a)
        C[t] = (1.0 - gain) * R
    h = np.empty(T)
    z = rng.standard_normal(T)
    h[-1] = m[-1] + math.sqrt(max(C[-1], 0.0)) * z[-1]
    back_mean = np.empty(T)
    back_var = np.empty(T)
    back_mean[-1], back_var[-1] = m[-1], C[-1]
    for t in range(T - 2, -1, -1):
        prec = 1.0 / C[t] + rho * rho / q
        var = 1.0 / prec
        mean = var * (m[t] / C[t] + rho * (h[t + 1] - mu * (1.0 - rho)) / q)
        h[t] = mean + math.sqrt(var) * z[t]
        back_mean[t], back_var[t] = mean, var
    return h, back_mean, back_var


@pytest.mark.parametrize("T", [1, 2, 5, 97])
@pytest.mark.parametrize("q", [1e-14, 0.05])
def test_sv_ffbs_equals_numpy_scalar_oracle(T, q):
    rng = np.random.default_rng(T)
    ystar = np.log(rng.standard_normal(T) ** 2 + LOG_RESID_FLOOR)
    s = rng.integers(0, _SV_M.size, T)
    mu, rho = np.float64(-0.7), 0.93
    want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
    want = _sv_ffbs_numpy(ystar, s, mu, rho, q, want_rng)
    got = _sv_ffbs(ystar, s, mu, rho, q, got_rng)
    assert np.array_equal(got, want[0])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_ffbs_draw_moments():
    rng = np.random.default_rng(8)
    T = 4
    mu_h, rho, q = -0.5, 0.8, 0.3
    s_idx = np.array([2, 5, 7, 4])
    ystar = rng.normal(-1.0, 1.5, T)
    lags = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
    Sp = q / (1.0 - rho**2) * rho**lags
    obs = ystar - _SV_M[s_idx]
    vobs = _SV_V[s_idx]
    cov = np.linalg.inv(np.linalg.inv(Sp) + np.diag(1.0 / vobs))
    mean = cov @ (np.linalg.inv(Sp) @ np.full(T, mu_h) + obs / vobs)
    r = np.random.default_rng(5)
    sims = np.array([_sv_ffbs(ystar, s_idx, mu_h, rho, q, r) for _ in range(20_000)])
    assert np.max(np.abs(sims.mean(axis=0) - mean)) < 0.03
    assert np.max(np.abs(np.cov(sims.T) - cov)) < 0.03


def test_sv_recovers_constant_volatility():
    rng = np.random.default_rng(7)
    T = 500
    eps = 0.7 * rng.standard_normal(T)
    sv = init_error_state("SV", T, float(np.var(eps))).sv
    chain = np.random.default_rng(1007)
    acc = np.zeros(T)
    kept = 0
    for it in range(3000):
        sv = sv_update(eps, sv, chain)
        if it >= 1000:
            acc += np.exp(0.5 * sv.h)
            kept += 1
    sd_post = acc / kept
    assert np.max(np.abs(sd_post / 0.7 - 1.0)) < 0.15


def test_sv_recovers_persistence():
    rng = np.random.default_rng(101)
    T = 500
    h_true = np.empty(T)
    h_true[0] = -1.0
    for t in range(1, T):
        h_true[t] = -1.0 + 0.95 * (h_true[t - 1] + 1.0) + math.sqrt(0.2) * rng.standard_normal()
    eps = np.exp(0.5 * h_true) * rng.standard_normal(T)
    sv = init_error_state("SV", T, float(np.var(eps))).sv
    chain = np.random.default_rng(1101)
    rhos = []
    for it in range(4000):
        sv = sv_update(eps, sv, chain)
        if it >= 1500:
            rhos.append(sv.rho_h)
    assert 0.90 <= np.mean(rhos) < 1.0


# ---------------------------------------------------------------------------
# AR(1) parameter samplers: draw-for-draw parity with scipy.stats


def _twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def test_truncnorm_matches_scipy_stream():
    # (mean, sd) of the rho_h proposal as _sv_params forms it; the grid puts
    # the mean inside, at and beyond +-1 with tiny to huge sd, so the
    # interval (lo, hi) sits in the left tail, the right tail, across zero,
    # and is narrow in standard units when sd is large. lo = 0 exactly takes
    # scipy's right-tail inverse with the central mass formula.
    cases = [(0.0, 2.5, 0.1, 0.2)]
    for mean_l in (-3.0, -1.2, -1.0, -0.999999, -0.5, 0.0, 0.4, 0.98, 0.999999, 1.0, 1.5, 6.0):
        for sd_l in (1e-7, 1e-3, 0.05, 0.3, 2.0, 40.0):
            cases.append(((-1.0 + 1e-6 - mean_l) / sd_l, (1.0 - 1e-6 - mean_l) / sd_l,
                          mean_l, sd_l))
    mass_cases, ppf_sides = set(), set()
    for lo, hi, loc, scale in cases:
        mass_cases.add("left" if hi <= 0 else "right" if lo > 0 else "central")
        ppf_sides.add(lo < 0)
        for seed in range(3):
            r_ref, r_port = _twin_generators(1000 * seed + 7)
            ref = float(stats.truncnorm.rvs(lo, hi, loc=loc, scale=scale, random_state=r_ref))
            assert _truncnorm_rvs(lo, hi, loc, scale, r_port) == ref, (lo, hi, loc, scale)
            assert r_port.bit_generator.state == r_ref.bit_generator.state
    assert mass_cases == {"left", "right", "central"}
    assert ppf_sides == {True, False}
    with pytest.raises(ValueError, match="lo < hi"):
        _truncnorm_rvs(1.0, 1.0, 0.0, 1.0, r_port)


def test_beta_logpdf_matches_scipy():
    priors = SvPriors()
    rhos = np.concatenate([np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 2001), [2.0 / 3.0]])
    for r in rhos:
        x = (float(r) + 1.0) / 2.0
        assert _beta_logpdf(x, priors.rho_a, priors.rho_b) == float(
            stats.beta.logpdf(x, priors.rho_a, priors.rho_b))


@pytest.mark.parametrize("T", [4, 40, 194])
def test_gig_matches_scipy_stream(T):
    # sig2_h | h ~ GIG as _sv_params parameterizes it, over sums of squared
    # innovations S from near-degenerate to very dispersed
    priors = SvPriors()
    psi = 2.0 * priors.sig_rate
    p = priors.sig_shape - 0.5 * T
    for S in np.geomspace(1e-4, 1e4, 33):
        S = float(S)
        b = math.sqrt(S * psi)
        scale = math.sqrt(S / psi)
        r_ref, r_port = _twin_generators(int(S * 1e4) % 9973 + T)
        for _ in range(5):
            ref = float(stats.geninvgauss.rvs(p, b, scale=scale, random_state=r_ref))
            assert _gig_rvs(p, b, scale, r_port) == ref, (T, S)
        assert r_port.bit_generator.state == r_ref.bit_generator.state


def test_gig_small_p_needs_b_above_one():
    # |p| < 1 (T = 2) still uses the mode-shift method when b > 1 ...
    r_ref, r_port = _twin_generators(11)
    for b in (1.5, 4.0, 30.0):
        ref = float(stats.geninvgauss.rvs(-0.5, b, scale=b, random_state=r_ref))
        assert _gig_rvs(-0.5, b, b, r_port) == ref
    # ... and the methods for |p| < 1 with b <= 1 are not carried
    with pytest.raises(ValueError, match=r"\|p\| >= 1 or b > 1"):
        _gig_rvs(-0.5, 0.8, 1.0, r_port)
    with pytest.raises(ValueError, match="b > 0"):
        _gig_rvs(-3.0, 0.0, 1.0, r_port)


# ---------------------------------------------------------------------------
# state plumbing and predictive draws


def test_error_variance_diag_cases():
    homo = ErrorState(kind="Homosk", sigma2=1.0, sigma2_prior=(3.0, 3.0))
    assert_allclose(error_variance_diag(homo, 3), np.ones(3))

    dpm = init_error_state("DPM", 3, 1.0)
    dpm.dpm = dataclasses.replace(
        dpm.dpm,
        sticks=np.array([0.5, 1.0]),
        weights=np.array([0.5, 0.5]),
        alloc=np.array([0, 1, 0]),
        comp_mean=np.array([0.1, -0.2]),
        comp_var=np.array([1.0, 4.0]),
    )
    assert_allclose(error_variance_diag(dpm, 3), [1.0, 4.0, 1.0])
    assert_allclose(error_mean_offsets(dpm, 3), [0.1, -0.2, 0.1])

    hyb = init_error_state("DPMSV", 3, 1.0)
    hyb.sv.h = np.array([0.0, 1.0, -1.0])
    assert_allclose(error_variance_diag(hyb, 3), np.exp([0.0, 1.0, -1.0]))

    sv = init_error_state("SV", 3, 1.0)
    assert_allclose(error_mean_offsets(sv, 3), np.zeros(3))


# ---------------------------------------------------------------------------
# error predictive at the forecast origin (the engine's per-draw mixture)


def _predictive_mixture(error_kind, scalars, h, rng, weights=None, means=None,
                        variances=None):
    """(weights, offsets, variances) of the error predictive h steps ahead
    from retained draw 0, as ``predictive_simulate`` takes them."""
    ds = DatasetSpec("Moderate", "PRICE", h, False)
    spec = ModelSpec("UC", error_kind, ds)
    window = me.WindowData(y=np.zeros(5), X=None, x_new=None, horizon=h)
    draws = me.PosteriorDraws(
        spec=spec, window=window, scalars={k: np.atleast_1d(v) for k, v in scalars.items()},
        origin_mean=np.zeros(1), origin_var=np.zeros(1),
        err_weights=weights, err_means=means, err_vars=variances,
        ifs={}, accept={}, runtime=0.0, n_retained=1)
    return me._error_mixture_for_draw(spec, draws, 0, h, rng)


def test_predictive_draw_homosk_and_single_atom():
    rng = np.random.default_rng(19)
    w, off, var = _predictive_mixture("Homosk", {"sigma2": 0.81}, 1, rng)
    assert (w.tolist(), off.tolist(), var.tolist()) == ([1.0], [0.0], [0.81])

    w, off, var = _predictive_mixture("DPM", {}, 1, rng, weights=[np.ones(1)],
                                      means=[np.array([0.3])], variances=[np.array([0.7])])
    assert (w.tolist(), off.tolist(), var.tolist()) == ([1.0], [0.3], [0.7])


def test_predictive_sv_lognormal_moments():
    """The h-step log variance is AR(1) from h_T: N(m, v) with
    m = mu + rho^h (h_T - mu) and v = sig2 (1 - rho^(2h)) / (1 - rho^2),
    so the variance has mean exp(m + v/2); at h = 1 and h = 4."""
    mu, rho, sig2, h_last = 0.4, 0.8, 0.09, 1.0
    scalars = {"h_last": h_last, "mu_h": mu, "rho_h": rho, "sig2_h": sig2}
    rng = np.random.default_rng(6)
    for h in (1, 4):
        vs = np.array([_predictive_mixture("SV", scalars, h, rng)[2][0]
                       for _ in range(20_000)])
        m = mu + rho ** h * (h_last - mu)
        v = sig2 * (1.0 - rho ** (2 * h)) / (1.0 - rho ** 2)
        assert abs(vs.mean() / math.exp(m + 0.5 * v) - 1.0) < 0.02, h


def test_predictive_mixture_hybrid_shares_variance():
    scalars = {"h_last": 0.2, "mu_h": 0.0, "rho_h": 0.9, "sig2_h": 0.1}
    w, off, var = _predictive_mixture(
        "DPMSV", scalars, 2, np.random.default_rng(20),
        weights=[np.array([0.6, 0.4])], means=[np.array([-0.5, 0.5])])
    assert_allclose(w, [0.6, 0.4])
    assert_allclose(off, [-0.5, 0.5])
    assert var[0] == var[1] > 0.0


def test_mixture_density_matches_normal():
    grid = np.linspace(-8.0, 8.0, 1601)
    dens = mixture_density(np.array([1.0]), np.array([0.3]), np.array([0.7]), grid)
    assert_allclose(dens, stats.norm.pdf(grid, 0.3, math.sqrt(0.7)), atol=1e-12)
    assert_allclose(np.trapezoid(dens, grid), 1.0, atol=1e-6)


def test_dominant_cluster_collapses_to_gaussian():
    J = 40
    sticks = np.concatenate([[1.0 - 1e-8], np.full(J - 2, 0.5), [1.0]])
    w = stick_to_weights(sticks)
    rng = np.random.default_rng(21)
    means = np.concatenate([[0.3], rng.normal(0, 2, J - 1)])
    varis = np.concatenate([[0.7], rng.uniform(0.2, 3.0, J - 1)])
    grid = np.linspace(-10.0, 10.0, 2001)
    dens = mixture_density(w, means, varis, grid)
    l1 = np.trapezoid(np.abs(dens - stats.norm.pdf(grid, 0.3, math.sqrt(0.7))), grid)
    assert l1 < 0.01


# ---------------------------------------------------------------------------
# full sweeps


def test_error_sweep_homosk():
    rng = np.random.default_rng(22)
    resid = rng.standard_normal(60)
    state = init_error_state("Homosk", 60, float(np.var(resid)))
    out, accepted = error_sweep(state, resid, rng)
    assert accepted is None
    assert out.sigma2 > 0.0 and out.sigma2 != state.sigma2


def test_dpm_sweep_recovers_bimodal_density():
    rng = np.random.default_rng(21)
    n = 400
    comp = rng.integers(0, 2, n)
    eps = np.where(comp == 0, -2.0, 2.0) + 0.5 * rng.standard_normal(n)
    state = init_error_state("DPM", n, float(np.var(eps)))
    grid = np.linspace(-6.0, 6.0, 241)
    dens_acc = np.zeros_like(grid)
    kept = 0
    for it in range(1500):
        state, _ = error_sweep(state, eps, rng)
        if it % 250 == 0:
            state.validate()
        if it >= 500 and it % 5 == 0:
            d = state.dpm
            dens_acc += mixture_density(d.weights, d.comp_mean, d.comp_var, grid)
            kept += 1
    dens = dens_acc / kept
    truth = 0.5 * stats.norm.pdf(grid, -2.0, 0.5) + 0.5 * stats.norm.pdf(grid, 2.0, 0.5)
    assert np.trapezoid(np.abs(dens - truth), grid) < 0.15
    # exactly two well-separated modes near the true cluster centers
    inner = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
    peaks = grid[1:-1][inner & (dens[1:-1] > 0.1 * dens.max())]
    assert peaks.size == 2
    assert abs(peaks[0] + 2.0) < 0.4 and abs(peaks[1] - 2.0) < 0.4


def test_dpm_sweep_preserves_prior_marginals():
    # joint prior-data/posterior alternation must leave the prior invariant:
    # alpha stays at its Gamma(2,4) mean, component means at N(0,4)
    T = 20
    rng = np.random.default_rng(77)
    state = init_error_state("DPM", T, 1.0)
    alphas = np.empty(10_000)
    mus = np.empty(10_000)
    for i in range(10_000):
        d = state.dpm
        eps = d.comp_mean[d.alloc] + np.sqrt(d.comp_var[d.alloc]) * rng.standard_normal(T)
        state, _ = error_sweep(state, eps, rng)
        alphas[i] = state.dpm.alpha
        mus[i] = state.dpm.comp_mean[0]
    se_a = alphas.std() * math.sqrt(_iact(alphas) / alphas.size)
    se_m = mus.std() * math.sqrt(_iact(mus) / mus.size)
    assert abs(alphas.mean() - 0.5) < 3.0 * se_a
    assert abs(mus.mean()) < 3.0 * se_m
    assert abs(mus.std() - 2.0) < 0.2


def test_hybrid_sweep_keeps_state_consistent():
    rng = np.random.default_rng(23)
    n = 200
    h_true = -0.5 + 0.3 * np.sin(np.linspace(0.0, 6.0, n))
    eps = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0) + np.exp(
        0.5 * h_true
    ) * rng.standard_normal(n)
    state = init_error_state("DPMSV", n, float(np.var(eps)))
    for _ in range(50):
        state, accepted = error_sweep(state, eps, rng)
        assert isinstance(accepted, bool)
        state.validate()
    assert state.dpm.comp_var is None
    assert np.all(np.isfinite(state.sv.h))
    assert state.dpm.J <= TRUNCATION_CAP


# ---------------------------------------------------------------------------
# initialization and validation


def test_init_error_state_defaults():
    homo = init_error_state("Homosk", 10, 2.5)
    assert homo.sigma2 == 2.5
    assert homo.sigma2_prior == (3.0, 7.5)

    dpm = init_error_state("DPM", 10, 2.5)
    assert dpm.dpm.J == 1
    assert_allclose(dpm.dpm.comp_var, [0.5])  # prior mean of sigma2_j
    assert dpm.dpm.alpha == 0.5
    assert_allclose(dpm.dpm.slice_u, 0.5 * (1.0 - KAPPA))

    sv = init_error_state("SV", 10, 2.5)
    assert_allclose(sv.sv.h, math.log(2.5))
    assert sv.sv.rho_h == pytest.approx(2.0 / 3.0)
    assert sv.sv.sig2_h == 0.1

    hyb = init_error_state("DPMSV", 10, 2.5)
    assert hyb.dpm.comp_var is None
    assert hyb.sv is not None

    with pytest.raises(ValueError, match="unknown error kind"):
        init_error_state("Garch", 10, 1.0)


def test_error_state_validation():
    with pytest.raises(ValueError, match="unknown error kind"):
        ErrorState(kind="garch").validate()
    with pytest.raises(ValueError, match="positive variance"):
        ErrorState(kind="Homosk", sigma2=-1.0).validate()
    with pytest.raises(ValueError, match="mixture state"):
        ErrorState(kind="DPM").validate()

    good = init_error_state("DPM", 4, 1.0)
    bad = dataclasses.replace(good.dpm, sticks=np.array([0.7]))
    with pytest.raises(ValueError, match="last stick"):
        bad.validate()
    bad = dataclasses.replace(good.dpm, alloc=np.array([0, 0, 0, 5]))
    with pytest.raises(ValueError, match="allocation"):
        bad.validate()
    bad = dataclasses.replace(good.dpm, alpha=-0.5)
    with pytest.raises(ValueError, match="alpha"):
        bad.validate()

    hyb = init_error_state("DPMSV", 4, 1.0)
    hyb.dpm = dataclasses.replace(hyb.dpm, comp_var=np.array([1.0]))
    with pytest.raises(ValueError, match="no component variances"):
        hyb.validate()

    with pytest.raises(ValueError, match="stationary"):
        SvState(h=np.zeros(3), mu_h=0.0, rho_h=1.2, sig2_h=0.1).validate()
