"""Scoring: tick loss, log predictive likelihood, tables, paths, calibration."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

import bnpforecast.model_engine as me
from bnpforecast import evaluation
from bnpforecast.data_pipeline import AlignmentError, DatasetSpec, ModelSpec, parse_quarter
from bnpforecast.evaluation import (
    P_GRID,
    SUBSAMPLE_WINDOWS,
    PitSeries,
    ScorePanel,
    cumulative_path,
    kolmogorov_halfwidth,
    log_pred_likelihood,
    pit_compute,
    quantile_score,
    relative_table,
    rs_diagnostic,
    subsample_average,
    write_calibration_csv,
    write_cumulative_csv,
    write_relative_table_csv,
    write_scores_csv,
)
from bnpforecast.model_engine import PredictiveDraws


def _panel(model_id, dates, y, point, lpls, qs_by_p):
    y = np.asarray(y, float)
    point = np.asarray(point, float)
    return ScorePanel(model_id=model_id, origin_dates=np.asarray(dates),
                      y_true=y, sq_errors=(y - point) ** 2,
                      lpls=np.asarray(lpls, float),
                      qs={p: np.asarray(v, float) for p, v in qs_by_p.items()})


# ---------------------------------------------------------------------------
# tick loss


def test_quantile_score_hand_cases():
    assert quantile_score(2.0, 1.0, 0.95) == pytest.approx(0.95)
    assert quantile_score(1.0, 2.0, 0.05) == pytest.approx(0.95)
    assert quantile_score(3.0, 3.0, 0.5) == 0.0
    assert quantile_score(0.0, 2.5, 0.9) == pytest.approx(0.25)
    assert quantile_score(-3.0, -1.0, 0.1) == pytest.approx(1.8)
    with pytest.raises(ValueError):
        quantile_score(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        quantile_score(1.0, 1.0, 1.0)


@given(y=st.floats(-50, 50), q=st.floats(-50, 50),
       p=st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_quantile_score_nonnegative(y, q, p):
    s = quantile_score(y, q, p)
    assert s >= 0.0
    if y == q:
        assert s == 0.0
    elif abs(y - q) > 1e-9:
        assert s > 0.0


def test_sample_quantile_minimizes_tick_loss():
    """Exhaustive check on small samples: among the draws themselves the
    inverse-CDF sample quantile attains the smallest average tick loss."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(3, 12))
        d = np.sort(np.round(rng.standard_normal(n), 3))
        p = float(rng.choice(P_GRID))
        qstar = float(d[math.ceil(n * p) - 1])
        loss_star = np.mean([quantile_score(y, qstar, p) for y in d])
        best = min(np.mean([quantile_score(y, float(c), p) for y in d])
                   for c in d)
        assert loss_star <= best + 1e-12


# ---------------------------------------------------------------------------
# log predictive likelihood


def _flatten_components(draw_components):
    """Flat (log weights, means, variances) mixture arrays from per-draw
    predictive components: the per-draw formula that ``predictive_simulate``
    applies as it simulates, and the oracle for its ``mixture``.

    Accepts per draw either a scalar triple (mean, offset, variance) or a
    weighted mixture (mean, offsets, variances, weights).
    """
    logw, means, vars_ = [], [], []
    n = len(draw_components)
    for comp in draw_components:
        if len(comp) == 3:
            m, off, v = comp
            logw.append(np.zeros(1))
            means.append(np.atleast_1d(np.asarray(m, float) + np.asarray(off, float)))
            vars_.append(np.atleast_1d(np.asarray(v, float)))
        else:
            m, off, v, w = comp
            w = np.asarray(w, dtype=float)
            with np.errstate(divide="ignore"):
                logw.append(np.log(w / w.sum()))
            means.append(np.asarray(m, float) + np.asarray(off, float))
            vars_.append(np.broadcast_to(np.asarray(v, float), w.shape))
    return (np.concatenate(logw) - math.log(n), np.concatenate(means),
            np.concatenate(vars_))


def _lpl(draw_components, y):
    """``log_pred_likelihood`` of per-draw components, through the oracle."""
    return log_pred_likelihood(_flatten_components(draw_components), y)


def test_lpl_standard_normal_peak():
    val = _lpl([(0.0, 0.0, 1.0)], 0.0)
    assert val == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-12)
    assert val == pytest.approx(-0.91894, abs=5e-6)


def test_lpl_duplicate_and_order_invariance():
    comps = [(0.4, 0.1, 0.8), (-0.2, 0.0, 1.5), (0.3, -0.5, 0.6)]
    base = _lpl(comps, 0.7)
    assert _lpl(comps[::-1], 0.7) == pytest.approx(base, abs=1e-13)
    assert _lpl(comps * 3, 0.7) == pytest.approx(base, abs=1e-13)
    one = _lpl([(0.4, 0.1, 0.8)], 0.7)
    two = _lpl([(0.4, 0.1, 0.8)] * 2, 0.7)
    assert two == pytest.approx(one, abs=1e-13)


def test_lpl_three_draw_summation_oracle():
    """Extended-precision direct summation of the mixture density."""
    comps = [
        (0.4, 0.1, 0.8),
        (-0.2, 0.0, 1.5),
        (0.1, np.array([-1.0, 0.5]), np.array([0.6, 0.9]),
         np.array([0.3, 0.7])),
    ]
    y = 0.25
    ld = np.longdouble
    dens = ld(0)
    for comp in comps:
        if len(comp) == 3:
            m, off, v = comp
            pieces = [(ld(m) + ld(off), ld(v), ld(1))]
        else:
            m, offs, vs, ws = comp
            wsum = ld(np.sum(ws))
            pieces = [(ld(m) + ld(o), ld(v), ld(w) / wsum)
                      for o, v, w in zip(offs, vs, ws)]
        for mean, var, weight in pieces:
            dens += weight * np.exp(-(ld(y) - mean) ** 2 / (2 * var)) \
                / np.sqrt(2 * np.pi * var)
    oracle = float(np.log(dens / ld(len(comps))))
    assert _lpl(comps, y) == pytest.approx(oracle, abs=1e-12)


def test_lpl_mixture_matches_scipy():
    m, offs, vs, ws = 0.2, np.array([-1.0, 0.0, 2.0]), \
        np.array([0.5, 1.0, 0.25]), np.array([0.2, 0.5, 0.3])
    y = 0.6
    dens = np.sum(ws / ws.sum() * stats.norm.pdf(y, m + offs, np.sqrt(vs)))
    assert _lpl([(m, offs, vs, ws)], y) == \
        pytest.approx(math.log(dens), abs=1e-12)


def test_lpl_far_tail_stays_finite():
    val = _lpl([(0.0, 0.0, 1.0)], 1e4)
    assert np.isfinite(val)
    assert val == pytest.approx(-0.5 * (math.log(2.0 * math.pi) + 1e8))
    # far-separated components: log-space averaging, no underflow to -inf
    two = _lpl([(0.0, 0.0, 1.0), (1e4, 0.0, 1.0)], 1e4)
    assert two == pytest.approx(-0.5 * math.log(2.0 * math.pi) - math.log(2.0),
                                abs=1e-9)


def test_lpl_zero_variance_limits():
    assert _lpl([(1.5, 0.0, 0.0)], 1.5) == math.inf
    assert _lpl([(1.5, 0.0, 0.0)], 2.0) == -math.inf
    mixed = _lpl([(1.5, 0.0, 0.0), (0.0, 0.0, 1.0)], 2.0)
    assert np.isfinite(mixed)
    with pytest.raises(ValueError):
        log_pred_likelihood((np.empty(0),) * 3, 0.0)


def _logsumexp_cases():
    rng = np.random.default_rng(7)
    for _ in range(400):  # lengths 1-500, spreads from 1e-3 to 1e3
        n = int(rng.integers(1, 501))
        yield rng.normal(rng.normal(0.0, 50.0), 10.0 ** rng.uniform(-3.0, 3.0), n)
    for _ in range(100):  # ties at the max, and at every value
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), int(rng.integers(2, 200)))
        a[rng.choice(a.size, int(rng.integers(2, a.size + 1)), replace=False)] = a.max()
        yield a
        yield rng.integers(-3, 3, int(rng.integers(1, 50))).astype(float)
    for _ in range(100):  # some entries -inf
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), int(rng.integers(2, 200)))
        a[rng.random(a.size) < 0.3] = -np.inf
        yield a
    for n in (1, 2, 7):
        yield np.full(n, -np.inf)
        yield np.array([np.inf] + [0.5] * (n - 1))
        yield np.array([np.inf] * n + [-np.inf, 3.0])
        yield np.array([-np.inf] * n + [2.0])


def test_logsumexp_port_equals_scipy():
    """The port rounds exactly as scipy.special.logsumexp does."""
    for a in _logsumexp_cases():
        ours, ref = evaluation._logsumexp(a), float(special.logsumexp(a))
        assert ours == ref or (math.isnan(ours) and math.isnan(ref)), a


def test_lpl_equals_scipy_logsumexp_on_fixtures(monkeypatch):
    """log_pred_likelihood returns the floats it returned with scipy's
    logsumexp, on this file's predictive fixtures."""
    cases = [([(0.0, 0.0, 1.0)], 0.0), ([(0.0, 0.0, 1.0)], 1e4),
             ([(0.0, 0.0, 1.0), (1e4, 0.0, 1.0)], 1e4),
             ([(1.5, 0.0, 0.0), (0.0, 0.0, 1.0)], 2.0),
             ([(0.2, np.array([-1.0, 0.0, 2.0]), np.array([0.5, 1.0, 0.25]),
                np.array([0.2, 0.5, 0.3]))], 0.6),
             ([(0.4, 0.1, 0.8), (-0.2, 0.0, 1.5), (0.1, np.array([-1.0, 0.5]),
                np.array([0.6, 0.9]), np.array([0.3, 0.7]))], 0.25)]
    comps = [(0.4, 0.1, 0.8), (-0.2, 0.0, 1.5), (0.3, -0.5, 0.6)]
    cases += [(comps, 0.7), (comps[::-1], 0.7), (comps * 3, 0.7)]
    cases = [(_flatten_components(c), y) for c, y in cases]
    cases += [(pr.mixture, pr.y_true) for pr in
              (_fake_pred(8000, 0.4, 0.2, 1.0), _fake_pred(8001, -0.6, 0.1, 0.8),
               _fake_pred(8002, 1.2, 0.9, 1.3))]
    ported = [log_pred_likelihood(c, y) for c, y in cases]
    monkeypatch.setattr(evaluation, "_logsumexp", lambda a: float(special.logsumexp(a)))
    assert [log_pred_likelihood(c, y) for c, y in cases] == ported


@pytest.mark.filterwarnings("ignore:inefficiency factor on a trace shorter")
@pytest.mark.parametrize("error_kind", ["Homosk", "DPM", "SV", "DPMSV"])
def test_predictive_mixture_equals_per_draw_formula(monkeypatch, error_kind):
    """On the predictive of a short chain, ``predictive_simulate``'s flat
    mixture is the per-draw formula (``_flatten_components``) applied to
    each draw's (mean, offsets, var_f + variances, weights), bit for bit,
    and so is its log predictive likelihood; each draw's error mixture is
    the one its simulation used."""
    rng = np.random.default_rng(3)
    y = np.cumsum(rng.standard_normal(60)) + np.where(rng.uniform(size=60) < 0.5, -1.0, 1.0)
    spec = ModelSpec("UC", error_kind, DatasetSpec("Moderate", "PRICE", 2, False))
    window = me.WindowData(y=y, X=None, x_new=None, horizon=2, y_offset=0.4)
    draws = me.run_chain(spec, window, me.McmcConfig(n_iter=80, n_burn=40),
                         np.random.default_rng(11))
    seen = []
    per_draw = me._error_mixture_for_draw
    monkeypatch.setattr(me, "_error_mixture_for_draw",
                        lambda *a: seen.append(per_draw(*a)) or seen[-1])
    pred = me.predictive_simulate(spec, draws, np.random.default_rng(12))
    comps = [(float(draws.origin_mean[i]) + 0.4, off, float(draws.origin_var[i]) + ve, w)
             for i, (w, off, ve) in enumerate(seen)]
    assert len(comps) == draws.n_retained == 40
    want = _flatten_components(comps)
    for got, ref in zip(pred.mixture, want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    for outcome in (pred.point, pred.quantiles[0.05], y[-1] + 5.0):
        assert log_pred_likelihood(pred.mixture, outcome) == _lpl(comps, outcome)


# ---------------------------------------------------------------------------
# relative tables


def mse(errors) -> float:
    """Mean squared error of a vector of forecast errors: the MSE that
    ``relative_table`` averages from a panel's squared errors."""
    e = np.asarray(errors, dtype=float)
    return float(np.mean(e * e))


def test_mse_hand_value():
    assert mse([1.0, -2.0, 3.0]) == pytest.approx(14.0 / 3.0)


def test_relative_table_self_benchmark_is_exact():
    dates = np.arange(8000, 8010)
    rng = np.random.default_rng(3)
    qs = {p: np.abs(rng.standard_normal(10)) for p in (0.05, 0.5)}
    bench = _panel("UC-SV", dates, rng.standard_normal(10),
                   rng.standard_normal(10), rng.standard_normal(10), qs)
    rows = relative_table({"UC-SV": bench}, "UC-SV")
    assert len(rows) == 1
    assert rows[0]["mse_ratio"] == 1.0
    assert rows[0]["lpl_diff"] == 0.0
    assert rows[0]["qs_ratio_0.05"] == 1.0
    assert rows[0]["mse_level"] == pytest.approx(np.mean(bench.sq_errors))


def test_relative_table_hand_computed():
    dates = np.arange(8000, 8004)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    bench_pt = y - np.array([2.0, -2.0, 2.0, -2.0])
    model_pt = y - np.array([1.0, -1.0, 1.0, 1.0])
    bench = _panel("UC-SV", dates, y, bench_pt, [0.1, 0.2, 0.3, 0.4],
                   {0.5: [1.0, 1.0, 2.0, 4.0]})
    model = _panel("GP-DPM", dates, y, model_pt, [0.5, 0.5, 0.5, 0.5],
                   {0.5: [1.0, 1.0, 1.0, 1.0]})
    rows = relative_table({"UC-SV": bench, "GP-DPM": model}, "UC-SV")
    by_model = {r["model"]: r for r in rows}
    # halved absolute errors square to a quarter of the benchmark MSE
    assert by_model["GP-DPM"]["mse_ratio"] == pytest.approx(0.25)
    assert by_model["GP-DPM"]["lpl_diff"] == pytest.approx(0.5 - 0.25)
    assert by_model["GP-DPM"]["qs_ratio_0.5"] == pytest.approx(1.0 / 2.0)
    assert by_model["UC-SV"]["mse_ratio"] == 1.0
    assert by_model["UC-SV"]["lpl_diff"] == 0.0
    assert [r["model"] for r in rows] == sorted(by_model)


def test_relative_table_alignment_errors():
    dates = np.arange(8000, 8004)
    rng = np.random.default_rng(3)
    mk = lambda d: _panel("M", d, np.ones(d.size), np.zeros(d.size),
                          np.zeros(d.size), {0.5: np.ones(d.size)})
    bench = mk(dates)
    bench.model_id = "B"
    with pytest.raises(ValueError, match="missing"):
        relative_table({"M": mk(dates)}, "B")
    shifted = mk(dates + 1)
    with pytest.raises(AlignmentError):
        relative_table({"B": bench, "M": shifted}, "B")


# ---------------------------------------------------------------------------
# cumulative paths and subsamples


def test_cumulative_path_cases():
    s = np.array([0.3, 0.1, -0.2])
    assert np.array_equal(cumulative_path(s, s), np.zeros(3))
    adv = np.full(10, 0.25)
    path = cumulative_path(adv + 0.1, adv)
    assert path[-1] == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(20), rng.standard_normal(20)
    run, expect = 0.0, []
    for ai, bi in zip(a, b):
        run += ai - bi
        expect.append(run)
    assert np.allclose(cumulative_path(a, b), expect, atol=1e-12)
    # lower-is-better scores flip the orientation so up still means better
    assert np.allclose(cumulative_path(a, b, lower_is_better=True),
                       -np.array(expect), atol=1e-12)
    with pytest.raises(AlignmentError):
        cumulative_path(a, b[:-1])


def test_subsample_average_full_span_and_identity(monkeypatch):
    monkeypatch.setattr(evaluation, "SUBSAMPLE_WINDOWS", (("all", "1995Q1", "1997Q4"),))
    dates = np.arange(parse_quarter("1995Q1"), parse_quarter("1995Q1") + 12)
    rng = np.random.default_rng(2)
    s = np.abs(rng.standard_normal(12)) + 0.1
    b = np.abs(rng.standard_normal(12)) + 0.1
    full = subsample_average(dates, s, b)
    assert set(full) == {"all"}
    assert full["all"] == pytest.approx(np.mean(s) / np.mean(b))
    same = subsample_average(dates, b, b)
    assert same["all"] == 1.0


def test_subsample_average_default_windows():
    labels = [w[0] for w in SUBSAMPLE_WINDOWS]
    assert labels == ["1980-1990", "1991-2000", "2001-2010", "2011-2021"]
    start = parse_quarter("1980Q1")
    end = parse_quarter("2021Q4")
    dates = np.arange(start, end + 1)
    n = dates.size
    rng = np.random.default_rng(9)
    s = np.abs(rng.standard_normal(n)) + 0.1
    b = np.abs(rng.standard_normal(n)) + 0.1
    table = subsample_average(dates, s, b)
    assert set(table) == set(labels)
    mask = (dates >= parse_quarter("1991Q1")) & (dates <= parse_quarter("2000Q4"))
    assert table["1991-2000"] == pytest.approx(np.mean(s[mask]) / np.mean(b[mask]))


def test_subsample_average_warns_on_empty_window(monkeypatch):
    monkeypatch.setattr(evaluation, "SUBSAMPLE_WINDOWS",
                        (("in", "1995Q1", "1995Q4"), ("out", "2030Q1", "2030Q4")))
    dates = np.arange(parse_quarter("1995Q1"), parse_quarter("1995Q1") + 4)
    s = np.ones(4)
    with pytest.warns(UserWarning, match="no origins"):
        table = subsample_average(dates, s, s)
    assert list(table) == ["in"]


# ---------------------------------------------------------------------------
# calibration


def test_pit_boundaries_and_ties():
    draws = np.array([0.0, 1.0, 2.0, 3.0])
    assert pit_compute(draws, -5.0) == 0.0
    assert pit_compute(draws, 5.0) == 1.0
    assert pit_compute(np.array([1.0, 1.0, 2.0]), 1.0) == pytest.approx(1 / 3)
    rng = np.random.default_rng(0)
    tied = pit_compute(np.array([1.0, 1.0, 2.0]), 1.0, rng)
    assert 0.0 <= tied <= 2 / 3
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        PitSeries("m", np.arange(2), np.array([0.5, 1.5]))


def test_kolmogorov_halfwidth_table_value():
    half = kolmogorov_halfwidth(100, 0.05)
    assert half == pytest.approx(0.1358, abs=2e-4)
    assert half == pytest.approx(math.sqrt(-math.log(0.025) / 2.0) / 10.0,
                                 abs=1e-15)
    assert kolmogorov_halfwidth(400, 0.05) == pytest.approx(half / 2.0)
    with pytest.raises(ValueError):
        kolmogorov_halfwidth(100, 0.0)


def test_rs_diagnostic_perfect_grid():
    """PITs at the grid's own points 0.01, ..., 1: the empirical CDF at the
    k-th grid point is exactly k/100."""
    n = 100
    pits = np.linspace(0.0, 1.0, 101)[1:]
    grid, ecdf, half = rs_diagnostic(pits)
    assert np.array_equal(grid, np.linspace(0.0, 1.0, 101))
    assert np.array_equal(ecdf, np.arange(101) / n)
    assert half == pytest.approx(kolmogorov_halfwidth(n, 0.05))
    g2, e2, _ = rs_diagnostic(PitSeries("m", np.arange(n), pits))
    assert g2.size == 101
    assert e2[0] == 0.0 and e2[-1] == 1.0
    assert np.all(np.diff(e2) >= 0.0)


def test_pits_uniform_under_correct_specification():
    """Outcomes simulated from each origin's own predictive leave uniform
    PITs; the KS test must not reject at the 1% level."""
    rng = np.random.default_rng(0)
    pits = []
    for _ in range(500):
        mu, sd = rng.normal(), abs(rng.normal()) + 0.5
        draws = rng.normal(mu, sd, 200)
        y = rng.normal(mu, sd)
        pits.append(pit_compute(draws, y, rng))
    pv = stats.kstest(pits, "uniform").pvalue
    assert pv > 0.01
    _, ecdf, half = rs_diagnostic(np.asarray(pits))
    grid = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(ecdf - grid)) < half


# ---------------------------------------------------------------------------
# scoring whole forecast lists


def _fake_pred(origin, y_true, mean, var, n=400, seed=0):
    rng = np.random.default_rng(seed + origin)
    draws = rng.normal(mean, math.sqrt(var), n)
    qs = {p: float(np.quantile(draws, p)) for p in P_GRID}
    comps = [(mean, np.zeros(1), np.full(1, var), np.ones(1))] * n
    return PredictiveDraws(origin_date=origin, horizon=1, draws=draws,
                           point=float(draws.mean()), quantiles=qs,
                           mixture=_flatten_components(comps), y_true=y_true)


def score_forecasts(model_id, preds, rng=None, p_grid=P_GRID):
    """Score a list of per-origin predictive draws against realized
    outcomes with the package's scoring functions, as a (ScorePanel,
    PitSeries) pair."""
    preds = [p for p in preds if p.y_true is not None]
    if not preds:
        raise ValueError("no scored origins: realized outcomes missing")
    dates = np.array([p.origin_date for p in preds], dtype=int)
    y = np.array([p.y_true for p in preds], dtype=float)
    point = np.array([p.point for p in preds], dtype=float)
    lpls = np.array([log_pred_likelihood(p.mixture, p.y_true) for p in preds])
    qs = {p: np.array([quantile_score(pr.y_true, pr.quantiles[p], p) for pr in preds])
          for p in p_grid}
    pits = np.array([pit_compute(pr.draws, pr.y_true, rng) for pr in preds])
    panel = ScorePanel(model_id=model_id, origin_dates=dates, y_true=y,
                       sq_errors=(y - point) ** 2, lpls=lpls, qs=qs,
                       horizon=preds[0].horizon)
    return panel, PitSeries(model_id=model_id, origin_dates=dates, values=pits)


def test_score_forecasts_assembles_aligned_panel():
    preds = [_fake_pred(8000, 0.4, 0.2, 1.0), _fake_pred(8001, -0.6, 0.1, 0.8),
             _fake_pred(8002, 1.2, 0.9, 1.3)]
    panel, pits = score_forecasts("GP-DPM", preds,
                                  rng=np.random.default_rng(1))
    assert panel.model_id == "GP-DPM"
    assert np.array_equal(panel.origin_dates, [8000, 8001, 8002])
    assert panel.n == 3
    for i, pr in enumerate(preds):
        assert panel.sq_errors[i] == pytest.approx((pr.y_true - pr.point) ** 2)
        assert panel.lpls[i] == pytest.approx(
            log_pred_likelihood(pr.mixture, pr.y_true))
        for p in P_GRID:
            assert panel.qs[p][i] == pytest.approx(
                quantile_score(pr.y_true, pr.quantiles[p], p))
    assert np.all((pits.values >= 0) & (pits.values <= 1))


def test_score_forecasts_drops_unrealized_origins():
    preds = [_fake_pred(8000, 0.4, 0.2, 1.0), _fake_pred(8001, None, 0.1, 0.8)]
    panel, _ = score_forecasts("M", preds)
    assert panel.n == 1
    with pytest.raises(ValueError, match="realized"):
        score_forecasts("M", [_fake_pred(8000, None, 0.2, 1.0)])


def test_score_panel_validation():
    with pytest.raises(ValueError, match="length"):
        ScorePanel("m", np.arange(3), np.zeros(3), np.zeros(2), np.zeros(3),
                   {})
    with pytest.raises(ValueError, match="nonnegative"):
        ScorePanel("m", np.arange(2), np.zeros(2), np.zeros(2), np.zeros(2),
                   {0.5: np.array([0.1, -0.1])})


# ---------------------------------------------------------------------------
# CSV emitters


def test_csv_writers_roundtrip(tmp_path):
    dates = np.array([parse_quarter("1990Q1"), parse_quarter("1990Q2")])
    qs = {0.05: np.array([0.25, 0.5]), 0.5: np.array([1.0, 2.0])}
    panel = _panel("GP-SV", dates, [1.0, 2.0], [0.5, 1.5],
                   [-0.9, -1.1], qs)
    pits = PitSeries("GP-SV", dates, np.array([0.3, 0.8]))

    spath = tmp_path / "scores_GP-SV.csv"
    write_scores_csv(spath, panel, pits)
    with open(spath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["origin", "y_true", "sq_error", "lpl",
                       "qs_0.05", "qs_0.5", "pit"]
    assert rows[1][0] == "1990Q1"
    assert float(rows[1][2]) == pytest.approx(0.25)
    assert float(rows[2][6]) == pytest.approx(0.8)

    tpath = tmp_path / "table1.csv"
    write_relative_table_csv(tpath, relative_table({"GP-SV": panel}, "GP-SV"))
    with open(tpath) as fh:
        trows = list(csv.reader(fh))
    assert trows[0][0] == "model"
    assert "1" in trows[1]

    cpath = tmp_path / "cumulative_lpl.csv"
    write_cumulative_csv(cpath, dates, {"GP-SV": np.array([0.1, 0.3])})
    with open(cpath) as fh:
        crows = list(csv.reader(fh))
    assert crows[0] == ["origin", "GP-SV"]
    assert float(crows[2][1]) == pytest.approx(0.3)

    kpath = tmp_path / "calibration_GP-SV.csv"
    grid = np.linspace(0.0, 1.0, 5)
    write_calibration_csv(kpath, grid, grid, 0.1)
    with open(kpath) as fh:
        krows = list(csv.reader(fh))
    assert krows[0] == ["grid", "ecdf", "lower", "upper"]
    assert float(krows[1][2]) == pytest.approx(-0.1)
    assert float(krows[-1][3]) == pytest.approx(1.1)
