import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpforecast.data_pipeline import (
    LEADS_LOST,
    AlignmentError,
    DatasetSpec,
    SeriesPanel,
    TransformError,
    apply_transform,
    assemble_regression,
    build_target,
    format_quarter,
    parse_quarter,
    principal_components,
)


# ---------------------------------------------------------------------------
# quarter arithmetic


def test_parse_quarter_formats():
    assert parse_quarter("1985Q3") == parse_quarter("1985-Q3")
    assert parse_quarter("1985-07-01") == parse_quarter("1985Q3")
    assert parse_quarter("1985Q4") - parse_quarter("1985Q3") == 1
    assert parse_quarter("1986Q1") - parse_quarter("1985Q4") == 1


def test_format_quarter_roundtrip():
    for q in ("1972Q1", "1999Q4", "2021Q3"):
        assert format_quarter(parse_quarter(q)) == q


# ---------------------------------------------------------------------------
# apply_transform


def test_transform_identity():
    npt.assert_array_equal(apply_transform(np.array([5.0, 5.0, 5.0]), 1), [5, 5, 5])


def test_transform_first_difference():
    npt.assert_allclose(apply_transform(np.array([1.0, 3.0, 6.0]), 2), [2.0, 3.0])


def test_transform_dlog():
    e = math.e
    npt.assert_allclose(apply_transform(np.array([e, e ** 2, e ** 4]), 5), [1.0, 2.0])


def test_transform_lengths():
    x = np.linspace(1.0, 2.0, 10)
    for code, lost in LEADS_LOST.items():
        assert apply_transform(x, code).size == x.size - lost


def test_transform_log_rejects_nonpositive():
    with pytest.raises(TransformError):
        apply_transform(np.array([1.0, -1.0, 2.0]), 5, name="BAD")


def test_transform_growth_rate():
    x = np.array([100.0, 110.0, 121.0])
    out = apply_transform(x, 7)
    # first difference of x_t/x_{t-1} - 1: both gross growth rates are 0.10
    npt.assert_allclose(out, [0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# build_target


def test_build_target_annualization():
    P = np.array([1.0, 1.0, 1.0, 1.0, math.exp(0.02)])
    npt.assert_allclose(build_target(P, 4), [2.0])


def test_build_target_constant_is_zero():
    P = np.full(8, 3.7)
    for h in (1, 4):
        npt.assert_allclose(build_target(P, h), 0.0, atol=1e-12)


def test_build_target_doubling():
    P = np.array([1.0, 2.0])
    npt.assert_allclose(build_target(P, 1), [400.0 * math.log(2.0)])


def test_build_target_too_short():
    with pytest.raises(ValueError):
        build_target(np.array([1.0, 2.0]), 2)


@given(scale=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_build_target_scale_invariance(scale):
    P = np.array([1.0, 1.1, 1.3, 1.2, 1.5, 1.6])
    npt.assert_allclose(build_target(P, 1), build_target(scale * P, 1), atol=1e-9)


# ---------------------------------------------------------------------------
# assemble_regression


def test_ar1_design_single_column(panel):
    spec = DatasetSpec(variant="AR1", target_series="PRICE", horizon=1)
    data = assemble_regression(panel, spec)
    assert data.X.shape[1] == 1


def test_moderate_design_width(panel):
    spec = DatasetSpec(variant="Moderate", target_series="PRICE", horizon=1)
    data = assemble_regression(panel, spec)
    # every M-flagged series contributes one lagged column
    m_count = sum(1 for n in panel.names if "M" in panel.flags.get(n, ""))
    assert data.X.shape[1] == m_count


def test_alignment_arithmetic():
    # T_raw = 10 quarters, h = 4 -> 6 usable rows when no transform trims
    dates = np.arange(parse_quarter("2000Q1"), parse_quarter("2000Q1") + 10)
    price = np.exp(np.linspace(4.0, 4.2, 10))
    x = np.linspace(0.0, 1.0, 10)
    panel = SeriesPanel(dates=dates, names=["P", "X1"],
                        values=np.column_stack([price, x]),
                        tcodes=[1, 1], flags={"P": "", "X1": "M"})
    spec = DatasetSpec(variant="Moderate", target_series="P", horizon=4,
                       include_expectations=False)
    data = assemble_regression(panel, spec)
    assert data.y.size == 6
    assert np.all(data.origin_dates + 4 <= dates[-1])
    # a differencing transform on any series trims the shared leading rows
    panel2 = SeriesPanel(dates=dates, names=["P", "X1"],
                         values=np.column_stack([price, x]),
                         tcodes=[1, 2], flags={"P": "", "X1": "M"})
    assert assemble_regression(panel2, spec).y.size == 5


def test_no_lookahead(panel):
    spec = DatasetSpec(variant="Moderate", target_series="PRICE", horizon=4)
    data = assemble_regression(panel, spec)
    # realization date of every row is exactly origin + h
    npt.assert_array_equal(data.origin_dates + 4,
                           data.origin_dates + data.horizon)
    # truncating the panel after an origin leaves that origin's row unchanged
    full = assemble_regression(panel, spec, standardize=False)
    cut = full.origin_dates[30]
    sub = assemble_regression(panel, spec, end_date=cut, standardize=False)
    i = np.searchsorted(full.origin_dates, sub.origin_dates[-1])
    npt.assert_allclose(sub.X[-1], full.X[i], atol=1e-12)


def test_misalignment_error():
    dates = np.arange(parse_quarter("2000Q1"), parse_quarter("2000Q1") + 6)
    price = np.exp(np.linspace(4.0, 4.1, 6))
    panel = SeriesPanel(dates=dates, names=["P"],
                        values=price[:, None], tcodes=[5], flags={"P": ""})
    spec = DatasetSpec(variant="AR1", target_series="P", horizon=4,
                       include_expectations=False)
    with pytest.raises((AlignmentError, ValueError)):
        assemble_regression(panel, spec)


# ---------------------------------------------------------------------------
# principal_components


def test_pc_rank_one():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(30)
    v = rng.standard_normal(4)
    X = np.outer(u, v)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    scores, _ = principal_components(X, 1)
    # a single component reproduces the full variance of a rank-1 matrix
    assert scores[:, 0].var() / X.var(axis=0).sum() > 1.0 / 4 - 1e-10
    resid = X - np.outer(scores[:, 0], scores[:, 0] @ X) / (scores[:, 0] @ scores[:, 0])
    assert np.max(np.abs(resid)) < 1e-8


def test_pc_orthonormal_span():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((12, 3))
    Q = np.linalg.qr(A)[0]
    scores, _ = principal_components(Q, 3)
    P1 = Q @ Q.T
    S, _, _ = np.linalg.svd(scores, full_matrices=False)[0], None, None
    P2 = S @ S.T
    npt.assert_allclose(P1, P2, atol=1e-8)


def test_pc_matches_eigendecomposition():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 8))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    scores, loadings = principal_components(X, 3)
    evals, evecs = np.linalg.eigh(X.T @ X)
    order = np.argsort(evals)[::-1]
    V = evecs[:, order[:3]]
    # fix signs to the same convention before comparing
    for j in range(3):
        k = np.argmax(np.abs(V[:, j]))
        if V[k, j] < 0:
            V[:, j] = -V[:, j]
    npt.assert_allclose(loadings, V, atol=1e-8)
    npt.assert_allclose(scores, X @ V, atol=1e-8)


def test_pc_orthogonality_and_variance_shares():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 6))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    scores, _ = principal_components(X, 4)
    G = scores.T @ scores
    npt.assert_allclose(G - np.diag(np.diag(G)), 0.0, atol=1e-10)
    shares = np.diag(G) / np.trace(X.T @ X)
    assert shares.sum() <= 1.0 + 1e-12


def test_pc_dimension_error():
    X = np.random.default_rng(7).standard_normal((5, 3))
    with pytest.raises(ValueError):
        principal_components(X, 4)
