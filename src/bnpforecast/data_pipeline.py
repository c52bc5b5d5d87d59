"""Quarterly panel ingestion, stationarity transforms, and design construction.

A panel is a date-by-series matrix of raw quarterly observations plus a
per-series transformation code. Targets are h-quarter annualized log price
changes; designs pair that target with transformed predictors observed h
quarters earlier, so every row is a valid real-time forecasting case.

The model grid's vocabulary (kinds, cell specs, chain settings, cell seeds,
origins) lives here too, so the CLI can plan a grid without the samplers.
"""
from __future__ import annotations

import csv
import hashlib
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ALLOWED_TCODES",
    "LEADS_LOST",
    "TransformError",
    "AlignmentError",
    "SeriesPanel",
    "DatasetSpec",
    "RegressionData",
    "parse_quarter",
    "format_quarter",
    "apply_transform",
    "build_target",
    "design_matrix",
    "assemble_regression",
    "principal_components",
    "load_panel",
    "MEAN_KINDS",
    "ERROR_KINDS",
    "MIN_TRAIN_QUARTERS",
    "PC_BASIS_RANK",
    "ModelSpec",
    "McmcConfig",
    "model_grid",
    "derive_cell_seed",
    "assemble_target_only",
    "forecast_origins",
]

ALLOWED_TCODES = (1, 2, 3, 4, 5, 6, 7)

# Quarters of history consumed by each transformation.
LEADS_LOST = {1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2, 7: 2}

_QUARTER_RE = re.compile(r"^(\d{4})-?Q([1-4])$", re.IGNORECASE)
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")

# quarter-start months
_MONTH_TO_Q = {1: 1, 4: 2, 7: 3, 10: 4}


class TransformError(ValueError):
    """Raised when a stationarity transform cannot be applied."""


class AlignmentError(ValueError):
    """Raised when target and predictors cannot be aligned on a common window."""


def parse_quarter(text: str) -> int:
    """Parse ``1985Q3``, ``1985-Q3`` or a quarter-start ``1985-07-01`` to an ordinal.

    The ordinal counts quarters from year zero, so consecutive quarters
    differ by exactly one.
    """
    text = text.strip()
    m = _QUARTER_RE.match(text)
    if m:
        year, q = int(m.group(1)), int(m.group(2))
        return year * 4 + (q - 1)
    m = _DATE_RE.match(text)
    if m:
        year, month = int(m.group(1)), int(m.group(2))
        if month not in _MONTH_TO_Q:
            raise ValueError(f"not a quarter-start month: {text!r}")
        return year * 4 + (_MONTH_TO_Q[month] - 1)
    raise ValueError(f"unrecognized quarterly date: {text!r}")


def format_quarter(ordinal: int) -> str:
    year, rem = divmod(int(ordinal), 4)
    return f"{year}Q{rem + 1}"


def apply_transform(series: np.ndarray, code: int, *, name: str = "series",
                    dates: np.ndarray | None = None) -> np.ndarray:
    """Apply a stationarity transform, returning a shorter array.

    Codes: 1 level, 2 first difference, 3 second difference, 4 log,
    5 log first difference, 6 log second difference, 7 first difference
    of the period growth rate x_t/x_{t-1} - 1. The output drops the
    leading ``LEADS_LOST[code]`` observations.
    """
    if code not in ALLOWED_TCODES:
        raise TransformError(f"{name}: unknown transformation code {code}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise TransformError(f"{name}: expected a 1-d series")

    def _date(i: int) -> str:
        if dates is None:
            return f"index {i}"
        return format_quarter(int(dates[i]))

    if code in (4, 5, 6):
        bad = np.where(np.isfinite(x) & (x <= 0.0))[0]
        if bad.size:
            raise TransformError(
                f"{name}: non-positive value at {_date(int(bad[0]))} under log transform")
        with np.errstate(invalid="ignore"):
            x = np.log(x)
    if code == 7:
        prev = x[:-1]
        bad = np.where(np.isfinite(prev) & (prev == 0.0))[0]
        if bad.size:
            raise TransformError(
                f"{name}: zero value at {_date(int(bad[0]))} invalidates growth rate")
        with np.errstate(invalid="ignore", divide="ignore"):
            g = x[1:] / x[:-1] - 1.0
        return np.diff(g)
    order = {1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2}[code]
    for _ in range(order):
        x = np.diff(x)
    return x


@dataclass
class SeriesPanel:
    """Raw quarterly panel with per-series transform codes.

    dates : strictly increasing quarter ordinals with unit spacing
    names : one per column of ``values``
    values : (T, N) matrix; NaN allowed only at series edges
    tcodes : transformation code per series
    flags : optional dataset-membership string per series (e.g. "ML")
    """

    dates: np.ndarray
    names: list[str]
    values: np.ndarray
    tcodes: list[int]
    flags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.dates = np.asarray(self.dates, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.dates.size, len(self.names)):
            raise ValueError("panel shape does not match dates/names")
        if len(self.tcodes) != len(self.names):
            raise ValueError("one transformation code required per series")
        if self.dates.size >= 2:
            step = np.diff(self.dates)
            if not np.all(step == 1):
                raise ValueError("panel dates must be consecutive quarters")
        for code in self.tcodes:
            if code not in ALLOWED_TCODES:
                raise ValueError(f"unknown transformation code {code}")
        for j, name in enumerate(self.names):
            col = self.values[:, j]
            finite = np.isfinite(col)
            if not finite.any():
                raise ValueError(f"{name}: series has no observations")
            first, last = np.argmax(finite), len(col) - 1 - np.argmax(finite[::-1])
            if not finite[first:last + 1].all():
                k = first + int(np.argmin(finite[first:last + 1]))
                raise ValueError(
                    f"{name}: interior missing value at {format_quarter(int(self.dates[k]))}")

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise KeyError(f"series {name!r} not in panel") from None
        return self.values[:, j]

    def transformed(self) -> "SeriesPanel":
        """Apply each series' transform; trim leading rows consistently.

        All series lose the same number of leading quarters (the maximum
        over transform codes present) so that rows stay date-aligned.
        """
        trim = max(LEADS_LOST[c] for c in self.tcodes) if self.tcodes else 0
        out = np.full((self.dates.size - trim, len(self.names)), np.nan)
        for j, (name, code) in enumerate(zip(self.names, self.tcodes)):
            z = apply_transform(self.values[:, j], code, name=name, dates=self.dates)
            lost = LEADS_LOST[code]
            out[:, j] = z[trim - lost:] if trim > lost else z
        return SeriesPanel(self.dates[trim:], list(self.names), out,
                           [1] * len(self.names), dict(self.flags))


def _price_span(panel: SeriesPanel, series: str) -> tuple[np.ndarray, np.ndarray]:
    """The price series over its finite span, and the span's dates."""
    prices = panel.column(series)
    finite = np.isfinite(prices)
    lo = int(np.argmax(finite))
    hi = len(prices) - int(np.argmax(finite[::-1]))
    return prices[lo:hi], panel.dates[lo:hi]


def build_target(prices: np.ndarray, horizon: int) -> np.ndarray:
    """Annualized h-quarter log change: (400/h) * ln(P_{t+h}/P_t).

    Entry t covers the span (t, t+h]; the result has ``len(prices) - horizon``
    entries, full-overlap windows only.
    """
    p = np.asarray(prices, dtype=float)
    if horizon < 1:
        raise ValueError("horizon must be a positive number of quarters")
    if horizon >= p.size:
        raise ValueError(f"horizon {horizon} too long for {p.size} price observations")
    if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise TransformError("price index must be finite and strictly positive")
    return (400.0 / horizon) * (np.log(p[horizon:]) - np.log(p[:-horizon]))


@dataclass(frozen=True)
class DatasetSpec:
    """Which predictors enter the design.

    variant : "AR1" (lagged target only), "Moderate" (M-flagged series),
              or "Large" (L-flagged series)
    """

    variant: str
    target_series: str
    horizon: int
    include_expectations: bool = True
    expectations_series: str = "INFEXP"

    def __post_init__(self):
        if self.variant not in ("AR1", "Moderate", "Large"):
            raise ValueError(f"unknown dataset variant {self.variant!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")


@dataclass
class RegressionData:
    """Aligned forecasting design.

    y[t] is realized at ``origin_dates[t] + horizon``; X[t] holds predictor
    values observed at ``origin_dates[t]``, so each row uses only
    information available when the forecast would have been made.
    """

    y: np.ndarray
    X: np.ndarray
    origin_dates: np.ndarray
    horizon: int
    names: list[str]
    x_mean: np.ndarray | None = None
    x_sd: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        self.origin_dates = np.asarray(self.origin_dates, dtype=int)
        T, K = self.X.shape
        if self.y.shape != (T,) or self.origin_dates.shape != (T,):
            raise ValueError("y, X and origin_dates must align row-wise")
        if len(self.names) != K:
            raise ValueError("one name required per predictor column")
        if T and not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise AlignmentError("design contains missing values inside the aligned window")

    @property
    def T(self) -> int:
        return self.y.size

    @property
    def K(self) -> int:
        return self.X.shape[1]


def _selected_names(panel: SeriesPanel, spec: DatasetSpec) -> list[str]:
    flag = {"Moderate": "M", "Large": "L"}[spec.variant]
    names = [n for n in panel.names if flag in panel.flags.get(n, "")]
    if not spec.include_expectations:
        names = [n for n in names if n != spec.expectations_series]
    if not names:
        raise AlignmentError(f"no series carry the {flag!r} membership flag")
    return names


def design_matrix(panel: SeriesPanel, spec: DatasetSpec):
    """Predictor matrix for every date with a complete predictor row.

    Returns (dates, X, names); values are transformed but not standardized.
    For AR1 the single predictor is the most recent realized target value,
    i.e. the h-quarter annualized log price change ending at the row date.
    """
    if spec.variant == "AR1":
        p, pdates = _price_span(panel, spec.target_series)
        past = build_target(p, spec.horizon)
        return pdates[spec.horizon:], past[:, None], ["TARGET_LAG"]
    z = panel.transformed()
    names = _selected_names(panel, spec)
    cols = [z.names.index(n) for n in names]
    X = z.values[:, cols]
    keep = np.all(np.isfinite(X), axis=1)
    return z.dates[keep], X[keep], names


def assemble_regression(panel: SeriesPanel, spec: DatasetSpec, *,
                        end_date: int | None = None,
                        standardize: bool = False) -> RegressionData:
    """Align target and predictors into a complete-case design.

    Rows are kept when the predictor row at the origin date and the target
    realized ``horizon`` quarters later are both available. ``end_date``
    truncates to origin dates at or before it (estimation windows).
    ``standardize`` centers/scales predictor columns using the retained
    rows only; the moments are stored on the result.
    """
    p, pdates = _price_span(panel, spec.target_series)
    if p.size <= spec.horizon:
        raise AlignmentError(f"{spec.target_series}: too short for horizon {spec.horizon}")
    y_full = build_target(p, spec.horizon)
    y_dates = pdates[:-spec.horizon]  # origin date of each target entry

    x_dates, X_full, names = design_matrix(panel, spec)
    common, yi, xi = np.intersect1d(y_dates, x_dates, return_indices=True)
    if end_date is not None:
        keep = common <= end_date
        common, yi, xi = common[keep], yi[keep], xi[keep]
    if common.size == 0:
        raise AlignmentError("target and predictors share no complete rows")
    data = RegressionData(y_full[yi], X_full[xi], common, spec.horizon, names)
    if standardize:
        _standardize_inplace(data)
    return data


def _standardize_inplace(data: RegressionData) -> None:
    mean = data.X.mean(axis=0)
    sd = data.X.std(axis=0)
    flat = sd <= 1e-12
    if flat.any():
        bad = [data.names[j] for j in np.where(flat)[0]]
        warnings.warn(f"constant predictor column(s) left unscaled: {bad}")
        sd = np.where(flat, 1.0, sd)
    data.X = (data.X - mean) / sd
    data.x_mean, data.x_sd = mean, sd


def principal_components(X: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Scores and loadings of the r leading principal components of
    standardized X.

    X must already be standardized column-wise. Loading signs are fixed so
    each component's largest-magnitude loading is positive. Scores are
    X @ loadings, ordered by explained variance.
    """
    X = np.asarray(X, dtype=float)
    T, K = X.shape
    r = int(r)
    if not 1 <= r <= min(T, K):
        raise ValueError(f"cannot extract {r} components from a {T}x{K} matrix")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    V = Vt[:r].T.copy()
    for j in range(r):
        k = int(np.argmax(np.abs(V[:, j])))
        if V[k, j] < 0:
            V[:, j] = -V[:, j]
    return X @ V, V


def load_panel(panel_csv: str, sidecar_csv: str) -> SeriesPanel:
    """Read a raw panel CSV plus its sidecar of transform codes and flags.

    Panel: first column a quarterly date, remaining columns one series each.
    Sidecar: columns name, tcode, and optional M / L membership markers.
    """
    with open(sidecar_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        meta: dict[str, tuple[int, str]] = {}
        for row in reader:
            name = row["name"].strip()
            flags = ""
            for flag in ("M", "L"):
                v = (row.get(flag) or "").strip().lower()
                if v in ("1", "x", "y", "yes", "true"):
                    flags += flag
            meta[name] = (int(row["tcode"]), flags)

    with open(panel_csv, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = [h.strip() for h in header[1:]]
        dates, rows = [], []
        for rec in reader:
            if not rec or not rec[0].strip():
                continue
            dates.append(parse_quarter(rec[0]))
            rows.append([float(v) if v.strip() not in ("", "NA", "NaN") else np.nan
                         for v in rec[1:]])
    missing = [n for n in names if n not in meta]
    if missing:
        raise ValueError(f"sidecar is missing transform codes for: {missing}")
    tcodes = [meta[n][0] for n in names]
    flags = {n: meta[n][1] for n in names}
    return SeriesPanel(np.asarray(dates), names, np.asarray(rows), tcodes, flags)


# ---------------------------------------------------------------------------
# the model grid: what the CLI enumerates and the engine estimates

MEAN_KINDS = ("UC", "Linear", "GP", "GPSub")
ERROR_KINDS = ("Homosk", "DPM", "SV", "DPMSV")
MIN_TRAIN_QUARTERS = 40
PC_BASIS_RANK = 6


@dataclass(frozen=True)
class ModelSpec:
    """One cell of the model grid.

    The dataset specification always travels with the model because it
    names the target series and horizon; the trend model ignores its
    predictor variant.
    """

    mean_kind: str
    error_kind: str
    dataset: DatasetSpec

    def __post_init__(self):
        if self.mean_kind not in MEAN_KINDS:
            raise ValueError(f"unknown mean kind {self.mean_kind!r}")
        if self.error_kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.error_kind!r}")

    @property
    def model_id(self) -> str:
        return f"{self.mean_kind}-{self.error_kind}"

    @property
    def dataset_label(self) -> str:
        # the trend model carries no predictors
        if self.mean_kind == "UC":
            return "none"
        return self.dataset.variant


@dataclass
class McmcConfig:
    """Chain length and proposal-adaptation settings; each cell's seed comes
    from the run's master seed (``derive_cell_seed``)."""

    n_iter: int = 20000
    n_burn: int = 10000
    thin: int = 1
    adapt_window: int = 25
    hyper_step: float = 0.3
    alpha_step: float = 0.5

    def __post_init__(self):
        if not 0 <= self.n_burn < self.n_iter:
            raise ValueError("need 0 <= n_burn < n_iter")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def n_retained(self) -> int:
        return (self.n_iter - self.n_burn + self.thin - 1) // self.thin


def model_grid() -> list[str]:
    """All mean x error identifiers, benchmark (UC-SV) included."""
    return [f"{m}-{e}" for m in MEAN_KINDS for e in ERROR_KINDS]


def derive_cell_seed(master_seed: int, model_id: str, dataset: str, horizon: int,
                     origin: str) -> int:
    """Order-independent per-cell seed from the master seed and cell identity."""
    key = f"{master_seed}|{model_id}|{dataset}|{horizon}|{origin}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:16], "big")


def assemble_target_only(panel, dspec: DatasetSpec) -> RegressionData:
    """Target series alone (no predictors), for the trend benchmark."""
    p, pdates = _price_span(panel, dspec.target_series)
    y = build_target(p, dspec.horizon)
    return RegressionData(y, np.empty((y.size, 0)), pdates[:-dspec.horizon],
                          dspec.horizon, [])


def forecast_origins(data: RegressionData, eval_start: int, eval_end: int) -> list[int]:
    """Origins whose realization date origin+h falls inside the window."""
    h = data.horizon
    return [int(o) for o in data.origin_dates if eval_start <= o + h <= eval_end]
