"""Scoring and diagnostics for predictive distributions.

Per-origin squared errors, Rao-Blackwellized log predictive likelihoods,
quantile (tick-loss) scores, tables relative to a benchmark model,
cumulative score paths, subsample averages, and PIT-based calibration
diagnostics with an iid Kolmogorov band.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .data_pipeline import AlignmentError, format_quarter, parse_quarter

__all__ = [
    "P_GRID",
    "SUBSAMPLE_WINDOWS",
    "ScorePanel",
    "PitSeries",
    "quantile_score",
    "log_pred_likelihood",
    "mse",
    "score_forecasts",
    "relative_table",
    "cumulative_path",
    "subsample_average",
    "pit_compute",
    "rs_diagnostic",
    "kolmogorov_halfwidth",
    "write_scores_csv",
    "write_relative_table_csv",
    "write_cumulative_csv",
    "write_subsample_csv",
    "write_calibration_csv",
]

# probability levels of every predictive quantile the package reports,
# scores and summarizes
P_GRID = (0.05, 0.1, 0.5, 0.9, 0.95)

# decade-style evaluation subwindows (outcome dates, inclusive)
SUBSAMPLE_WINDOWS = (
    ("1980-1990", "1980Q1", "1990Q4"),
    ("1991-2000", "1991Q1", "2000Q4"),
    ("2001-2010", "2001Q1", "2010Q4"),
    ("2011-2021", "2011Q1", "2021Q4"),
)

_FMT = "%.10g"


@dataclass
class ScorePanel:
    """Per-origin scores for one model."""

    model_id: str
    origin_dates: np.ndarray
    y_true: np.ndarray
    sq_errors: np.ndarray
    lpls: np.ndarray
    qs: dict[float, np.ndarray]
    horizon: int = 1

    def __post_init__(self):
        n = self.origin_dates.size
        for name in ("y_true", "sq_errors", "lpls"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} length must match the origin count")
        for p, arr in self.qs.items():
            if arr.size != n:
                raise ValueError(f"quantile scores at p={p} misaligned")
            if np.any(arr < 0.0):
                raise ValueError("quantile scores must be nonnegative")

    @property
    def n(self) -> int:
        return self.origin_dates.size


@dataclass
class PitSeries:
    """Per-origin probability integral transforms."""

    model_id: str
    origin_dates: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.size != self.origin_dates.size:
            raise ValueError("PIT length must match the origin count")
        if np.any((self.values < 0.0) | (self.values > 1.0)):
            raise ValueError("PIT values must lie in [0,1]")


def quantile_score(y: float, q: float, p: float) -> float:
    """Tick loss (y - Q_p)(p - 1{y <= Q_p}); nonnegative, zero iff y = Q_p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    return (y - q) * (p - (1.0 if y <= q else 0.0))


def _flatten_components(draw_components):
    """Expand per-draw predictive components into flat (logw, mean, var) arrays.

    Accepts per draw either a scalar triple (mean, offset, variance) or a
    weighted mixture (mean, offsets, variances, weights).
    """
    logw, means, vars_ = [], [], []
    n = len(draw_components)
    if n == 0:
        raise ValueError("at least one predictive draw required")
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


def log_pred_likelihood(draw_components, y: float) -> float:
    """Log of the draw-averaged Gaussian mixture density at the outcome.

    Each retained draw contributes its analytic predictive density (a
    weight mixture of Gaussians for the nonparametric error kinds);
    evaluation is in log space throughout.
    """
    logw, means, vars_ = _flatten_components(draw_components)
    dev = float(y) - means
    zero = vars_ <= 0.0
    if np.any(zero):
        if np.any(zero & (dev == 0.0)):
            return math.inf
        keep = ~zero
        if not np.any(keep):
            return -math.inf
        logw, dev, vars_ = logw[keep], dev[keep], vars_[keep]
    logpdf = -0.5 * (np.log(2.0 * math.pi * vars_) + dev * dev / vars_)
    return float(logsumexp(logw + logpdf))


def mse(errors) -> float:
    """Mean squared error of a vector of forecast errors."""
    e = np.asarray(errors, dtype=float)
    return float(np.mean(e * e))


def pit_compute(draws: np.ndarray, y: float, rng: np.random.Generator | None = None) -> float:
    """Fraction of draws below the outcome, ties broken uniformly at random."""
    d = np.asarray(draws, dtype=float)
    below = int(np.sum(d < y))
    ties = int(np.sum(d == y))
    if ties:
        u = 0.5 if rng is None else float(rng.uniform())
        below += u * ties
    return float(below / d.size)


def score_forecasts(model_id: str, preds, rng: np.random.Generator | None = None,
                    p_grid=P_GRID) -> tuple[ScorePanel, PitSeries]:
    """Score a list of per-origin predictive draws against realized outcomes."""
    preds = [p for p in preds if p.y_true is not None]
    if not preds:
        raise ValueError("no scored origins: realized outcomes missing")
    dates = np.array([p.origin_date for p in preds], dtype=int)
    y = np.array([p.y_true for p in preds], dtype=float)
    point = np.array([p.point for p in preds], dtype=float)
    lpls = np.array([log_pred_likelihood(p.components, p.y_true) for p in preds])
    qs = {p: np.array([quantile_score(pr.y_true, pr.quantiles[p], p) for pr in preds])
          for p in p_grid}
    pits = np.array([pit_compute(pr.draws, pr.y_true, rng) for pr in preds])
    panel = ScorePanel(model_id=model_id, origin_dates=dates, y_true=y,
                       sq_errors=(y - point) ** 2, lpls=lpls, qs=qs,
                       horizon=preds[0].horizon)
    return panel, PitSeries(model_id=model_id, origin_dates=dates, values=pits)


def _check_aligned(panel: ScorePanel, benchmark: ScorePanel) -> None:
    if panel.origin_dates.size != benchmark.origin_dates.size or \
            np.any(panel.origin_dates != benchmark.origin_dates):
        raise AlignmentError(
            f"origins of {panel.model_id} do not match benchmark {benchmark.model_id}")


def relative_table(panels: dict[str, ScorePanel], benchmark_id: str) -> list[dict]:
    """Rows of MSE ratios and mean-LPL differences against the benchmark.

    Ratio/difference columns are computed for every model including the
    benchmark itself (exactly 1 and 0 there); level columns carry the raw
    benchmark-comparable values.
    """
    if benchmark_id not in panels:
        raise ValueError(f"benchmark {benchmark_id!r} missing from panels")
    bench = panels[benchmark_id]
    bench_mse = float(np.mean(bench.sq_errors))
    bench_lpl = float(np.mean(bench.lpls))
    rows = []
    for model_id in sorted(panels):
        panel = panels[model_id]
        _check_aligned(panel, bench)
        row = {
            "model": model_id,
            "mse_ratio": float(np.mean(panel.sq_errors)) / bench_mse,
            "lpl_diff": float(np.mean(panel.lpls)) - bench_lpl,
            "mse_level": float(np.mean(panel.sq_errors)),
            "lpl_level": float(np.mean(panel.lpls)),
        }
        for p in sorted(panel.qs):
            denom = float(np.mean(bench.qs[p]))
            row[f"qs_ratio_{p:g}"] = float(np.mean(panel.qs[p])) / denom
        rows.append(row)
    return rows


def cumulative_path(scores: np.ndarray, benchmark_scores: np.ndarray,
                    lower_is_better: bool = False) -> np.ndarray:
    """Running sum of per-origin score differences, oriented so up = better."""
    s = np.asarray(scores, dtype=float)
    b = np.asarray(benchmark_scores, dtype=float)
    if s.size != b.size:
        raise AlignmentError("cumulative path requires aligned score series")
    diff = (b - s) if lower_is_better else (s - b)
    return np.cumsum(diff)


def subsample_average(dates: np.ndarray, scores: np.ndarray,
                      benchmark_scores: np.ndarray,
                      windows=SUBSAMPLE_WINDOWS) -> dict[str, float]:
    """Per-window ratios of mean scores against the benchmark.

    Windows are (label, start, end) with inclusive quarter bounds on the
    outcome dates; empty windows are omitted with a warning.
    """
    dates = np.asarray(dates)
    s = np.asarray(scores, dtype=float)
    b = np.asarray(benchmark_scores, dtype=float)
    if s.size != b.size or s.size != dates.size:
        raise AlignmentError("subsample averages require aligned series")
    out: dict[str, float] = {}
    for label, start, end in windows:
        lo = parse_quarter(start) if isinstance(start, str) else start
        hi = parse_quarter(end) if isinstance(end, str) else end
        mask = (dates >= lo) & (dates <= hi)
        if not np.any(mask):
            warnings.warn(f"subsample window {label} contains no origins; omitted")
            continue
        out[label] = float(np.mean(s[mask])) / float(np.mean(b[mask]))
    return out


def kolmogorov_halfwidth(n: int, level: float = 0.05) -> float:
    """Asymptotic Kolmogorov band half-width c(level)/sqrt(n) under iid uniformity."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0,1)")
    return math.sqrt(-math.log(level / 2.0) / 2.0) / math.sqrt(n)


def rs_diagnostic(pits: np.ndarray | PitSeries, grid: np.ndarray | None = None,
                  level: float = 0.05):
    """QQ points of the PIT empirical CDF against the uniform, with a band.

    Returns (grid, empirical CDF at grid, band half-width): calibrated
    forecasts keep the empirical CDF within +/- the half-width of the 45
    degree line.
    """
    v = pits.values if isinstance(pits, PitSeries) else np.asarray(pits, dtype=float)
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    grid = np.asarray(grid, dtype=float)
    ecdf = np.array([np.mean(v <= r) for r in grid])
    return grid, ecdf, kolmogorov_halfwidth(v.size, level)


# ---------------------------------------------------------------------------
# plot-ready CSV emitters (deterministic formatting)


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return _FMT % x
    return str(x)


def write_scores_csv(path, panel: ScorePanel, pits: PitSeries | None = None) -> None:
    header = ["origin", "y_true", "sq_error", "lpl"]
    header += [f"qs_{p:g}" for p in sorted(panel.qs)]
    if pits is not None:
        header.append("pit")
    rows = []
    for i, d in enumerate(panel.origin_dates):
        row = [format_quarter(int(d)), _fmt(float(panel.y_true[i])),
               _fmt(float(panel.sq_errors[i])), _fmt(float(panel.lpls[i]))]
        row += [_fmt(float(panel.qs[p][i])) for p in sorted(panel.qs)]
        if pits is not None:
            row.append(_fmt(float(pits.values[i])))
        rows.append(row)
    _write_rows(path, header, rows)


def write_relative_table_csv(path, rows: list[dict]) -> None:
    if not rows:
        _write_rows(path, ["model"], [])
        return
    header = list(rows[0].keys())
    _write_rows(path, header, [[_fmt(r[k]) for k in header] for r in rows])


def write_cumulative_csv(path, dates: np.ndarray, paths: dict[str, np.ndarray]) -> None:
    models = sorted(paths)
    header = ["origin"] + models
    rows = []
    for i, d in enumerate(dates):
        rows.append([format_quarter(int(d))] + [_fmt(float(paths[m][i])) for m in models])
    _write_rows(path, header, rows)


def write_subsample_csv(path, table: dict[str, dict[str, float]]) -> None:
    """table: model -> {window label -> ratio}."""
    labels: list[str] = []
    for per_model in table.values():
        for lab in per_model:
            if lab not in labels:
                labels.append(lab)
    header = ["model"] + labels
    rows = []
    for model in sorted(table):
        rows.append([model] + [_fmt(table[model].get(lab, float("nan"))) for lab in labels])
    _write_rows(path, header, rows)


def write_calibration_csv(path, grid: np.ndarray, ecdf: np.ndarray, half: float) -> None:
    header = ["grid", "ecdf", "lower", "upper"]
    rows = [[_fmt(float(g)), _fmt(float(e)), _fmt(float(g - half)), _fmt(float(g + half))]
            for g, e in zip(grid, ecdf)]
    _write_rows(path, header, rows)
