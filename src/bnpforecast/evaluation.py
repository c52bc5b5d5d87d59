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

from .data_pipeline import AlignmentError, format_quarter, parse_quarter

__all__ = [
    "P_GRID",
    "SUBSAMPLE_WINDOWS",
    "ScorePanel",
    "PitSeries",
    "quantile_score",
    "log_pred_likelihood",
    "relative_table",
    "cumulative_path",
    "subsample_average",
    "pit_compute",
    "rs_diagnostic",
    "kolmogorov_halfwidth",
    "write_scores_csv",
    "write_relative_table_csv",
    "write_cumulative_csv",
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


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a non-empty 1-D float array, rounded as scipy
    1.17's ``special.logsumexp`` rounds it: log1p(s/m) + log(m) + max, where
    m entries tie at the max and s sums exp(a - max) over the others."""
    a_max = a.max()
    tie = a == a_max
    m = float(np.count_nonzero(tie))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(tie, -np.inf, a) - a_max))
        out = np.log1p(s / m) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def log_pred_likelihood(mixture, y: float) -> float:
    """Log of the draw-averaged Gaussian mixture density at the outcome.

    ``mixture`` is a predictive's flat (log weights, means, variances)
    arrays, ``PredictiveDraws.mixture``: each retained draw's analytic
    predictive density (a weight mixture of Gaussians for the
    nonparametric error kinds), its log weights less log n for n draws.
    Evaluation is in log space throughout.
    """
    logw, means, vars_ = (np.asarray(a, dtype=float) for a in mixture)
    if means.size == 0:
        raise ValueError("at least one predictive component required")
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
    return _logsumexp(logw + logpdf)


def pit_compute(draws: np.ndarray, y: float, rng: np.random.Generator | None = None) -> float:
    """Fraction of draws below the outcome, ties broken uniformly at random."""
    d = np.asarray(draws, dtype=float)
    below = int(np.sum(d < y))
    ties = int(np.sum(d == y))
    if ties:
        u = 0.5 if rng is None else float(rng.uniform())
        below += u * ties
    return float(below / d.size)


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
                      benchmark_scores: np.ndarray) -> dict[str, float]:
    """Per-window ratios of mean scores against the benchmark.

    The windows are ``SUBSAMPLE_WINDOWS``, (label, start, end) with
    inclusive quarter bounds on the outcome dates; empty windows are
    omitted with a warning.
    """
    dates = np.asarray(dates)
    s = np.asarray(scores, dtype=float)
    b = np.asarray(benchmark_scores, dtype=float)
    if s.size != b.size or s.size != dates.size:
        raise AlignmentError("subsample averages require aligned series")
    out: dict[str, float] = {}
    for label, start, end in SUBSAMPLE_WINDOWS:
        lo, hi = parse_quarter(start), parse_quarter(end)
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


def rs_diagnostic(pits: np.ndarray | PitSeries):
    """QQ points of the PIT empirical CDF against the uniform, with a band.

    Returns (grid, empirical CDF at grid, band half-width) on the grid
    0, 0.01, ..., 1 with the 5% band: calibrated forecasts keep the
    empirical CDF within +/- the half-width of the 45 degree line.
    """
    v = pits.values if isinstance(pits, PitSeries) else np.asarray(pits, dtype=float)
    grid = np.linspace(0.0, 1.0, 101)
    ecdf = np.array([np.mean(v <= r) for r in grid])
    return grid, ecdf, kolmogorov_halfwidth(v.size)


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


def write_calibration_csv(path, grid: np.ndarray, ecdf: np.ndarray, half: float) -> None:
    header = ["grid", "ecdf", "lower", "upper"]
    rows = [[_fmt(float(g)), _fmt(float(e)), _fmt(float(g - half)), _fmt(float(g + half))]
            for g, e in zip(grid, ecdf)]
    _write_rows(path, header, rows)
