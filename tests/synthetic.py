"""Deterministic synthetic quarterly panels for the test suite.

Generates a price index with a stochastic inflation trend, a noisy
expectations series, and a block of factor-driven predictor series whose
raw levels invert their assigned stationarity transforms, so the full
pipeline (transform, align, standardize, forecast) can run end to end
without external data.
"""
from __future__ import annotations

import csv

import numpy as np

from bnpforecast.data_pipeline import SeriesPanel, format_quarter, parse_quarter

__all__ = ["synthetic_panel", "write_panel_csv", "DEFAULT_SEED"]

DEFAULT_SEED = 20240615

# transformation codes cycled over the generated predictor block
_TCODE_CYCLE = (5, 2, 1, 6, 5, 4, 2, 7, 1, 3)


def _ar1(rng: np.random.Generator, T: int, rho: float, sd: float) -> np.ndarray:
    x = np.empty(T)
    x[0] = sd * rng.standard_normal() / np.sqrt(1.0 - rho * rho)
    for t in range(1, T):
        x[t] = rho * x[t - 1] + sd * rng.standard_normal()
    return x


def _levels_from_core(core: np.ndarray, code: int) -> np.ndarray:
    """Raw series whose transform under ``code`` recovers (a scaling of) core."""
    s = core
    if code == 1:
        return s.copy()
    if code == 2:
        return np.cumsum(s)
    if code == 3:
        return np.cumsum(np.cumsum(0.25 * s))
    if code == 4:
        return np.exp(4.0 + 0.05 * s)
    if code == 5:
        return np.exp(4.0 + np.cumsum(s) / 100.0)
    if code == 6:
        return np.exp(4.0 + np.cumsum(np.cumsum(s)) / 800.0)
    if code == 7:
        g = 0.01 + np.cumsum(s) / 500.0
        levels = 100.0 * np.cumprod(1.0 + np.clip(g, -0.5, None))
        return levels
    raise ValueError(f"unknown transformation code {code}")


def synthetic_panel(T: int = 200, n_moderate: int = 29, n_large_extra: int = 0,
                    seed: int = DEFAULT_SEED, start: str = "1972Q1") -> SeriesPanel:
    """Build a complete synthetic panel.

    ``n_moderate`` counts the M-flagged series including the price index
    (PRICE, code 6) and the expectations series (INFEXP, code 1); all of
    them are L-flagged too, and ``n_large_extra`` adds L-only series.
    """
    if n_moderate < 3:
        raise ValueError("need at least PRICE, INFEXP and one more series")
    rng = np.random.default_rng(seed)
    start_ord = parse_quarter(start)
    dates = np.arange(start_ord, start_ord + T)

    # inflation: random-walk trend plus persistent cycle, percent annualized
    trend = 3.0 + np.cumsum(0.15 * rng.standard_normal(T))
    cycle = _ar1(rng, T, 0.5, 0.8)
    infl = trend + cycle
    log_p = np.log(50.0) + np.cumsum(infl) / 400.0
    price = np.exp(log_p)

    infexp = trend + 0.2 + 0.3 * rng.standard_normal(T)

    # common factors behind the predictor block
    f2 = _ar1(rng, T, 0.8, 1.0)
    f3 = _ar1(rng, T, 0.4, 1.0)

    names = ["PRICE", "INFEXP"]
    tcodes = [6, 1]
    columns = [price, infexp]
    flags = {"PRICE": "ML", "INFEXP": "ML"}

    n_pred = n_moderate - 2
    for i in range(n_pred + n_large_extra):
        lam = rng.normal(size=3) * np.array([0.6, 1.0, 0.7])
        core = lam[0] * cycle + lam[1] * f2 + lam[2] * f3 + 0.5 * rng.standard_normal(T)
        core = core / max(np.std(core), 1e-12)
        code = _TCODE_CYCLE[i % len(_TCODE_CYCLE)]
        name = f"SER{i + 1:02d}"
        names.append(name)
        tcodes.append(code)
        columns.append(_levels_from_core(core, code))
        flags[name] = "ML" if i < n_pred else "L"

    values = np.column_stack(columns)
    return SeriesPanel(dates, names, values, tcodes, flags)


def write_panel_csv(panel: SeriesPanel, panel_path: str, sidecar_path: str) -> None:
    """Write a panel and its sidecar in the layout the loader expects."""
    with open(panel_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date"] + panel.names)
        for t in range(panel.dates.size):
            row = [format_quarter(int(panel.dates[t]))]
            for v in panel.values[t]:
                row.append("" if not np.isfinite(v) else repr(float(v)))
            w.writerow(row)
    with open(sidecar_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "tcode", "M", "L"])
        for name, code in zip(panel.names, panel.tcodes):
            fl = panel.flags.get(name, "")
            w.writerow([name, code, "1" if "M" in fl else "", "1" if "L" in fl else ""])
