"""Workload definitions and the seeded synthetic inputs they run on.

Each workload is a quarterly panel, generated here from a fixed seed,
plus one experiment config for the CLI whose master seed is the
benchmark's ``--seed``. The generator is the benchmark's own, not the
package's, so that a change to the package cannot change the inputs it
is measured on.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

START_QUARTER = 1972 * 4  # 1972Q1 as a quarter ordinal (year * 4 + quarter - 1)
TCODE_CYCLE = (5, 2, 1, 6, 4, 7, 3)  # codes given to the predictor block, in turn
GRID_MODELS = [f"{m}-{e}" for m in ("UC", "Linear", "GP", "GPSub")
               for e in ("Homosk", "DPM", "SV", "DPMSV")]
UC_MODELS = [m for m in GRID_MODELS if m.startswith("UC-")]
WORKERS = 2

# panel: rows T, series n (PRICE and INFEXP included, all Moderate-flagged) and
# the generator's seed.  The panel is fixed per workload and --seed drives the
# chains: drawn afresh per seed, the predictors' conditioning alone moved
# summarize-lasso from 1.8 s to 6.9 s over five seeds.
# eval_last: outcome quarters scored, counted back from the panel's last date;
# lasso_models: models whose cells summarize-lasso sees (None: all).  Only
# regression models with more origins than predictors give well-posed fits.
WORKLOADS = {
    "grid16": {
        "panel": {"T": 200, "n": 29, "seed": 101},
        "models": GRID_MODELS, "horizons": [1], "eval_last": 1,
        "mcmc": {"n_iter": 100, "n_burn": 20},
        "lasso_models": UC_MODELS,
    },
    "summaries": {
        "panel": {"T": 110, "n": 6, "seed": 103},
        "models": ["UC-SV", "Linear-Homosk"], "horizons": [1], "eval_last": 24,
        "mcmc": {"n_iter": 60, "n_burn": 10},
        "lasso_models": None,
    },
}


def format_quarter(ordinal: int) -> str:
    year, rem = divmod(int(ordinal), 4)
    return f"{year}Q{rem + 1}"


def parse_quarter(text: str) -> int:
    year, q = text.split("Q")
    return int(year) * 4 + int(q) - 1


def _ar1(rng, T: int, rho: float, sd: float) -> np.ndarray:
    x = np.empty(T)
    x[0] = sd * rng.standard_normal() / np.sqrt(1.0 - rho * rho)
    for t in range(1, T):
        x[t] = rho * x[t - 1] + sd * rng.standard_normal()
    return x


def _raw_levels(z: np.ndarray, code: int) -> np.ndarray:
    """A raw series whose stationarity transform under ``code`` is a scaling of z."""
    if code == 1:
        return z.copy()
    if code == 2:
        return np.cumsum(z)
    if code == 3:
        return np.cumsum(np.cumsum(0.2 * z))
    if code == 4:
        return np.exp(3.0 + 0.05 * z)
    if code == 5:
        return np.exp(3.0 + np.cumsum(z) / 100.0)
    if code == 6:
        return np.exp(3.0 + np.cumsum(np.cumsum(z)) / 1000.0)
    growth = np.clip(0.01 + np.cumsum(z) / 600.0, -0.5, None)  # code 7
    return 100.0 * np.cumprod(1.0 + growth)


def make_panel(T: int, n: int, seed: int):
    """(dates, names, values, tcodes): inflation with a random-walk trend and an
    AR(1) cycle, a noisy survey expectation, and n - 2 factor-driven predictors."""
    rng = np.random.default_rng(seed)
    trend = 3.0 + np.cumsum(0.15 * rng.standard_normal(T))
    cycle = _ar1(rng, T, 0.5, 0.8)
    price = 50.0 * np.exp(np.cumsum(trend + cycle) / 400.0)
    infexp = trend + 0.2 + 0.3 * rng.standard_normal(T)
    f2, f3 = _ar1(rng, T, 0.8, 1.0), _ar1(rng, T, 0.4, 1.0)
    names, tcodes, cols = ["PRICE", "INFEXP"], [6, 1], [price, infexp]
    for i in range(n - 2):
        load = rng.normal(size=3)
        z = load[0] * cycle + load[1] * f2 + load[2] * f3 + 0.5 * rng.standard_normal(T)
        code = TCODE_CYCLE[i % len(TCODE_CYCLE)]
        names.append(f"X{i + 1:02d}")
        tcodes.append(code)
        cols.append(_raw_levels(z / z.std(), code))
    dates = np.arange(START_QUARTER, START_QUARTER + T)
    return dates, names, np.column_stack(cols), tcodes


def write_inputs(workload: str, seed: int, work: str) -> dict:
    """Write the panel, the sidecar and the configs of one workload; return the
    plan. ``seed`` is the master seed of the chains."""
    spec = WORKLOADS[workload]
    dates, names, values, tcodes = make_panel(**spec["panel"])
    os.makedirs(work, exist_ok=True)
    panel_csv = os.path.join(work, "panel.csv")
    sidecar_csv = os.path.join(work, "sidecar.csv")
    with open(panel_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date"] + names)
        for t, d in enumerate(dates):
            w.writerow([format_quarter(d)] + [repr(float(v)) for v in values[t]])
    with open(sidecar_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "tcode", "M", "L"])
        for name, code in zip(names, tcodes):
            w.writerow([name, code, "1", "1"])
    last = int(dates[-1])
    out_dir = os.path.join(work, "out")
    config = {
        "panel": panel_csv, "sidecar": sidecar_csv, "target": "PRICE",
        "out_dir": out_dir,
        "eval_start": format_quarter(last - spec["eval_last"] + 1),
        "eval_end": format_quarter(last),
        "datasets": ["Moderate"], "models": list(spec["models"]),
        "horizons": list(spec["horizons"]), "mcmc": dict(spec["mcmc"]),
        "seed": seed, "workers": WORKERS,
    }
    lasso_dir = out_dir if spec["lasso_models"] is None else os.path.join(work, "lasso_view")
    plan = {"workload": workload, "seed": seed, "work": work,
            "config": os.path.join(work, "config.json"),
            "lasso_config": os.path.join(work, "lasso_config.json"),
            "out_dir": out_dir, "lasso_dir": lasso_dir,
            "lasso_models": spec["lasso_models"]}
    with open(plan["config"], "w") as fh:
        json.dump(config, fh, indent=1)
    with open(plan["lasso_config"], "w") as fh:
        json.dump(dict(config, out_dir=lasso_dir), fh, indent=1)
    return plan


def fill_lasso_view(plan: dict, out_dir: str, lasso_dir: str) -> None:
    """Copy the cells of the workload's lasso models into their own directory."""
    if plan["lasso_models"] is None:
        return
    cells = os.path.join(lasso_dir, "cells")
    os.makedirs(cells, exist_ok=True)
    src = os.path.join(out_dir, "cells")
    for name in sorted(os.listdir(src)):
        if name.split("_", 1)[0] in plan["lasso_models"]:
            with open(os.path.join(src, name), "rb") as fi, \
                    open(os.path.join(cells, name), "wb") as fo:
                fo.write(fi.read())
