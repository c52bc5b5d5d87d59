"""Output checks made apart from the package.

Every expected value is recomputed here from the raw panel CSV, the
draws files and the benchmark's own formulas; nothing is imported from
``bnpforecast`` and nothing is compared with a stored copy of an earlier
run. Each check returns a list of error strings, empty when it passes.
``self_test`` plants one error at a time in a loaded run and confirms
that the matching check flags it.
"""
from __future__ import annotations

import copy
import csv
import glob
import hashlib
import json
import math
import os

import numpy as np

from workloads import format_quarter, parse_quarter

P_GRID = (0.05, 0.1, 0.5, 0.9, 0.95)
BENCH_MODEL = "UC-SV"
MIN_TRAIN = 40  # the config default; no workload overrides it
LEADS_LOST = {1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2, 7: 2}
REL_TOL = 1e-9   # values the program writes with repr or %.10g
# KKT slack: a share of the largest penalty lambda_max = 2 max|X'q|, plus ten
# times the gradient the solver's stopping rule leaves (2 n * 1e-8 on
# unit-variance columns, as coordinate changes stop below 1e-8).
KKT_TOL = 1e-6
KKT_FLOOR_PER_ROW = 2e-7


def close(a: float, b: float, rel: float | None = None) -> bool:
    return abs(a - b) <= (REL_TOL if rel is None else rel) * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# loading


def read_panel(panel_csv: str, sidecar_csv: str) -> dict:
    with open(panel_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    dates = np.array([parse_quarter(r[0]) for r in rows[1:]])
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    with open(sidecar_csv, newline="") as fh:
        side = {r["name"]: r for r in csv.DictReader(fh)}
    tcodes = [int(side[n]["tcode"]) for n in names]
    moderate = [j for j, n in enumerate(names) if side[n]["M"] == "1"]
    return {"names": names, "dates": dates, "values": values, "tcodes": tcodes,
            "moderate": moderate}


def load_output(out_dir: str, lasso_dir: str) -> dict:
    """Everything a run, a report and a summary left on disk."""
    records = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "cells", "*.json"))):
        with open(path) as fh:
            records[os.path.basename(path)[:-5]] = json.load(fh)
    draws = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "draws", "*.csv"))):
        with open(path) as fh:
            lines = fh.read().split()
        draws[os.path.basename(path)[:-4]] = (lines[0], [float(v) for v in lines[1:]])
    manifest = None
    if os.path.exists(os.path.join(out_dir, "manifest.json")):
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
    table1 = None
    if os.path.exists(os.path.join(out_dir, "table1.csv")):
        with open(os.path.join(out_dir, "table1.csv"), newline="") as fh:
            table1 = list(csv.DictReader(fh))
    lasso, r2 = {}, {}
    for path in glob.glob(os.path.join(lasso_dir, "lasso_h*.csv")):
        with open(path, newline="") as fh:
            lasso[int(os.path.basename(path)[7:-4])] = list(csv.DictReader(fh))
    for path in glob.glob(os.path.join(lasso_dir, "r2_h*.csv")):
        with open(path, newline="") as fh:
            r2[int(os.path.basename(path)[4:-4])] = list(csv.DictReader(fh))
    return {"records": records, "draws": draws, "manifest": manifest,
            "table1": table1, "lasso": lasso, "r2": r2}


def digests(out_dir: str) -> dict:
    """sha256 of every draws and cells file, keyed by relative path."""
    out = {}
    for sub in ("draws", "cells"):
        for path in sorted(glob.glob(os.path.join(out_dir, sub, "*"))):
            with open(path, "rb") as fh:
                out[f"{sub}/{os.path.basename(path)}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# the grid the config implies


def _is_uc(model: str) -> bool:
    return model.startswith("UC-")


def origins_for(panel: dict, config: dict, h: int, uc: bool) -> list[int]:
    """Origins scored at horizon h: the outcome o + h falls in the evaluation
    window and at least MIN_TRAIN earlier targets are realized by o."""
    dates = panel["dates"]
    first = 0 if uc else max(LEADS_LOST[c] for c in panel["tcodes"])
    usable = dates[first:dates.size - h]  # a predictor row and a realized target
    start, end = parse_quarter(config["eval_start"]), parse_quarter(config["eval_end"])
    return [int(o) for o in usable
            if start <= o + h <= end and int(np.sum(usable <= o - h)) >= MIN_TRAIN]


def expected_cells(panel: dict, config: dict) -> dict:
    """cell id -> (model, dataset, horizon, origin)."""
    out = {}
    for h in config["horizons"]:
        for model in config["models"]:
            uc = _is_uc(model)
            ds = "none" if uc else config["datasets"][0]
            for o in origins_for(panel, config, h, uc):
                out[f"{model}_{ds}_{h}_{format_quarter(o)}"] = (model, ds, h, o)
    return out


def _target(panel: dict, origin: int, h: int) -> float:
    price = panel["values"][:, panel["names"].index("PRICE")]
    i = int(np.searchsorted(panel["dates"], origin))
    return 400.0 / h * math.log(price[i + h] / price[i])


def _quantile(sorted_draws: np.ndarray, p: float) -> float:
    pos = p * (sorted_draws.size - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, sorted_draws.size - 1)
    return float(sorted_draws[lo] + (sorted_draws[hi] - sorted_draws[lo]) * (pos - lo))


def _tick(y: float, q: float, p: float) -> float:
    return (y - q) * (p - (1.0 if y <= q else 0.0))


# ---------------------------------------------------------------------------
# checks


def check_manifest(out: dict, expected: dict) -> list[str]:
    """The manifest lists exactly the expected cells (their statuses are
    checked cell by cell)."""
    if out["manifest"] is None:
        return ["manifest.json missing"]
    got = {c["cell"] for c in out["manifest"]["cells"]}
    if got == set(expected):
        return []
    return [f"manifest cells {len(got)} != expected {len(expected)}: "
            f"missing {sorted(set(expected) - got)[:3]}, extra {sorted(got - set(expected))[:3]}"]


def check_cell(out: dict, panel: dict, cell_id: str, cell: tuple) -> list[str]:
    """One cell's record against its draws and the raw panel."""
    model, ds, h, origin = cell
    rec = out["records"].get(cell_id)
    if rec is None or cell_id not in out["draws"]:
        return [f"{cell_id}: record or draws missing"]
    errs = []
    want = {"model": model, "dataset": ds, "horizon": h, "origin": format_quarter(origin),
            "realization": format_quarter(origin + h)}
    errs += [f"{cell_id}: {k} {rec.get(k)!r} != {v!r}" for k, v in want.items()
             if rec.get(k) != v]
    y = _target(panel, origin, h)
    if not close(rec["y_true"], y):
        errs.append(f"{cell_id}: y_true {rec['y_true']!r} != {y!r}")
    header, values = out["draws"][cell_id]
    d = np.array(values)
    if header != "draw" or d.size != rec["n_draws"] or d.size == 0 \
            or not np.all(np.isfinite(d)):
        return errs + [f"{cell_id}: draws file does not hold {rec['n_draws']} finite draws"]
    point = math.fsum(values) / d.size
    if not close(rec["point"], point):
        errs.append(f"{cell_id}: point {rec['point']!r} != mean of draws {point!r}")
    if not close(rec["sq_error"], (rec["y_true"] - rec["point"]) ** 2):
        errs.append(f"{cell_id}: sq_error does not match (y_true - point)^2")
    if sorted(rec["quantiles"]) != sorted("%g" % p for p in P_GRID) \
            or sorted(rec["qs"]) != sorted(rec["quantiles"]):
        return errs + [f"{cell_id}: quantile levels {sorted(rec['quantiles'])}"]
    s = np.sort(d)
    for p in P_GRID:
        key = "%g" % p
        q = _quantile(s, p)
        if not close(rec["quantiles"][key], q):
            errs.append(f"{cell_id}: quantile {key} {rec['quantiles'][key]!r} != {q!r}")
        if not close(rec["qs"][key], _tick(rec["y_true"], q, p)):
            errs.append(f"{cell_id}: qs {key} {rec['qs'][key]!r} != tick loss")
    below, ties = int(np.sum(d < rec["y_true"])), int(np.sum(d == rec["y_true"]))
    if not below / d.size <= rec["pit"] <= (below + ties) / d.size:
        errs.append(f"{cell_id}: pit {rec['pit']!r} != {below}/{d.size}")
    if not math.isfinite(rec["lpl"]):
        errs.append(f"{cell_id}: lpl {rec['lpl']!r} not finite")
    return errs


def model_key(model: str, ds: str) -> str:
    return model if ds == "none" else f"{model}[{ds}]"


def _by_model(out: dict, expected: dict, h: int) -> dict:
    """model key -> records at horizon h, sorted by origin."""
    groups: dict = {}
    for cid, (model, ds, hh, o) in sorted(expected.items(), key=lambda kv: kv[1][3]):
        if hh == h and cid in out["records"]:
            groups.setdefault(model_key(model, ds), []).append(out["records"][cid])
    return groups


def check_table1(out: dict, expected: dict, config: dict) -> list[str]:
    """Rows are the requested models; every ratio is recomputed from the cells."""
    rows = out["table1"]
    if rows is None:
        return ["table1.csv missing"]
    errs = []
    for h in config["horizons"]:
        groups = _by_model(out, expected, h)
        got = {r["model"]: r for r in rows if int(r["horizon"]) == h}
        if set(got) != set(groups):
            errs.append(f"h={h}: table1 models {sorted(got)} != {sorted(groups)}")
            continue
        bench = groups[BENCH_MODEL]
        b = {"sq": np.mean([r["sq_error"] for r in bench]),
             "lpl": np.mean([r["lpl"] for r in bench])}
        for m, recs in groups.items():
            row = got[m]
            if row["status"] != "ok":
                errs.append(f"h={h} {m}: status {row['status']}")
            sq = float(np.mean([r["sq_error"] for r in recs]))
            lpl = float(np.mean([r["lpl"] for r in recs]))
            want = {"mse_ratio": sq / b["sq"], "lpl_diff": lpl - b["lpl"],
                    "mse_level": sq, "lpl_level": lpl}
            for p in P_GRID:
                key = "%g" % p
                want[f"qs_ratio_{key}"] = (np.mean([r["qs"][key] for r in recs])
                                           / np.mean([r["qs"][key] for r in bench]))
            for col, v in want.items():
                if col not in row or not close(float(row[col]), float(v)):
                    errs.append(f"h={h} {m}: {col} {row.get(col)!r} != {v:.10g}")
            if m == BENCH_MODEL:
                for col in ["mse_ratio", "lpl_diff"] + [f"qs_ratio_{p:g}" for p in P_GRID]:
                    v = 0.0 if col == "lpl_diff" else 1.0
                    if float(row[col]) != v:
                        errs.append(f"h={h} {m}: {col} {row[col]!r} is not exactly {v:g}")
    return errs


def _transformed(x: np.ndarray, code: int) -> np.ndarray:
    """Stationarity transform aligned to the input dates (NaN where history is short)."""
    if code == 7:
        z = np.diff(x[1:] / x[:-1] - 1.0)
    else:  # codes 1-6: a level or a log, differenced once per quarter lost
        z = np.log(x) if code in (4, 5, 6) else x
        for _ in range(LEADS_LOST[code]):
            z = np.diff(z)
    return np.concatenate([np.full(x.size - z.size, np.nan), z])


def check_lasso(out: dict, panel: dict, config: dict, lasso_models) -> list[str]:
    """Every fit meets the LASSO optimality (KKT) conditions at its reported
    penalty and coefficients, and its r2 is the recomputed one.

    The objective is sum (q - X b)^2 + lam * sum |b| over standardized
    predictors and a centered quantile path, so at the optimum
    2 X_j'r = lam * sign(b_j) where b_j != 0 and |2 X_j'r| <= lam elsewhere.
    """
    errs = []
    cols = panel["moderate"]
    names = [panel["names"][j] for j in cols]
    Z = np.column_stack([_transformed(panel["values"][:, j], panel["tcodes"][j])
                         for j in cols])
    for h in config["horizons"]:
        if h not in out["r2"] or h not in out["lasso"]:
            errs.append(f"h={h}: lasso_h{h}.csv or r2_h{h}.csv missing")
            continue
        models = [m for m in config["models"] if not _is_uc(m)
                  and (lasso_models is None or m in lasso_models)]
        want = {(model_key(m, config["datasets"][0]), "%g" % p) for m in models for p in P_GRID}
        r2 = {(r["model"], r["p"]): r for r in out["r2"][h]}
        if set(r2) != want:
            errs.append(f"h={h}: r2 fits {sorted(r2)} != {sorted(want)}")
            continue
        coefs: dict = {}
        for r in out["lasso"][h]:
            coefs.setdefault((r["model"], r["p"]), {})[r["variable"]] = float(r["coefficient"])
        for m in models:
            recs = sorted((r for r in out["records"].values()
                           if r["model"] == m and r["horizon"] == h),
                          key=lambda r: parse_quarter(r["origin"]))
            idx = np.searchsorted(panel["dates"], [parse_quarter(r["origin"]) for r in recs])
            X = Z[idx]
            sd = X.std(axis=0)
            Xs = (X - X.mean(axis=0)) / np.where(sd > 0.0, sd, 1.0)
            key = model_key(m, config["datasets"][0])
            for p in P_GRID:
                fit = r2[(key, "%g" % p)]
                lam = float(fit["lambda"])
                q = np.array([r["quantiles"]["%g" % p] for r in recs])
                qc = q - q.mean()
                beta = np.zeros(len(names))
                for name, b in coefs.get((key, "%g" % p), {}).items():
                    beta[names.index(name)] = b
                if int(fit["n_active"]) != int(np.count_nonzero(beta)):
                    errs.append(f"{key} p={p:g}: n_active {fit['n_active']} != "
                                f"{np.count_nonzero(beta)}")
                resid = qc - Xs @ beta
                grad = 2.0 * Xs.T @ resid
                tol = KKT_TOL * 2.0 * float(np.abs(Xs.T @ qc).max()) + KKT_FLOOR_PER_ROW * q.size
                active = beta != 0.0
                gap = np.where(active, np.abs(grad - lam * np.sign(beta)),
                               np.maximum(np.abs(grad) - lam, 0.0))
                if gap.max() > tol:
                    j = int(np.argmax(gap))
                    errs.append(f"{key} p={p:g}: KKT violated at {names[j]} by "
                                f"{gap[j]:.3g} (tolerance {tol:.3g}, lambda {lam:.6g})")
                r2_want = 1.0 - float(resid @ resid) / float(qc @ qc)
                if not close(float(fit["r2"]), r2_want, rel=1e-7):
                    errs.append(f"{key} p={p:g}: r2 {fit['r2']} != {r2_want:.10g}")
    return errs


def ess(out: dict) -> float:
    """Effective draws: sum over cells of n_draws / max inefficiency factor."""
    return sum(r["n_draws"] / max(r["ifs"].values()) for r in out["records"].values()
               if r["ifs"])


# ---------------------------------------------------------------------------
# self-test


def _first_cell(expected: dict) -> str:
    return sorted(expected)[0]


def _plant_point(out, expected):
    out["records"][_first_cell(expected)]["point"] += 1e-6


def _plant_qs(out, expected):
    out["records"][_first_cell(expected)]["qs"]["0.5"] += 1e-6


def _plant_table1(out, expected):
    row = next(r for r in out["table1"] if r["model"] != BENCH_MODEL)
    row["mse_ratio"] = "%.10g" % (float(row["mse_ratio"]) + 1e-6)


def _plant_kkt(out, expected):
    row = max((r for rows in out["lasso"].values() for r in rows),
              key=lambda r: abs(float(r["coefficient"])))
    row["coefficient"] = "%.10g" % (1.01 * float(row["coefficient"]))


def self_test(out: dict, panel: dict, config: dict, expected: dict,
              lasso_models) -> list[str]:
    """Plant one error at a time; return the plants a check failed to flag.

    The KKT plant needs a fitted coefficient, so it runs only where the
    workload's summaries hold one.
    """
    def cells(o):
        return [e for cid, c in expected.items() for e in check_cell(o, panel, cid, c)]

    plants = [("shifted point", _plant_point, cells),
              ("wrong qs", _plant_qs, cells),
              ("table1 ratio off by 1e-6", _plant_table1,
               lambda o: check_table1(o, expected, config))]
    if any(out["lasso"].values()):
        plants.append(("coefficient off KKT", _plant_kkt,
                       lambda o: check_lasso(o, panel, config, lasso_models)))
    missed = []
    for name, plant, check in plants:
        if check(out):
            missed.append(f"{name}: the unplanted run already fails")
            continue
        planted = copy.deepcopy(out)
        plant(planted, expected)
        if not check(planted):
            missed.append(f"{name}: not flagged")
    return missed
