"""Command-line front end: configuration, grid orchestration, reports.

Commands: ``validate`` (schema and data dry-run), ``run`` (execute the
model x origin grid with per-cell checkpointing), ``report`` (relative
tables, cumulative paths, subsample averages, calibration grids), and
``summarize-lasso`` (penalized linear summaries of the quantile paths).

Every cell of ``run`` executes in a worker process, and ``workers=1`` is
a pool of one: there is no in-process path. ``run`` imports the samplers
once, in its own process, and forks its workers from itself (so ``run``
needs a POSIX host): each worker starts with the engine and the panel
already loaded. The thread-count defaults below are set before numpy
loads, so the workers inherit single-threaded numerics; with each cell
owning an independent random stream derived from the master seed,
results are byte-identical for any worker count. A caller that imported
numpy before this module, with those variables unset, gets a warning from
``run``: its workers inherit that caller's BLAS threads. ``run`` joins
its workers, so its resource usage covers them and nothing outlives it.

Each command imports only what it uses. Only ``run``, and only when it
has cells to estimate, imports the samplers (``model_engine``,
``gp_core``, ``error_models``) and scipy, which would cost every other
command most of its start-up time. So ``forecast_cell`` is a forwarder
that imports the engine when called, and cells reach it through this
module's global, which callers may wrap. Only ``run`` imports
``multiprocessing`` and ``concurrent.futures``, and only
``summarize-lasso`` imports ``linear_summary``. A config is checked
against ``config_schema.json`` by ``schema_violation``, which reads just
the keywords that schema uses, so no command needs a JSON Schema library.
Warnings raised in a cell are counted in its manifest entry.
"""
from __future__ import annotations

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# numpy loaded before the defaults below could reach its BLAS
_BLAS_NOT_PINNED = "numpy" in sys.modules and not all(v in os.environ for v in _THREAD_VARS)
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import csv
import importlib.resources
import json
import traceback
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .data_pipeline import (
    MIN_TRAIN_QUARTERS,
    DatasetSpec,
    McmcConfig,
    ModelSpec,
    assemble_regression,
    assemble_target_only,
    derive_cell_seed,
    forecast_origins,
    format_quarter,
    load_panel,
    model_grid,
    parse_quarter,
)
from .evaluation import (
    SUBSAMPLE_WINDOWS,
    PitSeries,
    ScorePanel,
    cumulative_path,
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

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


@dataclass
class RunConfig:
    """Resolved experiment configuration; a field a config omits takes its
    default here."""

    panel: str
    sidecar: str
    target: str
    out_dir: str
    eval_start: str
    eval_end: str
    expectations: str | None = "INFEXP"
    include_expectations: bool = True
    datasets: list = field(default_factory=lambda: ["Moderate"])
    models: list = field(default_factory=lambda: ["all"])
    horizons: list = field(default_factory=lambda: [1])
    mcmc: dict = field(default_factory=dict)
    seed: int = 0
    workers: int = 1
    draws_format: str = "csv"
    min_train: int = MIN_TRAIN_QUARTERS

    def resolved_models(self) -> list[str]:
        grid = model_grid()
        if self.models == ["all"]:
            return grid
        bad = [m for m in self.models if m not in grid]
        if bad:
            raise ConfigError(f"unknown model id(s): {bad}; valid ids: {grid}")
        return list(self.models)

    def mcmc_config(self) -> McmcConfig:
        return McmcConfig(**self.mcmc)

    def dataset_spec(self, variant: str, horizon: int) -> DatasetSpec:
        return dataset_spec(self.target, self.expectations, self.include_expectations,
                            variant, horizon)


def dataset_spec(target: str, expectations: str | None, include_expectations: bool,
                 variant: str, horizon: int) -> DatasetSpec:
    """The design of one (variant, horizon): the expectations series enters
    only when it is both named and included."""
    return DatasetSpec(variant=variant, target_series=target, horizon=horizon,
                       include_expectations=include_expectations and expectations is not None,
                       expectations_series=expectations or "INFEXP")


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


def _schema() -> dict:
    text = importlib.resources.files("bnpforecast").joinpath("config_schema.json").read_text()
    return json.loads(text)


# The JSON Schema keywords schema_violation reads; "$schema", "title" and
# "description" are annotations, and "additionalProperties" may only be false.
_SCHEMA_KEYWORDS = frozenset({
    "$schema", "title", "description", "type", "enum", "minimum", "exclusiveMinimum",
    "minItems", "uniqueItems", "items", "required", "properties", "additionalProperties"})
_JSON_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _json_key(v):
    """A hashable key under which two values are equal exactly when they are
    equal as JSON: 1 and 1.0 are, true and 1 are not."""
    if isinstance(v, list):
        return "array", tuple(map(_json_key, v))
    if isinstance(v, dict):
        return "object", tuple(sorted((k, _json_key(x)) for k, x in v.items()))
    return ("number" if _JSON_TYPES["number"](v) else type(v).__name__), v


def schema_violation(value, schema: dict, path: str = ""):
    """The first violation of ``schema`` by ``value``, as (JSON-pointer path,
    message), or None. Reads the keywords in ``_SCHEMA_KEYWORDS``; an
    ``integer`` is an int and not a bool, so 5.0 is not one. Of several
    violations it returns the one whose path sorts first."""
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_JSON_TYPES[t](value) for t in types):
            return path, f"{value!r} is not of type {', '.join(map(repr, types))}"
    if "enum" in schema and _json_key(value) not in map(_json_key, schema["enum"]):
        return path, f"{value!r} is not one of {schema['enum']!r}"
    children = []
    if _JSON_TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, (f"{value!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} is too short"
        if schema.get("uniqueItems") and len(set(map(_json_key, value))) < len(value):
            return path, f"{value!r} has non-unique elements"
        if "items" in schema:
            children = [(str(i), v, schema["items"]) for i, v in enumerate(value)]
    elif isinstance(value, dict):
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            return path, f"{missing[0]!r} is a required property"
        props = schema.get("properties", {})
        extra = sorted(k for k in value if k not in props)
        if extra and schema.get("additionalProperties") is False:
            return path, f"additional properties are not allowed ({', '.join(map(repr, extra))})"
        children = [(k, value[k], props[k]) for k in sorted(value) if k in props]
    for key, item, sub in children:
        found = schema_violation(item, sub, f"{path}/{key}")
        if found:
            return found
    return None


def _reject_constant(name: str):
    """``json.load``'s hook for NaN, Infinity and -Infinity, which JSON lacks."""
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read and override a JSON config, schema-check it, and fill defaults."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if isinstance(raw, dict) and overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    violation = schema_violation(raw, _schema())
    if violation:
        where, message = violation
        raise ConfigError(f"config schema violation at {where or '/'}: {message}")
    cfg = RunConfig(**raw)  # the schema admits exactly RunConfig's fields
    for key in ("panel", "sidecar"):
        p = getattr(cfg, key)
        if not os.path.exists(p):
            raise ConfigError(f"{key} file does not exist: {p}")
    try:
        cfg.mcmc_config()
    except Exception as exc:
        raise ConfigError(f"bad mcmc settings: {exc}")
    cfg.resolved_models()
    return cfg


# ---------------------------------------------------------------------------
# cell grid


@dataclass(frozen=True)
class Cell:
    model_id: str
    dataset_label: str
    horizon: int
    origin: int

    @property
    def cell_id(self) -> str:
        return f"{self.model_id}_{self.dataset_label}_{self.horizon}_{format_quarter(self.origin)}"


def _split_model(model_id: str) -> tuple[str, str]:
    mean_kind, error_kind = model_id.split("-", 1)
    return mean_kind, error_kind


def cell_data(panel, dspec: DatasetSpec, is_uc: bool):
    """Whole-sample data of a cell's dataset: the target alone for UC, the
    unstandardized regression for the other mean kinds (each window is
    standardized on its own rows)."""
    if is_uc:
        return assemble_target_only(panel, dspec)
    return assemble_regression(panel, dspec, standardize=False)


def _origins(panel, cfg: RunConfig, dspec: DatasetSpec, is_uc: bool) -> list[int]:
    full = cell_data(panel, dspec, is_uc)
    start, end = parse_quarter(cfg.eval_start), parse_quarter(cfg.eval_end)
    real = full.origin_dates + dspec.horizon
    if start < real.min() or end > real.max():
        raise ConfigError(
            f"evaluation window {cfg.eval_start}..{cfg.eval_end} outside the data's "
            f"outcome span {format_quarter(int(real.min()))}..{format_quarter(int(real.max()))}")
    out = []
    for o in forecast_origins(full, start, end):
        n_train = int(np.sum(full.origin_dates <= o - dspec.horizon))
        if n_train < cfg.min_train:
            warnings.warn(f"skipping origin {format_quarter(o)}: "
                          f"{n_train} training quarters (minimum {cfg.min_train})")
            continue
        out.append(o)
    return out


def enumerate_cells(panel, cfg: RunConfig) -> list[Cell]:
    """The full (model, dataset, horizon, origin) grid for this config."""
    cells: list[Cell] = []
    models = cfg.resolved_models()
    for h in cfg.horizons:
        uc_models = [m for m in models if _split_model(m)[0] == "UC"]
        if uc_models:
            origins = _origins(panel, cfg, cfg.dataset_spec("AR1", h), is_uc=True)
            for m in uc_models:
                cells.extend(Cell(m, "none", h, o) for o in origins)
        for variant in cfg.datasets:
            rest = [m for m in models if _split_model(m)[0] != "UC"]
            if not rest:
                continue
            origins = _origins(panel, cfg, cfg.dataset_spec(variant, h), is_uc=False)
            for m in rest:
                cells.extend(Cell(m, variant, h, o) for o in origins)
    return cells


# Submission order for the pool, most expensive first, so that the last
# cells to finish are short ones: the GP-path means cost the most, then the
# mixture and volatility error blocks, then the longer training windows.
_MEAN_COST_ORDER = ("GPSub", "GP", "Linear", "UC")
_ERROR_COST_ORDER = ("DPMSV", "SV", "DPM", "Homosk")


def longest_first(cells) -> list[Cell]:
    """Cells sorted by expected run time, longest first (ties by cell id)."""
    def key(c: Cell):
        mean_kind, error_kind = _split_model(c.model_id)
        return (_MEAN_COST_ORDER.index(mean_kind), _ERROR_COST_ORDER.index(error_kind),
                -c.origin, c.cell_id)
    return sorted(cells, key=key)


def _cell_paths(out_dir: str, cell: Cell, draws_format: str) -> tuple[str, str]:
    ext = "npy" if draws_format == "bin" else "csv"
    draws = os.path.join(out_dir, "draws", f"{cell.cell_id}.{ext}")
    scores = os.path.join(out_dir, "cells", f"{cell.cell_id}.json")
    return draws, scores


def cell_done(out_dir: str, cell: Cell, draws_format: str) -> bool:
    draws, scores = _cell_paths(out_dir, cell, draws_format)
    return os.path.exists(draws) and os.path.exists(scores)


# ---------------------------------------------------------------------------
# cell execution (worker side)

_WORKER: dict = {}


def _init_worker(panel_path: str, sidecar_path: str) -> None:
    _WORKER["panel"] = load_panel(panel_path, sidecar_path)
    _WORKER["full"] = {}
    _WORKER["shown"] = set()


def _atomic_write(path: str, write_fn) -> None:
    tmp = path + ".tmp"
    write_fn(tmp)
    os.replace(tmp, path)


def forecast_cell(*args, **kwargs):
    """``model_engine.forecast_cell``, imported at call time so that the
    commands that estimate no cell never load the samplers and scipy."""
    from .model_engine import forecast_cell as engine_forecast_cell
    return engine_forecast_cell(*args, **kwargs)


def exec_cell(task: dict) -> dict:
    """Estimate one cell in a process set up by ``_init_worker``; write its
    draws and scores and return a status record, with a count of each
    warning the cell raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = _estimate_cell(task)
    counts = Counter((w.category.__name__, str(w.message)) for w in caught)
    rec["warnings"] = [{"category": c, "message": m, "count": n}
                       for (c, m), n in sorted(counts.items())]
    # Passed on to stderr or a caller's filters once per worker, unless they show
    # every occurrence (catch_warnings resets any registry kept across cells).
    shown = _WORKER["shown"]
    for w in caught:
        key = (w.category, str(w.message), w.filename, w.lineno)
        if key not in shown or _filter_action(w) in ("always", "error"):
            shown.add(key)
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return rec


def _filter_action(w: warnings.WarningMessage) -> str:
    """The action of the first warning filter that matches ``w``, found as
    ``warnings.warn_explicit`` finds it."""
    module = w.filename[:-3] if w.filename.lower().endswith(".py") else w.filename
    return next((action for action, msg, cat, mod, lineno in warnings.filters
                 if (msg is None or msg.match(str(w.message))) and issubclass(w.category, cat)
                 and (mod is None or mod.match(module)) and lineno in (0, w.lineno)),
                warnings.defaultaction)


def _estimate_cell(task: dict) -> dict:
    cell = Cell(task["model_id"], task["dataset_label"], task["horizon"], task["origin"])
    try:
        panel = _WORKER["panel"]
        mean_kind, error_kind = _split_model(cell.model_id)
        is_uc = mean_kind == "UC"
        variant = "AR1" if is_uc else cell.dataset_label
        dspec = dataset_spec(task["target"], task["expectations"],
                             task["include_expectations"], variant, cell.horizon)
        key = (variant, cell.horizon, is_uc)
        if key not in _WORKER["full"]:
            _WORKER["full"][key] = cell_data(panel, dspec, is_uc)
        full = _WORKER["full"][key]
        spec = ModelSpec(mean_kind=mean_kind, error_kind=error_kind, dataset=dspec)
        mcmc = McmcConfig(**task["mcmc"])
        # tasks built outside cmd_run (bench/replay.py) may omit min_train
        pred = forecast_cell(spec, panel, cell.origin, mcmc, full,
                             master_seed=task["seed"],
                             min_train=task.get("min_train", MIN_TRAIN_QUARTERS))

        pit_seed = derive_cell_seed(task["seed"], cell.model_id + "|pit",
                                    cell.dataset_label, cell.horizon,
                                    format_quarter(cell.origin))
        pit = pit_compute(pred.draws, pred.y_true, np.random.default_rng(pit_seed))
        record = {
            "model": cell.model_id,
            "dataset": cell.dataset_label,
            "horizon": cell.horizon,
            "origin": format_quarter(cell.origin),
            "realization": format_quarter(cell.origin + cell.horizon),
            "y_true": pred.y_true,
            "point": pred.point,
            "quantiles": {("%g" % p): q for p, q in sorted(pred.quantiles.items())},
            "lpl": log_pred_likelihood(pred.mixture, pred.y_true),
            "sq_error": (pred.y_true - pred.point) ** 2,
            "qs": {("%g" % p): quantile_score(pred.y_true, pred.quantiles[p], p)
                   for p in sorted(pred.quantiles)},
            "pit": pit,
            "n_draws": int(pred.draws.size),
            "seed": pred.diagnostics["seed"],
            "train_quarters": pred.diagnostics["train_quarters"],
            "ifs": {k: float(v) for k, v in sorted(pred.diagnostics["ifs"].items())},
            "accept": {k: float(v) for k, v in sorted(pred.diagnostics["accept"].items())},
        }
        draws_path, scores_path = _cell_paths(task["out_dir"], cell, task["draws_format"])
        if task["draws_format"] == "bin":
            def _write_bin(p):
                with open(p, "wb") as fh:
                    np.save(fh, pred.draws)
            _atomic_write(draws_path, _write_bin)
        else:
            def _write_draws(p):
                with open(p, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["draw"])
                    for v in pred.draws:
                        w.writerow([repr(float(v))])
            _atomic_write(draws_path, _write_draws)

        def _write_scores(p):
            with open(p, "w") as fh:
                fh.write(json.dumps(record, sort_keys=True, indent=1))
        _atomic_write(scores_path, _write_scores)
        return {"cell": cell.cell_id, "status": "ok",
                "seed": record["seed"], "runtime": pred.diagnostics["runtime"]}
    except Exception as exc:  # cell failures must not kill the grid
        return {"cell": cell.cell_id, "status": "failed",
                "error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}


# ---------------------------------------------------------------------------
# commands


def cmd_validate(cfg: RunConfig) -> int:
    panel = load_panel(cfg.panel, cfg.sidecar)
    cells = enumerate_cells(panel, cfg)
    models = cfg.resolved_models()
    n_origins = len({c.origin for c in cells})
    print(f"config OK: {len(models)} models, horizons {cfg.horizons}, "
          f"datasets {cfg.datasets}")
    print(f"estimated grid: {len(cells)} cells over {n_origins} forecast origins")
    return EXIT_OK


def cmd_run(cfg: RunConfig) -> int:
    _init_worker(cfg.panel, cfg.sidecar)  # before the fork: the workers inherit the panel
    cells = enumerate_cells(_WORKER["panel"], cfg)
    os.makedirs(os.path.join(cfg.out_dir, "draws"), exist_ok=True)
    os.makedirs(os.path.join(cfg.out_dir, "cells"), exist_ok=True)
    pending = longest_first(c for c in cells if not cell_done(cfg.out_dir, c, cfg.draws_format))
    cached = len(cells) - len(pending)
    print(f"grid: {len(cells)} cells ({cached} cached, {len(pending)} to run)")
    tasks = [{
        "model_id": c.model_id, "dataset_label": c.dataset_label,
        "horizon": c.horizon, "origin": c.origin,
        "target": cfg.target, "expectations": cfg.expectations,
        "include_expectations": cfg.include_expectations,
        "mcmc": cfg.mcmc, "seed": cfg.seed, "min_train": cfg.min_train,
        "out_dir": cfg.out_dir, "draws_format": cfg.draws_format,
    } for c in pending]
    results: dict[str, dict] = {}
    broken = None
    if tasks:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        from . import model_engine  # imported once, here: every worker inherits it
        if _BLAS_NOT_PINNED:
            warnings.warn("numpy was imported before bnpforecast.cli set the BLAS thread "
                          "defaults: run's workers inherit this process's BLAS threads",
                          RuntimeWarning)
        # One path for any worker count: workers=1 is a pool of one, so every
        # cell runs under the same single-threaded numerics. A fork-context
        # pool forks all its workers before it starts its own thread, and
        # leaving the block joins them, so this process's resource usage
        # covers theirs.
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            for fut in as_completed([pool.submit(exec_cell, t) for t in tasks]):
                try:
                    rec = fut.result()
                except BrokenProcessPool as exc:  # a worker died; no queued cell will run
                    broken = f"{type(exc).__name__}: {exc}"
                    continue
                results[rec["cell"]] = rec
                if rec["status"] == "failed":
                    print(f"FAILED {rec['cell']}: {rec['error']}", file=sys.stderr)
        if broken:
            print(f"worker pool broke: {broken}", file=sys.stderr)
            for c in pending:
                results.setdefault(c.cell_id, {"status": "unfinished", "error": broken})
    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "cells": [],
    }
    failures = []
    for c in sorted(cells, key=lambda c: c.cell_id):
        rec = results.get(c.cell_id)
        if rec is None:
            status = "cached"
        else:
            status = rec["status"]
        entry = {
            "cell": c.cell_id, "model": c.model_id, "dataset": c.dataset_label,
            "horizon": c.horizon, "origin": format_quarter(c.origin),
            "seed": derive_cell_seed(cfg.seed, c.model_id, c.dataset_label,
                                     c.horizon, format_quarter(c.origin)),
            "status": status,
        }
        if rec and "runtime" in rec:  # chain seconds, for cells run by this invocation
            entry["runtime"] = rec["runtime"]
        if rec and "warnings" in rec:
            entry["warnings"] = rec["warnings"]
        if rec and rec.get("error"):
            entry["error"] = rec["error"]
            if "traceback" in rec:
                entry["traceback"] = rec["traceback"]
            failures.append(c.cell_id)
        manifest["cells"].append(entry)

    def _write_manifest(p):
        with open(p, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
    _atomic_write(os.path.join(cfg.out_dir, "manifest.json"), _write_manifest)
    if failures:
        print(f"{len(failures)} cell(s) failed: {failures}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"run complete: results in {cfg.out_dir}")
    return EXIT_OK


def _load_cells(out_dir: str) -> list[dict]:
    cell_dir = os.path.join(out_dir, "cells")
    if not os.path.isdir(cell_dir):
        raise ConfigError(f"no cell results under {out_dir}")
    records = []
    for name in sorted(os.listdir(cell_dir)):
        if name.endswith(".json"):
            with open(os.path.join(cell_dir, name)) as fh:
                records.append(json.load(fh))
    if not records:
        raise ConfigError(f"no completed cells under {out_dir}")
    return records


def _model_key(rec: dict) -> str:
    if rec["dataset"] == "none":
        return rec["model"]
    return f"{rec['model']}[{rec['dataset']}]"


BENCHMARK_ID = "UC-SV"


def _panels_for_horizon(records: list[dict], h: int):
    """Aligned ScorePanels and PitSeries per model key at one horizon."""
    by_model: dict[str, dict[int, dict]] = {}
    for rec in records:
        if rec["horizon"] != h:
            continue
        by_model.setdefault(_model_key(rec), {})[parse_quarter(rec["origin"])] = rec
    if not by_model:
        return {}, {}, np.array([], dtype=int)
    common = None
    for cells in by_model.values():
        common = set(cells) if common is None else common & set(cells)
    dropped = {m: len(cells) - len(common) for m, cells in by_model.items()
               if len(cells) != len(common)}
    if dropped:
        warnings.warn(f"restricting to {len(common)} common origins; "
                      f"extra cells dropped: {dropped}")
    origins = np.array(sorted(common), dtype=int)
    panels: dict[str, ScorePanel] = {}
    pits: dict[str, PitSeries] = {}
    for m, cells in sorted(by_model.items()):
        recs = [cells[o] for o in origins]
        p_levels = sorted(float(p) for p in recs[0]["qs"])
        panels[m] = ScorePanel(
            model_id=m, origin_dates=origins,
            y_true=np.array([r["y_true"] for r in recs]),
            sq_errors=np.array([r["sq_error"] for r in recs]),
            lpls=np.array([r["lpl"] for r in recs]),
            qs={p: np.array([r["qs"]["%g" % p] for r in recs]) for p in p_levels},
            horizon=h)
        pits[m] = PitSeries(model_id=m, origin_dates=origins,
                            values=np.array([r["pit"] for r in recs]))
    return panels, pits, origins


def cmd_report(out_dir: str) -> int:
    records = _load_cells(out_dir)
    horizons = sorted({r["horizon"] for r in records})
    table_rows = []
    requested: list[str] = []
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        requested = sorted({_model_key(c) for c in manifest.get("cells", [])})
    for h in horizons:
        panels, pits, origins = _panels_for_horizon(records, h)
        if not panels:
            continue
        bench_key = next((k for k in panels if k == BENCHMARK_ID), None)
        if bench_key is not None:
            rows = relative_table(panels, bench_key)
        else:
            warnings.warn(f"benchmark {BENCHMARK_ID} missing at h={h}; levels only")
            rows = [{"model": m,
                     "mse_level": float(np.mean(p.sq_errors)),
                     "lpl_level": float(np.mean(p.lpls))}
                    for m, p in sorted(panels.items())]
        for r in rows:
            r = {"horizon": h, **r, "status": "ok"}
            table_rows.append(r)
        for m in requested:
            if m not in panels and not any(
                    row.get("model") == m and row.get("horizon") == h for row in table_rows):
                table_rows.append({"horizon": h, "model": m, "status": "absent"})
        # per-model score series and calibration grids
        for m, panel in panels.items():
            safe = m.replace("[", "_").replace("]", "")
            write_scores_csv(os.path.join(out_dir, f"scores_{safe}_h{h}.csv"),
                             panel, pits[m])
            grid, ecdf, half = rs_diagnostic(pits[m])
            write_calibration_csv(
                os.path.join(out_dir, f"calibration_{safe}_h{h}.csv"), grid, ecdf, half)
        if bench_key is not None:
            bench = panels[bench_key]
            lpl_paths = {m: cumulative_path(p.lpls, bench.lpls)
                         for m, p in panels.items()}
            write_cumulative_csv(os.path.join(out_dir, f"cumulative_lpl_h{h}.csv"),
                                 origins, lpl_paths)
            qs_paths = {m: cumulative_path(p.qs[0.5], bench.qs[0.5], lower_is_better=True)
                        for m, p in panels.items()}
            write_cumulative_csv(os.path.join(out_dir, f"cumulative_qs50_h{h}.csv"),
                                 origins, qs_paths)
            # subsample QS ratios
            sub_path = os.path.join(out_dir, f"qs_subsamples_h{h}.csv")
            with open(sub_path, "w", newline="") as fh:
                w = csv.writer(fh)
                labels = [lab for lab, *_ in SUBSAMPLE_WINDOWS]
                w.writerow(["model", "p"] + labels)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    for m, panel in sorted(panels.items()):
                        dates = origins + h
                        for p in sorted(panel.qs):
                            table = subsample_average(dates, panel.qs[p], bench.qs[p])
                            w.writerow([m, "%g" % p] +
                                       ["%.10g" % table[lab] if lab in table else ""
                                        for lab in labels])
    # union of columns across rows, stable order
    header: list[str] = []
    for row in table_rows:
        for k in row:
            if k not in header:
                header.append(k)
    norm_rows = [{k: row.get(k, "") for k in header} for row in table_rows]
    write_relative_table_csv(os.path.join(out_dir, "table1.csv"), norm_rows)
    print(f"report written to {out_dir}")
    return EXIT_OK


def cmd_summarize_lasso(cfg: RunConfig) -> int:
    """Fit the LASSO quantile-path summaries per horizon and model; a model
    whose fit fails is reported on stderr and left out of the CSVs."""
    from .linear_summary import QuantilePathSet, fit_quantile_paths
    records = _load_cells(cfg.out_dir)
    panel = load_panel(cfg.panel, cfg.sidecar)
    horizons = sorted({r["horizon"] for r in records})
    failed = []
    for h in horizons:
        rows_out = []
        r2_out = []
        by_model: dict[str, list[dict]] = {}
        for rec in records:
            if rec["horizon"] == h and rec["dataset"] != "none":
                by_model.setdefault(_model_key(rec), []).append(rec)
        for m, recs in sorted(by_model.items()):
            recs = sorted(recs, key=lambda r: parse_quarter(r["origin"]))
            variant = recs[0]["dataset"]
            dspec = cfg.dataset_spec(variant, h)
            full = assemble_regression(panel, dspec, standardize=False)
            origins = np.array([parse_quarter(r["origin"]) for r in recs])
            n_full = full.origin_dates.size
            idx = np.searchsorted(full.origin_dates, origins)
            ok = (idx < n_full) & (full.origin_dates[np.minimum(idx, n_full - 1)] == origins)
            if not ok.all():
                warnings.warn(f"{m}: {int((~ok).sum())} origins lack predictor rows; dropped")
            idx, recs = idx[ok], [r for r, keep in zip(recs, ok) if keep]
            p_grid = tuple(sorted(float(p) for p in recs[0]["quantiles"]))
            Q = np.array([[r["quantiles"]["%g" % p] for p in p_grid] for r in recs])
            paths = QuantilePathSet(dates=origins[ok], Q=Q, p_grid=p_grid)
            try:
                fits = fit_quantile_paths(paths, full.X[idx])
            except (RuntimeError, ValueError) as exc:
                print(f"{m}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed.append(f"{m} h={h}")
                continue
            for p in p_grid:
                f = fits[p]
                r2_out.append([m, "%g" % p, "%.10g" % f.r2, "%.10g" % f.lam,
                               f.support.size])
                for j in f.support:
                    rows_out.append([m, full.names[j], "%g" % p, "%.10g" % f.beta[j]])
        with open(os.path.join(cfg.out_dir, f"lasso_h{h}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["model", "variable", "p", "coefficient"])
            w.writerows(rows_out)
        with open(os.path.join(cfg.out_dir, f"r2_h{h}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["model", "p", "r2", "lambda", "n_active"])
            w.writerows(r2_out)
    print(f"penalized summaries written to {cfg.out_dir}")
    if failed:
        print(f"{len(failed)} fit(s) failed: {failed}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--out", help="output/artifact directory (overrides config)")
    p.add_argument("--workers", type=int, help="parallel worker processes")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--models", help="comma-separated model ids, or 'all'")
    p.add_argument("--horizons", help="comma-separated forecast horizons")
    p.add_argument("--draws-format", choices=["csv", "bin"], dest="draws_format")


def _overrides(args) -> dict:
    ov: dict = {}
    if args.out:
        ov["out_dir"] = args.out
    if args.workers is not None:
        ov["workers"] = args.workers
    if args.seed is not None:
        ov["seed"] = args.seed
    if args.models:
        ov["models"] = [m.strip() for m in args.models.split(",") if m.strip()]
    if args.horizons:
        try:
            ov["horizons"] = [int(x) for x in args.horizons.split(",")]
        except ValueError:
            raise ConfigError(
                f"--horizons takes comma-separated integers, not {args.horizons!r}")
    if args.draws_format:
        ov["draws_format"] = args.draws_format
    return ov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bnpforecast",
        description="Bayesian nonparametric inflation-forecasting experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("validate", "schema-check a config and dry-run the data"),
                        ("run", "execute the model x origin grid"),
                        ("report", "emit tables and plot-ready CSVs"),
                        ("summarize-lasso", "penalized linear quantile summaries")):
        p = sub.add_parser(name, help=help_)
        _add_common(p)
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            out = args.out
            if out is None and args.config:
                out = load_config(args.config, _overrides(args)).out_dir
            if out is None:
                raise ConfigError("report needs --out or --config")
            return cmd_report(out)
        if args.config is None:
            raise ConfigError(f"{args.command} requires --config")
        cfg = load_config(args.config, _overrides(args))
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "summarize-lasso":
            return cmd_summarize_lasso(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # unexpected failure: not a config problem
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
