"""Command-line front end: config validation, grid runs, checkpointing, reports."""

import concurrent.futures
import copy
import csv
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomllib is in the stdlib from 3.11
    tomllib = None

import bnpforecast
from bnpforecast import cli, linear_summary
from bnpforecast.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, main
from bnpforecast.evaluation import ScorePanel, relative_table
from bnpforecast.model_engine import derive_cell_seed
from bnpforecast.data_pipeline import parse_quarter

ORIGINS = ["2020Q4", "2021Q1", "2021Q2", "2021Q3"]

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="finds child processes through /proc")


def _base_config(panel_files, out_dir):
    panel_csv, sidecar_csv = panel_files
    return {
        "panel": panel_csv, "sidecar": sidecar_csv, "target": "PRICE",
        "out_dir": str(out_dir), "eval_start": "2021Q1", "eval_end": "2021Q4",
        "datasets": ["Moderate"], "models": ["Linear-Homosk", "UC-SV"],
        "horizons": [1], "mcmc": {"n_iter": 130, "n_burn": 30},
        "seed": 0, "workers": 1,
    }


def _write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def _cell_ids(models=("Linear-Homosk", "UC-SV"), origins=ORIGINS):
    ids = []
    for m in models:
        ds = "none" if m.startswith("UC") else "Moderate"
        ids.extend(f"{m}_{ds}_1_{o}" for o in origins)
    return ids


def _read_tree(out_dir):
    """Bytes of every draws and cells file, keyed by relative path."""
    blobs = {}
    for sub in ("draws", "cells"):
        d = os.path.join(out_dir, sub)
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                blobs[f"{sub}/{name}"] = fh.read()
    return blobs


@pytest.fixture(scope="module")
def experiment(tmp_path_factory, panel_files):
    """One completed 2-model x 4-origin run, reused read-only by the tests."""
    root = tmp_path_factory.mktemp("cli_run")
    out_dir = root / "artifacts"
    cfg = _base_config(panel_files, out_dir)
    cfg_path = _write_config(root / "config.json", cfg)
    assert main(["run", "--config", cfg_path]) == EXIT_OK
    return {"cfg": cfg, "cfg_path": cfg_path, "out_dir": str(out_dir)}


# ---------------------------------------------------------------------------
# validate


def test_validate_reports_grid_size(panel_files, tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "c.json",
                             _base_config(panel_files, tmp_path / "out"))
    assert main(["validate", "--config", cfg_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "8 cells" in out
    assert "4 forecast origins" in out


def test_validate_missing_data_file(panel_files, tmp_path, capsys):
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg["panel"] = str(tmp_path / "nope.csv")
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    assert main(["validate", "--config", cfg_path]) == EXIT_CONFIG
    assert "nope.csv" in capsys.readouterr().err


def test_validate_window_outside_span(panel_files, tmp_path, capsys):
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg["eval_end"] = "2030Q4"
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    assert main(["validate", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "2030Q4" in err and "2021Q4" in err


def test_validate_schema_violation_names_field(panel_files, tmp_path, capsys):
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg["seed"] = "zero"
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    assert main(["validate", "--config", cfg_path]) == EXIT_CONFIG
    assert "/seed" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, where", [
    ("seed", 5.0, "/seed"),
    ("mcmc", {"n_iter": 60.0}, "/mcmc/n_iter"),
    ("horizons", [1.0], "/horizons/0"),
])
def test_validate_rejects_integral_float_for_integer(panel_files, tmp_path, capsys,
                                                     field, value, where):
    """An integer field takes JSON integers only: 5.0 would reach the
    program as a float, which hashes to other seeds, or fails every cell."""
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg[field] = value
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    assert main(["validate", "--config", cfg_path]) == EXIT_CONFIG
    assert f"config schema violation at {where}: " in capsys.readouterr().err


@pytest.mark.parametrize("value, constant", [
    (float("nan"), "NaN"), (float("inf"), "Infinity"), (float("-inf"), "-Infinity")])
def test_validate_rejects_non_json_number_constants(panel_files, tmp_path, capsys,
                                                    value, constant):
    """``json.load`` reads NaN, Infinity and -Infinity, which are not JSON;
    a NaN hyper step would pass the schema and fail every GP-path cell."""
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg["mcmc"] = {**cfg["mcmc"], "hyper_step": value}
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    with open(cfg_path) as fh:
        assert f'"hyper_step": {constant}' in fh.read()
    assert main(["validate", "--config", cfg_path]) == EXIT_CONFIG
    assert f"config is not valid JSON: {constant} is not a JSON number" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["a", "1,x", "1.0"])
def test_non_integer_horizons_flag_is_a_config_error(panel_files, tmp_path, capsys, flag):
    cfg_path = _write_config(tmp_path / "c.json",
                             _base_config(panel_files, tmp_path / "out"))
    assert main(["validate", "--config", cfg_path, "--horizons", flag]) == EXIT_CONFIG
    assert f"--horizons takes comma-separated integers, not {flag!r}" in capsys.readouterr().err


# jsonschema with JSON's integers, so that 5.0 is not one (it is in jsonschema)
_Oracle = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool)))
_SCHEMA = cli._schema()
_FULL_CONFIG = {
    "panel": "panel.csv", "sidecar": "sidecar.csv", "target": "PRICE", "out_dir": "out",
    "eval_start": "2021Q1", "eval_end": "2021Q4", "expectations": "INFEXP",
    "include_expectations": True, "datasets": ["AR1", "Moderate"],
    "models": ["UC-SV", "GP-DPM"], "horizons": [1, 4],
    "mcmc": {"n_iter": 130, "n_burn": 30, "thin": 1, "adapt_window": 50,
             "hyper_step": 0.5, "alpha_step": 1.0},
    "seed": 0, "workers": 1, "draws_format": "csv", "min_train": 40,
}
_VALUES = [None, True, False, 0, 1, 2, 4, -1, 0.5, 2.0, 0.0, "x", "AR1", "bin", [],
           [1], ["Moderate"], {}, {"n_iter": 3}]


def _nodes(value, path=()):
    """Every (path, value) in a JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _nodes(v, path + (i,))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_schema_walker_agrees_with_jsonschema(data):
    """Mutations of a valid config (a key dropped or added, a value or item
    replaced, an item repeated): the walker rejects exactly when jsonschema
    does, at the path jsonschema's errors sort first under."""
    cfg = copy.deepcopy(_FULL_CONFIG)
    for _ in range(data.draw(st.integers(1, 3))):
        path, node = data.draw(st.sampled_from(list(_nodes(cfg))))
        kind = data.draw(st.sampled_from(["drop", "replace", "add", "repeat"]))
        if kind in ("drop", "replace") and path:
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if kind == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_VALUES)))
        elif kind == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(["extra", "n_iter", "seed"]))] = 1
        elif kind == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[data.draw(st.integers(0, len(node) - 1))]))
    _assert_walker_agrees(cfg)


@pytest.mark.parametrize("change", [
    {"horizons": [1, True]}, {"horizons": [2, 2.0]}, {"horizons": [[1], [1]]},
    {"datasets": ["AR1", "AR1"]}, {"mcmc": {"hyper_step": True}}, {"seed": False},
], ids=repr)
def test_schema_walker_compares_as_json(change):
    """Equality and types are JSON's: true is neither 1 nor a number, and
    2 and 2.0 are equal."""
    _assert_walker_agrees(dict(_FULL_CONFIG, **change))


def _assert_walker_agrees(cfg):
    errors = sorted(_Oracle(_SCHEMA).iter_errors(cfg), key=lambda e: list(e.absolute_path))
    found = cli.schema_violation(cfg, _SCHEMA)
    assert (found is None) == (not errors), (cfg, found, [e.message for e in errors])
    if errors:
        assert found[0] == "".join(f"/{p}" for p in errors[0].absolute_path), cfg


def test_validate_unknown_model_id(panel_files, tmp_path, capsys):
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg["models"] = ["GP-Bogus"]
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    assert main(["validate", "--config", cfg_path]) == EXIT_CONFIG
    assert "GP-Bogus" in capsys.readouterr().err


def test_command_line_override_is_schema_checked(panel_files, tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "c.json",
                             _base_config(panel_files, tmp_path / "out"))
    assert main(["validate", "--config", cfg_path, "--workers", "0"]) == EXIT_CONFIG
    assert "/workers" in capsys.readouterr().err


def test_commands_require_config_or_out(capsys):
    assert main(["run"]) == EXIT_CONFIG
    assert main(["report"]) == EXIT_CONFIG
    assert main(["validate"]) == EXIT_CONFIG
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run


def test_run_writes_grid_artifacts(experiment):
    out = experiment["out_dir"]
    ids = _cell_ids()
    assert sorted(os.listdir(os.path.join(out, "draws"))) == \
        sorted(f"{c}.csv" for c in ids)
    assert sorted(os.listdir(os.path.join(out, "cells"))) == \
        sorted(f"{c}.json" for c in ids)
    with open(os.path.join(out, "draws", f"{ids[0]}.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["draw"]
    assert len(rows) == 1 + 100  # header + one draw per retained sweep

    with open(os.path.join(out, "cells", "UC-SV_none_1_2021Q3.json")) as fh:
        rec = json.load(fh)
    expected_keys = {"model", "dataset", "horizon", "origin", "realization",
                     "y_true", "point", "quantiles", "lpl", "sq_error", "qs",
                     "pit", "n_draws", "seed", "train_quarters", "ifs", "accept"}
    assert expected_keys <= set(rec)
    assert rec["origin"] == "2021Q3" and rec["realization"] == "2021Q4"
    assert rec["sq_error"] == pytest.approx((rec["y_true"] - rec["point"]) ** 2)
    assert 0.0 <= rec["pit"] <= 1.0
    assert set(rec["quantiles"]) == {"0.05", "0.1", "0.5", "0.9", "0.95"}


def test_manifest_contents(experiment):
    with open(os.path.join(experiment["out_dir"], "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["config"]["seed"] == 0
    assert manifest["config"]["eval_start"] == "2021Q1"
    cells = {c["cell"]: c for c in manifest["cells"]}
    assert sorted(cells) == sorted(_cell_ids())
    assert all(c["status"] == "ok" for c in cells.values())
    c = cells["Linear-Homosk_Moderate_1_2020Q4"]
    assert c["seed"] == derive_cell_seed(0, "Linear-Homosk", "Moderate", 1, "2020Q4")
    with open(os.path.join(experiment["out_dir"], "cells",
                           "Linear-Homosk_Moderate_1_2020Q4.json")) as fh:
        assert json.load(fh)["seed"] == c["seed"]


def test_manifest_keeps_runtime_of_cells_run(experiment, tmp_path, capsys):
    """Each cell run by an invocation keeps its chain runtime in the manifest,
    never in cells/*.json; a cached cell has none."""
    with open(os.path.join(experiment["out_dir"], "manifest.json")) as fh:
        cells = json.load(fh)["cells"]
    assert all(isinstance(c["runtime"], float) and c["runtime"] > 0 for c in cells)
    for c in cells:
        with open(os.path.join(experiment["out_dir"], "cells", c["cell"] + ".json")) as fh:
            assert "runtime" not in json.load(fh)
    out2 = tmp_path / "copy"
    shutil.copytree(experiment["out_dir"], out2)
    victim = "UC-SV_none_1_2021Q1"
    os.remove(out2 / "cells" / f"{victim}.json")
    assert main(["run", "--config", experiment["cfg_path"], "--out", str(out2)]) == EXIT_OK
    assert "7 cached, 1 to run" in capsys.readouterr().out
    with open(out2 / "manifest.json") as fh:
        runtimes = {c["cell"]: c.get("runtime") for c in json.load(fh)["cells"]}
    assert runtimes.pop(victim) > 0
    assert set(runtimes.values()) == {None}


def test_manifest_counts_cell_warnings(experiment, panel_files, tmp_path):
    """Warnings raised while a cell runs are counted by category and message
    in its manifest entry, never in cells/*.json."""
    with open(os.path.join(experiment["out_dir"], "manifest.json")) as fh:
        assert all(c["warnings"] == [] for c in json.load(fh)["cells"])
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(mcmc={"n_iter": 80, "n_burn": 20}, eval_start="2021Q3")
    assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == EXIT_OK
    with open(tmp_path / "out" / "manifest.json") as fh:
        cells = json.load(fh)["cells"]
    assert len(cells) == 4
    for c in cells:
        with open(tmp_path / "out" / "cells" / (c["cell"] + ".json")) as fh:
            rec = json.load(fh)
        assert "warnings" not in rec
        # one inefficiency factor per monitored trace, each on 60 draws
        assert c["warnings"] == [{
            "category": "UserWarning", "count": len(rec["ifs"]),
            "message": "inefficiency factor on a trace shorter than 100 draws"}]


def test_worker_shows_each_warning_once(panel_files, tmp_path):
    """Under the default filters, a warning every cell raises reaches
    ``run``'s stderr at most once per worker, while the manifest still
    counts it in every cell."""
    message = "inefficiency factor on a trace shorter than 100 draws"
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(mcmc={"n_iter": 80, "n_burn": 20}, workers=2)
    cmd, env = _entry_point()
    env = {k: v for k, v in (env or os.environ).items() if k != "PYTHONWARNINGS"}
    proc = subprocess.run(cmd + ["run", "--config", _write_config(tmp_path / "c.json", cfg)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert 1 <= proc.stderr.count(f"UserWarning: {message}") <= 2
    with open(tmp_path / "out" / "manifest.json") as fh:
        cells = json.load(fh)["cells"]
    assert len(cells) == 8
    for c in cells:
        with open(tmp_path / "out" / "cells" / (c["cell"] + ".json")) as fh:
            n_ifs = len(json.load(fh)["ifs"])
        assert c["warnings"] == [{"category": "UserWarning", "count": n_ifs, "message": message}]


def test_rerun_skips_completed_cells(experiment, tmp_path, capsys):
    src = experiment["out_dir"]
    out2 = tmp_path / "copy"
    shutil.copytree(src, out2)
    cfg_path = experiment["cfg_path"]

    assert main(["run", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
    assert "8 cached, 0 to run" in capsys.readouterr().out

    victim = "UC-SV_none_1_2021Q1"
    with open(out2 / "draws" / f"{victim}.csv", "rb") as fh:
        before = fh.read()
    os.remove(out2 / "draws" / f"{victim}.csv")
    os.remove(out2 / "cells" / f"{victim}.json")
    assert main(["run", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
    assert "7 cached, 1 to run" in capsys.readouterr().out
    with open(out2 / "draws" / f"{victim}.csv", "rb") as fh:
        assert fh.read() == before


def test_manifest_reproduces_run_bit_exactly(experiment, tmp_path):
    """Re-running from the manifest's embedded config, with a worker pool,
    must reproduce every draws and scores file byte for byte."""
    with open(os.path.join(experiment["out_dir"], "manifest.json")) as fh:
        cfg2 = json.load(fh)["config"]
    out2 = tmp_path / "repro"
    cfg2["out_dir"] = str(out2)
    cfg2["workers"] = 2
    cfg_path = _write_config(tmp_path / "c.json", cfg2)
    assert main(["run", "--config", cfg_path]) == EXIT_OK
    assert _read_tree(str(out2)) == _read_tree(experiment["out_dir"])


def test_gp_cell_bytes_independent_of_worker_count(panel_files, tmp_path):
    """A GP cell must give the same bytes from a pool of one and of two."""
    trees = []
    for workers in (1, 2):
        cfg = _base_config(panel_files, tmp_path / f"w{workers}")
        cfg.update(models=["GP-Homosk"], eval_start="2021Q4", eval_end="2021Q4",
                   workers=workers)
        cfg_path = _write_config(tmp_path / f"c{workers}.json", cfg)
        assert main(["run", "--config", cfg_path]) == EXIT_OK
        trees.append(_read_tree(str(tmp_path / f"w{workers}")))
    assert sorted(trees[0]) == ["cells/GP-Homosk_Moderate_1_2021Q3.json",
                                "draws/GP-Homosk_Moderate_1_2021Q3.csv"]
    assert trees[0] == trees[1]


def test_run_submits_longest_cells_first(panel_files, tmp_path, monkeypatch):
    """The pool gets the GP-path cells first and the trend cells last: mean
    kind GPSub, GP, Linear, UC, then error kind DPMSV, SV, DPM, Homosk, then
    the later origin first. Cached cells are not submitted."""
    submitted = []

    class _RecordingPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            submitted.append((task["model_id"], task["origin"]))
            fut = Future()
            fut.set_result({"cell": "", "status": "ok"})
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg["models"] = ["UC-Homosk", "Linear-SV", "GP-DPM", "GPSub-Homosk",
                     "GPSub-DPMSV", "GP-SV"]
    cached = cli.Cell("GP-SV", "Moderate", 1, parse_quarter("2021Q1"))
    for path in cli._cell_paths(cfg["out_dir"], cached, "csv"):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w").close()
    assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == EXIT_OK
    late_first = [parse_quarter(o) for o in reversed(ORIGINS)]
    expected = [(m, o) for m in ("GPSub-DPMSV", "GPSub-Homosk", "GP-SV", "GP-DPM",
                                 "Linear-SV", "UC-Homosk")
                for o in late_first if (m, o) != ("GP-SV", cached.origin)]
    assert submitted == expected


def test_run_with_dead_worker_writes_manifest(panel_files, tmp_path, monkeypatch,
                                               capsys):
    """A worker that dies breaks the pool: every future not yet finished
    raises BrokenProcessPool. The run still writes its manifest, marks the
    cells without a result unfinished with the error, and exits partial."""
    submitted = []

    class _BrokenPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            cell = cli.Cell(task["model_id"], task["dataset_label"], task["horizon"],
                            task["origin"])
            submitted.append(cell.cell_id)
            fut = Future()
            if len(submitted) == 1:
                fut.set_result({"cell": cell.cell_id, "status": "ok"})
            else:
                fut.set_exception(BrokenProcessPool("a worker process terminated"))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _BrokenPool)
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg["models"] = ["UC-SV"]
    cached = cli.Cell("UC-SV", "none", 1, parse_quarter("2021Q1"))
    for path in cli._cell_paths(cfg["out_dir"], cached, "csv"):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w").close()
    assert main(["run", "--config", _write_config(tmp_path / "c.json", cfg)]) == EXIT_PARTIAL
    assert "worker pool broke: BrokenProcessPool" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out").count("manifest.json.tmp") == 0
    with open(tmp_path / "out" / "manifest.json") as fh:
        cells = {c["cell"]: c for c in json.load(fh)["cells"]}
    assert len(submitted) == 3 and cached.cell_id not in submitted
    assert cells[cached.cell_id]["status"] == "cached"
    assert cells[submitted[0]]["status"] == "ok"
    for cid in submitted[1:]:
        assert cells[cid]["status"] == "unfinished"
        assert cells[cid]["error"] == "BrokenProcessPool: a worker process terminated"


def _proc_stat(pid):
    """(state, parent pid) of a process, read from /proc; None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _children(pid):
    """Pids whose parent is ``pid``, zombies included."""
    kids = []
    for name in filter(str.isdigit, os.listdir("/proc")):
        stat = _proc_stat(name)
        if stat and stat[1] == pid:
            kids.append(int(name))
    return kids


def _cpu_of_children():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@needs_proc
def test_run_waits_for_its_workers(panel_files, tmp_path):
    """``run`` waits for its workers and their server before it exits: its
    resource usage covers the chains it ran, and after ``main(["run"])`` the
    caller has no child left but multiprocessing's resource tracker."""
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(models=["UC-SV"], mcmc={"n_iter": 600, "n_burn": 100}, workers=2)
    cmd, env = _entry_point()
    before = _cpu_of_children()
    res = subprocess.run(cmd + ["run", "--config", _write_config(tmp_path / "c.json", cfg)],
                         capture_output=True, text=True, env=env)
    cpu = _cpu_of_children() - before
    assert res.returncode == EXIT_OK, res.stderr
    with open(tmp_path / "out" / "manifest.json") as fh:
        chains = sum(c["runtime"] for c in json.load(fh)["cells"])
    # The chains alone take some 2 s; run's own process, some 0.5 s.
    assert cpu >= 0.8 * chains, (cpu, chains)

    cfg.update(mcmc={"n_iter": 130, "n_burn": 30}, out_dir=str(tmp_path / "in_process"))
    assert main(["run", "--config", _write_config(tmp_path / "c2.json", cfg)]) == EXIT_OK
    left = set(_children(os.getpid())) - {resource_tracker._resource_tracker._pid}
    assert left == set()


@needs_proc
def test_run_with_killed_worker_writes_manifest(panel_files, tmp_path):
    """SIGKILL to a real worker mid-run: ``run`` exits partial, marks the
    cells without a result unfinished, and leaves no process behind."""
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(models=["UC-SV"], mcmc={"n_iter": 1500, "n_burn": 100})
    cmd, env = _entry_point()
    proc = subprocess.Popen(cmd + ["run", "--config",
                                   _write_config(tmp_path / "c.json", cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    cell_dir = tmp_path / "out" / "cells"
    deadline = time.monotonic() + 120
    while not (cell_dir.is_dir() and any(n.endswith(".json") for n in os.listdir(cell_dir))):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.02)
    workers = _children(proc.pid)  # run's only children are its workers
    assert len(workers) == 1  # a pool of one, on the second cell
    os.kill(workers[0], signal.SIGKILL)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_PARTIAL, err
    assert "worker pool broke: BrokenProcessPool" in err
    with open(tmp_path / "out" / "manifest.json") as fh:
        status = [c["status"] for c in json.load(fh)["cells"]]
    assert len(status) == 4 and "unfinished" in status
    assert set(status) <= {"ok", "unfinished"}
    # run reaped its worker before it exited
    assert [p for p in workers if os.path.exists(f"/proc/{p}")] == []


def _wait_for_workers(proc, n):
    """The pids of ``proc``'s children once there are ``n`` of them."""
    deadline = time.monotonic() + 120
    while len(kids := _children(proc.pid)) < n:
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.02)
    return kids


@needs_proc
def test_workers_fork_from_run_found_through_sys_path(panel_files, tmp_path):
    """A caller that puts ``src`` on ``sys.path`` itself, with no
    PYTHONPATH: while a cell runs, ``run``'s children are its workers, each
    forked with the engine loaded, so it maps scipy's shared libraries, and
    none has children of its own. Forking duplicates none of ``run``'s
    lines on a piped stdout."""
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(models=["UC-SV"], mcmc={"n_iter": 1500, "n_burn": 100}, workers=2)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(bnpforecast.__file__)))
    argv = ["run", "--config", _write_config(tmp_path / "c.json", cfg)]
    code = (f"import sys\nsys.path.insert(0, {src_dir!r})\n"
            f"from bnpforecast.cli import main\nsys.exit(main({argv!r}))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    workers = _wait_for_workers(proc, 2)
    libs = {}
    for w in workers:
        with open(f"/proc/{w}/maps") as fh:
            libs[w] = {line.split()[-1] for line in fh if ".so" in line}
    grandchildren = [c for w in workers for c in _children(w)]
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_OK, err
    assert len(workers) == 2 and grandchildren == []
    for w in workers:
        assert any("/scipy" in lib for lib in libs[w]), sorted(libs[w])
    assert out.count("grid: ") == 1 and out.count("run complete") == 1, out


@needs_proc
def test_run_workers_are_single_threaded(panel_files, tmp_path):
    """While the GP cells of a CLI ``run`` execute, each worker has one
    thread: it inherits the one-thread BLAS that ``cli`` set up before
    numpy loaded, so the kernel factorizations start no BLAS threads."""
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(models=["GP-Homosk"], mcmc={"n_iter": 1000, "n_burn": 100}, workers=2)
    cmd, env = _entry_point()
    proc = subprocess.Popen(cmd + ["run", "--config", _write_config(tmp_path / "c.json", cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    workers = _wait_for_workers(proc, 2)
    cell_dir = tmp_path / "out" / "cells"
    deadline = time.monotonic() + 120
    # once a cell is written, each worker is in, or past, its first GP chain
    while not any(n.endswith(".json") for n in os.listdir(cell_dir)):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.02)
    threads = {}
    for w in workers:
        with open(f"/proc/{w}/status") as fh:
            threads[w] = next(line.split()[1] for line in fh if line.startswith("Threads:"))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_OK, err
    assert len(workers) == 2 and set(threads.values()) == {"1"}, threads


def test_run_warns_when_numpy_loaded_before_cli(panel_files, tmp_path):
    """A caller that imports numpy before ``cli``, with the thread variables
    unset, gets one warning from ``run`` (two runs here) that its workers
    inherit the caller's BLAS threads. With the variables set, none."""
    message = "run's workers inherit this process's BLAS threads"
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(models=["UC-Homosk"], mcmc={"n_iter": 80, "n_burn": 20},
               eval_start="2021Q4", eval_end="2021Q4")
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(bnpforecast.__file__)))
    code = ("import sys\nimport numpy\nfrom bnpforecast.cli import main\n"
            f"sys.exit(max(main(['run', '--config', {cfg_path!r}, '--out', sys.argv[1]]),\n"
            f"             main(['run', '--config', {cfg_path!r}, '--out', sys.argv[2]])))")
    unset = {k: v for k, v in os.environ.items()
             if k not in cli._THREAD_VARS and k != "PYTHONWARNINGS"}
    unset["PYTHONPATH"] = src_dir
    for env, count in ((unset, 1), (dict(unset, **dict.fromkeys(cli._THREAD_VARS, "1")), 0)):
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path / f"a{count}"),
                              str(tmp_path / f"b{count}")], capture_output=True, text=True,
                             env=env)
        assert res.returncode == EXIT_OK, res.stderr
        assert res.stderr.count(message) == count, res.stderr


def test_failed_cell_logged_grid_continues(panel_files, tmp_path, capsys):
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg["models"] = ["UC-SV"]
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    # Cells run in worker processes, so the fault is planted on disk: a
    # directory where the 2021Q2 cell writes its temporary draws file makes
    # that cell fail inside its worker.
    blocker = tmp_path / "out" / "draws" / "UC-SV_none_1_2021Q2.csv.tmp"
    os.makedirs(blocker)

    assert main(["run", "--config", cfg_path]) == EXIT_PARTIAL
    captured = capsys.readouterr()
    assert "FAILED UC-SV_none_1_2021Q2" in captured.err
    with open(tmp_path / "out" / "manifest.json") as fh:
        cells = {c["cell"]: c for c in json.load(fh)["cells"]}
    assert cells["UC-SV_none_1_2021Q2"]["status"] == "failed"
    assert "IsADirectoryError" in cells["UC-SV_none_1_2021Q2"]["error"]
    trace = cells["UC-SV_none_1_2021Q2"]["traceback"]
    assert "IsADirectoryError" in trace and "_atomic_write" in trace
    ok = [c for c in cells.values() if c["status"] == "ok"]
    assert len(ok) == 3

    # recovery: only the failed cell is executed on the next pass
    os.rmdir(blocker)
    assert main(["run", "--config", cfg_path]) == EXIT_OK
    assert "3 cached, 1 to run" in capsys.readouterr().out
    with open(tmp_path / "out" / "manifest.json") as fh:
        cells = {c["cell"]: c for c in json.load(fh)["cells"]}
    assert cells["UC-SV_none_1_2021Q2"]["status"] == "ok"


def test_min_train_below_default_runs_every_cell(panel_files, tmp_path):
    """``min_train`` reaches the engine: 26-29 training quarters at
    ``min_train: 10`` are accepted, not refused against the default of 40."""
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(eval_start="1979Q1", eval_end="1979Q4", min_train=10)
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    assert main(["run", "--config", cfg_path]) == EXIT_OK
    with open(tmp_path / "out" / "manifest.json") as fh:
        cells = json.load(fh)["cells"]
    assert len(cells) == 8
    assert all(c["status"] == "ok" for c in cells)
    for c in cells:
        with open(tmp_path / "out" / "cells" / f"{c['cell']}.json") as fh:
            assert 10 <= json.load(fh)["train_quarters"] < 40


def test_binary_draws_format(experiment, panel_files, tmp_path):
    cfg = _base_config(panel_files, tmp_path / "out")
    cfg.update(models=["UC-SV"], eval_start="2021Q4", eval_end="2021Q4",
               draws_format="bin")
    cfg_path = _write_config(tmp_path / "c.json", cfg)
    assert main(["run", "--config", cfg_path]) == EXIT_OK
    bin_draws = np.load(tmp_path / "out" / "draws" / "UC-SV_none_1_2021Q3.npy")
    with open(os.path.join(experiment["out_dir"], "draws",
                           "UC-SV_none_1_2021Q3.csv")) as fh:
        csv_draws = np.array([float(r["draw"]) for r in csv.DictReader(fh)])
    assert np.array_equal(bin_draws, csv_draws)


# ---------------------------------------------------------------------------
# report


def _read_table(out_dir):
    with open(os.path.join(out_dir, "table1.csv")) as fh:
        return list(csv.DictReader(fh))


def test_report_full_run(experiment):
    out = experiment["out_dir"]
    assert main(["report", "--out", out]) == EXIT_OK
    rows = {r["model"]: r for r in _read_table(out)}
    assert set(rows) == {"UC-SV", "Linear-Homosk[Moderate]"}
    bench = rows["UC-SV"]
    assert float(bench["mse_ratio"]) == 1.0
    assert float(bench["lpl_diff"]) == 0.0
    assert bench["status"] == "ok"

    # the table must match the scoring oracle applied to the cell records
    panels = {}
    for key, model, ds in (("UC-SV", "UC-SV", "none"),
                           ("Linear-Homosk[Moderate]", "Linear-Homosk", "Moderate")):
        recs = []
        for o in ORIGINS:
            with open(os.path.join(out, "cells", f"{model}_{ds}_1_{o}.json")) as fh:
                recs.append(json.load(fh))
        panels[key] = ScorePanel(
            model_id=key,
            origin_dates=np.array([parse_quarter(o) for o in ORIGINS]),
            y_true=np.array([r["y_true"] for r in recs]),
            sq_errors=np.array([r["sq_error"] for r in recs]),
            lpls=np.array([r["lpl"] for r in recs]),
            qs={p: np.array([r["qs"]["%g" % p] for r in recs])
                for p in (0.05, 0.1, 0.5, 0.9, 0.95)},
            pits=np.array([r["pit"] for r in recs]),
            horizon=1)
    oracle = {r["model"]: r for r in relative_table(panels, "UC-SV")}
    got = rows["Linear-Homosk[Moderate]"]
    want = oracle["Linear-Homosk[Moderate]"]
    for col in ("mse_ratio", "lpl_diff", "mse_level", "lpl_level",
                "qs_ratio_0.5", "qs_ratio_0.95"):
        assert float(got[col]) == pytest.approx(want[col], rel=1e-8)

    for name in ("scores_UC-SV_h1.csv", "scores_Linear-Homosk_Moderate_h1.csv",
                 "calibration_UC-SV_h1.csv", "cumulative_lpl_h1.csv",
                 "cumulative_qs50_h1.csv", "qs_subsamples_h1.csv"):
        assert os.path.exists(os.path.join(out, name)), name

    with open(os.path.join(out, "cumulative_lpl_h1.csv")) as fh:
        cum = list(csv.DictReader(fh))
    assert len(cum) == 4
    assert all(float(r["UC-SV"]) == 0.0 for r in cum)

    with open(os.path.join(out, "qs_subsamples_h1.csv")) as fh:
        sub = list(csv.DictReader(fh))
    assert len(sub) == 10  # 2 models x 5 quantile levels
    for r in sub:
        assert r["1980-1990"] == ""  # no evaluation origins that early
        assert r["2011-2021"] != ""
    uc_rows = [r for r in sub if r["model"] == "UC-SV"]
    assert all(float(r["2011-2021"]) == 1.0 for r in uc_rows)


def _fake_record(model, dataset, origin, y_true, point, lpl, qs, pit):
    return {"model": model, "dataset": dataset, "horizon": 1, "origin": origin,
            "y_true": y_true, "point": point,
            "sq_error": (y_true - point) ** 2, "lpl": lpl,
            "qs": {"%g" % p: v for p, v in qs.items()}, "pit": pit}


def _write_cells(out_dir, records):
    cells = os.path.join(out_dir, "cells")
    os.makedirs(cells, exist_ok=True)
    for i, rec in enumerate(records):
        with open(os.path.join(cells, f"cell{i}.json"), "w") as fh:
            json.dump(rec, fh)


def test_report_without_benchmark_emits_levels(tmp_path):
    qs = {0.5: 0.2, 0.95: 0.05}
    _write_cells(tmp_path, [
        _fake_record("GP-DPM", "Moderate", "2015Q1", 1.0, 0.8, -1.1, qs, 0.4),
        _fake_record("GP-DPM", "Moderate", "2015Q2", 1.5, 1.4, -0.9, qs, 0.6),
    ])
    with pytest.warns(UserWarning, match="levels only"):
        assert cli.cmd_report(str(tmp_path)) == EXIT_OK
    rows = _read_table(tmp_path)
    assert len(rows) == 1
    assert "mse_ratio" not in rows[0]
    assert float(rows[0]["mse_level"]) == pytest.approx((0.2 ** 2 + 0.1 ** 2) / 2)
    assert float(rows[0]["lpl_level"]) == pytest.approx(-1.0)


def test_report_marks_missing_model_absent(tmp_path):
    qs = {0.5: 0.2, 0.95: 0.05}
    _write_cells(tmp_path, [
        _fake_record("UC-SV", "none", "2015Q1", 1.0, 0.8, -1.1, qs, 0.4),
        _fake_record("UC-SV", "none", "2015Q2", 1.5, 1.4, -0.9, qs, 0.6),
    ])
    manifest = {"cells": [
        {"cell": "a", "model": "UC-SV", "dataset": "none"},
        {"cell": "b", "model": "GP-SV", "dataset": "Moderate"},
    ]}
    with open(tmp_path / "manifest.json", "w") as fh:
        json.dump(manifest, fh)
    assert cli.cmd_report(str(tmp_path)) == EXIT_OK
    rows = {r["model"]: r for r in _read_table(tmp_path)}
    assert rows["UC-SV"]["status"] == "ok"
    assert float(rows["UC-SV"]["mse_ratio"]) == 1.0
    assert rows["GP-SV[Moderate]"]["status"] == "absent"
    assert rows["GP-SV[Moderate]"]["mse_ratio"] == ""


def test_report_on_empty_dir_is_config_error(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "no cell results" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# summarize-lasso


def test_summarize_lasso_outputs(experiment):
    assert main(["summarize-lasso", "--config", experiment["cfg_path"]]) == EXIT_OK
    out = experiment["out_dir"]
    with open(os.path.join(out, "r2_h1.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "p", "r2", "lambda", "n_active"]
    body = rows[1:]
    assert len(body) == 5  # one regression model, five quantile levels
    assert {r[0] for r in body} == {"Linear-Homosk[Moderate]"}
    assert [r[1] for r in body] == ["0.05", "0.1", "0.5", "0.9", "0.95"]
    for r in body:
        assert float(r[3]) >= 0.0
        assert int(r[4]) >= 0
    with open(os.path.join(out, "lasso_h1.csv")) as fh:
        header = next(csv.reader(fh))
    assert header == ["model", "variable", "p", "coefficient"]


def test_summarize_lasso_failed_fit_keeps_other_models(experiment, tmp_path,
                                                      monkeypatch, capsys):
    """One model whose fit raises is reported and skipped; the others are
    still written and the command exits partial."""
    out = tmp_path / "out"
    shutil.copytree(os.path.join(experiment["out_dir"], "cells"), out / "cells")
    # a second regression model: the Linear-Homosk records relabelled GP-Homosk
    for name in os.listdir(out / "cells"):
        if name.startswith("Linear-Homosk"):
            with open(out / "cells" / name) as fh:
                rec = json.load(fh)
            rec["model"] = "GP-Homosk"
            with open(out / "cells" / name.replace("Linear", "GP"), "w") as fh:
                json.dump(rec, fh)
    cfg = dict(experiment["cfg"], out_dir=str(out))
    cfg_path = _write_config(tmp_path / "c.json", cfg)

    real_fit = linear_summary.fit_quantile_paths
    calls = []

    def fit_or_fail(paths, X, *args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 1:  # models are fitted in sorted order: GP-Homosk first
            raise RuntimeError("active-set LASSO failed to converge")
        return real_fit(paths, X, *args, **kwargs)

    monkeypatch.setattr(linear_summary, "fit_quantile_paths", fit_or_fail)
    assert main(["summarize-lasso", "--config", cfg_path]) == EXIT_PARTIAL
    assert len(calls) == 2
    err = capsys.readouterr().err
    assert "GP-Homosk[Moderate]: error: RuntimeError: active-set LASSO" in err
    with open(out / "r2_h1.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert {r[0] for r in rows} == {"Linear-Homosk[Moderate]"}
    assert len(rows) == 5
    with open(out / "lasso_h1.csv") as fh:
        assert {r[0] for r in list(csv.reader(fh))[1:]} <= {"Linear-Homosk[Moderate]"}


# ---------------------------------------------------------------------------
# entry point


def _entry_point():
    """Command and environment that run the ``bnpforecast`` entry point.

    The installed console script when it is on PATH; otherwise the
    uninstalled tree via ``python -m bnpforecast``, with the package found
    from its own location, after checking that pyproject.toml declares the
    same callable that ``__main__`` runs.
    """
    script = shutil.which("bnpforecast")
    if script:
        return [script], None
    if tomllib is not None:
        pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["bnpforecast"] == "bnpforecast.cli:main"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(bnpforecast.__file__)))
    return [sys.executable, "-m", "bnpforecast"], {**os.environ, "PYTHONPATH": src_dir}


def test_console_script_roundtrip(panel_files, tmp_path):
    cfg_path = _write_config(tmp_path / "c.json",
                             _base_config(panel_files, tmp_path / "out"))
    cmd, env = _entry_point()
    ok = subprocess.run(cmd + ["validate", "--config", cfg_path],
                        capture_output=True, text=True, env=env)
    assert ok.returncode == EXIT_OK
    assert "8 cells" in ok.stdout
    bad = subprocess.run(cmd + ["validate", "--config",
                                str(tmp_path / "missing.json")],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == EXIT_CONFIG
    assert "missing.json" in bad.stderr

def test_only_run_workers_import_scipy(experiment, tmp_path):
    """Each command imports only what it uses. No process but ``run`` and
    its workers loads scipy: ``validate``, ``report`` and
    ``summarize-lasso`` never estimate a cell. ``run`` imports the engine
    only when it has cells to run: a rerun into a complete output directory
    loads neither scipy, the engine nor the pool modules. Only ``run`` loads
    the pool modules, and only ``summarize-lasso`` the LASSO. No process at
    all imports jsonschema: a stand-in package earlier on every process's
    path records each import."""
    out = tmp_path / "out"
    shutil.copytree(os.path.join(experiment["out_dir"], "cells"), out / "cells")
    cfg_path = _write_config(tmp_path / "c.json", dict(experiment["cfg"], out_dir=str(out)))
    run_cfg = _write_config(tmp_path / "run.json",
                            dict(experiment["cfg"], out_dir=str(tmp_path / "run_out")))
    imported = tmp_path / "jsonschema_imports"
    imported.mkdir()
    (tmp_path / "stand_in" / "jsonschema").mkdir(parents=True)
    (tmp_path / "stand_in" / "jsonschema" / "__init__.py").write_text(
        "import os\n"
        f"open(os.path.join({str(imported)!r}, str(os.getpid())), 'w').close()\n"
        "raise ImportError('jsonschema is not a runtime dependency')\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(bnpforecast.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, str(tmp_path / "stand_in")])}
    pool = ("concurrent.futures", "multiprocessing")
    runs = [
        (None, ("scipy", "bnpforecast.linear_summary") + pool),
        (["validate", "--config", cfg_path], ("scipy", "bnpforecast.linear_summary") + pool),
        (["report", "--out", str(out)], ("scipy", "bnpforecast.linear_summary") + pool),
        (["report", "--config", cfg_path], ("scipy", "bnpforecast.linear_summary") + pool),
        (["summarize-lasso", "--config", cfg_path], ("scipy",) + pool),
        (["run", "--config", run_cfg], ("bnpforecast.linear_summary",)),
        (["run", "--config", run_cfg],  # a rerun, with every cell done
         ("scipy", "bnpforecast.model_engine", "bnpforecast.linear_summary") + pool),
    ]
    for argv, banned in runs:
        code = ("import json, sys, bnpforecast, bnpforecast.cli\n"
                f"rc = bnpforecast.cli.main({argv!r}) if {argv!r} else 0\n"
                "print(json.dumps([rc, sorted(sys.modules)]))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env)
        assert res.returncode == 0, res.stderr
        rc, modules = json.loads(res.stdout.strip().splitlines()[-1])
        assert rc == EXIT_OK, (argv, res.stderr)
        assert [m for m in modules if any(m == b or m.startswith(b + ".") for b in banned)
                ] == [], argv
        assert "jsonschema" not in modules, argv
    assert os.listdir(imported) == []
