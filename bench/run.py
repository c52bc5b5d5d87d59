"""End-to-end benchmark of the bnpforecast CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid16 --seed 1 --seconds 60 --trace 0

A round runs the workload's commands from an empty output directory:
``validate`` (set-up time), ``run``, ``report`` and ``summarize-lasso``,
every one a fresh ``python -m bnpforecast`` process with ``src`` on its
import path, and the yardstick (see YARDSTICK below). Its outputs are then
checked (checks.py). Another round starts only if it is expected to end
within ``--seconds``, so a run is at least one round; each end-to-end
metric is the median of its samples over the rounds, which are
interleaved so that each metric's samples spread over the whole run, and
timings are reported at the yardstick's reference speed. With ``--trace 1`` one untraced round is followed by
a checkpointed rerun of two cells and the traced replay (replay.py), and
the per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

# The CLI's workers default to one BLAS thread; setting the same value here
# keeps an exported thread variable from changing what is measured.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from workloads import WORKERS, WORKLOADS, fill_lasso_view, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
# The yardstick: a fixed program that imports nothing from the package, timed
# once a round like the commands. On a shared host the processor's speed
# drifts by up to 40% within minutes, and every command drifts with it; the
# timings are reported at the speed at which the yardstick takes
# YARDSTICK_REF_S (its median on the machine in README.md), so that runs made
# minutes apart compare the program rather than the host.
YARDSTICK = "import numpy, scipy.linalg, scipy.stats"
YARDSTICK_REF_S = 1.30
SCALED = ("setup_s", "run_wall_s", "run_cpu_s", "report_s", "lasso_s")


class Cli:
    """Runs ``python -m bnpforecast``, or the yardstick, as a child and measures it."""

    def __init__(self, src: str, log_path: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.log_path = log_path

    def __call__(self, *argv: str) -> dict:
        return self.spawn("-m", "bnpforecast", *argv)

    def yardstick(self) -> dict:
        return self.spawn("-c", YARDSTICK)

    def spawn(self, *argv: str) -> dict:
        """Wall time, CPU of the child and every child it waited for, and the
        largest resident set among them (wait4 reports both)."""
        with open(self.log_path, "ab") as log:
            log.write(f"$ python {' '.join(argv)}\n".encode())
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv],
                                    stdout=log, stderr=log, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


class Tally:
    """Operations attempted and failed, and the errors behind the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def run_round(plan: dict, cli: Cli, tally: Tally, panel: dict, expected: dict,
              first: dict | None) -> dict:
    """One pass over the workload's commands from an empty output directory;
    returns its measurements. ``first`` is the first round, whose draws and
    cell records every later round must reproduce byte for byte."""
    for d in {plan["out_dir"], plan["lasso_dir"]}:
        shutil.rmtree(d, ignore_errors=True)
    setup = cli("validate", "--config", plan["config"])
    run = cli("run", "--config", plan["config"])
    yard = cli.yardstick()
    fill_lasso_view(plan, plan["out_dir"], plan["lasso_dir"])
    report = cli("report", "--out", plan["out_dir"])
    lasso = cli("summarize-lasso", "--config", plan["lasso_config"])
    every = [setup, run, yard, report, lasso]
    for c in every:
        tally.op([f"command exited {c['rc']}"] if c["rc"] else [])
    out = checks.load_output(plan["out_dir"], plan["lasso_dir"])
    check_outputs(out, plan, tally, panel, expected, manifest=True)
    digests, tail = checks.digests(plan["out_dir"]), tail_s(plan["out_dir"])
    if first is not None:
        tally.op(compare_bytes(first["digests"], digests, "this round against the first"))
    return {"out": out, "digests": digests, "tail_s": tail,
            "setup_s": setup["wall"], "run_wall_s": run["wall"], "run_cpu_s": run["cpu"],
            "ess": checks.ess(out), "report_s": report["wall"], "lasso_s": lasso["wall"],
            "yardstick_s": yard["wall"], "peak_rss_mb": max(c["rss_mb"] for c in every)}


def rerun_subset(plan: dict, cli: Cli, cell_ids: list[str], digests: dict) -> list[str]:
    """Delete the first and the last cell of the grid and run again: the
    checkpointed rerun must write the same bytes."""
    for cid in (cell_ids[0], cell_ids[-1]):
        for sub, ext in (("draws", "csv"), ("cells", "json")):
            path = os.path.join(plan["out_dir"], sub, f"{cid}.{ext}")
            if os.path.exists(path):  # absent when the cell failed, which is counted
                os.remove(path)
    rerun = cli("run", "--config", plan["config"])
    errs = [f"rerun exited {rerun['rc']}"] if rerun["rc"] else []
    return errs + compare_bytes(digests, checks.digests(plan["out_dir"]), "checkpointed rerun")


def check_outputs(out: dict, plan: dict, tally: Tally, panel: dict, expected: dict,
                  manifest: bool) -> None:
    """One operation per grid cell, then one per output-wide check."""
    status = {c["cell"]: c["status"] for c in (out["manifest"] or {}).get("cells", [])}
    for cid, cell in expected.items():
        errs = checks.check_cell(out, panel, cid, cell)
        if manifest and status.get(cid) != "ok":
            errs.append(f"{cid}: manifest status {status.get(cid)}")
        tally.op(errs)
    with open(plan["config"]) as fh:
        config = json.load(fh)
    if manifest:
        tally.op(checks.check_manifest(out, expected))
    tally.op(checks.check_table1(out, expected, config))
    tally.op(checks.check_lasso(out, panel, config, plan["lasso_models"]))


def end_to_end(rounds: list[dict], spec: list) -> dict:
    """Medians over the rounds; timings at the yardstick's reference speed."""
    med = {k: statistics.median(r[k] for r in rounds)
           for k in SCALED + ("yardstick_s", "peak_rss_mb")}
    speed = YARDSTICK_REF_S / med["yardstick_s"]
    print(f"yardstick: median {med['yardstick_s']:.4f} s, so timings are scaled by "
          f"{speed:.4f}; as measured: " + ", ".join(f"{k} {med[k]:.4f}" for k in SCALED))
    values = {k: med[k] * speed for k in SCALED}
    values["ess_per_s"] = rounds[0]["ess"] / values["run_wall_s"]
    values["peak_rss_mb"] = med["peak_rss_mb"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def compare_bytes(a: dict, b: dict, what: str) -> list[str]:
    if a == b:
        return []
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return [f"{what}: {len(diff)} draws/cells files differ, e.g. {diff[:3]}"]


def tail_s(out_dir: str) -> float:
    """Time from the completion of the (n - workers + 1)-th cell to the last."""
    cells = os.path.join(out_dir, "cells")
    t = sorted(os.stat(os.path.join(cells, n)).st_mtime_ns
               for n in (os.listdir(cells) if os.path.isdir(cells) else []))
    return (t[-1] - t[-WORKERS]) / 1e9 if len(t) >= WORKERS else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bnpforecast", "__main__.py")):
        print(f"no package source under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    plan = write_inputs(args.workload, args.seed, work)
    with open(plan["config"]) as fh:
        config = json.load(fh)
    panel = checks.read_panel(config["panel"], config["sidecar"])
    expected = checks.expected_cells(panel, config)
    cli = Cli(src, os.path.join(work, "commands.log"))
    tally = Tally()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)  # names and units of the metrics printed

    # Rounds are whole: another starts only if one as long as the last still
    # ends within --seconds, so a run lasts --seconds or one round.
    t0 = time.perf_counter()
    rounds = [run_round(plan, cli, tally, panel, expected, None)]
    last = time.perf_counter() - t0
    while not args.trace and time.perf_counter() - t0 + last <= args.seconds:
        t1 = time.perf_counter()
        rounds.append(run_round(plan, cli, tally, panel, expected, rounds[0]))
        last = time.perf_counter() - t1
    missed = checks.self_test(rounds[0]["out"], panel, config, expected, plan["lasso_models"])

    if args.trace:
        tally.op(rerun_subset(plan, cli, sorted(expected), rounds[0]["digests"]))
        metrics = traced(plan, rounds[0], src, tally, panel, expected, spec["per_layer"])
    else:
        metrics = end_to_end(rounds, spec["end_to_end"])
    for line in tally.errors[:20] + [f"self-test: {m}" for m in missed]:
        print(f"FAILED CHECK {line}", file=sys.stderr)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"machine: {os.cpu_count()} cpus, Python {sys.version.split()[0]}, "
          f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}")
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} round(s), "
          f"{tally.attempted} operations, {tally.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0 and not missed,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def traced(plan: dict, untraced: dict, src: str, tally: Tally,
           panel: dict, expected: dict, per_layer: list) -> dict:
    """Replay the workload under tracing; per-layer metrics plus the pool
    figures of the untraced round."""
    replay_dir = os.path.join(plan["work"], "replay")
    os.makedirs(replay_dir, exist_ok=True)
    plan_path = os.path.join(plan["work"], "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, HERE, os.environ.get("PYTHONPATH")) if p))
    with open(os.path.join(replay_dir, "replay.log"), "wb") as log:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "replay.py"),
                               plan_path, replay_dir], stdout=subprocess.PIPE,
                              stderr=log, env=env)
    tally.op([f"replay exited {proc.returncode}"] if proc.returncode else [])
    if proc.returncode:
        return {}
    info = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    out = checks.load_output(info["out_dir"], info["lasso_dir"])
    check_outputs(out, plan, tally, panel, expected, manifest=False)
    tally.op(compare_bytes(untraced["digests"], checks.digests(info["out_dir"]),
                           "traced replay against the untraced run"))
    metrics = dict(info["metrics"])
    run_wall, run_cpu = untraced["run_wall_s"], untraced["run_cpu_s"]
    metrics["cli.pool_util"] = run_cpu / (run_wall * WORKERS)
    metrics["cli.tail_s"] = untraced["tail_s"]
    print(f"traced replay: {info['n_spans']} spans, {info['total_s']:.3f} s in total "
          f"({info['cells_s']:.3f} s in cells) against run_cpu_s {run_cpu:.3f} s "
          f"of the untraced round; cli.pool_util = {run_cpu:.3f} s / "
          f"({run_wall:.3f} s x {WORKERS} workers)")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in per_layer}


if __name__ == "__main__":
    sys.exit(main())
