"""Traced replay of one workload: per-layer numbers from spans.

Runs the workload's cells one after another in this process, through the
same entry points ``run`` uses (``cli.exec_cell`` per cell, after the
pool initializer), then ``cmd_report`` and ``cmd_summarize_lasso``. The
module attributes through which the layers call one another are wrapped
here, so the package itself carries no tracing code. Each wrapper records
a span (name, start, end, parent span, cell id, and a per-name detail);
spans stay in memory and are written to ``spans.jsonl`` when the replay
ends. Warnings raised inside the replay are counted, not shown.

Usage: PYTHONPATH=src python3 bench/replay.py PLAN_JSON REPLAY_DIR
Prints the per-layer metrics as one JSON object on its last line.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
import warnings
from collections import defaultdict
from contextlib import redirect_stdout

from bnpforecast import cli, error_models, gp_core, linear_summary, model_engine

from checks import ess, load_output
from workloads import fill_lasso_view

# (module, attribute) pairs wrapped for the replay; the attribute is the name
# the calling module looks up, so e.g. make_window's assemble_regression is
# model_engine.assemble_regression.
TRACED = [
    (cli, "load_panel"), (cli, "assemble_regression"), (cli, "assemble_target_only"),
    (cli, "exec_cell"), (cli, "forecast_cell"),
    (cli, "log_pred_likelihood"), (cli, "pit_compute"), (cli, "quantile_score"),
    (cli, "cmd_report"), (cli, "relative_table"), (cli, "write_scores_csv"),
    (cli, "rs_diagnostic"), (cli, "write_calibration_csv"), (cli, "cumulative_path"),
    (cli, "write_cumulative_csv"), (cli, "subsample_average"),
    (cli, "write_relative_table_csv"), (cli, "cmd_summarize_lasso"),
    (model_engine, "assemble_regression"), (model_engine, "run_chain"),
    (model_engine, "mcmc_step"), (model_engine, "error_sweep"),
    (model_engine, "uc_trend_update"), (model_engine, "chol_psd"),
    (model_engine, "sample_kernel_hyper"), (model_engine, "sample_tau2"),
    (model_engine, "predictive_simulate"), (model_engine, "inefficiency_factor"),
    (gp_core, "cho_factor"),
    (error_models, "sv_update"), (error_models, "sample_slice_and_alloc"),
    (linear_summary, "cross_validate"), (linear_summary, "lasso_fit"),
]
SCORING = {"log_pred_likelihood", "pit_compute", "quantile_score"}
REPORT_EVALUATION = {"relative_table", "write_scores_csv", "rs_diagnostic",
                     "write_calibration_csv", "cumulative_path", "write_cumulative_csv",
                     "subsample_average", "write_relative_table_csv"}
MEAN_KINDS = ("UC", "Linear", "GP", "GPSub")
ERROR_KINDS = ("Homosk", "DPM", "SV", "DPMSV")


def _detail(name: str, args, result):
    """What a span keeps beyond its timing: the model of a sweep, the error
    kind and truncation level of an error sweep, the outcome of a hyper move."""
    if name == "mcmc_step":
        return args[0].model_id
    if name == "error_sweep":
        state = result[0]
        return [state.kind, state.dpm.J if state.dpm is not None else None]
    if name == "sample_kernel_hyper":
        return bool(result[1])
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, cell, detail]
        self.stack: list[int] = []
        self.cell: str | None = None

    def wrap(self, module, attr: str) -> None:
        orig = getattr(module, attr)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([attr, 0.0, 0.0, stack[-1] if stack else -1, self.cell, None])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                spans[idx][5] = f"raised {type(exc).__name__}"
                raise
            finally:
                spans[idx][1], spans[idx][2] = t0, time.perf_counter()
                stack.pop()
            spans[idx][5] = _detail(attr, args, result)
            return result

        setattr(module, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, cell, detail) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "cell": cell, "detail": detail}) + "\n")


def replay(plan: dict, replay_dir: str, tracer: Tracer) -> dict:
    out_dir = os.path.join(replay_dir, "out")
    lasso_dir = out_dir if plan["lasso_models"] is None else os.path.join(replay_dir, "lasso_view")
    cfg = cli.load_config(plan["config"], {"out_dir": out_dir})
    lasso_cfg = cli.load_config(plan["lasso_config"], {"out_dir": lasso_dir})
    for sub in ("draws", "cells"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    t0 = time.perf_counter()
    cli._init_worker(cfg.panel, cfg.sidecar)  # what each pool worker runs first
    cells = cli.enumerate_cells(cli._WORKER["panel"], cfg)
    for c in cells:
        task = {"model_id": c.model_id, "dataset_label": c.dataset_label,
                "horizon": c.horizon, "origin": c.origin, "target": cfg.target,
                "expectations": cfg.expectations,
                "include_expectations": cfg.include_expectations and cfg.expectations is not None,
                "mcmc": cfg.mcmc, "seed": cfg.seed, "out_dir": cfg.out_dir,
                "draws_format": cfg.draws_format}
        tracer.cell = c.cell_id
        cli.exec_cell(task)  # a failed cell shows as a missing record in the checks
    tracer.cell = None
    t_cells = time.perf_counter() - t0
    cli.cmd_report(out_dir)
    fill_lasso_view(plan, out_dir, lasso_dir)
    cli.cmd_summarize_lasso(lasso_cfg)
    return {"out_dir": out_dir, "lasso_dir": lasso_dir, "cells_s": t_cells,
            "total_s": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(spans: list[list], caught: list, ess_total: float) -> dict:
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def ancestor(i: int, name: str) -> int:
        p = spans[i][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        return p

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name[name])

    def mean_ms(idx) -> float:
        idx = list(idx)
        return _ratio(1e3 * sum(dur[i] for i in idx), len(idx))

    sweeps = by_name["mcmc_step"]
    model_of = {i: spans[i][5] for i in sweeps}
    gp_sweeps = [i for i in sweeps if not model_of[i].startswith("UC-")]
    gpsub_sweeps = [i for i in sweeps if model_of[i].startswith("GPSub-")]
    chol_in_sweep = [i for i in by_name["chol_psd"] if ancestor(i, "mcmc_step") >= 0]
    n_chol = len(by_name["chol_psd"])
    hyper = by_name["sample_kernel_hyper"]
    singular = {ancestor(i, "sample_kernel_hyper") for i in by_name["chol_psd"]
                if spans[i][5] == "raised SingularKernelError"} - {-1}
    errs = by_name["error_sweep"]
    dpm_j = [spans[i][5][1] for i in errs if spans[i][5][1] is not None]
    err_of_sweep = {spans[i][3]: dur[i] for i in errs}
    n_cells = len(by_name["exec_cell"])
    messages = [str(w.message) for w in caught]

    m = {
        "data_pipeline.load_ms": mean_ms(by_name["load_panel"]),
        "data_pipeline.assemble_ms": mean_ms(by_name["assemble_regression"]),
        "gp_core.chol_per_sweep": _ratio(len(chol_in_sweep), len(gp_sweeps)),
        "gp_core.chol_ms_per_sweep": _ratio(1e3 * sum(dur[i] for i in chol_in_sweep),
                                            len(gp_sweeps)),
        "gp_core.hyper_ms_per_sweep": _ratio(1e3 * total("sample_kernel_hyper"), len(gp_sweeps)),
        "gp_core.tau2_ms_per_sweep": _ratio(1e3 * total("sample_tau2"), len(gpsub_sweeps)),
        "gp_core.jitter_retries_per_1k": _ratio(1e3 * (len(by_name["cho_factor"]) - n_chol),
                                                n_chol),
        "gp_core.hyper_accept": _ratio(sum(spans[i][5] is True for i in hyper), len(hyper)),
        "gp_core.hyper_proposals": float(len(hyper)),
        "gp_core.hyper_singular_per_1k": _ratio(1e3 * len(singular), len(hyper)),
    }
    for kind in ERROR_KINDS:
        m[f"error_models.sweep_ms.{kind}"] = mean_ms(i for i in errs if spans[i][5][0] == kind)
    m["error_models.sv_ms"] = mean_ms(by_name["sv_update"])
    m["error_models.alloc_ms"] = mean_ms(by_name["sample_slice_and_alloc"])
    m["error_models.mixture_j"] = _ratio(sum(dpm_j), len(dpm_j))
    m["error_models.cap_hits_per_1k"] = _ratio(
        1e3 * sum("truncation capped" in s for s in messages), len(sweeps))
    m["error_models.slice_underflow_per_1k"] = _ratio(
        1e3 * sum("slice allocation underflow" in s for s in messages), len(sweeps))
    for mean in MEAN_KINDS:
        for kind in ERROR_KINDS:
            model = f"{mean}-{kind}"
            m[f"model_engine.sweep_ms.{model}"] = mean_ms(i for i in sweeps if model_of[i] == model)
    for mean in MEAN_KINDS:
        idx = [i for i in sweeps if model_of[i].split("-")[0] == mean]
        m[f"model_engine.mean_ms.{mean}"] = _ratio(
            1e3 * sum(dur[i] - err_of_sweep.get(i, 0.0) for i in idx), len(idx))
    chains = by_name["run_chain"]
    m["model_engine.uc_trend_ms"] = mean_ms(by_name["uc_trend_update"])
    m["model_engine.chain_setup_ms"] = _ratio(
        1e3 * sum(dur[i] - child_time[i] for i in chains), len(chains))
    m["model_engine.predictive_ms"] = mean_ms(by_name["predictive_simulate"])
    m["model_engine.if_ms"] = _ratio(1e3 * total("inefficiency_factor"), len(chains))
    m["model_engine.ess_per_sweep"] = _ratio(ess_total, len(sweeps))
    scoring = [i for name in SCORING for i in by_name[name] if ancestor(i, "exec_cell") >= 0]
    m["evaluation.score_ms"] = _ratio(1e3 * sum(dur[i] for i in scoring), n_cells)
    report = [i for name in REPORT_EVALUATION for i in by_name[name]
              if ancestor(i, "cmd_report") >= 0]
    m["evaluation.report_ms"] = _ratio(1e3 * sum(dur[i] for i in report),
                                       len(by_name["cmd_report"]))
    m["linear_summary.fit_calls"] = float(len(by_name["lasso_fit"]))
    m["linear_summary.fit_ms"] = mean_ms(by_name["lasso_fit"])
    m["linear_summary.cv_s"] = _ratio(total("cross_validate"), len(by_name["cross_validate"]))
    m["cli.write_ms"] = _ratio(1e3 * sum(dur[i] - child_time[i] for i in by_name["exec_cell"]),
                               n_cells)
    return m


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        plan = json.load(fh)
    replay_dir = argv[1]
    tracer = Tracer()
    for module, attr in TRACED:
        tracer.wrap(module, attr)
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(sys.stderr):
        warnings.simplefilter("always")
        info = replay(plan, replay_dir, tracer)
    tracer.write(os.path.join(replay_dir, "spans.jsonl"))
    out = load_output(info["out_dir"], info["lasso_dir"])
    info["metrics"] = layer_metrics(tracer.spans, caught, ess(out))
    info["n_spans"] = len(tracer.spans)
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
