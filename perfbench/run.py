"""teamscope benchmark: three course workloads through the real CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload commits --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced then traced

``--trace 0`` runs the workload's ``teamscope`` commands in fresh
interpreters, one at a time (a closed loop with one client), for at least
``--seconds`` seconds, and reports the end-to-end metrics. Times are scaled
to a reference CPU speed sampled while each command runs (see ``speed.py``).
``--trace 1``
calls ``teamscope.cli.main`` in-process instead: one untraced pass, then one
pass with every public function wrapped (see ``tracer.py``), and reports the
per-layer metrics and the tracing overhead. Outputs are checked after every
pass. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, per-command times, output sha256s) goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedSampler, pin_to_one_cpu

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
# one BLAS thread for the harness and every command it starts, so that runs
# compare like with like on a small shared machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "quality_f1": "ratio",
    "setup_s": "s",
}
# per-command wall seconds and named quality figures, reported beside the above
COMMAND_METRICS = [
    "ingest_s", "train_commits_s", "eval_commits_s", "label_commits_s", "features_s",
    "eval_teams_forest_s", "train_teams_logistic_s", "predict_s", "flag_s",
]
QUALITY_METRICS = ["commit_macro_f1", "forest_macro_f1", "solo_flag_f1"]
# per-layer metrics a traced run adds to those of tracer.metric_names()
TRACE_METRICS = ["cli.import_s", "trace.untraced_s", "trace.traced_s", "trace.overhead_s", "trace.spans"]


@dataclass
class CommandRun:
    name: str
    returncode: int
    wall_s: float
    cpu_s: float = 0.0
    rss_kb: int = 0
    slowdown: float = 1.0  # see speed.py; seconds / slowdown = reference-speed seconds


class SetupError(RuntimeError):
    pass


class SubprocessCli:
    """Runs ``python -m teamscope.cli ARGV`` in a fresh interpreter and waits for it."""

    def __init__(self, logs: Path, sampler):
        self.logs = logs
        self.sampler = sampler
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.seq = 0

    def __call__(self, name: str, argv: list[str]) -> CommandRun:
        self.seq += 1
        with open(self.logs / f"{self.seq:03d}-{name}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "teamscope.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                env=self.env, cwd=self.logs,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CommandRun(
            name, proc.returncode, end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            self.sampler.slowdown(start, end),
        )


class InProcessCli:
    """Calls ``teamscope.cli.main(argv)``, traced when given a tracer."""

    def __init__(self, logs: Path, tracer=None):
        self.logs = logs
        self.tracer = tracer
        self.seq = 0

    def __call__(self, name: str, argv: list[str]) -> CommandRun:
        import teamscope.cli

        self.seq += 1
        traced = self.tracer if self.tracer is not None else contextlib.nullcontext()
        with open(self.logs / f"{self.seq:03d}-{name}.log", "w", encoding="utf-8") as log:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), traced:
                start = time.perf_counter()
                code = teamscope.cli.main(argv)  # looked up per call: the tracer rebinds it
                wall = time.perf_counter() - start
        return CommandRun(name, code, wall)


def _setup_cli(cli):
    """A runner for set-up steps: a failing command aborts the run."""

    def run(name, argv):
        result = cli(name, argv)
        if result.returncode != 0:
            raise SetupError(f"set-up command {name} exited {result.returncode}")
        return result

    return run


# ---------------------------------------------------------------------------
# run record


def environment() -> dict:
    import numpy

    commit = "unknown"  # e.g. an exported tree with no .git of its own
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def output_digests(data: Path) -> dict[str, str]:
    """sha256 of every input and output file the run left in its data directory."""
    return {
        str(path.relative_to(data)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(data.rglob("*"))
        if path.is_file()
    }


def cli_import_seconds() -> float:
    """Median wall time of ``import teamscope.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import teamscope.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one workload


def checked(workload) -> tuple[dict, list[str]]:
    """The workload's checks; missing or malformed outputs count as a failed check."""
    try:
        return workload.check()
    except (OSError, ValueError, KeyError) as exc:
        return {}, [f"outputs unreadable: {exc!r}"]


def run_untraced(workload_cls, work: Path, seed: int, seconds: int, record: dict) -> dict:
    with SpeedSampler() as sampler:
        cli = SubprocessCli(work / "logs", sampler)
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "data", ignore_errors=True)
            workload = workload_cls(work / "data", seed)
            workload.work.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(_setup_cli(cli))
            end = time.perf_counter()
            setups.append((end - start, sampler.slowdown(start, end)))

        passes, quality, failures = [], {}, []
        start = time.perf_counter()
        while True:
            results = []
            for name, argv in workload.commands():
                results.append(cli(name, argv))
                if results[-1].returncode != 0:
                    failures.append(f"{name} exited {results[-1].returncode}")
                    break
            passes.append(results)
            if failures:
                break
            quality, failed_checks = checked(workload)
            failures += failed_checks
            if time.perf_counter() - start >= seconds:
                break

    record.update(
        setups=[{"s": s, "slowdown": d} for s, d in setups],
        passes=[[vars(r) for r in p] for p in passes],
        quality=quality,
        unscaled_s={
            "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
            "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
            "setup_s": statistics.median(s for s, _ in setups),
        },
        slowdown=statistics.median(r.slowdown for p in passes for r in p),
    )
    metrics = {}
    if not failures:
        metrics = {
            "wall_s": statistics.median(sum(r.wall_s / r.slowdown for r in p) for p in passes),
            "cpu_s": statistics.median(sum(r.cpu_s / r.slowdown for r in p) for p in passes),
            "peak_rss_mb": max(r.rss_kb for p in passes for r in p) / 1024,
            "quality_f1": quality["quality_f1"],
            "setup_s": statistics.median(s / d for s, d in setups),
        }
        record["commands_s"] = {
            name: statistics.median(r.wall_s / r.slowdown for p in passes for r in p if r.name == name)
            for name, _ in workload.commands()
        }
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r.returncode != 0)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "failures": failures}


def run_traced(workload_cls, work: Path, seed: int, record: dict, spans_path: Path) -> dict:
    from tracer import Tracer, metric_names

    logs = work / "logs"
    tracer = Tracer()
    workload = workload_cls(work / "data", seed)
    workload.work.mkdir(parents=True)
    workload.setup(_setup_cli(InProcessCli(logs, tracer)))

    walls, attempted, failed, failures = {}, 0, 0, []
    for label, cli in (("untraced", InProcessCli(logs)), ("traced", InProcessCli(logs, tracer))):
        walls[label] = 0.0
        for name, argv in workload.commands():
            result = cli(name, argv)
            attempted += 1
            walls[label] += result.wall_s
            if result.returncode != 0:
                failed += 1
                failures.append(f"{label} {name} exited {result.returncode}")
                break
        else:
            quality, failed_checks = checked(workload)
            failures += [f"{label}: {f}" for f in failed_checks]
            record["quality"] = quality
        if failures:
            break

    metrics = {}
    if not failures:
        metrics = tracer.layer_metrics()
        metrics.update({
            "cli.import_s": cli_import_seconds(),
            "trace.untraced_s": walls["untraced"],
            "trace.traced_s": walls["traced"],
            "trace.overhead_s": walls["traced"] - walls["untraced"],
            "trace.spans": len(tracer.starts),
        })
        if list(metrics) != metric_names() + TRACE_METRICS:
            raise RuntimeError("traced run produced an undeclared set of per-layer metrics")
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for span in tracer.spans():
            fh.write(json.dumps(span) + "\n")
    record["spans_file"] = spans_path.name
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "failures": failures}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in QUALITY_METRICS or name.endswith(("_per_message", "_per_stage_eval")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import WORKLOADS

    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}"
    work = WORK_DIR / tag
    (work / "logs").mkdir(parents=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    try:
        if trace:
            outcome = run_traced(WORKLOADS[name], work, seed, record, RESULTS_DIR / f"{tag}.spans.jsonl.gz")
        else:
            outcome = run_untraced(WORKLOADS[name], work, seed, seconds, record)
        record["outputs_sha256"] = output_digests(work / "data")
    except SetupError as exc:
        outcome = {"metrics": {}, "attempted": 1, "failed": 1, "failures": [str(exc)]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(outcome)
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"# {name} seed={seed} trace={int(trace)} commit={env['git_commit']} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} cpu={env['pinned_cpus']} blas={env['blas_threads']} "
          f"load={env['loadavg_start']}")
    if "unscaled_s" in record:
        raw = " ".join(f"{k}={v:.6g}" for k, v in record["unscaled_s"].items())
        print(f"# median CPU slowdown {record['slowdown']:.4f}; unscaled seconds: {raw}")
    for path, digest in record.get("outputs_sha256", {}).items():
        print(f"sha256 {digest} {path}")
    reported = {**record.get("commands_s", {}), **record.get("quality", {}), **outcome["metrics"]}
    for metric, value in reported.items():
        print(f"metric {name} {metric} = {value:.6g} {unit_of(metric)}")
    for failure in outcome["failures"]:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    outcome["correct"] = not outcome["failures"] and outcome["failed"] == 0 and bool(outcome["metrics"])
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="commits, teams, weekly or all")
    parser.add_argument("--seed", type=int, default=7, help="reference corpus seed (course uses seed+4)")
    parser.add_argument("--seconds", type=int, default=10, help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = traced in-process run")
    args = parser.parse_args(argv)

    if not (SRC / "teamscope" / "cli.py").is_file():
        print(f"error: teamscope sources not found under {SRC}", file=sys.stderr)
        return 2
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    os.environ.update({var: "1" for var in BLAS_VARS})
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    elif args.workload in WORKLOADS:
        runs = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"unknown workload {args.workload!r}")

    outcomes = {}
    for name, trace in runs:
        outcomes[(name, trace)] = run_workload(name, args.seed, args.seconds, trace)
    correct = all(o["correct"] for o in outcomes.values())
    metrics = {}
    for (name, _), outcome in outcomes.items():
        prefix = f"{name}." if len(outcomes) > 1 else ""
        for metric, value in outcome["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
