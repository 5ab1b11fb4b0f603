"""The pipeline's decisions do not depend on the numeric environment.

``train-commits``, ``eval-commits`` and ``label-commits``, then
``train-teams`` and ``eval-teams`` with both algorithms on those labels,
``predict`` and ``flag`` run in fresh interpreters under one and two OpenBLAS
threads, with numpy's runtime SIMD dispatch turned off
(``NPY_DISABLE_CPU_FEATURES`` naming every dispatched feature the CPU has),
and with OpenBLAS held to its Haswell and Sandybridge kernels
(``OPENBLAS_CORETYPE``; skipped when numpy is not built on OpenBLAS). The
pipelines run in a module fixture, at most four at a time. On the
40-team corpus most RFE rounds have more columns than training teams, so
their Newton directions take the dual form. Model bytes may differ in the
last bits of a logistic weight between these runs; the labels, the
evaluation reports, the predictions, the flags and every team stage's
selected columns must not.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy
import pytest

import teamscope
from teamscope.cli import main
from teamscope.ingest import load_commits_jsonl

_SRC = str(Path(teamscope.__file__).resolve().parents[1])


def _dispatched_features() -> str:
    """The runtime-dispatched numpy CPU features this CPU has, space-separated."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))


def _numpy_uses_openblas() -> bool:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy that cannot say
        return False
    return "openblas" in blas.get("name", "").lower()


_CASES = ["2-threads", "no-dispatch", "Haswell", "Sandybridge"]


def _skip_reason(name: str) -> str | None:
    if name in ("Haswell", "Sandybridge") and not _numpy_uses_openblas():
        return "numpy is not built on OpenBLAS"
    if name == "no-dispatch" and not _dispatched_features():
        return "numpy dispatches no CPU feature at run time on this CPU"
    return None


def _environment(name: str) -> dict[str, str]:
    if name == "1-thread":
        return {"OPENBLAS_NUM_THREADS": "1"}
    if name == "2-threads":
        return {"OPENBLAS_NUM_THREADS": "2"}
    if name in ("Haswell", "Sandybridge"):
        return {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": name}
    return {"OPENBLAS_NUM_THREADS": "1", "NPY_DISABLE_CPU_FEATURES": _dispatched_features()}


@pytest.fixture(scope="module")
def course(tmp_path_factory):
    """A 40-team corpus and its messages tagged with their true categories."""
    root = tmp_path_factory.mktemp("numeric_environment")
    corpus = root / "corpus"
    assert main(["synth", "--seed", "3", "--teams", "40", "--out", str(corpus)]) == 0
    with open(corpus / "truth_commits.csv", encoding="utf-8", newline="") as fh:
        truth = {row["sha"]: row["category"] for row in csv.DictReader(fh)}
    tagged = root / "tagged.csv"
    with open(tagged, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["message", "category"])
        for c in load_commits_jsonl(corpus / "commits.jsonl"):
            writer.writerow([c.message, truth[c.sha]])
    return corpus, tagged


def _run_pipeline(course, out: Path, extra_env: dict[str, str]) -> dict:
    """Each decision-bearing output of the pipeline run under ``extra_env``."""
    corpus, tagged = course
    data = out / "corpus"  # the team commands read the labels label-commits writes
    shutil.copytree(corpus, data)
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.endswith("_NUM_THREADS") and k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.update(extra_env)
    forest = str(out / "teams_forest.json")
    for argv in (
        ["train-commits", "--tagged", str(tagged), "--out", str(out)],
        ["eval-commits", "--tagged", str(tagged), "--folds", "5", "--out", str(out)],
        ["label-commits", "--model", str(out / "cascade.json"), "--data", str(data), "--out", str(data)],
        ["train-teams", "--data", str(data), "--algorithm", "forest", "--out", str(out)],
        ["train-teams", "--data", str(data), "--algorithm", "logistic_rfe", "--out", str(out)],
        ["predict", "--model", forest, "--data", str(data), "--out", str(out)],
        ["flag", "--model", forest, "--data", str(data), "--out", str(out)],
        ["eval-teams", "--data", str(data), "--algorithm", "forest", "--folds", "3", "--out", str(out)],
        ["eval-teams", "--data", str(data), "--algorithm", "logistic_rfe", "--folds", "3", "--out", str(out)],
    ):
        subprocess.run([sys.executable, "-m", "teamscope", *argv], env=env, check=True, capture_output=True)
    outputs = {name: (out / name).read_bytes() for name in (
        "commit_eval.json", "predictions.csv", "flags.json", "team_eval_forest.json",
        "team_eval_logistic_rfe.json")}
    outputs["labels.jsonl"] = (data / "labels.jsonl").read_bytes()
    for algorithm in ("forest", "logistic_rfe"):
        model = json.loads((out / f"teams_{algorithm}.json").read_text(encoding="utf-8"))["model"]
        outputs[f"{algorithm} selected"] = [stage["selected"] for stage in model["stages"]]
    return outputs


@pytest.fixture(scope="module")
def runs(course, tmp_path_factory):
    """The one-thread pipeline and each case that is not skipped, run at most
    ``min(4, cpus)`` at a time, as futures of their outputs."""
    names = ["1-thread"] + [name for name in _CASES if _skip_reason(name) is None]
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        return {
            name: pool.submit(_run_pipeline, course, tmp_path_factory.mktemp(name), _environment(name))
            for name in names
        }


@pytest.mark.parametrize("name", _CASES)
def test_commit_decisions_do_not_depend_on_the_numeric_environment(runs, name):
    reason = _skip_reason(name)
    if reason is not None:
        pytest.skip(reason)
    outputs = runs[name].result()
    for key, expected in runs["1-thread"].result().items():
        assert outputs[key] == expected, key
