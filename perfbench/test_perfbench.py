"""Tests of the benchmark's own machinery: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import re
import sys
import time

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import teamscope  # noqa: E402
import teamscope.cli  # noqa: E402
from teamscope.commitcls import MlStage  # noqa: E402
from teamscope.mlcore import logreg, rfe_select, train_logreg  # noqa: E402

from speed import UNIT_REFERENCE_S, SpeedSampler  # noqa: E402
from tracer import TARGETS, Tracer, metric_names, self_times  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _aliases(original):
    return [
        (name, key)
        for name, module in sorted(sys.modules.items())
        if name == "teamscope" or name.startswith("teamscope.")
        for key, value in vars(module).items()
        if value is original
    ]


def test_self_time_subtracts_covered_child_intervals():
    # parent [0, 10]; children overlap each other and run past the parent's end
    starts = [0.0, 1.0, 2.0, 8.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    parents = [-1, 0, 0, 0, 2]
    got = self_times(starts, ends, parents)
    # covered by children: [1, 5] and [8, 10] -> 6 of 10
    assert got[0] == pytest.approx(4.0)
    assert got[2] == pytest.approx(3.0 - 1.5)  # grandchild [2.5, 4] covers part of child 2
    # leaves keep their whole duration
    assert got[1] == pytest.approx(2.0) and got[3] == pytest.approx(4.0) and got[4] == pytest.approx(1.5)


def test_slowdown_is_the_mean_unit_time_within_the_interval():
    sampler = SpeedSampler()
    ref = UNIT_REFERENCE_S
    sampler.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 1.5 * ref)]
    assert sampler.slowdown(0.5, 2.5) == pytest.approx(1.5)
    assert sampler.slowdown(0.5, 3.5) == pytest.approx(1.5)
    # no sample inside the interval: the one nearest its end
    assert sampler.slowdown(3.4, 3.5) == pytest.approx(1.5)
    assert sampler.slowdown(0.1, 0.2) == pytest.approx(1.0)


def test_sampler_thread_samples_until_the_block_ends():
    with SpeedSampler() as sampler:
        time.sleep(0.3)
    assert not sampler._thread.is_alive()
    count = len(sampler.samples)
    assert count >= 2 and all(unit > 0 for _, unit in sampler.samples)
    time.sleep(0.1)
    assert len(sampler.samples) == count


def test_wrapping_rebinds_every_alias_and_restores_originals():
    originals = {}
    for module_name, attr in TARGETS:
        home = sys.modules[f"teamscope.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            originals[(module_name, attr)] = ("method", getattr(home, cls_name), method,
                                              vars(getattr(home, cls_name))[method])
        else:
            original = getattr(home, attr)
            originals[(module_name, attr)] = ("function", original, _aliases(original))

    # the aliases the package creates with ``from ... import``
    assert ("teamscope.mlcore.rfe", "train_logreg") in originals[("mlcore.logreg", "train_logreg")][2]
    assert ("teamscope.teamstyle", "train_logreg") in originals[("mlcore.logreg", "train_logreg")][2]
    assert ("teamscope.cli", "load_model") in originals[("mlcore.serialize", "load_model")][2]

    with Tracer():
        for entry in originals.values():
            if entry[0] == "method":
                _, cls, method, original = entry
                assert vars(cls)[method] is not original
                assert vars(cls)[method].__wrapped__ is original
            else:
                _, original, aliases = entry
                assert _aliases(original) == []
                wrappers = {id(getattr(sys.modules[m], key)) for m, key in aliases}
                assert len(wrappers) == 1  # every alias holds the same wrapper
        assert teamscope.mlcore.rfe.train_logreg is teamscope.teamstyle.train_logreg

    for entry in originals.values():
        if entry[0] == "method":
            _, cls, method, original = entry
            assert vars(cls)[method] is original
        else:
            _, original, aliases = entry
            assert _aliases(original) == aliases
    assert MlStage.fires.__name__ == "fires" and not hasattr(MlStage.fires, "__wrapped__")


def test_wrapped_call_returns_exactly_the_unwrapped_result():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 9))
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
    plain_model = train_logreg(X, y)
    plain_selected = rfe_select(X, y, target_k=3)

    with Tracer() as tracer:
        traced_model = teamscope.mlcore.train_logreg(X, y)
        traced_selected = teamscope.mlcore.rfe_select(X, y, target_k=3)

    assert np.array_equal(traced_model.weights, plain_model.weights)
    assert traced_model.bias == plain_model.bias
    assert traced_selected == plain_selected
    metrics = tracer.layer_metrics()
    assert metrics["mlcore.rfe.rfe_select.calls"] == 1
    assert metrics["mlcore.rfe.fits"] == 9 - 3  # one fit per dropped feature
    assert metrics["mlcore.logreg.train_logreg.calls"] == 1 + 6
    assert metrics["mlcore.logreg.train_logreg.cells"] == 40 * 9 + sum(40 * d for d in range(4, 10))
    assert metrics["mlcore.rfe.rfe_select.self_s"] < metrics["mlcore.rfe.rfe_select.s"]
    assert logreg.train_logreg is train_logreg


def test_per_message_ratios_count_only_calls_made_while_classifying():
    tracer = Tracer()
    # classify_tokens -> fires -> transform, then the same pair under train_cascade
    tracer.names = [
        "commitcls.classify_tokens", "commitcls.MlStage.fires", "mlcore.tfidf.tfidf_transform",
        "commitcls.train_cascade", "commitcls.MlStage.fires", "mlcore.tfidf.tfidf_transform",
    ]
    tracer.parents = [-1, 0, 1, -1, 3, 4]
    tracer.starts, tracer.ends = [0.0] * 6, [1.0] * 6
    metrics = tracer.layer_metrics()
    assert metrics["commitcls.MlStage.fires.calls"] == 2
    assert metrics["mlcore.tfidf.transforms_per_message"] == 1.0
    assert metrics["commitcls.stage_fires_per_message"] == 1.0


def test_traced_cli_writes_the_same_bytes(tmp_path):
    argv = ["synth", "--seed", "3", "--teams", "4", "--commits", "10,12", "--mix", "0.5,0.25,0.25"]
    assert teamscope.cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    with Tracer() as tracer:
        assert teamscope.cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
    for name in ("commits.jsonl", "roster.csv", "truth_commits.csv", "manifest_synth.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1 and metrics["synthgen.generate_corpus.calls"] == 1
    assert metrics["cli.main.self_s"] >= 0


def test_every_metric_name_is_valid_and_declared():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in benchmark["per_layer"]]
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    assert per_layer == metric_names() + run.TRACE_METRICS
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in benchmark["per_layer"]] == [run.unit_of(n) for n in per_layer]
    assert [m["unit"] for m in benchmark["end_to_end"]] == [run.unit_of(n) for n in end_to_end]
    names = per_layer + end_to_end + run.COMMAND_METRICS + run.QUALITY_METRICS
    assert len(set(per_layer + end_to_end)) == len(per_layer + end_to_end)
    for name in names + [w["name"] for w in benchmark["workloads"]]:
        assert NAME_RE.fullmatch(name), name
