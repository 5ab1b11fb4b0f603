import builtins
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import teamscope
from teamscope import cli, teamfeat
from teamscope.cli import main
from teamscope.commitcls import CascadeModel
from teamscope.errors import DataError
from teamscope.ingest import load_commits_jsonl
from teamscope.mlcore import canonical_json, load_model
from teamscope.teamstyle import TeamStyleModel

SHA_A = "a" * 40
GIT_LOG = (
    f"\x01{SHA_A}|alice|a@x|1443657600|Fixed logout\n"
    "3\t1\tsrc/A.java\n"
)
ROSTER = (
    "team_id,project_id,member_id,exam1,project1,selected,author_keys\n"
    "t1,P2,alice,80,90,true,alice;a@x\n"
    "t1,P2,bob,70,65,true,bob;b@x\n"
)


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _synth(tmp_path, name="corpus", teams=12, seed=3, extra=()):
    out = tmp_path / name
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--seed",
            str(seed),
            "--teams",
            str(teams),
            "--commits",
            "20,40",
            "--mix",
            "0.5,0.3,0.2",
            *extra,
        ]
    )
    assert code == 0
    return out


def _tagged_csv_from(corpus: Path, dest: Path) -> str:
    truth = dict(
        line.split(",", 1)
        for line in (corpus / "truth_commits.csv").read_text().splitlines()[1:]
    )
    commits = load_commits_jsonl(corpus / "commits.jsonl")
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["message", "category"])
        for c in commits:
            writer.writerow([c.message, truth[c.sha]])
    return str(dest)


def test_unknown_subcommand_exits_one_with_usage(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["kappa", "--a", "only-one-side.csv"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "teamscope" in capsys.readouterr().out


_OUT_DEFAULTS = {
    "synth": "synth_corpus",
    "ingest": "dataset",
    "train-commits": "models",
    "eval-commits": "reports",
    "label-commits": "DATA",
    "features": "DATA",
    "train-teams": "DATA/models",
    "eval-teams": "reports",
    "predict": "DATA",
    "flag": "DATA",
    "kappa": None,
    "registry": None,
}


@pytest.mark.parametrize("command", sorted(_OUT_DEFAULTS))
def test_subcommand_help_shows_real_defaults(command, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default: None" not in text
    if _OUT_DEFAULTS[command] is not None:
        assert f"--out OUT output directory (default: {_OUT_DEFAULTS[command]})" in text


def test_kappa_identical_files_prints_one(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "team_id,style\nt1,Collaborative\nt2,SoloSubmit\n")
    b = _write(tmp_path / "b.csv", "team_id,style\nt1,Collaborative\nt2,SoloSubmit\n")
    assert main(["kappa", "--a", a, "--b", b]) == 0
    assert capsys.readouterr().out.strip() == "1.0000"


def test_kappa_hand_fixture_zero(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "id,label\n1,x\n2,x\n3,y\n4,y\n")
    b = _write(tmp_path / "b.csv", "id,label\n1,x\n2,y\n3,x\n4,y\n")
    assert main(["kappa", "--a", a, "--b", b]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-12)


def test_kappa_mismatched_ids_is_data_error(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "id,label\n1,x\n")
    b = _write(tmp_path / "b.csv", "id,label\n2,x\n")
    assert main(["kappa", "--a", a, "--b", b]) == 2
    assert "different ids" in capsys.readouterr().err


def test_ingest_from_gitlog(tmp_path, capsys):
    log = _write(tmp_path / "history.log", GIT_LOG)
    roster = _write(tmp_path / "roster.csv", ROSTER)
    out = tmp_path / "data"
    assert main(["ingest", "--gitlog", log, "--roster", roster, "--out", str(out)]) == 0
    assert (out / "commits.jsonl").exists()
    assert (out / "roster.csv").exists()
    manifest = json.loads((out / "manifest_ingest.json").read_text())
    assert manifest["command"] == "ingest"
    assert set(manifest["outputs"]) == {"commits.jsonl", "roster.csv"}


def test_ingest_malformed_gitlog_is_data_error(tmp_path, capsys):
    log = _write(tmp_path / "history.log", "\x01not-a-sha|x|y|99|msg\n")
    roster = _write(tmp_path / "roster.csv", ROSTER)
    assert main(["ingest", "--gitlog", log, "--roster", roster, "--out", str(tmp_path / "d")]) == 2
    assert "error" in capsys.readouterr().err


def test_ingest_refuses_0x01_inside_a_subject(tmp_path, capsys):
    sneaky = f"fix \x01{'b' * 40}|Bob|bob@x.edu|200|sneaky"
    log = _write(tmp_path / "history.log", GIT_LOG.replace("Fixed logout", sneaky))
    roster = _write(tmp_path / "roster.csv", ROSTER)
    out = tmp_path / "d"
    assert main(["ingest", "--gitlog", log, "--roster", roster, "--out", str(out)]) == 2
    assert f"{log} line 1: 0x01 inside a line" in capsys.readouterr().err
    assert not (out / "commits.jsonl").exists()


def test_missing_input_file_is_data_error(tmp_path, capsys):
    assert main(["kappa", "--a", str(tmp_path / "no.csv"), "--b", str(tmp_path / "no.csv")]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["train-commits", "--tagged", str(tmp_path / "missing.csv")]) == 2


def test_registry_command_prints_json(capsys):
    assert main(["registry"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "1"
    assert len(payload["names"]) == 269


def test_full_pipeline_and_reports(tmp_path, capsys):
    corpus = _synth(tmp_path, teams=14, seed=5)
    tagged = _tagged_csv_from(corpus, tmp_path / "tagged.csv")

    models = tmp_path / "models"
    assert main(["train-commits", "--tagged", tagged, "--out", str(models)]) == 0
    cascade = models / "cascade.json"
    assert cascade.exists()

    assert main(["label-commits", "--model", str(cascade), "--data", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "category" in out and "ratio" in out
    assert (corpus / "labels.jsonl").exists()

    assert main(["features", "--data", str(corpus)]) == 0
    header = (corpus / "features.csv").read_text().splitlines()[0]
    assert header.startswith("team_id,u0_commits_whole,")
    registry = json.loads((corpus / "registry.json").read_text())
    assert len(registry["names"]) == 269

    assert (
        main(
            [
                "train-teams",
                "--data",
                str(corpus),
                "--algorithm",
                "forest",
                "--styles",
                str(corpus / "truth_teams.csv"),
                "--seed",
                "9",
            ]
        )
        == 0
    )
    team_model = corpus / "models" / "teams_forest.json"
    assert team_model.exists()

    assert main(["predict", "--model", str(team_model), "--data", str(corpus)]) == 0
    rows = (corpus / "predictions.csv").read_text().splitlines()
    assert rows[0] == "team_id,style,confidence"
    assert len(rows) == 15

    assert main(["flag", "--model", str(team_model), "--data", str(corpus)]) == 0
    flags = json.loads((corpus / "flags.json").read_text())
    assert isinstance(flags, list)
    for item in flags:
        assert item["style"] == "SoloSubmit"

    assert (
        main(
            [
                "eval-teams",
                "--data",
                str(corpus),
                "--algorithm",
                "forest",
                "--folds",
                "3",
                "--seed",
                "9",
                "--out",
                str(tmp_path / "reports"),
            ]
        )
        == 0
    )
    report = json.loads((tmp_path / "reports" / "team_eval_forest.json").read_text())
    assert set(report["styles"]) == {"Collaborative", "Cooperative", "SoloSubmit"}


def test_eval_commits_report_shapes(tmp_path, capsys):
    corpus = _synth(tmp_path, teams=10, seed=6)
    tagged = _tagged_csv_from(corpus, tmp_path / "tagged.csv")
    out = tmp_path / "reports"
    assert main(
        ["eval-commits", "--tagged", tagged, "--folds", "3", "--out", str(out), "--format", "csv"]
    ) == 0
    table = capsys.readouterr().out
    assert "Merge" in table and "Other(residual)" in table
    rows = list(csv.reader((out / "commit_eval.csv").read_text().splitlines()))
    assert rows[0] == ["category", "f1", "precision", "recall", "support"]
    assert len(rows) == 9  # 6 categories + two Other measurements + header


def test_train_teams_oracle_fallback_when_no_styles(tmp_path):
    corpus = _synth(tmp_path, teams=12, seed=7)
    tagged = _tagged_csv_from(corpus, tmp_path / "tagged.csv")
    models = tmp_path / "models"
    assert main(["train-commits", "--tagged", tagged, "--out", str(models)]) == 0
    assert main(["label-commits", "--model", str(models / "cascade.json"), "--data", str(corpus)]) == 0
    assert main(["train-teams", "--data", str(corpus), "--seed", "1"]) == 0
    assert (corpus / "models" / "teams_forest.json").exists()


def test_config_file_overrides(tmp_path):
    config = _write(tmp_path / "cfg.json", json.dumps({"teams": 4, "noise": 0.0}))
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--seed", "1", "--config", config]) == 0
    manifest = json.loads((out / "manifest_synth.json").read_text())
    assert manifest["config"]["teams"] == 4
    assert manifest["config"]["noise"] == 0.0


def test_config_value_is_recorded_as_its_flag_reads_it(tmp_path):
    config = _write(tmp_path / "cfg.json", json.dumps({"noise": 0, "pair_rate": 0}))
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    assert main(["synth", "--teams", "4", "--out", str(by_flag), "--noise", "0", "--pair-rate", "0"]) == 0
    assert main(["synth", "--teams", "4", "--out", str(by_config), "--config", config]) == 0
    manifest = (by_config / "manifest_synth.json").read_bytes()
    assert manifest == (by_flag / "manifest_synth.json").read_bytes()
    assert b'"noise": 0.0' in manifest


def test_config_null_is_the_default_of_an_option_whose_default_is_none(team_model, tmp_path):
    corpus, _ = team_model
    config = _write(tmp_path / "k.json", json.dumps({"k_features": None, "styles": None}))
    written = []
    for name, extra in (("flags", []), ("config", ["--config", config])):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval-teams", "--data", str(corpus), "--folds", "2", "--out", str(out), *extra]) == 0
        written.append([(out / file).read_bytes() for file in ("team_eval_forest.json", "manifest_eval-teams.json")])
    assert written[0] == written[1]


def test_config_file_unknown_key_is_data_error(tmp_path, capsys):
    config = _write(tmp_path / "cfg.json", json.dumps({"bogus": 1}))
    assert main(["synth", "--out", str(tmp_path / "x"), "--config", config]) == 2


def test_bad_mix_is_data_error(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--mix", "1,2"]) == 2
    assert main(["synth", "--out", str(tmp_path / "x"), "--mix", "0.5,0.4,0.3"]) == 2


def test_ingest_from_jsonl(tmp_path):
    corpus = _synth(tmp_path, teams=4, seed=2)
    out = tmp_path / "normalized"
    assert main(
        [
            "ingest",
            "--jsonl",
            str(corpus / "commits.jsonl"),
            "--roster",
            str(corpus / "roster.csv"),
            "--out",
            str(out),
        ]
    ) == 0
    assert (out / "commits.jsonl").read_bytes() == (corpus / "commits.jsonl").read_bytes()
    manifest = json.loads((out / "manifest_ingest.json").read_text())
    assert manifest["config"]["unmatched"] == 0


def test_eval_commits_json_report(tmp_path):
    corpus = _synth(tmp_path, teams=8, seed=4)
    tagged = _tagged_csv_from(corpus, tmp_path / "tagged.csv")
    out = tmp_path / "reports"
    assert main(
        ["eval-commits", "--tagged", tagged, "--folds", "2", "--out", str(out), "--format", "json"]
    ) == 0
    payload = json.loads((out / "commit_eval.json").read_text())
    assert "Merge" in payload and "Other(residual)" in payload
    assert 0.0 <= payload["Merge"]["f1"] <= 1.0
    assert len(payload["Merge"]["folds"]) == 2


def test_train_commits_with_lexicon_override(tmp_path):
    corpus = _synth(tmp_path, teams=10, seed=8)
    tagged = _tagged_csv_from(corpus, tmp_path / "tagged.csv")
    # a domain list that still satisfies the required minimum set
    domain = _write(
        tmp_path / "domain.txt",
        "\n".join(["bbtp", "ts", "javadoc", "pmd", "checkstyle", "spotbugs", "gui", "todo", "zzcustom"]) + "\n",
    )
    models = tmp_path / "models"
    assert main(
        ["train-commits", "--tagged", tagged, "--out", str(models), "--domain-words", domain]
    ) == 0
    payload = json.loads((models / "cascade.json").read_text())
    assert "zzcustom" in payload["model"]["lexicon"]["domain"]
    manifest = json.loads((models / "manifest_train-commits.json").read_text())
    assert "domain_words" in manifest["inputs"]


# --- predict / flag refuse models that do not fit the data ------------------


def _write_truth_labels(corpus: Path) -> None:
    rows = (corpus / "truth_commits.csv").read_text().splitlines()[1:]
    with open(corpus / "labels.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            sha, category = row.split(",", 1)
            fh.write(json.dumps({"sha": sha, "category": category, "pair_programming": False}) + "\n")


@pytest.fixture(scope="module")
def team_model(tmp_path_factory):
    """A labeled 14-team corpus and the forest team model trained on it."""
    corpus = _synth(tmp_path_factory.mktemp("team_model"), teams=14, seed=5)
    _write_truth_labels(corpus)
    styles = str(corpus / "truth_teams.csv")
    assert main(["train-teams", "--data", str(corpus), "--styles", styles, "--seed", "9"]) == 0
    return corpus, corpus / "models" / "teams_forest.json"


def _altered_model(team_model, tmp_path, alter) -> str:
    _, model_path = team_model
    raw = json.loads(model_path.read_text())
    alter(raw)
    return _write(tmp_path / "altered.json", json.dumps(raw))


def _narrow(raw):
    for key in ("means", "stds"):
        raw["model"][key] = raw["model"][key][:100]


def _forest_field(key, value):
    def alter(raw):
        raw["model"]["stages"][0]["model"][key] = value

    return alter


def _first_split(key, value, column=None):
    """Set ``key`` (item ``column`` of it, when given) of the first tree's first split node to ``value``."""

    def alter(raw):
        tree = raw["model"]["stages"][0]["model"]["trees"][0]
        node = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
        if column is None:
            tree[key][node] = value
        else:
            tree[key][node][column] = value

    return alter


def _stages(pick):
    """An alteration that replaces the model's stage list with ``pick(stages)``."""

    def alter(raw):
        raw["model"]["stages"] = pick(raw["model"]["stages"])

    return alter


def _mean(value):
    def alter(raw):
        raw["model"]["means"][3] = value

    return alter


def _boolean_column(raw):
    raw["model"]["stages"][0]["selected"][0] = True


def _logistic(bias):
    """An alteration that makes every stage logistic, the first with ``bias``."""

    def alter(raw):
        raw["model"]["algorithm"] = "logistic_rfe"
        for stage in raw["model"]["stages"]:
            stage["model"] = {"weights": [0.0] * len(stage["selected"]), "bias": 0.0, "l2_lambda": 1.0}
        raw["model"]["stages"][0]["model"]["bias"] = bias

    return alter


_STAGE_COUNT = "altered.json: expected 3 stages (SoloSubmit, Cooperative, Collaborative), found "


@pytest.mark.parametrize(
    "alter, message",
    [
        (lambda raw: raw.update(version=1), "retrain"),
        (lambda raw: raw["model"].update(registry_version="0-other"), "registry version"),
        (_narrow, "100 feature columns"),
        (lambda raw: raw["model"].update(algorithm="svm"), "altered.json: unknown algorithm 'svm'"),
        (lambda raw: raw["model"].update(algorithm="logistic_rfe"), "altered.json: the model has no key 'weights'"),
        (_stages(lambda s: []), f"{_STAGE_COUNT}0"),
        (_stages(lambda s: s[:2]), f"{_STAGE_COUNT}2"),
        (_mean(float("nan")), "altered.json: non-finite number NaN"),
        (_mean("0.5"), "altered.json: means must hold JSON numbers, got '0.5'"),
        (_boolean_column, "altered.json: SoloSubmit selected must hold JSON integers, got True"),
        (_stages(lambda s: [{**s[0], "selected": 3}, *s[1:]]),
         "altered.json: SoloSubmit selected must be a list of JSON integers, got 3"),
        (_forest_field("n_features", 12.0),
         "altered.json: forest n_features must hold one JSON integer, got 12.0"),
        (_first_split("feature", True), "altered.json: tree feature must hold JSON integers, got True"),
        (_first_split("feature", 0.5), "altered.json: tree feature must hold JSON integers, got 0.5"),
        (_first_split("right", 2.0), "altered.json: tree right must hold JSON integers, got 2.0"),
        (_first_split("counts", False, column=0), "altered.json: tree counts must hold JSON integers, got False"),
        (_logistic([0.1, 0.2]), "altered.json: bias must hold one JSON number, got [0.1, 0.2]"),
        (lambda raw: raw["model"].update(algorithm=["forest"]),
         "altered.json: algorithm must hold one JSON string, got ['forest']"),
        (lambda raw: raw["model"].update(stds=raw["model"]["stds"][:-1]),
         "altered.json: means and stds must be lists of numbers of one length"),
        (_forest_field("trees", []), "altered.json: forest has no trees"),
        (_forest_field("trees", 5), "altered.json: forest trees must be a list of JSON objects, got 5"),
        (_forest_field("n_tree", 3), "altered.json: unknown key 'n_tree'"),
        (_first_split("left", 2**63), "altered.json: tree left must hold JSON integers within int64 range"),
    ],
    ids=["format-v1", "foreign-registry", "narrow-means", "unknown-algorithm", "algorithm-model_type-mismatch",
         "no-stages", "two-stages", "nan-mean", "string-mean", "boolean-column", "number-selected",
         "n_features-float", "split-feature-boolean", "split-feature-float", "split-right-float",
         "split-counts-boolean", "logistic-list-bias", "list-algorithm", "short-stds", "no-trees",
         "number-trees", "misspelt-forest-key", "split-left-beyond-int64"],
)
@pytest.mark.parametrize("command", ["predict", "flag"])
def test_unfit_model_is_data_error(team_model, tmp_path, capsys, command, alter, message):
    corpus, _ = team_model
    model = _altered_model(team_model, tmp_path, alter)
    out = tmp_path / "out"
    assert main([command, "--model", model, "--data", str(corpus), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _first_stage(part, key, value, at=None):
    """Set ``key`` (item ``at`` of the list under ``key``) of the first stage's ``part`` to ``value``."""

    def alter(raw):
        node = raw["model"]["stages"][0][part]
        if at is None:
            node[key] = value
        else:
            node[key][at] = value

    return alter


def _stopwords(value):
    def alter(raw):
        raw["model"]["lexicon"]["stopwords"] = value

    return alter


def _repeat_first_term(raw):
    terms = raw["model"]["stages"][0]["tfidf"]["terms"]
    terms[1] = terms[0]


_ML_STAGE_COUNT = "expected 3 ML stages (Implementation, Test, Bugfix), found "


@pytest.mark.parametrize(
    "alter, message",
    [
        (_stages(lambda s: s[:2]), f"{_ML_STAGE_COUNT}2"),
        (_stages(lambda s: []), f"{_ML_STAGE_COUNT}0"),
        (_first_stage("tfidf", "idf", float("nan"), at=0), "non-finite number NaN"),
        (_first_stage("logreg", "weights", float("-inf"), at=0), "non-finite number -Infinity"),
        (_first_stage("logreg", "bias", float("inf")), "non-finite number Infinity"),
        (_first_stage("logreg", "bias", "0.5"), "bias must hold one JSON number, got '0.5'"),
        (_first_stage("logreg", "bias", [0.1, 0.2]), "bias must hold one JSON number, got [0.1, 0.2]"),
        (_first_stage("logreg", "l2_lambda", [1, 2]), "l2_lambda must hold one JSON number, got [1, 2]"),
        (_first_stage("logreg", "weights", 0.5), "weights must be a list of JSON numbers, got 0.5"),
        (_first_stage("tfidf", "idf", 0.5), "idf must be a list of JSON numbers, got 0.5"),
        (_first_stage("tfidf", "terms", 3), "terms must be a list of JSON strings, got 3"),
        (_first_stage("logreg", "weights", "1e3", at=0), "weights must hold JSON numbers, got '1e3'"),
        (_first_stage("tfidf", "idf", True, at=0), "idf must hold JSON numbers, got True"),
        (_stopwords("fix"), "lexicon stopwords must be a list of JSON strings, got 'fix'"),
        (_first_stage("logreg", "weights", [0.0]), "the Implementation stage needs one weight per term"),
        (_repeat_first_term, "a tfidf model needs distinct terms and one idf value per term"),
        (_stopwords(["The"]), "lexicon: stopwords must be non-empty lowercase: ['The']"),
        (_first_stage("tfidf", "idf_", [1.0]), "unknown key 'idf_'"),
        (_first_stage("logreg", "bias", 10**400), "bias must hold one JSON number within float64 range"),
        (_stages(lambda s: [{**s[0], "tfidf": 5}, *s[1:]]), "expected a JSON object of terms, idf, got 5"),
    ],
    ids=["two-stages", "no-stages", "nan-idf", "minus-infinite-weight", "infinite-bias", "string-bias",
         "list-bias", "list-l2_lambda", "number-weights", "number-idf", "number-terms", "string-weight",
         "boolean-idf", "string-stopwords", "one-weight", "repeated-term", "uppercase-stopword",
         "misspelt-tfidf-key", "bias-beyond-float64", "number-tfidf"],
)
def test_unfit_cascade_is_data_error(team_model, cascade_model, tmp_path, capsys, alter, message):
    corpus, _ = team_model
    raw = json.loads(cascade_model.read_text())
    alter(raw)
    model = _write(tmp_path / "altered.json", json.dumps(raw))
    out = tmp_path / "out"
    assert main(["label-commits", "--model", model, "--data", str(corpus), "--out", str(out)]) == 2
    assert f"altered.json: {message}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_predict_batches_match_flags(team_model, tmp_path):
    corpus, model_path = team_model
    out = str(tmp_path)
    assert main(["predict", "--model", str(model_path), "--data", str(corpus), "--out", out]) == 0
    assert main(["flag", "--model", str(model_path), "--data", str(corpus), "--out", out]) == 0
    with open(tmp_path / "predictions.csv", newline="", encoding="utf-8") as fh:
        predictions = list(csv.DictReader(fh))
    assert len(predictions) == 14
    solo = [(float(r["confidence"]), r["team_id"]) for r in predictions if r["style"] == "SoloSubmit"]
    flags = json.loads((tmp_path / "flags.json").read_text())
    assert [(f["confidence"], f["team_id"]) for f in flags] == sorted(solo, key=lambda c: (-c[0], c[1]))
    for command in ("predict", "flag"):
        manifest = json.loads((tmp_path / f"manifest_{command}.json").read_text())
        assert set(manifest["inputs"]) == {"model", "commits", "roster", "labels"}


def test_label_lines_do_not_depend_on_commit_order(team_model, cascade_model, tmp_path):
    corpus, _ = team_model
    lines = (corpus / "commits.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(4).shuffle(lines)
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    (shuffled / "commits.jsonl").write_text("".join(lines), encoding="utf-8")
    labels, configs = [], []
    for data in (corpus, shuffled):
        out = tmp_path / f"labels_{data.name}"
        assert main(["label-commits", "--model", str(cascade_model), "--data", str(data), "--out", str(out)]) == 0
        labels.append(set((out / "labels.jsonl").read_text(encoding="utf-8").splitlines()))
        configs.append(json.loads((out / "manifest_label-commits.json").read_text())["config"])
    assert labels[0] == labels[1] and len(labels[0]) == len(lines)
    messages = {json.loads(line)["msg"] for line in lines}
    assert configs[0] == configs[1] == {"seed": 0, "messages": len(lines), "distinct_messages": len(messages)}


def _rows_by_team(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["team_id"]: row for row in csv.DictReader(fh)}


def _features_and_predictions(data: Path, model: Path, out: Path) -> tuple[dict, dict]:
    assert main(["features", "--data", str(data), "--out", str(out)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
    return _rows_by_team(out / "features.csv"), _rows_by_team(out / "predictions.csv")


@pytest.fixture(scope="module")
def team_model_outputs(team_model, tmp_path_factory):
    corpus, model_path = team_model
    return _features_and_predictions(corpus, model_path, tmp_path_factory.mktemp("roster_order"))


_TEAMS = 14  # the team_model corpus's
# The settings of the hypothesis tests that run CLI commands for each example.
# A failing example is reported as drawn: shrinking it would rerun the commands
# one candidate at a time.
_CLI_EXAMPLES = settings(
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _roster_reordered(corpus: Path, tmp: str, order, swaps) -> Path:
    """A copy of ``corpus`` whose roster lists team ``order[i]`` i-th, its two members swapped where ``swaps[i]``."""
    header, *rows = (corpus / "roster.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    teams = [rows[i : i + 2] for i in range(0, len(rows), 2)]
    assert len(teams) == _TEAMS and all(a.split(",")[0] == b.split(",")[0] for a, b in teams)
    members = [teams[t][::-1] if swap else teams[t] for t, swap in zip(order, swaps)]
    return _with_roster(corpus, Path(tmp), header + "".join(sum(members, [])))


def _with_roster(corpus: Path, work: Path, roster: str) -> Path:
    """A dataset in ``work``: the commits and labels of ``corpus`` with ``roster`` as its roster."""
    data = work / "data"
    data.mkdir()
    for name in ("commits.jsonl", "labels.jsonl"):
        shutil.copy(corpus / name, data / name)
    (data / "roster.csv").write_text(roster, encoding="utf-8")
    return data


_roster_orders = {
    "order": st.permutations(range(_TEAMS)),
    "swaps": st.lists(st.booleans(), min_size=_TEAMS, max_size=_TEAMS),
}


@settings(_CLI_EXAMPLES, max_examples=10)
@example(order=list(reversed(range(_TEAMS))), swaps=[True] * _TEAMS)
@given(**_roster_orders)
def test_features_and_predictions_do_not_depend_on_roster_order(team_model, team_model_outputs, order, swaps):
    corpus, model_path = team_model
    with tempfile.TemporaryDirectory() as tmp:
        data = _roster_reordered(corpus, tmp, order, swaps)
        with contextlib.redirect_stdout(io.StringIO()):
            outputs = _features_and_predictions(data, model_path, Path(tmp) / "out")
    assert outputs == team_model_outputs


@pytest.fixture(scope="module")
def logistic_team_model(team_model, tmp_path_factory):
    """The logistic-RFE model of the team_model corpus, and its predictions.csv rows by team."""
    corpus, _ = team_model
    out = tmp_path_factory.mktemp("logistic")
    styles = str(corpus / "truth_teams.csv")
    argv = ["--data", str(corpus), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-teams", *argv, "--styles", styles, "--algorithm", "logistic_rfe", "--seed", "9"]) == 0
        model = out / "teams_logistic_rfe.json"
        assert main(["predict", "--model", str(model), *argv]) == 0
    return model, _rows_by_team(out / "predictions.csv")


@settings(_CLI_EXAMPLES, max_examples=10)
@example(order=list(reversed(range(_TEAMS))), swaps=[True] * _TEAMS)
@given(**_roster_orders)
def test_logistic_predictions_do_not_depend_on_roster_order(team_model, logistic_team_model, order, swaps):
    corpus, _ = team_model
    model, expected = logistic_team_model
    with tempfile.TemporaryDirectory() as tmp:
        data = _roster_reordered(corpus, tmp, order, swaps)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["predict", "--model", str(model), "--data", str(data), "--out", tmp]) == 0
        predictions = _rows_by_team(Path(tmp) / "predictions.csv")
    assert predictions.keys() == expected.keys()
    for team, row in expected.items():
        assert predictions[team]["style"] == row["style"]
        # a team's row is at another place in the matrix product
        confidence = float(predictions[team]["confidence"])
        assert confidence == pytest.approx(float(row["confidence"]), rel=1e-12, abs=1e-15)


_TEAM_OUTPUTS = ("features.csv", "teams_forest.json", "team_eval_forest.json", "predictions.csv", "flags.json")


def _team_outputs(data: Path, styles: Path, out: Path) -> dict:
    """The bytes of each team command's output on the dataset in ``data``, which holds no features.csv."""
    argv = ["--data", str(data), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["features", *argv]) == 0
        assert main(["train-teams", *argv, "--styles", str(styles), "--seed", "9"]) == 0
        assert main(["eval-teams", *argv, "--styles", str(styles), "--seed", "9", "--folds", "3"]) == 0
        for command in ("predict", "flag"):
            assert main([command, "--model", str(out / "teams_forest.json"), *argv]) == 0
    return {name: (out / name).read_bytes() for name in _TEAM_OUTPUTS}


@pytest.fixture(scope="module")
def team_outputs(team_model, tmp_path_factory) -> dict:
    corpus, _ = team_model
    work = tmp_path_factory.mktemp("team_outputs")
    data = _with_roster(corpus, work, (corpus / "roster.csv").read_text(encoding="utf-8"))
    return _team_outputs(data, corpus / "truth_teams.csv", work / "out")


@settings(_CLI_EXAMPLES, max_examples=10)
@example(order=list(reversed(range(2 * _TEAMS))))
@given(order=st.permutations(range(2 * _TEAMS)))
def test_team_models_and_reports_do_not_depend_on_roster_row_order(team_model, team_outputs, order):
    # the teams are taken in team-id order: bootstrap and fold draws follow it
    corpus, _ = team_model
    header, *rows = (corpus / "roster.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as tmp:
        data = _with_roster(corpus, Path(tmp), header + "".join(rows[i] for i in order))
        outputs = _team_outputs(data, corpus / "truth_teams.csv", Path(tmp) / "out")
    assert outputs == team_outputs


@pytest.fixture(scope="module")
def team_model_flags(team_model, tmp_path_factory) -> bytes:
    corpus, model_path = team_model
    out = tmp_path_factory.mktemp("flags")
    assert main(["flag", "--model", str(model_path), "--data", str(corpus), "--out", str(out)]) == 0
    return (out / "flags.json").read_bytes()


@settings(_CLI_EXAMPLES, max_examples=10)
@given(data=st.data())
def test_features_predictions_and_flags_do_not_depend_on_label_line_order(
    team_model, team_model_outputs, team_model_flags, data
):
    corpus, model_path = team_model
    lines = (corpus / "labels.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines = data.draw(st.permutations(lines), label="labels")
    blanks = st.tuples(st.integers(0, len(lines)), st.sampled_from(["\n", "  \n", "\t\n"]))
    for at, blank in data.draw(st.lists(blanks, max_size=6), label="blank lines"):
        lines.insert(at, blank)
    with tempfile.TemporaryDirectory() as tmp:
        data_dir, out = Path(tmp) / "data", Path(tmp) / "out"
        data_dir.mkdir()
        for name in ("commits.jsonl", "roster.csv"):
            shutil.copy(corpus / name, data_dir / name)
        (data_dir / "labels.jsonl").write_text("".join(lines), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            outputs = _features_and_predictions(data_dir, model_path, out)
            assert main(["flag", "--model", str(model_path), "--data", str(data_dir), "--out", str(out)]) == 0
        assert outputs == team_model_outputs
        assert (out / "flags.json").read_bytes() == team_model_flags


def test_train_commits_manifest_counts_distinct_messages(cascade_model):
    with open(cascade_model.parent / "tagged.csv", newline="", encoding="utf-8") as fh:
        messages = [row["message"] for row in csv.DictReader(fh)]
    config = json.loads((cascade_model.parent / "manifest_train-commits.json").read_text())["config"]
    assert config["messages"] == len(messages) > config["distinct_messages"] == len(set(messages))


def _train_commits(rows: list, out: Path) -> bytes:
    """The cascade.json that train-commits writes for the tagged ``rows``."""
    out.mkdir()
    with open(out / "tagged.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["message", "category"], *rows])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-commits", "--tagged", str(out / "tagged.csv"), "--out", str(out)]) == 0
    return (out / "cascade.json").read_bytes()


@pytest.fixture(scope="module")
def retagged(cascade_model, tmp_path_factory):
    """The cascade_model corpus's tagged rows, one Implementation message
    tagged Test as well, and the cascade.json trained on them."""
    with open(cascade_model.parent / "tagged.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    message = next(m for m, category in rows if category == "Implementation")
    rows.append([message, "Test"])
    return rows, _train_commits(rows, tmp_path_factory.mktemp("retagged") / "out")


@settings(_CLI_EXAMPLES, max_examples=10)
@given(data=st.data())
def test_trained_cascade_does_not_depend_on_tagged_row_order(retagged, data):
    rows, cascade = retagged
    rows = data.draw(st.permutations(rows), label="rows")
    with tempfile.TemporaryDirectory() as tmp:
        assert _train_commits(rows, Path(tmp) / "out") == cascade


def test_non_json_label_line_is_data_error(tmp_path, capsys):
    corpus = _synth(tmp_path, teams=4, seed=2)
    _write_truth_labels(corpus)
    lines = (corpus / "labels.jsonl").read_text().splitlines()
    lines[2] = "not json"
    (corpus / "labels.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["features", "--data", str(corpus)]) == 2
    assert "labels.jsonl line 3" in capsys.readouterr().err


# --- bad input exits 1 (usage) or 2 (data), never 3 (internal) ---------------

# a field over the csv module's limit of 131,072 characters
_LONG = "x" * 200_000
# JSON nested deeper than the interpreter's recursion limit
_DEEP = 200_000
BAD_INPUT = [
    # argv ({data}/{tagged}: a labeled corpus and its tagged CSV), a file written for the
    # run (passed as --config, or where {file} stands), exit code, stderr
    (["synth", "--commits", "abc"], None, 2, "--commits"),
    (["synth", "--mix", "a,b,c"], None, 2, "--mix"),
    (["synth", "--mix", "nan,0,0"], None, 2, "style_mix must sum to 1"),
    (["eval-commits", "--tagged", "{tagged}", "--folds", "0"], None, 1, "at least 2"),
    (["eval-commits", "--tagged", "{tagged}", "--folds", "1"], None, 1, "at least 2"),
    (["eval-teams", "--data", "{data}", "--folds", "1"], None, 1, "at least 2"),
    (["train-teams", "--data", "{data}", "--k-features", "0"], None, 1, "at least 1"),
    (["features", "--data", "{data}", "--format", "csv"], None, 1, "--format"),
    (["kappa", "--a", "{tagged}", "--b", "{tagged}", "--out", "x"], None, 1, "--out"),
    (["eval-commits", "--tagged", "{tagged}"], ("cfg.json", '{"folds": '), 2, "cfg.json"),
    (["eval-commits", "--tagged", "{tagged}"], ("cfg.toml", "folds = "), 2, "cfg.toml"),
    (["eval-commits", "--tagged", "{tagged}"], ("cfg.json", '{"folds": "3"}'), 2, "'folds'"),
    (["eval-commits", "--tagged", "{tagged}"], ("cfg.json", '{"folds": 1}'), 2, "'folds'"),
    (["eval-commits", "--tagged", "{tagged}"], ("cfg.json", '{"format": "xml"}'), 2, "'format'"),
    (["synth"], ("cfg.json", '{"teams": "4"}'), 2, "'teams'"),
    (["synth"], ("cfg.toml", "teams = 4.0"), 2, "'teams'"),
    (["train-teams", "--data", "{data}"], ("cfg.json", '{"k_features": 0}'), 2, "'k_features'"),
    (["ingest", "--gitlog", "{tagged}", "--roster", "{data}/roster.csv"], ("cfg.json", '{"jsonl": "c.jsonl"}'), 2,
     "cfg.json: options --gitlog and --jsonl cannot be combined"),
    # null is the default only of an optional flag whose default is None
    (["eval-commits", "--tagged", "{tagged}"], ("cfg.json", '{"folds": null}'), 2,
     "cfg.json: invalid value None for option 'folds'"),
    (["ingest", "--jsonl", "{data}/commits.jsonl", "--roster", "{data}/roster.csv"], ("cfg.json", '{"roster": null}'),
     2, "cfg.json: invalid value None for option 'roster'"),
    (["ingest", "--gitlog", "{tagged}", "--roster", "{data}/roster.csv"], ("cfg.json", '{"gitlog": null}'), 2,
     "cfg.json: one of the options --gitlog or --jsonl is required"),
    (["synth", "--teams", "-3"], None, 1, "at least 1"),
    (["synth", "--pair-rate", "7"], None, 2, "pair_rate must be within [0, 1]"),
    # a course beyond 1,000,000 commits is refused before any of it is built
    (["synth", "--teams", str(2**63 - 1)], None, 2, "(--teams) 9223372036854775807 times"),
    (["synth"], ("cfg.json", f'{{"teams": {10**400}}}'), 2, "allows more than 1000000 commits"),
    (["synth", "--teams", "4", "--commits", f"1,{2**63 - 1}"], None, 2,
     "(the HI of --commits) 9223372036854775807 allows more than 1000000 commits"),
    (["kappa", "--a", "{file}", "--b", "{tagged}"], ("short-row.csv", "id,label\na,x\nb\n"), 2,
     "short-row.csv line 3: expected 2 fields, got 1"),
    (["kappa", "--a", "{file}", "--b", "{tagged}"], ("extra-field.csv", "id,label\na,x,zzz\n"), 2,
     "extra-field.csv line 2: expected 2 fields, got 3"),
    (["kappa", "--a", "{file}", "--b", "{tagged}"], ("repeated-id.csv", "id,label\na,x\na,y\n"), 2,
     "repeated-id.csv line 3: repeated id 'a'"),
    (["train-teams", "--data", "{data}", "--styles", "{file}"],
     ("repeated-team.csv", "team_id,style\nt000,Collaborative\nt000,SoloSubmit\n"), 2,
     "repeated-team.csv line 3: repeated team_id 't000'"),
    (["kappa", "--a", "{file}", "--b", "{tagged}"], ("header-only.csv", "id,label\n\n"), 2,
     "header-only.csv: no rows below the header"),
    (["train-commits", "--tagged", "{file}"], ("short-row.csv", "message,category\nfix bug\n"), 2,
     "short-row.csv line 2: expected 2 fields, got 1"),
    (["train-commits", "--tagged", "{file}"], ("extra-field.csv", "message,category\nfix,Bugfix,x\n"), 2,
     "extra-field.csv line 2: expected 2 fields, got 3"),
    (["kappa", "--a", "{file}", "--b", "{tagged}"], ("long-field.csv", f"id,label\na,{_LONG}\n"), 2,
     "long-field.csv line 2: field larger than field limit"),
    (["train-teams", "--data", "{data}", "--styles", "{file}"],
     ("long-style.csv", f"team_id,style\nt000,{_LONG}\n"), 2,
     "long-style.csv line 2: field larger than field limit"),
    (["ingest", "--jsonl", "{data}/commits.jsonl", "--roster", "{file}"],
     ("long-roster.csv", ROSTER.replace("alice;a@x", _LONG)), 2,
     "long-roster.csv line 2: field larger than field limit"),
    (["train-teams", "--data", "{data}", "--styles", "{file}"],
     ("partial-styles.csv", "team_id,style\nt000,Collaborative\n"), 2,
     "partial-styles.csv: styles file lacks entries for teams: ['t001'"),
    (["train-commits", "--tagged", "{tagged}", "--domain-words", "{file}"], ("domain.txt", "pmd\ngui\n"), 2,
     "domain.txt: domain word list is missing ['bbtp', 'checkstyle', 'javadoc', 'spotbugs', 'todo', 'ts']"),
    (["train-commits", "--tagged", "{tagged}", "--stopwords", "{file}"], ("stopwords.txt", "the\n\nFoo\n"), 2,
     "stopwords.txt line 3: word 'Foo' is not lowercase"),
    (["train-commits", "--tagged", "{tagged}", "--english-words", "{file}"], ("english.txt", "# words\nFix\n"), 2,
     "english.txt line 2: word 'Fix' is not lowercase"),
    (["eval-commits", "--tagged", "{tagged}", "--config", "{file}"], ("deep.json", "[" * _DEEP), 2,
     "deep.json: nested too deeply"),
    (["eval-commits", "--tagged", "{tagged}", "--config", "{file}"], ("deep.toml", "folds = " + "[" * _DEEP), 2,
     "deep.toml: nested too deeply"),
    (["synth"], ("cfg.json", "[4]"), 2, "cfg.json: config must be a mapping"),
    (["synth", "--mix=-0.5,1,0.5"], None, 2, "style_mix entries must be non-negative"),
    (["train-commits", "--tagged", "{file}"], ("wrong-header.csv", "message,label\nfix bug,Bugfix\n"), 2,
     "wrong-header.csv line 1: expected header message,category"),
    (["train-commits", "--tagged", "{file}"], ("unknown-category.csv", "message,category\nclean up,Refactor\n"), 2,
     "unknown-category.csv line 2: unknown category 'Refactor'"),
    (["ingest", "--jsonl", "{data}/commits.jsonl", "--roster", "{file}"],
     ("roster.csv", ROSTER.splitlines(keepends=True)[0]), 2, "roster.csv: no rows below the header"),
]


def _bad_input_id(argv, file) -> str:
    if file is None:
        return " ".join(argv[:1] + argv[-2:])
    return " ".join(argv[:1] + [file[0] if "{file}" in argv else file[1]])


@pytest.mark.parametrize(
    "argv, file, code, message",
    BAD_INPUT,
    ids=[_bad_input_id(argv, file) for argv, file, _, _ in BAD_INPUT],
)
def test_bad_input_is_usage_or_data_error(team_model, tmp_path, capsys, argv, file, code, message):
    corpus, _ = team_model
    tagged = _tagged_csv_from(corpus, tmp_path / "tagged.csv")
    path = _write(tmp_path / file[0], file[1]) if file is not None else None
    args = [arg.format(data=corpus, tagged=tagged, file=path) for arg in argv]
    if file is not None and "{file}" not in argv:
        args += ["--config", path]
    if argv[0] != "kappa":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == code
    assert message in capsys.readouterr().err


# --- undecodable, truncated and mistyped input files exit 2, never 3 ----------


def _insert_ff(data: bytes) -> bytes:
    return data[:40] + b"\xff" + data[40:]


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _model_without(*path):
    def alter(data: bytes) -> bytes:
        raw = json.loads(data)
        node = raw["model"]
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return json.dumps(raw).encode()

    return alter


def _envelope(**fields):
    """An alteration that sets the model file's top-level ``fields``, deleting those given None."""

    def alter(data: bytes) -> bytes:
        raw = {**json.loads(data), **fields}
        return json.dumps({key: value for key, value in raw.items() if value is not None}).encode()

    return alter


def _first_commit(**fields):
    def alter(data: bytes) -> bytes:
        first, rest = data.split(b"\n", 1)
        return json.dumps({**json.loads(first), **fields}).encode() + b"\n" + rest

    return alter


def _first_file(**fields):
    def alter(data: bytes) -> bytes:
        first, rest = data.split(b"\n", 1)
        commit = json.loads(first)
        commit["files"][0].update(fields)
        return json.dumps(commit).encode() + b"\n" + rest

    return alter


def _first_line_without(key: str):
    def alter(data: bytes) -> bytes:
        first, rest = data.split(b"\n", 1)
        raw = json.loads(first)
        del raw[key]
        return json.dumps(raw).encode() + b"\n" + rest

    return alter


def _repeat_first_line(data: bytes) -> bytes:
    return data.split(b"\n", 1)[0] + b"\n" + data


def _first_mean(literal: bytes):
    """An alteration that writes the model's first mean as the JSON number ``literal``."""

    def alter(data: bytes) -> bytes:
        return re.sub(rb'"means": \[\s*[^,\]\s]+', b'"means": [' + literal, data, count=1)

    return alter


@pytest.fixture
def work(team_model, tmp_path):
    """A copy of the labeled corpus with its models, a tagged CSV and a git log."""
    corpus, _ = team_model
    data = tmp_path / "corpus"
    shutil.copytree(corpus, data)
    _tagged_csv_from(data, tmp_path / "tagged.csv")
    _write(tmp_path / "history.gitlog", GIT_LOG)
    _write(tmp_path / "roster.csv", ROSTER)
    _write(tmp_path / "domain.txt", "bbtp\nts\njavadoc\npmd\ncheckstyle\nspotbugs\ngui\ntodo\n")
    return tmp_path


_FEATURES = ["features", "--data", "{work}/corpus"]
_GITLOG = ["ingest", "--gitlog", "{work}/history.gitlog", "--roster", "{work}/roster.csv"]
_PREDICT = ["predict", "--model", "{work}/corpus/models/teams_forest.json", "--data", "{work}/corpus"]
UNREADABLE = {
    # id: (file under the work directory, its alteration, argv, a part of the message)
    "commits-not-utf8": ("corpus/commits.jsonl", _insert_ff, _FEATURES, "commits.jsonl: not UTF-8"),
    "roster-not-utf8": ("corpus/roster.csv", _insert_ff, _FEATURES, "roster.csv: not UTF-8"),
    "labels-not-utf8": ("corpus/labels.jsonl", _insert_ff, _FEATURES, "labels.jsonl: not UTF-8"),
    "tagged-not-utf8": ("tagged.csv", _insert_ff, ["train-commits", "--tagged", "{work}/tagged.csv"],
                        "tagged.csv: not UTF-8"),
    "gitlog-not-utf8": ("history.gitlog", _insert_ff, _GITLOG, "history.gitlog: not UTF-8"),
    "model-not-utf8": ("corpus/models/teams_forest.json", _insert_ff, _PREDICT, "teams_forest.json: not a"),
    "model-truncated": ("corpus/models/teams_forest.json", _truncate, _PREDICT, "teams_forest.json: not a"),
    "model-no-means": ("corpus/models/teams_forest.json", _model_without("means"), _PREDICT,
                       "no key 'means'"),
    "model-no-stages": ("corpus/models/teams_forest.json", _model_without("stages"), _PREDICT,
                        "no key 'stages'"),
    "model-no-n_features": ("corpus/models/teams_forest.json",
                            _model_without("stages", 0, "model", "n_features"), _PREDICT, "no key 'n_features'"),
    "model-mean-overflows": ("corpus/models/teams_forest.json", _first_mean(b"1e999"), _PREDICT,
                             "teams_forest.json: non-finite number 1e999"),
    "model-mean-huge-int": ("corpus/models/teams_forest.json", _first_mean(b"1" + b"0" * 400), _PREDICT,
                            "teams_forest.json: means must hold JSON numbers within float64 range"),
    "commit-msg-null": ("corpus/commits.jsonl", _first_commit(msg=None), _FEATURES,
                        "commits.jsonl line 1: msg must be a string"),
    "commit-author-int": ("corpus/commits.jsonl", _first_commit(author=5), _FEATURES,
                          "commits.jsonl line 1: author must be a string"),
    "commit-ts-true": ("corpus/commits.jsonl", _first_commit(ts=True), _FEATURES,
                       "commits.jsonl line 1: ts must be a positive integer"),
    "commit-add-true": ("corpus/commits.jsonl", _first_file(add=True), _FEATURES,
                        "commits.jsonl line 1: file add/del must both be ints or both null"),
    "commit-del-false": ("corpus/commits.jsonl", _first_file(**{"del": False}), _FEATURES,
                         "commits.jsonl line 1: file add/del must both be ints or both null"),
    "commit-add-negative": ("corpus/commits.jsonl", _first_file(add=-1), _FEATURES,
                            "commits.jsonl line 1: negative line counts for"),
    "commit-ts-too-large": ("corpus/commits.jsonl", _first_commit(ts=2**63), _FEATURES,
                            "commits.jsonl line 1: ts must be below 2**63"),
    "commit-add-too-large": ("corpus/commits.jsonl", _first_file(add=2**63), _FEATURES,
                             "commits.jsonl line 1: line counts must total below 2**63"),
    "labels-pair-string": ("corpus/labels.jsonl", _first_commit(pair_programming="false"), _FEATURES,
                           "labels.jsonl line 1: pair_programming must be true or false, got 'false'"),
    "labels-duplicate-sha": ("corpus/labels.jsonl", _repeat_first_line, _FEATURES,
                             "labels.jsonl line 2: duplicate sha"),
    "labels-missing-commit": ("corpus/labels.jsonl", lambda data: data.split(b"\n", 1)[1], _FEATURES,
                              "corpus/labels.jsonl: no label for commit "),
    "commit-not-object": ("corpus/commits.jsonl", lambda data: b"[1, 2]\n" + data, _FEATURES,
                          "commits.jsonl line 1: not a JSON object"),
    "commit-not-json": ("corpus/commits.jsonl", lambda data: b"\n\n{oops\n" + data, _FEATURES,
                        "commits.jsonl line 3: invalid JSON: "),
    "gitlog-before-header": ("history.gitlog", lambda data: b"stray text\n" + data, _GITLOG,
                             "history.gitlog line 1: content before first commit header"),
    "gitlog-bad-numstat": ("history.gitlog", lambda data: data + b"x\t1\tsrc/B.java\n", _GITLOG,
                           "history.gitlog line 3: malformed numstat line: 'x\\t1\\tsrc/B.java'"),
    "commit-nested-deep": ("corpus/commits.jsonl", lambda data: b"[" * _DEEP + b"\n" + data, _FEATURES,
                           "commits.jsonl line 1: invalid JSON: nested too deeply"),
    "labels-nested-deep": ("corpus/labels.jsonl",
                           lambda data: data.replace(b"\n", b'\n{"sha": ' + b"[" * _DEEP + b"\n", 1),
                           _FEATURES, "labels.jsonl line 2: invalid JSON: nested too deeply"),
    "model-nested-deep": ("corpus/models/teams_forest.json", lambda data: b"[" * _DEEP, _PREDICT,
                          "teams_forest.json: not a teamscope-model file (nested too deeply)"),
    "model-no-model-key": ("corpus/models/teams_forest.json", _envelope(model=None), _PREDICT,
                           "teams_forest.json: the model has no key 'model'"),
    "model-version-float": ("corpus/models/teams_forest.json", _envelope(version=3.0), _PREDICT,
                            "teams_forest.json: unsupported model version 3.0 "),
    "commit-int-too-long": ("corpus/commits.jsonl", lambda data: b'{"ts": ' + b"1" * 5000 + b"}\n" + data,
                            _FEATURES, "commits.jsonl line 1: invalid JSON: Exceeds the limit (4300 digits)"),
    "labels-list-line": ("corpus/labels.jsonl", lambda data: b"[1, 2]\n" + data, _FEATURES,
                         "labels.jsonl line 1: not a JSON object"),
    "labels-string-line": ("corpus/labels.jsonl", lambda data: b'\n"sha"\n' + data, _FEATURES,
                           "labels.jsonl line 2: not a JSON object"),
    "labels-sha-int": ("corpus/labels.jsonl", _first_commit(sha=5), _FEATURES,
                       "labels.jsonl line 1: sha must be a string, got 5"),
    "labels-sha-list": ("corpus/labels.jsonl", _first_commit(sha=["x"]), _FEATURES,
                        "labels.jsonl line 1: sha must be a string, got ['x']"),
    "labels-no-sha": ("corpus/labels.jsonl", _first_line_without("sha"), _FEATURES,
                      "labels.jsonl line 1: missing 'sha' field"),
    "labels-no-category": ("corpus/labels.jsonl", _first_line_without("category"), _FEATURES,
                           "labels.jsonl line 1: missing 'category' field"),
    "labels-no-pair_programming": ("corpus/labels.jsonl", _first_line_without("pair_programming"), _FEATURES,
                                   "labels.jsonl line 1: missing 'pair_programming' field"),
    "labels-unknown-category": ("corpus/labels.jsonl", _first_commit(category="Refactor"), _FEATURES,
                                "labels.jsonl line 1: 'Refactor' is not a valid CommitCategory"),
    "gitlog-word-timestamp": ("history.gitlog", lambda data: data.replace(b"|1443657600|", b"|soon|"), _GITLOG,
                              "history.gitlog line 1: timestamp 'soon' is not an integer"),
    "gitlog-negative-timestamp": ("history.gitlog", lambda data: data.replace(b"|1443657600|", b"|-5|"), _GITLOG,
                                  "history.gitlog line 1: timestamp '-5' is not an integer"),
    "gitlog-timestamp-too-large": ("history.gitlog",
                                   lambda data: data.replace(b"|1443657600|", b"|9223372036854775808|"), _GITLOG,
                                   "history.gitlog line 1: ts must be below 2**63"),
    "gitlog-timestamp-underscore": ("history.gitlog", lambda data: data.replace(b"|1443657600|", b"|+1_000|"),
                                    _GITLOG, "history.gitlog line 1: timestamp '+1_000' is not an integer"),
    "gitlog-non-ascii-digit": ("history.gitlog", lambda data: data.replace(b"3\t1\t", "\u0661\t1\t".encode()),
                               _GITLOG, "history.gitlog line 2: malformed numstat line: "),
    "gitlog-line-counts-too-large": ("history.gitlog", lambda data: data + b"9223372036854775807\t1\tsrc/B.java\n",
                                     _GITLOG, "history.gitlog line 1: line counts must total below 2**63"),
    "gitlog-count-over-int-digit-limit": ("history.gitlog", lambda data: data + b"1" * 5000 + b"\t1\tsrc/B.java\n",
                                          _GITLOG, "history.gitlog line 1: line counts must total below 2**63"),
    "commit-sha-newline": ("corpus/commits.jsonl", _first_commit(sha=SHA_A + "\n"), _FEATURES,
                           f"commits.jsonl line 1: '{SHA_A}\\n' is not a 40-hex sha"),
    "gitlog-half-binary-numstat": ("history.gitlog", lambda data: data + b"-\t1\tsrc/B.java\n", _GITLOG,
                                   "history.gitlog line 3: numstat mixes '-' and counts: '-\\t1\\tsrc/B.java'"),
    "commit-short-sha": ("corpus/commits.jsonl", _first_commit(sha="abc"), _FEATURES,
                         "commits.jsonl line 1: 'abc' is not a 40-hex sha"),
    "commit-files-object": ("corpus/commits.jsonl", _first_commit(files={}), _FEATURES,
                            "commits.jsonl line 1: files must be a list"),
    "commit-file-no-path": ("corpus/commits.jsonl", _first_commit(files=[{"add": 1, "del": 0}]), _FEATURES,
                            "commits.jsonl line 1: malformed file entry {'add': 1, 'del': 0}"),
}


@pytest.mark.parametrize("name, alter, argv, message", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_input_is_data_error(work, capsys, name, alter, argv, message):
    path = work / name
    path.write_bytes(alter(path.read_bytes()))
    argv = [arg.format(work=work) for arg in argv] + ["--out", str(work / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def cascade_model(team_model, tmp_path_factory):
    """The commit cascade trained on the team_model corpus's true categories."""
    corpus, _ = team_model
    out = tmp_path_factory.mktemp("cascade")
    tagged = _tagged_csv_from(corpus, out / "tagged.csv")
    assert main(["train-commits", "--tagged", tagged, "--out", str(out)]) == 0
    return out / "cascade.json"


_JUNK = st.sampled_from([None, True, False, -3, 1.5, "x", [], {}, [1, "a"], 2**63, 10**400])
_CSV_JUNK = st.sampled_from(["", "abc", "-5", "1e999", "nan", ";", "true"])


def _replace_somewhere(value, data):
    """``value`` with the element at a drawn path replaced by a drawn junk value."""
    if isinstance(value, dict) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(value)))
        return {**value, key: _replace_somewhere(value[key], data)}
    if isinstance(value, list) and value and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(value) - 1))
        return value[:i] + [_replace_somewhere(value[i], data)] + value[i + 1 :]
    return data.draw(_JUNK)


def _wrong_type(name: str, text: str, data) -> str:
    if name == "cfg.json":  # a value, not the mapping: an empty one would synthesize the default 150 teams
        config = json.loads(text)
        key = data.draw(st.sampled_from(sorted(config)))
        config[key] = data.draw(_JUNK)
        return json.dumps(config)
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        row = data.draw(st.integers(0, len(rows) - 1))
        col = data.draw(st.integers(0, len(rows[row]) - 1))
        rows[row][col] = data.draw(_CSV_JUNK)
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue()
    if name.endswith(".jsonl"):
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = json.dumps(_replace_somewhere(json.loads(lines[i]), data))
        return "\n".join(lines) + "\n"
    return json.dumps(_replace_somewhere(json.loads(text), data))


def _containers(value, kind):
    """Each list (``kind`` list) or each non-empty object (``kind`` dict)
    inside a JSON value, ``value`` first."""
    if isinstance(value, kind) and (value or kind is list):
        yield value
    if isinstance(value, (dict, list)):
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child, kind)


def _edit_model(kind: str, text: str, data) -> str:
    """The model file ``text`` with one key deleted or added, or one list
    made an item longer or shorter, at a drawn place."""
    raw = json.loads(text)
    nodes = list(_containers(raw, list if kind == "resize list" else dict))
    node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    if kind == "resize list":
        at = data.draw(st.integers(0, len(node)))
        if node and (at == len(node) or data.draw(st.booleans())):
            del node[min(at, len(node) - 1)]
        else:
            node.insert(at, node[at - 1] if node else data.draw(_JUNK))
    else:
        key = data.draw(st.sampled_from(sorted(node)))
        if kind == "delete key":
            del node[key]
        else:  # a misspelling of a key beside it, such as "n_tree"
            node[key[:-1] if key[:-1] not in node else key + "_"] = node[key]
    return json.dumps(raw)


def _as_read(payload, cascade: bool):
    """A model payload's JSON with every number as a float64, and a cascade's
    lexicon word lists as sets: the form in which ``from_dict`` keeps them."""

    def walk(value):
        if type(value) in (int, float):
            return float(value)
        if isinstance(value, list):
            return [walk(v) for v in value]
        if isinstance(value, dict):
            return {key: walk(v) for key, v in value.items()}
        return value

    read = walk(payload)
    if cascade:
        read["lexicon"] = {key: set(words) for key, words in read["lexicon"].items()}
    return read


_MODEL_EDITS = ["delete key", "add key", "resize list"]
# every synth option at a cheap value, as are the flags synth runs with: a deleted key never means 150 teams
_SYNTH_CONFIG = {"seed": 1, "teams": 3, "commits": "20,30", "mix": "0.5,0.3,0.2", "noise": 0.1, "pair_rate": 0.05}


class _Draws:
    """Stands in for hypothesis's ``data`` in an explicit example: each draw is the next of ``values``."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy, label=None):
        return self.values.pop(0)


@settings(
    max_examples=60,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
# junk that only a size bound refuses, where the size becomes a float or a list
@example(name="cfg.json", data=_Draws("wrong type", "teams", 2**63))
@example(name="cfg.json", data=_Draws("wrong type", "teams", 10**400))
@given(
    name=st.sampled_from(["commits.jsonl", "roster.csv", "labels.jsonl", "teams.json", "cascade.json", "cfg.json"]),
    data=st.data(),
)
def test_corrupted_inputs_never_exit_internal_error(team_model, cascade_model, name, data):
    # a refusal names the file in one line, and a model file that loads holds
    # nothing its model does not read back; a synth --config file loses a
    # key, gains a misspelt one or holds a junk value
    if name == "cfg.json":
        kinds = ["delete key", "add key", "wrong type"]
    else:
        kinds = ["truncate", "0xff", "delete line", "wrong type"] + (_MODEL_EDITS if name.endswith(".json") else [])
    kind = data.draw(st.sampled_from(kinds))
    corpus, team_path = team_model
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(corpus, work / "corpus")
        shutil.copy(team_path, work / "teams.json")
        shutil.copy(cascade_model, work / "cascade.json")
        (work / "cfg.json").write_text(json.dumps(_SYNTH_CONFIG), encoding="utf-8")
        path = work / name if name.endswith(".json") else work / "corpus" / name
        raw = path.read_bytes()
        if kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "0xff":
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + b"\xff" + raw[at:]
        elif kind == "delete line":
            lines = raw.split(b"\n")
            del lines[data.draw(st.integers(0, len(lines) - 1))]
            raw = b"\n".join(lines)
        elif kind in _MODEL_EDITS:
            raw = _edit_model(kind, raw.decode("utf-8"), data).encode("utf-8")
        else:
            raw = _wrong_type(name, raw.decode("utf-8"), data).encode("utf-8")
        path.write_bytes(raw)

        if name == "cfg.json":
            argv = ["synth", "--teams", "3", "--commits", "20,30", "--config", str(path)]
        elif name == "cascade.json":
            argv = ["label-commits", "--model", str(path), "--data", str(work / "corpus")]
        else:
            argv = ["predict", "--model", str(work / "teams.json"), "--data", str(work / "corpus")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(work / "out")])
        err = stderr.getvalue()
        assert code in (0, 2), err
        if code == 2:
            assert re.fullmatch(rf"error: {re.escape(str(work))}/\S+( line [1-9][0-9]*)?: [^\n]+\n", err), err
        elif name in ("teams.json", "cascade.json"):
            cascade = name == "cascade.json"
            model_kind, model_cls = ("cascade", CascadeModel) if cascade else ("teamstyle", TeamStyleModel)
            payload = load_model(path, path.read_bytes(), model_kind)
            assert _as_read(model_cls.from_dict(payload).to_dict(), cascade) == _as_read(payload, cascade)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(["ts", "add", "del"]), flag=st.booleans(), data=st.data())
def test_boolean_timestamp_or_line_count_is_a_schema_error(team_model, field, flag, data):
    # JSON true/false pass isinstance(x, int); a count or a timestamp must still refuse them
    corpus, _ = team_model
    lines = (corpus / "commits.jsonl").read_text(encoding="utf-8").splitlines()
    with_files = [i for i, line in enumerate(lines) if json.loads(line)["files"]]
    i = data.draw(st.sampled_from(with_files))
    commit = json.loads(lines[i])
    if field == "ts":
        commit["ts"] = flag
    else:
        commit["files"][data.draw(st.integers(0, len(commit["files"]) - 1))][field] = flag
    lines[i] = json.dumps(commit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "commits.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"line {i + 1}: "):
            load_commits_jsonl(path)


# --- predict, flag, train-teams and eval-teams reuse a current features.csv ----

# what predict and flag write
_APPLIED = ("predictions.csv", "flags.json", "manifest_predict.json", "manifest_flag.json")


@pytest.fixture
def loads(monkeypatch):
    """The path of each ``load_commit_table`` call the CLI makes: the matrix was computed."""
    calls = []
    real = cli.load_commit_table

    def counted(path, data):
        calls.append(path)
        return real(path, data)

    monkeypatch.setattr(cli, "load_commit_table", counted)
    return calls


def _apply(data: Path, model: Path, out: Path, capsys) -> tuple:
    """predict then flag on ``data``: (exit codes, stderr, the bytes of what they wrote)."""
    codes = [main([cmd, "--model", str(model), "--data", str(data), "--out", str(out)]) for cmd in ("predict", "flag")]
    written = {name: (out / name).read_bytes() for name in _APPLIED if (out / name).exists()}
    return codes, capsys.readouterr().err, written


def _computed(data: Path, model: Path, out: Path, capsys) -> tuple:
    """What :func:`_apply` gives on a copy of ``data`` without a features manifest,
    its messages naming ``data``."""
    bare = out.with_name(out.name + "_bare")
    shutil.copytree(data, bare)
    (bare / "manifest_features.json").unlink(missing_ok=True)
    codes, err, written = _apply(bare, model, out.with_name(out.name + "_computed"), capsys)
    return codes, err.replace(str(bare), str(data)), written


@pytest.fixture
def featured(team_model, tmp_path, capsys):
    """A copy of the labeled corpus on which ``features`` ran."""
    corpus, _ = team_model
    data = tmp_path / "data"
    shutil.copytree(corpus, data)
    assert main(["features", "--data", str(data)]) == 0
    capsys.readouterr()
    return data


def test_current_recorded_matrix_is_reused(team_model, featured, loads, tmp_path, capsys):
    _, model = team_model
    reused = _apply(featured, model, tmp_path / "out", capsys)
    assert loads == [] and reused[0] == [0, 0]
    assert reused == _computed(featured, model, tmp_path / "out", capsys)
    assert len(loads) == 2  # the copy without a manifest computed it, once per command


def _rewrite_manifest(**fields):
    def alter(data: Path) -> None:
        path = data / "manifest_features.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **fields}), encoding="utf-8")

    return alter


def _forge_digest(data: Path, name: str) -> None:
    """Record the sha256 of ``name`` as it is now in the features manifest."""
    manifest = json.loads((data / "manifest_features.json").read_text())
    manifest["outputs"][name] = hashlib.sha256((data / name).read_bytes()).hexdigest()
    (data / "manifest_features.json").write_text(json.dumps(manifest), encoding="utf-8")


def _edit_features(edit, forge=False, rows=1):
    """An alteration that edits the first ``rows`` team rows of features.csv with
    ``edit``; with ``forge``, the manifest then records the edited file's sha256."""

    def alter(data: Path) -> None:
        path = data / "features.csv"
        header, *lines = path.read_bytes().decode("utf-8").split("\r\n")
        lines[:rows] = map(edit, lines[:rows])
        path.write_bytes("\r\n".join([header, *lines]).encode("utf-8"))
        if forge:
            _forge_digest(data, "features.csv")

    return alter


def _other_registry(data: Path) -> None:
    path = data / "registry.json"
    path.write_text(path.read_text(encoding="utf-8").replace('"version": "1"', '"version": "0"'), encoding="utf-8")
    _forge_digest(data, "registry.json")


def _bump_first_value(row: str) -> str:
    team_id, value, rest = row.split(",", 2)
    return f"{team_id},{int(value[0]) + 1 if value[0] != '9' else 8}{value[1:]},{rest}"


def _nan_first_value(row: str) -> str:
    team_id, _, rest = row.split(",", 2)
    return f"{team_id},nan,{rest}"


def _relabel_first(data: Path) -> None:
    path = data / "labels.jsonl"
    first, rest = path.read_text(encoding="utf-8").split("\n", 1)
    label = json.loads(first)
    label["category"] = "Documentation" if label["category"] != "Documentation" else "Test"
    path.write_text(json.dumps(label) + "\n" + rest, encoding="utf-8")


STALE = {
    "labels-edited": _relabel_first,
    "features-digit": _edit_features(_bump_first_value),
    "registry-deleted": lambda data: (data / "registry.json").unlink(),
    "other-command": _rewrite_manifest(command="predict"),
    "other-version": _rewrite_manifest(version="0.0.0"),
    "other-code": _rewrite_manifest(code="0" * 64),
    "manifest-not-json": lambda data: (data / "manifest_features.json").write_text("{oops", encoding="utf-8"),
    "forged-nan": _edit_features(_nan_first_value, forge=True),
    "forged-word": _edit_features(lambda row: row.replace(",", ",x", 1), forge=True),
    "forged-short-row": _edit_features(lambda row: row.rsplit(",", 1)[0], forge=True),
    "forged-short-rows": _edit_features(lambda row: row.rsplit(",", 1)[0], forge=True, rows=_TEAMS),
    "forged-registry": _other_registry,
}


@pytest.mark.parametrize("alter", STALE.values(), ids=STALE.keys())
def test_stale_recorded_matrix_is_computed_again(team_model, featured, loads, tmp_path, capsys, alter):
    _, model = team_model
    alter(featured)
    applied = _apply(featured, model, tmp_path / "out", capsys)
    assert len(loads) == 2 and applied[0] == [0, 0]
    assert applied == _computed(featured, model, tmp_path / "out", capsys)


def test_matrix_recorded_by_other_code_is_computed_again(team_model, featured, loads, tmp_path, capsys, monkeypatch):
    # a feature's value changed after features ran; so did the code identity
    _, model = team_model
    ratio = teamfeat._ratio
    monkeypatch.setattr(teamfeat, "_ratio", lambda num, den: 1 - ratio(num, den))
    monkeypatch.setattr(cli, "_code_identity", lambda: "0" * 64, raising=False)
    applied = _apply(featured, model, tmp_path / "out", capsys)
    assert len(loads) == 2 and applied[0] == [0, 0]
    assert applied == _computed(featured, model, tmp_path / "out", capsys)


@pytest.mark.parametrize("name", ["manifest_features.json", "features.csv", "registry.json"])
def test_recorded_file_that_is_not_a_regular_file_is_a_miss(team_model, featured, tmp_path, capsys, name):
    _, model = team_model
    _, _, reused = _apply(featured, model, tmp_path / "reused", capsys)
    (featured / name).unlink()
    os.mkfifo(featured / name)
    # a read of the FIFO would block, so the command runs in a child that a
    # timeout ends, failing the test rather than hanging the suite
    argv = ["predict", "--model", str(model), "--data", str(featured), "--out", str(tmp_path / "out")]
    done = _child(argv, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "predictions.csv").read_bytes() == reused["predictions.csv"]


def test_removed_label_after_features_is_refused_as_before(team_model, featured, loads, tmp_path, capsys):
    _, model = team_model
    path = featured / "labels.jsonl"
    path.write_bytes(path.read_bytes().split(b"\n", 1)[1])
    applied = _apply(featured, model, tmp_path / "out", capsys)
    assert applied[0] == [2, 2] and applied[2] == {} and len(loads) == 2
    assert applied[1].count("labels.jsonl: no label for commit ") == 2
    assert applied == _computed(featured, model, tmp_path / "out", capsys)


def test_features_written_elsewhere_is_not_reused(team_model, tmp_path, loads, capsys):
    corpus, model = team_model
    data = tmp_path / "data"
    shutil.copytree(corpus, data)
    assert main(["features", "--data", str(data), "--out", str(tmp_path / "elsewhere")]) == 0
    assert len(loads) == 1  # features computes
    applied = _apply(data, model, tmp_path / "out", capsys)
    assert len(loads) == 3 and applied[0] == [0, 0]
    assert applied == _computed(data, model, tmp_path / "out", capsys)


def test_features_always_computes(featured, loads):
    before = {name: (featured / name).read_bytes() for name in ("features.csv", "registry.json")}
    assert main(["features", "--data", str(featured)]) == 0
    assert len(loads) == 1
    assert before == {name: (featured / name).read_bytes() for name in before}


def _pipeline(corpus: Path, work: Path, with_features: bool) -> dict:
    """Every file a labeled corpus's team-style pipeline writes, by path under ``work``."""
    data = work / "data"
    shutil.copytree(corpus, data)
    steps = [["features", "--data", str(data)]] if with_features else []
    for algorithm in ("forest", "logistic_rfe"):
        steps.append(["train-teams", "--data", str(data), "--algorithm", algorithm, "--seed", "3"])
    for fmt in ("json", "csv"):
        steps.append(["eval-teams", "--data", str(data), "--folds", "3", "--seed", "3", "--format", fmt,
                      "--out", str(work / "reports")])
    for command in ("predict", "flag"):
        steps.append([command, "--model", str(data / "models" / "teams_forest.json"), "--data", str(data)])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            assert main(argv) == 0, argv
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}


def test_pipeline_writes_the_same_bytes_with_or_without_features(team_model, tmp_path, loads):
    corpus, _ = team_model
    computed = _pipeline(corpus, tmp_path / "computed", with_features=False)
    assert len(loads) == 6
    reused = _pipeline(corpus, tmp_path / "reused", with_features=True)
    assert len(loads) == 7  # only features read the commits
    for name in ("features.csv", "registry.json", "manifest_features.json"):
        del reused[f"data/{name}"]
    assert reused == computed


# sha256 of the forest model and forest report of a small seed-7 course: a
# change to how forests draw or grow that alters a tree fails here
PINNED_FOREST_FILES = {
    "models/teams_forest.json": "3b1f34a347265b948bde0a3b9b8e7e2997fba49011e7e5b78fa46cefc11b7578",
    "reports/team_eval_forest.json": "64a61146cb359dab69d3c5d40700ae9164358004ec1655079ea50221defc7195",
}


def test_forest_keeps_its_bytes(tmp_path):
    corpus = _synth(tmp_path, teams=20, seed=7)
    _write_truth_labels(corpus)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-teams", "--data", str(corpus), "--algorithm", "forest", "--seed", "7"]) == 0
        assert main(["eval-teams", "--data", str(corpus), "--algorithm", "forest", "--folds", "3",
                     "--seed", "7", "--out", str(corpus / "reports")]) == 0
    got = {name: hashlib.sha256((corpus / name).read_bytes()).hexdigest() for name in PINNED_FOREST_FILES}
    assert got == PINNED_FOREST_FILES


@settings(_CLI_EXAMPLES, max_examples=5)
@example(copies=[0], at=[0], author="stranger")
@given(
    copies=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
    at=st.lists(st.integers(0, 10_000), min_size=6, max_size=6),
    author=st.sampled_from(["stranger", "NoBody@Elsewhere.edu", "s000", ""]),
)
def test_commits_no_member_claims_change_only_the_unmatched_count(
    team_model, cascade_model, tmp_path_factory, copies, at, author
):
    corpus, model = team_model
    lines = (corpus / "commits.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    extended = list(lines)
    for n, (i, where) in enumerate(zip(copies, at)):
        commit = json.loads(lines[i % len(lines)])
        commit.update(author=author, sha=f"{n:040x}")
        extended.insert(where % (len(extended) + 1), json.dumps(commit) + "\n")
    results = []
    work = tmp_path_factory.mktemp("unclaimed")
    for name, text in (("base", lines), ("extended", extended)):
        source = work / f"{name}.jsonl"
        source.write_text("".join(text), encoding="utf-8")
        data = work / name
        steps = [
            ["ingest", "--jsonl", str(source), "--roster", str(corpus / "roster.csv"), "--out", str(data)],
            ["label-commits", "--model", str(cascade_model), "--data", str(data)],
            ["features", "--data", str(data)],
            ["predict", "--model", str(model), "--data", str(data)],
            ["flag", "--model", str(model), "--data", str(data)],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert [main(argv) for argv in steps] == [0] * len(steps)
        ingest = json.loads((data / "manifest_ingest.json").read_text())["config"]
        results.append((ingest, [(data / n).read_bytes() for n in ("features.csv", "predictions.csv", "flags.json")]))
    (base, base_files), (extended_config, extended_files) = results
    assert base == {"seed": 0, "unmatched": 0}
    assert extended_config == {"seed": 0, "unmatched": len(copies)}
    assert extended_files == base_files


# --- main reads each declared input once, and the command parses those bytes ---


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_ingest_over_its_input_records_the_bytes_it_read(tmp_path):
    corpus = _synth(tmp_path, teams=4, seed=2)
    commits = corpus / "commits.jsonl"
    # the same commits with their keys reversed, which is not the form ingest writes
    lines = commits.read_text(encoding="utf-8").splitlines()
    commits.write_text("".join(json.dumps(dict(reversed(json.loads(line).items()))) + "\n" for line in lines),
                       encoding="utf-8")
    read = {"jsonl": _sha256(commits), "roster": _sha256(corpus / "roster.csv")}
    argv = ["ingest", "--jsonl", str(commits), "--roster", str(corpus / "roster.csv"), "--out", str(corpus)]
    assert main(argv) == 0
    manifest = json.loads((corpus / "manifest_ingest.json").read_text())
    assert manifest["inputs"] == read
    assert manifest["outputs"]["commits.jsonl"] == _sha256(commits) != read["jsonl"]


@pytest.mark.parametrize(
    "argv, path",
    [
        (["ingest", "--gitlog", "/dev/null", "--roster", "{work}/roster.csv"], "/dev/null"),
        (["predict", "--model", "{work}/corpus", "--data", "{work}/corpus"], "{work}/corpus"),
    ],
    ids=["gitlog-device", "model-directory"],
)
def test_input_that_is_not_a_regular_file_is_data_error(work, capsys, argv, path):
    out = work / "out"
    assert main([arg.format(work=work) for arg in argv] + ["--out", str(out)]) == 2
    assert f"error: {path.format(work=work)}: not a regular file" in capsys.readouterr().err
    assert not out.exists()


_CORPUS = "{work}/corpus"
DECLARED = {
    # id: argv of a command that writes a manifest, each input parsed
    "ingest-gitlog": _GITLOG,
    "ingest-jsonl": ["ingest", "--jsonl", f"{_CORPUS}/commits.jsonl", "--roster", f"{_CORPUS}/roster.csv"],
    "train-commits": ["train-commits", "--tagged", "{work}/tagged.csv"],
    "train-commits-domain": ["train-commits", "--tagged", "{work}/tagged.csv", "--domain-words", "{work}/domain.txt"],
    "eval-commits": ["eval-commits", "--tagged", "{work}/tagged.csv", "--folds", "2"],
    "label-commits": ["label-commits", "--model", "{cascade}", "--data", _CORPUS],
    "features": _FEATURES,
    "train-teams": ["train-teams", "--data", _CORPUS],
    "train-teams-styles": ["train-teams", "--data", _CORPUS, "--styles", f"{_CORPUS}/truth_teams.csv"],
    "eval-teams": ["eval-teams", "--data", _CORPUS, "--folds", "2"],
    "predict": _PREDICT,
    "flag": ["flag", *_PREDICT[1:]],
    "registry": ["registry"],
}


# the files through which a command reuses the recorded feature matrix: read, but not inputs
_RECORDED = ("manifest_features.json", "features.csv", "registry.json")


@pytest.fixture
def opened(work, monkeypatch):
    """(path, caller) of each open of a file under the work directory for
    reading, at the level of ``os.open`` and ``io.open``; the caller is the
    function that opened it, as ``module.function``."""
    reads = []

    def recording(real, reading):
        def open_(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).is_relative_to(work) and reading(*args, **kwargs):
                caller = sys._getframe(1)
                reads.append((Path(file), f"{caller.f_globals['__name__']}.{caller.f_code.co_name}"))
            return real(file, *args, **kwargs)

        return open_

    text_mode = recording(io.open, lambda mode="r", *args, **kwargs: "r" in mode)
    monkeypatch.setattr(io, "open", text_mode)
    monkeypatch.setattr(builtins, "open", text_mode)
    monkeypatch.setattr(os, "open", recording(os.open, lambda flags, *args, **kwargs: flags & os.O_ACCMODE == os.O_RDONLY))
    return reads


@pytest.mark.parametrize("argv", DECLARED.values(), ids=DECLARED.keys())
def test_manifest_inputs_are_the_files_the_command_read(work, cascade_model, opened, argv):
    cascade = shutil.copy(cascade_model, work / "cascade.json")
    out = work / "out"
    assert main([arg.format(work=work, cascade=cascade) for arg in argv] + ["--out", str(out)]) == 0
    reads = [(path, caller) for path, caller in opened if not path.is_relative_to(out) and path.name not in _RECORDED]
    manifest = json.loads((out / f"manifest_{argv[0]}.json").read_text())
    paths = [path for path, _ in reads]
    # each declared input opened once, by the one reader, and recorded as the bytes read
    assert len(set(paths)) == len(paths) == len(manifest["inputs"]), reads
    assert {caller for _, caller in reads} <= {"teamscope.errors.open_input"}, reads
    assert sorted(_sha256(path) for path in paths) == sorted(manifest["inputs"].values())


def _child(argv: list, timeout: float) -> subprocess.CompletedProcess:
    """``teamscope ARGV`` run in a child interpreter, which the timeout ends: a
    read that blocks fails the test rather than hanging the suite."""
    src = str(Path(teamscope.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "teamscope", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "--a", "{fifo}", "--b", "{work}/a.csv"],
        ["kappa", "--a", "{work}/a.csv", "--b", "{fifo}"],
        ["eval-commits", "--tagged", "{work}/tagged.csv", "--config", "{fifo}", "--out", "{work}/out"],
    ],
    ids=["kappa-a", "kappa-b", "config"],
)
def test_fifo_input_is_refused_without_blocking(work, argv):
    fifo = work / "fifo"
    os.mkfifo(fifo)
    _write(work / "a.csv", "id,label\n1,x\n")
    done = _child([arg.format(work=work, fifo=fifo) for arg in argv], timeout=30)
    assert done.returncode == 2, done.stderr
    assert f"error: {fifo}: not a regular file" in done.stderr


# each manifest's config keys: every option but the input files, --data and
# --out, then what the command computed
MANIFEST_CONFIG = {
    "synth": {"seed", "teams", "noise", "mix", "commits", "pair_rate"},
    "ingest": {"seed", "unmatched"},
    "train-commits": {"seed", "messages", "distinct_messages"},
    "eval-commits": {"seed", "folds", "format"},
    "label-commits": {"seed", "messages", "distinct_messages"},
    "features": {"seed", "teams", "columns"},
    "train-teams": {"seed", "algorithm", "k_features"},
    "eval-teams": {"seed", "algorithm", "folds", "format", "k_features"},
    "predict": {"seed"},
    "flag": {"seed"},
    "registry": {"seed"},
}


@pytest.mark.parametrize("argv", [*DECLARED.values(), ["synth", "--teams", "2"]], ids=[*DECLARED, "synth"])
def test_manifest_config_records_each_option_and_no_input_path(work, cascade_model, argv):
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([arg.format(work=work, cascade=cascade_model) for arg in argv] + ["--out", str(out)]) == 0
    manifest = json.loads((out / f"manifest_{argv[0]}.json").read_text())
    assert set(manifest["config"]) == MANIFEST_CONFIG[argv[0]]


# --- author keys match in any case, and team ids only name rows ---------------

_CASES = [str.upper, str.lower, str.swapcase, str.title]


def _applied_pipeline(data: Path, cascade: Path, model: Path) -> tuple:
    """label-commits, features, predict and flag on ``data``: the feature and
    prediction rows by team, and the flags."""
    steps = [["label-commits", "--model", str(cascade), "--data", str(data)], ["features", "--data", str(data)]]
    steps += [[command, "--model", str(model), "--data", str(data)] for command in ("predict", "flag")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [main(argv) for argv in steps] == [0] * len(steps)
    flags = json.loads((data / "flags.json").read_text(encoding="utf-8"))
    return _rows_by_team(data / "features.csv"), _rows_by_team(data / "predictions.csv"), flags


@pytest.fixture(scope="module")
def applied_outputs(team_model, cascade_model, tmp_path_factory):
    corpus, model = team_model
    data = tmp_path_factory.mktemp("applied") / "data"
    data.mkdir()
    for name in ("commits.jsonl", "roster.csv"):
        shutil.copy(corpus / name, data / name)
    return _applied_pipeline(data, cascade_model, model)


@settings(_CLI_EXAMPLES, max_examples=5)
@example(cases=[str.upper], names=[f"T{i}" for i in range(_TEAMS)])
@given(
    cases=st.lists(st.sampled_from(_CASES), min_size=1, max_size=6),
    names=st.lists(st.text(st.characters(whitelist_categories=("L", "N")), min_size=1, max_size=8),
                   min_size=_TEAMS, max_size=_TEAMS, unique=True),
)
def test_author_key_case_and_team_ids_do_not_change_what_is_applied(
    team_model, cascade_model, applied_outputs, cases, names
):
    corpus, model = team_model
    commits = []
    for i, line in enumerate((corpus / "commits.jsonl").read_text(encoding="utf-8").splitlines()):
        commit = json.loads(line)
        commits.append(json.dumps({**commit, "author": cases[i % len(cases)](commit["author"])}) + "\n")
    with open(corpus / "roster.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    rename = dict(zip(dict.fromkeys(row[0] for row in rows), names))
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        (data / "commits.jsonl").write_text("".join(commits), encoding="utf-8")
        with open(data / "roster.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + [[rename[row[0]], *row[1:]] for row in rows])
        features, predictions, flags = _applied_pipeline(data, cascade_model, model)
    base_features, base_predictions, base_flags = applied_outputs
    for got, base in ((features, base_features), (predictions, base_predictions)):
        assert got == {rename[t]: {**row, "team_id": rename[t]} for t, row in base.items()}
    renamed = [{**flag, "team_id": rename[flag["team_id"]]} for flag in base_flags]
    assert sorted(map(canonical_json, flags)) == sorted(map(canonical_json, renamed))


# --- the benchmark's tracer wraps the commands without changing them --------


def _perfbench_tracer():
    """``perfbench/tracer.py``, loaded from its file as the benchmark's traced runs use it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _model_pipeline(corpus: Path, tagged: str, work: Path, tracer=None) -> dict:
    """Every file that training and applying both models writes, by path under ``work``."""
    data, models = work / "data", work / "models"
    data.mkdir(parents=True)
    for name in ("commits.jsonl", "roster.csv", "truth_teams.csv"):
        shutil.copy(corpus / name, data / name)
    team_model = str(data / "models" / "teams_forest.json")
    steps = [
        ["train-commits", "--tagged", tagged, "--out", str(models)],
        ["label-commits", "--model", str(models / "cascade.json"), "--data", str(data)],
        ["train-teams", "--data", str(data), "--styles", str(data / "truth_teams.csv"), "--seed", "9"],
        ["predict", "--model", team_model, "--data", str(data)],
        ["flag", "--model", team_model, "--data", str(data)],
    ]
    with contextlib.redirect_stdout(io.StringIO()), tracer or contextlib.nullcontext():
        for argv in steps:
            assert cli.main(argv) == 0, argv  # looked up per call: the tracer rebinds it
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}


def test_traced_commands_write_the_bytes_of_untraced_runs(team_model, cascade_model, tmp_path):
    corpus, _ = team_model
    tagged = str(cascade_model.parent / "tagged.csv")
    tracer = _perfbench_tracer().Tracer()
    untraced = _model_pipeline(corpus, tagged, tmp_path / "untraced")
    assert _model_pipeline(corpus, tagged, tmp_path / "traced", tracer) == untraced
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 5
    # the tracer sizes each model file a command saves or loads
    for name, calls in (("save_model", 2), ("load_model", 3)):
        assert metrics[f"mlcore.serialize.{name}.calls"] == calls
        assert metrics[f"mlcore.serialize.{name}.bytes"] > 0
