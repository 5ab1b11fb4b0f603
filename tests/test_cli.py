import contextlib
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teamscope.cli import main
from teamscope.errors import SchemaError
from teamscope.ingest import load_commits_jsonl

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


@pytest.mark.parametrize(
    "alter, message",
    [
        (lambda raw: raw.update(version=1), "retrain"),
        (lambda raw: raw["model"].update(registry_version="0-other"), "registry version"),
        (_narrow, "100 feature columns"),
    ],
    ids=["format-v1", "foreign-registry", "narrow-means"],
)
@pytest.mark.parametrize("command", ["predict", "flag"])
def test_unfit_model_is_data_error(team_model, tmp_path, capsys, command, alter, message):
    corpus, _ = team_model
    model = _altered_model(team_model, tmp_path, alter)
    out = tmp_path / "out"
    assert main([command, "--model", model, "--data", str(corpus), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
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


def test_non_json_label_line_is_data_error(tmp_path, capsys):
    corpus = _synth(tmp_path, teams=4, seed=2)
    _write_truth_labels(corpus)
    lines = (corpus / "labels.jsonl").read_text().splitlines()
    lines[2] = "not json"
    (corpus / "labels.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["features", "--data", str(corpus)]) == 2
    assert "labels.jsonl line 3" in capsys.readouterr().err


# --- bad input exits 1 (usage) or 2 (data), never 3 (internal) ---------------

BAD_INPUT = [
    # argv ({data}/{tagged}: a labeled corpus and its tagged CSV), config file, exit code, stderr
    (["synth", "--commits", "abc"], None, 2, "--commits"),
    (["synth", "--mix", "a,b,c"], None, 2, "--mix"),
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
]


@pytest.mark.parametrize(
    "argv, config, code, message",
    BAD_INPUT,
    ids=[" ".join(a[:1] + a[-2:] if c is None else a[:1] + [c[1]]) for a, c, _, _ in BAD_INPUT],
)
def test_bad_input_is_usage_or_data_error(team_model, tmp_path, capsys, argv, config, code, message):
    corpus, _ = team_model
    tagged = _tagged_csv_from(corpus, tmp_path / "tagged.csv")
    argv = [arg.format(data=corpus, tagged=tagged) for arg in argv]
    if argv[0] != "kappa":
        argv += ["--out", str(tmp_path / "out")]
    if config is not None:
        name, text = config
        argv += ["--config", _write(tmp_path / name, text)]
    assert main(argv) == code
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


def _repeat_first_line(data: bytes) -> bytes:
    return data.split(b"\n", 1)[0] + b"\n" + data


@pytest.fixture
def work(team_model, tmp_path):
    """A copy of the labeled corpus with its models, a tagged CSV and a git log."""
    corpus, _ = team_model
    data = tmp_path / "corpus"
    shutil.copytree(corpus, data)
    _tagged_csv_from(data, tmp_path / "tagged.csv")
    _write(tmp_path / "history.gitlog", GIT_LOG)
    _write(tmp_path / "roster.csv", ROSTER)
    return tmp_path


_FEATURES = ["features", "--data", "{work}/corpus"]
_PREDICT = ["predict", "--model", "{work}/corpus/models/teams_forest.json", "--data", "{work}/corpus"]
UNREADABLE = {
    # id: (file under the work directory, its alteration, argv, a part of the message)
    "commits-not-utf8": ("corpus/commits.jsonl", _insert_ff, _FEATURES, "commits.jsonl: not UTF-8"),
    "roster-not-utf8": ("corpus/roster.csv", _insert_ff, _FEATURES, "roster.csv: not UTF-8"),
    "labels-not-utf8": ("corpus/labels.jsonl", _insert_ff, _FEATURES, "labels.jsonl: not UTF-8"),
    "tagged-not-utf8": ("tagged.csv", _insert_ff, ["train-commits", "--tagged", "{work}/tagged.csv"],
                        "tagged.csv: not UTF-8"),
    "gitlog-not-utf8": ("history.gitlog", _insert_ff, ["ingest", "--gitlog", "{work}/history.gitlog",
                                                       "--roster", "{work}/roster.csv"],
                        "history.gitlog: not UTF-8"),
    "model-not-utf8": ("corpus/models/teams_forest.json", _insert_ff, _PREDICT, "teams_forest.json: not a"),
    "model-truncated": ("corpus/models/teams_forest.json", _truncate, _PREDICT, "teams_forest.json: not a"),
    "model-no-means": ("corpus/models/teams_forest.json", _model_without("means"), _PREDICT,
                       "no key 'means'"),
    "model-no-stages": ("corpus/models/teams_forest.json", _model_without("stages"), _PREDICT,
                        "no key 'stages'"),
    "model-no-fallback": ("corpus/models/teams_forest.json", _model_without("fallback"), _PREDICT,
                          "no key 'fallback'"),
    "model-no-n_trees": ("corpus/models/teams_forest.json", _model_without("stages", 0, "model", "n_trees"),
                         _PREDICT, "no key 'n_trees'"),
    "commit-msg-null": ("corpus/commits.jsonl", _first_commit(msg=None), _FEATURES,
                        "line 1: msg must be a string"),
    "commit-author-int": ("corpus/commits.jsonl", _first_commit(author=5), _FEATURES,
                          "line 1: author must be a string"),
    "commit-ts-true": ("corpus/commits.jsonl", _first_commit(ts=True), _FEATURES,
                       "line 1: ts must be a positive integer"),
    "commit-add-true": ("corpus/commits.jsonl", _first_file(add=True), _FEATURES,
                        "line 1: file add/del must both be ints or both null"),
    "commit-del-false": ("corpus/commits.jsonl", _first_file(**{"del": False}), _FEATURES,
                         "line 1: file add/del must both be ints or both null"),
    "commit-add-negative": ("corpus/commits.jsonl", _first_file(add=-1), _FEATURES,
                            "line 1: negative line counts for"),
    "commit-ts-too-large": ("corpus/commits.jsonl", _first_commit(ts=2**63), _FEATURES,
                            "line 1: ts must be below 2**63"),
    "commit-add-too-large": ("corpus/commits.jsonl", _first_file(add=2**63), _FEATURES,
                             "line 1: line counts must total below 2**63"),
    "labels-pair-string": ("corpus/labels.jsonl", _first_commit(pair_programming="false"), _FEATURES,
                           "labels.jsonl line 1: pair_programming must be true or false, got 'false'"),
    "labels-duplicate-sha": ("corpus/labels.jsonl", _repeat_first_line, _FEATURES,
                             "labels.jsonl line 2: duplicate sha"),
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


_JUNK = st.sampled_from([None, True, False, -3, 1.5, "x", [], {}, [1, "a"]])
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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(["commits.jsonl", "roster.csv", "labels.jsonl", "teams.json", "cascade.json"]),
    kind=st.sampled_from(["truncate", "0xff", "delete line", "wrong type"]),
    data=st.data(),
)
def test_corrupted_inputs_never_exit_internal_error(team_model, cascade_model, name, kind, data):
    corpus, team_path = team_model
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(corpus, work / "corpus")
        shutil.copy(team_path, work / "teams.json")
        shutil.copy(cascade_model, work / "cascade.json")
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
        else:
            raw = _wrong_type(name, raw.decode("utf-8"), data).encode("utf-8")
        path.write_bytes(raw)

        if name == "cascade.json":
            argv = ["label-commits", "--model", str(work / name)]
        else:
            argv = ["predict", "--model", str(work / "teams.json")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--data", str(work / "corpus"), "--out", str(work / "out")])
        assert code in (0, 2), stderr.getvalue()


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
        with pytest.raises(SchemaError, match=f"line {i + 1}: "):
            load_commits_jsonl(path)
