"""The three benchmark workloads: set-up, CLI command sequence, and checks.

Each workload builds its inputs from the benchmark seed: the reference
corpus is ``synth --seed S --teams 150`` and the held-out course is
``synth --seed S+4 --teams 300`` (defaults 7 and 11). A workload's pass is a
fixed list of ``teamscope`` commands run one after another; ``check`` reads
their outputs and returns the quality figures plus any failed checks.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from teamscope.commitcls import CommitCategory
from teamscope.ingest import COMMIT_HEADER_MARK, build_teams, load_commits_jsonl, load_roster
from teamscope.synthgen import GroundTruth, truth_labeled_commits
from teamscope.teamstyle import LOGISTIC_DEFAULT_K, TeamStyle

REFERENCE_TEAMS = 150
COURSE_TEAMS = 300
COURSE_SEED_OFFSET = 4
TEAM_FOLDS = 5
COMMIT_FOLDS = 5
# per-style team counts of the 150-team reference mix (acceptance criterion 7)
REFERENCE_STYLE_COUNTS = {"Collaborative": 85, "Cooperative": 44, "SoloSubmit": 21}
STATIC_KEYS = ("Merge", "Style", "Documentation")
ML_KEYS = ("Implementation", "Test", "Bugfix")
MACRO_KEYS = ML_KEYS + STATIC_KEYS + ("Other(residual)",)


# ---------------------------------------------------------------------------
# set-up helpers (harness side, never timed as part of a pass)


def _read_truth(corpus: Path) -> GroundTruth:
    with open(corpus / "truth_teams.csv", encoding="utf-8", newline="") as fh:
        styles = {row["team_id"]: TeamStyle(row["style"]) for row in csv.DictReader(fh)}
    with open(corpus / "truth_commits.csv", encoding="utf-8", newline="") as fh:
        categories = {row["sha"]: CommitCategory(row["category"]) for row in csv.DictReader(fh)}
    return GroundTruth(team_styles=styles, commit_categories=categories)


def render_git_log(corpus: Path, out: Path) -> None:
    """Write the corpus as the output of the fixed ``git log --numstat`` export."""
    with open(out, "w", encoding="utf-8") as fh:
        for c in load_commits_jsonl(corpus / "commits.jsonl"):
            fh.write(f"{COMMIT_HEADER_MARK}{c.sha}|{c.author_key}|{c.author_key}|{c.timestamp}|{c.message}\n")
            for f in c.files:
                counts = "-\t-" if f.binary else f"{f.additions}\t{f.deletions}"
                fh.write(f"{counts}\t{f.path}\n")
            fh.write("\n")


def write_tagged(corpus: Path, out: Path) -> None:
    """``message,category`` CSV of every corpus commit with its true category."""
    truth = _read_truth(corpus)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["message", "category"])
        for c in load_commits_jsonl(corpus / "commits.jsonl"):
            writer.writerow([c.message, truth.commit_categories[c.sha].value])


def write_truth_labels(corpus: Path) -> None:
    """``labels.jsonl`` from the true commit categories, as criterion 7 labels them."""
    truth = _read_truth(corpus)
    assembly = build_teams(load_commits_jsonl(corpus / "commits.jsonl"), load_roster(corpus / "roster.csv"))
    by_sha = {
        item.commit.sha: item
        for team in assembly.teams
        for item in truth_labeled_commits(team, truth)
    }
    with open(corpus / "labels.jsonl", "w", encoding="utf-8") as fh:
        for c in load_commits_jsonl(corpus / "commits.jsonl"):
            item = by_sha[c.sha]
            fh.write(json.dumps(
                {"sha": c.sha, "category": item.category.value, "pair_programming": item.pair_programming},
                sort_keys=True,
            ) + "\n")


def _synth(cli, seed: int, teams: int, out: Path) -> None:
    cli("synth", ["synth", "--seed", str(seed), "--teams", str(teams), "--out", str(out)])


# ---------------------------------------------------------------------------
# checks


def _f1(predicted: set, actual: set) -> float:
    tp = len(predicted & actual)
    if tp == 0:
        return 0.0
    precision, recall = tp / len(predicted), tp / len(actual)
    return 2 * precision * recall / (precision + recall)


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _interchange(commit) -> tuple:
    return (commit.sha, commit.author_key, commit.timestamp, commit.message, commit.files, commit.is_merge_shape)


class Workload:
    name = ""
    why = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.ref = work / "reference"

    def setup(self, cli) -> None:
        raise NotImplementedError

    def commands(self) -> list[tuple[str, list[str]]]:
        """(metric name, argv) of each command of one pass, in order."""
        raise NotImplementedError

    def check(self) -> tuple[dict[str, float], list[str]]:
        """Quality figures of the last pass and a description of each failed check."""
        raise NotImplementedError


class Commits(Workload):
    name = "commits"
    why = "git-log ingest plus cascade train and 5-fold eval on 8k tagged messages: text, TF-IDF and n>>d logistic fits"

    def setup(self, cli) -> None:
        _synth(cli, self.seed, REFERENCE_TEAMS, self.ref)
        render_git_log(self.ref, self.work / "history.gitlog")
        write_tagged(self.ref, self.work / "tagged.csv")

    def commands(self):
        w, s = self.work, str(self.seed)
        return [
            ("ingest_s", ["ingest", "--gitlog", str(w / "history.gitlog"), "--roster",
                          str(self.ref / "roster.csv"), "--out", str(w / "dataset"), "--seed", s]),
            ("train_commits_s", ["train-commits", "--tagged", str(w / "tagged.csv"),
                                 "--out", str(w / "models"), "--seed", s]),
            ("eval_commits_s", ["eval-commits", "--tagged", str(w / "tagged.csv"), "--folds",
                                str(COMMIT_FOLDS), "--seed", s, "--out", str(w / "reports")]),
        ]

    def check(self):
        failures = []
        ingested = [_interchange(c) for c in load_commits_jsonl(self.work / "dataset" / "commits.jsonl")]
        source = [_interchange(c) for c in load_commits_jsonl(self.ref / "commits.jsonl")]
        if ingested != source:
            failures.append("ingested git log does not round-trip to the corpus commits.jsonl")
        reports = _load_json(self.work / "reports" / "commit_eval.json")
        for key in STATIC_KEYS:
            if reports[key]["f1"] < 0.90:
                failures.append(f"static stage {key} F1 {reports[key]['f1']:.3f} < 0.90")
        for key in ML_KEYS:
            if reports[key]["f1"] < 0.80:
                failures.append(f"ML stage {key} F1 {reports[key]['f1']:.3f} < 0.80")
        if abs(reports["Other(residual)"]["recall"] - 1.0) > 1e-9:
            failures.append(f"residual Other recall {reports['Other(residual)']['recall']} != 1.0")
        macro = sum(reports[key]["f1"] for key in MACRO_KEYS) / len(MACRO_KEYS)
        return {"commit_macro_f1": macro, "quality_f1": macro}, failures


class Teams(Workload):
    name = "teams"
    why = "model writing: 5-fold forest CV then a full logistic-RFE fit on the 150-team corpus; n<d fits and tree growing"

    def setup(self, cli) -> None:
        _synth(cli, self.seed, REFERENCE_TEAMS, self.ref)
        write_truth_labels(self.ref)

    def commands(self):
        ref, s = str(self.ref), str(self.seed)
        return [
            ("features_s", ["features", "--data", ref, "--seed", s]),
            ("eval_teams_forest_s", ["eval-teams", "--data", ref, "--algorithm", "forest", "--folds",
                                     str(TEAM_FOLDS), "--seed", s, "--out", str(self.work / "reports")]),
            ("train_teams_logistic_s", ["train-teams", "--data", ref, "--algorithm", "logistic_rfe",
                                        "--seed", s, "--out", str(self.work / "models")]),
        ]

    def check(self):
        failures = []
        with open(self.ref / "features.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != REFERENCE_TEAMS + 1:
            failures.append(f"features.csv has {len(rows) - 1} team rows, expected {REFERENCE_TEAMS}")
        forest = _load_json(self.work / "reports" / "team_eval_forest.json")
        counts = {style: r["support"] for style, r in forest["styles"].items()}
        if counts != REFERENCE_STYLE_COUNTS:
            failures.append(f"style counts {counts} != {REFERENCE_STYLE_COUNTS}")
        if forest["styles"]["SoloSubmit"]["f1"] < 0.90:
            failures.append(f"forest SoloSubmit F1 {forest['styles']['SoloSubmit']['f1']:.3f} < 0.90")
        if forest["macro_f1"] < 0.80:
            failures.append(f"forest macro F1 {forest['macro_f1']:.3f} < 0.80")
        logistic = _load_json(self.work / "models" / "teams_logistic_rfe.json")["model"]
        selected = [len(stage["selected"]) for stage in logistic["stages"]]
        if selected != [LOGISTIC_DEFAULT_K] * len(REFERENCE_STYLE_COUNTS):
            failures.append(f"logistic stages selected {selected} features, expected {LOGISTIC_DEFAULT_K} each")
        return {"forest_macro_f1": forest["macro_f1"], "quality_f1": forest["macro_f1"]}, failures


class Weekly(Workload):
    name = "weekly"
    why = "model reading: apply a trained cascade and forest to a held-out 300-team course; loads, inference, tree walks"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.course = work / "course"
        self.models = work / "models"

    def setup(self, cli) -> None:
        s = str(self.seed)
        _synth(cli, self.seed, REFERENCE_TEAMS, self.ref)
        write_truth_labels(self.ref)
        write_tagged(self.ref, self.work / "tagged.csv")
        cli("train-commits", ["train-commits", "--tagged", str(self.work / "tagged.csv"),
                              "--out", str(self.models), "--seed", s])
        cli("train-teams", ["train-teams", "--data", str(self.ref), "--algorithm", "forest",
                            "--out", str(self.models), "--seed", s])
        _synth(cli, self.seed + COURSE_SEED_OFFSET, COURSE_TEAMS, self.course)

    def commands(self):
        course, cascade = str(self.course), str(self.models / "cascade.json")
        forest = str(self.models / "teams_forest.json")
        return [
            ("label_commits_s", ["label-commits", "--model", cascade, "--data", course]),
            ("features_s", ["features", "--data", course]),
            ("predict_s", ["predict", "--model", forest, "--data", course]),
            ("flag_s", ["flag", "--model", forest, "--data", course]),
        ]

    def check(self):
        failures = []
        shas = [c.sha for c in load_commits_jsonl(self.course / "commits.jsonl")]
        with open(self.course / "labels.jsonl", encoding="utf-8") as fh:
            labeled = [json.loads(line)["sha"] for line in fh if line.strip()]
        if sorted(labeled) != sorted(shas):
            failures.append(f"{len(labeled)} labels for {len(shas)} commits, not one per commit")
        truth = _read_truth(self.course)
        with open(self.course / "predictions.csv", encoding="utf-8", newline="") as fh:
            predictions = list(csv.DictReader(fh))
        predicted_ids = [row["team_id"] for row in predictions]
        if sorted(predicted_ids) != sorted(truth.team_styles):
            failures.append(f"{len(predicted_ids)} predictions for {len(truth.team_styles)} teams")
        solo = {row["team_id"]: float(row["confidence"]) for row in predictions
                if row["style"] == TeamStyle.SOLO_SUBMIT.value}
        flags = _load_json(self.course / "flags.json")
        flagged = [(f["team_id"], f["confidence"]) for f in flags]
        expected = sorted(solo.items(), key=lambda item: (-item[1], item[0]))
        if flagged != expected:
            failures.append("flags.json is not the SoloSubmit predictions ordered by descending confidence")
        actual = {t for t, style in truth.team_styles.items() if style == TeamStyle.SOLO_SUBMIT}
        f1 = _f1({t for t, _ in flagged}, actual)
        return {"solo_flag_f1": f1, "quality_f1": f1}, failures


WORKLOADS = {cls.name: cls for cls in (Commits, Teams, Weekly)}
