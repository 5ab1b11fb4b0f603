"""Command-line surface: ingest -> label -> features -> train -> evaluate.

Datasets are directories with conventional file names (``commits.jsonl``,
``roster.csv``, ``labels.jsonl``, ``features.csv``, ``models/``) so stages
stay decoupled. Every command writes a ``manifest_<command>.json`` beside
its outputs recording the effective configuration, seed, and content
digests of inputs and outputs; reruns with identical inputs and seed
produce byte-identical files. Exit codes: 0 success, 1 usage error, 2 data
error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, commitcls, synthgen, teamfeat, teamstyle
from .commitcls import CascadeConfig, CascadeModel, CommitCategory
from .errors import DataError
from .ingest import (
    build_teams,
    dump_commits_jsonl,
    dump_roster,
    load_commits_jsonl,
    load_roster,
    parse_git_log_file,
)
from .mlcore import canonical_json, cohens_kappa, load_model, save_model
from .teamstyle import TeamStyle


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems; we use 1 for usage
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        # bad content and unreadable/missing inputs are both data problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamscope",
        description="Mine git histories: classify commits, predict team work styles.",
    )
    parser.add_argument("--version", action="version", version=f"teamscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )

    p = add("synth", "generate a synthetic corpus")
    _common(p)
    p.add_argument("--teams", type=int, default=150, help="number of teams")
    p.add_argument("--noise", type=float, default=0.1, help="message perturbation rate")
    p.add_argument("--mix", default="0.57,0.29,0.14", help="collaborative,cooperative,solo")
    p.add_argument("--commits", default="35,75", help="per-team commit count range LO,HI")
    p.add_argument("--pair-rate", type=float, default=0.05, help="pair-programming mention rate")
    p.set_defaults(func=cmd_synth)

    p = add("ingest", "normalize a git log or jsonl export into a dataset")
    _common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gitlog", help="output of the fixed git log export command")
    src.add_argument("--jsonl", help="commit interchange file")
    p.add_argument("--roster", required=True, help="roster CSV path")
    p.set_defaults(func=cmd_ingest)

    p = add("train-commits", "train the commit classification cascade")
    _common(p)
    p.add_argument("--tagged", required=True, help="CSV of message,category")
    p.add_argument("--english-words", help="override the bundled English word list")
    p.add_argument("--domain-words", help="override the bundled domain word list")
    p.add_argument("--stopwords", help="override the bundled stopword list")
    p.set_defaults(func=cmd_train_commits)

    p = add("eval-commits", "cross-validate the cascade on tagged messages")
    _common(p)
    p.add_argument("--tagged", required=True, help="CSV of message,category")
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    p.set_defaults(func=cmd_eval_commits)

    p = add("label-commits", "label a dataset's commits with a trained cascade")
    _common(p)
    p.add_argument("--model", required=True, help="cascade model file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_label_commits)

    p = add("features", "compute the per-team feature matrix")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_features)

    p = add("train-teams", "train the team-style classifier cascade")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--algorithm", choices=["forest", "logistic_rfe"], default="forest")
    p.add_argument("--k-features", type=int, default=None, help="features per stage (12 forest / 26 logistic)")
    p.add_argument("--styles", help="CSV team_id,style (default: rubric oracle labels)")
    p.set_defaults(func=cmd_train_teams)

    p = add("eval-teams", "cross-validate team-style prediction")
    _common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--algorithm", choices=["forest", "logistic_rfe"], default="forest")
    p.add_argument("--k-features", type=int, default=None, help="features per stage (12 forest / 26 logistic)")
    p.add_argument("--styles", help="CSV team_id,style (default: rubric oracle labels)")
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    p.set_defaults(func=cmd_eval_teams)

    p = add("predict", "predict styles for a dataset's teams")
    _common(p)
    p.add_argument("--model", required=True, help="team-style model file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_predict)

    p = add("flag", "report teams predicted solo-submit")
    _common(p)
    p.add_argument("--model", required=True, help="team-style model file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_flag)

    p = add("kappa", "Cohen's kappa between two label CSVs")
    _common(p)
    p.add_argument("--a", required=True, help="first labeling (id,label CSV)")
    p.add_argument("--b", required=True, help="second labeling (id,label CSV)")
    p.set_defaults(func=cmd_kappa)

    p = add("registry", "dump the feature registry")
    _common(p)
    p.set_defaults(func=cmd_registry)

    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.add_argument(
        "--config",
        help="JSON (or TOML on 3.11+) file of option values; wins over matching flags",
    )
    p.add_argument("--format", choices=["csv", "json"], default="json", help="report file format")
    p.add_argument("--out", help="output directory (defaults per command)")


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    if not args.config:
        return args
    path = Path(args.config)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:
            raise DataError("TOML config requires Python 3.11+; use JSON instead")
        overrides = tomllib.loads(text)
    else:
        overrides = json.loads(text)
    if not isinstance(overrides, dict):
        raise DataError(f"{path}: config must be a mapping")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise DataError(f"{path}: unknown option {key!r}")
        setattr(args, attr, value)
    return args


# ---------------------------------------------------------------------------
# manifest and small shared I/O helpers


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, command: str, config: dict, inputs: dict, outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": {name: _sha256(Path(p)) for name, p in sorted(inputs.items())},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    path = outdir / f"manifest_{command}.json"
    path.write_text(canonical_json(manifest) + "\n", encoding="utf-8")


def _outdir(args, default: str | None = None) -> Path:
    out = Path(args.out) if args.out else Path(default) if default else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_tagged(path) -> list[tuple[str, CommitCategory]]:
    tagged = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != {"message", "category"}:
            raise DataError(f"{path}: expected header message,category")
        for line_no, row in enumerate(reader, start=2):
            try:
                category = CommitCategory(row["category"])
            except ValueError:
                raise DataError(
                    f"{path} line {line_no}: unknown category {row['category']!r}"
                ) from None
            tagged.append((row["message"], category))
    if not tagged:
        raise DataError(f"{path}: no tagged messages")
    return tagged


def _read_labels(path) -> dict[str, tuple[CommitCategory, bool]]:
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                labels[raw["sha"]] = (
                    CommitCategory(raw["category"]),
                    bool(raw["pair_programming"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                # json.JSONDecodeError is a ValueError
                raise DataError(f"{path} line {line_no}: {exc}") from None
    return labels


def _read_styles_csv(path) -> dict[str, TeamStyle]:
    styles = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or list(reader.fieldnames) != ["team_id", "style"]:
            raise DataError(f"{path}: expected header team_id,style")
        for line_no, row in enumerate(reader, start=2):
            try:
                styles[row["team_id"]] = TeamStyle(row["style"])
            except ValueError:
                raise DataError(
                    f"{path} line {line_no}: unknown style {row['style']!r}"
                ) from None
    return styles


def _load_labeled_dataset(data_dir) -> list[tuple]:
    """Teams with their labeled commits from a dataset directory."""
    data = Path(data_dir)
    commits = load_commits_jsonl(data / "commits.jsonl")
    roster = load_roster(data / "roster.csv")
    labels = _read_labels(data / "labels.jsonl")
    assembly = build_teams(commits, roster)
    labeled_teams = []
    for team in assembly.teams:
        labeled = []
        for commit in team.commits:
            if commit.sha not in labels:
                raise DataError(f"commit {commit.sha} has no label in labels.jsonl")
            category, pair = labels[commit.sha]
            labeled.append(
                commitcls.LabeledCommit(commit=commit, category=category, pair_programming=pair)
            )
        labeled_teams.append((team, labeled))
    return labeled_teams


def _team_styles(labeled_teams, styles_path) -> list[TeamStyle]:
    if styles_path:
        styles = _read_styles_csv(styles_path)
        missing = [t.team_id for t, _ in labeled_teams if t.team_id not in styles]
        if missing:
            raise DataError(f"styles file lacks entries for teams: {missing[:5]}")
        return [styles[t.team_id] for t, _ in labeled_teams]
    return [teamstyle.oracle_label(team, labeled) for team, labeled in labeled_teams]


def _report_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    _apply_config(args)
    mix = tuple(float(x) for x in str(args.mix).split(","))
    if len(mix) != 3:
        raise DataError(f"--mix needs three comma-separated numbers, got {args.mix!r}")
    lo, hi = (int(x) for x in str(args.commits).split(","))
    try:
        config = synthgen.GenConfig(
            seed=args.seed,
            n_teams=args.teams,
            style_mix=mix,
            commits_per_team=(lo, hi),
            noise_rate=args.noise,
            pair_rate=args.pair_rate,
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None
    outdir = _outdir(args, "synth_corpus")
    teams, truth = synthgen.generate_corpus(config)
    synthgen.write_corpus(teams, truth, outdir)
    outputs = [outdir / n for n in ("commits.jsonl", "roster.csv", "truth_commits.csv", "truth_teams.csv")]
    _write_manifest(
        outdir,
        "synth",
        {
            "seed": args.seed,
            "teams": args.teams,
            "noise": args.noise,
            "mix": list(mix),
            "commits": [lo, hi],
            "pair_rate": args.pair_rate,
        },
        {},
        outputs,
    )
    n_commits = sum(len(t.commits) for t in teams)
    print(f"wrote {len(teams)} teams / {n_commits} commits to {outdir}")
    return 0


def cmd_ingest(args) -> int:
    _apply_config(args)
    outdir = _outdir(args, "dataset")
    if args.gitlog:
        commits = parse_git_log_file(args.gitlog)
        source = {"gitlog": args.gitlog}
    else:
        commits = load_commits_jsonl(args.jsonl)
        source = {"jsonl": args.jsonl}
    roster = load_roster(args.roster)
    assembly = build_teams(commits, roster)

    dump_commits_jsonl(commits, outdir / "commits.jsonl")
    dump_roster(roster, outdir / "roster.csv")
    _write_manifest(
        outdir,
        "ingest",
        {"seed": args.seed, "unmatched": assembly.unmatched},
        {**source, "roster": args.roster},
        [outdir / "commits.jsonl", outdir / "roster.csv"],
    )
    print(
        f"normalized {len(commits)} commits across {len(roster)} teams "
        f"({assembly.unmatched} unmatched authors) into {outdir}"
    )
    return 0


def cmd_train_commits(args) -> int:
    _apply_config(args)
    tagged = _read_tagged(args.tagged)
    outdir = _outdir(args, "models")
    lexicon = None
    if args.english_words or args.domain_words or args.stopwords:
        from .textnorm import load_lexicon

        lexicon = load_lexicon(args.english_words, args.domain_words, args.stopwords)
    cascade = commitcls.train_cascade(tagged, CascadeConfig(), lexicon=lexicon)
    model_path = outdir / "cascade.json"
    save_model(model_path, "cascade", cascade.to_dict())
    inputs = {"tagged": args.tagged}
    for name in ("english_words", "domain_words", "stopwords"):
        if getattr(args, name):
            inputs[name] = getattr(args, name)
    _write_manifest(
        outdir,
        "train-commits",
        {"seed": args.seed, "messages": len(tagged)},
        inputs,
        [model_path],
    )
    print(f"trained cascade on {len(tagged)} messages -> {model_path}")
    return 0


_CASCADE_REPORT_ORDER = [
    "Merge",
    "Style",
    "Documentation",
    commitcls.OTHER_STATIC,
    "Implementation",
    "Bugfix",
    "Test",
    commitcls.OTHER_RESIDUAL,
]


def cmd_eval_commits(args) -> int:
    _apply_config(args)
    tagged = _read_tagged(args.tagged)
    reports = commitcls.evaluate_cascade(tagged, k=args.folds, seed=args.seed)
    rows = [
        [key]
        + [f"{getattr(reports[key], m):.2f}" for m in ("f1", "precision", "recall")]
        + [str(reports[key].support)]
        for key in _CASCADE_REPORT_ORDER
        if key in reports
    ]
    print(_report_table(["category", "F1", "precision", "recall", "support"], rows))

    outdir = _outdir(args, "reports")
    report_path = outdir / f"commit_eval.{args.format}"
    if args.format == "json":
        payload = {key: reports[key].to_dict() for key in reports}
        report_path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
    else:
        with open(report_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["category", "f1", "precision", "recall", "support"])
            for key in _CASCADE_REPORT_ORDER:
                if key in reports:
                    r = reports[key]
                    writer.writerow([key, repr(r.f1), repr(r.precision), repr(r.recall), r.support])
    _write_manifest(
        outdir,
        "eval-commits",
        {"seed": args.seed, "folds": args.folds, "format": args.format},
        {"tagged": args.tagged},
        [report_path],
    )
    return 0


def cmd_label_commits(args) -> int:
    _apply_config(args)
    data = Path(args.data)
    outdir = _outdir(args, str(data))
    cascade = CascadeModel.from_dict(load_model(args.model, "cascade"))
    commits = load_commits_jsonl(data / "commits.jsonl")
    labeled = commitcls.label_commits(cascade, commits)

    labels_path = outdir / "labels.jsonl"
    with open(labels_path, "w", encoding="utf-8") as fh:
        for item in labeled:
            fh.write(
                json.dumps(
                    {
                        "sha": item.commit.sha,
                        "category": item.category.value,
                        "pair_programming": item.pair_programming,
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")

    distribution = commitcls.category_distribution(labeled)
    rows = [[name, str(count), f"{ratio:.2f}"] for name, (count, ratio) in distribution.items()]
    print(_report_table(["category", "count", "ratio"], rows))
    _write_manifest(
        outdir,
        "label-commits",
        {"seed": args.seed},
        {"model": args.model, "commits": str(data / "commits.jsonl")},
        [labels_path],
    )
    return 0


def cmd_features(args) -> int:
    _apply_config(args)
    data = Path(args.data)
    outdir = _outdir(args, str(data))
    labeled_teams = _load_labeled_dataset(data)
    build = teamfeat.build_matrix(labeled_teams)

    features_path = outdir / "features.csv"
    with open(features_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["team_id"] + build.registry)
        for team_id, row in zip(build.team_ids, build.raw):
            writer.writerow([team_id] + [repr(float(v)) for v in row])
    registry_path = outdir / "registry.json"
    registry_path.write_text(
        canonical_json({"version": teamfeat.REGISTRY_VERSION, "names": build.registry}) + "\n",
        encoding="utf-8",
    )
    _write_manifest(
        outdir,
        "features",
        {"seed": args.seed, "teams": len(build.team_ids), "columns": len(build.registry)},
        {
            "commits": str(data / "commits.jsonl"),
            "roster": str(data / "roster.csv"),
            "labels": str(data / "labels.jsonl"),
        },
        [features_path, registry_path],
    )
    print(f"wrote {len(build.team_ids)}x{len(build.registry)} feature matrix to {features_path}")
    return 0


def cmd_train_teams(args) -> int:
    _apply_config(args)
    data = Path(args.data)
    labeled_teams = _load_labeled_dataset(data)
    styles = _team_styles(labeled_teams, args.styles)
    build = teamfeat.build_matrix(labeled_teams)
    model = teamstyle.train_team_model(
        build.raw, styles, algorithm=args.algorithm, k_features=args.k_features, seed=args.seed
    )
    outdir = _outdir(args, str(data / "models"))
    model_path = outdir / f"teams_{args.algorithm}.json"
    save_model(model_path, "teamstyle", model.to_dict())
    inputs = {
        "commits": str(data / "commits.jsonl"),
        "roster": str(data / "roster.csv"),
        "labels": str(data / "labels.jsonl"),
    }
    if args.styles:
        inputs["styles"] = args.styles
    _write_manifest(
        outdir,
        "train-teams",
        {"seed": args.seed, "algorithm": args.algorithm, "k_features": args.k_features},
        inputs,
        [model_path],
    )
    print(f"trained {args.algorithm} team-style model -> {model_path}")
    return 0


def cmd_eval_teams(args) -> int:
    _apply_config(args)
    data = Path(args.data)
    labeled_teams = _load_labeled_dataset(data)
    styles = _team_styles(labeled_teams, args.styles)
    build = teamfeat.build_matrix(labeled_teams)
    result = teamstyle.evaluate_team_model(
        build.raw,
        styles,
        algorithm=args.algorithm,
        k=args.folds,
        seed=args.seed,
        k_features=args.k_features,
        registry=build.registry,
    )
    order = [s.value for s in teamstyle.STYLES]
    rows = [
        [name]
        + [f"{getattr(result.reports[name], m):.2f}" for m in ("f1", "precision", "recall")]
        + [str(result.reports[name].support)]
        for name in order
    ]
    print(_report_table(["style", "F1", "precision", "recall", "support"], rows))
    print(f"macro-F1 {result.macro_f1:.3f} ({result.algorithm})")

    outdir = _outdir(args, "reports")
    report_path = outdir / f"team_eval_{args.algorithm}.{args.format}"
    if args.format == "json":
        payload = {
            "algorithm": result.algorithm,
            "macro_f1": result.macro_f1,
            "styles": {k: v.to_dict() for k, v in result.reports.items()},
            "selected_features": result.selected_features,
        }
        report_path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
    else:
        with open(report_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["style", "f1", "precision", "recall", "support"])
            for name in order:
                r = result.reports[name]
                writer.writerow([name, repr(r.f1), repr(r.precision), repr(r.recall), r.support])
    inputs = {
        "commits": str(data / "commits.jsonl"),
        "roster": str(data / "roster.csv"),
        "labels": str(data / "labels.jsonl"),
    }
    if args.styles:
        inputs["styles"] = args.styles
    _write_manifest(
        outdir,
        "eval-teams",
        {
            "seed": args.seed,
            "algorithm": args.algorithm,
            "folds": args.folds,
            "k_features": args.k_features,
            "format": args.format,
        },
        inputs,
        [report_path],
    )
    return 0


def cmd_predict(args) -> int:
    _apply_config(args)
    data = Path(args.data)
    labeled_teams = _load_labeled_dataset(data)
    build = teamfeat.build_matrix(labeled_teams)
    model = teamstyle.TeamStyleModel.from_dict(load_model(args.model, "teamstyle"))
    predictions = teamstyle.predict_style_with_confidence(model, build.raw)
    outdir = _outdir(args, str(data))
    predictions_path = outdir / "predictions.csv"
    with open(predictions_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["team_id", "style", "confidence"])
        for team_id, (style, confidence) in zip(build.team_ids, predictions):
            writer.writerow([team_id, style.value, repr(confidence)])
    _write_manifest(
        outdir,
        "predict",
        {"seed": args.seed},
        {"model": args.model, "commits": str(data / "commits.jsonl")},
        [predictions_path],
    )
    print(f"wrote predictions for {len(build.team_ids)} teams to {predictions_path}")
    return 0


def cmd_flag(args) -> int:
    _apply_config(args)
    data = Path(args.data)
    labeled_teams = _load_labeled_dataset(data)
    model = teamstyle.TeamStyleModel.from_dict(load_model(args.model, "teamstyle"))
    vectors = [teamfeat.extract_features(team, labeled) for team, labeled in labeled_teams]
    flags = teamstyle.flag_solo_submitters(model, vectors)
    outdir = _outdir(args, str(data))
    flags_path = outdir / "flags.json"
    payload = [
        {
            "team_id": f.team_id,
            "style": f.style.value,
            "confidence": f.confidence,
            "features": [{"name": n, "value": v} for n, v in f.features],
        }
        for f in flags
    ]
    flags_path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
    _write_manifest(
        outdir,
        "flag",
        {"seed": args.seed},
        {"model": args.model, "commits": str(data / "commits.jsonl")},
        [flags_path],
    )
    print(f"flagged {len(flags)} team(s) as solo-submit -> {flags_path}")
    return 0


def _read_label_csv(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or len(rows[0]) != 2:
        raise DataError(f"{path}: expected two columns (id,label)")
    return {row[0]: row[1] for row in rows[1:] if row}


def cmd_kappa(args) -> int:
    _apply_config(args)
    a = _read_label_csv(args.a)
    b = _read_label_csv(args.b)
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))[:3]
        only_b = sorted(set(b) - set(a))[:3]
        raise DataError(f"label files cover different ids (e.g. {only_a} vs {only_b})")
    ids = sorted(a)
    value = cohens_kappa([a[i] for i in ids], [b[i] for i in ids])
    print(f"{value:.4f}")
    return 0


def cmd_registry(args) -> int:
    _apply_config(args)
    payload = {"version": teamfeat.REGISTRY_VERSION, "names": teamfeat.REGISTRY}
    if args.out:
        outdir = _outdir(args)
        path = outdir / "registry.json"
        path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
        _write_manifest(outdir, "registry", {"seed": args.seed}, {}, [path])
        print(f"wrote {len(teamfeat.REGISTRY)} feature names to {path}")
    else:
        print(canonical_json(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
