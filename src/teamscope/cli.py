"""Command-line surface: ingest -> label -> features -> train -> evaluate.

Datasets are directories with conventional file names (``commits.jsonl``,
``roster.csv``, ``labels.jsonl``, ``features.csv``, ``models/``) so stages
stay decoupled. Every command writes a ``manifest_<command>.json`` beside
its outputs recording the effective configuration, seed, and content
digests of inputs and outputs; reruns with identical inputs and seed
produce byte-identical files. Exit codes: 0 success, 1 usage error, 2 data
error, 3 internal error.

``main`` is the one driver: it parses the command line, applies
``--config``, creates the output directory and writes the manifest. A
``cmd_*`` function computes and writes its own files, then returns its
manifest's command-specific config, inputs and outputs (or ``None`` when it
writes nothing).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, commitcls, synthgen, teamfeat, teamstyle
from .commitcls import CascadeModel, CommitCategory
from .errors import DataError, SchemaError, open_text
from .ingest import (
    dump_commits_jsonl,
    dump_roster,
    load_commit_table,
    load_commits_jsonl,
    load_roster,
    locate_authors,
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
        _apply_config(args)
        outdir = _outdir(args)
        manifest = args.func(args, outdir)
        if manifest is not None:
            _write_manifest(outdir, args, *manifest)
        return 0
    except (DataError, OSError) as exc:
        # bad content and unreadable/missing inputs are both data problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Append "(default: X)" to an option's help unless its default is None."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamscope",
        description="Mine git histories: classify commits, predict team work styles.",
    )
    parser.add_argument("--version", action="version", version=f"teamscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument(
        "--config",
        help="JSON (or TOML on 3.11+) file of option values; wins over matching flags",
    )
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--data", required=True, help="dataset directory")
    tagged = argparse.ArgumentParser(add_help=False)
    tagged.add_argument("--tagged", required=True, help="CSV of message,category")
    evaluation = argparse.ArgumentParser(add_help=False)
    evaluation.add_argument("--folds", type=_int_at_least(2), default=5, help="cross-validation folds")
    evaluation.add_argument("--format", choices=["csv", "json"], default="json", help="report file format")
    style_model = argparse.ArgumentParser(add_help=False)
    style_model.add_argument("--algorithm", choices=["forest", "logistic_rfe"], default="forest")
    style_model.add_argument(
        "--k-features",
        type=_int_at_least(1),
        default=None,
        help="features per stage (12 forest / 26 logistic)",
    )
    style_model.add_argument("--styles", help="CSV team_id,style (default: rubric oracle labels)")

    def add(name, help_text, func, *parents, out=None):
        """A subcommand; ``out`` is its default output directory, where "{data}" stands for --data."""
        p = sub.add_parser(
            name,
            help=help_text,
            parents=[common, *parents],
            formatter_class=_HelpFormatter,
        )
        if out is not None:
            shown = out.replace("{data}", "DATA")
            p.add_argument("--out", help=f"output directory (default: {shown})")
        p.set_defaults(func=func, default_out=out, subparser=p)
        return p

    p = add("synth", "generate a synthetic corpus", cmd_synth, out="synth_corpus")
    p.add_argument("--teams", type=int, default=150, help="number of teams")
    p.add_argument("--noise", type=float, default=0.1, help="message perturbation rate")
    p.add_argument("--mix", default="0.57,0.29,0.14", help="collaborative,cooperative,solo")
    p.add_argument("--commits", default="35,75", help="per-team commit count range LO,HI")
    p.add_argument("--pair-rate", type=float, default=0.05, help="pair-programming mention rate")

    p = add("ingest", "normalize a git log or jsonl export into a dataset", cmd_ingest, out="dataset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gitlog", help="output of the fixed git log export command")
    src.add_argument("--jsonl", help="commit interchange file")
    p.add_argument("--roster", required=True, help="roster CSV path")

    p = add("train-commits", "train the commit classification cascade", cmd_train_commits,
            tagged, out="models")
    p.add_argument("--english-words", help="override the bundled English word list")
    p.add_argument("--domain-words", help="override the bundled domain word list")
    p.add_argument("--stopwords", help="override the bundled stopword list")

    add("eval-commits", "cross-validate the cascade on tagged messages", cmd_eval_commits,
        tagged, evaluation, out="reports")

    p = add("label-commits", "label a dataset's commits with a trained cascade", cmd_label_commits,
            dataset, out="{data}")
    p.add_argument("--model", required=True, help="cascade model file")

    add("features", "compute the per-team feature matrix", cmd_features, dataset, out="{data}")
    add("train-teams", "train the team-style classifier cascade", cmd_train_teams,
        dataset, style_model, out="{data}/models")
    add("eval-teams", "cross-validate team-style prediction", cmd_eval_teams,
        dataset, style_model, evaluation, out="reports")

    p = add("predict", "predict styles for a dataset's teams", cmd_predict,
            dataset, out="{data}")
    p.add_argument("--model", required=True, help="team-style model file")

    p = add("flag", "report teams predicted solo-submit", cmd_flag,
            dataset, out="{data}")
    p.add_argument("--model", required=True, help="team-style model file")

    p = add("kappa", "Cohen's kappa between two label CSVs", cmd_kappa)
    p.add_argument("--a", required=True, help="first labeling (id,label CSV)")
    p.add_argument("--b", required=True, help="second labeling (id,label CSV)")

    p = add("registry", "dump the feature registry", cmd_registry)
    p.add_argument("--out", help="write registry.json and a manifest here instead of printing")

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Override options from ``--config``; each value must be one its flag would give."""
    if not args.config:
        return
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".toml":
            try:
                import tomllib
            except ModuleNotFoundError:
                raise DataError("TOML config requires Python 3.11+; use JSON instead")
            overrides = tomllib.loads(text)
        else:
            overrides = json.loads(text)
    except ValueError as exc:
        # undecodable text, JSON and TOML syntax errors
        raise DataError(f"{path}: {exc}") from None
    if not isinstance(overrides, dict):
        raise DataError(f"{path}: config must be a mapping")
    actions = {a.dest: a for a in args.subparser._actions if a.dest not in ("help", "config")}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise DataError(f"{path}: unknown option {key!r}")
        # the flag's own type and choices must read the value's spelling back as the value
        try:
            valid = (action.type or str)(str(value)) == value
        except (ValueError, argparse.ArgumentTypeError):
            valid = False
        if not valid or (action.choices is not None and value not in action.choices):
            raise DataError(f"{path}: invalid value {value!r} for option {key!r}")
        setattr(args, action.dest, value)


# ---------------------------------------------------------------------------
# manifest and small shared I/O helpers


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outdir(args) -> Path | None:
    """The command's output directory, created; ``None`` when it has none."""
    out = getattr(args, "out", None)
    if out is None:
        if args.default_out is None:
            return None
        out = args.default_out.format(data=getattr(args, "data", None))
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_manifest(outdir: Path, args, config: dict, inputs: dict, outputs: list[Path]) -> None:
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {"seed": args.seed, **config},
        "inputs": {name: _sha256(Path(p)) for name, p in sorted(inputs.items())},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    path = outdir / f"manifest_{args.command}.json"
    path.write_text(canonical_json(manifest) + "\n", encoding="utf-8")


def _write_report(outdir: Path, stem: str, fmt: str, payload, label: str, reports) -> Path:
    """Print a per-class score table, then save it as ``stem.csv`` or ``payload`` as ``stem.json``.

    ``reports`` is the table's (name, EvalReport) rows in order.
    """
    rows = [
        [name] + [f"{getattr(r, m):.2f}" for m in ("f1", "precision", "recall")] + [str(r.support)]
        for name, r in reports
    ]
    print(_report_table([label, "F1", "precision", "recall", "support"], rows))
    path = outdir / f"{stem}.{fmt}"
    if fmt == "json":
        path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([label, "f1", "precision", "recall", "support"])
            for name, r in reports:
                writer.writerow([name, repr(r.f1), repr(r.precision), repr(r.recall), r.support])
    return path


def _read_model(path, kind: str, model_cls):
    """The ``kind`` model in a model file, as ``model_cls``; a payload that lacks
    a key or holds a value of the wrong type is a SchemaError naming the file."""
    payload = load_model(path, kind)
    try:
        return model_cls.from_dict(payload)
    except KeyError as exc:
        raise SchemaError(f"{path}: the model has no key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model ({exc})") from None


def _read_enum_csv(path, key: str, column: str, enum) -> list[tuple]:
    """(key, enum value) per row of a CSV with the two columns ``key`` and ``column``."""
    rows = []
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != {key, column}:
            raise DataError(f"{path}: expected header {key},{column}")
        for line_no, row in enumerate(reader, start=2):
            try:
                rows.append((row[key], enum(row[column])))
            except ValueError:
                raise DataError(
                    f"{path} line {line_no}: unknown {column} {row[column]!r}"
                ) from None
    return rows


def _read_tagged(path) -> list[tuple[str, CommitCategory]]:
    tagged = _read_enum_csv(path, "message", "category", CommitCategory)
    if not tagged:
        raise DataError(f"{path}: no tagged messages")
    return tagged


def _read_labels(path) -> dict[str, tuple[int, bool]]:
    """Each labelled sha's (scope code, pair-programming flag)."""
    labels = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                scope = teamfeat.SCOPE_CODE[CommitCategory(raw["category"])]
                pair, sha = raw["pair_programming"], raw["sha"]
                duplicate = sha in labels
            except (KeyError, TypeError, ValueError) as exc:
                # json.JSONDecodeError is a ValueError
                raise DataError(f"{path} line {line_no}: {exc}") from None
            if type(pair) is not bool:
                raise DataError(
                    f"{path} line {line_no}: pair_programming must be true or false, got {pair!r}"
                )
            if duplicate:
                raise DataError(f"{path} line {line_no}: duplicate sha {sha}")
            labels[sha] = (scope, pair)
    return labels


def _load_dataset(data_dir):
    """The dataset's feature matrix and the dataset files read, by manifest name.

    Each file is read once: the commits into a column table, whose authors
    locate each commit's team row and member slot, and the labels joined to
    the commits on a team by sha.
    """
    data = Path(data_dir)
    inputs = {
        "commits": data / "commits.jsonl",
        "roster": data / "roster.csv",
        "labels": data / "labels.jsonl",
    }
    table = load_commit_table(inputs["commits"])
    roster = load_roster(inputs["roster"])
    labels = _read_labels(inputs["labels"])
    team_row, slot = locate_authors(table.author, roster)
    on_team = np.flatnonzero(team_row >= 0)
    joined = [labels.get(table.sha[i]) for i in on_team.tolist()]
    if None in joined:
        # name the first unlabelled commit in roster order, then file order
        missing = [i for i, label in zip(on_team.tolist(), joined) if label is None]
        first = min(missing, key=lambda i: (team_row[i], i))
        raise DataError(f"commit {table.sha[first]} has no label in labels.jsonl")
    scope, pair = np.array(joined, dtype=np.int64).reshape(-1, 2).T
    build = teamfeat.matrix_from_columns(
        roster,
        team_row[on_team],
        slot[on_team],
        scope,
        pair,
        table.additions[on_team],
        table.deletions[on_team],
        table.files[on_team],
        table.msg_len[on_team],
    )
    return build, inputs


def _load_styled_dataset(args):
    """The feature matrix, each team's style (``--styles`` or the rubric oracle), and the inputs read."""
    build, inputs = _load_dataset(args.data)
    if not args.styles:
        return build, teamstyle.oracle_labels(build), inputs
    styles = dict(_read_enum_csv(args.styles, "team_id", "style", TeamStyle))
    missing = [t for t in build.team_ids if t not in styles]
    if missing:
        raise DataError(f"styles file lacks entries for teams: {missing[:5]}")
    return build, [styles[t] for t in build.team_ids], {**inputs, "styles": args.styles}


def _report_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _numbers(option: str, text, convert, count: int) -> list:
    """Exactly ``count`` comma-separated numbers from an option value."""
    try:
        values = [convert(x) for x in str(text).split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise DataError(f"{option} needs {count} comma-separated numbers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, outdir):
    mix = tuple(_numbers("--mix", args.mix, float, 3))
    lo, hi = _numbers("--commits", args.commits, int, 2)
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
    teams, truth = synthgen.generate_corpus(config)
    synthgen.write_corpus(teams, truth, outdir)
    n_commits = sum(len(t.commits) for t in teams)
    print(f"wrote {len(teams)} teams / {n_commits} commits to {outdir}")
    return (
        {
            "teams": args.teams,
            "noise": args.noise,
            "mix": list(mix),
            "commits": [lo, hi],
            "pair_rate": args.pair_rate,
        },
        {},
        [outdir / n for n in ("commits.jsonl", "roster.csv", "truth_commits.csv", "truth_teams.csv")],
    )


def cmd_ingest(args, outdir):
    if args.gitlog:
        commits = parse_git_log_file(args.gitlog)
        source = {"gitlog": args.gitlog}
    else:
        commits = load_commits_jsonl(args.jsonl)
        source = {"jsonl": args.jsonl}
    roster = load_roster(args.roster)
    team_row, _ = locate_authors([c.author_key for c in commits], roster)
    unmatched = int((team_row < 0).sum())

    dump_commits_jsonl(commits, outdir / "commits.jsonl")
    dump_roster(roster, outdir / "roster.csv")
    print(
        f"normalized {len(commits)} commits across {len(roster)} teams "
        f"({unmatched} unmatched authors) into {outdir}"
    )
    return (
        {"unmatched": unmatched},
        {**source, "roster": args.roster},
        [outdir / "commits.jsonl", outdir / "roster.csv"],
    )


def cmd_train_commits(args, outdir):
    tagged = _read_tagged(args.tagged)
    lexicon = None
    if args.english_words or args.domain_words or args.stopwords:
        from .textnorm import load_lexicon

        lexicon = load_lexicon(args.english_words, args.domain_words, args.stopwords)
    cascade = commitcls.train_cascade(tagged, lexicon=lexicon)
    model_path = outdir / "cascade.json"
    save_model(model_path, "cascade", cascade.to_dict())
    inputs = {"tagged": args.tagged}
    for name in ("english_words", "domain_words", "stopwords"):
        if getattr(args, name):
            inputs[name] = getattr(args, name)
    print(f"trained cascade on {len(tagged)} messages -> {model_path}")
    return {"messages": len(tagged)}, inputs, [model_path]


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


def cmd_eval_commits(args, outdir):
    tagged = _read_tagged(args.tagged)
    reports = commitcls.evaluate_cascade(tagged, k=args.folds, seed=args.seed)
    report_path = _write_report(
        outdir,
        "commit_eval",
        args.format,
        {key: reports[key].to_dict() for key in reports},
        "category",
        [(key, reports[key]) for key in _CASCADE_REPORT_ORDER if key in reports],
    )
    return {"folds": args.folds, "format": args.format}, {"tagged": args.tagged}, [report_path]


def cmd_label_commits(args, outdir):
    data = Path(args.data)
    cascade = _read_model(args.model, "cascade", CascadeModel)
    table = load_commit_table(data / "commits.jsonl")
    categories, pairs = commitcls.label_messages(cascade, table.msg)

    labels_path = outdir / "labels.jsonl"
    with open(labels_path, "w", encoding="utf-8") as fh:
        for sha, category, pair in zip(table.sha, categories, pairs):
            fh.write(
                json.dumps(
                    {"sha": sha, "category": category.value, "pair_programming": pair},
                    sort_keys=True,
                )
            )
            fh.write("\n")

    distribution = commitcls.category_distribution(categories)
    rows = [[name, str(count), f"{ratio:.2f}"] for name, (count, ratio) in distribution.items()]
    print(_report_table(["category", "count", "ratio"], rows))
    return {}, {"model": args.model, "commits": data / "commits.jsonl"}, [labels_path]


def cmd_features(args, outdir):
    build, inputs = _load_dataset(args.data)
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
    print(f"wrote {len(build.team_ids)}x{len(build.registry)} feature matrix to {features_path}")
    return (
        {"teams": len(build.team_ids), "columns": len(build.registry)},
        inputs,
        [features_path, registry_path],
    )


def cmd_train_teams(args, outdir):
    build, styles, inputs = _load_styled_dataset(args)
    model = teamstyle.train_team_model(
        build.raw, styles, algorithm=args.algorithm, k_features=args.k_features, seed=args.seed
    )
    model_path = outdir / f"teams_{args.algorithm}.json"
    save_model(model_path, "teamstyle", model.to_dict())
    print(f"trained {args.algorithm} team-style model -> {model_path}")
    return {"algorithm": args.algorithm, "k_features": args.k_features}, inputs, [model_path]


def cmd_eval_teams(args, outdir):
    build, styles, inputs = _load_styled_dataset(args)
    result = teamstyle.evaluate_team_model(
        build.raw,
        styles,
        algorithm=args.algorithm,
        k=args.folds,
        seed=args.seed,
        k_features=args.k_features,
        registry=build.registry,
    )
    payload = {
        "algorithm": result.algorithm,
        "macro_f1": result.macro_f1,
        "styles": {k: v.to_dict() for k, v in result.reports.items()},
        "selected_features": result.selected_features,
    }
    report_path = _write_report(
        outdir,
        f"team_eval_{args.algorithm}",
        args.format,
        payload,
        "style",
        [(s.value, result.reports[s.value]) for s in teamstyle.STYLES],
    )
    print(f"macro-F1 {result.macro_f1:.3f} ({result.algorithm})")
    config = {
        "algorithm": args.algorithm,
        "folds": args.folds,
        "k_features": args.k_features,
        "format": args.format,
    }
    return config, inputs, [report_path]


def cmd_predict(args, outdir):
    build, inputs = _load_dataset(args.data)
    model = _read_model(args.model, "teamstyle", teamstyle.TeamStyleModel)
    predictions = teamstyle.predict_style_with_confidence(model, build.raw)
    predictions_path = outdir / "predictions.csv"
    with open(predictions_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["team_id", "style", "confidence"])
        for team_id, (style, confidence) in zip(build.team_ids, predictions):
            writer.writerow([team_id, style.value, repr(confidence)])
    print(f"wrote predictions for {len(build.team_ids)} teams to {predictions_path}")
    return {}, {"model": args.model, **inputs}, [predictions_path]


def cmd_flag(args, outdir):
    build, inputs = _load_dataset(args.data)
    model = _read_model(args.model, "teamstyle", teamstyle.TeamStyleModel)
    flags = teamstyle.flag_solo_submitters(model, build.raw, build.team_ids)
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
    print(f"flagged {len(flags)} team(s) as solo-submit -> {flags_path}")
    return {}, {"model": args.model, **inputs}, [flags_path]


def _read_label_csv(path) -> dict[str, str]:
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or len(rows[0]) != 2:
        raise DataError(f"{path}: expected two columns (id,label)")
    return {row[0]: row[1] for row in rows[1:] if row}


def cmd_kappa(args, outdir) -> None:
    a = _read_label_csv(args.a)
    b = _read_label_csv(args.b)
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))[:3]
        only_b = sorted(set(b) - set(a))[:3]
        raise DataError(f"label files cover different ids (e.g. {only_a} vs {only_b})")
    ids = sorted(a)
    value = cohens_kappa([a[i] for i in ids], [b[i] for i in ids])
    print(f"{value:.4f}")


def cmd_registry(args, outdir):
    payload = {"version": teamfeat.REGISTRY_VERSION, "names": teamfeat.REGISTRY}
    if outdir is None:
        print(canonical_json(payload))
        return None
    path = outdir / "registry.json"
    path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
    print(f"wrote {len(teamfeat.REGISTRY)} feature names to {path}")
    return {}, {}, [path]


if __name__ == "__main__":
    sys.exit(main())
