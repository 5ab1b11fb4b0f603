"""Command-line surface: ingest -> label -> features -> train -> evaluate.

Datasets are directories with conventional file names (``commits.jsonl``,
``roster.csv``, ``labels.jsonl``, ``features.csv``, ``models/``) so stages
stay decoupled. Every command writes a ``manifest_<command>.json`` beside
its outputs recording the effective configuration, the code that ran, and
content digests of inputs and outputs; a team-style run whose
``--algorithm`` is not forest writes ``manifest_<command>_<algorithm>.json``,
so the runs of two algorithms into one directory each keep their own.
Reruns with identical inputs and seed produce byte-identical files (model
files only under the same BLAS build and thread count). Exit codes: 0
success, 1 usage error, 2 data error, 3 internal error.

``main`` is the one driver and the one reader of a command's input files: it parses the
command line, applies ``--config``, reads and hashes each declared input file once,
creates the output directory, runs the command and writes the manifest, which so records
the bytes that were parsed. A ``cmd_*`` function is handed each input's path and bytes and
pops each one as it parses it, so the bytes go once parsed; it writes its own files with
``errors.write_output``, which hashes the bytes as it writes them, and returns what it computed
and the sha256 of each file it wrote by path (``None`` when it writes nothing): no output is read back.

The commands that read a dataset's feature matrix take the one that
``features`` wrote while ``manifest_features.json`` still records the
sha256 of the dataset files and of the files read (see
:func:`_recorded_matrix`); ``features`` itself always computes it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, commitcls, synthgen, teamfeat, teamstyle
from .commitcls import CascadeModel, CommitCategory
from .errors import (
    DataError, csv_lines, csv_rows, in_file, json_quote, jsonl_records, open_text, read_input, write_output
)
from .ingest import (
    dump_commit_rows,
    dump_roster,
    git_log_rows,
    jsonl_rows,
    load_commit_table,
    locate_authors,
    read_roster,
)
from .mlcore import canonical_json, cohens_kappa, load_model, save_model
from .teamstyle import TeamStyle
from .textnorm import load_lexicon


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems; we use 1 for usage
        return 0 if exc.code == 0 else 1
    try:
        with _warnings_as_lines():
            _apply_config(args)
            inputs = {name: (path, read_input(path)) for name, path in _inputs(args).items()}
            digests = {name: _digest(data) for name, (_, data) in inputs.items()}
            outdir = _outdir(args)
            manifest = args.func(args, outdir, digests, inputs)
            if manifest is not None:
                _write_manifest(outdir, args, digests, *manifest)
        return 0
    except (DataError, OSError) as exc:
        # bad content and unreadable/missing inputs are both data problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


@contextlib.contextmanager
def _warnings_as_lines():
    """Print each distinct warning raised inside once, as a ``warning:`` line on stderr, also on failure."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


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


# the dataset files a feature matrix is computed from, by manifest name
_DATASET_FILES = {"commits": "commits.jsonl", "roster": "roster.csv", "labels": "labels.jsonl"}
# the team-style algorithm whose runs write the plain manifest_<command>.json
_DEFAULT_ALGORITHM = "forest"


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
    style_model.add_argument("--algorithm", choices=list(teamstyle.STAGE_MODELS), default=_DEFAULT_ALGORITHM)
    style_model.add_argument(
        "--k-features",
        type=_int_at_least(1),
        default=None,
        help=f"features per stage ({teamstyle.FOREST_DEFAULT_K} forest / "
        f"{teamstyle.LOGISTIC_DEFAULT_K} logistic)",
    )
    style_model.add_argument("--styles", help="CSV team_id,style (default: rubric oracle labels)")

    def add(name, help_text, func, *parents, out=None, reads=()):
        """A subcommand; ``out`` is its default output directory, where "{data}" stands for
        --data, and ``reads`` names the files its manifest records (see :func:`_inputs`)."""
        p = sub.add_parser(
            name,
            help=help_text,
            parents=[common, *parents],
            formatter_class=_HelpFormatter,
        )
        if out is not None:
            shown = out.replace("{data}", "DATA")
            p.add_argument("--out", help=f"output directory (default: {shown})")
        p.set_defaults(func=func, default_out=out, reads=reads, subparser=p)
        return p

    p = add("synth", "generate a synthetic corpus", cmd_synth, out="synth_corpus")
    p.add_argument("--teams", type=_int_at_least(1), default=150, help="number of teams")
    p.add_argument("--noise", type=float, default=0.1, help="message perturbation rate")
    p.add_argument("--mix", default="0.57,0.29,0.14", help="collaborative,cooperative,solo")
    p.add_argument("--commits", default="35,75", help="per-team commit count range LO,HI")
    p.add_argument("--pair-rate", type=float, default=0.05, help="pair-programming mention rate")

    p = add("ingest", "normalize a git log or jsonl export into a dataset", cmd_ingest,
            out="dataset", reads=("gitlog", "jsonl", "roster"))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gitlog", help="output of the fixed git log export command")
    src.add_argument("--jsonl", help="commit interchange file")
    p.add_argument("--roster", required=True, help="roster CSV path")

    p = add("train-commits", "train the commit classification cascade", cmd_train_commits,
            tagged, out="models", reads=("tagged", "english_words", "domain_words", "stopwords"))
    p.add_argument("--english-words", help="override the bundled English word list")
    p.add_argument("--domain-words", help="override the bundled domain word list")
    p.add_argument("--stopwords", help="override the bundled stopword list")

    add("eval-commits", "cross-validate the cascade on tagged messages", cmd_eval_commits,
        tagged, evaluation, out="reports", reads=("tagged",))

    p = add("label-commits", "label a dataset's commits with a trained cascade", cmd_label_commits,
            dataset, out="{data}", reads=("model", "commits"))
    p.add_argument("--model", required=True, help="cascade model file")

    add("features", "compute the per-team feature matrix", cmd_features, dataset, out="{data}",
        reads=tuple(_DATASET_FILES))
    add("train-teams", "train the team-style classifier cascade", cmd_train_teams,
        dataset, style_model, out="{data}/models", reads=(*_DATASET_FILES, "styles"))
    add("eval-teams", "cross-validate team-style prediction", cmd_eval_teams,
        dataset, style_model, evaluation, out="reports", reads=(*_DATASET_FILES, "styles"))

    p = add("predict", "predict styles for a dataset's teams", cmd_predict,
            dataset, out="{data}", reads=("model", *_DATASET_FILES))
    p.add_argument("--model", required=True, help="team-style model file")

    p = add("flag", "report teams predicted solo-submit", cmd_flag,
            dataset, out="{data}", reads=("model", *_DATASET_FILES))
    p.add_argument("--model", required=True, help="team-style model file")

    p = add("kappa", "Cohen's kappa between two label CSVs", cmd_kappa, reads=("a", "b"))
    p.add_argument("--a", required=True, help="first labeling (id,label CSV)")
    p.add_argument("--b", required=True, help="second labeling (id,label CSV)")

    p = add("registry", "dump the feature registry", cmd_registry)
    p.add_argument("--out", help="write registry.json and a manifest here instead of printing")

    return parser


def _options(args) -> dict[str, argparse.Action]:
    """The subcommand's options by destination, but ``--help`` and ``--config``."""
    return {a.dest: a for a in args.subparser._actions if a.dest not in ("help", "config")}


def _apply_config(args: argparse.Namespace) -> None:
    """Override options from ``--config``; each value must be one its flag would give,
    or null for an optional flag whose default is None."""
    if not args.config:
        return
    path = Path(args.config)
    with open_text(path, read_input(path)) as fh:
        try:
            if path.suffix == ".toml":
                try:
                    import tomllib
                except ModuleNotFoundError:
                    raise DataError("TOML config requires Python 3.11+; use JSON instead")
                overrides = tomllib.loads(fh.read())
            else:
                overrides = json.load(fh)
        except ValueError as exc:
            # undecodable text, JSON and TOML syntax errors
            raise DataError(str(exc)) from None
        except RecursionError:
            raise DataError("nested too deeply") from None
        if not isinstance(overrides, dict):
            raise DataError("config must be a mapping")
        actions = _options(args)
        for key, value in overrides.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise DataError(f"unknown option {key!r}")
            if value is None and action.default is None and not action.required:
                setattr(args, action.dest, None)  # null, as a manifest records it, is the default
                continue
            # the flag's own type and choices must read the value's spelling back as the value;
            # what the flag reads is what is recorded, so 0 for a float option is 0.0
            try:
                converted = (action.type or str)(str(value))
                valid = converted == value
            except (ValueError, argparse.ArgumentTypeError):
                valid = False
            if not valid or (action.choices is not None and value not in action.choices):
                raise DataError(f"invalid value {value!r} for option {key!r}")
            setattr(args, action.dest, converted)
        for group in args.subparser._mutually_exclusive_groups:
            given = [a.option_strings[0] for a in group._group_actions if getattr(args, a.dest) != a.default]
            if len(given) > 1:
                raise DataError(f"options {' and '.join(given)} cannot be combined")
            if group.required and not given:
                options = " or ".join(a.option_strings[0] for a in group._group_actions)
                raise DataError(f"one of the options {options} is required")


# ---------------------------------------------------------------------------
# manifest and small shared I/O helpers


def _inputs(args) -> dict[str, Path]:
    """The files the command reads, by manifest name: each name in its ``reads`` is the
    file of the option of that name, skipped when not given, or else that dataset file."""
    return {
        name: Path(getattr(args, name)) if hasattr(args, name) else Path(args.data) / _DATASET_FILES[name]
        for name in args.reads
        if getattr(args, name, True)
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


@functools.cache
def _code_identity() -> str:
    """The sha256 of the package's ``.py`` and ``.txt`` files: each one's path
    under the package, as POSIX, and its bytes, both length-prefixed, in path order."""
    root = Path(__file__).parent
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.suffix in (".py", ".txt"))
    digest = hashlib.sha256()
    for name, path in files:
        for part in (name.encode("utf-8"), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


def _stamp(command: str, inputs: dict) -> dict:
    """What ran on what: the command, this teamscope's version and code, and ``inputs``,
    the sha256 of its input files by manifest name (``canonical_json`` sorts them)."""
    return {"command": command, "version": __version__, "code": _code_identity(), "inputs": inputs}


def _write_manifest(outdir: Path, args, inputs: dict, facts: dict, outputs: dict[Path, str]) -> None:
    """``inputs`` and ``outputs`` are the sha256 of the bytes the command parsed and wrote, by name and by path.
    The config is each option but the input files and directories, as its flag read it, then the ``facts``."""
    skipped = {*args.reads, "data", "out"}
    options = {dest: getattr(args, dest) for dest in _options(args) if dest not in skipped}
    manifest = {
        **_stamp(args.command, inputs),
        "config": {**options, **facts},
        "outputs": {p.name: digest for p, digest in sorted(outputs.items())},
    }
    algorithm = getattr(args, "algorithm", _DEFAULT_ALGORITHM)
    name = args.command if algorithm == _DEFAULT_ALGORITHM else f"{args.command}_{algorithm}"
    write_output(outdir / f"manifest_{name}.json", [canonical_json(manifest), "\n"])


def _write_report(outdir: Path, stem: str, fmt: str, payload, label: str, reports) -> dict[Path, str]:
    """Print a per-class score table, then save it as ``stem.csv`` or ``payload`` as ``stem.json`` (sha256 by path).

    ``reports`` is the table's (name, EvalReport) rows in order.
    """
    rows = [
        [name] + [f"{getattr(r, m):.2f}" for m in ("f1", "precision", "recall")] + [str(r.support)]
        for name, r in reports
    ]
    print(_report_table([label, "F1", "precision", "recall", "support"], rows))
    path = outdir / f"{stem}.{fmt}"
    if fmt == "json":
        return {path: write_output(path, [canonical_json(payload), "\n"])}
    table = ([name, repr(r.f1), repr(r.precision), repr(r.recall), r.support] for name, r in reports)
    return {path: write_output(path, csv_lines([label, "f1", "precision", "recall", "support"], table))}


def _read_model(path, data: bytes, kind: str, model_cls):
    """The ``kind`` model in the model file ``data`` read from ``path``, as
    ``model_cls``; ``from_dict``'s refusals are DataErrors, which name the file."""
    payload = load_model(path, data, kind)
    with in_file(path):
        return model_cls.from_dict(payload)


def _read_pairs(path, data: bytes, names=None, values=None, keyed=True) -> list[tuple]:
    """(key, value) per row of the CSV file of two columns ``data`` read from ``path``, in file order.

    The header must be ``names`` in either order, or any two names when None;
    the first name's column holds the key, and the other holds the value: its
    text, or with ``values`` the entry of that text there.
    There must be a row, every row must have exactly two fields, and in a
    ``keyed`` file a key may appear once.
    """
    pairs, seen = [], set()
    with open_text(path, data, newline="") as fh:
        rows = csv_rows(fh)
        line, header = next(rows, (None, []))
        if len(header) != 2 or (names is not None and set(header) != set(names)):
            expected = ",".join(names) if names else "of two columns (id,label)"
            raise DataError(f"expected header {expected}", line=line)
        key_name, value_name = names or header
        for line, row in rows:
            if len(row) != 2:
                raise DataError(f"expected 2 fields, got {len(row)}", line=line)
            key, text = row if header[0] == key_name else row[::-1]
            if keyed and key in seen:
                raise DataError(f"repeated {key_name} {key!r}", line=line)
            seen.add(key)
            value = text if values is None else values.get(text)
            if value is None:
                raise DataError(f"unknown {value_name} {text!r}", line=line)
            pairs.append((key, value))
        if not pairs:
            raise DataError("no rows below the header")
    return pairs


def _members(enum_cls) -> dict:
    """Each member of an enum by its value."""
    return {member.value: member for member in enum_cls}


def _read_tagged(path, data: bytes) -> list[tuple[str, CommitCategory]]:
    return _read_pairs(path, data, ("message", "category"), _members(CommitCategory), keyed=False)


# each category's name in labels.jsonl, to its scope code
_SCOPE_OF_NAME = {category.value: code for category, code in teamfeat.SCOPE_CODE.items()}


def _label_lines(shas, labels):
    """The ``labels.jsonl`` line of each sha and its (category name, pair flag),
    newline included: ``json.dumps`` of ``{"sha", "category",
    "pair_programming"}`` with sorted keys, byte for byte."""
    for sha, (category, pair) in zip(shas, labels):
        yield (
            f'{{"category": {json_quote(category)}, "pair_programming": {"true" if pair else "false"}, '
            f'"sha": {json_quote(sha)}}}\n'
        )


def _read_labels(path, data: bytes) -> dict[str, tuple[int, bool]]:
    """Each labelled sha's (scope code, pair-programming flag) in the labels file ``data`` read from ``path``."""
    labels = {}
    with open_text(path, data) as fh:
        for line, raw in jsonl_records(fh, ("sha", "category", "pair_programming")):
            sha, category, pair = raw["sha"], raw["category"], raw["pair_programming"]
            scope = _SCOPE_OF_NAME.get(category) if type(category) is str else None
            if scope is None:
                raise DataError(f"{category!r} is not a valid CommitCategory", line=line)
            if type(sha) is not str:
                raise DataError(f"sha must be a string, got {sha!r}", line=line)
            if type(pair) is not bool:
                raise DataError(f"pair_programming must be true or false, got {pair!r}", line=line)
            if sha in labels:
                raise DataError(f"duplicate sha {sha}", line=line)
            labels[sha] = (scope, pair)
    return labels


def _load_dataset(data_dir, digests: dict, inputs: dict):
    """The dataset's feature matrix: the one ``features`` recorded while it is still
    current against ``digests``, the sha256 of the inputs by manifest name
    (:func:`_recorded_matrix`), and on any miss the one computed from ``inputs``."""
    files = {name: inputs.pop(name) for name in _DATASET_FILES}
    matrix = _recorded_matrix(Path(data_dir), {name: digests[name] for name in _DATASET_FILES})
    return _compute_matrix(files) if matrix is None else matrix


def _recorded_matrix(data: Path, digests: dict) -> teamfeat.FeatureMatrix | None:
    """The matrix in ``data/features.csv`` while ``manifest_features.json`` vouches for it, else None.

    A verifying trace: the manifest must hold this code's :func:`_stamp` of
    ``features`` on ``digests`` (the dataset files' sha256 now) and its
    outputs the sha256 of the ``features.csv`` and ``registry.json`` bytes
    read here. ``registry.json`` must be this registry's, and the CSV, turned into floats a
    row at a time as it is decoded, a finite matrix under its columns. A missing, unreadable
    or malformed file is a miss like any other, and so is one that is not a regular file.
    """
    try:
        manifest = json.loads(read_input(data / "manifest_features.json"))
        table = read_input(data / "features.csv")
        registry = read_input(data / "registry.json")
    except (DataError, OSError, ValueError, RecursionError):
        return None
    recorded = {
        **_stamp("features", digests),
        "outputs": {"features.csv": _digest(table), "registry.json": _digest(registry)},
    }
    if not isinstance(manifest, dict) or any(manifest.get(k) != v for k, v in recorded.items()):
        return None
    if registry != (_registry_json() + "\n").encode("utf-8"):
        return None
    try:
        with open_text(data / "features.csv", table, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            teams = [(team_id, np.array([float(v) for v in row])) for team_id, *row in rows]
        raw = np.array([values for _, values in teams], dtype=np.float64)
    except (DataError, ValueError, csv.Error):
        return None
    shape = (len(teams), len(teamfeat.REGISTRY))
    if header != ["team_id", *teamfeat.REGISTRY] or raw.shape != shape or not np.isfinite(raw).all():
        return None
    return teamfeat.FeatureMatrix([team_id for team_id, _ in teams], teamfeat.REGISTRY, raw)


def _compute_matrix(files: dict) -> teamfeat.MatrixBuild:
    """The feature matrix of a dataset's files, each its path and bytes by manifest name.

    The teams go in (team_id, project_id) order, whatever the roster's row
    order. The commits go into a column table, whose authors locate each
    commit's team row and member slot; the labels are joined to the commits
    on a team by sha, and each such commit is one row of the block that
    :func:`teamfeat.matrix_from_columns` sums.
    """
    table = load_commit_table(*files.pop("commits"))
    roster = sorted(read_roster(*files.pop("roster")), key=lambda team: (team.team_id, team.project_id))
    labels_path = files["labels"][0]
    labels = _read_labels(*files.pop("labels"))
    located = locate_authors(table.author, roster)
    on_team = np.flatnonzero(located[:, 0] >= 0)
    joined = [labels.get(table.sha[i]) for i in on_team.tolist()]
    if None in joined:
        # name the first unlabelled commit in team order, then file order
        missing = [i for i, label in zip(on_team.tolist(), joined) if label is None]
        row, first = min((located[i, 0], i) for i in missing)
        with in_file(labels_path):
            raise DataError(f"no label for commit {table.sha[first]} (team {roster[row].team_id})")
    return teamfeat.matrix_from_columns(roster, np.column_stack(
        [located[on_team], np.array(joined, dtype=np.int64).reshape(-1, 2), table.counts[on_team]]
    ))


def _load_styled_dataset(args, digests: dict, inputs: dict):
    """The feature matrix and each team's style (``--styles`` or the rubric oracle)."""
    build = _load_dataset(args.data, digests, inputs)
    if not args.styles:
        return build, teamstyle.oracle_labels(build)
    with in_file(args.styles):
        styles = dict(_read_pairs(*inputs.pop("styles"), ("team_id", "style"), _members(TeamStyle)))
        missing = [t for t in build.team_ids if t not in styles]
        if missing:
            raise DataError(f"styles file lacks entries for teams: {missing[:5]}")
    return build, [styles[t] for t in build.team_ids]


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


def cmd_synth(args, outdir, digests, inputs):
    # a --config file's values win over the flags, so a refusal of the options names it
    with in_file(args.config):
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
    written = synthgen.write_corpus(teams, truth, outdir)
    n_commits = sum(len(t.commits) for t in teams)
    print(f"wrote {len(teams)} teams / {n_commits} commits to {outdir}")
    return {}, written


def cmd_ingest(args, outdir, digests, inputs):
    # either input gives the same rows, and one writer writes them
    if args.gitlog:
        with open_text(*inputs.pop("gitlog")) as fh:
            commits = git_log_rows(fh.read())
    else:
        commits = list(jsonl_rows(*inputs.pop("jsonl")))
    roster = read_roster(*inputs.pop("roster"))
    unmatched = int((locate_authors([row[1] for row in commits], roster)[:, 0] < 0).sum())

    commits_path, roster_path = outdir / "commits.jsonl", outdir / "roster.csv"
    written = {commits_path: dump_commit_rows(commits, commits_path), roster_path: dump_roster(roster, roster_path)}
    print(
        f"normalized {len(commits)} commits across {len(roster)} teams "
        f"({unmatched} unmatched authors) into {outdir}"
    )
    return {"unmatched": unmatched}, written


def cmd_train_commits(args, outdir, digests, inputs):
    tagged = _read_tagged(*inputs.pop("tagged"))
    lexicon = load_lexicon(*(inputs.pop(name, None) for name in ("english_words", "domain_words", "stopwords")))
    distinct = commitcls.distinct_messages(m for m, _ in tagged)
    cascade = commitcls.train_cascade(tagged, lexicon=lexicon, distinct=distinct)
    model_path = outdir / "cascade.json"
    written = {model_path: save_model(model_path, "cascade", cascade.to_dict())}
    print(f"trained cascade on {len(tagged)} messages -> {model_path}")
    config = {"messages": len(tagged), "distinct_messages": len(distinct[0])}
    return config, written


def cmd_eval_commits(args, outdir, digests, inputs):
    tagged = _read_tagged(*inputs.pop("tagged"))
    reports = commitcls.evaluate_cascade(tagged, k=args.folds, seed=args.seed)
    return {}, _write_report(
        outdir,
        "commit_eval",
        args.format,
        {key: report.to_dict() for key, report in reports.items()},
        "category",
        list(reports.items()),
    )


def cmd_label_commits(args, outdir, digests, inputs):
    cascade = _read_model(*inputs.pop("model"), "cascade", CascadeModel)
    table = load_commit_table(*inputs.pop("commits"))
    distinct, at = commitcls.distinct_messages(table.msg)
    categories, pairs = commitcls.label_distinct(cascade, distinct)

    labels_path = outdir / "labels.jsonl"
    labels = _label_lines(table.sha, ((categories[i].value, pairs[i]) for i in at))
    written = {labels_path: write_output(labels_path, labels)}

    distribution = commitcls.category_distribution([categories[i] for i in at])
    rows = [[name, str(count), f"{ratio:.2f}"] for name, (count, ratio) in distribution.items()]
    print(_report_table(["category", "count", "ratio"], rows))
    config = {"messages": len(table.msg), "distinct_messages": len(distinct)}
    return config, written


def cmd_features(args, outdir, digests, inputs):
    # the producer of the recorded matrix: it never reads its own earlier output
    build = _compute_matrix(inputs)
    features_path, registry_path = outdir / "features.csv", outdir / "registry.json"
    rows = ([team_id, *map(repr, row)] for team_id, row in zip(build.team_ids, build.raw.tolist()))
    written = {
        features_path: write_output(features_path, csv_lines(["team_id", *build.registry], rows)),
        registry_path: write_output(registry_path, [_registry_json(), "\n"]),
    }
    print(f"wrote {len(build.team_ids)}x{len(build.registry)} feature matrix to {features_path}")
    return {"teams": len(build.team_ids), "columns": len(build.registry)}, written


def cmd_train_teams(args, outdir, digests, inputs):
    build, styles = _load_styled_dataset(args, digests, inputs)
    model = teamstyle.train_team_model(
        build.raw, styles, algorithm=args.algorithm, k_features=args.k_features, seed=args.seed
    )
    model_path = outdir / f"teams_{args.algorithm}.json"
    written = {model_path: save_model(model_path, "teamstyle", model.to_dict())}
    print(f"trained {args.algorithm} team-style model -> {model_path}")
    return {}, written


def cmd_eval_teams(args, outdir, digests, inputs):
    build, styles = _load_styled_dataset(args, digests, inputs)
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
    written = _write_report(
        outdir,
        f"team_eval_{args.algorithm}",
        args.format,
        payload,
        "style",
        [(s.value, result.reports[s.value]) for s in teamstyle.STYLES],
    )
    print(f"macro-F1 {result.macro_f1:.3f} ({result.algorithm})")
    return {}, written


def cmd_predict(args, outdir, digests, inputs):
    build = _load_dataset(args.data, digests, inputs)
    model = _read_model(*inputs.pop("model"), "teamstyle", teamstyle.TeamStyleModel)
    predictions = teamstyle.predict_style_with_confidence(model, build.raw)
    predictions_path = outdir / "predictions.csv"
    rows = ([team, style.value, repr(confidence)] for team, (style, confidence) in zip(build.team_ids, predictions))
    written = {predictions_path: write_output(predictions_path, csv_lines(["team_id", "style", "confidence"], rows))}
    print(f"wrote predictions for {len(build.team_ids)} teams to {predictions_path}")
    return {}, written


def cmd_flag(args, outdir, digests, inputs):
    build = _load_dataset(args.data, digests, inputs)
    model = _read_model(*inputs.pop("model"), "teamstyle", teamstyle.TeamStyleModel)
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
    written = {flags_path: write_output(flags_path, [canonical_json(payload), "\n"])}
    print(f"flagged {len(flags)} team(s) as solo-submit -> {flags_path}")
    return {}, written


def cmd_kappa(args, outdir, digests, inputs) -> None:
    a = dict(_read_pairs(*inputs.pop("a")))
    b = dict(_read_pairs(*inputs.pop("b")))
    if set(a) != set(b):
        only_a = sorted(set(a) - set(b))[:3]
        only_b = sorted(set(b) - set(a))[:3]
        raise DataError(f"label files cover different ids (e.g. {only_a} vs {only_b})")
    ids = sorted(a)
    value = cohens_kappa([a[i] for i in ids], [b[i] for i in ids])
    print(f"{value:.4f}")


def _registry_json() -> str:
    """The text of ``registry.json``: the feature registry's version and column names."""
    return canonical_json({"version": teamfeat.REGISTRY_VERSION, "names": teamfeat.REGISTRY})


def cmd_registry(args, outdir, digests, inputs):
    if outdir is None:
        print(_registry_json())
        return None
    path = outdir / "registry.json"
    written = {path: write_output(path, [_registry_json(), "\n"])}
    print(f"wrote {len(teamfeat.REGISTRY)} feature names to {path}")
    return {}, written


if __name__ == "__main__":
    sys.exit(main())
