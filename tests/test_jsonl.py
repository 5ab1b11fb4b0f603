"""The JSON Lines reader and writers against ``json.loads`` and ``json.dumps``."""

import contextlib
import io
import json

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from teamscope.cli import _label_lines, main
from teamscope.errors import DataError, jsonl_values
from teamscope.ingest import COMMIT_HEADER_MARK, CommitRecord, FileStat, commit_line, dump_commits_jsonl

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),  # NaN and the infinities are written as NaN, Infinity, -Infinity
    st.text(max_size=8),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# what a line may hold besides one written value: JSON whitespace, characters
# that str.strip takes for blanks and JSON does not, a BOM, escapes of a line
# separator and of surrogates (a pair, and lone halves), and trailing data
_PIECES = st.sampled_from([
    " ", "\t", "\r", "\x0b", "\x1c", "\xa0", "\x85", "\u2028", "\ufeff",
    '"\\u2028"', '"\\ud83d\\ude00"', '"\\ud800"', '["\\udc00"]', '"\u2028"',
    "NaN", "-Infinity", "1", "{}", "[", "]", ",", "}", '"', "x",
])


@st.composite
def _lines(draw):
    """One physical line, without its newline."""
    kind = draw(st.sampled_from(["value", "pieces", "truncated"]))
    if kind == "pieces":
        return "".join(draw(st.lists(_PIECES, max_size=4)))
    text = json.dumps(draw(_VALUES), ensure_ascii=draw(st.booleans()))
    if kind == "truncated":
        text = text[: draw(st.integers(0, len(text)))]
    before, after = draw(st.lists(_PIECES, max_size=2)), draw(st.lists(_PIECES, max_size=2))
    return "".join(before) + text + "".join(after)


def _read(lines):
    """What each reader makes of the lines: its (line, value) pairs, and the
    message of its refusal (None if it reads every line)."""
    text = "".join(line + "\n" for line in lines)
    got, got_error = [], None
    try:
        for pair in jsonl_values(io.StringIO(text)):
            got.append(pair)
    except DataError as exc:
        got_error = str(exc)
    expected, expected_error = [], None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            expected.append((number, json.loads(line + "\n")))
        except ValueError as exc:
            expected_error = f"line {number}: invalid JSON: {exc}"
            break
        except RecursionError:
            expected_error = f"line {number}: invalid JSON: nested too deeply"
            break
    return (got, got_error), (expected, expected_error)


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(_lines(), min_size=1, max_size=6))
def test_jsonl_values_reads_what_json_loads_reads(lines):
    (got, got_error), (expected, expected_error) = _read(lines)
    assert repr(got) == repr(expected)  # repr: NaN equals NaN, and -0.0 differs from 0.0
    assert got_error == expected_error


def test_jsonl_values_cases():
    cases = {
        # str.strip blanks that JSON does not take for whitespace are skipped as blank lines
        ("\x0b", "\x1c", "\xa0", " \t\r", "[1]"): [(5, [1])],
        ('"\\u2028"', '{"a": NaN}'): [(1, "\u2028"), (2, {"a": float("nan")})],
        ("1", "2 3"): "line 2: invalid JSON: Extra data: line 1 column 3 (char 2)",
        ("\ufeff{}",): "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ("\x0b{}",): "line 1: invalid JSON: Expecting value: line 1 column 1 (char 0)",
        ("[]", "[" * 200_000): "line 2: invalid JSON: nested too deeply",
    }
    for lines, expected in cases.items():
        (got, got_error), _ = _read(lines)
        assert repr(got_error if isinstance(expected, str) else got) == repr(expected), lines


# text with non-ASCII, control characters and lone surrogates
_TEXT = st.text(
    st.characters() | st.sampled_from(["\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "\xe9", "\U0001f600"]),
    max_size=12,
)
_COMMITS = st.builds(
    CommitRecord,
    sha=st.sampled_from(["a" * 40, "0123456789abcdef" * 2 + "01234567"]),
    author_key=_TEXT,
    timestamp=st.integers(1, 2**63 - 1),
    message=_TEXT,
    files=st.lists(
        st.builds(FileStat, path=_TEXT, additions=st.integers(0, 10**6), deletions=st.integers(0, 10**6))
        | st.builds(FileStat, path=_TEXT, additions=st.just(0), deletions=st.just(0), binary=st.just(True)),
        max_size=3,
    ).map(tuple),
)


def _record(commit: CommitRecord) -> dict:
    """The interchange record of a commit, as the README documents it."""
    return {
        "sha": commit.sha,
        "author": commit.author_key,
        "ts": commit.timestamp,
        "msg": commit.message,
        "files": [
            {"path": f.path, "add": None if f.binary else f.additions, "del": None if f.binary else f.deletions}
            for f in commit.files
        ],
    }


def _row(commit: CommitRecord) -> tuple:
    files = [(f.path, f.additions, f.deletions, f.binary) for f in commit.files]
    return (commit.sha, commit.author_key, commit.timestamp, commit.message, files)


# a few category names drawn often, so that labels repeat
_CATEGORIES = st.sampled_from(["Bugfix", "Test"]) | _TEXT


@settings(max_examples=200, deadline=None)
@given(
    commits=st.lists(_COMMITS, max_size=4),
    labels=st.lists(st.tuples(st.sampled_from(["a" * 40, "b" * 40]) | _TEXT, _CATEGORIES, st.booleans()), max_size=6),
)
def test_jsonl_line_writes_what_json_dumps_writes(tmp_path_factory, commits, labels):
    written = [
        json.dumps({"sha": sha, "category": category, "pair_programming": pair}, sort_keys=True) + "\n"
        for sha, category, pair in labels
    ]
    assert list(_label_lines([sha for sha, _, _ in labels], [label[1:] for label in labels])) == written
    records = [json.dumps(_record(c), sort_keys=True) + "\n" for c in commits]
    assert [commit_line(_row(c)) for c in commits] == records
    path = tmp_path_factory.mktemp("jsonl") / "commits.jsonl"
    dump_commits_jsonl(commits, path)
    assert path.read_bytes() == "".join(records).encode("utf-8")


# What the export can hold: UTF-8 text without a line break (a lone carriage
# return reads as one) or the 0x01 that opens a commit.
def _export_text(excluded="", **kw):
    return st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r\x01" + excluded), **kw)


# (sha, name, email, ts, subject, files), each file a path and its counts or None for a binary file
_EXPORTED = st.lists(
    st.tuples(
        st.text("0123456789abcdefABCDEF", min_size=40, max_size=40),
        _export_text("|", max_size=8),
        _export_text("|", max_size=8),
        st.integers(1, 2**63 - 1),
        _export_text(max_size=12),
        st.lists(
            st.tuples(
                _export_text("\t", min_size=1, max_size=8),
                st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            ),
            max_size=3,
        ),
    ),
    max_size=4,
    unique_by=lambda commit: commit[0].lower(),
)


@settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(commits=_EXPORTED)
def test_ingest_writes_the_same_interchange_from_either_input(tmp_path_factory, commits):
    tmp = tmp_path_factory.mktemp("ingest")
    log, records = [], []
    for sha, name, email, ts, subject, files in commits:
        log.append(f"{COMMIT_HEADER_MARK}{sha}|{name}|{email}|{ts}|{subject}\n")
        log += [("-\t-" if counts is None else "%d\t%d" % counts) + f"\t{path}\n" for path, counts in files]
        log.append("\n")
        records.append({
            "sha": sha.lower(),
            "author": email.strip() or name.strip(),
            "ts": ts,
            "msg": subject,
            "files": [{"path": path, "add": counts and counts[0], "del": counts and counts[1]} for path, counts in files],
        })
    (tmp / "history.log").write_text("".join(log), encoding="utf-8")
    (tmp / "commits.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (tmp / "roster.csv").write_text(
        "team_id,project_id,member_id,exam1,project1,selected,author_keys\n"
        "t1,P1,m1,80,90,true,a@x\nt1,P1,m2,70,65,true,b@x\n",
        encoding="utf-8",
    )
    written = []
    for source in ("--gitlog", "--jsonl"):
        read = tmp / ("history.log" if source == "--gitlog" else "commits.jsonl")
        out = tmp / source.strip("-")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ingest", source, str(read), "--roster", str(tmp / "roster.csv"), "--out", str(out)]) == 0
        written.append((out / "commits.jsonl").read_bytes())
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert written == [expected.encode("utf-8")] * 2
