"""The JSON Lines reader and writer against ``json.loads`` and ``json.dumps``."""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope.errors import DataError, jsonl_line, jsonl_values
from teamscope.ingest import CommitRecord, FileStat, commit_to_json, dump_commits_jsonl

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


@settings(max_examples=200, deadline=None)
@given(commits=st.lists(_COMMITS, max_size=4), category=_TEXT, pair=st.booleans())
def test_jsonl_line_writes_what_json_dumps_writes(tmp_path_factory, commits, category, pair):
    label = {"sha": "a" * 40, "category": category, "pair_programming": pair}
    assert jsonl_line(label) == json.dumps(label, sort_keys=True)
    records = [commit_to_json(c) for c in commits]
    for record in records:
        assert jsonl_line(record) == json.dumps(record, sort_keys=True)
    path = tmp_path_factory.mktemp("jsonl") / "commits.jsonl"
    dump_commits_jsonl(commits, path)
    written = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert path.read_bytes() == written.encode("utf-8")
