"""Parse git histories and rosters into commit and team records.

The git side of the pipeline is a fixed text contract rather than a live
repository reader: histories are exported with

    git log --numstat --date=unix --pretty=format:%x01%H|%an|%ae|%at|%s

so every commit block starts with a 0x01 byte followed by a pipe-separated
header line, then zero or more ``ADD\\tDEL\\tPATH`` numstat lines. Normalized
commits round-trip through a JSONL interchange format, and rosters arrive as
CSV with one row per team member.

Both inputs read into one row shape, ``(sha, author, ts, msg, files,
additions, deletions)`` with each file as ``(path, add, del, binary)``:
:func:`git_log_rows` from the export, :func:`jsonl_rows` from a JSONL file.
Each reader decodes a commit's fields from its own syntax, the export's
numbers being ASCII digits, and hands them to one check of the values,
:func:`_row`: a 40-hex sha, a timestamp and line counts that fit an int64
column, with one text per fault whichever the input. One encoder,
:func:`commit_line`, writes a row as an interchange line. ``CommitRecord``
objects and the :class:`CommitTable` of columns are built from rows. Author
keys resolve through one map, :func:`author_map`, whichever form the
commits take.

A refusal says ``line N: what``, N being the line on which the offending
record ends. A file reader parses what :mod:`teamscope.errors` read from a path, its
bytes or the file open on it, and its refusals say ``FILE line N: what``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, csv_rows, jsonl_values, open_input, open_text

COMMIT_HEADER_MARK = "\x01"
GIT_LOG_COMMAND = (
    "git log --numstat --date=unix --pretty=format:%x01%H|%an|%ae|%at|%s"
)
ROSTER_COLUMNS = [
    "team_id",
    "project_id",
    "member_id",
    "exam1",
    "project1",
    "selected",
    "author_keys",
]

# the spellings of the roster's selected flag
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_SHA_RE = re.compile(r"[0-9a-fA-F]{40}")
# %at, and the numstat counts below, as git writes them: unsigned ASCII digits
_DIGITS_RE = re.compile(r"[0-9]+")
_NUMSTAT_RE = re.compile(r"^([0-9]+|-)\t([0-9]+|-)\t(.+)$")
_INT64_LIMIT = 2**63


@dataclass(frozen=True)
class FileStat:
    """Per-file line counts of a single commit."""

    path: str
    additions: int
    deletions: int
    binary: bool = False

    def __post_init__(self):
        if self.binary and (self.additions != 0 or self.deletions != 0):
            raise DataError(
                f"binary file {self.path!r} must have zero additions/deletions"
            )
        if self.additions < 0 or self.deletions < 0:
            raise DataError(f"negative line counts for {self.path!r}")


@dataclass(frozen=True)
class CommitRecord:
    """One parsed commit: author, timestamp, message and numstat totals."""

    sha: str
    author_key: str
    timestamp: int
    message: str
    files: tuple[FileStat, ...] = ()
    author_id: str | None = None

    @property
    def is_merge_shape(self) -> bool:
        """No numstat lines: what a pure merge looks like in the export."""
        return not self.files

    @property
    def additions(self) -> int:
        return sum(f.additions for f in self.files)

    @property
    def deletions(self) -> int:
        return sum(f.deletions for f in self.files)

    @property
    def files_changed(self) -> int:
        return len(self.files)


@dataclass(frozen=True)
class RosterMember:
    """A student with prior-performance grades and known author keys."""

    member_id: str
    exam1_grade: float
    project1_grade: float
    author_keys: tuple[str, ...]

    def __post_init__(self):
        if not self.author_keys:
            raise DataError(f"member {self.member_id!r} has no author keys")
        for grade, name in ((self.exam1_grade, "exam1"), (self.project1_grade, "project1")):
            if not 0.0 <= grade <= 100.0:
                raise DataError(
                    f"member {self.member_id!r}: {name} grade {grade} outside [0, 100]"
                )


@dataclass(frozen=True)
class TeamRecord:
    """A two-member team with its commit stream."""

    team_id: str
    project_id: str
    members: tuple[RosterMember, RosterMember]
    selected: bool
    commits: tuple[CommitRecord, ...] = ()

    def __post_init__(self):
        if len(self.members) != 2:
            raise DataError(
                f"team {self.team_id!r} must have exactly two members, "
                f"got {len(self.members)}"
            )
        ids = {m.member_id for m in self.members}
        for c in self.commits:
            if c.author_id is not None and c.author_id not in ids:
                raise DataError(
                    f"commit {c.sha} author {c.author_id!r} is not a member "
                    f"of team {self.team_id!r}"
                )

    def member_ids(self) -> tuple[str, str]:
        return (self.members[0].member_id, self.members[1].member_id)


def parse_git_log(text: str) -> list[CommitRecord]:
    """The commits of the fixed ``git log`` export as records (see
    :func:`git_log_rows`)."""
    return _records(git_log_rows(text))


def load_commits_jsonl(path) -> list[CommitRecord]:
    """Load the commits of a JSONL interchange file as records, parsed as it is read (see :func:`jsonl_rows`)."""
    with open_input(path) as fh:
        return _records(jsonl_rows(path, fh))


def _records(rows: Iterable[tuple]) -> list[CommitRecord]:
    return [
        CommitRecord(
            sha=sha,
            author_key=author,
            timestamp=ts,
            message=msg,
            files=tuple(FileStat(*f) for f in files),
        )
        for sha, author, ts, msg, files, _, _ in rows
    ]


def git_log_rows(text: str) -> list[tuple]:
    """Parse the output of the fixed ``git log`` export command into rows of
    the shape :func:`jsonl_rows` gives.

    Each block that a 0x01 at the start of a line opens yields one row, in
    input order. A 0x01 anywhere else, as in a subject, is refused: it would
    open a commit the log does not have. Binary numstat entries
    (``-\\t-\\tPATH``) contribute zero lines; commits with no numstat lines
    at all (pure merges under this command) get an empty file list.
    """
    text = text.replace("\r\n", "\n")  # tolerate CRLF exports
    if not text.strip(COMMIT_HEADER_MARK + " \t\r\n"):
        return []
    rows: list[tuple] = []
    first, *blocks = text.split(COMMIT_HEADER_MARK)
    if first.strip():
        raise DataError("content before first commit header", line=1)
    # a mark opens a commit only at the start of a line
    if text.count("\n" + COMMIT_HEADER_MARK) + (not first) != len(blocks):
        stray = re.search("[^\n]" + COMMIT_HEADER_MARK, text).end()
        raise DataError("0x01 inside a line; a commit header's 0x01 must start its line",
                        line=1 + text.count("\n", 0, stray))
    line_no = 1 + first.count("\n")
    for block in blocks:
        lines = block.split("\n")
        rows.append(_git_log_row(lines, line_no))
        line_no += len(lines) - 1
    return rows


def _git_log_row(lines: list[str], start_line: int) -> tuple:
    header = lines[0]
    parts = header.split("|", 4)
    if len(parts) != 5:
        raise DataError(
            f"malformed commit header (expected sha|name|email|timestamp|subject): {header!r}",
            line=start_line,
        )
    sha, name, email, raw_ts, subject = parts
    if not _DIGITS_RE.fullmatch(raw_ts):
        raise DataError(f"timestamp {raw_ts!r} is not an integer", line=start_line)

    files = []
    for offset, line in enumerate(lines[1:], start=1):
        if not line:
            continue
        m = _NUMSTAT_RE.match(line)
        if m is None:
            if not line.strip():  # a blank line never matches
                continue
            raise DataError(f"malformed numstat line: {line!r}", line=start_line + offset)
        add, dele, path = m.groups()
        if (add == "-") != (dele == "-"):
            raise DataError(f"numstat mixes '-' and counts: {line!r}", line=start_line + offset)
        if add == "-":
            files.append((path, 0, 0, True))
        else:
            files.append((path, _natural(add), _natural(dele), False))
    return _row(sha, email.strip() or name.strip(), _natural(raw_ts), subject, files, start_line)


def _natural(digits: str) -> int:
    """The value of a run of ASCII digits; 2**63 for one of 20 or more
    significant digits, which :func:`_row` refuses and ``int`` may not read."""
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) < 20 else _INT64_LIMIT


# the writer's string and integer spellings: json.dumps's own
_quote = json.encoder.encode_basestring_ascii
_int = int.__repr__


def commit_line(row: tuple) -> str:
    """The interchange line of a row's sha, author, ts, msg and files, its
    first five fields, newline included: ``json.dumps(record, sort_keys=True)``
    byte for byte, keys in the order ``author, files[add, del, path], msg,
    sha, ts`` and ``null`` counts for a binary file."""
    files = ", ".join([
        f'{{"add": null, "del": null, "path": {_quote(path)}}}' if binary
        else f'{{"add": {_int(add)}, "del": {_int(dele)}, "path": {_quote(path)}}}'
        for path, add, dele, binary in row[4]
    ])
    return (
        f'{{"author": {_quote(row[1])}, "files": [{files}], "msg": {_quote(row[3])}, '
        f'"sha": {_quote(row[0])}, "ts": {_int(row[2])}}}\n'
    )


def dump_commit_rows(rows: Iterable[tuple], path) -> None:
    """Write rows to a JSONL interchange file, one :func:`commit_line` at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(commit_line, rows))


def dump_commits_jsonl(commits: Iterable[CommitRecord], path) -> None:
    """Write commit records to a JSONL interchange file (see :func:`dump_commit_rows`)."""
    dump_commit_rows(
        (
            (c.sha, c.author_key, c.timestamp, c.message, [(f.path, f.additions, f.deletions, f.binary) for f in c.files])
            for c in commits
        ),
        path,
    )


@dataclass(frozen=True)
class CommitTable:
    """The commits of a JSONL interchange file as columns, in file order.

    Entry ``i`` of every column is commit ``i``: the idea of the Apache Arrow
    columnar layout, without per-commit or per-file objects. Shas are
    lower-cased; line counts and file counts include binary files as zero
    lines, one file.
    """

    sha: list[str]
    author: list[str]
    msg: list[str]
    additions: np.ndarray  # int64, like the other columns below
    deletions: np.ndarray
    files: np.ndarray
    msg_len: np.ndarray


def load_commit_table(path, data: bytes) -> CommitTable:
    """The JSONL interchange file ``data`` read from ``path`` as a :class:`CommitTable` (see :func:`jsonl_rows`)."""
    sha, author, msg, numbers = [], [], [], []
    for c_sha, c_author, _, c_msg, files, additions, deletions in jsonl_rows(path, data):
        sha.append(c_sha)
        author.append(c_author)
        msg.append(c_msg)
        numbers.append((additions, deletions, len(files), len(c_msg)))
    columns = np.array(numbers, dtype=np.int64).reshape(-1, 4).T
    return CommitTable(sha, author, msg, *columns)


def jsonl_rows(path, data) -> Iterator[tuple]:
    """Each commit of the JSONL interchange file ``data`` read from ``path`` (see :func:`open_text`) as a row,
    validated, in file order (see :func:`_commit_from_json`); a repeated sha is a :class:`DataError`."""
    seen: set[str] = set()
    with open_text(path, data) as fh:
        for line, raw in jsonl_values(fh):
            commit = _commit_from_json(raw, line)
            if commit[0] in seen:
                raise DataError(f"duplicate sha {commit[0]}", line=line)
            seen.add(commit[0])
            yield commit


def _commit_from_json(raw, line: int) -> tuple:
    """The row of an interchange record (see :func:`_row`)."""
    if not isinstance(raw, dict):
        raise DataError("not a JSON object", line=line)
    for key in ("sha", "author", "ts", "msg", "files"):
        if key not in raw:
            raise DataError(f"missing {key!r} field", line=line)
    for key in ("author", "msg"):
        if not isinstance(raw[key], str):
            raise DataError(f"{key} must be a string, got {raw[key]!r}", line=line)
    if not isinstance(raw["files"], list):
        raise DataError("files must be a list", line=line)
    files = []
    for fraw in raw["files"]:
        if not isinstance(fraw, dict) or not isinstance(fraw.get("path"), str):
            raise DataError(f"malformed file entry {fraw!r}", line=line)
        add, dele = fraw.get("add"), fraw.get("del")
        if add is None and dele is None:
            files.append((fraw["path"], 0, 0, True))
        elif type(add) is int and type(dele) is int:  # JSON true is a bool, an int subclass
            files.append((fraw["path"], add, dele, False))
        else:
            raise DataError("file add/del must both be ints or both null", line=line)
    return _row(raw["sha"], raw["author"], raw["ts"], raw["msg"], files, line)


def _row(sha, author: str, ts, msg: str, files: list, line: int) -> tuple:
    """The one check of a commit's values, read from either input at ``line``.
    Returns (sha, author, ts, msg, files, additions, deletions): the sha
    lower-cased, each file as ``FileStat`` fields (path, additions,
    deletions, binary) and the line totals over the files. Every number fits
    in an int64 column."""
    if type(sha) is not str or not _SHA_RE.fullmatch(sha):
        raise DataError(f"{sha!r} is not a 40-hex sha", line=line)
    if type(ts) is not int or ts <= 0:
        raise DataError("ts must be a positive integer", line=line)
    if ts >= _INT64_LIMIT:
        raise DataError("ts must be below 2**63", line=line)
    additions = deletions = 0
    for path, add, dele, _ in files:
        if add < 0 or dele < 0:
            raise DataError(f"negative line counts for {path!r}", line=line)
        additions += add
        deletions += dele
    if additions + deletions >= _INT64_LIMIT:
        raise DataError("line counts must total below 2**63", line=line)
    return sha.lower(), author, ts, msg, files, additions, deletions


def author_map(roster: Sequence[TeamRecord]) -> dict[str, tuple[int, int]]:
    """Each lower-cased roster author key's (team row, member slot).

    Author keys match case-insensitively. A key claimed by two members, and
    then a member listed in more than one team, is a :class:`DataError`.
    """
    owners: dict[str, tuple[int, int]] = {}
    for row, team in enumerate(roster):
        for slot, member in enumerate(team.members):
            for key in member.author_keys:
                lowered = key.lower()
                owner = owners.get(lowered)
                if owner is not None:
                    other = roster[owner[0]].members[owner[1]].member_id
                    if other != member.member_id:
                        raise DataError(
                            f"author key {key!r} claimed by both {other!r} "
                            f"and {member.member_id!r}"
                        )
                owners[lowered] = (row, slot)
    members: set[str] = set()
    for team in roster:
        for member in team.members:
            if member.member_id in members:
                raise DataError(
                    f"member {member.member_id!r} appears in more than one team"
                )
            members.add(member.member_id)
    return owners


def locate_authors(
    author_keys: Sequence[str], roster: Sequence[TeamRecord]
) -> tuple[np.ndarray, np.ndarray]:
    """The int64 (team row, member slot) of each author key in ``roster``,
    both -1 for a key no member claims; the roster is checked by
    :func:`author_map`."""
    owners = author_map(roster)
    rows_slots = np.array(
        [owners.get(key.lower(), (-1, -1)) for key in author_keys], dtype=np.int64
    ).reshape(-1, 2)
    return rows_slots[:, 0], rows_slots[:, 1]


def load_roster(path) -> list[TeamRecord]:
    """Load a roster CSV file (see :func:`read_roster`), parsed as it is read."""
    with open_input(path) as fh:
        return read_roster(path, fh)


def read_roster(path, data) -> list[TeamRecord]:
    """The roster CSV ``data`` read from ``path`` as two-member team records (no commits attached).

    Expected header: ``team_id,project_id,member_id,exam1,project1,selected,
    author_keys`` with author keys semicolon-separated. Rows are grouped by
    (team_id, project_id); anything but exactly two members per group, or an
    inconsistent ``selected`` flag, is a :class:`DataError`.
    """
    with open_text(path, data, newline="") as fh:
        return _roster_teams(fh)


def _roster_teams(fh) -> list[TeamRecord]:
    rows = csv_rows(fh)
    line, header = next(rows, (None, None))
    if header != ROSTER_COLUMNS:
        raise DataError(
            f"roster header must be {','.join(ROSTER_COLUMNS)!r}, got {header!r}", line=line
        )
    groups: dict[tuple[str, str], list[tuple[RosterMember, bool]]] = {}  # in file order
    for line, row in rows:
        if len(row) != len(ROSTER_COLUMNS):
            raise DataError(f"expected {len(ROSTER_COLUMNS)} fields, got {len(row)}", line=line)
        team_id, project_id, member_id, exam1, project1, selected, author_keys = row
        try:
            member = RosterMember(
                member_id=member_id,
                exam1_grade=float(exam1),
                project1_grade=float(project1),
                author_keys=tuple(k.strip() for k in author_keys.split(";") if k.strip()),
            )
            flag = _BOOLEANS[selected.strip().lower()]
        except KeyError:
            raise DataError(f"bad boolean {selected!r}", line=line) from None
        except (ValueError, DataError) as exc:
            raise DataError(str(exc), line=line) from None
        groups.setdefault((team_id, project_id), []).append((member, flag))
    if not groups:
        raise DataError("no rows below the header")

    teams = []
    for (team_id, project_id), entries in groups.items():
        members, flags = zip(*entries)
        team = TeamRecord(team_id, project_id, members, selected=flags[0])  # two members or a refusal
        if len(set(flags)) > 1:
            raise DataError(f"team {team_id!r}: members disagree on the selected flag")
        teams.append(team)
    return teams


def dump_roster(teams: Sequence[TeamRecord], path) -> None:
    """Write teams back out in the roster CSV format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROSTER_COLUMNS)
        for team in teams:
            for member in team.members:
                writer.writerow(
                    [
                        team.team_id,
                        team.project_id,
                        member.member_id,
                        repr(member.exam1_grade),
                        repr(member.project1_grade),
                        "true" if team.selected else "false",
                        ";".join(member.author_keys),
                    ]
                )


@dataclass
class TeamAssembly:
    teams: list[TeamRecord]
    unmatched: int


def build_teams(
    commits: Sequence[CommitRecord], roster: Sequence[TeamRecord]
) -> TeamAssembly:
    """Resolve commit authors and distribute commits onto their teams.

    Commits whose author matches no roster key are left out of every team
    and reported in the ``unmatched`` tally.
    """
    team_row, slot = locate_authors([c.author_key for c in commits], roster)
    per_team: list[list[CommitRecord]] = [[] for _ in roster]
    for commit, row, member in zip(commits, team_row.tolist(), slot.tolist()):
        if row >= 0:
            member_id = roster[row].members[member].member_id
            per_team[row].append(dataclasses.replace(commit, author_id=member_id))
    teams = [
        dataclasses.replace(team, commits=tuple(team_commits))
        for team, team_commits in zip(roster, per_team)
    ]
    return TeamAssembly(teams=teams, unmatched=int((team_row < 0).sum()))


def roster_from_string(text: str) -> list[TeamRecord]:
    return _roster_teams(io.StringIO(text))
