"""Parse git histories and rosters into commit and team records.

The git side of the pipeline is a fixed text contract rather than a live
repository reader: histories are exported with

    git log --numstat --date=unix --pretty=format:%x01%H|%an|%ae|%at|%s

so every commit block starts with a 0x01 byte followed by a pipe-separated
header line, then zero or more ``ADD\\tDEL\\tPATH`` numstat lines. Normalized
commits round-trip through a JSONL interchange format, and rosters arrive as
CSV with one row per team member.

A JSONL file is validated line by line by one function and read either into
``CommitRecord`` objects or into a :class:`CommitTable` of columns. Author
keys resolve through one map, :func:`author_map`, whichever form the
commits take.
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

from .errors import AmbiguousAuthorError, ParseError, SchemaError, open_text

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

_SHA_RE = re.compile(r"^[0-9a-fA-F]{40}$")
_NUMSTAT_RE = re.compile(r"^(\d+|-)\t(\d+|-)\t(.+)$")
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
            raise SchemaError(
                f"binary file {self.path!r} must have zero additions/deletions"
            )
        if self.additions < 0 or self.deletions < 0:
            raise SchemaError(f"negative line counts for {self.path!r}")


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

    @property
    def churn(self) -> int:
        return self.additions + self.deletions


@dataclass(frozen=True)
class RosterMember:
    """A student with prior-performance grades and known author keys."""

    member_id: str
    exam1_grade: float
    project1_grade: float
    author_keys: tuple[str, ...]

    def __post_init__(self):
        if not self.author_keys:
            raise SchemaError(f"member {self.member_id!r} has no author keys")
        for grade, name in ((self.exam1_grade, "exam1"), (self.project1_grade, "project1")):
            if not 0.0 <= grade <= 100.0:
                raise SchemaError(
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
            raise SchemaError(
                f"team {self.team_id!r} must have exactly two members, "
                f"got {len(self.members)}"
            )
        ids = {m.member_id for m in self.members}
        for c in self.commits:
            if c.author_id is not None and c.author_id not in ids:
                raise SchemaError(
                    f"commit {c.sha} author {c.author_id!r} is not a member "
                    f"of team {self.team_id!r}"
                )

    def member_ids(self) -> tuple[str, str]:
        return (self.members[0].member_id, self.members[1].member_id)


def parse_git_log(text: str) -> list[CommitRecord]:
    """Parse the output of the fixed ``git log`` export command.

    Each 0x01-prefixed block yields one record, in input order. Binary
    numstat entries (``-\\t-\\tPATH``) contribute zero lines; commits with no
    numstat lines at all (pure merges under this command) get an empty file
    list, so ``is_merge_shape`` holds for them.
    """
    text = text.replace("\r\n", "\n")  # tolerate CRLF exports
    if not text.strip(COMMIT_HEADER_MARK + " \t\r\n"):
        return []
    records: list[CommitRecord] = []
    line_no = 1
    first, *blocks = text.split(COMMIT_HEADER_MARK)
    if first.strip():
        raise ParseError(f"line {line_no}: content before first commit header")
    line_no += first.count("\n")
    for block in blocks:
        lines = block.split("\n")
        records.append(_parse_commit_block(lines, line_no))
        line_no += len(lines) - 1
    return records


def _parse_commit_block(lines: list[str], start_line: int) -> CommitRecord:
    header = lines[0]
    parts = header.split("|", 4)
    if len(parts) != 5:
        raise ParseError(
            f"line {start_line}: malformed commit header "
            f"(expected sha|name|email|timestamp|subject): {header!r}"
        )
    sha, name, email, raw_ts, subject = parts
    if not _SHA_RE.match(sha):
        raise ParseError(f"line {start_line}: {sha!r} is not a 40-hex sha")
    try:
        timestamp = int(raw_ts)
    except ValueError:
        raise ParseError(
            f"line {start_line}: timestamp {raw_ts!r} is not an integer"
        ) from None
    if timestamp <= 0:
        raise ParseError(f"line {start_line}: timestamp must be positive, got {timestamp}")

    files = []
    for offset, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        files.append(_parse_numstat_line(line, start_line + offset))

    return CommitRecord(
        sha=sha.lower(),
        author_key=email.strip() or name.strip(),
        timestamp=timestamp,
        message=subject,
        files=tuple(files),
    )


def _parse_numstat_line(line: str, line_no: int) -> FileStat:
    m = _NUMSTAT_RE.match(line)
    if not m:
        raise ParseError(f"line {line_no}: malformed numstat line: {line!r}")
    add, dele, path = m.groups()
    if (add == "-") != (dele == "-"):
        raise ParseError(
            f"line {line_no}: numstat mixes '-' and counts: {line!r}"
        )
    if add == "-":
        return FileStat(path=path, additions=0, deletions=0, binary=True)
    return FileStat(path=path, additions=int(add), deletions=int(dele), binary=False)


def commit_to_json(commit: CommitRecord) -> dict:
    """Interchange form of one commit: ``sha, author, ts, msg, files``."""
    return {
        "sha": commit.sha,
        "author": commit.author_key,
        "ts": commit.timestamp,
        "msg": commit.message,
        "files": [
            {
                "path": f.path,
                "add": None if f.binary else f.additions,
                "del": None if f.binary else f.deletions,
            }
            for f in commit.files
        ],
    }


def dump_commits_jsonl(commits: Iterable[CommitRecord], path) -> None:
    """Write commits to a JSONL file, one interchange record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for commit in commits:
            fh.write(json.dumps(commit_to_json(commit), sort_keys=True))
            fh.write("\n")


def load_commits_jsonl(path) -> list[CommitRecord]:
    """Load commits from a JSONL interchange file.

    Schema violations and duplicate shas raise :class:`SchemaError` naming
    the offending line (or sha).
    """
    return [
        CommitRecord(
            sha=sha,
            author_key=author,
            timestamp=ts,
            message=msg,
            files=tuple(FileStat(*f) for f in files),
        )
        for sha, author, ts, msg, files, _, _ in _read_jsonl_commits(path)
    ]


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
    ts: np.ndarray  # int64, like the other columns below
    additions: np.ndarray
    deletions: np.ndarray
    files: np.ndarray
    msg_len: np.ndarray


def load_commit_table(path) -> CommitTable:
    """Load a JSONL interchange file into a :class:`CommitTable`, with the
    same validation and errors as :func:`load_commits_jsonl`."""
    sha, author, msg, numbers = [], [], [], []
    for c_sha, c_author, ts, c_msg, files, additions, deletions in _read_jsonl_commits(path):
        sha.append(c_sha)
        author.append(c_author)
        msg.append(c_msg)
        numbers.append((ts, additions, deletions, len(files), len(c_msg)))
    columns = np.array(numbers, dtype=np.int64).reshape(-1, 5).T
    return CommitTable(sha, author, msg, *columns)


def _read_jsonl_commits(path) -> Iterator[tuple]:
    """Each commit of a JSONL interchange file, validated, in file order (see
    :func:`_commit_from_json`); a repeated sha is a :class:`SchemaError`."""
    seen: set[str] = set()
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {line_no}: invalid JSON: {exc}") from None
            commit = _commit_from_json(raw, line_no)
            if commit[0] in seen:
                raise SchemaError(f"line {line_no}: duplicate sha {commit[0]}")
            seen.add(commit[0])
            yield commit


def _commit_from_json(raw, line_no: int) -> tuple:
    """The one check of an interchange record. Returns (sha, author, ts, msg,
    files, additions, deletions): the sha lower-cased, each file as
    ``FileStat`` fields (path, additions, deletions, binary) and the line
    totals over the files. Every number fits in an int64 column."""
    if not isinstance(raw, dict):
        raise SchemaError(f"line {line_no}: not a JSON object")
    for key in ("sha", "author", "ts", "msg", "files"):
        if key not in raw:
            raise SchemaError(f"line {line_no}: missing {key!r} field")
    sha = raw["sha"]
    if not isinstance(sha, str) or not _SHA_RE.match(sha):
        raise SchemaError(f"line {line_no}: {sha!r} is not a 40-hex sha")
    ts = raw["ts"]
    if type(ts) is not int or ts <= 0:  # JSON true is a bool, an int subclass
        raise SchemaError(f"line {line_no}: ts must be a positive integer")
    if ts >= _INT64_LIMIT:
        raise SchemaError(f"line {line_no}: ts must be below 2**63")
    for key in ("author", "msg"):
        if not isinstance(raw[key], str):
            raise SchemaError(f"line {line_no}: {key} must be a string, got {raw[key]!r}")
    if not isinstance(raw["files"], list):
        raise SchemaError(f"line {line_no}: files must be a list")
    files, additions, deletions = [], 0, 0
    for fraw in raw["files"]:
        if not isinstance(fraw, dict) or not isinstance(fraw.get("path"), str):
            raise SchemaError(f"line {line_no}: malformed file entry {fraw!r}")
        add, dele = fraw.get("add"), fraw.get("del")
        if add is None and dele is None:
            files.append((fraw["path"], 0, 0, True))
        elif type(add) is int and type(dele) is int:
            if add < 0 or dele < 0:
                raise SchemaError(f"line {line_no}: negative line counts for {fraw['path']!r}")
            files.append((fraw["path"], add, dele, False))
            additions += add
            deletions += dele
        else:
            raise SchemaError(
                f"line {line_no}: file add/del must both be ints or both null"
            )
    if additions + deletions >= _INT64_LIMIT:
        raise SchemaError(f"line {line_no}: line counts must total below 2**63")
    return sha.lower(), raw["author"], ts, raw["msg"], files, additions, deletions


@dataclass
class ResolveResult:
    commits: list[CommitRecord]
    unmatched: int


def resolve_authors(
    commits: Sequence[CommitRecord], roster: Sequence[TeamRecord]
) -> ResolveResult:
    """Attach roster ``author_id`` to each commit by exact key match.

    Matching is case-insensitive on the commit's raw author key; commits with
    no matching roster key keep ``author_id`` unset and are tallied. A key
    claimed by two members raises :class:`AmbiguousAuthorError`.
    """
    owners = author_map(roster)
    key_owner = {key: roster[row].members[slot].member_id for key, (row, slot) in owners.items()}

    resolved: list[CommitRecord] = []
    unmatched = 0
    for commit in commits:
        member_id = key_owner.get(commit.author_key.lower())
        if member_id is None:
            unmatched += 1
            resolved.append(commit)
        else:
            resolved.append(dataclasses.replace(commit, author_id=member_id))
    return ResolveResult(commits=resolved, unmatched=unmatched)


def author_map(roster: Sequence[TeamRecord]) -> dict[str, tuple[int, int]]:
    """Each lower-cased roster author key's (team row, member slot).

    Author keys match case-insensitively. A key claimed by two members raises
    :class:`AmbiguousAuthorError`; a member listed in two teams keeps the last.
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
                        raise AmbiguousAuthorError(
                            f"author key {key!r} claimed by both {other!r} "
                            f"and {member.member_id!r}"
                        )
                owners[lowered] = (row, slot)
    return owners


def locate_authors(
    author_keys: Sequence[str], roster: Sequence[TeamRecord]
) -> tuple[np.ndarray, np.ndarray]:
    """The int64 (team row, member slot) of each author key in ``roster``,
    both -1 for a key no member claims.

    Besides :func:`author_map`'s check, a member listed in more than one team
    is a :class:`SchemaError`.
    """
    owners = author_map(roster)
    members: set[str] = set()
    for team in roster:
        for member in team.members:
            if member.member_id in members:
                raise SchemaError(
                    f"member {member.member_id!r} appears in more than one team"
                )
            members.add(member.member_id)
    rows_slots = np.array(
        [owners.get(key.lower(), (-1, -1)) for key in author_keys], dtype=np.int64
    ).reshape(-1, 2)
    return rows_slots[:, 0], rows_slots[:, 1]


def load_roster(path) -> list[TeamRecord]:
    """Load a roster CSV into two-member team records (no commits attached).

    Expected header: ``team_id,project_id,member_id,exam1,project1,selected,
    author_keys`` with author keys semicolon-separated. Rows are grouped by
    (team_id, project_id); anything but exactly two members per group, or an
    inconsistent ``selected`` flag, is a :class:`SchemaError`.
    """
    with open_text(path, newline="") as fh:
        return parse_roster(fh)


def parse_roster(fh) -> list[TeamRecord]:
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or list(reader.fieldnames) != ROSTER_COLUMNS:
        raise SchemaError(
            f"roster header must be {','.join(ROSTER_COLUMNS)!r}, "
            f"got {reader.fieldnames!r}"
        )
    groups: dict[tuple[str, str], list[tuple[RosterMember, bool]]] = {}
    order: list[tuple[str, str]] = []
    for line_no, row in enumerate(reader, start=2):
        if None in row.values():  # a short row
            raise SchemaError(f"roster line {line_no}: expected {len(ROSTER_COLUMNS)} fields")
        try:
            member = RosterMember(
                member_id=row["member_id"],
                exam1_grade=float(row["exam1"]),
                project1_grade=float(row["project1"]),
                author_keys=tuple(
                    k.strip() for k in row["author_keys"].split(";") if k.strip()
                ),
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"roster line {line_no}: {exc}") from None
        key = (row["team_id"], row["project_id"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((member, _parse_bool(row["selected"], line_no)))

    teams = []
    for team_id, project_id in order:
        entries = groups[(team_id, project_id)]
        if len(entries) != 2:
            raise SchemaError(
                f"team {team_id!r} project {project_id!r} has {len(entries)} "
                "members; exactly two are required"
            )
        (m0, sel0), (m1, sel1) = entries
        if sel0 != sel1:
            raise SchemaError(
                f"team {team_id!r}: members disagree on the selected flag"
            )
        teams.append(
            TeamRecord(
                team_id=team_id,
                project_id=project_id,
                members=(m0, m1),
                selected=sel0,
            )
        )
    return teams


def _parse_bool(value: str, line_no: int) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise SchemaError(f"roster line {line_no}: bad boolean {value!r}")


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


def parse_git_log_file(path) -> list[CommitRecord]:
    with open_text(path) as fh:
        return parse_git_log(fh.read())


def roster_from_string(text: str) -> list[TeamRecord]:
    return parse_roster(io.StringIO(text))
