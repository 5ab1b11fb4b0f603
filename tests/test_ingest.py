import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope.errors import DataError
from teamscope.ingest import (
    CommitRecord,
    FileStat,
    RosterMember,
    TeamRecord,
    author_map,
    build_teams,
    dump_commits_jsonl,
    load_commit_table,
    load_commits_jsonl,
    load_roster,
    locate_authors,
    parse_git_log,
    roster_from_string,
)

SHA_A = "a" * 40
SHA_B = "b" * 40

GIT_LOG_FIXTURE = (
    f"\x01{SHA_A}|alice|a@x|1443657600|Fixed logout\n"
    "3\t1\tsrc/A.java\n"
    "\n"
    f"\x01{SHA_B}|bob|b@x|1443661200|Add logo\n"
    "-\t-\timg/logo.png\n"
    "10\t0\tsrc/B.java\n"
)

ROSTER_CSV = (
    "team_id,project_id,member_id,exam1,project1,selected,author_keys\n"
    "t1,P2,alice,80,90,true,alice;a@x\n"
    "t1,P2,bob,70,65,true,bob;b@x\n"
)


def test_parse_git_log_basic_fields():
    records = parse_git_log(GIT_LOG_FIXTURE)
    assert len(records) == 2
    first = records[0]
    assert first.sha == SHA_A
    assert first.message == "Fixed logout"
    assert first.timestamp == 1443657600
    assert first.additions == 3
    assert first.deletions == 1
    assert first.files_changed == 1
    assert not first.is_merge_shape


def test_parse_git_log_binary_numstat():
    records = parse_git_log(GIT_LOG_FIXTURE)
    logo = records[1].files[0]
    assert logo.binary
    assert logo.additions == 0 and logo.deletions == 0
    assert records[1].additions == 10  # binary contributes no lines


def test_parse_git_log_empty_input():
    assert parse_git_log("") == []
    assert parse_git_log("\n  \n") == []


def test_parse_git_log_merge_has_empty_files():
    text = f"\x01{SHA_A}|alice|a@x|100|Merge branch 'master'\n"
    (record,) = parse_git_log(text)
    assert record.files == ()
    assert record.is_merge_shape


def test_parse_git_log_malformed_header_names_line():
    text = f"\x01{SHA_A}|alice|1443657600|no email field\n"
    with pytest.raises(DataError, match="line 1"):
        parse_git_log(text)


def test_parse_git_log_bad_sha():
    text = "\x01zzzz|alice|a@x|1443657600|msg\n"
    with pytest.raises(DataError, match="40-hex"):
        parse_git_log(text)


def test_parse_git_log_names_numstat_line_number():
    text = f"\x01{SHA_A}|alice|a@x|100|msg\nnot-a-numstat\n"
    with pytest.raises(DataError, match="line 2"):
        parse_git_log(text)


def test_parse_git_log_subject_may_contain_pipes():
    text = f"\x01{SHA_A}|alice|a@x|100|fix a|b|c\n"
    (record,) = parse_git_log(text)
    assert record.message == "fix a|b|c"


@pytest.mark.parametrize(
    "text, line",
    [
        # a subject holding a header: read as two commits, the first would lose its numstat
        (f"\x01{SHA_A}|alice|a@x|100|fix \x01{SHA_B}|bob|b@x|200|sneaky\n3\t1\tsrc/A.java\n", 1),
        (GIT_LOG_FIXTURE.replace("Add logo", "Add \x01logo"), 4),
        (GIT_LOG_FIXTURE.replace("\x01", "\x01\x01", 1), 1),
        (" " + GIT_LOG_FIXTURE, 1),
    ],
    ids=["subject-with-header", "second-subject", "doubled-mark", "space-before-mark"],
)
def test_parse_git_log_refuses_0x01_inside_a_line(text, line):
    with pytest.raises(DataError, match="0x01 inside a line") as raised:
        parse_git_log(text)
    assert raised.value.line == line


def test_parse_git_log_tolerates_crlf():
    crlf = GIT_LOG_FIXTURE.replace("\n", "\r\n")
    assert parse_git_log(crlf) == parse_git_log(GIT_LOG_FIXTURE)


def test_parse_git_log_author_key_prefers_email():
    records = parse_git_log(GIT_LOG_FIXTURE)
    assert records[0].author_key == "a@x"


def test_file_additions_sum_to_record_totals():
    for record in parse_git_log(GIT_LOG_FIXTURE):
        assert record.additions == sum(f.additions for f in record.files)
        assert record.deletions == sum(f.deletions for f in record.files)


def test_binary_filestat_rejects_line_counts():
    with pytest.raises(DataError, match="^binary file 'x.png' must have zero additions/deletions$"):
        FileStat(path="x.png", additions=1, deletions=0, binary=True)


# --- JSONL interchange ---------------------------------------------------


def _commit(sha=SHA_A, files=(), **kw):
    defaults = dict(
        sha=sha,
        author_key="alice",
        timestamp=100,
        message="msg",
        files=tuple(files),
    )
    defaults.update(kw)
    return CommitRecord(**defaults)


def test_jsonl_round_trip_field_identical(tmp_path):
    commits = parse_git_log(GIT_LOG_FIXTURE)
    path = tmp_path / "commits.jsonl"
    dump_commits_jsonl(commits, path)
    assert load_commits_jsonl(path) == commits


def _record():
    """The interchange record of ``_commit()``."""
    return {"sha": SHA_A, "author": "alice", "ts": 100, "msg": "msg", "files": []}


def test_jsonl_missing_message_field(tmp_path):
    raw = _record()
    del raw["msg"]
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(raw) + "\n")
    with pytest.raises(DataError, match="line 1.*'msg'"):
        load_commits_jsonl(path)


def test_jsonl_duplicate_sha_names_sha(tmp_path):
    line = json.dumps(_record())
    path = tmp_path / "c.jsonl"
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(DataError, match=SHA_A):
        load_commits_jsonl(path)


files_strategy = st.lists(
    st.one_of(
        st.builds(
            FileStat,
            path=st.text(min_size=1, max_size=8, alphabet="abcxyz/."),
            additions=st.integers(0, 500),
            deletions=st.integers(0, 500),
            binary=st.just(False),
        ),
        st.builds(
            FileStat,
            path=st.text(min_size=1, max_size=8, alphabet="abcxyz/."),
            additions=st.just(0),
            deletions=st.just(0),
            binary=st.just(True),
        ),
    ),
    max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(
    shas=st.lists(st.integers(0, 2**40), unique=True, min_size=1, max_size=6),
    files=files_strategy,
    message=st.text(max_size=60).filter(lambda s: "\n" not in s and "\r" not in s),
    ts=st.integers(1, 2**31),
)
def test_jsonl_round_trip_property(tmp_path_factory, shas, files, message, ts):
    commits = [
        _commit(sha=f"{v:040x}", files=files, message=message, timestamp=ts)
        for v in shas
    ]
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    dump_commits_jsonl(commits, path)
    assert load_commits_jsonl(path) == commits
    table = load_commit_table(path, path.read_bytes())
    assert (table.sha, table.author, table.msg) == tuple(
        [getattr(c, name) for c in commits] for name in ("sha", "author_key", "message")
    )
    for column, values in (
        (table.additions, [c.additions for c in commits]),
        (table.deletions, [c.deletions for c in commits]),
        (table.files, [len(c.files) for c in commits]),
        (table.msg_len, [len(c.message) for c in commits]),
    ):
        assert column.dtype == np.int64 and column.tolist() == values


# --- roster and author resolution ----------------------------------------


def test_load_roster_groups_two_members():
    (team,) = roster_from_string(ROSTER_CSV)
    assert team.team_id == "t1"
    assert team.selected is True
    assert team.members[0].author_keys == ("alice", "a@x")
    assert team.members[1].exam1_grade == 70.0


def test_load_roster_rejects_single_member():
    csv_text = (
        "team_id,project_id,member_id,exam1,project1,selected,author_keys\n"
        "t1,P2,alice,80,90,true,alice\n"
    )
    with pytest.raises(DataError, match="exactly two"):
        roster_from_string(csv_text)


def test_load_roster_rejects_selected_disagreement():
    csv_text = (
        "team_id,project_id,member_id,exam1,project1,selected,author_keys\n"
        "t1,P2,alice,80,90,true,alice\n"
        "t1,P2,bob,70,65,false,bob\n"
    )
    with pytest.raises(DataError, match="selected"):
        roster_from_string(csv_text)


@pytest.mark.parametrize(
    "first_member",
    ["t1,P2,alice,80,90,true,alice\n\n", 't1,P2,alice,80,90,true,"alice;\na@x"\n'],
    ids=["blank-line", "quoted-field-over-two-lines"],
)
def test_roster_refusal_names_the_physical_line(tmp_path, first_member):
    header, _, _ = ROSTER_CSV.partition("\n")
    csv_text = f"{header}\n{first_member}t1,P2,bob,70,65,true,bob\nt2,P3,cara,60,70,maybe,cara\n"
    with pytest.raises(DataError) as refused:
        roster_from_string(csv_text)
    assert str(refused.value) == "line 5: bad boolean 'maybe'"
    path = tmp_path / "roster.csv"
    path.write_text(csv_text, encoding="utf-8")
    with pytest.raises(DataError) as refused:
        load_roster(path)
    assert str(refused.value) == f"{path} line 5: bad boolean 'maybe'"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("t1,P2,alice,80,90,true,alice\nt1,P2,bob,70,65,true,bob,extra\n", "line 3: expected 7 fields, got 8"),
        ("t1,P2,alice,80,90,true,;\n", "line 2: member 'alice' has no author keys"),
        ("t1,P2,alice,80,ninety,true,alice\n", "line 2: could not convert string to float: 'ninety'"),
    ],
    ids=["extra-field", "no-author-keys", "bad-grade"],
)
def test_roster_row_refusals_name_their_line(rows, message):
    with pytest.raises(DataError) as refused:
        roster_from_string(ROSTER_CSV.partition("\n")[0] + "\n" + rows)
    assert str(refused.value) == message


def test_roster_grade_out_of_range():
    with pytest.raises(DataError, match="outside"):
        RosterMember(member_id="x", exam1_grade=101, project1_grade=50, author_keys=("x",))


def test_build_teams_matches_keys_exactly_and_case_insensitively():
    roster = roster_from_string(ROSTER_CSV)
    commits = [
        _commit(sha=SHA_A, author_key="alice"),
        _commit(sha=SHA_B, author_key="ALICE"),
        _commit(sha="c" * 40, author_key="bot"),
        _commit(sha="d" * 40, author_key="alic"),
    ]
    assembly = build_teams(commits, roster)
    (team,) = assembly.teams
    assert [(c.sha, c.author_id) for c in team.commits] == [(SHA_A, "alice"), (SHA_B, "alice")]
    assert assembly.unmatched == 2


def test_build_teams_refuses_ambiguous_key():
    csv_text = (
        "team_id,project_id,member_id,exam1,project1,selected,author_keys\n"
        "t1,P2,alice,80,90,true,shared\n"
        "t1,P2,bob,70,65,true,shared\n"
    )
    roster = roster_from_string(csv_text)
    with pytest.raises(DataError, match="shared"):
        build_teams([_commit(author_key="shared")], roster)


def test_build_teams_only_touches_author_id():
    roster = roster_from_string(ROSTER_CSV)
    commit = _commit(author_key="a@x")
    (team,) = build_teams([commit], roster).teams
    (resolved,) = team.commits
    assert dataclasses.replace(resolved, author_id=None) == commit


def test_build_teams_attaches_resolved_commits():
    roster = roster_from_string(ROSTER_CSV)
    commits = [
        _commit(sha=SHA_A, author_key="a@x"),
        _commit(sha=SHA_B, author_key="bob"),
        _commit(sha="c" * 40, author_key="stranger"),
    ]
    assembly = build_teams(commits, roster)
    (team,) = assembly.teams
    assert [c.sha for c in team.commits] == [SHA_A, SHA_B]
    assert assembly.unmatched == 1


def test_locate_authors_gives_team_row_and_member_slot():
    roster = roster_from_string(
        ROSTER_CSV + "t2,P2,cara,60,70,false,cara\n" + "t2,P2,dan,75,80,false,dan;D@Y\n"
    )
    team_row, slot = locate_authors(["d@y", "ALICE", "stranger", "cara", "b@x"], roster)
    assert team_row.tolist() == [1, 0, -1, 1, 0]
    assert slot.tolist() == [1, 0, -1, 0, 1]


def test_member_in_two_teams_is_refused_after_ambiguous_keys():
    two_teams = ROSTER_CSV + "t2,P3,alice,80,90,true,alice\n" + "t2,P3,cara,60,70,true,cara\n"
    with pytest.raises(DataError, match="member 'alice' appears in more than one team"):
        build_teams([], roster_from_string(two_teams))
    with pytest.raises(DataError, match="member 'alice' appears in more than one team"):
        locate_authors([], roster_from_string(two_teams))
    ambiguous = two_teams.replace("cara\n", "cara;b@x\n")
    with pytest.raises(DataError, match="'b@x' claimed by both 'bob' and 'cara'"):
        build_teams([], roster_from_string(ambiguous))


def test_author_map_refuses_member_in_two_teams():
    two_teams = ROSTER_CSV + "t2,P3,cara,60,70,true,cara\n" + "t2,P3,bob,70,65,true,bob2\n"
    with pytest.raises(DataError, match="member 'bob' appears in more than one team"):
        author_map(roster_from_string(two_teams))


def test_team_record_requires_two_members():
    member = RosterMember("a", 50, 50, ("a",))
    with pytest.raises(DataError, match="^team 't' must have exactly two members, got 1$"):
        TeamRecord(team_id="t", project_id="p", members=(member,), selected=False)
