import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_features import brute_force_vector
from teamscope.cli import _DATASET_FILES, _compute_matrix
from teamscope.commitcls import CATEGORIES, CommitCategory, LabeledCommit
from teamscope.errors import DataError
from teamscope.ingest import (
    CommitRecord,
    FileStat,
    RosterMember,
    TeamRecord,
    build_teams,
    dump_roster,
    load_commits_jsonl,
    load_roster,
)
from teamscope.mlcore import standardize_apply, standardize_fit
from teamscope.synthgen import GenConfig, generate_corpus, truth_labeled_commits
from teamscope.teamfeat import (
    REGISTRY,
    SCOPES,
    TeamFeatureVector,
    build_matrix,
    extract_features,
    feature_registry,
    order_users,
)

COUNT_METRICS = (
    "commits",
    "additions",
    "deletions",
    "files_changed",
    "churn",
    "msg_len_total",
)


def _team(members=None, selected=False):
    if members is None:
        members = (
            RosterMember("amy", 80.0, 90.0, ("amy",)),
            RosterMember("ben", 70.0, 65.0, ("ben",)),
        )
    return TeamRecord(team_id="t0", project_id="P2", members=members, selected=selected)


def _labeled(author, category, add=0, dele=0, message="m", pair=False, sha=None):
    sha = sha or f"{abs(hash((author, category, add, dele, message))) % (16**10):040x}"
    files = (FileStat(path="f.java", additions=add, deletions=dele),) if add or dele else ()
    record = CommitRecord(
        sha=sha,
        author_key=author,
        author_id=author,
        timestamp=100,
        message=message,
        files=files,
    )
    return LabeledCommit(commit=record, category=category, pair_programming=pair)


def test_registry_is_stable_and_named():
    assert feature_registry() == REGISTRY
    assert len(REGISTRY) == len(set(REGISTRY))
    assert len(REGISTRY) == 2 * len(SCOPES) * 16 + 13
    assert "u0_commit_share_whole" in REGISTRY
    assert REGISTRY[-1] == "team_selected"


def test_order_users_fewer_added_lines_first():
    team = _team()
    labeled = [
        _labeled("amy", CommitCategory.IMPLEMENTATION, add=120),
        _labeled("ben", CommitCategory.IMPLEMENTATION, add=300),
    ]
    assert order_users(team, labeled) == ("amy", "ben")


def test_order_users_commit_count_tiebreak():
    team = _team()
    labeled = [
        _labeled("amy", CommitCategory.OTHER, message="a"),
        _labeled("amy", CommitCategory.OTHER, message="b"),
        _labeled("ben", CommitCategory.OTHER, message="c"),
        _labeled("ben", CommitCategory.OTHER, message="d"),
        _labeled("ben", CommitCategory.OTHER, message="e"),
    ]
    assert order_users(team, labeled)[0] == "amy"  # 0 additions each; amy has 2 commits vs 3


def test_order_users_invariant_to_member_order():
    m0 = RosterMember("amy", 80.0, 90.0, ("amy",))
    m1 = RosterMember("ben", 70.0, 65.0, ("ben",))
    labeled = [
        _labeled("amy", CommitCategory.TEST, add=10),
        _labeled("ben", CommitCategory.TEST, add=99),
    ]
    a = order_users(TeamRecord("t0", "P2", (m0, m1), False), labeled)
    b = order_users(TeamRecord("t0", "P2", (m1, m0), False), labeled)
    assert a == b


def test_commit_share_whole_example():
    team = _team()
    labeled = [_labeled("amy", CommitCategory.BUGFIX, add=1, message=f"a{i}") for i in range(4)]
    labeled += [_labeled("ben", CommitCategory.BUGFIX, add=2, message=f"b{i}") for i in range(6)]
    vec = extract_features(team, labeled)
    assert vec["u0_commit_share_whole"] == pytest.approx(0.4)
    assert vec["u1_commit_share_whole"] == pytest.approx(0.6)


def test_empty_scope_features_are_zero():
    team = _team()
    labeled = [
        _labeled("amy", CommitCategory.IMPLEMENTATION, add=40),
        _labeled("ben", CommitCategory.IMPLEMENTATION, add=41),
    ]
    vec = extract_features(team, labeled)
    for user in (0, 1):
        for metric in COUNT_METRICS + ("commit_share", "churn_share", "msg_len_avg"):
            assert vec[f"u{user}_{metric}_documentation"] == 0.0


def test_share_identity_exact():
    team = _team()
    labeled = [
        _labeled("amy", CommitCategory.IMPLEMENTATION, add=1),
        _labeled("ben", CommitCategory.IMPLEMENTATION, add=2),
    ]
    vec = extract_features(team, labeled)
    assert vec["u0_additions_share_whole"] + vec["u1_additions_share_whole"] == 1.0


def test_whole_scope_equals_sum_of_parts():
    teams, truth = generate_corpus(GenConfig(seed=3, n_teams=6, noise_rate=0.1))
    for team in teams:
        labeled = truth_labeled_commits(team, truth)
        vec = extract_features(team, labeled)
        for user in (0, 1):
            for metric in COUNT_METRICS:
                parts = sum(vec[f"u{user}_{metric}_{s}"] for s in SCOPES[1:])
                assert vec[f"u{user}_{metric}_whole"] == pytest.approx(parts)


def test_extract_invariant_under_commit_permutation():
    teams, truth = generate_corpus(GenConfig(seed=4, n_teams=2, noise_rate=0.1))
    team = teams[0]
    labeled = truth_labeled_commits(team, truth)
    forward = extract_features(team, labeled)
    backward = extract_features(team, list(reversed(labeled)))
    assert np.array_equal(forward.values, backward.values)


def test_extract_invariant_under_roster_member_swap():
    m0 = RosterMember("amy", 80.0, 90.0, ("amy",))
    m1 = RosterMember("ben", 70.0, 65.0, ("ben",))
    labeled = [
        _labeled("amy", CommitCategory.IMPLEMENTATION, add=10, message="aa"),
        _labeled("ben", CommitCategory.TEST, add=50, dele=3, message="bb"),
    ]
    a = extract_features(TeamRecord("t0", "P2", (m0, m1), True), labeled)
    b = extract_features(TeamRecord("t0", "P2", (m1, m0), True), labeled)
    assert np.array_equal(a.values, b.values)


def test_extract_rejects_foreign_commit():
    team = _team()
    stranger = _labeled("zoe", CommitCategory.TEST, add=5)
    with pytest.raises(DataError, match="zoe|not resolved"):
        extract_features(team, [stranger])


def test_pair_and_risk_and_selected_features():
    members = (
        RosterMember("amy", 55.0, 90.0, ("amy",)),  # exam risk
        RosterMember("ben", 70.0, 65.0, ("ben",)),
    )
    team = _team(members=members, selected=True)
    labeled = [
        _labeled("amy", CommitCategory.IMPLEMENTATION, add=1, pair=True, message="x"),
        _labeled("ben", CommitCategory.IMPLEMENTATION, add=9, pair=True, message="y"),
        _labeled("ben", CommitCategory.TEST, add=9, message="z"),
    ]
    vec = extract_features(team, labeled)
    assert vec["u0_pair_commits"] == 1.0
    assert vec["u1_pair_commits"] == 1.0
    assert vec["team_pair_commits"] == 2.0
    assert vec["u0_exam1_risk"] == 1.0
    assert vec["u0_project1_risk"] == 0.0
    assert vec["team_any_risk"] == 1.0
    assert vec["team_selected"] == 1.0
    assert vec["u0_exam1_grade"] == 55.0


def test_brute_force_oracle_equivalence_on_synthetic_teams():
    teams, truth = generate_corpus(
        GenConfig(seed=21, n_teams=12, commits_per_team=(10, 25), noise_rate=0.1)
    )
    for team in teams:
        labeled = truth_labeled_commits(team, truth)
        vec = extract_features(team, labeled)
        expected = brute_force_vector(team, labeled, REGISTRY)
        for name, got, want in zip(REGISTRY, vec.values, expected):
            if "share" in name or "avg" in name:
                assert got == pytest.approx(want, abs=1e-9), name
            else:
                assert got == want, name


# a drawn team: (member ids, (exam1, project1) per member, selected, commits),
# each commit (member slot, category index, ((additions, deletions), ...), message, pair)
_GRADES = st.tuples(st.sampled_from([0.0, 59.5, 60.0, 88.25]), st.sampled_from([12.0, 60.0, 100.0]))
_COMMITS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, len(CATEGORIES) - 1),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=2).map(tuple),
        st.sampled_from(["", "x", "fix it"]),
        st.booleans(),
    ),
    max_size=8,
)
_TEAM_SPECS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["amy", "ben", "cal", "dee"]), min_size=2, max_size=2, unique=True),
        st.tuples(_GRADES, _GRADES),
        st.booleans(),
        _COMMITS,
    ),
    min_size=1,
    max_size=4,
)
_TIE = [(0, 0, ((2, 1),), "x", True), (1, 2, ((2, 3),), "fix it", False)]


def _drawn_team(spec, index, swap=False):
    ids, grades, selected, commits = spec
    members = [RosterMember(m, *g, (m,)) for m, g in zip(ids, grades)]
    if swap:
        members.reverse()
    team = TeamRecord(f"t{index}", "P2", tuple(members), selected)
    labeled = [
        LabeledCommit(
            commit=CommitRecord(
                sha=f"{index:020x}{n:020x}",
                author_key=ids[slot],
                author_id=ids[slot],
                timestamp=n,
                message=message,
                files=tuple(FileStat(f"f{k}.java", a, d) for k, (a, d) in enumerate(files)),
            ),
            category=CATEGORIES[category],
            pair_programming=pair,
        )
        for n, (slot, category, files, message, pair) in enumerate(commits)
    ]
    return team, labeled


@settings(max_examples=150, deadline=None)
@given(specs=_TEAM_SPECS)
# a team with no commits, a member with no commits, a tie on additions and commits
@example(specs=[(["amy", "ben"], ((70.0, 80.0), (59.5, 60.0)), False, [])])
@example(specs=[(["ben", "amy"], ((70.0, 80.0), (0.0, 12.0)), True, _TIE[:1] * 3)])
@example(specs=[(["ben", "amy"], ((70.0, 80.0), (88.25, 100.0)), False, _TIE)])
def test_build_matrix_rows_equal_one_team_extraction(specs):
    # every team also appears with its roster rows swapped
    labeled_teams = [_drawn_team(spec, i) for i, spec in enumerate(specs)]
    labeled_teams += [_drawn_team(spec, i, swap=True) for i, spec in enumerate(specs)]
    build = build_matrix(labeled_teams)
    assert build.raw.shape == (len(labeled_teams), len(REGISTRY))
    assert build.team_ids == [team.team_id for team, _ in labeled_teams]
    for row, users, (team, labeled) in zip(build.raw, build.users, labeled_teams):
        assert np.array_equal(row, extract_features(team, labeled).values)
        assert users == order_users(team, labeled)
        want = brute_force_vector(team, labeled, REGISTRY)
        for name, got, expected in zip(REGISTRY, row, want):
            if "share" in name or "avg" in name:
                assert abs(got - expected) <= 1e-9, name
            else:
                assert got == expected, name
    half = len(specs)
    assert np.array_equal(build.raw[:half], build.raw[half:])
    assert build.users[:half] == build.users[half:]


def _zscore(raw):
    means, stds = standardize_fit(raw)
    return standardize_apply(raw, means, stds)


def test_build_matrix_shapes_and_standardization():
    teams, truth = generate_corpus(GenConfig(seed=5, n_teams=8, noise_rate=0.1))
    labeled_teams = [(t, truth_labeled_commits(t, truth)) for t in teams]
    build = build_matrix(labeled_teams)
    assert build.raw.shape == (8, len(REGISTRY))
    z = _zscore(build.raw)
    assert z.shape == build.raw.shape
    assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
    assert build.team_ids == [t.team_id for t in teams]


def test_build_matrix_identical_teams_identical_rows():
    team = _team()
    labeled = [
        _labeled("amy", CommitCategory.IMPLEMENTATION, add=30, message="aa"),
        _labeled("ben", CommitCategory.TEST, add=60, message="bb"),
    ]
    build = build_matrix([(team, labeled), (team, labeled)])
    assert np.array_equal(build.raw[0], build.raw[1])
    assert np.all(_zscore(build.raw) == 0.0)  # zero variance everywhere


def test_single_team_standardized_row_is_zero():
    team = _team()
    labeled = [_labeled("amy", CommitCategory.IMPLEMENTATION, add=30)]
    build = build_matrix([(team, labeled)])
    assert np.all(_zscore(build.raw) == 0.0)


def test_vector_getitem_matches_registry_order():
    team = _team()
    # amy is the only committer, so she has MORE added lines and becomes user 1
    labeled = [_labeled("amy", CommitCategory.STYLE, add=2, message="s")]
    vec = extract_features(team, labeled)
    assert isinstance(vec, TeamFeatureVector)
    idx = REGISTRY.index("u1_commits_style")
    assert vec.values[idx] == vec["u1_commits_style"] == 1.0
    assert vec["u0_commits_style"] == 0.0


# a drawn dataset on disk: the number of teams and its commits, each
# (author, files, message, category index, pair, sha upper-cased); an author
# is (team, member slot, key spelling) or None for a key no member claims, and
# a file is (additions, deletions) or None for a binary file
_DISK_COMMITS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2))),
        st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 40), st.integers(0, 40))), max_size=3),
        st.sampled_from(["", "x", "fix it", "wrote tests"]),
        st.integers(0, len(CATEGORIES) - 1),
        st.booleans(),
        st.booleans(),
    ),
    max_size=12,
)


def _write_dataset(data: Path, n_teams: int, commits) -> None:
    """roster.csv, commits.jsonl and labels.jsonl of a drawn dataset; commits
    of unclaimed authors get no label."""
    teams = [
        TeamRecord(
            f"t{t}", "P2",
            tuple(RosterMember(f"m{t}{k}", 40.0 + 15 * k, 75.0 - 10 * t, (f"m{t}{k}", f"m{t}{k}@x.edu"))
                  for k in (0, 1)),
            t % 2 == 0,
        )
        for t in range(n_teams)
    ]
    dump_roster(teams, data / "roster.csv")
    with open(data / "commits.jsonl", "w", encoding="utf-8") as commits_fh, \
            open(data / "labels.jsonl", "w", encoding="utf-8") as labels_fh:
        for i, (author, files, message, category, pair, upper) in enumerate(commits):
            sha = hashlib.sha1(str(i).encode()).hexdigest()
            if author is None or author[0] >= n_teams:
                key = f"stranger{i}"
            else:
                t, k, spelling = author
                key = [f"m{t}{k}", f"M{t}{k}", f"m{t}{k}@X.edu"][spelling]
                labels_fh.write(json.dumps({
                    "sha": sha, "category": CATEGORIES[category].value, "pair_programming": pair,
                }) + "\n")
            commits_fh.write(json.dumps({
                "sha": sha.upper() if upper else sha,
                "author": key,
                "ts": 1443657600 + i,
                "msg": message,
                "files": [
                    {"path": f"f{j}.java", "add": None if f is None else f[0], "del": None if f is None else f[1]}
                    for j, f in enumerate(files)
                ],
            }) + "\n")


@settings(max_examples=60, deadline=None)
@given(n_teams=st.integers(1, 3), commits=_DISK_COMMITS)
# a team without commits, and a member without commits beside a binary-only commit
@example(n_teams=2, commits=[((0, 0, 0), [(3, 1)], "x", 0, False, True)])
@example(n_teams=1, commits=[((0, 1, 2), [None], "", 5, True, False), (None, [], "x", 1, False, False)])
def test_loaded_dataset_matrix_equals_record_path_and_oracle(n_teams, commits):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        _write_dataset(data, n_teams, commits)
        build = _compute_matrix({name: (data / file, (data / file).read_bytes()) for name, file in _DATASET_FILES.items()})
        labels = {}
        with open(data / "labels.jsonl", encoding="utf-8") as fh:
            for line in fh:
                raw = json.loads(line)
                labels[raw["sha"]] = (CommitCategory(raw["category"]), raw["pair_programming"])
        assembly = build_teams(load_commits_jsonl(data / "commits.jsonl"), load_roster(data / "roster.csv"))
    claimed = sum(author is not None and author[0] < n_teams for author, *_ in commits)
    assert sum(len(team.commits) for team in assembly.teams) == claimed
    assert assembly.unmatched == len(commits) - claimed
    labeled_teams = [
        (team, [LabeledCommit(c, *labels[c.sha]) for c in team.commits]) for team in assembly.teams
    ]
    want = build_matrix(labeled_teams)
    assert build.team_ids == want.team_ids and build.users == want.users
    assert np.array_equal(build.raw, want.raw)
    for row, (team, labeled) in zip(build.raw, labeled_teams):
        for name, got, expected in zip(REGISTRY, row, brute_force_vector(team, labeled, REGISTRY)):
            if "share" in name or "avg" in name:
                assert abs(got - expected) <= 1e-9, name
            else:
                assert got == expected, name
