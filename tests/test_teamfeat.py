import numpy as np
import pytest

from oracle_features import brute_force_vector
from teamscope.commitcls import CommitCategory, LabeledCommit
from teamscope.errors import DataError
from teamscope.ingest import CommitRecord, FileStat, RosterMember, TeamRecord
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
        is_merge_shape=not files,
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
    ordering = order_users(team, labeled)
    assert (ordering.user0, ordering.user1) == ("amy", "ben")


def test_order_users_commit_count_tiebreak():
    team = _team()
    labeled = [
        _labeled("amy", CommitCategory.OTHER, message="a"),
        _labeled("amy", CommitCategory.OTHER, message="b"),
        _labeled("ben", CommitCategory.OTHER, message="c"),
        _labeled("ben", CommitCategory.OTHER, message="d"),
        _labeled("ben", CommitCategory.OTHER, message="e"),
    ]
    ordering = order_users(team, labeled)
    assert ordering.user0 == "amy"  # 0 additions each; amy has 2 commits vs 3


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
