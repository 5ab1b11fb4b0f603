"""Per-team contribution features over labeled commits.

For each of the two users and each scope (the whole project plus the seven
commit categories) the registry carries counts, line churn, per-commit
averages, team shares, and message lengths; team-level entries add pair
programming totals, prior grades, at-risk flags, and the selection method.
Users are canonically ordered so that user 0 is the member with fewer total
added lines, making vectors independent of roster row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .commitcls import CATEGORIES, LabeledCommit
from .errors import DataError
from .ingest import TeamRecord

REGISTRY_VERSION = "1"
RISK_GRADE_CUTOFF = 60.0

SCOPES = ["whole"] + [c.value.lower() for c in CATEGORIES]

# per-user per-scope metrics, in registry order
_SCOPED_METRICS = [
    "commits",
    "additions",
    "deletions",
    "files_changed",
    "churn",
    "avg_additions",
    "avg_deletions",
    "avg_files_changed",
    "avg_churn",
    "commit_share",
    "additions_share",
    "deletions_share",
    "files_changed_share",
    "churn_share",
    "msg_len_total",
    "msg_len_avg",
]

_TEAM_LEVEL = [
    "u0_pair_commits",
    "u1_pair_commits",
    "team_pair_commits",
    "u0_exam1_grade",
    "u0_project1_grade",
    "u1_exam1_grade",
    "u1_project1_grade",
    "u0_exam1_risk",
    "u0_project1_risk",
    "u1_exam1_risk",
    "u1_project1_risk",
    "team_any_risk",
    "team_selected",
]


def feature_registry() -> list[str]:
    """The ordered, named feature columns shared by every team in a dataset."""
    names = []
    for user in (0, 1):
        for scope in SCOPES:
            for metric in _SCOPED_METRICS:
                names.append(f"u{user}_{metric}_{scope}")
    names.extend(_TEAM_LEVEL)
    return names


REGISTRY = feature_registry()
_REGISTRY_INDEX = {name: i for i, name in enumerate(REGISTRY)}


@dataclass(frozen=True)
class UserOrdering:
    user0: str
    user1: str


@dataclass
class TeamFeatureVector:
    team_id: str
    values: np.ndarray
    registry: list[str]

    def __getitem__(self, name: str) -> float:
        return float(self.values[_REGISTRY_INDEX[name]])


def order_users(team: TeamRecord, labeled: Sequence[LabeledCommit]) -> UserOrdering:
    """User 0 is the member with fewer total added lines.

    Ties fall back to fewer commits, then lexicographic member id.
    """
    ids = team.member_ids()
    additions = {m: 0 for m in ids}
    counts = {m: 0 for m in ids}
    for item in labeled:
        who = _commit_owner(item, team)
        additions[who] += item.commit.additions
        counts[who] += 1
    first, second = sorted(ids, key=lambda m: (additions[m], counts[m], m))
    return UserOrdering(user0=first, user1=second)


def _commit_owner(item: LabeledCommit, team: TeamRecord) -> str:
    owner = item.commit.author_id
    if owner is None or owner not in team.member_ids():
        raise DataError(
            f"commit {item.commit.sha} is not resolved to a member of "
            f"team {team.team_id!r}"
        )
    return owner


def extract_features(
    team: TeamRecord,
    labeled: Sequence[LabeledCommit],
    ordering: UserOrdering | None = None,
) -> TeamFeatureVector:
    """Compute the full registry for one team; all commits must be resolved."""
    if ordering is None:
        ordering = order_users(team, labeled)
    users = (ordering.user0, ordering.user1)

    # accumulators[user][scope] = [commits, add, del, files, churn, msg_len]
    acc = {
        u: {scope: [0, 0, 0, 0, 0, 0] for scope in SCOPES} for u in users
    }
    pair_counts = {u: 0 for u in users}
    for item in labeled:
        who = _commit_owner(item, team)
        c = item.commit
        row = (1, c.additions, c.deletions, c.files_changed, c.churn, len(c.message))
        for scope in ("whole", item.category.value.lower()):
            bucket = acc[who][scope]
            for i, v in enumerate(row):
                bucket[i] += v
        if item.pair_programming:
            pair_counts[who] += 1

    values = np.zeros(len(REGISTRY), dtype=np.float64)
    pos = 0
    for user_idx, user in enumerate(users):
        for scope in SCOPES:
            mine = acc[user][scope]
            theirs = acc[users[1 - user_idx]][scope]
            commits, adds, dels, files, churn, msg_len = mine
            block = [
                float(commits),
                float(adds),
                float(dels),
                float(files),
                float(churn),
                adds / commits if commits else 0.0,
                dels / commits if commits else 0.0,
                files / commits if commits else 0.0,
                churn / commits if commits else 0.0,
                _share(commits, theirs[0], user_idx),
                _share(adds, theirs[1], user_idx),
                _share(dels, theirs[2], user_idx),
                _share(files, theirs[3], user_idx),
                _share(churn, theirs[4], user_idx),
                float(msg_len),
                msg_len / commits if commits else 0.0,
            ]
            values[pos : pos + len(block)] = block
            pos += len(block)

    members = {m.member_id: m for m in team.members}
    u0, u1 = members[users[0]], members[users[1]]
    team_level = [
        float(pair_counts[users[0]]),
        float(pair_counts[users[1]]),
        float(pair_counts[users[0]] + pair_counts[users[1]]),
        u0.exam1_grade,
        u0.project1_grade,
        u1.exam1_grade,
        u1.project1_grade,
        float(u0.exam1_grade < RISK_GRADE_CUTOFF),
        float(u0.project1_grade < RISK_GRADE_CUTOFF),
        float(u1.exam1_grade < RISK_GRADE_CUTOFF),
        float(u1.project1_grade < RISK_GRADE_CUTOFF),
        float(
            u0.exam1_grade < RISK_GRADE_CUTOFF
            or u0.project1_grade < RISK_GRADE_CUTOFF
            or u1.exam1_grade < RISK_GRADE_CUTOFF
            or u1.project1_grade < RISK_GRADE_CUTOFF
        ),
        float(team.selected),
    ]
    values[pos:] = team_level
    return TeamFeatureVector(team_id=team.team_id, values=values, registry=REGISTRY)


def _share(mine: int, theirs: int, user_idx: int) -> float:
    """User share of a team total; user 1 gets 1 - share(user 0) exactly."""
    total = mine + theirs
    if total == 0:
        return 0.0
    if user_idx == 0:
        return mine / total
    return 1.0 - theirs / total


@dataclass
class MatrixBuild:
    """The raw feature matrix, one row per team."""

    team_ids: list[str]
    registry: list[str]
    raw: np.ndarray


def build_matrix(
    labeled_teams: Sequence[tuple[TeamRecord, Sequence[LabeledCommit]]],
) -> MatrixBuild:
    """Stack per-team vectors into a matrix."""
    if not labeled_teams:
        raise DataError("no teams to build a feature matrix from")
    vectors = [extract_features(team, labeled) for team, labeled in labeled_teams]
    return MatrixBuild(
        team_ids=[v.team_id for v in vectors],
        registry=REGISTRY,
        raw=np.vstack([v.values for v in vectors]),
    )
