"""Per-team contribution features over labeled commits.

For each of the two users and each scope (the whole project plus the seven
commit categories) the registry carries counts, line churn, per-commit
averages, team shares, and message lengths; team-level entries add pair
programming totals, prior grades, at-risk flags, and the selection method.
Users are canonically ordered so that user 0 is the member with fewer total
added lines, making vectors independent of roster row order.

``matrix_from_columns`` computes every team's row in one batched pass from
per-commit integer columns. ``build_matrix`` feeds it labeled commit
records; ``extract_features`` and ``order_users`` are its one-team calls.
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
# a commit category's scope index; scope 0 is the whole project
SCOPE_CODE = {category: i for i, category in enumerate(CATEGORIES, start=1)}


@dataclass
class TeamFeatureVector:
    team_id: str
    values: np.ndarray
    registry: list[str]

    def __getitem__(self, name: str) -> float:
        return float(self.values[_REGISTRY_INDEX[name]])


@dataclass
class FeatureMatrix:
    """The raw feature matrix, one row per team, under the registry's columns."""

    team_ids: list[str]
    registry: list[str]
    raw: np.ndarray


@dataclass
class MatrixBuild(FeatureMatrix):
    """A computed feature matrix and each row's (user 0, user 1)."""

    users: list[tuple[str, str]]


def build_matrix(
    labeled_teams: Sequence[tuple[TeamRecord, Sequence[LabeledCommit]]],
) -> MatrixBuild:
    """Compute the full registry for every team; all commits must be resolved.

    The commits become :func:`matrix_from_columns`' columns, one row each.
    """
    columns = []
    for row, (team, labeled) in enumerate(labeled_teams):
        slots = {member: slot for slot, member in enumerate(team.member_ids())}
        for item in labeled:
            c = item.commit
            slot = slots.get(c.author_id)
            if slot is None:
                raise DataError(
                    f"commit {c.sha} is not resolved to a member of "
                    f"team {team.team_id!r}"
                )
            columns.append((
                row, slot, SCOPE_CODE[item.category], item.pair_programming,
                c.additions, c.deletions, len(c.files), len(c.message),
            ))
    return matrix_from_columns(
        [team for team, _ in labeled_teams],
        *np.array(columns, dtype=np.int64).reshape(-1, 8).T,
    )


def matrix_from_columns(
    teams: Sequence[TeamRecord],
    team_row: np.ndarray,
    slot: np.ndarray,
    scope: np.ndarray,
    pair: np.ndarray,
    additions: np.ndarray,
    deletions: np.ndarray,
    files: np.ndarray,
    msg_len: np.ndarray,
) -> MatrixBuild:
    """Compute the full registry for every team from per-commit columns.

    Entry ``i`` of each column describes one commit on a team: its row in
    ``teams``, its author's member slot there (roster order), its scope
    (``SCOPE_CODE``), its pair-programming flag, its line counts, its file
    count and its message length. ``np.add.at`` sums them per (team, member,
    scope), and every registry column is then computed elementwise. Integer
    sums are exact, so a row does not depend on commit order, and each
    average or share is one IEEE division.
    """
    if not teams:
        raise DataError("no teams to build a feature matrix from")
    n = len(teams)
    sums, pairs = _member_sums(n, team_row, slot, scope, pair, additions, deletions, files, msg_len)

    # user 0 has fewer added lines, then fewer commits, then the smaller member id
    ids = [team.member_ids() for team in teams]
    totals = sums[:, :, 0, 1::-1].tolist()  # per team and slot: [additions, commits]
    order = np.array([
        sorted((0, 1), key=lambda s: (*totals[t][s], ids[t][s])) for t in range(n)
    ])
    rows = np.arange(n)[:, None]
    sums, pairs = sums[rows, order], pairs[rows, order]
    grades = np.array(
        [[(m.exam1_grade, m.project1_grade) for m in team.members] for team in teams],
        dtype=np.float64,
    )[rows, order]

    # sums[team, user, scope]: commits, additions, deletions, files, churn, message length
    counts = sums.astype(np.float64)  # exact: far below 2**53
    avg = _ratio(counts[..., 1:], counts[..., :1])  # per commit: add, del, files, churn, msg_len
    total = counts[:, 0, :, :5] + counts[:, 1, :, :5]
    share0 = _ratio(counts[:, 0, :, :5], total)
    # user 1 gets 1 - share(user 0) exactly
    share = np.stack([share0, np.where(total > 0, 1.0 - share0, 0.0)], axis=1)
    scoped = np.concatenate(
        [counts[..., :5], avg[..., :4], share, counts[..., 5:], avg[..., 4:]],
        axis=-1,
    )

    risk = grades < RISK_GRADE_CUTOFF
    team_level = np.column_stack([
        pairs,
        pairs.sum(axis=1),
        grades.reshape(n, 4),
        risk.reshape(n, 4),
        risk.any(axis=(1, 2)),
        [team.selected for team in teams],
    ])
    return MatrixBuild(
        team_ids=[team.team_id for team in teams],
        registry=REGISTRY,
        raw=np.hstack([scoped.reshape(n, -1), team_level]),
        users=[(ids[t][o0], ids[t][o1]) for t, (o0, o1) in enumerate(order.tolist())],
    )


def _member_sums(n, team_row, slot, scope, pair, additions, deletions, files, msg_len):
    """Per team and member slot (roster order), the int64 sums[team, slot, scope]
    of commits, additions, deletions, files, churn and message length, and the
    pair-programming commits. A function of its own so that the stacked
    per-commit values are freed before the float columns are built."""
    stacked = np.column_stack(
        [np.ones_like(additions), additions, deletions, files, additions + deletions, msg_len]
    )
    sums = np.zeros((n, 2, len(SCOPES), 6), dtype=np.int64)
    np.add.at(sums, (team_row, slot, scope), stacked)
    sums[:, :, 0] = sums[:, :, 1:].sum(axis=2)
    pairs = np.zeros((n, 2), dtype=np.int64)
    np.add.at(pairs, (team_row, slot), pair)
    return sums, pairs


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0 where den is 0."""
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    return np.divide(num, den, out=out, where=den != 0)


def extract_features(team: TeamRecord, labeled: Sequence[LabeledCommit]) -> TeamFeatureVector:
    """The registry for one team: a one-team ``build_matrix``."""
    build = build_matrix([(team, labeled)])
    return TeamFeatureVector(team_id=team.team_id, values=build.raw[0], registry=build.registry)


def order_users(team: TeamRecord, labeled: Sequence[LabeledCommit]) -> tuple[str, str]:
    """(user 0, user 1) member ids, as ``build_matrix`` orders them: user 0 is
    the member with fewer added lines, then fewer commits, then the smaller id."""
    return build_matrix([(team, labeled)]).users[0]
