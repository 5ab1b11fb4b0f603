"""Seeded generator of synthetic teams, commits, and ground truth.

Teams are planned style-first: per project part, user 0 is given a target
churn share matching the intended work style (balanced shares in common
parts for collaborative teams, near-exclusive part ownership for
cooperative ones, a tiny share everywhere for solo-submit), commit sizes
are drawn per category, and commits are dealt to the two users by a greedy
fill that tracks the target. Every finished team is re-checked against the
style rubric and regenerated with a fresh derived seed on mismatch, so
emitted ground truth is consistent by construction. One feature matrix and
one rubric pass check each attempt round (attempt a of every team not yet
accepted); each (seed, team, attempt) has its own generator, so the rounds
change no draw. Subsets are drawn bound for bound as ``Generator.choice``
draws them, from cheaper calls, so corpora keep their bytes. Messages come from
per-category template pools; the noise rate controls appended filler,
cross-category, and gibberish tokens (never touching the keyword that makes
merge/documentation/style templates statically recoverable).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import textnorm
from .commitcls import CommitCategory, LabeledCommit, detect_pair_programming
from .errors import DataError
from .ingest import CommitRecord, FileStat, RosterMember, TeamRecord, dump_commits_jsonl, dump_roster
from .mlcore import choice_bounds, seed_sequence, sorted_choices
from .teamfeat import build_matrix
from .teamstyle import RUBRIC_PARTS, TeamStyle, rubric_styles

# fraction of a team's commits per category, loosely shaped like real course data
CATEGORY_MIX = {
    CommitCategory.IMPLEMENTATION: 0.33,
    CommitCategory.BUGFIX: 0.27,
    CommitCategory.TEST: 0.14,
    CommitCategory.DOCUMENTATION: 0.06,
    CommitCategory.STYLE: 0.05,
    CommitCategory.MERGE: 0.06,
    CommitCategory.OTHER: 0.09,
}

# (add_lo, add_hi, del_lo, del_hi) lines per commit
CHURN_RANGES = {
    CommitCategory.IMPLEMENTATION: (20, 120, 0, 30),
    CommitCategory.TEST: (15, 80, 0, 20),
    CommitCategory.BUGFIX: (2, 30, 1, 20),
    CommitCategory.DOCUMENTATION: (3, 30, 0, 8),
    CommitCategory.STYLE: (1, 15, 1, 15),
    CommitCategory.MERGE: (0, 0, 0, 0),
    CommitCategory.OTHER: (0, 8, 0, 4),
}
PROJECT_ID = "P2"
# attempts per team at a plan that passes the rubric re-check
MAX_RETRIES = 50

_PATH_POOLS = {
    "src": [
        "src/Main.java",
        "src/Scheduler.java",
        "src/CourseRoster.java",
        "src/ActivityList.java",
        "src/ui/MainGUI.java",
        "src/util/SortedList.java",
        "src/model/Course.java",
        "src/model/Event.java",
    ],
    "test": [
        "test/SchedulerTest.java",
        "test/CourseRosterTest.java",
        "test/ActivityListTest.java",
        "test/util/SortedListTest.java",
    ],
    "doc": ["README.md", "doc/design.md", "doc/javadoc/index.html"],
}
_BINARY_PATHS = ["img/logo.png", "lib/junit.jar"]

_CROSS_BLEED = {
    CommitCategory.IMPLEMENTATION: ["added", "implement", "method", "class"],
    CommitCategory.TEST: ["test", "coverage", "cases"],
    CommitCategory.BUGFIX: ["fixed", "bug", "issue"],
}

_GIBBERISH_LETTERS = "bcdfghjklmnpqrstvwxz"
_BASE_TIMESTAMP = 1443657600  # fall-semester epoch for synthetic histories


@dataclass
class GenConfig:
    seed: int = 0
    n_teams: int = 150
    style_mix: tuple[float, float, float] = (0.57, 0.29, 0.14)  # collab, coop, solo
    commits_per_team: tuple[int, int] = (35, 75)
    noise_rate: float = 0.1
    pair_rate: float = 0.05

    def __post_init__(self):
        # "not <=" so that a NaN or infinite entry, which makes the sum NaN or infinite, fails too
        if not abs(sum(self.style_mix) - 1.0) <= 1e-9:
            raise ValueError(f"style_mix must sum to 1, got {self.style_mix}")
        if any(m < 0 for m in self.style_mix):
            raise ValueError("style_mix entries must be non-negative")
        lo, hi = self.commits_per_team
        if not (0 < lo <= hi):
            raise ValueError(f"empty commits_per_team range {self.commits_per_team}")
        if self.n_teams < 1:
            raise ValueError(f"n_teams must be at least 1, got {self.n_teams}")
        # about ten times the largest course measured; checked before any size becomes a float or a list
        if self.n_teams * hi > 1_000_000:
            raise ValueError(
                f"n_teams (--teams) {self.n_teams} times the most commits_per_team (the HI of --commits) "
                f"{hi} allows more than 1000000 commits"
            )
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must be within [0, 1]")
        if not 0.0 <= self.pair_rate <= 1.0:
            raise ValueError("pair_rate must be within [0, 1]")


@dataclass
class GroundTruth:
    team_styles: dict[str, TeamStyle]
    commit_categories: dict[str, CommitCategory]


def _largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    raw = [w * total for w in weights]
    counts = [int(r) for r in raw]
    shortfall = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


@dataclass
class _TemplatePools:
    by_category: dict[CommitCategory, list[str]]
    fillers: list[str]

    @classmethod
    def load(cls) -> "_TemplatePools":
        by_category = {cat: textnorm.read_entries(f"templates_{cat.value.lower()}.txt") for cat in CommitCategory}
        fillers = textnorm.read_entries("noise_fillers.txt")
        return cls(by_category=by_category, fillers=fillers)


def _gibberish_token(rng: np.random.Generator, veto: frozenset[str]) -> str:
    for _ in range(100):
        length = int(rng.integers(4, 8))
        token = "".join(
            _GIBBERISH_LETTERS[int(i)]
            for i in rng.integers(0, len(_GIBBERISH_LETTERS), size=length)
        )
        if token not in veto:
            return token
    raise RuntimeError("could not draw a non-word gibberish token")


def generate_corpus(config: GenConfig) -> tuple[list[TeamRecord], GroundTruth]:
    """Generate ``n_teams`` teams with commits and consistent ground truth."""
    pools = _TemplatePools.load()
    lexicon = textnorm.default_lexicon()
    veto = lexicon.meaningful_words | lexicon.stopwords

    style_counts = _largest_remainder(config.style_mix, config.n_teams)
    styles = (
        [TeamStyle.COLLABORATIVE] * style_counts[0]
        + [TeamStyle.COOPERATIVE] * style_counts[1]
        + [TeamStyle.SOLO_SUBMIT] * style_counts[2]
    )
    corpus_rng = np.random.default_rng(seed_sequence(config.seed))
    styles = [styles[i] for i in corpus_rng.permutation(len(styles))]

    # round a plans attempt a of every team not yet accepted
    plans: list = [None] * len(styles)
    pending = list(range(len(styles)))
    for attempt in range(MAX_RETRIES):
        planned = [_plan_team(config, pools, veto, i, attempt, styles[i]) for i in pending]
        for i, plan, verdict in zip(pending, planned, rubric_styles(build_matrix(planned))):
            if verdict == styles[i]:
                plans[i] = plan
        pending = [i for i in pending if plans[i] is None]
        if not pending:
            break
    else:
        raise DataError(
            f"team {pending[0]}: {MAX_RETRIES} attempts failed to "
            f"satisfy the {styles[pending[0]].value} rubric"
        )

    teams = [team for team, _ in plans]
    truth_styles = {team.team_id: style for team, style in zip(teams, styles)}
    truth_categories = {item.commit.sha: item.category for _, labeled in plans for item in labeled}
    return teams, GroundTruth(team_styles=truth_styles, commit_categories=truth_categories)


def _plan_team(config, pools, veto, team_idx, attempt, intended):
    """Attempt ``attempt`` at team ``team_idx``, and its commits labeled with their
    categories; the rubric may still find another style than ``intended``."""
    rng = np.random.default_rng(seed_sequence(config.seed, team_idx, attempt))
    team_id = f"t{team_idx:03d}"
    member_ids = (f"s{team_idx:03d}a", f"s{team_idx:03d}b")
    members = tuple(
        RosterMember(
            member_id=mid,
            exam1_grade=round(float(rng.uniform(45, 100)), 1),
            project1_grade=round(float(rng.uniform(45, 100)), 1),
            author_keys=(mid, f"{mid}@example.edu"),
        )
        for mid in member_ids
    )
    selected = bool(rng.random() < 0.6)

    n_commits = int(rng.integers(config.commits_per_team[0], config.commits_per_team[1] + 1))
    cats = list(CATEGORY_MIX)
    counts = dict(zip(cats, _largest_remainder([CATEGORY_MIX[c] for c in cats], n_commits)))
    for cat in RUBRIC_PARTS[:3]:  # implementation/test/bugfix always present
        if counts[cat] < 2:
            counts[cat] += 2

    shares = _plan_shares(rng, intended)

    # user index -> list of (category, additions, deletions)
    commit_specs: list[tuple[int, CommitCategory, int, int]] = []
    for cat in RUBRIC_PARTS:
        specs = _sized_commits(rng, CHURN_RANGES[cat], counts[cat])
        commit_specs.extend(
            (user, cat, add, dele)
            for user, (add, dele) in _deal_to_users(specs, shares[cat])
        )
    solo = intended == TeamStyle.SOLO_SUBMIT
    for cat in (CommitCategory.MERGE, CommitCategory.OTHER):
        for add, dele in _sized_commits(rng, CHURN_RANGES[cat], counts[cat]):
            user = 0 if rng.random() < (0.05 if solo else 0.5) else 1
            commit_specs.append((user, cat, add, dele))
    if solo and not any(user == 0 for user, *_ in commit_specs):
        # the quiet member still pokes at the repo once
        commit_specs.append((0, CommitCategory.BUGFIX, 1, 1))

    order = rng.permutation(len(commit_specs))
    timestamp = _BASE_TIMESTAMP + team_idx * 7 * 86400
    labeled: list[LabeledCommit] = []
    for seq, spec_idx in enumerate(order.tolist()):
        user, cat, add, dele = commit_specs[spec_idx]
        timestamp += int(rng.integers(180, 14401))
        sha = hashlib.sha1(
            f"{config.seed}:{team_id}:{attempt}:{seq}".encode()
        ).hexdigest()
        message = _render_message(rng, pools, veto, config, cat, intended)
        member = members[user]
        key = member.author_keys[int(rng.integers(0, len(member.author_keys)))]
        commit = CommitRecord(
            sha=sha,
            author_key=key,
            author_id=member.member_id,
            timestamp=timestamp,
            message=message,
            files=_render_files(rng, cat, add, dele),
        )
        labeled.append(LabeledCommit(commit=commit, category=cat, pair_programming=False))

    team = TeamRecord(
        team_id=team_id,
        project_id=PROJECT_ID,
        members=members,
        selected=selected,
        commits=tuple(item.commit for item in labeled),
    )
    return team, labeled


def _plan_shares(rng, intended) -> dict[CommitCategory, float]:
    """Target user-0 churn share per rubric part for the intended style."""
    parts = list(RUBRIC_PARTS)
    if intended == TeamStyle.COLLABORATIVE:
        n_common = int(rng.integers(2, 5))
        common = _sorted_subset(rng, len(parts), n_common)
        return {
            part: float(rng.uniform(0.40, 0.60))
            if i in common
            else float(rng.uniform(0.05, 0.15))
            for i, part in enumerate(parts)
        }
    if intended == TeamStyle.COOPERATIVE:
        owners = [0, 0, 1, 1, rng.integers(0, 2)]
        owners = [int(owners[int(i)]) for i in rng.permutation(len(owners))]
        return {
            part: float(rng.uniform(0.85, 0.95)) if owner == 0 else float(rng.uniform(0.05, 0.15))
            for part, owner in zip(parts, owners)
        }
    return {part: float(rng.uniform(0.01, 0.06)) for part in parts}


def _sized_commits(rng, churn_range, count) -> list[tuple[int, int]]:
    """``count`` (additions, deletions) pairs, drawn add, delete, add, ..."""
    add_lo, add_hi, del_lo, del_hi = churn_range
    sizes = rng.integers((add_lo, del_lo), (add_hi + 1, del_hi + 1), size=(count, 2))
    return list(map(tuple, sizes.tolist()))


def _deal_to_users(specs, user0_share):
    """Greedy churn split tracking user 0's target share, biggest commits first."""
    total = sum(add + dele for add, dele in specs)
    target0 = user0_share * total
    target1 = total - target0
    got0 = got1 = 0
    dealt = []
    for add, dele in sorted(specs, key=lambda s: -(s[0] + s[1])):
        churn = add + dele
        if target0 - got0 > target1 - got1:
            dealt.append((0, (add, dele)))
            got0 += churn
        else:
            dealt.append((1, (add, dele)))
            got1 += churn
    return dealt


def _render_message(rng, pools, veto, config, cat, intended) -> str:
    pool = pools.by_category[cat]
    message = pool[int(rng.integers(0, len(pool)))]
    if config.noise_rate <= 0:
        return message
    extras: list[str] = []
    if cat == CommitCategory.OTHER:
        if rng.random() < config.noise_rate:
            extras.append(_gibberish_token(rng, veto))
    else:
        if rng.random() < config.noise_rate:
            extras.append(pools.fillers[int(rng.integers(0, len(pools.fillers)))])
        if cat in _CROSS_BLEED and rng.random() < config.noise_rate / 2:
            others = [c for c in _CROSS_BLEED if c != cat]
            donor = others[int(rng.integers(0, len(others)))]
            bleed = _CROSS_BLEED[donor]
            extras.append(bleed[int(rng.integers(0, len(bleed)))])
        if rng.random() < config.noise_rate / 2:
            extras.append(_gibberish_token(rng, veto))
        pair_p = config.pair_rate * {
            TeamStyle.COLLABORATIVE: 1.0,
            TeamStyle.COOPERATIVE: 0.4,
            TeamStyle.SOLO_SUBMIT: 0.0,
        }[intended]
        if cat in _CROSS_BLEED and rng.random() < pair_p:
            extras.append("pair programming" if rng.random() < 0.5 else "pp")
    if not extras:
        return message
    return message + " " + " ".join(extras)


def _render_files(rng, cat, add, dele) -> tuple[FileStat, ...]:
    if cat == CommitCategory.MERGE:
        return ()
    if cat == CommitCategory.TEST:
        pool = _PATH_POOLS["test"]
    elif cat == CommitCategory.DOCUMENTATION:
        pool = _PATH_POOLS["doc"]
    else:
        pool = _PATH_POOLS["src"]
    n_files = 1 + int(rng.random() < 0.45) + int(rng.random() < 0.15)
    n_files = min(n_files, len(pool))
    chosen = _sorted_subset(rng, len(pool), n_files)
    adds = _split_lines(rng, add, n_files)
    dels = _split_lines(rng, dele, n_files)
    files = [
        FileStat(path=pool[i], additions=a, deletions=d)
        for i, a, d in zip(chosen, adds, dels)
    ]
    if rng.random() < 0.04:
        files.append(
            FileStat(
                path=_BINARY_PATHS[int(rng.integers(0, len(_BINARY_PATHS)))],
                additions=0,
                deletions=0,
                binary=True,
            )
        )
    return tuple(files)


def _sorted_subset(rng, n, k) -> list[int]:
    """``sorted(rng.choice(n, k, replace=False))`` with the same draws.

    For synth's few picks, scalar draws cost less than one array draw.
    """
    bounds, picks = _choices(n, k)
    draws = tuple([int(rng.integers(0, b)) for b in bounds])
    return list(picks[draws[:k]])


@functools.lru_cache(maxsize=None)
def _choices(n, k) -> tuple[tuple[int, ...], dict]:
    """The bounds of ``choice(n, k)``'s draws, and its sorted picks for each
    possible tuple of Floyd's draws: n! / (n - k)! of them, at most a few
    hundred for synth's pools."""
    bounds = choice_bounds(n, k)
    floyd = np.indices(bounds[:k]).reshape(k, -1).T
    return tuple(bounds.tolist()), dict(zip(map(tuple, floyd.tolist()), sorted_choices(floyd, n).tolist()))


def _split_lines(rng, total, parts) -> list[int]:
    if parts == 1:
        return [total]
    cuts = sorted(int(rng.integers(0, total + 1)) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def truth_labeled_commits(team: TeamRecord, truth: GroundTruth) -> list[LabeledCommit]:
    """Labeled commits using ground-truth categories and detected pair flags."""
    lexicon = textnorm.default_lexicon()
    out = []
    for c in team.commits:
        tokens = textnorm.normalize(c.message, lexicon)
        out.append(
            LabeledCommit(
                commit=c,
                category=truth.commit_categories[c.sha],
                pair_programming=detect_pair_programming(tokens),
            )
        )
    return out


def write_corpus(teams: Sequence[TeamRecord], truth: GroundTruth, outdir) -> list[Path]:
    """Emit the ingest-facing dataset files plus ground-truth CSVs; the paths written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / name for name in ("commits.jsonl", "roster.csv", "truth_commits.csv", "truth_teams.csv")]
    commits_path, roster_path, truth_commits_path, truth_teams_path = paths
    all_commits = [c for team in teams for c in team.commits]
    dump_commits_jsonl(all_commits, commits_path)
    dump_roster(teams, roster_path)
    with open(truth_commits_path, "w", encoding="utf-8") as fh:
        fh.write("sha,category\n")
        for c in all_commits:
            fh.write(f"{c.sha},{truth.commit_categories[c.sha].value}\n")
    with open(truth_teams_path, "w", encoding="utf-8") as fh:
        fh.write("team_id,style\n")
        for team in teams:
            fh.write(f"{team.team_id},{truth.team_styles[team.team_id].value}\n")
    return paths
