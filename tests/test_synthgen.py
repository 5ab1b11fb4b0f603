import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from teamscope import cli, synthgen, textnorm
from teamscope.commitcls import CommitCategory, _load_keywords
from teamscope.errors import DataError
from teamscope.ingest import build_teams, load_commits_jsonl, load_roster
from teamscope.synthgen import (
    GenConfig,
    generate_corpus,
    truth_labeled_commits,
    write_corpus,
)
from teamscope.teamstyle import TeamStyle, oracle_label


def _corpus_fingerprint(teams, truth):
    blob = {
        "teams": [
            {
                "id": t.team_id,
                "members": [
                    (m.member_id, m.exam1_grade, m.project1_grade, m.author_keys)
                    for m in t.members
                ],
                "selected": t.selected,
                "commits": [
                    (c.sha, c.author_key, c.timestamp, c.message,
                     [(f.path, f.additions, f.deletions, f.binary) for f in c.files])
                    for c in t.commits
                ],
            }
            for t in teams
        ],
        "styles": {k: v.value for k, v in truth.team_styles.items()},
        "categories": {k: v.value for k, v in truth.commit_categories.items()},
    }
    return json.dumps(blob, sort_keys=True)


def test_same_seed_is_byte_identical():
    config = GenConfig(seed=7, n_teams=8, noise_rate=0.1)
    a = _corpus_fingerprint(*generate_corpus(config))
    b = _corpus_fingerprint(*generate_corpus(config))
    assert a == b


def test_different_seed_differs():
    a = _corpus_fingerprint(*generate_corpus(GenConfig(seed=1, n_teams=4)))
    b = _corpus_fingerprint(*generate_corpus(GenConfig(seed=2, n_teams=4)))
    assert a != b


def test_all_solo_mix_verifies_with_oracle():
    teams, truth = generate_corpus(
        GenConfig(seed=13, n_teams=10, style_mix=(0.0, 0.0, 1.0), noise_rate=0.1)
    )
    for team in teams:
        labeled = truth_labeled_commits(team, truth)
        assert oracle_label(team, labeled) == TeamStyle.SOLO_SUBMIT


def test_oracle_matches_intended_style_for_every_team():
    teams, truth = generate_corpus(
        GenConfig(seed=14, n_teams=15, style_mix=(0.4, 0.4, 0.2), noise_rate=0.2)
    )
    for team in teams:
        labeled = truth_labeled_commits(team, truth)
        assert oracle_label(team, labeled) == truth.team_styles[team.team_id]


def test_zero_noise_messages_match_templates_exactly():
    pools = synthgen._TemplatePools.load().by_category
    teams, truth = generate_corpus(GenConfig(seed=15, n_teams=6, noise_rate=0.0))
    for team in teams:
        for commit in team.commits:
            category = truth.commit_categories[commit.sha]
            assert commit.message in pools[category]


def test_static_stages_recover_merge_doc_style():
    lexicon = textnorm.default_lexicon()
    teams, truth = generate_corpus(GenConfig(seed=16, n_teams=10, noise_rate=0.3))
    static_map = {
        CommitCategory.MERGE: _load_keywords("merge"),
        CommitCategory.DOCUMENTATION: _load_keywords("documentation"),
        CommitCategory.STYLE: _load_keywords("style"),
    }
    for team in teams:
        for commit in team.commits:
            category = truth.commit_categories[commit.sha]
            if category not in static_map:
                continue
            tokens = set(textnorm.normalize(commit.message, lexicon))
            assert tokens & static_map[category], commit.message
            # earlier cascade stages must not steal the commit
            if category != CommitCategory.MERGE:
                assert not (tokens & _load_keywords("merge"))
            if category == CommitCategory.STYLE:
                assert not (tokens & _load_keywords("documentation"))


def test_style_mix_counts_follow_largest_remainder():
    teams, truth = generate_corpus(
        GenConfig(seed=17, n_teams=10, style_mix=(0.57, 0.29, 0.14), noise_rate=0.0)
    )
    styles = list(truth.team_styles.values())
    assert styles.count(TeamStyle.COLLABORATIVE) == 6
    assert styles.count(TeamStyle.COOPERATIVE) == 3
    assert styles.count(TeamStyle.SOLO_SUBMIT) == 1


def test_config_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        GenConfig(style_mix=(0.5, 0.5, 0.5))
    for mix in [(float("nan"), 0.0, 0.0), (float("inf"), 0.0, 0.0), (float("inf"), float("-inf"), 1.0)]:
        with pytest.raises(ValueError, match="sum to 1"):
            GenConfig(style_mix=mix)
    with pytest.raises(ValueError, match="commits_per_team"):
        GenConfig(commits_per_team=(10, 5))
    with pytest.raises(ValueError, match="noise_rate"):
        GenConfig(noise_rate=1.5)
    with pytest.raises(ValueError, match="pair_rate"):
        GenConfig(pair_rate=-0.1)
    with pytest.raises(ValueError, match="n_teams"):
        GenConfig(n_teams=0)


def test_written_corpus_round_trips_through_ingest(tmp_path):
    teams, truth = generate_corpus(GenConfig(seed=18, n_teams=5, noise_rate=0.1))
    write_corpus(teams, truth, tmp_path)

    commits = load_commits_jsonl(tmp_path / "commits.jsonl")
    roster = load_roster(tmp_path / "roster.csv")
    assembly = build_teams(commits, roster)
    assert assembly.unmatched == 0
    by_id = {t.team_id: t for t in assembly.teams}
    for team in teams:
        reloaded = by_id[team.team_id]
        assert [c.sha for c in reloaded.commits] == [c.sha for c in team.commits]
        assert all(
            a.author_id == b.author_id and a.files == b.files and a.message == b.message
            for a, b in zip(reloaded.commits, team.commits)
        )

    truth_rows = (tmp_path / "truth_teams.csv").read_text().splitlines()
    assert truth_rows[0] == "team_id,style"
    assert len(truth_rows) == 1 + len(teams)
    commit_rows = (tmp_path / "truth_commits.csv").read_text().splitlines()
    assert commit_rows[0] == "sha,category"
    assert len(commit_rows) == 1 + sum(len(t.commits) for t in teams)


def test_unsatisfiable_config_raises_data_error(monkeypatch):
    # zero-churn everything makes every style plan fail its rubric re-check
    monkeypatch.setattr(synthgen, "CHURN_RANGES", {cat: (0, 0, 0, 0) for cat in CommitCategory})
    monkeypatch.setattr(synthgen, "MAX_RETRIES", 3)
    with pytest.raises(DataError, match="^team 0: 3 attempts failed to satisfy the "):
        generate_corpus(GenConfig(seed=19, n_teams=2))


def test_pair_programming_mentions_appear_with_noise():
    teams, truth = generate_corpus(
        GenConfig(seed=20, n_teams=12, noise_rate=0.1, pair_rate=0.3,
                  style_mix=(1.0, 0.0, 0.0))
    )
    lexicon = textnorm.default_lexicon()
    from teamscope.commitcls import detect_pair_programming

    found = sum(
        detect_pair_programming(textnorm.normalize(c.message, lexicon))
        for t in teams
        for c in t.commits
    )
    assert found > 0


# sha256 of the four corpus files of two synth runs: a change to the
# generator's draws that alters a corpus fails here
PINNED_CORPORA = [
    (
        ["--seed", "3", "--teams", "12"],
        {
            "commits.jsonl": "0a96fcfb755cea4a4fa3e49cb5e01af0791cf3e71222b9a458aad6ce7182da0f",
            "roster.csv": "abb78c1f328b67b1637c1ccc102f8ed87e0d3df9194f7a35b18b17f4347b7f4b",
            "truth_commits.csv": "5c7d9107a6cc8ce580b5404c930ac9bc4abbb9b955fc253a3d57243611e8d415",
            "truth_teams.csv": "bac1c64c2a97dd2fd5aa4d235fcf7a583864fa6738a45d7709b52de776094b9d",
        },
    ),
    (
        ["--seed", "5", "--teams", "10", "--noise", "0.4", "--pair-rate", "0.3",
         "--mix", "0.2,0.3,0.5", "--commits", "10,90"],
        {
            "commits.jsonl": "6554bcb8a946dd47711a0e8b74066581390cd03fe5e1bfc40c52403bafb6aa07",
            "roster.csv": "f287b63a29e7d81416ce4f02fd373a1dcb01a519658c88b9339768780cfa8df2",
            "truth_commits.csv": "e5727b9eb8a877630d55b4d996c2e4bb8eb3efdad47a48590d527688cbeb81f3",
            "truth_teams.csv": "7a1cf1df8cde9d2336b2338e751434ce6252ed33151190f604fb87e78886eccf",
        },
    ),
]


@pytest.mark.parametrize("argv, digests", PINNED_CORPORA)
def test_synth_keeps_its_bytes(tmp_path, argv, digests):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", *argv, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests


# The generator draws what numpy's Generator.choice and array-form integers
# draw, with cheaper calls. If a numpy upgrade breaks these tests, the old
# corpus bytes came from numpy's choice, not from teamscope.
def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def test_sorted_subset_draws_what_choice_draws():
    for n in (3, 4, 8):
        for k in range(1, min(n, 3) + 1):
            for seed in range(200):
                ours, numpys = _twins(seed)
                got = synthgen._sorted_subset(ours, n, k)
                assert got == sorted(numpys.choice(n, k, replace=False).tolist())
                assert ours.bit_generator.state == numpys.bit_generator.state


def test_sized_commits_draw_what_scalar_draws_draw():
    for churn_range in [(20, 120, 0, 30), (2, 30, 1, 20), (0, 0, 0, 0), (5, 5, 0, 4), (0, 8, 3, 3)]:
        add_lo, add_hi, del_lo, del_hi = churn_range
        for seed in range(200):
            ours, scalar = _twins(seed)
            count = seed % 7
            want = [
                (int(scalar.integers(add_lo, add_hi + 1)), int(scalar.integers(del_lo, del_hi + 1)))
                for _ in range(count)
            ]
            assert synthgen._sized_commits(ours, churn_range, count) == want
            assert ours.bit_generator.state == scalar.bit_generator.state
            if churn_range == (0, 0, 0, 0):  # zero-width ranges draw nothing
                assert ours.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_split_lines_draws_what_array_draws_draw():
    for total in (0, 1, 7, 120):
        for parts in (1, 2, 3):
            for seed in range(200):
                ours, array = _twins(seed)
                cuts = sorted(array.integers(0, total + 1, size=parts - 1).tolist())
                bounds = [0] + cuts + [total]
                want = [bounds[i + 1] - bounds[i] for i in range(parts)]
                assert synthgen._split_lines(ours, total, parts) == want
                assert ours.bit_generator.state == array.bit_generator.state
                if total == 0 or parts == 1:
                    assert ours.bit_generator.state == np.random.default_rng(seed).bit_generator.state
