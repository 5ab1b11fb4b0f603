import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope.commitcls import CATEGORIES, CommitCategory, LabeledCommit
from teamscope.errors import DataError
from teamscope.ingest import CommitRecord, FileStat, RosterMember, TeamRecord
from teamscope.mlcore import (
    ForestModel,
    dumps_model,
    forest_votes,
    logistic_loss_and_grad,
    predict_proba,
)
from teamscope.synthgen import GenConfig, generate_corpus, truth_labeled_commits
from teamscope.teamfeat import REGISTRY, build_matrix, order_users
from teamscope.teamstyle import (
    FALLBACK_STYLE,
    RUBRIC_PARTS,
    STAGE_ORDER,
    StyleStage,
    TeamStyle,
    TeamStyleModel,
    evaluate_team_model,
    flag_solo_submitters,
    oracle_label,
    oracle_labels,
    predict_style_with_confidence,
    rubric_styles,
    train_team_model,
)


def _leaves(*counts, n_features=1) -> ForestModel:
    """A forest of one-node trees, each voting for the largest of its ``counts``."""
    leaf = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1]}
    trees = [dict(leaf, counts=[c]) for c in counts]
    return ForestModel.from_dict({"trees": trees, "n_features": n_features})


def _team():
    return TeamRecord(
        team_id="t0",
        project_id="P2",
        members=(
            RosterMember("amy", 80.0, 90.0, ("amy",)),
            RosterMember("ben", 70.0, 65.0, ("ben",)),
        ),
        selected=False,
    )


_counter = 0


def _commit(author, category, add, dele=0, message="m"):
    global _counter
    _counter += 1
    record = CommitRecord(
        sha=f"{_counter:040x}",
        author_key=author,
        author_id=author,
        timestamp=100 + _counter,
        message=message,
        files=(FileStat(path="f.java", additions=add, deletions=dele),) if add or dele else (),
    )
    return LabeledCommit(commit=record, category=category, pair_programming=False)


def _labeled_split(impl_amy, impl_ben, test_amy, test_ben):
    """One implementation and one test part with the given churn per user."""
    out = []
    for churn, author in ((impl_amy, "amy"), (impl_ben, "ben")):
        if churn:
            out.append(_commit(author, CommitCategory.IMPLEMENTATION, add=churn))
    for churn, author in ((test_amy, "amy"), (test_ben, "ben")):
        if churn:
            out.append(_commit(author, CommitCategory.TEST, add=churn))
    return out


def test_oracle_collaborative_two_balanced_parts():
    labeled = _labeled_split(impl_amy=50, impl_ben=50, test_amy=40, test_ben=40)
    assert oracle_label(_team(), labeled) == TeamStyle.COLLABORATIVE


def test_oracle_cooperative_disjoint_ownership():
    # amy owns test entirely, ben owns implementation; overall share ~0.4
    labeled = _labeled_split(impl_amy=0, impl_ben=90, test_amy=60, test_ben=0)
    assert oracle_label(_team(), labeled) == TeamStyle.COOPERATIVE


def test_oracle_solo_small_overall_share():
    labeled = _labeled_split(impl_amy=4, impl_ben=96, test_amy=0, test_ben=60)
    assert oracle_label(_team(), labeled) == TeamStyle.SOLO_SUBMIT


def test_oracle_insufficient_activity():
    labeled = _labeled_split(impl_amy=3, impl_ben=4, test_amy=2, test_ben=1)
    with pytest.raises(DataError, match="no project part reaches 30 churned lines"):
        oracle_label(_team(), labeled)


def test_oracle_inactive_part_does_not_count_toward_collaboration():
    # the balanced part (test, 10+10=20 churn) is below the activity floor
    labeled = _labeled_split(impl_amy=5, impl_ben=95, test_amy=10, test_ben=10)
    assert oracle_label(_team(), labeled) == TeamStyle.SOLO_SUBMIT


def test_oracle_scale_invariant():
    for scale in (1, 7, 100):
        labeled = _labeled_split(
            impl_amy=50 * scale, impl_ben=50 * scale, test_amy=40 * scale, test_ben=40 * scale
        )
        assert oracle_label(_team(), labeled) == TeamStyle.COLLABORATIVE


def test_oracle_merge_and_other_excluded_from_parts():
    labeled = _labeled_split(impl_amy=50, impl_ben=50, test_amy=40, test_ben=40)
    # a huge lopsided "other" dump must not flip the label
    labeled.append(_commit("ben", CommitCategory.OTHER, add=5000))
    assert oracle_label(_team(), labeled) == TeamStyle.COLLABORATIVE


def test_batched_rubric_names_the_idle_team():
    busy = _labeled_split(impl_amy=50, impl_ben=50, test_amy=40, test_ben=40)
    idle = _labeled_split(impl_amy=3, impl_ben=4, test_amy=2, test_ben=1)
    idle_team = dataclasses.replace(_team(), team_id="t-idle")
    build = build_matrix([(_team(), busy), (idle_team, idle), (_team(), busy)])
    with pytest.raises(DataError, match="team 't-idle'"):
        oracle_labels(build)


def test_row_wise_rubric_is_none_exactly_on_idle_rows():
    busy = _labeled_split(impl_amy=50, impl_ben=50, test_amy=40, test_ben=40)
    solo = _labeled_split(impl_amy=4, impl_ben=96, test_amy=0, test_ben=60)
    idle = _labeled_split(impl_amy=3, impl_ben=4, test_amy=2, test_ben=1)
    rows = [
        (_team(), busy),
        (dataclasses.replace(_team(), team_id="t-idle-1"), idle),
        (_team(), solo),
        (dataclasses.replace(_team(), team_id="t-idle-2"), idle),
    ]
    build = build_matrix(rows)
    assert rubric_styles(build) == [TeamStyle.COLLABORATIVE, None, TeamStyle.SOLO_SUBMIT, None]
    with pytest.raises(DataError) as refusal:
        oracle_labels(build)
    assert str(refusal.value) == (
        "team 't-idle-1': no project part reaches 30 churned lines; "
        "the style rubric does not apply"
    )


def _rubric_reference(team, labeled):
    """The rubric by one loop over the commits; None where no part is active."""
    user0 = order_users(team, labeled)[0]
    parts = {part: [0, 0] for part in RUBRIC_PARTS}
    whole = [0, 0]
    for item in labeled:
        user = 0 if item.commit.author_id == user0 else 1
        churn = item.commit.additions + item.commit.deletions
        whole[user] += churn
        if item.category in parts:
            parts[item.category][user] += churn
    active = [churn for churn in parts.values() if sum(churn) >= 30]
    if not active:
        return None
    if sum(0.30 <= churn[0] / sum(churn) <= 0.70 for churn in active) >= 2:
        return TeamStyle.COLLABORATIVE
    if whole[0] / sum(whole) < 0.20:
        return TeamStyle.SOLO_SUBMIT
    return TeamStyle.COOPERATIVE


_RUBRIC_COMMITS = st.lists(
    st.tuples(
        st.sampled_from(["amy", "ben"]),
        st.sampled_from(CATEGORIES),
        st.integers(0, 40),
        st.integers(0, 10),
    ),
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(teams=st.lists(_RUBRIC_COMMITS, min_size=1, max_size=5))
def test_batched_rubric_matches_one_loop_reference(teams):
    labeled_teams = []
    for i, commits in enumerate(teams):
        team = dataclasses.replace(_team(), team_id=f"t{i}")
        labeled_teams.append((team, [_commit(*commit) for commit in commits]))
    want = [_rubric_reference(team, labeled) for team, labeled in labeled_teams]
    build = build_matrix(labeled_teams)
    assert rubric_styles(build) == want
    if None in want:
        with pytest.raises(DataError, match=f"team 't{want.index(None)}'"):
            oracle_labels(build)
    else:
        assert oracle_labels(build) == want
        assert [oracle_label(team, labeled) for team, labeled in labeled_teams] == want


@pytest.fixture(scope="module")
def corpus():
    teams, truth = generate_corpus(
        GenConfig(seed=31, n_teams=40, style_mix=(0.4, 0.3, 0.3), noise_rate=0.1)
    )
    labeled_teams = [(t, truth_labeled_commits(t, truth)) for t in teams]
    styles = [truth.team_styles[t.team_id] for t in teams]
    build = build_matrix(labeled_teams)
    return teams, labeled_teams, styles, build


def test_train_requires_all_styles(corpus):
    _, _, styles, build = corpus
    two_style_rows = [i for i, s in enumerate(styles) if s != TeamStyle.SOLO_SUBMIT]
    with pytest.raises(DataError, match="SoloSubmit"):
        train_team_model(
            build.raw[two_style_rows],
            [styles[i] for i in two_style_rows],
            algorithm="forest",
            seed=1,
        )


def test_unknown_algorithm_rejected(corpus):
    _, _, styles, build = corpus
    with pytest.raises(ValueError):
        train_team_model(build.raw, styles, algorithm="svm", seed=1)


def test_k_features_below_one_rejected(corpus):
    _, _, styles, build = corpus
    with pytest.raises(ValueError):
        train_team_model(build.raw, styles, algorithm="forest", k_features=0, seed=1)


def test_full_dimension_selection_is_identity(corpus):
    _, _, styles, build = corpus
    model = train_team_model(
        build.raw, styles, algorithm="forest", k_features=10**9, seed=2
    )
    for stage in model.stages:
        assert stage.selected == list(range(len(REGISTRY)))


def test_same_seed_byte_identical_model(corpus):
    _, _, styles, build = corpus
    a = train_team_model(build.raw, styles, algorithm="forest", seed=5)
    b = train_team_model(build.raw, styles, algorithm="forest", seed=5)
    assert dumps_model("teamstyle", a.to_dict()) == dumps_model("teamstyle", b.to_dict())


def test_predict_cascade_precedence_and_fallback(corpus):
    _, _, styles, build = corpus
    model = train_team_model(build.raw, styles, algorithm="forest", seed=3)
    assert STAGE_ORDER == (TeamStyle.SOLO_SUBMIT, TeamStyle.COOPERATIVE, TeamStyle.COLLABORATIVE)

    # force every stage negative: prediction falls back to Collaborative
    silent = TeamStyleModel.from_dict(model.to_dict())
    for stage in silent.stages:  # every tree votes 0
        stage.model = _leaves(*[[1, 0]] * len(stage.model.trees), n_features=len(stage.selected))
    ((style, confidence),) = predict_style_with_confidence(silent, build.raw[:1])
    assert style == TeamStyle.COLLABORATIVE
    assert 0.0 <= confidence <= 1.0

    # force the solo stage positive: precedence wins even if others would fire
    loud = TeamStyleModel.from_dict(model.to_dict())
    for stage in loud.stages:  # every tree votes 1
        stage.model = _leaves(*[[0, 1]] * len(stage.model.trees), n_features=len(stage.selected))
    assert predict_style_with_confidence(loud, build.raw[:1])[0][0] == TeamStyle.SOLO_SUBMIT


def test_forest_stage_vote_tie_does_not_fire():
    # a 1-1 vote goes to the smaller class index, 0, so the stage stays silent
    forest = _leaves([1, 0], [0, 1])
    stage = StyleStage(selected=[0], model=forest)
    fired, scores = stage.fires(np.zeros((1, 1)))
    assert fired.tolist() == [False]
    assert scores.tolist() == [0.5]


def test_predict_deterministic(corpus):
    _, _, styles, build = corpus
    model = train_team_model(build.raw, styles, algorithm="forest", seed=4)
    first = predict_style_with_confidence(model, build.raw)
    second = predict_style_with_confidence(model, build.raw)
    assert first == second


def test_logistic_path_trains_and_predicts(corpus):
    _, _, styles, build = corpus
    model = train_team_model(
        build.raw, styles, algorithm="logistic_rfe", k_features=8, seed=6
    )
    for stage in model.stages:
        assert len(stage.selected) == 8
    predictions = [style for style, _ in predict_style_with_confidence(model, build.raw)]
    agreement = sum(p == s for p, s in zip(predictions, styles)) / len(styles)
    assert agreement > 0.8


def test_evaluate_reports_per_style_and_macro(corpus):
    _, _, styles, build = corpus
    result = evaluate_team_model(
        build.raw, styles, algorithm="forest", k=4, seed=7, registry=build.registry
    )
    assert set(result.reports) == {"Collaborative", "Cooperative", "SoloSubmit"}
    assert 0.0 <= result.macro_f1 <= 1.0
    for names in result.selected_features.values():
        assert all(n in REGISTRY for n in names)
    for report in result.reports.values():
        assert len(report.folds) == 4


def test_evaluation_fits_folds_on_training_rows_only(corpus, monkeypatch):
    import teamscope.teamstyle as ts

    _, _, styles, build = corpus
    n = len(styles)
    seen_rows = []
    selected_rows = []
    train, select = ts.train_team_model, ts._select_stages

    def recording_train(X_raw, labels, **kwargs):
        seen_rows.append(len(labels))
        return train(X_raw, labels, **kwargs)

    def recording_select(X_raw, labels, *args):
        selected_rows.append(len(labels))
        return select(X_raw, labels, *args)

    monkeypatch.setattr(ts, "train_team_model", recording_train)
    monkeypatch.setattr(ts, "_select_stages", recording_select)
    ts.evaluate_team_model(build.raw, styles, algorithm="forest", k=4, seed=2)
    # four fold models on strict subsets; the reported features are selected
    # on all rows, and no model is fitted on them
    assert len(seen_rows) == 4
    assert all(count < n for count in seen_rows)
    assert sum(n - count for count in seen_rows) == n
    assert selected_rows == seen_rows + [n]


def test_flag_solo_submitters_ranks_extreme_first(corpus):
    teams, _, styles, build = corpus
    model = train_team_model(build.raw, styles, algorithm="forest", seed=8)
    flags = flag_solo_submitters(model, build.raw, build.team_ids)
    solo_ids = {t.team_id for t, s in zip(teams, styles) if s == TeamStyle.SOLO_SUBMIT}
    assert flags, "expected at least one flagged team"
    assert {f.team_id for f in flags} <= set(build.team_ids)
    # flagged teams are overwhelmingly true solos on this easy corpus
    assert len(solo_ids & {f.team_id for f in flags}) >= len(flags) - 1
    confidences = [f.confidence for f in flags]
    assert confidences == sorted(confidences, reverse=True)
    for flag in flags:
        assert flag.features and all(name in REGISTRY for name, _ in flag.features)


def test_flag_empty_inputs():
    teams, truth = generate_corpus(
        GenConfig(seed=32, n_teams=12, style_mix=(0.5, 0.3, 0.2), noise_rate=0.1)
    )
    labeled_teams = [(t, truth_labeled_commits(t, truth)) for t in teams]
    styles = [truth.team_styles[t.team_id] for t in teams]
    build = build_matrix(labeled_teams)
    model = train_team_model(build.raw, styles, algorithm="forest", seed=9)
    assert flag_solo_submitters(model, np.zeros((0, len(REGISTRY))), []) == []


def test_all_collaborative_corpus_produces_no_flags():
    teams, truth = generate_corpus(
        GenConfig(seed=33, n_teams=12, style_mix=(1.0, 0.0, 0.0), noise_rate=0.1)
    )
    labeled_teams = [(t, truth_labeled_commits(t, truth)) for t in teams]
    build = build_matrix(labeled_teams)
    # train on a mixed corpus, flag the all-collaborative one
    mixed_teams, mixed_truth = generate_corpus(
        GenConfig(seed=34, n_teams=30, style_mix=(0.4, 0.3, 0.3), noise_rate=0.1)
    )
    mixed_labeled = [(t, truth_labeled_commits(t, mixed_truth)) for t in mixed_teams]
    mixed_styles = [mixed_truth.team_styles[t.team_id] for t in mixed_teams]
    mixed_build = build_matrix(mixed_labeled)
    model = train_team_model(mixed_build.raw, mixed_styles, algorithm="forest", seed=10)
    assert flag_solo_submitters(model, build.raw, build.team_ids) == []


def test_model_serialization_round_trip(corpus):
    _, _, styles, build = corpus
    model = train_team_model(build.raw, styles, algorithm="forest", seed=11)
    clone = TeamStyleModel.from_dict(model.to_dict())
    assert predict_style_with_confidence(clone, build.raw) == predict_style_with_confidence(model, build.raw)


def _predict_one_row(model, x_raw):
    """Reference cascade: score and decide each stage on one row, in order."""
    z = model.standardize(x_raw)
    scores = []
    for style, stage in zip(STAGE_ORDER, model.stages, strict=True):
        x = z[stage.selected]
        if isinstance(stage.model, ForestModel):
            votes = forest_votes(stage.model, x[None])[0]
            score = votes[1] / len(stage.model.trees)
            fires = votes.argmax() == 1
        else:
            score = predict_proba(stage.model, x)
            fires = score >= 0.5
        if fires:
            return style, score
        scores.append(score)
    return FALLBACK_STYLE, 1.0 - max(scores)


@pytest.mark.parametrize("algorithm", ["forest", "logistic_rfe"])
def test_batched_prediction_equals_per_row(corpus, algorithm):
    _, _, styles, build = corpus
    model = train_team_model(build.raw, styles, algorithm=algorithm, k_features=8, seed=12)
    batch = predict_style_with_confidence(model, build.raw)
    assert len(batch) == len(build.raw)
    for row, (style, confidence) in zip(build.raw, batch):
        assert type(confidence) is float
        for one_row in (predict_style_with_confidence(model, row[None])[0], _predict_one_row(model, row)):
            if algorithm == "forest":
                assert one_row == (style, confidence)
            else:
                # a matrix product sums in another order than a dot product per row
                assert one_row[0] == style
                assert one_row[1] == pytest.approx(confidence, rel=1e-12, abs=1e-15)
    assert predict_style_with_confidence(model, build.raw[:0]) == []


def test_logistic_stages_are_at_their_optimum(corpus):
    _, _, styles, build = corpus
    model = train_team_model(build.raw, styles, algorithm="logistic_rfe", k_features=8, seed=12)
    Z = model.standardize(build.raw)
    for stage_style, stage in zip(STAGE_ORDER, model.stages, strict=True):
        y = np.array([style == stage_style for style in styles], dtype=float)
        w, b, l2 = stage.model.weights, stage.model.bias, stage.model.l2_lambda
        _, grad_w, grad_b = logistic_loss_and_grad(w, b, Z[:, stage.selected], y, l2)
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) <= 1e-8


def test_prediction_rejects_other_column_count(corpus):
    _, _, styles, build = corpus
    model = train_team_model(build.raw, styles, algorithm="forest", seed=13)
    with pytest.raises(DataError, match="feature columns"):
        predict_style_with_confidence(model, build.raw[:, :-1])


def test_model_of_other_registry_version_is_refused(corpus):
    _, _, styles, build = corpus
    raw = train_team_model(build.raw, styles, algorithm="forest", seed=14).to_dict()
    raw["registry_version"] = "0-other"
    with pytest.raises(DataError, match="registry version"):
        TeamStyleModel.from_dict(raw)
