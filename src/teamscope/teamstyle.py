"""Team work-style labeling and prediction.

A rubric oracle turns labeled commits into Collaborative / Cooperative /
Solo-submit ground truth: a team is Collaborative when both members carry a
30-70% churn share in at least two sufficiently active project parts,
Solo-submit when user 0's whole-project churn share falls below a floor,
and Cooperative otherwise. Predictive models are cascades of one-vs-rest
binary classifiers (random forest, or logistic regression with RFE feature
selection) over the standardized team feature matrix; evaluation refits
standardization and feature selection inside every fold so nothing leaks
from test rows.

The stage order (``STAGE_ORDER``: SoloSubmit, Cooperative, Collaborative),
the fallback style and each algorithm's stage model (``STAGE_MODELS``)
belong to the code. A model file holds the algorithm, the feature registry
version, the standardization and, per stage in ``STAGE_ORDER``, its selected
columns and fitted model; a file without exactly one stage per style is
refused.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .commitcls import CommitCategory, LabeledCommit
from .errors import DataError
from .ingest import TeamRecord
from .mlcore import (
    EvalReport,
    ForestModel,
    LogisticModel,
    feature_importances,
    forest_votes,
    mean_report,
    predict_proba,
    prf1,
    rfe_select,
    seed_sequence,
    standardize_apply,
    standardize_fit,
    stratified_kfold,
    train_forest,
    train_logreg,
)
from .mlcore.serialize import fields, integers, nested, numbers, objects, string
from .teamfeat import REGISTRY, REGISTRY_VERSION, FeatureMatrix, build_matrix


class TeamStyle(str, enum.Enum):
    COLLABORATIVE = "Collaborative"
    COOPERATIVE = "Cooperative"
    SOLO_SUBMIT = "SoloSubmit"

    def __str__(self) -> str:
        return self.value


STYLES = list(TeamStyle)

# parts that count toward the collaboration rubric (merge/other churn is
# mostly automatic or junk and says little about the division of labor)
RUBRIC_PARTS = (
    CommitCategory.IMPLEMENTATION,
    CommitCategory.TEST,
    CommitCategory.BUGFIX,
    CommitCategory.DOCUMENTATION,
    CommitCategory.STYLE,
)

DEFAULT_MIN_PART_CHURN = 30
DEFAULT_COLLAB_BAND = (0.30, 0.70)
DEFAULT_SOLO_SHARE = 0.20
STAGE_ORDER = (TeamStyle.SOLO_SUBMIT, TeamStyle.COOPERATIVE, TeamStyle.COLLABORATIVE)
FALLBACK_STYLE = TeamStyle.COLLABORATIVE

FOREST_DEFAULT_K = 12
LOGISTIC_DEFAULT_K = 26
# each algorithm's stage model class
STAGE_MODELS = {"forest": ForestModel, "logistic_rfe": LogisticModel}


def rubric_styles(build: FeatureMatrix) -> list[TeamStyle | None]:
    """The contribution-share rubric's style for every row of a feature matrix.

    A rubric part is active when both users together churned at least
    ``DEFAULT_MIN_PART_CHURN`` lines in it; a team with no active part gets None.
    """
    col = build.registry.index
    parts = [part.value.lower() for part in RUBRIC_PARTS]
    u0, u1, share = (
        build.raw[:, [col(f"{column}_{p}") for p in parts]]
        for column in ("u0_churn", "u1_churn", "u0_churn_share")
    )
    active = u0 + u1 >= DEFAULT_MIN_PART_CHURN
    low, high = DEFAULT_COLLAB_BAND
    balanced = (active & (low <= share) & (share <= high)).sum(axis=1)
    # an active part has churn, so an active row's whole-project share is never 0 / 0
    solo = build.raw[:, col("u0_churn_share_whole")] < DEFAULT_SOLO_SHARE
    return [
        (TeamStyle.COLLABORATIVE if b >= 2 else TeamStyle.SOLO_SUBMIT if s else TeamStyle.COOPERATIVE)
        if a else None
        for a, b, s in zip(active.any(axis=1), balanced, solo)
    ]


def oracle_labels(build: FeatureMatrix) -> list[TeamStyle]:
    """``rubric_styles`` of every row; a team with no active part is a
    DataError naming the team."""
    styles = rubric_styles(build)
    if None in styles:
        raise DataError(
            f"team {build.team_ids[styles.index(None)]!r}: no project part reaches "
            f"{DEFAULT_MIN_PART_CHURN} churned lines; the style rubric does not apply"
        )
    return styles


def oracle_label(team: TeamRecord, labeled: Sequence[LabeledCommit]) -> TeamStyle:
    """The rubric style of one team's labeled commits: a one-team ``oracle_labels``."""
    return oracle_labels(build_matrix([(team, labeled)]))[0]


@dataclass
class StyleStage:
    selected: list[int]
    model: ForestModel | LogisticModel

    def fires(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether the stage fires on each standardized row of Z, and its score.

        The score is class 1's vote share (forest) or probability (logistic).
        A forest fires when class 1 wins the vote, a tie going to class 0, so
        both come from one vote per row.
        """
        if isinstance(self.model, ForestModel):
            votes = forest_votes(self.model, Z[:, self.selected])
            return votes[:, 1] > votes[:, 0], votes[:, 1] / len(self.model.trees)
        scores = predict_proba(self.model, Z[:, self.selected])
        return scores >= 0.5, scores


@dataclass
class TeamStyleModel:
    """Style stages over standardized features, for this teamscope's feature
    registry (``REGISTRY_VERSION``) and with ``FALLBACK_STYLE`` where no stage
    fires; ``algorithm`` (a key of ``STAGE_MODELS``) names every stage's model."""

    algorithm: str
    stages: list[StyleStage]
    means: np.ndarray
    stds: np.ndarray

    def standardize(self, x_raw: np.ndarray) -> np.ndarray:
        x_raw = np.asarray(x_raw, dtype=np.float64)
        if x_raw.shape[-1] != len(self.means):
            raise DataError(
                f"the model was trained on {len(self.means)} feature columns, "
                f"the data has {x_raw.shape[-1]}; retrain the model"
            )
        return standardize_apply(x_raw, self.means, self.stds)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "registry_version": REGISTRY_VERSION,
            "means": [float(v) for v in self.means],
            "stds": [float(v) for v in self.stds],
            "stages": [{"selected": list(s.selected), "model": s.model.to_dict()} for s in self.stages],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TeamStyleModel":
        # checked before the keys, which another registry version may not share
        if type(raw) is dict and raw.get("registry_version", REGISTRY_VERSION) != REGISTRY_VERSION:
            raise DataError(
                f"the model was trained on feature registry version "
                f"{raw['registry_version']!r}, this teamscope extracts version "
                f"{REGISTRY_VERSION!r}; retrain the model"
            )
        _, algorithm, raw_stages, means, stds = fields(
            raw, "", registry_version=string, algorithm=string, stages=objects, means=numbers, stds=numbers
        )
        if algorithm not in STAGE_MODELS:
            raise DataError(f"unknown algorithm {algorithm!r}")
        if len(raw_stages) != len(STAGE_ORDER):
            raise DataError(
                f"expected {len(STAGE_ORDER)} stages ({', '.join(s.value for s in STAGE_ORDER)}), "
                f"found {len(raw_stages)}"
            )
        if stds.shape != means.shape:
            raise DataError("means and stds must be lists of numbers of one length")
        model_reader = nested(STAGE_MODELS[algorithm])
        stages = []
        for style, s in zip(STAGE_ORDER, raw_stages):
            model, selected = fields(s, f"{style.value} ", model=model_reader, selected=integers)
            shape = (model.n_features,) if isinstance(model, ForestModel) else model.weights.shape
            if shape != selected.shape or np.any(selected < 0) or np.any(selected >= len(means)):
                raise DataError(
                    f"the {style.value} stage's selected columns do not fit "
                    f"its model and the {len(means)} feature columns"
                )
            stages.append(StyleStage(selected=selected.tolist(), model=model))
        return cls(
            algorithm=algorithm,
            stages=stages,
            means=means,
            stds=stds,
        )


def _select_forest(Xs, y, k, seed) -> list[int]:
    selector = train_forest(Xs, y, seed=seed)
    importances = feature_importances(selector)
    ranked = np.argsort(-importances, kind="stable")  # the lowest index first on ties
    return sorted(ranked[:k].tolist())


def _select_stages(X_raw, labels, algorithm, k_features, seed):
    """Check a training set, standardize it and select every stage's features.

    Returns (means, stds, standardized X, and per stage of ``STAGE_ORDER`` its
    one-vs-rest targets and its selected columns).
    """
    if algorithm not in STAGE_MODELS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    X_raw = np.asarray(X_raw, dtype=np.float64)
    labels = list(labels)
    if X_raw.shape[0] != len(labels):
        raise DataError(f"{X_raw.shape[0]} rows but {len(labels)} labels")
    present = set(labels)
    missing = [s.value for s in STYLES if s not in present]
    if missing:
        raise DataError(f"styles absent from training labels: {missing}")
    if k_features is None:
        k_features = FOREST_DEFAULT_K if algorithm == "forest" else LOGISTIC_DEFAULT_K
    if k_features < 1:
        raise ValueError("k_features must be >= 1")
    k_features = min(k_features, X_raw.shape[1])

    means, stds = standardize_fit(X_raw)
    Xs = standardize_apply(X_raw, means, stds)
    stages = []
    for stage_idx, style in enumerate(STAGE_ORDER):
        y = np.array([1 if l == style else 0 for l in labels], dtype=np.int64)
        if algorithm == "forest":
            select_seed = seed_sequence(seed, stage_idx, 0).generate_state(1)[0]
            selected = _select_forest(Xs, y, k_features, int(select_seed))
        else:
            selected = rfe_select(Xs, y, k_features)
        stages.append((y, selected))
    return means, stds, Xs, stages


def train_team_model(
    X_raw,
    labels: Sequence[TeamStyle],
    algorithm: str = "forest",
    k_features: int | None = None,
    seed: int = 0,
) -> TeamStyleModel:
    """Fit one binary one-vs-rest stage per style on selected features.

    The forest path picks the top-k features by impurity importance; the
    logistic path selects by recursive feature elimination. Standardization
    parameters are fit here and stored for inference.
    """
    means, stds, Xs, selections = _select_stages(X_raw, labels, algorithm, k_features, seed)
    stages = []
    for stage_idx, (y, selected) in enumerate(selections):
        if algorithm == "forest":
            fit_seed = seed_sequence(seed, stage_idx, 1).generate_state(1)[0]
            model = train_forest(Xs[:, selected], y, seed=int(fit_seed))
        else:
            model = train_logreg(Xs[:, selected], y)
        stages.append(StyleStage(selected=selected, model=model))

    return TeamStyleModel(algorithm=algorithm, stages=stages, means=means, stds=stds)


def predict_style_with_confidence(model: TeamStyleModel, X_raw) -> list[tuple[TeamStyle, float]]:
    """(style, confidence) for each raw feature row of the matrix ``X_raw``.

    The first stage that fires wins, with its score as the confidence. A row
    no stage fires on gets the fallback style and one minus its highest stage
    score. Each stage scores all rows in one call.
    """
    Z = model.standardize(X_raw)
    results: list = [None] * len(Z)
    pending = np.ones(len(Z), dtype=bool)
    top_score = np.full(len(Z), -np.inf)
    for style, stage in zip(STAGE_ORDER, model.stages):
        fired, scores = stage.fires(Z)
        for i in np.flatnonzero(pending & fired):
            results[i] = (style, float(scores[i]))
        pending &= ~fired
        top_score = np.maximum(top_score, scores)
    for i in np.flatnonzero(pending):
        results[i] = (FALLBACK_STYLE, 1.0 - float(top_score[i]))
    return results


@dataclass
class TeamEvalResult:
    """Per-style fold-averaged metrics plus the features a model trained on all rows selects."""

    reports: dict[str, EvalReport]
    macro_f1: float
    selected_features: dict[str, list[str]]
    algorithm: str


def evaluate_team_model(
    X_raw,
    labels: Sequence[TeamStyle],
    algorithm: str = "forest",
    k: int = 5,
    seed: int = 0,
    k_features: int | None = None,
    registry: Sequence[str] | None = None,
) -> TeamEvalResult:
    """Stratified k-fold evaluation with fold-internal selection and scaling."""
    X_raw = np.asarray(X_raw, dtype=np.float64)
    labels = list(labels)
    # stratified_kfold deals a style's teams into different folds: with 2, every fold trains on one
    scarce = [f"{s.value} has {labels.count(s)}" for s in STYLES if labels.count(s) < 2]
    if scarce:
        raise DataError("cross-validation needs at least 2 teams of each style; " + ", ".join(scarce))
    folds = stratified_kfold(labels, k, seed)
    per_style: dict[TeamStyle, list[EvalReport]] = {s: [] for s in STYLES}

    for test_idx in folds:
        test_set = set(test_idx)
        train_rows = [i for i in range(len(labels)) if i not in test_set]
        fold_model = train_team_model(
            X_raw[train_rows],
            [labels[i] for i in train_rows],
            algorithm=algorithm,
            k_features=k_features,
            seed=seed,
        )
        y_true = [labels[i] for i in test_idx]
        y_pred = [style for style, _ in predict_style_with_confidence(fold_model, X_raw[test_idx])]
        for style in STYLES:
            per_style[style].append(prf1(y_true, y_pred, style))

    reports = {
        style.value: mean_report(fold_reports)
        for style, fold_reports in per_style.items()
    }
    macro_f1 = sum(r.f1 for r in reports.values()) / len(reports)

    # the features a model trained on all rows would use, without fitting it
    *_, selections = _select_stages(X_raw, labels, algorithm, k_features, seed)
    names = list(registry) if registry is not None else None
    selected_features = {
        style.value: [names[i] if names else str(i) for i in selected]
        for style, (_, selected) in zip(STAGE_ORDER, selections)
    }
    return TeamEvalResult(
        reports=reports,
        macro_f1=macro_f1,
        selected_features=selected_features,
        algorithm=algorithm,
    )


@dataclass
class SoloFlag:
    team_id: str
    style: TeamStyle
    confidence: float
    features: list[tuple[str, float]]  # (registry name, standardized value)


def flag_solo_submitters(
    model: TeamStyleModel, X_raw, team_ids: Sequence[str]
) -> list[SoloFlag]:
    """Teams predicted Solo-submit, most confident first, with stage features.

    Row i of ``X_raw`` is the raw registry vector of team ``team_ids[i]``.
    """
    if not len(team_ids):
        return []
    X_raw = np.asarray(X_raw, dtype=np.float64)
    predictions = predict_style_with_confidence(model, X_raw)
    solo = [i for i, (style, _) in enumerate(predictions) if style == TeamStyle.SOLO_SUBMIT]
    selected = model.stages[STAGE_ORDER.index(TeamStyle.SOLO_SUBMIT)].selected
    flags = []
    for i, z in zip(solo, model.standardize(X_raw[solo])):
        style, confidence = predictions[i]
        features = [(REGISTRY[j], float(z[j])) for j in selected]
        flags.append(
            SoloFlag(team_id=team_ids[i], style=style, confidence=confidence, features=features)
        )
    flags.sort(key=lambda f: (-f.confidence, f.team_id))
    return flags
