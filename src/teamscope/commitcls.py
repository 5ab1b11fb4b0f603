"""Commit-message classification cascade and pair-programming detection.

The cascade assigns exactly one category per message, first stage wins:

    Merge -> Documentation -> Style -> gibberish Other
          -> ML stages (TF-IDF + logistic regression, default order
             Implementation, Test, Bugfix) -> residual Other

Static stages are keyword rules over normalized tokens; the gibberish check
compares the meaningful-word ratio against a threshold. Each ML stage is a
binary classifier trained only on the messages earlier stages left behind,
and applying the trained stage removes its positives before the next stage
is trained, mirroring how the cascade is evaluated and applied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import textnorm
from .errors import DataError, SchemaError
from .ingest import CommitRecord
from .mlcore import (
    EvalReport,
    LogisticModel,
    TfidfModel,
    fit_tfidf,
    mean_report,
    predict_proba,
    prf1,
    stratified_kfold,
    tfidf_transform,
    train_logreg,
)
from .textnorm import Lexicon


class CommitCategory(str, enum.Enum):
    IMPLEMENTATION = "Implementation"
    TEST = "Test"
    BUGFIX = "Bugfix"
    DOCUMENTATION = "Documentation"
    STYLE = "Style"
    MERGE = "Merge"
    OTHER = "Other"

    def __str__(self) -> str:
        return self.value


CATEGORIES = list(CommitCategory)
ML_CATEGORIES = (CommitCategory.IMPLEMENTATION, CommitCategory.TEST, CommitCategory.BUGFIX)

DEFAULT_GIBBERISH_THRESHOLD = 0.34
DEFAULT_MAX_FEATURES = 45
DEFAULT_NGRAM_RANGE = (1, 4)


@lru_cache(maxsize=None)
def _load_keywords(name: str) -> frozenset[str]:
    path = Path(textnorm._data_dir()) / f"keywords_{name}.txt"
    return textnorm._read_words(path)


def default_keywords() -> dict[str, frozenset[str]]:
    return {name: _load_keywords(name) for name in ("merge", "documentation", "style")}


def match_merge(tokens: Sequence[str], keywords: frozenset[str] | None = None) -> bool:
    """True iff a merge keyword (the token "merge" by default) is present."""
    kw = keywords if keywords is not None else _load_keywords("merge")
    return any(t in kw for t in tokens)


def match_documentation(tokens: Sequence[str], keywords: frozenset[str] | None = None) -> bool:
    kw = keywords if keywords is not None else _load_keywords("documentation")
    return any(t in kw for t in tokens)


def match_style(tokens: Sequence[str], keywords: frozenset[str] | None = None) -> bool:
    kw = keywords if keywords is not None else _load_keywords("style")
    return any(t in kw for t in tokens)


def is_gibberish(
    tokens: Sequence[str],
    lexicon: Lexicon,
    threshold: float = DEFAULT_GIBBERISH_THRESHOLD,
) -> bool:
    """True when too few tokens are recognizable words (or there are none)."""
    if not tokens:
        return True
    return textnorm.meaningful_ratio(list(tokens), lexicon) < threshold


def detect_pair_programming(tokens: Sequence[str]) -> bool:
    """Whole-token match of "pair" (any lemma) or the abbreviation "pp"."""
    return any(t in ("pair", "pp") for t in tokens)


@dataclass
class CascadeConfig:
    ml_order: tuple[CommitCategory, ...] = ML_CATEGORIES
    max_features: int = DEFAULT_MAX_FEATURES
    ngram_range: tuple[int, int] = DEFAULT_NGRAM_RANGE
    gibberish_threshold: float = DEFAULT_GIBBERISH_THRESHOLD
    l2_lambda: float = 1.0


@dataclass
class MlStage:
    category: CommitCategory
    tfidf: TfidfModel
    logreg: LogisticModel

    def fires(self, tokens: Sequence[str]) -> bool:
        return predict_proba(self.logreg, tfidf_transform(self.tfidf, tokens)) >= 0.5


@dataclass
class CascadeModel:
    """Everything needed to classify a message, self-contained for reload."""

    lexicon: Lexicon
    lemma_exceptions: dict[str, str]
    keywords: dict[str, frozenset[str]]
    gibberish_threshold: float
    stages: list[MlStage] = field(default_factory=list)

    def prepare(self, message: str) -> list[str]:
        return textnorm.normalize(message, self.lexicon, self.lemma_exceptions)

    def to_dict(self) -> dict:
        return {
            "lexicon": {
                "english": sorted(self.lexicon.english_words),
                "domain": sorted(self.lexicon.domain_words),
                "stopwords": sorted(self.lexicon.stopwords),
            },
            "lemma_exceptions": dict(sorted(self.lemma_exceptions.items())),
            "keywords": {k: sorted(v) for k, v in sorted(self.keywords.items())},
            "gibberish_threshold": self.gibberish_threshold,
            "stages": [
                {
                    "category": stage.category.value,
                    "tfidf": stage.tfidf.to_dict(),
                    "logreg": stage.logreg.to_dict(),
                }
                for stage in self.stages
            ],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CascadeModel":
        lex = raw["lexicon"]
        model = cls(
            lexicon=Lexicon(
                english_words=frozenset(lex["english"]),
                domain_words=frozenset(lex["domain"]),
                stopwords=frozenset(lex["stopwords"]),
            ),
            lemma_exceptions=dict(raw["lemma_exceptions"]),
            keywords={k: frozenset(v) for k, v in raw["keywords"].items()},
            gibberish_threshold=float(raw["gibberish_threshold"]),
            stages=[
                MlStage(
                    category=CommitCategory(s["category"]),
                    tfidf=TfidfModel.from_dict(s["tfidf"]),
                    logreg=LogisticModel.from_dict(s["logreg"]),
                )
                for s in raw["stages"]
            ],
        )
        if not all(isinstance(w, str) for item in model.lemma_exceptions.items() for w in item):
            raise SchemaError("lemma exceptions must map words to words")
        missing = set(default_keywords()) - set(model.keywords)
        if missing:
            raise SchemaError(f"no keyword lists for {sorted(missing)}")
        for stage in model.stages:
            if stage.logreg.weights.shape != (stage.tfidf.dim,):
                raise SchemaError(f"the {stage.category.value} stage needs one weight per term")
        return model


def _static_category(cascade: CascadeModel, tokens: Sequence[str]) -> CommitCategory | None:
    """Keyword and gibberish stages only; None when the message falls through."""
    if match_merge(tokens, cascade.keywords["merge"]):
        return CommitCategory.MERGE
    if match_documentation(tokens, cascade.keywords["documentation"]):
        return CommitCategory.DOCUMENTATION
    if match_style(tokens, cascade.keywords["style"]):
        return CommitCategory.STYLE
    if is_gibberish(tokens, cascade.lexicon, cascade.gibberish_threshold):
        return CommitCategory.OTHER
    return None


def classify_tokens(cascade: CascadeModel, tokens: Sequence[str]) -> CommitCategory:
    static = _static_category(cascade, tokens)
    if static is not None:
        return static
    for stage in cascade.stages:
        if stage.fires(tokens):
            return stage.category
    return CommitCategory.OTHER


def classify(cascade: CascadeModel, message: str) -> CommitCategory:
    """Assign the single cascade category for one raw message."""
    return classify_tokens(cascade, cascade.prepare(message))


@dataclass(frozen=True)
class LabeledCommit:
    commit: CommitRecord
    category: CommitCategory
    pair_programming: bool


def label_commit(cascade: CascadeModel, commit: CommitRecord) -> LabeledCommit:
    tokens = cascade.prepare(commit.message)
    return LabeledCommit(
        commit=commit,
        category=classify_tokens(cascade, tokens),
        pair_programming=detect_pair_programming(tokens),
    )


def label_commits(cascade: CascadeModel, commits: Iterable[CommitRecord]) -> list[LabeledCommit]:
    return [label_commit(cascade, c) for c in commits]


def train_cascade(
    tagged: Sequence[tuple[str, CommitCategory]],
    config: CascadeConfig | None = None,
    lexicon: Lexicon | None = None,
    lemma_exceptions: dict[str, str] | None = None,
    keywords: dict[str, frozenset[str]] | None = None,
) -> CascadeModel:
    """Fit the ML stages on whatever the static stages leave behind.

    Stage k is trained on the messages not captured by the static rules or
    by stages 1..k-1, with positives being the messages tagged as stage k's
    category; a stage with no surviving positives is an error.
    """
    config = config or CascadeConfig()
    if len(set(config.ml_order)) != len(config.ml_order):
        raise ValueError(f"duplicate ML stage in {config.ml_order}")
    cascade = CascadeModel(
        lexicon=lexicon or textnorm.default_lexicon(),
        lemma_exceptions=lemma_exceptions or textnorm.default_lemma_exceptions(),
        keywords=keywords or default_keywords(),
        gibberish_threshold=config.gibberish_threshold,
    )

    survivors = []
    for message, category in tagged:
        tokens = cascade.prepare(message)
        if _static_category(cascade, tokens) is None:
            survivors.append((tokens, category))

    for stage_category in config.ml_order:
        if stage_category not in ML_CATEGORIES:
            raise ValueError(f"{stage_category} cannot be an ML stage")
        positives = sum(1 for _, cat in survivors if cat == stage_category)
        if positives == 0:
            raise DataError(
                f"no surviving positive examples for ML stage {stage_category.value}"
            )
        docs = [tokens for tokens, _ in survivors]
        tfidf = fit_tfidf(docs, config.max_features, config.ngram_range)
        X = np.array([tfidf_transform(tfidf, d) for d in docs])
        y = [cat == stage_category for _, cat in survivors]
        logreg = train_logreg(X, y, l2_lambda=config.l2_lambda)
        cascade.stages.append(MlStage(category=stage_category, tfidf=tfidf, logreg=logreg))
        fired = predict_proba(logreg, X) >= 0.5
        survivors = [row for row, f in zip(survivors, fired) if not f]

    return cascade


# report keys for the two Other measurements
OTHER_STATIC = "Other(static)"
OTHER_RESIDUAL = "Other(residual)"


def evaluate_cascade(
    tagged: Sequence[tuple[str, CommitCategory]],
    k: int = 5,
    seed: int = 0,
    config: CascadeConfig | None = None,
) -> dict[str, EvalReport]:
    """Stratified k-fold evaluation of the full cascade.

    Static stages are fixed rules, so their scores only depend on the test
    rows; Other is scored twice, once as the static gibberish rule alone and
    once after residual assignment picks up everything the ML stages left.
    """
    labels = [cat for _, cat in tagged]
    folds = stratified_kfold(labels, k, seed)
    per_key: dict[str, list[EvalReport]] = {}

    for fold_idx, test_idx in enumerate(folds):
        test_set = set(test_idx)
        train_rows = [row for i, row in enumerate(tagged) if i not in test_set]
        test_rows = [tagged[i] for i in test_idx]
        cascade = train_cascade(train_rows, config)

        y_true = [cat for _, cat in test_rows]
        tokens = [cascade.prepare(msg) for msg, _ in test_rows]
        y_pred = [classify_tokens(cascade, t) for t in tokens]
        static_pred = [_static_category(cascade, t) for t in tokens]

        for category in CATEGORIES:
            if category == CommitCategory.OTHER:
                continue
            per_key.setdefault(category.value, []).append(
                prf1(y_true, y_pred, category)
            )
        other = CommitCategory.OTHER
        per_key.setdefault(OTHER_STATIC, []).append(prf1(y_true, static_pred, other))
        per_key.setdefault(OTHER_RESIDUAL, []).append(prf1(y_true, y_pred, other))

    return {key: mean_report(reports) for key, reports in per_key.items()}


def category_distribution(labeled: Sequence[LabeledCommit]) -> dict[str, tuple[int, float]]:
    """Count and ratio per category, in canonical category order."""
    counts = {c: 0 for c in CATEGORIES}
    for item in labeled:
        counts[item.category] += 1
    total = len(labeled)
    return {
        c.value: (counts[c], counts[c] / total if total else 0.0) for c in CATEGORIES
    }
