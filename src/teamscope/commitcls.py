"""Commit-message classification cascade and pair-programming detection.

The cascade assigns exactly one category per message, first stage wins:

    Merge -> Documentation -> Style -> gibberish Other
          -> ML stages (TF-IDF + logistic regression, in the order
             Implementation, Test, Bugfix) -> residual Other

Static stages are keyword rules over normalized tokens; the gibberish check
compares the meaningful-word ratio against a threshold. Each ML stage is a
binary classifier trained only on the messages earlier stages left behind,
and applying the trained stage removes its positives before the next stage
is trained, mirroring how the cascade is evaluated and applied.

Classification is a funnel over a batch: each message is normalized and run
through the static rules once, then each ML stage scores the rows still
unlabelled as one TF-IDF matrix. ``classify`` is a one-row batch;
``label_messages`` takes 2,048 messages per batch to bound the matrices' size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
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
    predict,
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


# the keyword stages in cascade order: (keyword list, category it assigns)
_KEYWORD_RULES = (
    ("merge", CommitCategory.MERGE),
    ("documentation", CommitCategory.DOCUMENTATION),
    ("style", CommitCategory.STYLE),
)
_LABEL_BLOCK = 2048


def default_keywords() -> dict[str, frozenset[str]]:
    return {name: _load_keywords(name) for name, _ in _KEYWORD_RULES}


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
class MlStage:
    category: CommitCategory
    tfidf: TfidfModel
    logreg: LogisticModel

    def fires(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        return predict(self.logreg, tfidf_transform(self.tfidf, docs))


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
    for name, category in _KEYWORD_RULES:
        if not cascade.keywords[name].isdisjoint(tokens):
            return category
    if is_gibberish(tokens, cascade.lexicon, cascade.gibberish_threshold):
        return CommitCategory.OTHER
    return None


def _funnel(stages: Sequence[MlStage], docs: Sequence[Sequence[str]], static: list) -> list:
    """Complete the static labels: each ML stage scores the rows still None."""
    labels = list(static)
    left = [i for i, label in enumerate(labels) if label is None]
    for stage in stages:
        fired = stage.fires([docs[i] for i in left])
        for i in compress(left, fired):
            labels[i] = stage.category
        left = list(compress(left, ~fired))
    return [CommitCategory.OTHER if label is None else label for label in labels]


def classify_tokens(cascade: CascadeModel, docs: Sequence[Sequence[str]]) -> list[CommitCategory]:
    """The cascade category of each normalized message."""
    return _funnel(cascade.stages, docs, [_static_category(cascade, d) for d in docs])


def classify(cascade: CascadeModel, message: str) -> CommitCategory:
    """Assign the single cascade category for one raw message."""
    return classify_tokens(cascade, [cascade.prepare(message)])[0]


@dataclass(frozen=True)
class LabeledCommit:
    commit: CommitRecord
    category: CommitCategory
    pair_programming: bool


def label_messages(
    cascade: CascadeModel, messages: Sequence[str]
) -> tuple[list[CommitCategory], list[bool]]:
    """Each raw message's cascade category and pair-programming flag."""
    categories: list[CommitCategory] = []
    pairs: list[bool] = []
    for start in range(0, len(messages), _LABEL_BLOCK):
        docs = [cascade.prepare(m) for m in messages[start : start + _LABEL_BLOCK]]
        categories += classify_tokens(cascade, docs)
        pairs += map(detect_pair_programming, docs)
    return categories, pairs


def label_commits(cascade: CascadeModel, commits: Iterable[CommitRecord]) -> list[LabeledCommit]:
    commits = list(commits)
    categories, pairs = label_messages(cascade, [c.message for c in commits])
    return list(map(LabeledCommit, commits, categories, pairs))


def train_cascade(
    tagged: Sequence[tuple[str, CommitCategory]],
    lexicon: Lexicon | None = None,
    lemma_exceptions: dict[str, str] | None = None,
    keywords: dict[str, frozenset[str]] | None = None,
) -> CascadeModel:
    """Fit the ML stages on whatever the static stages leave behind.

    Stage k is trained on the messages not captured by the static rules or
    by stages 1..k-1, with positives being the messages tagged as stage k's
    category; a stage with no surviving positives is an error.
    """
    cascade, docs, static = _prepare_tagged(tagged, lexicon, lemma_exceptions, keywords)
    survivors = [(d, cat) for d, s, (_, cat) in zip(docs, static, tagged) if s is None]
    cascade.stages = _fit_stages(survivors)
    return cascade


def _prepare_tagged(tagged, lexicon=None, lemma_exceptions=None, keywords=None):
    """A cascade without ML stages, and the tagged messages' token lists and static categories."""
    cascade = CascadeModel(
        lexicon=lexicon or textnorm.default_lexicon(),
        lemma_exceptions=lemma_exceptions or textnorm.default_lemma_exceptions(),
        keywords=keywords or default_keywords(),
        gibberish_threshold=DEFAULT_GIBBERISH_THRESHOLD,
    )
    docs = [cascade.prepare(message) for message, _ in tagged]
    return cascade, docs, [_static_category(cascade, d) for d in docs]


def _fit_stages(survivors: list) -> list[MlStage]:
    """Train the ML stages in order on the (tokens, tag) pairs the static stages left."""
    stages = []
    for stage_category in ML_CATEGORIES:
        if not any(cat == stage_category for _, cat in survivors):
            raise DataError(f"no surviving positive examples for ML stage {stage_category.value}")
        docs = [tokens for tokens, _ in survivors]
        tfidf = fit_tfidf(docs, DEFAULT_MAX_FEATURES, DEFAULT_NGRAM_RANGE)
        X = tfidf_transform(tfidf, docs)
        y = [cat == stage_category for _, cat in survivors]
        logreg = train_logreg(X, y)
        stages.append(MlStage(category=stage_category, tfidf=tfidf, logreg=logreg))
        fired = predict(logreg, X)
        survivors = [row for row, f in zip(survivors, fired) if not f]
    return stages


# report keys for the two Other measurements
OTHER_STATIC = "Other(static)"
OTHER_RESIDUAL = "Other(residual)"


def evaluate_cascade(
    tagged: Sequence[tuple[str, CommitCategory]],
    k: int = 5,
    seed: int = 0,
) -> dict[str, EvalReport]:
    """Stratified k-fold evaluation of the full cascade.

    Static stages are fixed rules, so their scores only depend on the test
    rows; Other is scored twice, once as the static gibberish rule alone and
    once after residual assignment picks up everything the ML stages left.
    """
    _, docs, static = _prepare_tagged(tagged)
    labels = [cat for _, cat in tagged]
    falls_through = [i for i, s in enumerate(static) if s is None]
    folds = stratified_kfold(labels, k, seed)
    per_key: dict[str, list[EvalReport]] = {}

    for test_idx in folds:
        test_set = set(test_idx)
        train = [(docs[i], labels[i]) for i in falls_through if i not in test_set]
        y_true = [labels[i] for i in test_idx]
        static_pred = [static[i] for i in test_idx]
        y_pred = _funnel(_fit_stages(train), [docs[i] for i in test_idx], static_pred)

        other = CommitCategory.OTHER
        scored = [(c.value, y_pred, c) for c in CATEGORIES if c != other]
        scored += [(OTHER_STATIC, static_pred, other), (OTHER_RESIDUAL, y_pred, other)]
        for key, pred, category in scored:
            per_key.setdefault(key, []).append(prf1(y_true, pred, category))

    return {key: mean_report(reports) for key, reports in per_key.items()}


def category_distribution(categories: Sequence[CommitCategory]) -> dict[str, tuple[int, float]]:
    """Count and ratio per category, in canonical category order."""
    counts = {c: 0 for c in CATEGORIES}
    for category in categories:
        counts[category] += 1
    total = len(categories)
    return {
        c.value: (counts[c], counts[c] / total if total else 0.0) for c in CATEGORIES
    }
