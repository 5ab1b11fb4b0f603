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

The stage order (``ML_CATEGORIES``), the gibberish threshold, every stage's
n-gram range (``NGRAM_RANGE``), the keyword lists and the lemma exceptions
belong to the code, and a model file holds none of them. It holds the
lexicon, which ``train-commits`` can take from word-list files, and each ML
stage's terms, idf and logistic weights, in stage order. A file without
exactly one stage per category in ``ML_CATEGORIES`` is refused.

Classification is a funnel over a batch: each message is normalized and run
through the static rules once, and the n-grams of the messages the rules
leave are enumerated once, into one ``NgramIndex`` for the batch. Each ML
stage then scores the rows still unlabelled as one TF-IDF matrix taken from
that index. ``classify`` is a one-row batch.

A message's category and pair flag depend on its text alone, and course
histories repeat messages. So each distinct message is normalized and run
through the static rules once, and its result is mapped back to every commit
that carries it. ``label_distinct`` classifies a course's distinct messages
as one batch, with no block size. Training and cross-validation index the
n-grams of the distinct tagged messages once. A fit takes that index with
one row per distinct (message, category) pair among its training commits,
in the order of message text and then category, and counts each row with
its number of commits: document frequencies count commits and the logistic
loss sums over commits, as with one row per commit, and a stage's survivors
keep their counts. So a trained cascade does not depend on the order of the
tagged rows. Cross-validation scores one row per test commit.
``distinct_messages`` alone says which messages are the same: equal strings.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import textnorm
from .errors import DataError
from .ingest import CommitRecord
from .mlcore import (
    EvalReport,
    LogisticModel,
    NgramIndex,
    TfidfModel,
    fit_tfidf,
    index_ngrams,
    mean_report,
    predict,
    prf1,
    stratified_kfold,
    tfidf_transform,
    train_logreg,
)
from .mlcore.serialize import fields, nested, objects, strings
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
NGRAM_RANGE = (1, 4)


@lru_cache(maxsize=None)
def _load_keywords(name: str) -> frozenset[str]:
    return frozenset(textnorm.read_entries(f"keywords_{name}.txt"))


# the keyword stages in cascade order: (keyword list, category it assigns)
_KEYWORD_RULES = (
    ("merge", CommitCategory.MERGE),
    ("documentation", CommitCategory.DOCUMENTATION),
    ("style", CommitCategory.STYLE),
)


def is_gibberish(tokens: Sequence[str], lexicon: Lexicon) -> bool:
    """True when too few tokens are recognizable words (or there are none)."""
    if not tokens:
        return True
    return textnorm.meaningful_ratio(list(tokens), lexicon) < DEFAULT_GIBBERISH_THRESHOLD


def detect_pair_programming(tokens: Sequence[str]) -> bool:
    """Whole-token match of "pair" (any lemma) or the abbreviation "pp"."""
    return any(t in ("pair", "pp") for t in tokens)


@dataclass
class MlStage:
    tfidf: TfidfModel
    logreg: LogisticModel

    def fires(self, index: NgramIndex) -> np.ndarray:
        return predict(self.logreg, tfidf_transform(self.tfidf, index))


# a model file's lexicon keys and the Lexicon fields they hold, in field order
_LEXICON_KEYS = {"english": "english_words", "domain": "domain_words", "stopwords": "stopwords"}


def _read_lexicon(raw, name: str) -> Lexicon:
    """A model file's lexicon: three word lists that pass the :class:`Lexicon` checks."""
    words = fields(raw, "lexicon ", **dict.fromkeys(_LEXICON_KEYS, strings))
    try:
        return Lexicon(*map(frozenset, words))
    except ValueError as exc:  # a word that is not lowercase, or a missing domain word
        raise DataError(f"lexicon: {exc}") from None


@dataclass
class CascadeModel:
    """The trained part of the cascade: its lexicon and ML stages, in
    ``ML_CATEGORIES`` order; the rules and constants are the code's."""

    lexicon: Lexicon
    stages: list[MlStage] = field(default_factory=list)

    def prepare(self, message: str) -> list[str]:
        return textnorm.normalize(message, self.lexicon)

    def to_dict(self) -> dict:
        return {
            "lexicon": {key: sorted(getattr(self.lexicon, name)) for key, name in _LEXICON_KEYS.items()},
            "stages": [{"tfidf": s.tfidf.to_dict(), "logreg": s.logreg.to_dict()} for s in self.stages],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CascadeModel":
        raw_stages, lexicon = fields(raw, "", stages=objects, lexicon=_read_lexicon)
        if len(raw_stages) != len(ML_CATEGORIES):
            raise DataError(
                f"expected {len(ML_CATEGORIES)} ML stages ({', '.join(c.value for c in ML_CATEGORIES)}), "
                f"found {len(raw_stages)}"
            )
        stages = []
        for category, s in zip(ML_CATEGORIES, raw_stages):
            tfidf, logreg = fields(s, "", tfidf=nested(TfidfModel), logreg=nested(LogisticModel))
            if logreg.weights.shape != (tfidf.dim,):
                raise DataError(f"the {category.value} stage needs one weight per term")
            stages.append(MlStage(tfidf=tfidf, logreg=logreg))
        return cls(lexicon=lexicon, stages=stages)


def _static_category(cascade: CascadeModel, tokens: Sequence[str]) -> CommitCategory | None:
    """Keyword and gibberish stages only; None when the message falls through."""
    for name, category in _KEYWORD_RULES:
        if not _load_keywords(name).isdisjoint(tokens):
            return category
    if is_gibberish(tokens, cascade.lexicon):
        return CommitCategory.OTHER
    return None


def _index(docs: Sequence[Sequence[str]]) -> NgramIndex:
    return index_ngrams(docs, *NGRAM_RANGE)


def _funnel(stages: Sequence[MlStage], index: NgramIndex, static: list) -> list:
    """Complete the static labels. ``index`` holds the n-grams of the rows
    whose label is None, in row order; each ML stage scores those still unlabelled."""
    ml_labels = [CommitCategory.OTHER] * index.n_docs
    left = np.arange(index.n_docs)
    for category, stage in zip(ML_CATEGORIES, stages):
        fired = stage.fires(index.take(left))
        for i in left[fired].tolist():
            ml_labels[i] = category
        left = left[~fired]
    ml = iter(ml_labels)
    return [next(ml) if label is None else label for label in static]


def classify_tokens(cascade: CascadeModel, docs: Sequence[Sequence[str]]) -> list[CommitCategory]:
    """The cascade category of each normalized message."""
    static = [_static_category(cascade, d) for d in docs]
    return _funnel(cascade.stages, _index([d for d, s in zip(docs, static) if s is None]), static)


def classify(cascade: CascadeModel, message: str) -> CommitCategory:
    """Assign the single cascade category for one raw message."""
    return classify_tokens(cascade, [cascade.prepare(message)])[0]


@dataclass(frozen=True)
class LabeledCommit:
    commit: CommitRecord
    category: CommitCategory
    pair_programming: bool


def distinct_messages(messages: Iterable[str]) -> tuple[list[str], list[int]]:
    """The distinct messages, in order of first occurrence, and the position
    of each message among them."""
    position: dict[str, int] = {}
    at = [position.setdefault(m, len(position)) for m in messages]
    return list(position), at


def label_distinct(
    cascade: CascadeModel, distinct: Sequence[str]
) -> tuple[list[CommitCategory], list[bool]]:
    """Each message's cascade category and pair-programming flag. The messages
    are distinct, as :func:`distinct_messages` gives them, and are classified
    as one batch."""
    docs = [cascade.prepare(m) for m in distinct]
    return classify_tokens(cascade, docs), list(map(detect_pair_programming, docs))


def label_commits(cascade: CascadeModel, commits: Iterable[CommitRecord]) -> list[LabeledCommit]:
    commits = list(commits)
    distinct, at = distinct_messages(c.message for c in commits)
    categories, pairs = label_distinct(cascade, distinct)
    return [LabeledCommit(c, categories[i], pairs[i]) for c, i in zip(commits, at)]


def train_cascade(
    tagged: Sequence[tuple[str, CommitCategory]],
    lexicon: Lexicon | None = None,
    distinct: tuple[list[str], list[int]] | None = None,
) -> CascadeModel:
    """Fit the ML stages on whatever the static stages leave behind.

    Stage k is trained on the messages not captured by the static rules or
    by stages 1..k-1, with positives being the messages tagged as stage k's
    category; a stage with no surviving positives is an error. The fits
    see each distinct (message, category) pair once, counted with its
    number of commits, so the model does not depend on the order of
    ``tagged``. ``distinct`` is the tagged messages'
    :func:`distinct_messages`, found here if not given.
    """
    cascade, messages, index, static, at = _prepare_tagged(tagged, lexicon, distinct)
    pairs = [(at[i], category) for i, (_, category) in enumerate(tagged) if static[at[i]] is None]
    cascade.stages = _fit_stages(messages, index, pairs)
    return cascade


def _prepare_tagged(tagged, lexicon=None, distinct=None) -> tuple[CascadeModel, list, NgramIndex, list, list]:
    """A cascade without ML stages; the distinct tagged messages, their
    n-gram index and static categories; and the position of each tagged
    message among them."""
    cascade = CascadeModel(lexicon=lexicon or textnorm.default_lexicon())
    messages, at = distinct or distinct_messages(message for message, _ in tagged)
    docs = [cascade.prepare(message) for message in messages]
    static = [_static_category(cascade, d) for d in docs]
    return cascade, messages, _index(docs), static, at


def _fit_stages(messages: list[str], index: NgramIndex, pairs: list) -> list[MlStage]:
    """Train the ML stages in order on the tagged commits the static stages
    left. ``pairs`` holds each commit's message, as a row of ``index`` (the
    n-grams of ``messages``), and its category. The fits see each distinct
    pair once, counted with its number of commits, in the order of message
    text and then category."""
    commits = Counter(pairs)
    order = sorted(commits, key=lambda pair: (messages[pair[0]], pair[1].value))
    index = index.take([message for message, _ in order])
    tags = [category for _, category in order]
    counts = np.array([commits[pair] for pair in order], dtype=np.float64)
    stages = []
    for stage_category in ML_CATEGORIES:
        if stage_category not in tags:
            raise DataError(f"no surviving positive examples for ML stage {stage_category.value}")
        tfidf = fit_tfidf(index, DEFAULT_MAX_FEATURES, counts)
        X = tfidf_transform(tfidf, index)
        logreg = train_logreg(X, [cat == stage_category for cat in tags], counts=counts)
        stages.append(MlStage(tfidf=tfidf, logreg=logreg))
        left = np.flatnonzero(~predict(logreg, X))
        index = index.take(left)
        tags = [tags[i] for i in left.tolist()]
        counts = counts[left]
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
    The keys come in the report's row order.
    """
    _, messages, index, static, at = _prepare_tagged(tagged)
    labels = [cat for _, cat in tagged]
    folds = stratified_kfold(labels, k, seed)
    per_key: dict[str, list[EvalReport]] = {}

    for test_idx in folds:
        test_set = set(test_idx)
        train = [(at[i], labels[i]) for i in range(len(tagged)) if i not in test_set and static[at[i]] is None]
        stages = _fit_stages(messages, index, train)
        y_true = [labels[i] for i in test_idx]
        static_pred = [static[at[i]] for i in test_idx]
        unlabelled = [at[i] for i, s in zip(test_idx, static_pred) if s is None]
        y_pred = _funnel(stages, index.take(unlabelled), static_pred)

        C = CommitCategory
        scored = [(c.value, y_pred, c) for c in (C.MERGE, C.STYLE, C.DOCUMENTATION)]
        scored.append((OTHER_STATIC, static_pred, C.OTHER))
        scored += [(c.value, y_pred, c) for c in (C.IMPLEMENTATION, C.BUGFIX, C.TEST)]
        scored.append((OTHER_RESIDUAL, y_pred, C.OTHER))
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
