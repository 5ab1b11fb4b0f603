"""TF-IDF vectorizer over token n-grams, built from scratch.

Vocabulary selection ranks candidate n-grams by document frequency with
lexicographic tie-breaking so that fitting is fully deterministic. IDF uses
the smoothed form ``ln((1 + N) / (1 + df)) + 1`` and transformed vectors are
L2-normalized (zero vectors stay zero), one row per document of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DataError, SchemaError


@dataclass
class TfidfModel:
    """Fitted vocabulary and per-column inverse document frequencies."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    max_features: int
    ngram_min: int
    ngram_max: int

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def to_dict(self) -> dict:
        terms = sorted(self.vocabulary, key=self.vocabulary.get)
        return {
            "terms": terms,
            "idf": [float(v) for v in self.idf],
            "max_features": self.max_features,
            "ngram_min": self.ngram_min,
            "ngram_max": self.ngram_max,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TfidfModel":
        terms = raw["terms"]
        idf = np.asarray(raw["idf"], dtype=np.float64)
        if not isinstance(terms, list) or len(set(terms)) != len(terms) or idf.shape != (len(terms),):
            raise SchemaError("a tfidf model needs distinct terms and one idf value per term")
        ngram_min, ngram_max = raw["ngram_min"], raw["ngram_max"]
        # JSON true/false would pass as 1/0, so the types are compared
        if type(ngram_min) is not int or type(ngram_max) is not int or not 1 <= ngram_min <= ngram_max:
            raise SchemaError(f"bad ngram range ({ngram_min!r}, {ngram_max!r})")
        return cls(
            vocabulary={t: i for i, t in enumerate(terms)},
            idf=idf,
            max_features=int(raw["max_features"]),
            ngram_min=ngram_min,
            ngram_max=ngram_max,
        )


def iter_ngrams(tokens: Sequence[str], ngram_min: int, ngram_max: int):
    """Yield space-joined n-grams of every size in the configured range."""
    for n in range(ngram_min, ngram_max + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


def fit_tfidf(
    docs: Sequence[Sequence[str]],
    max_features: int,
    ngram_range: tuple[int, int] = (1, 1),
) -> TfidfModel:
    """Fit a vocabulary of the ``max_features`` most document-frequent n-grams."""
    ngram_min, ngram_max = ngram_range
    if not docs:
        raise DataError("cannot fit tf-idf on an empty document list")
    if not (1 <= ngram_min <= ngram_max):
        raise ValueError(f"bad ngram range ({ngram_min}, {ngram_max})")
    if max_features < 1:
        raise ValueError("max_features must be >= 1")

    df: dict[str, int] = {}
    for doc in docs:
        for gram in set(iter_ngrams(doc, ngram_min, ngram_max)):
            df[gram] = df.get(gram, 0) + 1
    if not df:
        raise DataError("empty vocabulary: no document produced any n-gram")

    kept = sorted(df, key=lambda g: (-df[g], g))[:max_features]
    n_docs = len(docs)
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[g])) + 1.0 for g in kept], dtype=np.float64
    )
    return TfidfModel(
        vocabulary={g: i for i, g in enumerate(kept)},
        idf=idf,
        max_features=max_features,
        ngram_min=ngram_min,
        ngram_max=ngram_max,
    )


def tfidf_transform(model: TfidfModel, docs: Sequence[Sequence[str]]) -> np.ndarray:
    """One row per document: raw term counts times IDF, each row L2-normalized."""
    X = np.zeros((len(docs), model.dim), dtype=np.float64)
    vocab = model.vocabulary
    for vec, doc in zip(X, docs):
        for gram in iter_ngrams(doc, model.ngram_min, model.ngram_max):
            col = vocab.get(gram)
            if col is not None:
                vec[col] += 1.0
        vec *= model.idf
        norm = math.sqrt(float(vec @ vec))
        if norm > 0.0:
            vec /= norm
    return X
