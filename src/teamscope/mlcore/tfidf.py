"""TF-IDF vectorizer over token n-grams, built from scratch.

Vocabulary selection ranks candidate n-grams by document frequency with
lexicographic tie-breaking so that fitting is fully deterministic. IDF uses
the smoothed form ``ln((1 + N) / (1 + df)) + 1`` and transformed vectors are
L2-normalized (zero vectors stay zero), one row per document of a batch.

A corpus's n-grams are enumerated once, into an :class:`NgramIndex`: a
term -> id dict and, for each document, one (row, id, count) entry per
distinct n-gram, as int32 arrays (a document-term matrix in coordinate form,
as behind scikit-learn's ``TfidfVectorizer``). Fitting and transforming work
on those arrays, and ``take`` selects the documents of a fold or of a cascade
stage's survivors without enumerating their n-grams again. Document
frequencies are a ``bincount`` of the entries' ids, and a batch's counts
are written into its matrix at (row, column) in one assignment. Each row's
norm is the square root of its own dot product, taken as the stacked
(1 x dim) @ (dim x 1) products of one ``matmul``: that is the kernel a
row's ``vec @ vec`` uses, so a row's bytes do not depend on the batch it is
in.

An index does not record its n-gram range: the caller that builds it owns
the range, and a model, fitted on one index, is applied to indexes of the
same range. A model file holds the terms, in column order, and their idf.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DataError, SchemaError
from .serialize import numbers, strings


@dataclass
class TfidfModel:
    """Fitted vocabulary and per-column inverse document frequencies."""

    vocabulary: dict[str, int]
    idf: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def to_dict(self) -> dict:
        terms = sorted(self.vocabulary, key=self.vocabulary.get)
        return {"terms": terms, "idf": [float(v) for v in self.idf]}

    @classmethod
    def from_dict(cls, raw: dict) -> "TfidfModel":
        terms = strings(raw["terms"], "terms")
        idf = numbers(raw["idf"], "idf")
        if len(set(terms)) != len(terms) or idf.shape != (len(terms),):
            raise SchemaError("a tfidf model needs distinct terms and one idf value per term")
        return cls(vocabulary={t: i for i, t in enumerate(terms)}, idf=idf)


def iter_ngrams(tokens: Sequence[str], n_min: int, n_max: int):
    """Yield space-joined n-grams of every size in the configured range."""
    for n in range(n_min, n_max + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


@dataclass(frozen=True, eq=False)
class NgramIndex:
    """The n-gram counts of a list of documents, as integer arrays.

    Entry k says that term ``ids[k]`` occurs ``counts[k]`` times in document
    ``rows[k]``; a (row, id) pair has one entry. ``terms`` maps each n-gram
    to its id and may hold n-grams that no indexed document has.
    """

    terms: dict[str, int]
    rows: np.ndarray  # int32
    ids: np.ndarray  # int32
    counts: np.ndarray  # int32
    n_docs: int

    def take(self, rows: Sequence[int]) -> "NgramIndex":
        """The documents ``rows``, in that order, as rows 0, 1, ...

        A row may repeat: each copy becomes its own document, with its own
        entries, so an index of distinct documents gives every occurrence of
        a repeated document a row. The entries keep their order here, the
        copies of an entry side by side in the order of ``rows``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_docs):
            raise IndexError(f"rows must lie in [0, {self.n_docs})")
        copies = np.bincount(rows, minlength=self.n_docs)
        # the positions in ``rows`` of each document, grouped by document
        by_doc = np.argsort(rows, kind="stable")
        per_entry = copies[self.rows]
        entry = np.repeat(np.arange(self.rows.size), per_entry)
        # copy c of an entry of document d (the entry's copies start at out_k
        # in the result) belongs to row by_doc[first[d] + c]
        first = np.cumsum(copies) - copies
        out_k = np.cumsum(per_entry) - per_entry
        at = np.repeat(first[self.rows] - out_k, per_entry)
        at += np.arange(entry.size)
        new_rows = by_doc[at].astype(np.int32)
        return NgramIndex(self.terms, new_rows, self.ids[entry], self.counts[entry], rows.size)


def index_ngrams(docs: Sequence[Sequence[str]], n_min: int, n_max: int) -> NgramIndex:
    """Enumerate each document's n-grams once, numbering terms as they first appear."""
    terms: dict[str, int] = {}
    ids: list[int] = []
    counts: list[int] = []
    lengths = []
    for doc in docs:
        grams = Counter(iter_ngrams(doc, n_min, n_max))
        ids += [terms.setdefault(gram, len(terms)) for gram in grams]
        counts += grams.values()
        lengths.append(len(grams))
    return NgramIndex(
        terms,
        np.repeat(np.arange(len(docs), dtype=np.int32), lengths),
        np.array(ids, dtype=np.int32),
        np.array(counts, dtype=np.int32),
        len(docs),
    )


def fit_tfidf(index: NgramIndex, max_features: int) -> TfidfModel:
    """Fit a vocabulary of the ``max_features`` most document-frequent n-grams of ``index``."""
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if index.n_docs == 0:
        raise DataError("cannot fit tf-idf on an empty document list")

    doc_freq = np.bincount(index.ids, minlength=len(index.terms))
    present = np.flatnonzero(doc_freq)
    if not present.size:
        raise DataError("empty vocabulary: no document produced any n-gram")
    names = list(index.terms)
    df = {names[i]: n for i, n in zip(present.tolist(), doc_freq[present].tolist())}

    kept = sorted(df, key=lambda g: (-df[g], g))[:max_features]
    n_docs = index.n_docs
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[g])) + 1.0 for g in kept], dtype=np.float64
    )
    return TfidfModel(vocabulary={g: i for i, g in enumerate(kept)}, idf=idf)


def tfidf_transform(model: TfidfModel, index: NgramIndex) -> np.ndarray:
    """One row per document of ``index``: raw term counts times IDF, each row L2-normalized."""
    column = np.full(len(index.terms), -1, dtype=np.int32)
    for term, col in model.vocabulary.items():
        at = index.terms.get(term)
        if at is not None:
            column[at] = col
    cols = column[index.ids]
    hit = cols >= 0
    X = np.zeros((index.n_docs, model.dim), dtype=np.float64)
    X[index.rows[hit], cols[hit]] = index.counts[hit]
    X *= model.idf
    norms = np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])
    np.divide(X, norms[:, None], out=X, where=(norms > 0.0)[:, None])
    return X
