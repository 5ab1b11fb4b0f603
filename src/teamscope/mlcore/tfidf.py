"""TF-IDF vectorizer over token n-grams, built from scratch.

Vocabulary selection ranks candidate n-grams by document frequency with
lexicographic tie-breaking so that fitting is fully deterministic. IDF uses
the smoothed form ``ln((1 + N) / (1 + df)) + 1`` and transformed vectors are
L2-normalized (zero vectors stay zero), one row per document of a batch.

A corpus's n-grams are enumerated once, into an :class:`NgramIndex`: a
term -> id dict and a document-term matrix in compressed sparse rows (as
scikit-learn's ``CountVectorizer`` builds it), with one (id, count) entry
per distinct n-gram of a document and document r's entries at the offsets
``indptr[r]:indptr[r + 1]``. Fitting and transforming work on those arrays,
and ``take`` gathers the documents of a fold or of a cascade stage's
survivors without enumerating their n-grams again. Document frequencies are
a ``bincount`` of the entries' ids. A fit may count each document with a
multiplicity, in df and in the document total N alike, as if the index held
it that many times; the multiplicities are whole numbers, so df, N and the
idf are those of the repeated index to the byte. A batch's counts are
written into its matrix at (row, column) in one assignment. Each row's norm
is the square root of its own dot product, taken as the stacked
(1 x dim) @ (dim x 1) products of one ``matmul``: that is the kernel a
row's ``vec @ vec`` uses, so a row's bytes do not depend on the batch it is
in.

An index does not record its n-gram range: the caller that builds it owns
the range, and a model, fitted on one index, is applied to indexes of the
same range. A model file holds the terms, in column order, and their idf.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DataError
from .evaluation import check_counts
from .serialize import fields, numbers, strings


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
        terms, idf = fields(raw, "", terms=strings, idf=numbers)
        if len(set(terms)) != len(terms) or idf.shape != (len(terms),):
            raise DataError("a tfidf model needs distinct terms and one idf value per term")
        return cls(vocabulary={t: i for i, t in enumerate(terms)}, idf=idf)


def iter_ngrams(tokens: Sequence[str], n_min: int, n_max: int):
    """Yield space-joined n-grams of every size in the configured range."""
    for n in range(n_min, n_max + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


@dataclass(frozen=True, eq=False)
class NgramIndex:
    """The n-gram counts of a list of documents, in compressed sparse rows.

    Document r's entries are ``ids[indptr[r]:indptr[r + 1]]`` (int32 term
    ids, one per distinct n-gram of the document) and the int32 ``counts``
    at the same offsets; ``indptr`` holds one offset per document and a last
    one. ``terms`` maps each n-gram to its id and may hold n-grams that no
    indexed document has.
    """

    terms: dict[str, int]
    indptr: np.ndarray  # int64
    ids: np.ndarray  # int32
    counts: np.ndarray  # int32

    @property
    def n_docs(self) -> int:
        return self.indptr.size - 1

    def take(self, rows: Sequence[int]) -> "NgramIndex":
        """The documents ``rows``, in that order, as rows 0, 1, ...; a row may repeat."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_docs):
            raise IndexError(f"rows must lie in [0, {self.n_docs})")
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        entry = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return NgramIndex(self.terms, indptr, self.ids[entry], self.counts[entry])


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
    indptr = np.cumsum([0] + lengths)
    return NgramIndex(terms, indptr, np.array(ids, dtype=np.int32), np.array(counts, dtype=np.int32))


def fit_tfidf(index: NgramIndex, max_features: int, counts=None) -> TfidfModel:
    """Fit a vocabulary of the ``max_features`` most document-frequent n-grams
    of ``index``, document r counted ``counts[r]`` times (once without ``counts``)."""
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    if index.n_docs == 0:
        raise DataError("cannot fit tf-idf on an empty document list")
    counts = check_counts(counts, index.n_docs)
    if not (counts == np.floor(counts)).all():
        raise DataError("document counts must be whole numbers")

    # sums of whole numbers below 2**53 are exact in float64
    entry_counts = np.repeat(counts, np.diff(index.indptr))
    doc_freq = np.bincount(index.ids, entry_counts, minlength=len(index.terms)).astype(np.int64)
    present = np.flatnonzero(doc_freq)
    if not present.size:
        raise DataError("empty vocabulary: no document produced any n-gram")
    names = list(index.terms)
    df = {names[i]: n for i, n in zip(present.tolist(), doc_freq[present].tolist())}

    # the terms of sorted(df, key=...)[:max_features], without sorting the rest
    kept = heapq.nsmallest(max_features, df, key=lambda g: (-df[g], g))
    n_docs = int(counts.sum())
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
    # positions, not a mask: in document order hits and misses alternate,
    # and a masked gather then costs several times a gather by position
    hit = np.flatnonzero(cols >= 0)
    rows = np.repeat(np.arange(index.n_docs), np.diff(index.indptr))
    X = np.zeros((index.n_docs, model.dim), dtype=np.float64)
    X[rows[hit], cols[hit]] = index.counts[hit]
    X *= model.idf
    norms = np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])
    np.divide(X, norms[:, None], out=X, where=(norms > 0.0)[:, None])
    return X
