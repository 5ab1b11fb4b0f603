"""Reference TF-IDF: one document at a time, n-gram strings in dicts.

Used by tests as the oracle for ``teamscope.mlcore.tfidf``: it enumerates
every document's n-grams again in each call, counts document frequencies in
a dict, and fills and normalizes one row at a time with the row's own
``vec @ vec``. Vocabularies, idf values and transformed rows must match the
production vectorizer's bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from teamscope.mlcore import iter_ngrams


def fit(docs, max_features, ngram_range):
    """(vocabulary, idf) of the ``max_features`` most document-frequent n-grams."""
    ngram_min, ngram_max = ngram_range
    df: dict[str, int] = {}
    for doc in docs:
        for gram in set(iter_ngrams(doc, ngram_min, ngram_max)):
            df[gram] = df.get(gram, 0) + 1
    kept = sorted(df, key=lambda g: (-df[g], g))[:max_features]
    n_docs = len(docs)
    idf = np.array([math.log((1 + n_docs) / (1 + df[g])) + 1.0 for g in kept], dtype=np.float64)
    return {g: i for i, g in enumerate(kept)}, idf


def transform(vocabulary, idf, ngram_range, docs):
    """One row per document: counts times idf, divided by the row's norm when it is not 0."""
    X = np.zeros((len(docs), len(vocabulary)), dtype=np.float64)
    for vec, doc in zip(X, docs):
        for gram in iter_ngrams(doc, *ngram_range):
            col = vocabulary.get(gram)
            if col is not None:
                vec[col] += 1.0
        vec *= idf
        norm = math.sqrt(float(vec @ vec))
        if norm > 0.0:
            vec /= norm
    return X
