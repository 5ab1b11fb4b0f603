import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope.errors import DataError
from teamscope.mlcore import fit_tfidf, iter_ngrams, tfidf_transform


def test_fit_two_docs_idf_of_shared_term():
    model = fit_tfidf([["fix", "bug"], ["fix", "test"]], max_features=2, ngram_range=(1, 1))
    assert "fix" in model.vocabulary
    # df(fix)=2 over N=2 docs: ln(3/3) + 1
    assert model.idf[model.vocabulary["fix"]] == pytest.approx(1.0)
    # the second slot goes to the lexicographically first of the df-1 ties
    assert "bug" in model.vocabulary and "test" not in model.vocabulary


def test_fit_single_doc():
    model = fit_tfidf([["a"]], max_features=4, ngram_range=(1, 1))
    assert model.vocabulary == {"a": 0}
    assert model.idf[0] == pytest.approx(math.log(2 / 2) + 1.0)


def test_fit_tie_rule_lexicographic():
    model = fit_tfidf([["c", "b", "a"]], max_features=1, ngram_range=(1, 1))
    assert list(model.vocabulary) == ["a"]


def test_fit_empty_docs_error():
    with pytest.raises(DataError, match="empty vocabulary"):
        fit_tfidf([[], []], max_features=3, ngram_range=(1, 1))
    with pytest.raises(DataError):
        fit_tfidf([], max_features=3, ngram_range=(1, 1))


def test_ngram_extraction_range():
    grams = list(iter_ngrams(["a", "b", "c"], 1, 4))
    assert grams == ["a", "b", "c", "a b", "b c", "a b c"]


def test_document_frequency_not_collection_frequency():
    # "x" twice in one doc still counts df=1; "y" in two docs wins the cap
    model = fit_tfidf([["x", "x"], ["y"], ["y"]], max_features=1, ngram_range=(1, 1))
    assert list(model.vocabulary) == ["y"]


def test_transform_no_vocabulary_terms_is_zero():
    model = fit_tfidf([["fix", "bug"]], max_features=2, ngram_range=(1, 1))
    (vec,) = tfidf_transform(model, [["zzz"]])
    assert np.all(vec == 0.0)


def test_transform_single_term_is_unit():
    model = fit_tfidf([["fix", "bug"]], max_features=2, ngram_range=(1, 1))
    (vec,) = tfidf_transform(model, [["fix"]])
    assert vec[model.vocabulary["fix"]] == pytest.approx(1.0)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_transform_hand_computed_normalization():
    # two-term vocabulary with idf 1 each: counts (2, 1) -> (0.894, 0.447)
    model = fit_tfidf([["fix", "bug"], ["fix", "bug"]], max_features=2, ngram_range=(1, 1))
    assert np.allclose(model.idf, 1.0)
    (vec,) = tfidf_transform(model, [["fix", "fix", "bug"]])
    assert vec[model.vocabulary["fix"]] == pytest.approx(0.894, abs=1e-3)
    assert vec[model.vocabulary["bug"]] == pytest.approx(0.447, abs=1e-3)


token_lists = st.lists(st.sampled_from(["fix", "bug", "test", "case", "add", "zz"]), max_size=8)


@settings(max_examples=100, deadline=None)
@given(doc=token_lists)
def test_transform_norm_is_one_or_zero(doc):
    corpus = [["fix", "bug", "test"], ["add", "case", "fix"], ["bug", "zz"]]
    model = fit_tfidf(corpus, max_features=10, ngram_range=(1, 2))
    norm = float(np.linalg.norm(tfidf_transform(model, [doc])[0]))
    assert norm == 0.0 or abs(norm - 1.0) <= 1e-12


def _reference_row(model, doc):
    """The one-document transform: counts in a fresh vector, normed by its own dot."""
    vec = np.zeros(model.dim)
    for gram in iter_ngrams(doc, model.ngram_min, model.ngram_max):
        if gram in model.vocabulary:
            vec[model.vocabulary[gram]] += 1.0
    vec *= model.idf
    norm = math.sqrt(float(vec @ vec))
    return vec / norm if norm > 0.0 else vec


_WORDS = ["fix", "bug", "test", "case", "add", "zz", "menu", "gui", "login", "list"]


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12), min_size=1, max_size=30),
    docs=st.lists(st.lists(st.sampled_from(_WORDS), max_size=16), max_size=12),
)
def test_batch_rows_equal_one_document_rows(corpus, docs):
    model = fit_tfidf(corpus, max_features=45, ngram_range=(1, 4))
    X = tfidf_transform(model, docs)
    assert X.shape == (len(docs), model.dim) and X.dtype == np.float64
    for row, doc in zip(X, docs):
        assert row.tobytes() == tfidf_transform(model, [doc])[0].tobytes()
        assert row.tobytes() == _reference_row(model, doc).tobytes()


def test_vocabulary_capped_at_max_features():
    docs = [[c] for c in "abcdefgh"]
    model = fit_tfidf(docs, max_features=3, ngram_range=(1, 1))
    assert len(model.vocabulary) == 3
