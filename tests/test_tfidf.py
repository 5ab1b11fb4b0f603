import math

import numpy as np
import oracle_tfidf
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teamscope.errors import DataError
from teamscope.mlcore import fit_tfidf, index_ngrams, iter_ngrams, tfidf_transform


def _fit(docs, max_features, ngram_range=(1, 1)):
    return fit_tfidf(index_ngrams(docs, *ngram_range), max_features)


def _transform(model, docs, ngram_range=(1, 1)):
    return tfidf_transform(model, index_ngrams(docs, *ngram_range))


def test_fit_two_docs_idf_of_shared_term():
    model = _fit([["fix", "bug"], ["fix", "test"]], 2)
    assert "fix" in model.vocabulary
    # df(fix)=2 over N=2 docs: ln(3/3) + 1
    assert model.idf[model.vocabulary["fix"]] == pytest.approx(1.0)
    # the second slot goes to the lexicographically first of the df-1 ties
    assert "bug" in model.vocabulary and "test" not in model.vocabulary


def test_fit_single_doc():
    model = _fit([["a"]], 4)
    assert model.vocabulary == {"a": 0}
    assert model.idf[0] == pytest.approx(math.log(2 / 2) + 1.0)


def test_fit_tie_rule_lexicographic():
    model = _fit([["c", "b", "a"]], 1)
    assert list(model.vocabulary) == ["a"]


def test_fit_empty_docs_error():
    with pytest.raises(DataError, match="empty vocabulary"):
        _fit([[], []], 3)
    with pytest.raises(DataError):
        _fit([], 3)


def test_ngram_extraction_range():
    grams = list(iter_ngrams(["a", "b", "c"], 1, 4))
    assert grams == ["a", "b", "c", "a b", "b c", "a b c"]


def test_document_frequency_not_collection_frequency():
    # "x" twice in one doc still counts df=1; "y" in two docs wins the cap
    model = _fit([["x", "x"], ["y"], ["y"]], 1)
    assert list(model.vocabulary) == ["y"]


def test_transform_no_vocabulary_terms_is_zero():
    model = _fit([["fix", "bug"]], 2)
    (vec,) = _transform(model, [["zzz"]])
    assert np.all(vec == 0.0)


def test_transform_single_term_is_unit():
    model = _fit([["fix", "bug"]], 2)
    (vec,) = _transform(model, [["fix"]])
    assert vec[model.vocabulary["fix"]] == pytest.approx(1.0)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_transform_hand_computed_normalization():
    # two-term vocabulary with idf 1 each: counts (2, 1) -> (0.894, 0.447)
    model = _fit([["fix", "bug"], ["fix", "bug"]], 2)
    assert np.allclose(model.idf, 1.0)
    (vec,) = _transform(model, [["fix", "fix", "bug"]])
    assert vec[model.vocabulary["fix"]] == pytest.approx(0.894, abs=1e-3)
    assert vec[model.vocabulary["bug"]] == pytest.approx(0.447, abs=1e-3)


token_lists = st.lists(st.sampled_from(["fix", "bug", "test", "case", "add", "zz"]), max_size=8)


@settings(max_examples=100, deadline=None)
@given(doc=token_lists)
def test_transform_norm_is_one_or_zero(doc):
    corpus = [["fix", "bug", "test"], ["add", "case", "fix"], ["bug", "zz"]]
    model = _fit(corpus, 10, (1, 2))
    norm = float(np.linalg.norm(_transform(model, [doc], (1, 2))[0]))
    assert norm == 0.0 or abs(norm - 1.0) <= 1e-12


_WORDS = ["fix", "bug", "test", "case", "add", "zz", "menu", "gui", "login", "list"]


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12), min_size=1, max_size=30),
    docs=st.lists(st.lists(st.sampled_from(_WORDS), max_size=16), max_size=12),
)
def test_batch_rows_equal_one_document_rows(corpus, docs):
    model = _fit(corpus, 45, (1, 4))
    X = _transform(model, docs, (1, 4))
    assert X.shape == (len(docs), model.dim) and X.dtype == np.float64
    for row, doc in zip(X, docs):
        assert row.tobytes() == _transform(model, [doc], (1, 4))[0].tobytes()
        expected = oracle_tfidf.transform(model.vocabulary, model.idf, (1, 4), [doc])[0]
        assert row.tobytes() == expected.tobytes()


def test_vocabulary_capped_at_max_features():
    docs = [[c] for c in "abcdefgh"]
    model = _fit(docs, 3)
    assert len(model.vocabulary) == 3


def test_index_counts_each_documents_distinct_grams():
    index = index_ngrams([["a", "b", "a"], [], ["b", "b"]], 1, 2)
    assert index.terms == {"a": 0, "b": 1, "a b": 2, "b a": 3, "b b": 4}
    assert index.indptr.tolist() == [0, 4, 4, 6]
    assert index.ids.tolist() == [0, 1, 2, 3, 1, 4]
    assert index.counts.tolist() == [2, 1, 1, 1, 2, 1]
    assert index.n_docs == 3

    sub = index.take([2, 0])
    assert sub.terms is index.terms and sub.n_docs == 2
    assert sub.indptr.tolist() == [0, 2, 6]
    assert sub.ids.tolist() == [1, 4, 0, 1, 2, 3] and sub.counts.tolist() == [2, 1, 2, 1, 1, 1]
    assert index.take([1]).indptr.tolist() == [0, 0] and index.take([]).n_docs == 0


def _triples(index):
    names = list(index.terms)
    rows = np.repeat(np.arange(index.n_docs), np.diff(index.indptr))
    return [(r, names[i], c) for r, i, c in zip(rows.tolist(), index.ids.tolist(), index.counts.tolist())]


@settings(max_examples=150, deadline=None)
@given(
    docs=st.lists(st.lists(st.sampled_from("abc"), max_size=6), min_size=1, max_size=8),
    data=st.data(),
)
def test_take_gives_each_copy_of_a_repeated_row_its_own_entries(docs, data):
    rows = data.draw(st.one_of(
        st.lists(st.integers(0, len(docs) - 1), max_size=20),
        st.integers(0, len(docs) - 1).flatmap(lambda r: st.integers(2, 5).map(lambda k: [r] * k)),
    ))
    taken = index_ngrams(docs, 1, 2).take(rows)
    expected = index_ngrams([docs[r] for r in rows], 1, 2)
    assert taken.n_docs == expected.n_docs == len(rows)
    assert {a.dtype for a in (taken.ids, taken.counts)} == {np.dtype(np.int32)}
    assert _triples(taken) == _triples(expected)


def test_take_refuses_rows_outside_the_index():
    index = index_ngrams([["a"], ["b"]], 1, 1)
    for rows in ([2], [0, -1]):
        with pytest.raises(IndexError):
            index.take(rows)


# a small alphabet so that n-grams repeat within and across documents
_corpora = st.lists(st.lists(st.sampled_from("abcd"), max_size=9), min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(
    docs=_corpora,
    ngram_min=st.integers(1, 4),
    extra=st.integers(0, 3),
    max_features=st.integers(1, 30),
    data=st.data(),
)
def test_index_fit_and_transform_equal_the_oracle(docs, ngram_min, extra, max_features, data):
    ngram_range = (ngram_min, min(4, ngram_min + extra))
    index = index_ngrams(docs, *ngram_range)
    subset = data.draw(st.permutations(range(len(docs))).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: order[:k])
    ))
    for rows in (list(range(len(docs))), subset):
        part = [docs[i] for i in rows]
        taken = index.take(rows)
        if not any(len(doc) >= ngram_range[0] for doc in part):
            with pytest.raises(DataError, match="empty vocabulary"):
                fit_tfidf(taken, max_features)
            continue
        model = fit_tfidf(taken, max_features)
        vocabulary, idf = oracle_tfidf.fit(part, max_features, ngram_range)
        assert model.vocabulary == vocabulary
        assert list(model.vocabulary) == list(vocabulary)
        assert model.idf.tobytes() == idf.tobytes()
        expected = oracle_tfidf.transform(vocabulary, idf, ngram_range, docs)
        assert tfidf_transform(model, index).tobytes() == expected.tobytes()
        assert tfidf_transform(model, taken).tobytes() == expected[rows].tobytes()
        assert _transform(model, part, ngram_range).tobytes() == expected[rows].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    docs=_corpora,
    ngram_min=st.integers(1, 4),
    max_features=st.integers(1, 30),
    counts=st.lists(st.integers(1, 4), min_size=25, max_size=25),
)
def test_counted_fit_is_the_fit_on_repeated_documents(docs, ngram_min, max_features, counts):
    assume(any(len(doc) >= ngram_min for doc in docs))
    index = index_ngrams(docs, ngram_min, 4)
    counts = np.array(counts[: len(docs)])
    repeated = fit_tfidf(index.take(np.repeat(np.arange(len(docs)), counts)), max_features)
    for model in fit_tfidf(index, max_features, counts=counts), fit_tfidf(index, max_features, counts=counts * 1.0):
        assert list(model.vocabulary.items()) == list(repeated.vocabulary.items())
        assert model.idf.tobytes() == repeated.idf.tobytes()
    plain = fit_tfidf(index, max_features)
    unit = fit_tfidf(index, max_features, counts=np.ones(len(docs), dtype=int))
    assert list(unit.vocabulary.items()) == list(plain.vocabulary.items())
    assert unit.idf.tobytes() == plain.idf.tobytes()


@pytest.mark.parametrize(
    "counts, message",
    [
        ([1, 2], "3 rows but counts of shape"),
        ([1, 0, 2], "positive and finite"),
        ([1, -2, 2], "positive and finite"),
        ([1.0, np.nan, 2.0], "positive and finite"),
        ([1.0, np.inf, 2.0], "positive and finite"),
        ([1.0, 1.5, 2.0], "whole numbers"),
    ],
)
def test_bad_document_counts_are_refused(counts, message):
    index = index_ngrams([["fix", "bug"], ["add", "test"], ["fix"]], 1, 2)
    with pytest.raises(DataError, match=message):
        fit_tfidf(index, 4, counts=counts)
