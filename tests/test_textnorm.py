import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope.textnorm import (
    REQUIRED_DOMAIN_WORDS,
    Lexicon,
    lemma_table,
    default_lexicon,
    lemmatize,
    meaningful_ratio,
    remove_stopwords,
    tokenize,
)


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


def test_tokenize_merge_example():
    assert tokenize("Merge branch 'master' of ...") == ["merge", "branch", "master", "of"]


def test_tokenize_fixed_logout():
    assert tokenize("Fixed logout") == ["fixed", "logout"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_keeps_digits_and_splits_punctuation():
    assert tokenize("fix.bug,now") == ["fix", "bug", "now"]
    assert tokenize("abc123 456") == ["abc123", "456"]
    assert tokenize("v2: fix (loop)") == ["v2", "fix", "loop"]


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80))
def test_tokenize_idempotent_on_join(message):
    tokens = tokenize(message)
    assert tokenize(" ".join(tokens)) == tokens
    assert all(t and t == t.lower() for t in tokens)


def test_remove_stopwords_examples(lexicon):
    assert remove_stopwords(["added", "javadoc", "to", "the"], lexicon) == ["added", "javadoc"]
    assert remove_stopwords([], lexicon) == []
    assert remove_stopwords(["merge"], lexicon) == ["merge"]


def test_stopwords_keep_class_bearing_verbs(lexicon):
    for word in ("fix", "test", "add"):
        assert word not in lexicon.stopwords


def test_lemmatize_pmd_example():
    assert lemmatize(["fixing", "pmd", "errors"]) == ["fix", "pmd", "error"]


def test_lemmatize_suffix_rules():
    assert lemmatize(["test", "cases"]) == ["test", "case"]
    assert lemmatize(["asdf"]) == ["asdf"]
    assert lemmatize(["classes"]) == ["class"]  # sses -> ss
    assert lemmatize(["entries"]) == ["entry"]  # ies -> y
    assert lemmatize(["adding"]) == ["add"]
    assert lemmatize(["added"]) == ["add"]


def test_lemmatize_exception_map_first():
    assert lemmatize(["fixed", "wrote", "made"]) == ["fix", "write", "make"]
    assert lemmatize(["merged", "merging"]) == ["merge", "merge"]


def test_lemmatize_stem_length_guards():
    assert lemmatize(["ing"]) == ["ing"]  # too short for the ing rule
    assert lemmatize(["bed"]) == ["bed"]  # too short for the ed rule
    assert lemmatize(["its"]) == ["its"]  # stem would be 2 chars
    assert lemmatize(["class"]) == ["class"]  # ss-final tokens keep their s


def test_lemmatize_single_rule_application():
    # "testings" is not chained through ing after the s strip
    assert lemmatize(["testings"]) == ["testing"]


def test_lemmatize_idempotent_for_exceptions_and_s_rule_over_lexicon(lexicon):
    exceptions = lemma_table()
    for word in sorted(lexicon.english_words | lexicon.domain_words):
        (first,) = lemmatize([word])
        used_exception = word in exceptions
        used_s_rule = not used_exception and first != word and word == first + "s"
        if used_exception or used_s_rule:
            assert lemmatize([first]) == [first], word


def test_meaningful_ratio_examples(lexicon):
    assert meaningful_ratio(["asdf"], lexicon) == 0.0
    assert meaningful_ratio(["fix", "logout"], lexicon) == 1.0
    assert meaningful_ratio(["fix", "zzqq"], lexicon) == 0.5
    assert meaningful_ratio([], lexicon) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.permutations(["fix", "zzqq", "test", "qqqq", "merge"]))
def test_meaningful_ratio_order_invariant(tokens):
    lex = default_lexicon()
    assert meaningful_ratio(list(tokens), lex) == meaningful_ratio(sorted(tokens), lex)


def test_lexicon_contains_required_domain_words(lexicon):
    assert REQUIRED_DOMAIN_WORDS <= lexicon.domain_words


def test_lexicon_rejects_missing_domain_words():
    with pytest.raises(ValueError, match="missing"):
        Lexicon(
            english_words=frozenset({"fix"}),
            domain_words=frozenset({"pmd"}),
            stopwords=frozenset({"the"}),
        )


def test_lexicon_rejects_uppercase_words():
    with pytest.raises(ValueError, match="lowercase"):
        Lexicon(
            english_words=frozenset({"Fix"}),
            domain_words=REQUIRED_DOMAIN_WORDS,
            stopwords=frozenset(),
        )
