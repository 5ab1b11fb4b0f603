import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope import commitcls, textnorm
from teamscope.commitcls import (
    CascadeModel,
    CommitCategory,
    MlStage,
    category_distribution,
    classify,
    classify_tokens,
    default_keywords,
    detect_pair_programming,
    evaluate_cascade,
    is_gibberish,
    label_commits,
    train_cascade,
)
from teamscope.commitcls import _static_category
from teamscope.errors import DataError
from teamscope.ingest import CommitRecord
from teamscope.mlcore import (
    LogisticModel,
    TfidfModel,
    logistic_loss_and_grad,
    predict_proba,
    tfidf_transform,
)

KW = default_keywords()


@pytest.fixture(scope="module")
def lexicon():
    return textnorm.default_lexicon()


@pytest.fixture(scope="module")
def trained_cascade(tagged_sample):
    return train_cascade(tagged_sample)


@pytest.fixture(scope="module")
def tagged_sample():
    from teamscope.synthgen import GenConfig, generate_corpus

    teams, truth = generate_corpus(GenConfig(seed=11, n_teams=12, noise_rate=0.05))
    return [
        (c.message, truth.commit_categories[c.sha]) for t in teams for c in t.commits
    ]


# the keyword stages of _static_category, each with its positive and negative examples


def test_match_merge_examples(lexicon):
    cascade = _stub_cascade(lexicon)
    assert _static_category(cascade, ["merge", "branch", "master", "of"]) == CommitCategory.MERGE
    assert _static_category(cascade, ["fix", "merge", "conflict"]) == CommitCategory.MERGE
    assert _static_category(cascade, ["fix", "logout"]) != CommitCategory.MERGE


def test_match_documentation_examples(lexicon):
    cascade = _stub_cascade(lexicon)
    doc = CommitCategory.DOCUMENTATION
    assert _static_category(cascade, ["add", "javadoc", "class"]) == doc
    assert _static_category(cascade, ["update", "documentation"]) == doc
    assert _static_category(cascade, ["more", "test", "case"]) != doc


def test_match_style_examples(lexicon):
    cascade = _stub_cascade(lexicon)
    assert _static_category(cascade, ["fix", "pmd", "error"]) == CommitCategory.STYLE
    assert _static_category(cascade, ["checkstyle"]) == CommitCategory.STYLE
    assert _static_category(cascade, ["add", "constructor"]) != CommitCategory.STYLE


def test_static_category_keyword_order(lexicon):
    # merge beats documentation beats style, whatever the token order
    cascade = _stub_cascade(lexicon)
    assert _static_category(cascade, ["pmd", "javadoc", "merge"]) == CommitCategory.MERGE
    assert _static_category(cascade, ["pmd", "javadoc"]) == CommitCategory.DOCUMENTATION


def test_is_gibberish_examples(lexicon):
    assert is_gibberish(["asdf"], lexicon)
    assert not is_gibberish(["fix", "logout"], lexicon)
    assert is_gibberish([], lexicon)


def test_gibberish_threshold_boundary(lexicon):
    # 1 meaningful of 3 tokens = 0.333... < 0.34 -> gibberish
    assert is_gibberish(["fix", "zxq", "qzx"], lexicon)
    # 1 of 2 = 0.5 -> fine
    assert not is_gibberish(["fix", "zxq"], lexicon)


def test_detect_pair_programming_whole_word():
    assert detect_pair_programming(["pp", "with", "john"])
    assert detect_pair_programming(["pair", "programming", "on", "gui"])
    assert not detect_pair_programming(["apply", "patch"])
    assert not detect_pair_programming(["apple", "support"])


def test_pair_detection_through_lemmas(lexicon):
    tokens = textnorm.normalize("Paired on the GUI today", lexicon)
    assert detect_pair_programming(tokens)


def _stub_cascade(lexicon, always_fire_category=None):
    """Cascade whose single ML stage fires on everything (bias-only model)."""
    stages = []
    if always_fire_category is not None:
        tfidf = TfidfModel(vocabulary={"x": 0}, idf=np.ones(1), max_features=1, ngram_min=1, ngram_max=1)
        logreg = LogisticModel(weights=np.zeros(1), bias=5.0, l2_lambda=0.0)
        stages = [MlStage(category=always_fire_category, tfidf=tfidf, logreg=logreg)]
    return CascadeModel(
        lexicon=lexicon,
        lemma_exceptions=textnorm.default_lemma_exceptions(),
        keywords=KW,
        gibberish_threshold=0.34,
        stages=stages,
    )


def test_classify_static_precedence_beats_ml(lexicon):
    cascade = _stub_cascade(lexicon, always_fire_category=CommitCategory.IMPLEMENTATION)
    assert classify(cascade, "Added Javadoc to the class") == CommitCategory.DOCUMENTATION
    assert classify(cascade, "Merge branch 'master' of x") == CommitCategory.MERGE
    assert classify(cascade, "Fixing PMD errors") == CommitCategory.STYLE
    assert classify(cascade, "asdf") == CommitCategory.OTHER


def test_classify_residual_other_when_no_stage_fires(lexicon):
    cascade = _stub_cascade(lexicon)  # no ML stages at all
    assert classify(cascade, "added linked list methods") == CommitCategory.OTHER


def test_classify_merge_precedence_property(lexicon):
    cascade = _stub_cascade(lexicon, always_fire_category=CommitCategory.TEST)
    for message in ("merge it all", "before merge after", "test merge test"):
        assert classify(cascade, message) == CommitCategory.MERGE


def test_classify_is_deterministic(trained_cascade, tagged_sample):
    messages = [m for m, _ in tagged_sample[:100]]
    first = [classify(trained_cascade, m) for m in messages]
    second = [classify(trained_cascade, m) for m in messages]
    assert first == second


def test_classify_partition_on_training_inputs(trained_cascade, tagged_sample):
    for message, _ in tagged_sample:
        got = classify(trained_cascade, message)
        assert isinstance(got, CommitCategory)


def test_monotone_cascade_removing_later_stage(lexicon, trained_cascade):
    truncated = CascadeModel(
        lexicon=trained_cascade.lexicon,
        lemma_exceptions=trained_cascade.lemma_exceptions,
        keywords=trained_cascade.keywords,
        gibberish_threshold=trained_cascade.gibberish_threshold,
        stages=trained_cascade.stages[:1],
    )
    for message in ("Merge branch 'master'", "Added Javadoc to the class", "asdf"):
        assert classify(truncated, message) == classify(trained_cascade, message)


@pytest.mark.filterwarnings("ignore:training labels contain a single class")
def test_train_cascade_errors_on_missing_positive_category():
    tagged = [
        ("added the main menu", CommitCategory.IMPLEMENTATION),
        ("more test cases", CommitCategory.TEST),
    ] * 3
    with pytest.raises(DataError, match="Bugfix"):
        train_cascade(tagged)


def test_train_cascade_test_stage_vocabulary_contains_test(trained_cascade):
    test_stage = next(
        s for s in trained_cascade.stages if s.category == CommitCategory.TEST
    )
    assert "test" in test_stage.tfidf.vocabulary


def test_label_commit_carries_pair_flag(trained_cascade):
    record = CommitRecord(
        sha="e" * 40,
        author_key="a",
        timestamp=10,
        message="fixed logout pp",
        files=(),
    )
    labeled = label_commits(trained_cascade, [record])[0]
    assert labeled.pair_programming
    assert labeled.category == CommitCategory.BUGFIX


def test_evaluate_cascade_reports_other_twice(tagged_sample):
    reports = evaluate_cascade(tagged_sample, k=3, seed=5)
    assert "Other(static)" in reports and "Other(residual)" in reports
    assert reports["Other(residual)"].recall == pytest.approx(1.0)
    for key, report in reports.items():
        assert 0.0 <= report.f1 <= 1.0
        assert len(report.folds) == 3


@pytest.mark.filterwarnings("ignore:training labels contain a single class")
def test_residual_other_recall_one_on_static_only_corpus():
    tagged = (
        [("Merge branch 'master'", CommitCategory.MERGE)] * 4
        + [("Added Javadoc to the class", CommitCategory.DOCUMENTATION)] * 4
        + [("Fixing PMD errors", CommitCategory.STYLE)] * 4
        + [("asdf", CommitCategory.OTHER)] * 4
        + [("added the main menu screen", CommitCategory.IMPLEMENTATION)] * 4
        + [("more test cases for roster", CommitCategory.TEST)] * 4
        + [("fixed logout bug", CommitCategory.BUGFIX)] * 4
    )
    reports = evaluate_cascade(tagged, k=2, seed=1)
    assert reports["Other(residual)"].recall == pytest.approx(1.0)


def test_category_distribution_counts_and_ratios(trained_cascade):
    categories = [CommitCategory.MERGE, CommitCategory.MERGE, CommitCategory.OTHER, CommitCategory.TEST]
    dist = category_distribution(categories)
    assert dist["Merge"] == (2, 0.5)
    assert dist["Test"] == (1, 0.25)
    assert dist["Implementation"] == (0, 0.0)


@settings(max_examples=30, deadline=None)
@given(st.text(max_size=60))
def test_classify_total_function_fuzz(message):
    lexicon = textnorm.default_lexicon()
    cascade = _stub_cascade(lexicon)
    assert classify(cascade, message) in list(CommitCategory)


def test_serialization_round_trip_preserves_predictions(trained_cascade, tagged_sample):
    clone = CascadeModel.from_dict(trained_cascade.to_dict())
    for message, _ in tagged_sample[:120]:
        assert classify(clone, message) == classify(trained_cascade, message)


def test_four_hundred_message_benchmark_per_category():
    from teamscope.synthgen import GenConfig, generate_corpus

    teams, truth = generate_corpus(
        GenConfig(seed=7, n_teams=8, commits_per_team=(50, 50), noise_rate=0.1)
    )
    tagged = [
        (c.message, truth.commit_categories[c.sha]) for t in teams for c in t.commits
    ]
    assert len(tagged) == 400
    reports = evaluate_cascade(tagged, k=5, seed=7)
    for key in ("Merge", "Style", "Documentation", "Implementation", "Test", "Bugfix"):
        assert reports[key].f1 >= 0.9, f"{key}: {reports[key].f1:.3f}"


def test_ml_stages_are_at_their_optimum(trained_cascade, tagged_sample):
    # each stage trained on the messages the static and earlier ML stages left
    prepared = [(trained_cascade.prepare(msg), cat) for msg, cat in tagged_sample]
    survivors = [row for row in prepared if _static_category(trained_cascade, row[0]) is None]
    for stage in trained_cascade.stages:
        X = tfidf_transform(stage.tfidf, [tokens for tokens, _ in survivors])
        y = np.array([cat == stage.category for _, cat in survivors], dtype=float)
        model = stage.logreg
        _, grad_w, grad_b = logistic_loss_and_grad(model.weights, model.bias, X, y, model.l2_lambda)
        assert max(np.max(np.abs(grad_w)), abs(grad_b)) <= 1e-8
        survivors = [row for row, p in zip(survivors, predict_proba(model, X)) if p < 0.5]


_WORDS = ["fix", "bug", "test", "case", "add", "menu", "logout", "roster", "merge", "pmd", "zzq"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_WORDS), max_size=6), max_size=12), st.data())
def test_batch_classification_equals_one_row_calls(trained_cascade, docs, data):
    labels = classify_tokens(trained_cascade, docs)
    assert labels == [classify_tokens(trained_cascade, [d])[0] for d in docs]
    for stage in trained_cascade.stages:
        X = tfidf_transform(stage.tfidf, docs)
        assert X.shape == (len(docs), stage.tfidf.dim)
        for row, doc in zip(X, docs):
            assert row.tobytes() == tfidf_transform(stage.tfidf, [doc])[0].tobytes()
        assert stage.fires(docs).tolist() == [bool(stage.fires([d])[0]) for d in docs]


def test_label_commits_in_blocks_equals_per_message(monkeypatch, trained_cascade, tagged_sample):
    monkeypatch.setattr(commitcls, "_LABEL_BLOCK", 5)  # 42 commits: 8 full blocks and a partial one
    messages = [m for m, _ in tagged_sample[:40]] + ["pair programmed the menu", "pp: fix logout"]
    records = [
        CommitRecord(sha=f"{i:040x}", author_key="a", timestamp=i + 1, message=m, files=())
        for i, m in enumerate(messages)
    ]
    labeled = label_commits(trained_cascade, iter(records))
    assert [item.commit for item in labeled] == records
    for item in labeled:
        assert item.category == classify(trained_cascade, item.commit.message)
        tokens = trained_cascade.prepare(item.commit.message)
        assert item.pair_programming == detect_pair_programming(tokens)
    assert sum(item.pair_programming for item in labeled) >= 2
    assert label_commits(trained_cascade, []) == []


def test_evaluate_cascade_normalizes_each_message_once(monkeypatch, tagged_sample):
    calls = []
    normalize = textnorm.normalize

    def counting(message, *args, **kwargs):
        calls.append(message)
        return normalize(message, *args, **kwargs)

    monkeypatch.setattr(textnorm, "normalize", counting)
    evaluate_cascade(tagged_sample, k=3, seed=5)
    assert len(calls) == len(tagged_sample)
