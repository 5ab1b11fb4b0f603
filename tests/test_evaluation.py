import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope.errors import DataError
from teamscope.mlcore import (
    choice_bounds,
    cohens_kappa,
    prf1,
    sorted_choices,
    standardize_apply,
    standardize_fit,
    stratified_kfold,
)
from teamscope.synthgen import GenConfig, generate_corpus, truth_labeled_commits
from teamscope.teamstyle import oracle_label


# --- the draws of Generator.choice ------------------------------------------
# If a numpy upgrade breaks this test, forests and corpora drawn before it
# came from numpy's choice, not from teamscope.


@pytest.mark.parametrize("d", [1, 2, 3, 4, 12, 269, 10001])
@pytest.mark.parametrize("prefix", [0, 120])
@pytest.mark.parametrize("blocks", [1, 3])
def test_choice_draws_are_what_choice_draws(d, prefix, blocks):
    # a forest's tree draws its bootstrap (the prefix) and blocks of feature subsets in one call
    k = max(1, math.isqrt(d))
    highs = np.concatenate([np.full(prefix, prefix), np.tile(choice_bounds(d, k), blocks)])
    for seed in range(20):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = ours.integers(0, highs)
        if prefix:
            assert np.array_equal(draws[:prefix], numpys.integers(0, prefix, size=prefix))
        want = [np.sort(numpys.choice(d, k, replace=False)) for _ in range(blocks)]
        assert np.array_equal(sorted_choices(draws[prefix:].reshape(blocks, -1)[:, :k], d), want)
        assert ours.bit_generator.state == numpys.bit_generator.state


# --- stratified k-fold ----------------------------------------------------


def test_kfold_two_balanced_classes_one_each_per_fold():
    labels = ["a"] * 5 + ["b"] * 5
    folds = stratified_kfold(labels, k=5, seed=1)
    for fold in folds:
        assert sum(1 for i in fold if labels[i] == "a") == 1
        assert sum(1 for i in fold if labels[i] == "b") == 1


def test_kfold_small_class_spread_two_or_three_per_fold():
    labels = ["rare"] * 12 + ["common"] * 83
    folds = stratified_kfold(labels, k=5, seed=3)
    rare_counts = [sum(1 for i in fold if labels[i] == "rare") for fold in folds]
    assert all(c in (2, 3) for c in rare_counts)


def test_kfold_partitions_all_indices():
    labels = ["x"] * 7 + ["y"] * 4
    folds = stratified_kfold(labels, k=3, seed=0)
    flat = [i for fold in folds for i in fold]
    assert sorted(flat) == list(range(11))


def test_kfold_deterministic_per_seed():
    labels = ["a", "b"] * 20
    assert stratified_kfold(labels, 4, seed=9) == stratified_kfold(labels, 4, seed=9)
    assert stratified_kfold(labels, 4, seed=9) != stratified_kfold(labels, 4, seed=10)


def test_kfold_rejects_k_below_two():
    with pytest.raises(ValueError):
        stratified_kfold(["a", "b"], k=1)


def test_kfold_rejects_more_folds_than_items():
    with pytest.raises(DataError, match="3 items into 5 folds"):
        stratified_kfold(["a", "b", "a"], k=5)
    assert all(stratified_kfold(["a", "b", "a"], k=3))  # k == n: one item per fold


def test_kfold_warns_when_a_class_has_fewer_members_than_folds():
    labels = ["a"] * 10 + ["rare"] * 3
    with pytest.warns(UserWarning, match=r"fewer members than the 5 folds.*rare \(3\)"):
        folds = stratified_kfold(labels, k=5, seed=0)
    assert sum(1 for fold in folds if not any(labels[i] == "rare" for i in fold)) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stratified_kfold(labels, k=3, seed=0)


def test_kfold_reference_corpus_does_not_warn():
    # the 150-team seed-7 corpus: its styles and commit categories all fill 5 folds
    config = GenConfig(seed=7, n_teams=150, style_mix=(0.57, 0.29, 0.14), noise_rate=0.1)
    teams, truth = generate_corpus(config)
    styles = [oracle_label(t, truth_labeled_commits(t, truth)) for t in teams]
    categories = [truth.commit_categories[c.sha] for t in teams for c in t.commits]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stratified_kfold(styles, k=5, seed=7)
        stratified_kfold(categories, k=5, seed=7)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.sampled_from(["a", "b", "c"]), min_size=6, max_size=60),
    k=st.integers(2, 6),
    seed=st.integers(0, 100),
)
def test_kfold_properties(labels, k, seed):
    folds = stratified_kfold(labels, k, seed)
    flat = [i for fold in folds for i in fold]
    assert sorted(flat) == list(range(len(labels)))  # disjoint and exhaustive
    for cls in set(labels):
        counts = [sum(1 for i in fold if labels[i] == cls) for fold in folds]
        assert max(counts) - min(counts) <= 1


# --- precision / recall / F1 ----------------------------------------------


def test_prf1_perfect_predictions():
    report = prf1(["a", "b", "a"], ["a", "b", "a"], positive_class="a")
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert report.support == 2


def test_prf1_harmonic_mean():
    # P = 1.0, R = 0.5 -> F1 = 2/3
    report = prf1(["a", "a"], ["a", "b"], positive_class="a")
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert report.f1 == pytest.approx(2 / 3)


def test_prf1_no_predicted_positives():
    report = prf1(["a", "a"], ["b", "b"], positive_class="a")
    assert report.precision == 0.0
    assert report.f1 == 0.0


def test_prf1_length_mismatch():
    with pytest.raises(DataError):
        prf1(["a"], ["a", "b"], "a")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=30))
def test_prf1_self_labeling_is_perfect(labels):
    for cls in set(labels):
        report = prf1(labels, labels, cls)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


# --- Cohen's kappa ---------------------------------------------------------


def test_kappa_identical_labelings():
    assert cohens_kappa(["a", "b", "a"], ["a", "b", "a"]) == 1.0


def test_kappa_identical_single_label():
    assert cohens_kappa(["a", "a"], ["a", "a"]) == 1.0  # p_e == 1 short-circuit


def test_kappa_hand_computed_zero():
    # p_o = 0.5, p_e = 0.5 -> kappa = 0
    assert abs(cohens_kappa(["x", "x", "y", "y"], ["x", "y", "x", "y"])) <= 1e-12


def test_kappa_symmetric_in_raters():
    a = ["x", "y", "y", "z", "x"]
    b = ["x", "y", "z", "z", "y"]
    assert cohens_kappa(a, b) == pytest.approx(cohens_kappa(b, a))


def test_kappa_self_agreement_with_two_labels():
    a = ["p", "q", "p", "q", "q"]
    assert cohens_kappa(a, a) == pytest.approx(1.0)


def test_kappa_errors():
    with pytest.raises(DataError):
        cohens_kappa(["a"], ["a", "b"])
    with pytest.raises(DataError):
        cohens_kappa([], [])


# --- standardization --------------------------------------------------------


def test_standardize_constant_column_maps_to_zero():
    X = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
    means, stds = standardize_fit(X)
    Z = standardize_apply(X, means, stds)
    assert np.all(Z[:, 0] == 0.0)


def test_standardize_population_std():
    X = np.array([[0.0], [2.0]])
    means, stds = standardize_fit(X)
    assert stds[0] == pytest.approx(1.0)  # population, not sample, std
    Z = standardize_apply(X, means, stds)
    assert Z[:, 0] == pytest.approx([-1.0, 1.0])


def test_standardize_output_means_near_zero():
    rng = np.random.default_rng(4)
    X = rng.normal(loc=5.0, scale=3.0, size=(50, 4))
    means, stds = standardize_fit(X)
    Z = standardize_apply(X, means, stds)
    assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)


def test_standardize_apply_single_row():
    X = np.array([[0.0, 1.0], [2.0, 1.0]])
    means, stds = standardize_fit(X)
    z = standardize_apply(np.array([1.0, 1.0]), means, stds)
    assert z == pytest.approx([0.0, 0.0])
