from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_forest
from teamscope.errors import DataError
from teamscope.mlcore import (
    dumps_model,
    feature_importances,
    forest_votes,
    train_forest,
)
from teamscope.mlcore import forest as forest_module
from teamscope.mlcore.forest import ForestModel


def _leaves(*counts) -> ForestModel:
    """A forest of one-node trees over one column, each voting for the largest of its ``counts``."""
    leaf = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1]}
    trees = [dict(leaf, counts=[c]) for c in counts]
    return ForestModel.from_dict({"trees": trees, "n_features": 1})


def _winners(model, X) -> list:
    """Each row's majority class."""
    return forest_votes(model, X).argmax(axis=1).tolist()


def test_pure_single_class_input_predicts_that_class():
    X = np.arange(12.0).reshape(6, 2)
    model = train_forest(X, [0] * 6, n_trees=5, seed=1)
    assert all(len(tree["feature"]) == 1 for tree in model.to_dict()["trees"])  # one leaf each
    assert _winners(model, X) == [0] * 6


def test_separable_1d_single_stump_is_perfect():
    X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    y = [0, 0, 0, 1, 1, 1]
    model = train_forest(X, y, n_trees=1, seed=3)
    assert _winners(model, X) == y


def test_same_seed_serializes_byte_equal():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 6))
    y = (X[:, 1] > 0).astype(int)
    a = train_forest(X, y, n_trees=10, seed=99)
    b = train_forest(X, y, n_trees=10, seed=99)
    assert dumps_model("forest", a.to_dict()) == dumps_model("forest", b.to_dict())


def test_different_seeds_differ():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 6))
    y = (X[:, 1] > 0).astype(int)
    a = train_forest(X, y, n_trees=10, seed=1)
    b = train_forest(X, y, n_trees=10, seed=2)
    assert dumps_model("forest", a.to_dict()) != dumps_model("forest", b.to_dict())


def test_empty_input_errors():
    with pytest.raises(DataError):
        train_forest(np.zeros((0, 3)), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_errors(bad):
    X = np.array([[0.0], [1.0], [bad]])
    with pytest.raises(DataError, match="NaN or infinite"):
        train_forest(X, [0, 1, 1])


def test_importances_all_on_single_split_feature():
    # feature 3 is the only informative column; stumps must all use it
    rng = np.random.default_rng(0)
    X = np.zeros((50, 5))
    X[:, 3] = np.linspace(-1, 1, 50)
    y = (X[:, 3] > 0).astype(int)
    model = train_forest(X, y, n_trees=20, seed=5)
    imp = feature_importances(model)
    assert imp[3] == pytest.approx(1.0)
    assert np.sum(imp) == pytest.approx(1.0, abs=1e-9)


def test_importances_zero_when_no_splits():
    X = np.ones((4, 3))  # constant features leave nothing to split on
    model = train_forest(X, [0, 1, 0, 1], n_trees=5, seed=2)
    assert np.all(feature_importances(model) == 0.0)


def test_importances_rank_informative_over_noise():
    rng = np.random.default_rng(12)
    X = np.column_stack([np.repeat([0.0, 1.0], 30), rng.normal(size=60)])
    y = (X[:, 0] > 0.5).astype(int)
    model = train_forest(X, y, n_trees=30, seed=8)
    imp = feature_importances(model)
    assert imp[0] > imp[1]
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


def test_majority_vote_tie_goes_to_smaller_class_index():
    # single-leaf trees: two that disagree and one whose leaf counts tie
    combined = _leaves([1, 0], [0, 1], [2, 2])
    # the tied leaf votes for class index 0
    assert forest_votes(combined, np.array([[0.0]])).tolist() == [[2, 1]]


def test_bootstrap_per_tree_differs():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    model = train_forest(X, y, n_trees=2, seed=42)
    first, second = model.to_dict()["trees"]
    assert first != second


def test_tree_randomness_is_per_tree_not_sequential():
    # tree t depends only on (seed, t): a smaller forest is a prefix of a larger
    # one, which is what makes parallel tree training equivalent to serial
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 4))
    y = (X[:, 2] > 0).astype(int)
    small = train_forest(X, y, n_trees=3, seed=17)
    large = train_forest(X, y, n_trees=6, seed=17)
    assert large.to_dict()["trees"][:3] == small.to_dict()["trees"]


def test_non_binary_labels_are_data_error():
    X = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    for y in (["no", "no", "yes", "yes"], [0, 1, 2, 1], [0, 0.5, 1, 1], [0, None, 1, 1]):
        with pytest.raises(DataError, match="boolean"):
            train_forest(X, y, n_trees=3, seed=0)
    with pytest.raises(DataError, match="4 rows of X but 3 labels"):
        train_forest(X, [0, 1, 1], n_trees=3, seed=0)


def test_boolean_labels_grow_the_forest_of_0_1_labels():
    X = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    y = [False, True, False, True]
    as_bools = train_forest(X, y, n_trees=3, seed=0)
    assert as_bools.to_dict() == train_forest(X, np.array(y, dtype=int), n_trees=3, seed=0).to_dict()


# --- equivalence with the per-feature, dict-tree reference forest ----------

_X_VALUES = st.sampled_from([-1.5, -0.25, 0.0, 0.25, 1.0, 2.0])


@st.composite
def _forest_inputs(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 9))
    X = np.array(draw(st.lists(_X_VALUES, min_size=n * d, max_size=n * d))).reshape(n, d)
    for col in draw(st.lists(st.integers(0, d - 1), max_size=2)):
        X[:, col] = X[0, col]  # constant columns
    if d > 1 and draw(st.booleans()):
        # a mirrored column splits as well as its source at another cut: a tie
        source, target = draw(st.permutations(range(d)))[:2]
        X[:, target] = -X[:, source]
    # both classes, so that the reference's one-hot labels have two columns
    rest = draw(st.lists(st.sampled_from([0, 1]), min_size=n - 2, max_size=n - 2))
    y = draw(st.permutations([0, 1] + rest))
    return X, y


def _assert_matches_reference(X, y, n_trees, seed):
    model = train_forest(X, y, n_trees=n_trees, seed=seed)
    trees, classes, importances = oracle_forest.train_forest(X, y, n_trees, seed)
    assert classes == [0, 1]
    raw = model.to_dict()["trees"]
    assert raw == [oracle_forest.flatten(t) for t in trees]
    # in memory, the forest is the file's per-tree arrays one after another
    for key in ("feature", "threshold", "left", "right", "counts"):
        assert np.array_equal(getattr(model, key), np.concatenate([t[key] for t in raw]))
    sizes = [len(t["feature"]) for t in raw]
    assert model.trees.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
    # the oracle sums each split's decrease as it grows the tree; the model reads them from the counts
    total = importances.sum()
    assert np.array_equal(feature_importances(model), importances / total if total > 0 else importances)

    batch = forest_votes(model, X)
    assert batch.shape == (len(X), len(classes))
    for row, votes in zip(X, batch):
        assert np.array_equal(votes, forest_votes(model, row[None])[0])
        assert np.array_equal(votes, oracle_forest.forest_votes(trees, len(classes), row))


@settings(max_examples=120, deadline=None)
@given(
    data=_forest_inputs(),
    n_trees=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    budget=st.sampled_from([8, 64, forest_module._CELL_BUDGET]),
)
def test_matches_reference_forest(data, n_trees, seed, budget):
    # trees finish after different numbers of lockstep steps, and a small
    # budget leaves trees waiting for a later step on every shape
    X, y = data
    with mock.patch.object(forest_module, "_CELL_BUDGET", budget):
        _assert_matches_reference(X, y, n_trees, seed)


@pytest.mark.parametrize("n_rows", [150, 300])  # 300 rows need 64-bit sort keys
def test_matches_reference_forest_beyond_one_batch(n_rows):
    # the 40 roots (n_rows samples x 6 features each) exceed one step's
    # budget, so they take several lockstep steps
    rng = np.random.default_rng(21)
    X = rng.integers(0, 6, size=(n_rows, 40)).astype(np.float64)  # integer ties
    X[:, [4, 19, 33]] = 2.0  # constant columns
    y = ((X[:, 0] + X[:, 7] + rng.integers(0, 3, size=n_rows)) % 2).tolist()
    assert 40 * n_rows * 6 > forest_module._CELL_BUDGET
    _assert_matches_reference(X, y, n_trees=40, seed=8)


def test_matches_reference_forest_beyond_one_block():
    # noisy labels grow trees with more split candidates (impure nodes, one
    # feature subset each) than two blocks of subsets hold
    rng = np.random.default_rng(4)
    X = rng.normal(size=(100, 9))
    y = rng.integers(0, 2, size=100).tolist()
    trees, _, _ = oracle_forest.train_forest(X, y, 12, 3)
    candidates = [sum(min(c) > 0 for c in oracle_forest.flatten(t)["counts"]) for t in trees]
    assert max(candidates) > 2 * forest_module._BLOCK
    _assert_matches_reference(X, y, n_trees=12, seed=3)


def test_midpoint_rounding_onto_the_next_value_matches_reference():
    # (a + b) / 2 rounds to b for adjacent floats a < b; the cut falls back to
    # a so that b's samples go right, and an unbounded tree ends
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a], [a], [a], [b], [b], [3.0], [3.0], [3.0]])
    y = [0, 0, 0, 1, 1, 1, 1, 1]
    _assert_matches_reference(X, y, n_trees=5, seed=2)
    model = train_forest(X, y, n_trees=5, seed=2)
    thresholds = model.threshold[model.feature >= 0].tolist()
    assert a in thresholds and b not in thresholds


def test_votes_of_no_rows():
    X = np.array([[0.0], [1.0]])
    model = train_forest(X, [0, 1], n_trees=3, seed=1)
    assert forest_votes(model, np.zeros((0, 1))).shape == (0, 2)


def test_tree_arrays_round_trip_through_dict():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    model = train_forest(X, (X[:, 1] > 0).astype(int), n_trees=3, seed=5)
    clone = ForestModel.from_dict(model.to_dict())
    # the tree count is len(trees): stage vote shares and traced counts read it
    assert len(model.trees) == len(clone.trees) == 3
    assert clone.to_dict() == model.to_dict()
    assert np.array_equal(forest_votes(clone, X), forest_votes(model, X))


@pytest.mark.parametrize(
    "change",
    [
        {"left": [0, -1, -1]},  # a child that points back at its parent
        {"right": [3, -1, -1]},  # a child past the last node
        {"feature": [7, -1, -1]},  # beyond the model's columns
        {"counts": [[1, 1], [1, 0]]},  # fewer count rows than nodes
        {"left": [1, 2, -1]},  # a leaf given a child
        {"right": [2, -1, 0]},  # a leaf given a child
        {"threshold": "x"},
        {"feature": [0, -5, -1]},  # a leaf marked with other than -1
        {"counts": [[1, 1], [2, -1], [0, 1]]},  # a negative class count
        {"counts": [[1, 1], [1, 0], [0, 0]]},  # a node that no sample reached
    ],
)
def test_malformed_tree_is_schema_error(change):
    X = np.array([[0.0], [1.0]])
    raw = train_forest(X, [0, 1], n_trees=1, seed=1).to_dict()
    assert raw["trees"][0]["feature"] == [0, -1, -1]
    raw["trees"][0].update(change)
    with pytest.raises(
        DataError,
        match=r"^(malformed tree: inconsistent node arrays|tree threshold must be a list of JSON numbers, got 'x')$",
    ):
        ForestModel.from_dict(raw)


@pytest.mark.parametrize(
    "tree, change",
    [(0, {"right": [3, -1, -1]}), (1, {"right": [3, -1, -1]}), (1, {"feature": [1, -1, -1]})],
)
def test_children_are_checked_within_their_own_tree(tree, change):
    # the trees are checked on concatenated arrays: a child must stay inside
    # its own tree, not only inside the forest's nodes
    X = np.array([[0.0], [1.0]])
    raw = train_forest(X, [0, 1], n_trees=2, seed=1).to_dict()
    assert [t["feature"] for t in raw["trees"]] == [[0, -1, -1]] * 2
    raw["trees"][tree].update(change)
    with pytest.raises(DataError, match="malformed tree: inconsistent node arrays"):
        ForestModel.from_dict(raw)
