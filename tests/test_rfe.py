import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope.mlcore import logreg, rfe_select, train_logreg
from teamscope.mlcore.logreg import weakest_weight


def _three_strength_data(seed=0, n=80):
    """Feature 0 strong, feature 2 medium, feature 1 pure noise."""
    rng = np.random.default_rng(seed)
    strong = rng.normal(size=n)
    medium = rng.normal(size=n)
    noise = rng.normal(size=n)
    y = (2.0 * strong + 0.8 * medium > 0).astype(float)
    return np.column_stack([strong, noise, medium]), y


def test_weakest_weight_dropped_first():
    X, y = _three_strength_data()
    assert rfe_select(X, y, target_k=2) == [0, 2]


def test_target_k_equals_dimension_is_identity():
    X, y = _three_strength_data()
    assert rfe_select(X, y, target_k=3) == [0, 1, 2]


def test_target_k_below_one_errors():
    X, y = _three_strength_data()
    with pytest.raises(ValueError):
        rfe_select(X, y, target_k=0)
    with pytest.raises(ValueError):
        rfe_select(X, y, target_k=4)


@pytest.mark.parametrize("label", [0.0, 1.0])
def test_single_class_target_is_refused(label):
    # one class has no finite optimum: the ranked weights would depend on the start
    X, _ = _three_strength_data()
    with pytest.raises(ValueError, match=f"class {label:.0f} alone; RFE needs both classes, 0 and 1"):
        rfe_select(X, np.full(len(X), label), target_k=2)


def _duplicated_informative_fixture(seed=100):
    rng = np.random.default_rng(seed)
    informative = rng.normal(size=100)
    X = np.column_stack([informative, informative, rng.normal(size=100)])
    y = (informative > 0).astype(float)
    return X, y


def test_duplicated_informative_feature_survives_to_k1():
    X, y = _duplicated_informative_fixture()
    survivors = rfe_select(X, y, target_k=1)
    # identical columns tie on |weight|; the larger index drops, leaving col 0
    assert survivors == [0]


def test_tie_breaks_drop_larger_index():
    # duplicated columns keep bitwise-equal weights, so the noise column goes
    # first and the k=2 survivors are exactly the two duplicates
    X, y = _duplicated_informative_fixture()
    assert rfe_select(X, y, target_k=2) == [0, 1]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(12, 60),
    d=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    l2=st.floats(0.1, 2.0),
)
def test_duplicate_column_never_outlives_its_original(n, d, seed, l2):
    # a copy fits the same |weight| as its original, up to rounding in the
    # solve, so the tie rule always drops the copy (larger index) first
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d + 1))
    original, copy = sorted(rng.choice(d + 1, size=2, replace=False))
    X[:, copy] = X[:, original]
    y = (X[:, original] + rng.normal(size=n) > 0).astype(float)
    y[0], y[-1] = 0.0, 1.0
    for k in range(1, d + 1):
        survivors = rfe_select(X, y, target_k=k, l2_lambda=l2)
        assert copy not in survivors or original in survivors


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(6, 20),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    l2=st.floats(0.1, 2.0),
)
def test_duplicate_column_never_outlives_its_original_with_more_columns_than_rows(n, data, seed, l2):
    # n + 1 to 2n columns: the early rounds' weights come from the dual form
    # of the Newton direction, and a copy still ties with its original
    d = data.draw(st.integers(n, 2 * n - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d + 1))
    original, copy = sorted(rng.choice(d + 1, size=2, replace=False))
    X[:, copy] = X[:, original]
    y = (X[:, original] + rng.normal(size=n) > 0).astype(float)
    y[0], y[-1] = 0.0, 1.0
    for k in range(1, d + 1):
        survivors = rfe_select(X, y, target_k=k, l2_lambda=l2)
        assert copy not in survivors or original in survivors


def test_selection_deterministic_for_identical_data():
    X, y = _duplicated_informative_fixture(seed=7)
    assert rfe_select(X, y, target_k=1) == rfe_select(X, y, target_k=1)


def test_survivors_returned_ascending():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 6))
    y = (X[:, 4] - X[:, 1] > 0).astype(float)
    survivors = rfe_select(X, y, target_k=3)
    assert survivors == sorted(survivors)


def _reference_rfe(X, y, target_k, l2):
    """RFE that refits every round from zero weights, under the same tie rule."""
    surviving = list(range(X.shape[1]))
    while len(surviving) > target_k:
        model = train_logreg(X[:, surviving], y, l2_lambda=l2)
        surviving.pop(weakest_weight(model.weights))
    return surviving


@st.composite
def _rfe_problems(draw):
    """A problem with d <= n or d > n columns, one of them perhaps a copy of
    another, and a target size."""
    n = draw(st.integers(6, 16))
    d = draw(st.one_of(st.integers(2, n), st.integers(n + 1, 2 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        original, copy = sorted(rng.choice(d, size=2, replace=False))
        X[:, copy] = X[:, original]
    y = (X @ rng.normal(size=d) + rng.normal(size=n) > 0).astype(float)
    y[0], y[-1] = 0.0, 1.0
    return X, y, draw(st.integers(1, d)), draw(st.floats(0.1, 2.0))


@settings(max_examples=40, deadline=None)
@given(_rfe_problems())
def test_selection_equals_refitting_every_round_from_zero(problem):
    # where a refit starts changes its steps, not its optimum
    X, y, k, l2 = problem
    assert rfe_select(X, y, target_k=k, l2_lambda=l2) == _reference_rfe(X, y, k, l2)


def test_refits_take_fewer_than_three_newton_directions_each(monkeypatch):
    # 75 refits with more columns than rows: starting each at the previous
    # optimum without the dropped column took 262 directions, starting at its
    # surgeon point takes 181
    directions = []
    newton_direction = logreg._newton_direction

    def counted(*args, **kwargs):
        directions.append(args[0].shape)
        return newton_direction(*args, **kwargs)

    monkeypatch.setattr(logreg, "_newton_direction", counted)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 80))
    y = (X[:, :5].sum(axis=1) + rng.normal(size=30) > 0).astype(float)
    assert rfe_select(X, y, target_k=5) == [1, 3, 16, 18, 74]
    assert len({shape[1] for shape in directions}) == 80 - 5
    assert len(directions) < 3 * (80 - 5)
