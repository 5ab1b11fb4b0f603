import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamscope.errors import DataError
from teamscope.mlcore import (
    LogisticModel,
    logistic_loss_and_grad,
    predict,
    predict_proba,
    sigmoid,
    train_logreg,
)
from teamscope.mlcore.logreg import _MAX_STEPS, GRAD_TOL, _newton_direction, _newton_iterates


def numerical_gradient(weights, bias, X, y, l2, eps=1e-6):
    """Central finite differences of the training objective (test oracle)."""

    def loss_at(w, b):
        return logistic_loss_and_grad(w, b, X, y, l2)[0]

    grad_w = np.zeros_like(weights)
    for j in range(len(weights)):
        up = weights.copy()
        down = weights.copy()
        up[j] += eps
        down[j] -= eps
        grad_w[j] = (loss_at(up, bias) - loss_at(down, bias)) / (2 * eps)
    grad_b = (loss_at(weights, bias + eps) - loss_at(weights, bias - eps)) / (2 * eps)
    return grad_w, grad_b


def test_zero_weight_model_predicts_half():
    model = LogisticModel(weights=np.zeros(3), bias=0.0, l2_lambda=0.0)
    assert predict_proba(model, np.zeros(3)) == pytest.approx(0.5)
    assert predict(model, np.zeros(3)) is True  # >= 0.5 rule


def test_separable_1d_reaches_perfect_training_accuracy():
    X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_logreg(X, y, l2_lambda=0.01)
    assert np.all(predict(model, X) == y.astype(bool))


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5).astype(float)
    w = rng.normal(size=3)
    b = float(rng.normal())
    _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, l2_lambda=0.7)
    num_w, num_b = numerical_gradient(w, b, X, y, l2=0.7)
    scale = np.maximum(np.abs(num_w), 1e-8)
    assert np.max(np.abs(grad_w - num_w) / scale) < 1e-4
    assert abs(grad_b - num_b) / max(abs(num_b), 1e-8) < 1e-4


def test_loss_decreases_over_damped_newton_iterates():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 4))
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
    start = np.array([-6.0, 0.0, 0.0, 0.0])
    # from this start the undamped first step overshoots, so the line search must halve it
    loss0, grad_w, grad_b = logistic_loss_and_grad(start, 0.0, X, y, 1.0)
    step = _newton_direction(X, sigmoid(X @ start), grad_w, grad_b, 1.0)
    assert logistic_loss_and_grad(start + step[:4], step[4], X, y, 1.0)[0] > loss0

    iterates = list(_newton_iterates(X, y, 1.0, start, 0.0))
    losses = [logistic_loss_and_grad(w, b, X, y, 1.0)[0] for w, b, _, _ in iterates]
    assert [loss for _, _, loss, _ in iterates] == losses
    assert len(losses) > 3
    # every damped step lowers the loss; only a closing full step at the
    # optimum may land within rounding above its predecessor
    assert all(b < a for a, b in zip(losses[:-2], losses[1:-1]))
    assert losses[-1] <= losses[-2] + 8 * np.spacing(losses[-2])
    assert iterates[-1][3] <= GRAD_TOL


@st.composite
def _problems(draw):
    """Random problems with both classes present; every d = 40 problem has n < d."""
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([1, 3, 8, 40]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * scale
    y = rng.integers(0, 2, size=n).astype(float)
    y[0], y[-1] = 0.0, 1.0
    return X, y, draw(st.floats(0.1, 2.0))


@settings(max_examples=80, deadline=None)
@given(_problems())
def test_trained_model_is_a_stationary_point(problem):
    # the objective is convex, so a zero gradient certifies the optimum
    X, y, l2 = problem
    model = train_logreg(X, y, l2_lambda=l2)
    _, grad_w, grad_b = logistic_loss_and_grad(model.weights, model.bias, X, y, l2)
    assert max(np.max(np.abs(grad_w)), abs(grad_b)) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(_problems(), st.integers(0, 2**32 - 1))
def test_warm_start_reaches_the_cold_optimum(problem, seed):
    X, y, l2 = problem
    cold = train_logreg(X, y, l2_lambda=l2)
    rng = np.random.default_rng(seed)
    # as in RFE: the optimum with one more column, without that column
    wider = train_logreg(np.column_stack([X, rng.normal(size=len(y))]), y, l2_lambda=l2)
    starts = [
        LogisticModel(wider.weights[:-1], wider.bias, l2),
        LogisticModel(cold.weights + rng.normal(size=X.shape[1]), cold.bias + rng.normal(), l2),
    ]
    for start in starts:
        warm = train_logreg(X, y, l2_lambda=l2, start=start)
        assert np.max(np.abs(warm.weights - cold.weights)) <= 1e-8
        assert abs(warm.bias - cold.bias) <= 1e-8


def test_start_of_another_width_is_rejected():
    with pytest.raises(ValueError, match="2 weights for 1 columns"):
        train_logreg(np.zeros((2, 1)), np.array([0, 1]), start=LogisticModel(np.zeros(2), 0.0, 1.0))


def test_large_positive_margin_probability():
    model = LogisticModel(weights=np.array([10.0]), bias=0.0, l2_lambda=0.0)
    assert predict_proba(model, np.array([1.0])) > 0.99


def test_sign_flip_maps_p_to_one_minus_p():
    rng = np.random.default_rng(3)
    w = rng.normal(size=4)
    b = 0.37
    x = rng.normal(size=4)
    model = LogisticModel(weights=w, bias=b, l2_lambda=0.0)
    flipped = LogisticModel(weights=-w, bias=-b, l2_lambda=0.0)
    assert predict_proba(flipped, x) == pytest.approx(1.0 - predict_proba(model, x))


def test_dimension_mismatch_errors():
    with pytest.raises(DataError):
        train_logreg(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(DataError):
        train_logreg(np.zeros((0, 2)), np.array([]))


def test_non_finite_features_rejected():
    with pytest.raises(DataError, match="NaN or infinite"):
        train_logreg(np.array([[0.0], [np.nan]]), np.array([0, 1]))


def test_non_boolean_labels_rejected():
    with pytest.raises(DataError, match="boolean"):
        train_logreg(np.zeros((2, 1)), np.array([0.0, 0.5]))


def test_single_class_warns():
    # no finite optimum: the bias grows until the gradient falls below GRAD_TOL
    X, y = np.ones((3, 1)), np.array([1, 1, 1])
    with pytest.warns(UserWarning, match="single class"):
        model = train_logreg(X, y)
    assert predict_proba(model, X[0]) > 0.999
    iterates = list(_newton_iterates(X, y.astype(float), 1.0, np.zeros(1), 0.0))
    assert len(iterates) < _MAX_STEPS and iterates[-1][3] <= GRAD_TOL


def test_training_is_deterministic():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 5))
    y = rng.integers(0, 2, size=30)
    a = train_logreg(X, y)
    b = train_logreg(X, y)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_batch_predict_proba_shape():
    model = LogisticModel(weights=np.array([1.0, -1.0]), bias=0.0, l2_lambda=0.0)
    probs = predict_proba(model, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert probs.shape == (2,)
    assert probs[0] > 0.5 > probs[1]
