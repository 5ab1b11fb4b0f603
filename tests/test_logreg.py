import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from teamscope.mlcore import logreg
from teamscope.mlcore.logreg import (
    _DUAL_BACKWARD_ERROR,
    _MAX_STEPS,
    GRAD_TOL,
    _newton_direction,
    _newton_iterates,
)


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


def _gmax(point, X, y, l2):
    """max |gradient| at an iterate of the Newton loop, computed here: the
    loop leaves it None at a closing full step."""
    _, grad_w, grad_b = logistic_loss_and_grad(point.weights, point.bias, X, y, l2)
    return max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b))


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
    losses = [logistic_loss_and_grad(it.weights, it.bias, X, y, 1.0)[0] for it in iterates]
    # the loop leaves only a closing full step's loss uncomputed
    assert [it.loss for it in iterates[:-1]] == losses[:-1]
    assert iterates[-1].loss in (None, losses[-1])
    assert len(losses) > 3
    # every damped step lowers the loss; only a closing full step at the
    # optimum may land within rounding above its predecessor
    assert all(b < a for a, b in zip(losses[:-2], losses[1:-1]))
    assert losses[-1] <= losses[-2] + 8 * np.spacing(losses[-2])
    assert _gmax(iterates[-1], X, y, 1.0) <= GRAD_TOL


@st.composite
def _problems(draw):
    """Random problems with both classes present: n from 2 to 40 rows and d
    columns one of 1, 3, 8, 40, n - 1, n, n + 1 or 2n, so both forms of the
    Newton direction run, on both sides of the d > n rule and at its edge."""
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([1, 3, 8, 40, n - 1, n, n + 1, 2 * n]))
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


def _hessian(X, p, l2):
    """n times the Hessian of the objective, with the bias as the last
    coordinate, built from its definition (test oracle)."""
    n, d = X.shape
    with_bias = np.column_stack([X, np.ones(n)])
    hessian = with_bias.T @ (with_bias * (p * (1.0 - p))[:, None])
    hessian[:d, :d] += l2 * np.eye(d)
    return hessian


@st.composite
def _wide_points(draw):
    """A problem with more columns than rows (d > n, up to 2n + 1) and a point
    on it. At feature scales 5 and 30 some margins exceed 37, where p rounds
    to 1 and s = p (1 - p) is exactly 0."""
    n = draw(st.integers(1, 20))
    d = draw(st.integers(n + 1, 2 * n + 1))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * scale
    y = rng.integers(0, 2, size=n).astype(float)
    weights = rng.normal(size=d) * draw(st.sampled_from([0.0, 0.1, 1.0]))
    return X, y, weights, float(rng.normal()), scale, draw(st.floats(0.1, 2.0))


@settings(max_examples=200, deadline=None)
@given(_wide_points())
def test_dual_direction_equals_the_primal_solve(point):
    X, y, weights, bias, scale, l2 = point
    n, d = X.shape
    p = sigmoid(X @ weights + bias)
    s = p * (1.0 - p)
    assume(s.any())  # all saturated: see test_saturated_dual_direction_is_the_least_norm_one
    _, grad_w, grad_b = logistic_loss_and_grad(weights, bias, X, y, l2)
    rhs = -n * np.append(grad_w, grad_b)
    hessian = _hessian(X, p, l2)
    gram = X @ X.T
    primal = _newton_direction(X, p, grad_w, grad_b, l2)
    dual = _newton_direction(X, p, grad_w, grad_b, l2, gram)
    assert np.all(np.isfinite(dual))
    if scale <= 5.0:
        # Woodbury stays within its backward-error bound here, so the dual form gave the step
        assert logreg._dual_solve(X, s, rhs, l2, gram) is not None
    for step in primal, dual:
        residual = np.linalg.norm(hessian @ step - rhs)
        assert residual <= _DUAL_BACKWARD_ERROR * (
            np.linalg.norm(hessian) * np.linalg.norm(step) + np.linalg.norm(rhs)
        )
    # two solves that small in backward error agree to the accuracy the
    # Hessian's conditioning leaves to any float64 solve
    tolerance = 1e-12 * np.linalg.cond(hessian) * np.max(np.abs(primal))
    assert np.max(np.abs(dual - primal)) <= tolerance


def test_ill_conditioned_dual_step_is_left_to_the_primal_solve():
    # with l2 this small against X^T S X, Woodbury's subtraction cancels to
    # noise; the step must still be one the (d+1) solve would accept
    X = np.random.default_rng(6).normal(size=(5, 12)) * 100.0
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    p = sigmoid(np.zeros(5))
    _, grad_w, grad_b = logistic_loss_and_grad(np.zeros(12), 0.0, X, y, 1e-3)
    rhs = -5 * np.append(grad_w, grad_b)
    step = _newton_direction(X, p, grad_w, grad_b, 1e-3, X @ X.T)
    hessian = _hessian(X, p, 1e-3)
    residual = np.linalg.norm(hessian @ step - rhs)
    assert residual <= _DUAL_BACKWARD_ERROR * (np.linalg.norm(hessian) * np.linalg.norm(step) + np.linalg.norm(rhs))
    assert np.array_equal(step, _newton_direction(X, p, grad_w, grad_b, 1e-3))


@pytest.mark.parametrize("d, dual", [(5, False), (6, True)])
def test_direction_form_follows_the_shape(monkeypatch, d, dual):
    calls = []
    monkeypatch.setattr(logreg, "_dual_solve", lambda *a: calls.append(a) or None)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, d))
    train_logreg(X, np.array([0, 1, 0, 1, 1]))
    assert bool(calls) is dual


def test_saturated_dual_direction_is_the_least_norm_one():
    # every p is exactly 0 or 1, so s = 0, the Hessian's bias row is 0 and the
    # bias's Schur complement is 0: the dual form must not divide by it
    rng = np.random.default_rng(6)
    X = rng.normal(size=(3, 7))
    p = np.array([1.0, 0.0, 1.0])
    grad_w, grad_b = rng.normal(size=7), 0.4
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        dual = _newton_direction(X, p, grad_w, grad_b, 0.5, X @ X.T)
    assert np.all(np.isfinite(dual))
    assert np.array_equal(dual, _newton_direction(X, p, grad_w, grad_b, 0.5))
    # the least-norm solution of [[0.5 I, 0], [0, 0]] step = -3 grad
    assert np.allclose(dual, np.append(-3 * grad_w / 0.5, 0.0), rtol=1e-14, atol=0)


def test_single_class_in_the_dual_form_stops_as_the_primal_does(monkeypatch):
    # d > n: every step goes through the dual form, and the bias still grows
    # until the gradient falls below GRAD_TOL
    dual_steps = []
    dual_solve = logreg._dual_solve

    def recorded(*args):
        dual_steps.append(dual_solve(*args))
        return dual_steps[-1]

    monkeypatch.setattr(logreg, "_dual_solve", recorded)
    rng = np.random.default_rng(4)
    X, y = rng.normal(size=(3, 8)), np.ones(3)
    with pytest.warns(UserWarning, match="single class"):
        model = train_logreg(X, y)
    iterates = list(_newton_iterates(X, y, 1.0, np.zeros(8), 0.0))
    weights, bias = iterates[-1].weights, iterates[-1].bias
    assert dual_steps and all(step is not None for step in dual_steps)
    assert len(iterates) < _MAX_STEPS and _gmax(iterates[-1], X, y, 1.0) <= GRAD_TOL
    assert np.all(np.isfinite(weights)) and 27.0 < bias < 29.0
    assert np.array_equal(model.weights, weights) and model.bias == bias


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
    assert len(iterates) < _MAX_STEPS and _gmax(iterates[-1], X, y, 1.0) <= GRAD_TOL


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


def _repeated(problem, counts):
    """The rows of a problem, row i repeated counts[i] times."""
    X, y, _ = problem
    rows = np.repeat(np.arange(len(y)), counts)
    return X[rows], y[rows]


_row_counts = st.lists(st.integers(1, 5), min_size=40, max_size=40)


@settings(max_examples=80, deadline=None)
@given(_problems(), _row_counts)
def test_counted_fit_is_the_fit_on_repeated_rows(problem, counts):
    X, y, l2 = problem
    counts = np.array(counts[: len(y)])
    counted = train_logreg(X, y, l2_lambda=l2, counts=counts)
    X_rep, y_rep = _repeated(problem, counts)
    repeated = train_logreg(X_rep, y_rep, l2_lambda=l2)
    assert np.max(np.abs(counted.weights - repeated.weights)) <= 1e-9
    assert abs(counted.bias - repeated.bias) <= 1e-9
    # the counted optimum is the optimum of the objective over the repeated rows
    _, grad_w, grad_b = logistic_loss_and_grad(counted.weights, counted.bias, X_rep, y_rep, l2)
    assert max(np.max(np.abs(grad_w)), abs(grad_b)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(_problems())
def test_unit_counts_give_the_bytes_of_the_plain_mean(problem):
    X, y, l2 = problem
    plain = train_logreg(X, y, l2_lambda=l2)
    counted = train_logreg(X, y, l2_lambda=l2, counts=np.ones(len(y)))
    assert counted.weights.tobytes() == plain.weights.tobytes() and counted.bias == plain.bias
    # a unit count sums exactly what the mean over the rows sums
    w, n = plain.weights, len(y)
    z = X @ w + plain.bias
    softplus = np.logaddexp(0.0, z)
    residual = np.exp(z - softplus) - y
    loss, grad_w, grad_b = logistic_loss_and_grad(w, plain.bias, X, y, l2)
    assert loss == float(np.mean(softplus - y * z)) + l2 / (2.0 * n) * float(w @ w)
    assert grad_w.tobytes() == ((X.T @ residual + l2 * w) / n).tobytes()
    assert grad_b == float(np.mean(residual))


@pytest.mark.parametrize(
    "counts, message",
    [
        ([1.0, 2.0], "3 rows but counts of shape"),
        ([[1.0, 2.0, 3.0]], "3 rows but counts of shape"),
        ([1.0, 0.0, 2.0], "positive and finite"),
        ([1.0, -1.0, 2.0], "positive and finite"),
        ([1.0, np.nan, 2.0], "positive and finite"),
        ([1.0, np.inf, 2.0], "positive and finite"),
    ],
)
def test_bad_counts_are_refused(counts, message):
    with pytest.raises(DataError, match=message):
        train_logreg(np.eye(3), np.array([0, 1, 1]), counts=counts)
