"""Binary logistic regression trained to its optimum by damped Newton steps.

The objective is the mean cross-entropy plus an L2 penalty on the weights
(bias excluded), scaled by 1/N so the penalty strength is independent of
dataset size:

    loss(w, b) = mean_i[ log(1 + exp(z_i)) - y_i * z_i ] + l2 / (2N) * ||w||^2

with z = X w + b. Training evaluates every point through the function behind
``logistic_loss_and_grad``, the one implementation of this objective.

Newton method. Each step solves the (d+1)x(d+1) Hessian system for a
direction, then halves the step length from 1 until the loss falls by at
least 1e-4 of the decrease the gradient predicts (the Armijo rule). With
l2 > 0 and both classes present, the objective has one optimum.

Two forms of one direction. With no more columns than rows (d <= n), the
Hessian is built and LU-solved as it stands, at O(n d^2 + d^3) a step. With
more columns than rows and l2 > 0, as in recursive feature elimination on a
course of tens to hundreds of teams, the bias is eliminated blockwise and
the weight block is inverted by the Woodbury identity through an n x n
system, at O(n^3 + n d) a step (Minka, "A comparison of numerical
optimizers for logistic regression", 2003). The fit builds the Gram matrix
X X^T once, at O(n^2 d), and every step reuses it. Woodbury loses accuracy
as l2 shrinks against X^T S X, so the dual step is checked: when its
residual, relative to ||H|| ||step|| + ||rhs||, exceeds
``_DUAL_BACKWARD_ERROR`` (or every probability has saturated), the step is
taken from the (d+1) system instead. The shape picks the form; no option
does.

Stopping rule. Training stops once no gradient component exceeds
``GRAD_TOL`` in absolute value. It also stops when the decrease the
quadratic model predicts is within the rounding of the loss, or no step
length lowers the loss as computed: the point is then at the optimum to
rounding, where the quadratic model is exact, so one full Newton step ends
the run. A single-class problem has no finite optimum (the unpenalised bias
grows without bound); its gradient still reaches ``GRAD_TOL`` near
|bias| = 28, and a step cap backs that up.

Warm start. Without ``start``, training begins at zero weights, so it is
deterministic. Recursive feature elimination refits after dropping one
column and passes the previous optimum without that column as ``start``:
the optimum is the same as from zero, and a few steps reach it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .evaluation import check_training_set
from .serialize import number, numbers

GRAD_TOL = 1e-12
_ARMIJO = 1e-4
# a decrease of at most this many float spacings of the loss is lost in the
# rounding of the loss as computed, so comparing losses cannot confirm it
_ROUNDING_ULPS = 64
_MAX_STEPS = 100
# a dual-form direction is kept only while its residual is this small
# relative to ||H|| ||step|| + ||rhs||; LU on the (d+1) system stays near 1e-16
_DUAL_BACKWARD_ERROR = 1e-12


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    l2_lambda: float

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "l2_lambda": float(self.l2_lambda),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "LogisticModel":
        return cls(
            weights=numbers(raw["weights"], "weights"),
            bias=number(raw["bias"], "bias"),
            l2_lambda=number(raw["l2_lambda"], "l2_lambda"),
        )


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    # exp(z - log(1 + e^z)) is stable for any sign of z
    return np.exp(z - np.logaddexp(0.0, z))


def _objective(weights, bias, X, y, l2_lambda):
    """(loss, grad_w, grad_b, p) where p = sigmoid(X w + b)."""
    n = X.shape[0]
    z = X @ weights
    z += bias
    # log(1 + e^z) - y z, computed stably via logaddexp
    softplus = np.logaddexp(0.0, z)
    loss = float(np.mean(softplus - y * z))
    loss += l2_lambda / (2.0 * n) * float(weights @ weights)
    p = np.exp(z - softplus)
    residual = p - y
    grad_w = (X.T @ residual + l2_lambda * weights) / n
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b, p


def logistic_loss_and_grad(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float,
) -> tuple[float, np.ndarray, float]:
    """Return (loss, d_loss/d_weights, d_loss/d_bias) for the objective above."""
    return _objective(weights, bias, X, y, l2_lambda)[:3]


def _newton_direction(X, p, grad_w, grad_b, l2_lambda, gram=None) -> np.ndarray:
    """Solve H step = -grad for the Hessian H of the objective at p = sigmoid(z).

    N H = [[A, b], [b^T, sum s]] with A = X^T S X + l2 I, b = X^T s,
    s = p (1 - p) and S = diag(s). With ``gram`` = X X^T the step comes
    from the n x n dual form, unless that form cannot give it within a
    backward error of ``_DUAL_BACKWARD_ERROR``; otherwise, and without
    ``gram``, the (d+1) system is solved as it stands.
    """
    s = p * (1.0 - p)
    rhs = -X.shape[0] * np.append(grad_w, grad_b)
    if gram is not None:
        step = _dual_solve(X, s, rhs, l2_lambda, gram)
        if step is not None:
            return step
    return _primal_solve(X, s, rhs, l2_lambda)


def _primal_solve(X, s, rhs, l2_lambda) -> np.ndarray:
    """The step from the (d+1)x(d+1) Hessian, built blockwise so X never gets
    a bias column copied onto it."""
    d = X.shape[1]
    Xs = X * s[:, None]
    hessian = np.empty((d + 1, d + 1))
    hessian[:d, :d] = X.T @ Xs
    hessian[:d, :d].flat[:: d + 1] += l2_lambda
    hessian[:d, d] = hessian[d, :d] = Xs.sum(axis=0)
    hessian[d, d] = s.sum()
    try:
        return np.linalg.solve(hessian, rhs)
    except np.linalg.LinAlgError:
        # singular only without a penalty, or once every probability has
        # saturated to exactly 0 or 1; take the least-norm direction
        return np.linalg.lstsq(hessian, rhs, rcond=None)[0]


def _dual_solve(X, s, rhs, l2_lambda, gram) -> np.ndarray | None:
    """The step with the bias eliminated blockwise and A^-1 applied by
    Woodbury, A^-1 = (I - X^T R M^-1 R X) / l2 with R = S^1/2 and the n x n
    M = l2 I + R G R.

    ``None`` when the bias's Schur complement sum s - b^T A^-1 b is not
    positive (every probability saturated), or when the step's normwise
    backward error exceeds ``_DUAL_BACKWARD_ERROR``: Woodbury's subtraction
    loses accuracy as l2 shrinks against X^T S X.
    """
    n, d = X.shape
    root = np.sqrt(s)
    m = root[:, None] * gram * root
    m.flat[:: n + 1] += l2_lambda
    b = s @ X
    # A^-1 applied to the weight part of rhs and to b at once
    z = np.column_stack([rhs[:d], b])
    correction = X.T @ (root[:, None] * np.linalg.solve(m, root[:, None] * (X @ z)))
    a_inv_r, a_inv_b = ((z - correction) / l2_lambda).T
    schur = s.sum() - b @ a_inv_b
    if not schur > 0:
        return None
    step_b = (rhs[d] - b @ a_inv_r) / schur
    step = np.append(a_inv_r - step_b * a_inv_b, step_b)
    # A has M's eigenvalues and d - n more equal to l2, so ||A||_F comes from ||M||_F
    h_norm = np.sqrt(np.vdot(m, m) + (d - n) * l2_lambda**2 + 2.0 * (b @ b) + s.sum() ** 2)
    t = s * (X @ step[:d] + step_b)
    residual = rhs - np.append(l2_lambda * step[:d] + X.T @ t, t.sum())
    backward = np.linalg.norm(residual) / (h_norm * np.linalg.norm(step) + np.linalg.norm(rhs))
    return step if backward <= _DUAL_BACKWARD_ERROR else None


def _max_abs(grad_w: np.ndarray, grad_b: float) -> float:
    return max(float(np.max(np.abs(grad_w), initial=0.0)), abs(grad_b))


def _armijo_step(X, y, l2_lambda, weights, bias, loss, step, slope):
    """(weights, bias, objective) after the longest of the steps t * step,
    t = 1, 1/2, 1/4, ..., that lowers the loss by the Armijo rule; ``None``
    when every step that still moves the point leaves the loss as high."""
    d = X.shape[1]
    # a move below the spacing of floats at a coordinate (or at 1, near zero)
    # no longer changes the point
    still = np.spacing(np.maximum(np.abs(np.append(weights, bias)), 1.0))
    t = 1.0
    while np.any(np.abs(t * step) > still):
        trial_w = weights + t * step[:d]
        trial_b = bias + t * float(step[d])
        trial = _objective(trial_w, trial_b, X, y, l2_lambda)
        if trial[0] < loss and trial[0] <= loss + _ARMIJO * t * slope:
            return trial_w, trial_b, trial
        t *= 0.5
    return None


def _newton_iterates(
    X: np.ndarray, y: np.ndarray, l2_lambda: float, weights: np.ndarray, bias: float
) -> Iterator[tuple[np.ndarray, float, float, float]]:
    """Yield (weights, bias, loss, max |gradient|) from the start to the stop.

    Every point after the first is a damped Newton step with a lower loss
    than the point before, except a final full step taken at the optimum to
    rounding, whose loss is within rounding of the one before.
    """
    n, d = X.shape
    # the dual form needs the penalty to make the weight block invertible,
    # and it is the cheaper form once the columns outnumber the rows
    gram = X @ X.T if d > n and l2_lambda > 0 else None
    loss, grad_w, grad_b, p = _objective(weights, bias, X, y, l2_lambda)
    for _ in range(_MAX_STEPS):
        gmax = _max_abs(grad_w, grad_b)
        yield weights, bias, loss, gmax
        if gmax <= GRAD_TOL:
            return
        step = _newton_direction(X, p, grad_w, grad_b, l2_lambda, gram)
        slope = float(grad_w @ step[:d]) + grad_b * float(step[d])
        accepted = None
        # the quadratic model predicts that the full step lowers the loss by -slope / 2
        if -slope > _ROUNDING_ULPS * np.spacing(loss):
            accepted = _armijo_step(X, y, l2_lambda, weights, bias, loss, step, slope)
        if accepted is None:
            weights, bias = weights + step[:d], bias + float(step[d])
            loss, grad_w, grad_b, _ = _objective(weights, bias, X, y, l2_lambda)
            yield weights, bias, loss, _max_abs(grad_w, grad_b)
            return
        weights, bias, (loss, grad_w, grad_b, p) = accepted


def train_logreg(
    X, y, l2_lambda: float = 1.0, *, start: LogisticModel | None = None
) -> LogisticModel:
    """Minimise the regularized cross-entropy by damped Newton steps.

    The steps start from zero weights, or from the weights and bias of
    ``start``; the optimum is the same either way.
    """
    X, y = check_training_set(X, y)
    if len(np.unique(y)) < 2:
        warnings.warn("training labels contain a single class", stacklevel=2)
    if start is None:
        weights, bias = np.zeros(X.shape[1]), 0.0
    elif len(start.weights) != X.shape[1]:
        raise ValueError(f"start has {len(start.weights)} weights for {X.shape[1]} columns")
    else:
        weights, bias = np.asarray(start.weights, dtype=np.float64), float(start.bias)
    for weights, bias, _, _ in _newton_iterates(X, y, l2_lambda, weights, bias):
        pass
    return LogisticModel(weights=weights, bias=bias, l2_lambda=l2_lambda)


def predict_proba(model: LogisticModel, x):
    """P(positive) for one feature vector or a matrix of them."""
    x = np.asarray(x, dtype=np.float64)
    z = x @ model.weights + model.bias
    p = sigmoid(z)
    return float(p) if p.ndim == 0 else p


def predict(model: LogisticModel, x):
    """Positive iff P(positive) >= 0.5."""
    return predict_proba(model, x) >= 0.5
