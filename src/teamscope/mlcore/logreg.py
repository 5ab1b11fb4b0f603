"""Binary logistic regression trained to its optimum by damped Newton steps.

The objective is the mean cross-entropy plus an L2 penalty on the weights
(bias excluded), scaled by 1/N so the penalty strength is independent of
dataset size. Row i may stand for c_i equal rows (the "covariate patterns"
of Hosmer, Lemeshow & Sturdivant, Applied Logistic Regression, 2013):

    loss(w, b) = sum_i c_i [ log(1 + exp(z_i)) - y_i * z_i ] / N + l2 / (2N) * ||w||^2

with z = X w + b and N = sum_i c_i. That is the objective of the rows
repeated c_i times each, so it has the same optimum; c_i = 1 by default.
The counts enter as factors of the sums' terms, so unit counts give the
bytes of the plain mean. Training evaluates every point through the function
behind ``logistic_loss_and_grad``, the one implementation of this objective.

Newton method. Each step solves the (d+1)x(d+1) Hessian system for a
direction, then halves the step length from 1 until the loss falls by at
least 1e-4 of the decrease the gradient predicts (the Armijo rule). With
l2 > 0 and both classes present, the objective has one optimum.

Two forms of one direction. Here n counts the rows of X, each distinct
row once, whatever its count. With no more columns than rows (d <= n), the
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
deterministic. Recursive feature elimination (Guyon et al., "Gene selection
for cancer classification using support vector machines", Machine Learning
46, 2002) drops the weakest weight j (:func:`weakest_weight`) and refits,
and with ``eliminate`` a fit returns where that refit starts. Every Newton
system of such a fit also solves N H u = e_j for its current iterate's
weakest weight, on the same factorisation. When the fit's final weakest
weight is the j of its last system, the refit starts at theta - u theta_j /
u_j without column j: the minimiser of the quadratic model at the optimum
theta with theta_j held at zero, the Optimal Brain Surgeon step (Hassibi &
Stork, NIPS 1992). Otherwise, or when u is not finite or u_j <= 0, it
starts at theta without column j. Either way the start is only a start: the
objective is strictly convex, the stopping rule is the same from any start,
so the refit ends at the optimum it would reach from zero, to rounding,
only in fewer steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .evaluation import check_counts, check_training_set
from .serialize import fields, number, numbers

GRAD_TOL = 1e-12
_ARMIJO = 1e-4
# a decrease of at most this many float spacings of the loss is lost in the
# rounding of the loss as computed, so comparing losses cannot confirm it
_ROUNDING_ULPS = 64
_MAX_STEPS = 100
# a dual-form direction is kept only while its residual is this small
# relative to ||H|| ||step|| + ||rhs||; LU on the (d+1) system stays near 1e-16
_DUAL_BACKWARD_ERROR = 1e-12
# duplicate columns have equal weights at the optimum, but the solve returns
# them equal only up to rounding, so weights this close count as tied
TIE_RTOL = 1e-9


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
        return cls(*fields(raw, "", weights=numbers, bias=number, l2_lambda=number))


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    # exp(z - log(1 + e^z)) is stable for any sign of z
    return np.exp(z - np.logaddexp(0.0, z))


def _objective(weights, bias, X, y, l2_lambda, counts):
    """(loss, grad_w, grad_b, p) where p = sigmoid(X w + b)."""
    total = counts.sum()
    z = X @ weights
    z += bias
    # log(1 + e^z) - y z, computed stably via logaddexp
    softplus = np.logaddexp(0.0, z)
    # counts enter as factors of the summands, not as a dot product, so unit
    # counts sum exactly what the mean of the rows sums
    loss = float(np.sum(counts * (softplus - y * z)) / total)
    loss += l2_lambda / (2.0 * total) * float(weights @ weights)
    p = np.exp(z - softplus)
    residual = counts * (p - y)
    grad_w = (X.T @ residual + l2_lambda * weights) / total
    grad_b = float(np.sum(residual) / total)
    return loss, grad_w, grad_b, p


def logistic_loss_and_grad(
    weights: np.ndarray,
    bias: float,
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float,
) -> tuple[float, np.ndarray, float]:
    """Return (loss, d_loss/d_weights, d_loss/d_bias) for the objective above,
    each row counted once."""
    return _objective(weights, bias, X, y, l2_lambda, np.ones(X.shape[0]))[:3]


def weakest_weight(weights: np.ndarray) -> int:
    """The position of the smallest |weight|, the one RFE drops. Magnitudes
    within a relative ``TIE_RTOL`` of the smallest tie with it, and a tie
    goes to the last position."""
    magnitudes = np.abs(weights)
    tied = magnitudes <= magnitudes.min() * (1.0 + TIE_RTOL)
    return int(np.flatnonzero(tied)[-1])


def _newton_direction(X, p, grad_w, grad_b, l2_lambda, gram=None, weakest=None, *, counts=None):
    """Solve H step = -grad for the Hessian H of the objective at p = sigmoid(z).

    N H = [[A, b], [b^T, sum s]] with A = X^T S X + l2 I, b = X^T s,
    s = c p (1 - p) for the row counts c (ones without ``counts``), N = sum c
    and S = diag(s). With ``gram`` = X X^T the step comes
    from the n x n dual form, unless that form cannot give it within a
    backward error of ``_DUAL_BACKWARD_ERROR``; otherwise, and without
    ``gram``, the (d+1) system is solved as it stands.

    Given ``weakest`` = j, the result is (step, u) with N H u = e_j solved on
    the same factorisation; only the step is held to the backward error.
    """
    if counts is None:
        counts = np.ones(X.shape[0])
    s = counts * (p * (1.0 - p))
    rhs = -counts.sum() * np.append(grad_w, grad_b)
    unit = None
    if weakest is not None:
        unit = np.zeros_like(rhs)
        unit[weakest] = 1.0
    if gram is not None:
        solved = _dual_solve(X, s, rhs, l2_lambda, gram, unit)
        if solved is not None:
            return solved
    if unit is None:
        return _primal_solve(X, s, rhs, l2_lambda)
    return tuple(_primal_solve(X, s, np.column_stack([rhs, unit]), l2_lambda).T)


def _primal_solve(X, s, rhs, l2_lambda) -> np.ndarray:
    """The step from the (d+1)x(d+1) Hessian, built blockwise so X never gets
    a bias column copied onto it; a matrix ``rhs`` gives a step per column."""
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


def _dual_solve(X, s, rhs, l2_lambda, gram, unit=None):
    """The step with the bias eliminated blockwise and A^-1 applied by
    Woodbury, A^-1 = (I - X^T R M^-1 R X) / l2 with R = S^1/2 and the n x n
    M = l2 I + R G R; given ``unit`` = e_j, (step, u) with N H u = e_j.

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
    # A^-1 applied to the weight parts of rhs and e_j, and to b, at once
    z = np.column_stack([rhs[:d], b] if unit is None else [rhs[:d], b, unit[:d]])
    correction = X.T @ (root[:, None] * np.linalg.solve(m, root[:, None] * (X @ z)))
    a_inv_r, a_inv_b, *a_inv_e = ((z - correction) / l2_lambda).T
    schur = s.sum() - b @ a_inv_b
    if not schur > 0:
        return None

    def with_bias(a_inv_w, rhs_b):
        # the bias part from its Schur complement, then the weights given it
        step_b = (rhs_b - b @ a_inv_w) / schur
        return np.append(a_inv_w - step_b * a_inv_b, step_b)

    step = with_bias(a_inv_r, rhs[d])
    # A has M's eigenvalues and d - n more equal to l2, so ||A||_F comes from ||M||_F
    h_norm = np.sqrt(np.vdot(m, m) + (d - n) * l2_lambda**2 + 2.0 * (b @ b) + s.sum() ** 2)
    t = s * (X @ step[:d] + step[d])
    residual = rhs - np.append(l2_lambda * step[:d] + X.T @ t, t.sum())
    backward = np.linalg.norm(residual) / (h_norm * np.linalg.norm(step) + np.linalg.norm(rhs))
    if backward > _DUAL_BACKWARD_ERROR:
        return None
    return step if unit is None else (step, with_bias(a_inv_e[0], unit[d]))


def _max_abs(grad_w: np.ndarray, grad_b: float) -> float:
    return max(float(np.max(np.abs(grad_w), initial=0.0)), abs(grad_b))


def _armijo_step(X, y, l2_lambda, counts, weights, bias, loss, step, slope):
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
        trial = _objective(trial_w, trial_b, X, y, l2_lambda, counts)
        if trial[0] < loss and trial[0] <= loss + _ARMIJO * t * slope:
            return trial_w, trial_b, trial
        t *= 0.5
    return None


class Iterate(NamedTuple):
    """A point of the Newton loop."""

    weights: np.ndarray
    bias: float
    # None at a closing full step, whose objective nothing reads
    loss: float | None
    gmax: float | None
    # (j, u) with N H u = e_j, from the system whose step reached this point;
    # j is the weakest weight of the point that system was built at
    unit_solve: tuple[int, np.ndarray] | None


def _newton_iterates(
    X: np.ndarray,
    y: np.ndarray,
    l2_lambda: float,
    weights: np.ndarray,
    bias: float,
    *,
    counts: np.ndarray | None = None,
    eliminate: bool = False,
) -> Iterator[Iterate]:
    """Yield each point from the start to the stop, with its loss and max |gradient|.

    Every point after the first is a damped Newton step with a lower loss
    than the point before, except a final full step taken at the optimum to
    rounding, whose loss is within rounding of the one before; that point's
    objective is not computed. Row i counts ``counts[i]`` times (once without
    ``counts``). With ``eliminate``, each system also solves for e_j at the
    weakest weight j of the point it is built at.
    """
    n, d = X.shape
    if counts is None:
        counts = np.ones(n)
    # the dual form needs the penalty to make the weight block invertible,
    # and it is the cheaper form once the columns outnumber the rows; its Gram
    # matrix is built for the first direction, which a start at the optimum never needs
    dual = d > n and l2_lambda > 0
    gram = None
    loss, grad_w, grad_b, p = _objective(weights, bias, X, y, l2_lambda, counts)
    unit_solve = None
    for _ in range(_MAX_STEPS):
        gmax = _max_abs(grad_w, grad_b)
        yield Iterate(weights, bias, loss, gmax, unit_solve)
        if gmax <= GRAD_TOL:
            return
        if dual and gram is None:
            gram = X @ X.T
        if eliminate:
            j = weakest_weight(weights)
            step, u = _newton_direction(X, p, grad_w, grad_b, l2_lambda, gram, j, counts=counts)
            unit_solve = (j, u)
        else:
            step = _newton_direction(X, p, grad_w, grad_b, l2_lambda, gram, counts=counts)
        slope = float(grad_w @ step[:d]) + grad_b * float(step[d])
        accepted = None
        # the quadratic model predicts that the full step lowers the loss by -slope / 2
        if -slope > _ROUNDING_ULPS * np.spacing(loss):
            accepted = _armijo_step(X, y, l2_lambda, counts, weights, bias, loss, step, slope)
        if accepted is None:
            yield Iterate(weights + step[:d], bias + float(step[d]), None, None, unit_solve)
            return
        weights, bias, (loss, grad_w, grad_b, p) = accepted


class Elimination(NamedTuple):
    """What one RFE round needs of its fit."""

    # the position of the weakest weight, the column the round drops
    drop: int
    # where the refit without that column starts
    start: LogisticModel


def train_logreg(
    X,
    y,
    l2_lambda: float = 1.0,
    *,
    counts=None,
    start: LogisticModel | None = None,
    eliminate: bool = False,
) -> LogisticModel | Elimination:
    """Minimise the regularized cross-entropy by damped Newton steps.

    Row i stands for ``counts[i]`` rows (once each without ``counts``). The
    steps start from zero weights, or from the weights and bias of
    ``start``; the optimum is the same either way. With ``eliminate``, the
    result is the :class:`Elimination` of the optimum's weakest weight, not
    the model.
    """
    X, y = check_training_set(X, y)
    counts = check_counts(counts, X.shape[0])
    if y.min() == y.max():
        warnings.warn("training labels contain a single class", stacklevel=2)
    if start is None:
        weights, bias = np.zeros(X.shape[1]), 0.0
    elif len(start.weights) != X.shape[1]:
        raise ValueError(f"start has {len(start.weights)} weights for {X.shape[1]} columns")
    else:
        weights, bias = np.asarray(start.weights, dtype=np.float64), float(start.bias)
    for point in _newton_iterates(X, y, l2_lambda, weights, bias, counts=counts, eliminate=eliminate):
        pass
    if not eliminate:
        return LogisticModel(weights=point.weights, bias=point.bias, l2_lambda=l2_lambda)
    return _eliminate_weakest(point, l2_lambda)


def _eliminate_weakest(point: Iterate, l2_lambda: float) -> Elimination:
    """Drop the optimum's weakest weight j, starting the refit at the surgeon
    point theta - u theta_j / u_j when the last system solved for that j."""
    theta = np.append(point.weights, point.bias)
    j = weakest_weight(point.weights)
    if point.unit_solve is not None and point.unit_solve[0] == j:
        u = point.unit_solve[1]
        if np.isfinite(u).all() and u[j] > 0:
            theta = theta - u * (theta[j] / u[j])
    theta = np.delete(theta, j)
    return Elimination(j, LogisticModel(weights=theta[:-1], bias=float(theta[-1]), l2_lambda=l2_lambda))


def predict_proba(model: LogisticModel, x):
    """P(positive) for one feature vector or a matrix of them."""
    x = np.asarray(x, dtype=np.float64)
    z = x @ model.weights + model.bias
    p = sigmoid(z)
    return float(p) if p.ndim == 0 else p


def predict(model: LogisticModel, x):
    """Positive iff P(positive) >= 0.5."""
    return predict_proba(model, x) >= 0.5
