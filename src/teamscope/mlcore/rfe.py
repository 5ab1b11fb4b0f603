"""Recursive feature elimination driven by logistic-regression weights."""

from __future__ import annotations

from .evaluation import check_training_set
from .logreg import train_logreg


def rfe_select(X, y, target_k: int, l2_lambda: float = 1.0) -> list[int]:
    """Drop the weakest-|weight| feature one at a time until ``target_k`` remain.

    Ties on |weight| (within a relative ``logreg.TIE_RTOL``) drop the feature
    with the larger original index. The surviving original indices are
    returned in ascending order. Each refit starts where the previous fit's
    :class:`~.logreg.Elimination` says: at the Optimal Brain Surgeon point
    of the previous optimum with the dropped weight held at zero, or at that
    optimum without the dropped column. The start changes only the number
    of Newton steps, not the optimum a refit reaches. ``y`` must hold both
    classes: with one class alone the objective has no finite optimum, so
    the weights RFE ranks would depend on where each fit starts.
    """
    X, y = check_training_set(X, y)
    d = X.shape[1]
    if target_k < 1:
        raise ValueError("target_k must be >= 1")
    if target_k > d:
        raise ValueError(f"target_k={target_k} exceeds feature count {d}")
    if y.min() == y.max():
        raise ValueError(f"y holds class {y[0]:.0f} alone; RFE needs both classes, 0 and 1")

    surviving = list(range(d))
    start = None
    while len(surviving) > target_k:
        drop, start = train_logreg(X[:, surviving], y, l2_lambda=l2_lambda, start=start, eliminate=True)
        surviving.pop(drop)
    return surviving
