"""Recursive feature elimination driven by logistic-regression weights."""

from __future__ import annotations

import numpy as np

from .logreg import LogisticModel, train_logreg

# duplicate columns have equal weights at the optimum, but the solve returns
# them equal only up to rounding, so weights this close count as tied
TIE_RTOL = 1e-9


def rfe_select(X, y, target_k: int, l2_lambda: float = 1.0) -> list[int]:
    """Drop the weakest-|weight| feature one at a time until ``target_k`` remain.

    Ties on |weight| (within a relative ``TIE_RTOL``) drop the feature with
    the larger original index. The surviving original indices are returned
    in ascending order. Each refit starts from the previous fit's optimum
    without the dropped column.
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    if target_k < 1:
        raise ValueError("target_k must be >= 1")
    if target_k > d:
        raise ValueError(f"target_k={target_k} exceeds feature count {d}")

    surviving = list(range(d))
    start = None
    while len(surviving) > target_k:
        model = train_logreg(X[:, surviving], y, l2_lambda=l2_lambda, start=start)
        magnitudes = np.abs(model.weights)
        tied = magnitudes <= magnitudes.min() * (1.0 + TIE_RTOL)
        # last position among the minima = largest original index
        drop_pos = int(np.flatnonzero(tied)[-1])
        surviving.pop(drop_pos)
        start = LogisticModel(np.delete(model.weights, drop_pos), model.bias, l2_lambda)
    return surviving
