"""Seed sequences and the draws of ``Generator.choice``, the binary
training-set and row-count checks, cross-validation folds,
precision/recall/F1, Cohen's kappa, z-scoring."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import DataError

_U64 = 2**64 - 1
STD_EPS = 1e-12


def seed_sequence(seed, *path: int) -> np.random.SeedSequence:
    """The random stream of a seed and a path of indices under it (a tree, a
    stage, a team). A seed enters as its low 64 bits, so a negative one works."""
    return np.random.SeedSequence([int(seed) & _U64, *path])


def choice_bounds(n: int, k: int) -> np.ndarray:
    """The bounds of the draws ``Generator.choice(n, k, replace=False)`` makes.

    numpy picks k of range(n) by Floyd's algorithm (Bentley & Floyd, CACM
    30(9), 1987), with one draw below each of n-k+1, ..., n, and then
    shuffles the picks, with one draw below each of k, ..., 2. So
    ``rng.integers(0, choice_bounds(n, k))`` makes the same draws and leaves
    ``rng`` where ``choice`` leaves it, and so do tiled bounds after other
    bounded draws. numpy takes another path for n above 10,000 with k above
    n // 50, which none of the callers reach.
    """
    return np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)])


def sorted_choices(draws: np.ndarray, n: int) -> np.ndarray:
    """``sorted(choice(n, k, replace=False))`` from each row of ``draws``
    (shape (..., k)): Floyd's k draws, the first k of ``choice_bounds(n, k)``.

    Floyd's step j = n-k, ..., n-1 picks its draw, or j when the draw was
    picked before; all rows take each step at once. Sorting undoes the
    shuffle, so its draws are not needed.
    """
    k = draws.shape[-1]
    picks = draws.copy()
    for step in range(1, k):
        pick = picks[..., step]
        pick[(picks[..., :step] == pick[..., None]).any(axis=-1)] = n - k + step
    picks.sort(axis=-1)
    return picks


def check_training_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) as float64 arrays, once they form a binary training set: X is a
    finite 2-D matrix with at least one row, and y holds one label per row,
    each 0 or 1 (booleans count as 0/1)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError(f"X must be a non-empty 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("X contains NaN or infinite values")
    y = np.asarray(y).ravel()
    if len(y) != X.shape[0]:
        raise DataError(f"{X.shape[0]} rows of X but {len(y)} labels")
    if y.dtype.kind not in "biuf" or not np.all((y == 0) | (y == 1)):
        raise DataError("labels must be boolean (0/1)")
    return X, y.astype(np.float64)


def check_counts(counts, n: int) -> np.ndarray:
    """The multiplicities of n rows as float64, once each is positive and
    finite; None counts every row once."""
    if counts is None:
        return np.ones(n)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (n,):
        raise DataError(f"{n} rows but counts of shape {counts.shape}")
    if not (np.isfinite(counts) & (counts > 0)).all():
        raise DataError("counts must be positive and finite")
    return counts


@dataclass
class EvalReport:
    """Precision/recall/F1 for one positive class, optionally per fold."""

    precision: float
    recall: float
    f1: float
    support: int
    folds: list["EvalReport"] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "support": self.support,
        }
        if self.folds:
            out["folds"] = [f.to_dict() for f in self.folds]
        return out


def prf1(y_true: Sequence, y_pred: Sequence, positive_class) -> EvalReport:
    """Binary precision/recall/F1 with zero-division mapped to 0."""
    if len(y_true) != len(y_pred):
        raise DataError(f"{len(y_true)} true labels but {len(y_pred)} predictions")
    tp = fp = fn = 0
    for t, p in zip(y_true, y_pred):
        t_pos = t == positive_class
        p_pos = p == positive_class
        if t_pos and p_pos:
            tp += 1
        elif p_pos:
            fp += 1
        elif t_pos:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(precision=precision, recall=recall, f1=f1, support=tp + fn)


def mean_report(folds: Sequence[EvalReport]) -> EvalReport:
    """Average fold metrics (keeping the folds as the breakdown)."""
    if not folds:
        raise ValueError("no folds to average")
    k = len(folds)
    return EvalReport(
        precision=sum(f.precision for f in folds) / k,
        recall=sum(f.recall for f in folds) / k,
        f1=sum(f.f1 for f in folds) / k,
        support=sum(f.support for f in folds),
        folds=list(folds),
    )


def stratified_kfold(labels: Sequence, k: int, seed: int = 0) -> list[list[int]]:
    """Split indices into k folds with per-class counts balanced within 1.

    Raises DataError when there are fewer items than folds, and warns when a
    class has fewer members than folds: the folds without it score F1 = 0
    for it, and ``mean_report`` averages those zeros in.

    Deterministic per seed: classes are dealt round-robin in sorted order
    after a seeded shuffle, with the starting fold rotating so fold sizes
    stay balanced too.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = list(labels)
    if k > len(labels):
        # some folds would be empty and score F1 = 0 in every fold average
        raise DataError(f"cannot split {len(labels)} items into {k} folds")
    classes = sorted(set(labels), key=repr)
    sizes = {cls: labels.count(cls) for cls in classes}
    scarce = [f"{cls} ({sizes[cls]})" for cls in classes if sizes[cls] < k]
    if scarce:
        warnings.warn(
            f"fewer members than the {k} folds, so some folds score F1 = 0 for: "
            + ", ".join(scarce),
            stacklevel=2,
        )
    rng = np.random.default_rng(seed_sequence(seed))
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in classes:
        indices = np.array([i for i, l in enumerate(labels) if l == cls])
        rng.shuffle(indices)
        for j, idx in enumerate(indices):
            folds[(offset + j) % k].append(int(idx))
        offset = (offset + len(indices)) % k
    return [sorted(f) for f in folds]


def cohens_kappa(a: Sequence, b: Sequence) -> float:
    """Chance-corrected agreement between two labelings of the same items."""
    if len(a) != len(b):
        raise DataError(f"labelings differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        raise DataError("cannot compute kappa on empty labelings")
    observed = sum(1 for x, y in zip(a, b) if x == y) / n
    counts_a: dict = {}
    counts_b: dict = {}
    for x in a:
        counts_a[x] = counts_a.get(x, 0) + 1
    for y in b:
        counts_b[y] = counts_b.get(y, 0) + 1
    # summation in sorted label order keeps the float result process-independent
    expected = sum(
        (counts_a.get(label, 0) / n) * (counts_b.get(label, 0) / n)
        for label in sorted(set(counts_a) | set(counts_b), key=repr)
    )
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def standardize_fit(X) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation."""
    X = np.asarray(X, dtype=np.float64)
    return X.mean(axis=0), X.std(axis=0)


def standardize_apply(X, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Z-score columns; near-constant columns (std < 1e-12) map to zero."""
    X = np.asarray(X, dtype=np.float64)
    safe = np.where(stds < STD_EPS, 1.0, stds)
    return np.where(stds < STD_EPS, 0.0, (X - means) / safe)
