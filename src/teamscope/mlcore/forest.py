"""Random forest of Gini-split decision trees, deterministic per seed.

Every tree draws its bootstrap sample and per-node feature subsets from a
generator seeded by (seed, tree index), so forests are pure functions of
(X, y, hyperparameters, seed) and trees could be built in parallel without
changing the result. A tree is a set of parallel per-node arrays (the layout
of scikit-learn's ``Tree``), used as is for fitting, prediction and the model
file. Leaves store class counts; tree and forest predictions are majority
votes with ties going to the smaller class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..errors import DataError, SchemaError

_U64 = 2**64 - 1
_TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")


@dataclass(eq=False)
class Tree:
    """One fitted tree as parallel arrays over its nodes, in pre-order (root 0).

    ``feature[i]`` is -1 at a leaf. At a split node, rows with
    ``x[feature[i]] <= threshold[i]`` continue at ``left[i]`` and the others
    at ``right[i]``; both children come after their parent. ``counts[i]`` holds
    the class counts of the bootstrap samples that reached node i, and a leaf
    votes for its largest count.
    """

    feature: np.ndarray  # int64, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray  # int64, -1 at leaves
    right: np.ndarray  # int64, -1 at leaves
    counts: np.ndarray  # int64, nodes x classes

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _TREE_ARRAYS)

    def to_dict(self) -> dict:
        return {k: getattr(self, k).tolist() for k in _TREE_ARRAYS}

    @classmethod
    def from_dict(cls, raw: dict, n_features: int, n_classes: int) -> "Tree":
        try:
            tree = cls(
                feature=np.asarray(raw["feature"], dtype=np.int64),
                threshold=np.asarray(raw["threshold"], dtype=np.float64),
                left=np.asarray(raw["left"], dtype=np.int64),
                right=np.asarray(raw["right"], dtype=np.int64),
                counts=np.asarray(raw["counts"], dtype=np.int64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed tree: {exc}") from None
        # children after their parent keep every descent finite
        n = len(tree.feature)
        nodes = np.arange(n)
        split = tree.feature >= 0
        if (
            n == 0
            or any(getattr(tree, k).shape[:1] != (n,) for k in _TREE_ARRAYS)
            or tree.counts.shape != (n, n_classes)
            or np.any(tree.feature >= n_features)
            or np.any(tree.left[split] <= nodes[split])
            or np.any(tree.right[split] <= nodes[split])
            or np.any(tree.left[split] >= n)
            or np.any(tree.right[split] >= n)
        ):
            raise SchemaError("malformed tree: inconsistent node arrays")
        return tree


@dataclass
class ForestModel:
    trees: list[Tree]
    classes: list[Any]
    n_trees: int
    seed: int
    max_depth: int | None
    min_leaf: int
    n_features: int
    importances_raw: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))

    def to_dict(self) -> dict:
        return {
            "trees": [tree.to_dict() for tree in self.trees],
            "classes": list(self.classes),
            "n_trees": self.n_trees,
            "seed": self.seed,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "n_features": self.n_features,
            "importances_raw": [float(v) for v in self.importances_raw],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ForestModel":
        n_features = int(raw["n_features"])
        classes = raw["classes"]
        trees = [Tree.from_dict(t, n_features, len(classes)) for t in raw["trees"]]
        if not trees:
            raise SchemaError("forest has no trees")
        return cls(
            trees=trees,
            classes=classes,
            n_trees=int(raw["n_trees"]),
            seed=int(raw["seed"]),
            max_depth=raw["max_depth"],
            min_leaf=int(raw["min_leaf"]),
            n_features=n_features,
            importances_raw=np.asarray(raw["importances_raw"], dtype=np.float64),
        )


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(X, y_onehot, samples, features, node_counts, min_leaf):
    """Best (feature, threshold, prefix class counts) over the given features.

    All candidate features are scored in one pass over a (features x cuts)
    grid, where cut i puts a feature's i+1 smallest samples on the left. The
    argmin runs in feature-major order, so ties resolve to the lowest feature
    index, then the lowest threshold. The prefix counts are the class counts
    of the first j+1 samples in the chosen feature's sorted order, row j.
    Returns None when no feature has a valid cut.
    """
    n = len(samples)
    rows = np.arange(len(features))[:, None]
    vals = X[samples[None, :], features[:, None]]  # features x samples
    order = np.argsort(vals, axis=1, kind="stable")
    sorted_vals = vals[rows, order]
    sizes_left = np.arange(1, n, dtype=np.float64)
    sizes_right = n - sizes_left
    valid = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    if min_leaf > 1:
        valid &= (sizes_left >= min_leaf) & (sizes_right >= min_leaf)
    if not valid.any():
        return None
    left = np.cumsum(y_onehot[samples[order[:, :-1]]], axis=1)
    right = node_counts - left
    gini_left = 1.0 - ((left / sizes_left[:, None]) ** 2).sum(axis=2)
    gini_right = 1.0 - ((right / sizes_right[:, None]) ** 2).sum(axis=2)
    score = np.where(valid, (sizes_left * gini_left + sizes_right * gini_right) / n, np.inf)
    f, cut = np.unravel_index(int(np.argmin(score)), score.shape)
    threshold = float((sorted_vals[f, cut] + sorted_vals[f, cut + 1]) / 2.0)
    return int(features[f]), threshold, left[f]


def _build_tree(X, y_onehot, samples, max_depth, min_leaf, k_features, rng, imp) -> Tree:
    """Grow one tree depth first, left subtree before right, as the node arrays."""
    d = X.shape[1]
    n_root = len(samples)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []
    root_counts = y_onehot[samples].sum(axis=0)
    # (samples, their class counts and Gini, depth, child list of the parent, parent)
    stack = [(samples, root_counts, _gini(root_counts), 0, None, -1)]
    while stack:
        samples, node_counts, node_gini, depth, link, parent = stack.pop()
        node = len(feature)
        if link is not None:
            link[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(node_counts)
        n = len(samples)
        if (
            node_gini == 0.0
            or (max_depth is not None and depth >= max_depth)
            or n < 2 * min_leaf
        ):
            continue
        candidates = np.sort(rng.choice(d, size=k_features, replace=False))
        best = _best_split(X, y_onehot, samples, candidates, node_counts, min_leaf)
        if best is None:
            continue

        feat, cut_value, prefix_counts = best
        mask = X[samples, feat] <= cut_value
        # the left child is a prefix of the sorted order; its length comes
        # from the mask because a midpoint threshold can round onto the next value
        n_left = int(mask.sum())
        left_counts = prefix_counts[n_left - 1] if n_left < n else node_counts
        right_counts = node_counts - left_counts
        left_gini = _gini(left_counts)
        right_gini = _gini(right_counts)
        imp[feat] += (n * node_gini - n_left * left_gini - (n - n_left) * right_gini) / n_root
        feature[node] = feat
        threshold[node] = cut_value
        stack.append((samples[~mask], right_counts, right_gini, depth + 1, right, node))
        stack.append((samples[mask], left_counts, left_gini, depth + 1, left, node))

    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
    )


def train_forest(
    X,
    y: Sequence,
    n_trees: int = 100,
    seed: int = 0,
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> ForestModel:
    """Fit ``n_trees`` trees on bootstrap samples of (X, y)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError(f"X must be a non-empty 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        # split thresholds are midpoints, and node sizes follow from them
        raise DataError("X contains NaN or infinite values")
    y = [label.item() if isinstance(label, np.generic) else label for label in y]
    if len(y) != X.shape[0]:
        raise DataError(f"{X.shape[0]} rows of X but {len(y)} labels")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")

    classes = sorted(set(y))
    class_index = {c: i for i, c in enumerate(classes)}
    y_onehot = np.zeros((len(y), len(classes)), dtype=np.int64)
    for i, label in enumerate(y):
        y_onehot[i, class_index[label]] = 1

    n, d = X.shape
    k_features = max(1, int(math.isqrt(d)))
    seed_entropy = int(seed) & _U64

    trees = []
    importance_sum = np.zeros(d, dtype=np.float64)
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed_entropy, t]))
        samples = rng.integers(0, n, size=n)
        imp = np.zeros(d, dtype=np.float64)
        trees.append(_build_tree(X, y_onehot, samples, max_depth, min_leaf, k_features, rng, imp))
        total = imp.sum()
        if total > 0:
            importance_sum += imp / total

    return ForestModel(
        trees=trees,
        classes=classes,
        n_trees=n_trees,
        seed=int(seed),
        max_depth=max_depth,
        min_leaf=min_leaf,
        n_features=d,
        importances_raw=importance_sum / n_trees,
    )


def forest_votes(model: ForestModel, x) -> np.ndarray:
    """Per-class vote counts across trees: shape (classes,) for one feature
    vector, (rows, classes) for a matrix.

    Every row descends every tree at once, one depth level per step.
    """
    x = np.asarray(x, dtype=np.float64)
    X = x.reshape(1, -1) if x.ndim == 1 else x
    m = X.shape[0]
    trees = model.trees
    offsets = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + off for t, off in zip(trees, offsets)])
    right = np.concatenate([t.right + off for t, off in zip(trees, offsets)])
    # argmax takes the first max: ties go to the smaller class index
    leaf_vote = np.concatenate([t.counts for t in trees]).argmax(axis=1)

    node = np.repeat(offsets, m)  # tree-major: entry t*m + r is row r in tree t
    row = np.tile(np.arange(m), len(trees))
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = X[row[active], feature[at]] <= threshold[at]
        node[active] = np.where(goes_left, left[at], right[at])
        active = active[feature[node[active]] >= 0]

    n_classes = len(model.classes)
    votes = np.bincount(row * n_classes + leaf_vote[node], minlength=m * n_classes)
    votes = votes.reshape(m, n_classes).astype(np.int64, copy=False)
    return votes[0] if x.ndim == 1 else votes


def forest_predict(model: ForestModel, x):
    """Majority-vote class label (tie -> smaller class index); a list for a matrix."""
    winners = forest_votes(model, x).argmax(axis=-1)
    if winners.ndim == 1:
        return [model.classes[int(i)] for i in winners]
    return model.classes[int(winners)]


def forest_vote_share(model: ForestModel, x, label) -> float:
    """Fraction of trees voting for ``label`` on one feature vector."""
    votes = forest_votes(model, x)
    return float(votes[model.classes.index(label)]) / model.n_trees


def feature_importances(model: ForestModel) -> np.ndarray:
    """Mean decrease in Gini impurity, normalized to sum to 1 (zeros if no splits)."""
    raw = model.importances_raw
    total = raw.sum()
    if total <= 0:
        return np.zeros_like(raw)
    return raw / total
