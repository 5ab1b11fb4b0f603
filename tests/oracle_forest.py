"""Reference random forest: one feature per split scan, nested-dict trees.

Used by tests as the oracle for ``teamscope.mlcore.forest``: it scores each
candidate feature separately, re-sums the one-hot rows of every node, and
votes by walking one row down one tree at a time. It draws the same random
numbers in the same order as the production forest, so trees, importances
and votes must match exactly.
"""

from __future__ import annotations

import math

import numpy as np

_U64 = 2**64 - 1


def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(X, y_onehot, samples, features, min_leaf):
    n = len(samples)
    Y = y_onehot[samples]
    node_counts = Y.sum(axis=0)
    sizes_left = np.arange(1, n, dtype=np.float64)
    sizes_right = n - sizes_left
    best = None  # (score, feature, threshold)
    for f in features:
        vals = X[samples, f]
        order = np.argsort(vals, kind="stable")
        sorted_vals = vals[order]
        valid = sorted_vals[1:] != sorted_vals[:-1]
        if min_leaf > 1:
            valid = valid & (sizes_left >= min_leaf) & (sizes_right >= min_leaf)
        if not valid.any():
            continue
        left = np.cumsum(Y[order[:-1]], axis=0)
        right = node_counts - left
        gini_left = 1.0 - ((left / sizes_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / sizes_right[:, None]) ** 2).sum(axis=1)
        score = np.where(
            valid, (sizes_left * gini_left + sizes_right * gini_right) / n, np.inf
        )
        cut = int(np.argmin(score))
        cut_score = float(score[cut])
        if np.isfinite(cut_score) and (best is None or cut_score < best[0]):
            threshold = float((sorted_vals[cut] + sorted_vals[cut + 1]) / 2.0)
            if threshold == sorted_vals[cut + 1]:  # the midpoint rounded up onto the next value
                threshold = float(sorted_vals[cut])
            best = (cut_score, int(f), threshold)
    return best


def _build_tree(X, y_onehot, samples, depth, max_depth, min_leaf, k_features, rng, imp, n_root):
    counts = y_onehot[samples].sum(axis=0)
    node_gini = _gini(counts)
    if (
        node_gini == 0.0
        or (max_depth is not None and depth >= max_depth)
        or len(samples) < 2 * min_leaf
    ):
        return {"counts": [int(c) for c in counts]}
    features = np.sort(rng.choice(X.shape[1], size=k_features, replace=False))
    best = _best_split(X, y_onehot, samples, features, min_leaf)
    if best is None:
        return {"counts": [int(c) for c in counts]}
    _, feat, threshold = best
    mask = X[samples, feat] <= threshold
    left_samples = samples[mask]
    right_samples = samples[~mask]
    n = len(samples)
    left_gini = _gini(y_onehot[left_samples].sum(axis=0))
    right_gini = _gini(y_onehot[right_samples].sum(axis=0))
    imp[feat] += (
        n * node_gini - len(left_samples) * left_gini - len(right_samples) * right_gini
    ) / n_root
    args = (max_depth, min_leaf, k_features, rng, imp, n_root)
    return {
        "f": feat,
        "t": threshold,
        "counts": [int(c) for c in counts],
        "l": _build_tree(X, y_onehot, left_samples, depth + 1, *args),
        "r": _build_tree(X, y_onehot, right_samples, depth + 1, *args),
    }


def train_forest(X, y, n_trees, seed, max_depth=None, min_leaf=1):
    """(dict trees, classes, importances_raw) for the same inputs as the real forest."""
    X = np.asarray(X, dtype=np.float64)
    classes = sorted(set(y))
    y_onehot = np.zeros((len(y), len(classes)), dtype=np.int64)
    for i, label in enumerate(y):
        y_onehot[i, classes.index(label)] = 1
    n, d = X.shape
    k_features = max(1, int(math.isqrt(d)))
    trees = []
    importance_sum = np.zeros(d, dtype=np.float64)
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & _U64, t]))
        samples = rng.integers(0, n, size=n)
        imp = np.zeros(d, dtype=np.float64)
        trees.append(
            _build_tree(X, y_onehot, samples, 0, max_depth, min_leaf, k_features, rng, imp, n)
        )
        total = imp.sum()
        if total > 0:
            importance_sum += imp / total
    return trees, classes, importance_sum / n_trees


def tree_vote(tree, x) -> int:
    """Class index one dict tree votes for on one row (ties -> smaller index)."""
    node = tree
    while "l" in node:
        node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
    return int(np.argmax(node["counts"]))


def forest_votes(trees, n_classes, x) -> np.ndarray:
    votes = np.zeros(n_classes, dtype=np.int64)
    for tree in trees:
        votes[tree_vote(tree, x)] += 1
    return votes


def flatten(tree) -> dict:
    """Pre-order parallel arrays of a dict tree, in the model file's tree layout."""
    out = {"feature": [], "threshold": [], "left": [], "right": [], "counts": []}

    def visit(node):
        idx = len(out["feature"])
        for key in ("feature", "threshold", "left", "right"):
            out[key].append(-1 if key != "threshold" else 0.0)
        out["counts"].append(node["counts"])
        if "l" in node:
            out["feature"][idx] = node["f"]
            out["threshold"][idx] = node["t"]
            out["left"][idx] = visit(node["l"])
            out["right"][idx] = visit(node["r"])
        return idx

    visit(tree)
    return out
