"""Random forest of full-depth Gini-split trees for 0/1 labels, deterministic per seed.

Every tree draws its bootstrap sample and per-node feature subsets from a
generator seeded by (seed, tree index), so forests are pure functions of
(X, y, n_trees, seed) and no tree depends on another. A tree grows until
each leaf is pure or holds one sample, without pruning (Breiman, "Random
Forests", Machine Learning 45, 2001). All trees of a forest grow in
lockstep: each step takes the next depth-first split candidate of every
unfinished tree and scores them together, in batched split searches of at
most ``_CELL_BUDGET`` (feature, sample) cells each. A tree's draws come in
the order it would make them growing alone, so neither the lockstep nor the
batching changes a tree. A forest is one set of parallel per-node arrays
over all its trees (the layout of scikit-learn's ``Tree``, applied to the
whole forest), with child indices across the forest and each tree's root
in ``trees``: fitting builds it, and prediction and importances read it in
whole-forest passes. Leaves store the counts of classes 0 and 1; tree and
forest predictions are majority votes with ties going to class 0. Those
counts are all a forest's importances need, so a model file holds only the
trees and the number of feature columns: the class list, the depth rule
and the tree count belong to the code or follow from the trees. The file
lists each tree's node arrays with child indices local to that tree, and
``from_dict`` reads them through :mod:`.serialize`'s readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ..errors import DataError
from .evaluation import check_training_set, seed_sequence
from .serialize import integer, integers, numbers

# Most cells (candidate feature x node sample) one batched split search holds.
# It bounds the search's working memory (about 50 bytes a cell) whatever the
# number of trees, and is large enough that numpy's per-call cost is small.
_CELL_BUDGET = 1 << 14


@dataclass(eq=False)
class ForestModel:
    """A fitted forest as parallel arrays over the nodes of all its trees.

    Tree t's nodes run in pre-order from its root ``trees[t]`` to the next
    tree's root, so ``len(trees)`` is the tree count. ``feature[i]`` is -1 at
    a leaf, whose ``left[i]`` and ``right[i]`` are -1 too. At a split node,
    rows with ``x[feature[i]] <= threshold[i]`` continue at node ``left[i]``
    and the others at ``right[i]``, both after node i in its tree; the model
    file counts them from the tree's root instead. ``counts[i]`` holds the
    counts of classes 0 and 1 among the bootstrap samples that reached node
    i, and a leaf votes for the larger, class 0 on a tie.
    """

    feature: np.ndarray  # int64, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray  # int64, -1 at leaves
    right: np.ndarray  # int64, -1 at leaves
    counts: np.ndarray  # int64, nodes x 2
    trees: np.ndarray  # int64, each tree's root node
    n_features: int

    def to_dict(self) -> dict:
        sizes = np.diff(self.trees, append=len(self.feature))
        base = np.repeat(self.trees, sizes)
        split = self.feature >= 0
        arrays = {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": np.where(split, self.left - base, -1).tolist(),
            "right": np.where(split, self.right - base, -1).tolist(),
            "counts": self.counts.tolist(),
        }
        bounds = zip(self.trees.tolist(), (self.trees + sizes).tolist())
        trees = [{k: v[lo:hi] for k, v in arrays.items()} for lo, hi in bounds]
        return {"trees": trees, "n_features": self.n_features}

    @classmethod
    def from_dict(cls, raw: dict) -> "ForestModel":
        n_features = integer(raw["n_features"], "forest n_features")
        per_tree = [_read_tree(t) for t in raw["trees"]]
        if not per_tree:
            raise DataError("forest has no trees")
        sizes = np.array([len(t[0]) for t in per_tree])
        feature, threshold, left, right, counts = (np.concatenate(a) for a in zip(*per_tree))
        # a split reads one of the columns, and its children come after it
        # inside its tree, which keeps every descent finite; a leaf links nowhere
        node = np.arange(len(feature)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        end = np.repeat(sizes, sizes)
        inside = (node < left) & (left < end) & (node < right) & (right < end)
        linked = np.where(feature >= 0, inside, (left == -1) & (right == -1))
        if np.any((feature < -1) | (feature >= n_features)) or not np.all(linked):
            raise DataError("malformed tree: inconsistent node arrays")
        return _forest(feature, threshold, left, right, counts, sizes, n_features)


def _read_tree(raw: dict) -> tuple:
    """One tree's feature, threshold, left, right and counts arrays, all of one length."""
    arrays = (
        integers(raw["feature"], "tree feature"),
        numbers(raw["threshold"], "tree threshold"),
        integers(raw["left"], "tree left"),
        integers(raw["right"], "tree right"),
        integers(raw["counts"], "tree counts", pairs=True),
    )
    n = len(arrays[0])
    if n == 0 or any(a.shape[:1] != (n,) for a in arrays):
        raise DataError("malformed tree: inconsistent node arrays")
    return arrays


def _forest(feature, threshold, left, right, counts, sizes, n_features) -> ForestModel:
    """The forest whose trees of ``sizes`` nodes come one after another in the
    node arrays, with child indices counted from each tree's root."""
    trees = np.cumsum(sizes) - sizes
    base = np.repeat(trees, sizes)
    split = feature >= 0
    left = np.where(split, left + base, -1)
    right = np.where(split, right + base, -1)
    return ForestModel(feature, threshold, left, right, counts, trees, n_features)


def _weighted_gini(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``size`` times the Gini impurity of each column of (2, n) counts,
    where ``size`` (float) holds the columns' totals, none of them 0."""
    p = counts / size
    p *= p
    return size * (1.0 - (p[0] + p[1]))


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each column of (2, nodes) counts; 0 for an empty column."""
    total = counts.sum(axis=0)
    with np.errstate(invalid="ignore"):
        p = counts / total
    p *= p
    return np.where(total > 0, 1.0 - (p[0] + p[1]), 0.0)


def _value_codes(X: np.ndarray, shift: int, dtype) -> np.ndarray:
    """``rank << shift | row`` for every value of X, as a (features, rows) array.

    A rank is the value's dense rank within its column: equal values share
    one and ranks follow the values' order, so sorting a node's codes sorts
    its values and keeps each sample's row. Columns go in blocks of at most
    ``_CELL_BUDGET`` values.
    """
    n, d = X.shape
    codes = np.empty((d, n), dtype=dtype)
    step = max(1, _CELL_BUDGET // n)
    for lo in range(0, d, step):
        columns = X[:, lo : lo + step].T
        order = np.argsort(columns, axis=1)
        values = np.take_along_axis(columns, order, axis=1)
        rank = np.zeros(order.shape, dtype=dtype)
        np.cumsum(values[:, 1:] != values[:, :-1], axis=1, out=rank[:, 1:])
        rank <<= shift
        rank |= order
        np.put_along_axis(codes[lo : lo + step], order, rank, axis=1)
    return codes


def _range_counts(prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Class counts (2 x ranges) of the cell ranges [lo, hi), from the prefix
    counts of class 1; class 0 has the rest of each range."""
    ones = prefix.take(hi) - prefix.take(lo)
    return np.vstack([hi - lo - ones, ones])


def _split_nodes(X, codes, shift, y, rows, sizes, features, node_counts):
    """Best split of every node of a batch, all scored in one pass.

    Node j owns the next ``sizes[j]`` entries of ``rows`` (bootstrap row
    indices, repeats allowed), the class counts ``node_counts[:, j]`` and the
    sorted candidate features ``features[j]``; ``y[row]`` is a row's 0/1
    label. Each (node, feature) pair is a segment with one cell per sample,
    and one sort of the keys ``segment << 2 shift | code`` orders every
    segment by value. Cut i of a segment puts its first i+1 samples on the
    left. It is valid between two distinct values, and only valid cuts are
    scored. A node takes its lowest-scoring cut, the first in (feature, cut)
    order on ties: the lowest feature index, then the lowest threshold. The
    order within a run of equal values moves only invalid cuts, so the sort
    need not be stable.

    Returns, for the nodes that have a valid cut (their indices ``split``),
    the feature, threshold, left child size and left child class counts
    (2 x nodes), and their rows concatenated, each node's ordered by
    its chosen feature so that the left child's rows come first.
    """
    n = X.shape[0]
    m, k = features.shape
    seg_sizes = np.repeat(sizes, k)
    seg_ends = np.cumsum(seg_sizes)
    seg_starts = seg_ends - seg_sizes
    n_cells = int(seg_ends[-1])
    node_starts = np.cumsum(sizes) - sizes
    at = np.repeat(np.repeat(node_starts, k) - seg_starts, seg_sizes)
    at += np.arange(n_cells)
    at = rows[at]  # the row of every cell
    at += np.repeat(features.ravel() * n, seg_sizes)
    key = np.repeat(np.arange(m * k, dtype=codes.dtype) << (2 * shift), seg_sizes)
    key |= codes.take(at)
    del at
    key.sort()
    cell_rows = key & ((1 << shift) - 1)
    key >>= shift  # now segment << shift | rank: equal exactly where values are

    changes = key[1:] != key[:-1]
    changes[seg_ends[:-1] - 1] = False  # no cut between two segments
    cut = np.flatnonzero(changes)
    cut_seg = key[cut] >> shift
    n_left = cut + 1 - seg_starts.take(cut_seg)
    if cut.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0), empty, np.zeros((2, 0), dtype=np.int64), empty

    # prefix[i]: cells of class 1 before cell i
    prefix = np.zeros(n_cells + 1, dtype=y.dtype)
    np.cumsum(y.take(cell_rows), out=prefix[1:])
    node = cut_seg // k
    size_left = n_left.astype(np.float64)
    size_right = sizes.take(node) - size_left
    left = _range_counts(prefix, seg_starts.take(cut_seg), cut + 1)
    score = _weighted_gini(left, size_left)
    score += _weighted_gini(node_counts.take(node, axis=1) - left, size_right)
    score /= size_left + size_right

    # the first lowest score of each node, in cell order
    first = np.ones(len(node), dtype=bool)
    np.not_equal(node[1:], node[:-1], out=first[1:])
    first = np.flatnonzero(first)
    lowest = np.zeros(m)
    lowest[node[first]] = np.minimum.reduceat(score, first)
    ties = np.flatnonzero(score == lowest.take(node))
    best = ties[np.searchsorted(ties, first)]

    split = node[best]
    at = cut[best]
    best_seg = cut_seg[best]
    feature = features.ravel()[best_seg]
    below, above = X[cell_rows[at], feature], X[cell_rows[at + 1], feature]
    threshold = (below + above) / 2.0
    # a midpoint can round up onto the next value; the lower value keeps that value's samples right
    threshold = np.where(threshold == above, below, threshold)
    n_left = n_left[best]
    starts = seg_starts[best_seg]
    left_counts = _range_counts(prefix, starts, starts + n_left)

    split_sizes = sizes[split]
    out_starts = np.cumsum(split_sizes) - split_sizes
    ordered = cell_rows[np.arange(split_sizes.sum()) + np.repeat(starts - out_starts, split_sizes)]
    return split, feature, threshold, n_left, left_counts, ordered


def _chunks(batch, k_features):
    """Consecutive runs of ``batch`` holding at most ``_CELL_BUDGET`` cells each
    (a node larger than the budget runs alone)."""
    chunk, cells = [], 0
    for item in batch:
        size = (item[3] - item[2]) * k_features
        if chunk and cells + size > _CELL_BUDGET:
            yield chunk
            chunk, cells = [], 0
        chunk.append(item)
        cells += size
    if chunk:
        yield chunk


def _grow_trees(X, y, rngs) -> ForestModel:
    """The forest of one tree per generator, all grown in lockstep.

    Every tree grows depth first, left subtree before right, so its nodes
    come out in pre-order. Each step takes the next split candidate of every
    unfinished tree, draws its candidate features from that tree's
    generator, and scores the step's nodes in batched split searches. A
    tree's draws thus come in the same order as when it grows alone: its
    bootstrap, then one feature subset per split candidate in pre-order.
    """
    n, d = X.shape
    k_features = max(1, math.isqrt(d))
    shift = max(1, (n - 1).bit_length())
    # a batch has at most budget / 2 segments (split candidates hold two or
    # more samples), or k_features when one node exceeds the budget alone
    segments = max(_CELL_BUDGET // 2, k_features)
    key_bits = segments.bit_length() + 2 * shift
    if key_bits > 63:
        raise DataError(f"{n} rows are more than a forest's 63-bit sort keys can order")
    key_type = np.int32 if key_bits < 32 else np.int64
    codes = _value_codes(X, shift, key_type)
    # tree t's bootstrap rows fill flat[t * n : (t + 1) * n]; each node owns a
    # range of them, and a split reorders its range so the left child's come first
    flat = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    root_counts = np.bincount(
        np.repeat(np.arange(len(rngs)) * 2, n) + y[flat], minlength=len(rngs) * 2
    ).reshape(len(rngs), 2)
    root_gini = _gini(root_counts.T)
    # per tree: node records [feature, threshold, left, right, counts] in pre-order
    nodes: list[list[list]] = [[] for _ in rngs]
    # per tree: pending nodes (start, end, counts, gini, parent, slot of the parent's link)
    stacks = [[(t * n, (t + 1) * n, root_counts[t], root_gini[t], -1, 0)] for t in range(len(rngs))]

    growing = range(len(rngs))
    while growing:
        batch = []
        for t in growing:
            stack, tree = stacks[t], nodes[t]
            while stack:
                start, end, counts, gini, parent, slot = stack.pop()
                node = len(tree)
                if parent >= 0:
                    tree[parent][slot] = node
                tree.append([-1, 0.0, -1, -1, counts])
                if gini == 0.0:  # pure, as is every one-sample node
                    continue
                candidates = rngs[t].choice(d, size=k_features, replace=False)
                batch.append((t, node, start, end, candidates))
                break
        growing = [item[0] for item in batch]

        for chunk in _chunks(batch, k_features):
            _, _, starts, ends, candidates = (np.array(v) for v in zip(*chunk))
            sizes = ends - starts
            span = np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
            node_counts = np.array([nodes[t][node][4] for t, node, *_ in chunk], dtype=np.int64).T
            split, feature, threshold, n_left, left_counts, ordered = _split_nodes(
                X, codes, shift, y, flat[span], sizes, np.sort(candidates, axis=1), node_counts
            )
            is_split = np.zeros(len(chunk), dtype=bool)
            is_split[split] = True
            flat[span[np.repeat(is_split, sizes)]] = ordered
            right_counts = node_counts.take(split, axis=1) - left_counts
            for j, f, cut_value, n_l, l_counts, r_counts, l_gini, r_gini in zip(
                split.tolist(), feature.tolist(), threshold.tolist(), n_left.tolist(),
                left_counts.T, right_counts.T, _gini(left_counts).tolist(), _gini(right_counts).tolist(),
            ):
                t, node, start, end, _ = chunk[j]
                record = nodes[t][node]
                record[0] = f
                record[1] = cut_value
                stacks[t].append((start + n_l, end, r_counts, r_gini, node, 3))
                stacks[t].append((start, start + n_l, l_counts, l_gini, node, 2))

    sizes = np.array([len(tree) for tree in nodes], dtype=np.int64)
    columns = zip(*chain.from_iterable(nodes))  # feature, threshold, left, right, counts
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64)
    return _forest(*(np.array(c, dtype=t) for c, t in zip(columns, dtypes)), sizes, d)


def train_forest(X, y: Sequence, n_trees: int = 100, seed: int = 0) -> ForestModel:
    """Fit ``n_trees`` full-depth trees on bootstrap samples of (X, y), y of 0/1 labels.

    One class alone is a legal training set: every tree is then one leaf.
    """
    # split thresholds are midpoints, and node sizes follow from them: X must be finite
    X, y = check_training_set(X, y)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")

    rngs = [np.random.default_rng(seed_sequence(seed, t)) for t in range(n_trees)]
    # int32 labels keep the split search's prefix sums int32
    return _grow_trees(X, y.astype(np.int32), rngs)


def forest_votes(model: ForestModel, X) -> np.ndarray:
    """Votes for classes 0 and 1 across trees, shape (rows, 2), for a matrix
    of feature rows.

    Every row descends every tree at once, one depth level per step.
    """
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[0]
    feature, threshold, left, right = model.feature, model.threshold, model.left, model.right
    # argmax takes the first max: ties go to class 0
    leaf_vote = model.counts.argmax(axis=1)

    node = np.repeat(model.trees, m)  # tree-major: entry t*m + r is row r in tree t
    row = np.tile(np.arange(m), len(model.trees))
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = X[row[active], feature[at]] <= threshold[at]
        node[active] = np.where(goes_left, left[at], right[at])
        active = active[feature[node[active]] >= 0]

    votes = np.bincount(row * 2 + leaf_vote[node], minlength=m * 2)
    return votes.reshape(m, 2).astype(np.int64, copy=False)


def feature_importances(model: ForestModel) -> np.ndarray:
    """Mean decrease in Gini impurity, normalized to sum to 1 (zeros if no splits).

    A split's decrease is its node's size times its Gini impurity, less its
    children's, over the tree's bootstrap size, all read from the node counts.
    Each tree's decreases per feature are normalized to sum to 1 (a tree
    without splits adds nothing), and the trees' shares are averaged.
    """
    n_trees = len(model.trees)
    size = model.counts.sum(axis=1)
    weighted = size * _gini(model.counts.T)
    split = np.flatnonzero(model.feature >= 0)
    tree = np.searchsorted(model.trees, split, side="right") - 1
    decrease = weighted[split] - weighted[model.left[split]] - weighted[model.right[split]]
    decrease /= size[model.trees[tree]]
    per_tree = np.zeros((n_trees, model.n_features), dtype=np.float64)
    np.add.at(per_tree, (tree, model.feature[split]), decrease)  # each tree's in pre-order
    total = per_tree.sum(axis=1)
    used = total > 0
    raw = (per_tree[used] / total[used, None]).sum(axis=0) / n_trees
    total = raw.sum()
    if total <= 0:
        return np.zeros_like(raw)
    return raw / total
