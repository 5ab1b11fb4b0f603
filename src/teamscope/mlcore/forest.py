"""Random forest of full-depth Gini-split trees for 0/1 labels, deterministic per seed.

Every tree draws its bootstrap sample and per-node feature subsets from a
generator seeded by (seed, tree index), so forests are pure functions of
(X, y, n_trees, seed) and no tree depends on another. A tree grows until
each leaf is pure or holds one sample, without pruning (Breiman, "Random
Forests", Machine Learning 45, 2001). All trees of a forest grow in
lockstep, and their bookkeeping is array work per step, not Python work per
node. Each tree keeps its pending split candidates (impure nodes) on a row
of one array stack. A step pops the top candidates of the first unfinished
trees, as many as fit in ``_CELL_BUDGET`` (feature, sample) cells and at
least one, and scores them together in one split search. A split pushes its
impure right child and then its impure left child, so every tree grows depth
first, left subtree before right, as it would alone.

A tree's draws are those of ``Generator.choice``, made in blocks: one call
per tree draws its bootstrap and ``_BLOCK`` feature subsets, and a tree that
uses its block up draws the next. Floyd's picks of all the trees' blocks are
found at once (:func:`.evaluation.sorted_choices`). The subsets come in the
order the tree uses them, one per split candidate in pre-order, so neither
the lockstep, the blocks nor the trees a step takes changes a tree; what a
finished tree has drawn ahead is never read.

Nodes are made in creation order and then renumbered into each tree's
pre-order by one sort. A tree is a set of parallel per-node arrays whose
child indices count from the tree's root (the layout of scikit-learn's
``Tree``), and a forest is its trees' arrays one after another, with each
tree's root in ``trees``. The model file holds the same arrays cut per
tree, so fitting builds them, ``to_dict`` slices them, ``from_dict`` checks
and concatenates them, and prediction and importances read them in
whole-forest passes. Leaves store the counts of classes 0 and 1; tree and
forest predictions are majority votes with ties going to class 0. Those
counts are all a forest's importances need, so a model file holds only the
trees and the number of feature columns: the class list, the depth rule
and the tree count belong to the code or follow from the trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DataError
from .evaluation import check_training_set, choice_bounds, seed_sequence, sorted_choices
from .serialize import fields, integer, integers, numbers, objects, pairs

# Most cells (candidate feature x node sample) the split search of one
# lockstep step holds, unless its one node has more. It bounds the search's
# working memory, about 50 bytes a cell at its peak (1.6 MB), whatever the
# number of trees, and is large enough that numpy's per-call cost is small. A
# step then has at most 1 << 14 segments, and its sort keys (15 bits of
# segment, twice 8 bits of rank and row) stay int32 up to 256 rows.
_CELL_BUDGET = 1 << 15
# Feature subsets a tree draws per call. The trees that eval-teams grows on
# the 150-team corpus have 4.3 split candidates on average, and one in nine
# has more than 8.
_BLOCK = 8


@dataclass(eq=False)
class ForestModel:
    """A fitted forest as the model file's per-tree node arrays, concatenated.

    Tree t's nodes run in pre-order from its root ``trees[t]`` to the next
    tree's root, so ``len(trees)`` is the tree count. ``feature[i]`` is -1 at
    a leaf, whose ``left[i]`` and ``right[i]`` are -1 too. At a split node,
    rows with ``x[feature[i]] <= threshold[i]`` continue at its tree's node
    ``left[i]`` and the others at its tree's node ``right[i]``, both counted
    from the tree's root and both after node i. ``counts[i]`` holds the
    counts of classes 0 and 1 among the bootstrap samples that reached node
    i, at least one, and a leaf votes for the larger, class 0 on a tie.
    """

    feature: np.ndarray  # int64, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray  # int64, from the tree's root, -1 at leaves
    right: np.ndarray  # int64, from the tree's root, -1 at leaves
    counts: np.ndarray  # int64, nodes x 2
    trees: np.ndarray  # int64, each tree's root node
    n_features: int

    def to_dict(self) -> dict:
        arrays = {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "counts": self.counts.tolist(),
        }
        bounds = zip(self.trees.tolist(), self.trees[1:].tolist() + [len(self.feature)])
        trees = [{k: v[lo:hi] for k, v in arrays.items()} for lo, hi in bounds]
        return {"trees": trees, "n_features": self.n_features}

    @classmethod
    def from_dict(cls, raw: dict) -> "ForestModel":
        n_features, raw_trees = fields(raw, "forest ", n_features=integer, trees=objects)
        per_tree = [_read_tree(t) for t in raw_trees]
        if not per_tree:
            raise DataError("forest has no trees")
        sizes = np.array([len(t[0]) for t in per_tree])
        feature, threshold, left, right, counts = (np.concatenate(a) for a in zip(*per_tree))
        trees = np.cumsum(sizes) - sizes
        # a split reads one of the columns, and its children come after it
        # inside its tree, which keeps every descent finite; a leaf links
        # nowhere; and every node holds a sample, so it has an impurity
        node = np.arange(len(feature)) - np.repeat(trees, sizes)
        end = np.repeat(sizes, sizes)
        inside = (node < left) & (left < end) & (node < right) & (right < end)
        linked = np.where(feature >= 0, inside, (left == -1) & (right == -1))
        refused = (feature < -1) | (feature >= n_features) | np.any(counts < 0, axis=1) | ~counts.any(axis=1)
        if np.any(refused) or not np.all(linked):
            raise DataError("malformed tree: inconsistent node arrays")
        return cls(feature, threshold, left, right, counts, trees, n_features)


def _read_tree(raw: dict) -> tuple:
    """One tree's feature, threshold, left, right and counts arrays, all of one length."""
    arrays = fields(
        raw, "tree ", feature=integers, threshold=numbers, left=integers, right=integers, counts=pairs
    )
    n = len(arrays[0])
    if n == 0 or any(a.shape[:1] != (n,) for a in arrays):
        raise DataError("malformed tree: inconsistent node arrays")
    return arrays


def _weighted_gini(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``size`` times the Gini impurity of each column of (2, n) counts,
    where ``size`` holds the columns' totals, none of them 0."""
    p = counts / size
    p *= p
    gini = p[0] + p[1]  # then in place: scoring is the split search's peak memory
    np.subtract(1.0, gini, out=gini)
    gini *= size
    return gini


def _value_codes(X: np.ndarray, shift: int, dtype) -> np.ndarray:
    """``rank << shift | row`` for every value of X, as a (features, rows) array.

    A rank is the value's dense rank within its column: equal values share
    one and ranks follow the values' order, so sorting a node's codes sorts
    its values and keeps each sample's row. One sort ranks every column.
    """
    columns = X.T
    order = np.argsort(columns, axis=1)
    values = np.take_along_axis(columns, order, axis=1)
    rank = np.zeros(order.shape, dtype=dtype)
    np.cumsum(values[:, 1:] != values[:, :-1], axis=1, out=rank[:, 1:])
    del values  # the codes are made without it, which keeps the pass's peak memory down
    rank <<= shift
    rank |= order
    codes = np.empty_like(rank)
    np.put_along_axis(codes, order, rank, axis=1)
    return codes


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges [start, start + size) of each pair, one after another."""
    at = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
    at += np.arange(len(at))  # in place: the split search's index arrays are large
    return at


def _range_counts(prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Class counts (2 x ranges) of the cell ranges [lo, hi), from the prefix
    counts of class 1; class 0 has the rest of each range."""
    ones = prefix.take(hi) - prefix.take(lo)
    return np.vstack([hi - lo - ones, ones])


def _split_nodes(X, codes, shift, y, flat, starts, sizes, features, node_counts):
    """Best split of every node of a step, all scored in one pass.

    Node j owns the ``sizes[j]`` entries of ``flat`` from ``starts[j]``
    (bootstrap row indices, repeats allowed), the class counts
    ``node_counts[:, j]`` and the sorted candidate features ``features[j]``;
    ``y[row]`` is a row's 0/1 label. Each (node, feature) pair is a segment
    with one cell per sample, and one sort of the keys ``segment << 2 shift
    | code`` orders every segment by value. Cut i of a segment puts its first i+1 samples on the
    left. It is valid between two distinct values, and only valid cuts are
    scored. A node takes its lowest-scoring cut, the first in (feature, cut)
    order on ties: the lowest feature index, then the lowest threshold. The
    order within a run of equal values moves only invalid cuts, so the sort
    need not be stable.

    Returns, for the nodes that have a valid cut (their indices ``split``),
    the feature, threshold, left child size and left child class counts
    (2 x nodes). Each of them has its entries of ``flat`` reordered by its
    chosen feature, so that the left child's rows come first.
    """
    n = X.shape[0]
    m, k = features.shape
    seg_sizes = np.repeat(sizes, k)
    seg_ends = np.cumsum(seg_sizes)
    seg_starts = seg_ends - seg_sizes
    n_cells = int(seg_ends[-1])
    at = flat[_ranges(np.repeat(starts, k), seg_sizes)]  # the row of every cell
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
    del changes
    cut_seg = key[cut] >> shift
    n_left = cut + 1 - seg_starts.take(cut_seg)
    if cut.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0), empty, np.zeros((2, 0), dtype=np.int64)

    # prefix[i]: cells of class 1 before cell i
    prefix = np.zeros(n_cells + 1, dtype=y.dtype)
    np.cumsum(y.take(cell_rows), out=prefix[1:])
    node = cut_seg // k
    size_left = n_left.astype(np.float64)
    size_right = sizes.take(node) - size_left
    left = _range_counts(prefix, seg_starts.take(cut_seg), cut + 1)
    score = _weighted_gini(left, size_left)
    right = node_counts.take(node, axis=1)
    right -= left
    score += _weighted_gini(right, size_right)
    del right  # freed before the division's temporary, like ``changes`` above
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
    lo = seg_starts[best_seg]  # each chosen segment's first cell
    left_counts = _range_counts(prefix, lo, lo + n_left)
    split_sizes = sizes[split]
    flat[_ranges(starts[split], split_sizes)] = cell_rows[_ranges(lo, split_sizes)]
    return split, feature, threshold, n_left, left_counts


def _grow_trees(X, y, rngs) -> ForestModel:
    """The forest of one tree per generator, all grown in lockstep.

    Every tree grows depth first, left subtree before right. Each step pops
    the next split candidate (an impure node) of the first unfinished trees
    that fit in ``_CELL_BUDGET`` cells, gives it the tree's next feature
    subset, and scores the step's nodes in one split search. A split pushes
    its impure right child and then its impure left child onto its tree's
    stack. A tree's subsets thus come in the order it would draw them
    growing alone: one per split candidate, in pre-order, after its
    bootstrap.
    """
    n, d = X.shape
    n_trees = len(rngs)
    k_features = max(1, math.isqrt(d))
    shift = max(1, (n - 1).bit_length())
    # a step has at most budget / 2 segments (split candidates hold two or
    # more samples), or k_features when one node exceeds the budget alone
    segments = max(_CELL_BUDGET // 2, k_features)
    key_bits = segments.bit_length() + 2 * shift
    if key_bits > 63:
        raise DataError(f"{n} rows are more than a forest's 63-bit sort keys can order")
    key_type = np.int32 if key_bits < 32 else np.int64
    codes = _value_codes(X, shift, key_type)

    # one call per tree draws its bootstrap and a block of feature subsets,
    # and a tree that has used its block up draws the next one
    block = np.tile(choice_bounds(d, k_features), _BLOCK)

    def sorted_subsets(draws):  # (trees, _BLOCK, k_features) from each tree's block of draws
        return sorted_choices(draws.reshape(len(draws), _BLOCK, -1)[..., :k_features], d)

    highs = np.concatenate([np.full(n, n), block])
    draws = np.stack([rng.integers(0, highs) for rng in rngs])
    subsets = sorted_subsets(draws[:, n:])
    used = np.zeros(n_trees, dtype=np.int64)
    # tree t's bootstrap rows fill flat[t * n : (t + 1) * n]; each node owns a
    # range of them, and a split reorders its range so the left child's come first
    flat = draws[:, :n].ravel()
    del draws

    # the nodes in creation order, roots first: each one's range of flat and
    # class-1 count, and each split's node, feature, threshold and children
    roots = np.arange(n_trees)
    starts, ends = [roots * n], [roots * n + n]
    ones = [y.take(flat).reshape(n_trees, n).sum(axis=1)]
    none = np.zeros(0, dtype=np.int64)
    parents, features, thresholds, children = [none], [none], [np.zeros(0)], [none.reshape(2, 0)]
    n_nodes = n_trees
    # per tree, a stack of pending split candidates (start, end, ones, node);
    # their ranges are disjoint and hold two or more samples each
    stack = np.zeros((n_trees, n // 2 + 1, 4), dtype=np.int64)
    stack[:, 0] = np.column_stack([starts[0], ends[0], ones[0], roots])
    top = ((0 < ones[0]) & (ones[0] < n)).astype(np.int64)

    growing = np.flatnonzero(top)
    while growing.size:
        # the first unfinished trees whose next candidates fit in _CELL_BUDGET
        # cells together, and always one; the others keep theirs for a later step
        height = top[growing] - 1
        pending = stack[growing, height]
        cells = np.cumsum(pending[:, 1] - pending[:, 0]) * k_features
        taken = max(1, int(np.searchsorted(cells, _CELL_BUDGET, side="right")))
        growing = growing[:taken]
        top[growing] = height[:taken]
        start, end, node_ones, node = pending[:taken].T
        spent = growing[used[growing] == _BLOCK]
        if spent.size:
            subsets[spent] = sorted_subsets(np.stack([rngs[t].integers(0, block) for t in spent.tolist()]))
            used[spent] = 0
        candidates = subsets[growing, used[growing]]
        used[growing] += 1
        sizes = end - start
        node_counts = np.vstack([sizes - node_ones, node_ones])
        split, feature, threshold, n_left, left_counts = _split_nodes(
            X, codes, shift, y, flat, start, sizes, candidates, node_counts
        )

        # the step's children: the left child of each split, then the right ones
        m = len(split)
        left_start, right_end, cut = start[split], end[split], start[split] + n_left
        child_start = np.concatenate([left_start, cut])
        child_end = np.concatenate([cut, right_end])
        child_ones = np.concatenate([left_counts[1], node_ones[split] - left_counts[1]])
        child = np.arange(n_nodes, n_nodes + 2 * m)
        n_nodes += 2 * m
        starts.append(child_start)
        ends.append(child_end)
        ones.append(child_ones)
        parents.append(node[split])
        features.append(feature)
        thresholds.append(threshold)
        children.append(child.reshape(2, m))

        # each split's tree pushes its impure right child, then its impure left child
        tree = growing[split]
        impure = (0 < child_ones) & (child_ones < child_end - child_start)
        entries = np.column_stack([child_start, child_end, child_ones, child])
        height = top[tree]
        for side in (slice(m, None), slice(0, m)):
            push = impure[side]
            stack[tree[push], height[push]] = entries[side][push]
            height += push
        top[tree] = height
        growing = np.flatnonzero(top)

    start, end, one = (np.concatenate(v) for v in (starts, ends, ones))
    parent, child = np.concatenate(parents), np.concatenate(children, axis=1)
    # Pre-order sorts a tree's nodes by the start of their ranges, and puts a
    # node before its descendants, whose ranges lie inside its own and are
    # smaller. Tree t's ranges come before tree t + 1's in flat.
    size = end - start
    order = np.argsort(start * (n + 1) + (n - size))
    at = np.empty(n_nodes, dtype=np.int64)  # each node's place in pre-order
    at[order] = np.arange(n_nodes)
    split_at = at[parent]
    feature = np.full(n_nodes, -1, dtype=np.int64)
    feature[split_at] = np.concatenate(features)
    threshold = np.zeros(n_nodes)
    threshold[split_at] = np.concatenate(thresholds)
    left, right = np.full((2, n_nodes), -1, dtype=np.int64)
    # tree t's range of flat starts at t * n, and its root is node t
    left[split_at], right[split_at] = at[child] - at[start[child] // n]
    counts = np.column_stack([size - one, one])[order]
    return ForestModel(feature, threshold, left, right, counts, at[roots], d)


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

    root = np.repeat(model.trees, m)  # tree-major: entry t*m + r is row r in tree t
    row = np.tile(np.arange(m), len(model.trees))
    node = root.copy()
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = X[row[active], feature[at]] <= threshold[at]
        node[active] = root[active] + np.where(goes_left, left[at], right[at])
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
    weighted = _weighted_gini(model.counts.T, size)
    split = np.flatnonzero(model.feature >= 0)
    tree = np.searchsorted(model.trees, split, side="right") - 1
    root = model.trees[tree]
    decrease = weighted[split] - weighted[root + model.left[split]] - weighted[root + model.right[split]]
    decrease /= size[root]
    per_tree = np.zeros((n_trees, model.n_features), dtype=np.float64)
    np.add.at(per_tree, (tree, model.feature[split]), decrease)  # each tree's in pre-order
    total = per_tree.sum(axis=1)
    used = total > 0
    raw = (per_tree[used] / total[used, None]).sum(axis=0) / n_trees
    total = raw.sum()
    if total <= 0:
        return np.zeros_like(raw)
    return raw / total
