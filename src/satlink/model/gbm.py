"""Multi-class gradient-boosted decision trees over binned features.

One boosting loop fits, each round, one regression tree per output to the
gradients and hessians of the current scores: softmax over the four
categories for the classifier, squared error (one output) for the
regressor.  One evaluation of the loss per round gives both the loss after
the round and the gradients of the next, so the classifier takes one
softmax per round.  The regressor's hessians are all 1 and are never
stored: a node's hessian sum is its row count, and its hessian histogram
counts rows, the same floats as summing ones.  Split search is
histogram-based: feature values are mapped once to bin codes (NaN past
every bin), candidate splits are the bin upper edges of each feature's
non-NaN values, and the chosen split maximizes

    gain = 1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda))

with leaf weight -G/(H+lambda) scaled by the learning rate.  With enough
bins for every distinct value this reduces to exact greedy splitting.
Scores, gradients and hessians are class-major, (outputs, rows), in
training and in prediction, so the softmax reduces over four contiguous
rows and each tree reads its output's gradients without a copy.

Trees grow one depth level at a time, as XGBoost's depth-wise ``hist``
method does.  Bin codes are offset by ``f * width`` (the largest bin
count), so each (feature, bin) pair owns one slot of a flat histogram,
and node ``k`` of a batch owns the slots
``k * features * width + f * width + bin``.  The root's gradient and
hessian histograms are one ``bincount`` pair over all rows.  Below it,
each level builds only the smaller child of every split node from its
rows, all in one ``take`` and one ``bincount`` pair, and gets the sibling
as parent − child (LightGBM's subtraction trick).  The gains of a level's
nodes are one (nodes, candidates) array, computed only at the real
(feature, bin) candidates, which ascend by feature and then bin, so each
node's argmax keeps the tie rule (lowest feature, then lowest bin).
Subtraction adds in another order than a direct histogram, so a near-tie
split may differ from a per-node search, and a split must gain more than
``1e-10`` times the node's term G^2/(H+lambda), so a gain of rounding
noise splits no node in either search.  Node sums, and so leaf values,
always come from the node's own rows.  A child's hessian sum must reach
``min_child_weight`` (XGBoost's rule) less ``1e-10`` times its node's, so
a child whose sum rounds just below the bound in one search and just
above it in the other is taken by both.  A node below its own bound
cannot split, so it becomes a leaf before any split search, and a level
with no node to search builds no histograms: the tree of a class absent
from the rows builds none at all.
Trees are renumbered to preorder once grown, and identical data and
hyperparameters give byte-identical serialized models.

Prediction finds every tree's exit leaf with QuickScorer's bitvectors
(Lucchese et al., SIGIR 2015; see :class:`_FlatEnsemble`): a row's rank
among one feature's sorted split thresholds picks one precomputed leaf
mask per tree, the AND of those masks over the features keeps the leaves
the row can reach, and the lowest bit left is its leaf.  Leaf values come
back in training order and are added round by round, so scores are
bit-identical to walking one tree at a time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..ingest import CnrCategory, FeatureMatrix, Vocabulary

N_CATEGORIES = len(CnrCategory)

MODEL_FORMAT_VERSION = 1


class SchemaMismatchError(ValueError):
    """Prediction rows were encoded against a different feature schema."""


class ModelFormatError(ValueError):
    """A model file is corrupted or has an unsupported format version."""


@dataclass(frozen=True)
class GbmHyperParams:
    n_rounds: int = 200
    max_depth: int = 6
    learning_rate: float = 0.1
    min_child_weight: float = 1.0
    n_bins: int = 64
    l2_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_rounds", "max_depth", "n_bins"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int: {value!r}")
        for name in ("learning_rate", "min_child_weight", "l2_lambda"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number: {value!r}")
        if self.n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0: {self.n_rounds}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1: {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1]: {self.learning_rate}")
        if self.min_child_weight < 0.0:
            raise ValueError(f"min_child_weight must be >= 0: {self.min_child_weight}")
        if not 2 <= self.n_bins <= 256:
            raise ValueError(f"n_bins must be in [2, 256]: {self.n_bins}")
        if self.l2_lambda < 0.0:
            raise ValueError(f"l2_lambda must be >= 0: {self.l2_lambda}")


@dataclass
class Tree:
    """One regression tree, nodes in preorder; ``feature < 0`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def depth(self) -> int:
        """Splits on the longest root-to-leaf path.

        One forward pass: children always follow their parent (preorder,
        and :func:`_check_tree` for loaded trees), so every parent of a
        node is seen before the node itself.
        """
        feature, left, right = self.feature.tolist(), self.left.tolist(), self.right.tolist()
        depth = [0] * len(feature)
        for i, f in enumerate(feature):
            if f >= 0:
                below = depth[i] + 1
                depth[left[i]] = max(depth[left[i]], below)
                depth[right[i]] = max(depth[right[i]], below)
        return max(depth)


_TREE_DTYPES = {
    "feature": np.int32, "threshold": np.float64, "left": np.int32, "right": np.int32,
    "value": np.float64,
}


@dataclass
class GbmModel:
    """A trained boosted ensemble plus everything needed to reuse it."""

    kind: str  # "classifier" or "regressor"
    n_classes: int
    hyperparams: GbmHyperParams
    base_score: np.ndarray
    trees: list[list[Tree]]  # [round][class]
    columns: tuple[str, ...]
    schema_hash: str
    vocab: Optional[Vocabulary]
    train_loss: list[float] = field(default_factory=list)

    @functools.cached_property
    def features_read(self) -> frozenset[int]:
        """Column indices some tree splits on; trees never change once built."""
        return frozenset(f for trees in self.trees for tree in trees for f in tree.feature.tolist() if f >= 0)

    @functools.cached_property
    def _flat(self) -> "_FlatEnsemble":
        """All trees as bitvector tables, built on first prediction; trees
        are not changed after training or loading."""
        return _FlatEnsemble.build([tree for round_trees in self.trees for tree in round_trees])


#: ``_LOW_BITS[k]`` has the lowest ``k`` bits of a word set, k in 0..64.
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)

#: ``_EXPONENT_BIT[frexp(w)[1]]`` is the bit of a one-bit word ``w``; for
#: ``w == 0`` it is past every leaf, so an empty piece is no exit leaf.
_EXPONENT_BIT = np.array([2**62, *range(64)], dtype=np.int64)


def _leaf_spans(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per node of ``tree``, the number of its first leaf, leaves numbered
    left to right from 0, and its count of leaves.

    Children follow their parent and every node but the root has one
    parent (:func:`_check_tree` for loaded trees), so one backward pass
    counts the leaves below each node and one forward pass numbers them.
    """
    feature, left, right = tree.feature.tolist(), tree.left.tolist(), tree.right.tolist()
    count = [1] * len(feature)
    for i in reversed(range(len(feature))):
        if feature[i] >= 0:
            count[i] = count[left[i]] + count[right[i]]
    first = [0] * len(feature)
    for i, f in enumerate(feature):
        if f >= 0:
            first[left[i]] = first[i]
            first[right[i]] = first[i] + count[left[i]]
    return np.array(first, dtype=np.intp), np.array(count, dtype=np.intp)


def _tree_start(end: int, n_leaves: int) -> int:
    """First bit of a tree of ``n_leaves`` leaves placed after bit ``end``:
    ``end`` itself when the tree fits in what is left of that bit's word,
    else the next word's first bit."""
    return end if end % 64 + n_leaves <= 64 else -(-end // 64) * 64


@dataclass(frozen=True)
class _TableBlock:
    """QuickScorer tables of some trees with splits (Lucchese et al.,
    "QuickScorer: a Fast Algorithm to Rank Documents with Additive
    Ensembles of Regression Trees", SIGIR 2015).

    Each tree's leaves are numbered left to right, which is their preorder
    order, from the tree's first bit ``start``: leaf ``i`` is bit
    ``n % 64`` of word ``n // 64``, ``n = start + i``.  Trees follow each
    other in training order, and a tree starts a new word unless it fits
    in what is left of the last one (:func:`_tree_start`), so a tree of at
    most 64 leaves lies in one word.  A split's mask clears the bits of its
    left subtree's leaves, since a row goes right when ``x > threshold`` or
    ``x`` is NaN.
    Row ``offsets[j] + r`` of ``table`` is, for feature ``features[j]``,
    the AND of the masks of the splits on it whose threshold ranks below
    ``r`` among ``thresholds[j]``.  A row reads rank
    ``r = searchsorted(thresholds[j], x, side="left")``, the number of
    thresholds below ``x`` (all of them for NaN), so the AND of its rows
    over the features clears every leaf the row cannot reach, and a
    tree's exit leaf is the lowest bit still set among its own.

    Each word a tree's leaves touch is one of its pieces, and a piece
    keeps the bits of its word from the tree's first bit up.  The lowest
    set bit of the piece that holds the exit leaf is the exit leaf; any
    other piece's is a later leaf, of this tree or of a later one, or the
    piece is empty.  So the exit leaf is the least lowest set bit over the
    tree's pieces.  Pieces are held as (rank, tree), rank the piece's
    place in its tree; a tree of fewer pieces than the widest repeats its
    first one.
    """

    trees: np.ndarray  # (trees,) intp place of each tree in training order
    features: tuple[int, ...]  # columns some tree of the block splits on
    thresholds: tuple[np.ndarray, ...]  # ascending distinct split thresholds of each feature
    offsets: tuple[int, ...]  # first table row of each feature
    table: np.ndarray  # (table rows, words) uint64
    piece_word: np.ndarray  # (ranks, trees) intp word of each piece
    piece_keep: np.ndarray  # (ranks, trees, 1) uint64 bits of the word from the tree's first bit up
    piece_bit: np.ndarray  # (ranks, trees, 1) intp number of bit 0 of the piece's word
    leaf_value: np.ndarray  # (64 * words,) float64 value of the leaf at each bit

    @classmethod
    def build(cls, places: list[int], trees: list[Tree]) -> "_TableBlock":
        spans = [_leaf_spans(tree) for tree in trees]
        n_leaves = [int(count[0]) for _, count in spans]
        starts, end = [], 0
        for n in n_leaves:
            starts.append(_tree_start(end, n))
            end = starts[-1] + n
        # All nodes of the block in one set of arrays; leaf numbers and
        # child ids count within the block.
        n_nodes = [tree.feature.size for tree in trees]
        first, count = (np.concatenate(a) for a in zip(*spans))
        first += np.repeat(starts, n_nodes)
        feature, threshold, left, value = (
            np.concatenate([getattr(tree, k) for tree in trees]) for k in ("feature", "threshold", "left", "value")
        )
        left = left + np.repeat(np.cumsum(n_nodes) - n_nodes, n_nodes)
        leaf = feature < 0
        leaf_value = np.zeros(64 * -(-end // 64))
        leaf_value[first[leaf]] = value[leaf]
        split = ~leaf
        feature, threshold, lo = feature[split], threshold[split], first[split]
        hi = lo + count[left[split]]
        # One (split, word) pair per word its left subtree's leaves touch.
        pair, word = _word_pairs(lo, hi)
        bit = 64 * word
        cleared = _LOW_BITS[np.clip(hi[pair] - bit, 0, 64)] & ~_LOW_BITS[np.clip(lo[pair] - bit, 0, 64)]
        features = np.unique(feature).tolist()
        thresholds = tuple(np.unique(threshold[feature == f]) for f in features)
        sizes = np.array([t.size + 1 for t in thresholds], dtype=np.intp)
        offsets = np.cumsum(sizes) - sizes
        # A split's mask joins the table from the row past its threshold's rank.
        row = np.empty(lo.size, dtype=np.intp)
        for f, t, offset in zip(features, thresholds, offsets.tolist()):
            on = feature == f
            row[on] = offset + 1 + np.searchsorted(t, threshold[on])
        table = np.full((int(sizes.sum()), leaf_value.size // 64), ~np.uint64(0))
        np.bitwise_and.at(table, (row[pair], word), ~cleared)
        for offset, size in zip(offsets.tolist(), sizes.tolist()):
            np.bitwise_and.accumulate(table[offset : offset + size], axis=0, out=table[offset : offset + size])
        starts = np.array(starts, dtype=np.intp)
        tree, word = _word_pairs(starts, starts + np.array(n_leaves, dtype=np.intp))
        first_piece = np.searchsorted(tree, np.arange(len(trees)))
        rank = np.arange(tree.size) - first_piece[tree]
        piece = np.repeat(first_piece[None, :], rank.max() + 1, axis=0)
        piece[rank, tree] = np.arange(tree.size)
        keep = ~_LOW_BITS[np.clip(starts[tree] - 64 * word, 0, 64)]
        return cls(
            trees=np.array(places, dtype=np.intp), features=tuple(features), thresholds=thresholds,
            offsets=tuple(offsets.tolist()), table=table, piece_word=word[piece],
            piece_keep=keep[piece][..., None], piece_bit=64 * word[piece][..., None], leaf_value=leaf_value,
        )

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) exit leaf value of every row of ``X`` in each tree."""
        bits = None
        for f, thresholds, offset in zip(self.features, self.thresholds, self.offsets):
            masks = self.table[np.searchsorted(thresholds, X[:, f]) + offset]
            bits = masks if bits is None else np.bitwise_and(bits, masks, out=bits)
        pieces = np.ascontiguousarray(bits.T)[self.piece_word] & self.piece_keep
        # x & -x keeps the lowest set bit, a power of two that frexp reads exactly.
        leaf = self.piece_bit + np.take(_EXPONENT_BIT, np.frexp(pieces & -pieces)[1])
        return self.leaf_value[leaf.min(axis=0)]


def _word_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(range, word) for every word that each bit range ``[lo, hi)`` touches,
    range after range and words ascending."""
    first, n_words = lo // 64, (hi - 1) // 64 - lo // 64 + 1
    ranges = np.repeat(np.arange(lo.size), n_words)
    return ranges, np.repeat(first - np.cumsum(n_words) + n_words, n_words) + np.arange(n_words.sum())


@dataclass(frozen=True)
class _FlatEnsemble:
    """Every tree of a model as QuickScorer bitvectors (see
    :class:`_TableBlock`), trees with splits in blocks in training order.

    A single-leaf tree gives every row its value and has no table.
    """

    n_trees: int
    single: np.ndarray  # (single-leaf trees,) intp place in training order
    single_value: np.ndarray  # (single-leaf trees,) float64
    blocks: tuple[_TableBlock, ...]

    @classmethod
    def build(cls, trees: list[Tree]) -> "_FlatEnsemble":
        """Blocks of consecutive trees with splits.  A tree joins the open
        block while the block's table, one row per distinct threshold of
        each feature plus one per feature by one column per word, stays
        within :data:`_TABLE_WORDS` words, and starts the next block
        otherwise."""
        single = [t for t, tree in enumerate(trees) if tree.feature.size == 1]
        blocks, places, keys, features, end = [], [], set(), set(), 0
        for t, tree in enumerate(trees):
            if tree.feature.size == 1:
                continue
            split = tree.feature >= 0
            tree_keys = set(zip(tree.feature[split].tolist(), tree.threshold[split].tolist()))
            tree_features = {f for f, _ in tree_keys}
            n_leaves = (tree.feature.size + 1) // 2
            rows = len(keys) + len(tree_keys - keys) + len(features) + len(tree_features - features)
            if places and rows * -(-(_tree_start(end, n_leaves) + n_leaves) // 64) > _TABLE_WORDS:
                blocks.append(_TableBlock.build(places, [trees[p] for p in places]))
                places, keys, features, end = [], set(), set(), 0
            places.append(t)
            keys |= tree_keys
            features |= tree_features
            end = _tree_start(end, n_leaves) + n_leaves
        if places:
            blocks.append(_TableBlock.build(places, [trees[p] for p in places]))
        return cls(
            n_trees=len(trees),
            single=np.array(single, dtype=np.intp),
            single_value=np.array([trees[t].value[0] for t in single], dtype=np.float64),
            blocks=tuple(blocks),
        )

    @property
    def rows_per_block(self) -> int:
        """Rows :func:`raw_scores` predicts at once: ``_BLOCK_PAIRS`` (row,
        tree) and (row, piece) pairs, and at least one row."""
        widest = max([self.n_trees] + [block.piece_word.size for block in self.blocks])
        return max(1, _BLOCK_PAIRS // widest)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) leaf value of every row of ``X`` in every tree,
        trees in training order; rows go left when x <= threshold, so NaN
        goes right."""
        out = np.empty((self.n_trees, X.shape[0]))
        out[self.single] = self.single_value[:, None]
        for block in self.blocks:
            out[block.trees] = block.leaf_values(X)
        return out


def _bin_edges(col: np.ndarray, n_bins: int) -> np.ndarray:
    """Ascending split candidates from the non-NaN values of ``col``; bin b
    holds values <= edges[b], and NaN falls past every edge."""
    values = col[~np.isnan(col)]
    unique = np.unique(values)
    if unique.size <= 1:
        return np.empty(0)
    if unique.size <= n_bins:
        return (unique[:-1] + unique[1:]) / 2.0
    quantiles = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    return np.unique(quantiles)


@dataclass(frozen=True)
class _Bins:
    """Bin codes of one training matrix.

    Slot ``f * width + b`` of a flat histogram holds feature ``f``'s bin
    ``b``; a split after bin ``b`` is real when ``b`` is below the
    feature's edge count, and ``candidates`` lists those slots.
    """

    edges: list[np.ndarray]  # split candidates per feature
    codes: np.ndarray  # (features, rows) uint8
    flat: np.ndarray  # (rows, features) intp: codes[f] + f * width, row-major
    width: int  # slots per feature: the largest edge count plus one
    candidates: np.ndarray  # (candidates,) intp ascending slots of the real splits

    @property
    def size(self) -> int:
        """Slots of one node's histogram: features * width."""
        return self.flat.shape[1] * self.width

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """(size,) rows per slot over all rows: the root's hessian histogram
        when every hessian is 1.  Built on first use, once per training."""
        return np.bincount(self.flat.ravel(), minlength=self.size).astype(np.float64)


def _bin_features(X: np.ndarray, n_bins: int) -> _Bins:
    edges = [_bin_edges(X[:, f], n_bins) for f in range(X.shape[1])]
    codes = np.empty((X.shape[1], X.shape[0]), dtype=np.uint8)
    for f, feature_edges in enumerate(edges):
        codes[f] = np.searchsorted(feature_edges, X[:, f], side="left")
    n_edges = np.array([e.size for e in edges])
    width = int(n_edges.max(initial=0)) + 1
    offsets = np.arange(X.shape[1], dtype=np.intp)[:, None] * width
    flat = np.ascontiguousarray((codes + offsets).T)
    candidates = np.flatnonzero(np.arange(width) < n_edges[:, None])
    return _Bins(edges, codes, flat, width, candidates)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Per-column distribution of class-major (classes, rows) scores."""
    shifted = scores - scores.max(axis=0)
    e = np.exp(shifted)
    return e / e.sum(axis=0)


def _histograms(
    bins: _Bins, g: np.ndarray, h: Optional[np.ndarray], row_sets: Optional[list[np.ndarray]] = None
) -> np.ndarray:
    """(nodes, 2, features * width) gradient and hessian histograms built
    directly from rows, with one ``take`` and one ``bincount`` pair.

    Node ``k`` of ``row_sets`` owns the slots ``k * F * W + f * W + bin``;
    ``None`` is the root, whose slots are ``bins.flat`` itself.  Slots are
    read row by row, so consecutive adds go to different features' slots,
    and each slot adds its rows in the order given, ascending for every
    node.  ``h=None`` means unit hessians: the hessian histogram counts
    rows, the same floats as summing ones, and the root's is
    :attr:`_Bins.counts`.
    """
    n_features, size = bins.flat.shape[1], bins.size
    if row_sets is None:
        rows, slots, n_nodes = slice(None), bins.flat.ravel(), 1
    else:
        rows, n_nodes = np.concatenate(row_sets), len(row_sets)
        slots = np.take(bins.flat, rows, axis=0)
        slots += np.repeat(np.arange(n_nodes) * size, [r.size for r in row_sets])[:, None]
        slots = slots.ravel()
    hist = np.empty((n_nodes, 2, size))
    hist[:, 0] = np.bincount(slots, np.repeat(g[rows], n_features), n_nodes * size).reshape(n_nodes, size)
    if h is not None:
        hist[:, 1] = np.bincount(slots, np.repeat(h[rows], n_features), n_nodes * size).reshape(n_nodes, size)
    elif row_sets is None:
        hist[0, 1] = bins.counts
    else:
        hist[:, 1] = np.bincount(slots, minlength=n_nodes * size).reshape(n_nodes, size)
    return hist


def _child_histograms(
    bins: _Bins,
    g: np.ndarray,
    h: Optional[np.ndarray],
    parents: np.ndarray,
    children: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Histograms of both children of each split node, left then right,
    node after node, from the ``parents``' histograms.

    Only the smaller child of each pair (the left one on a tie) is built
    from its rows, all of them in one :func:`_histograms` call; its sibling
    is the parent's histogram minus the smaller child's.
    """
    pairs = np.arange(len(children))
    small_side = np.array([left.size > right.size for left, right in children], dtype=np.intp)
    small = _histograms(bins, g, h, [pair[s] for pair, s in zip(children, small_side)])
    hist = np.empty((len(children), 2) + parents.shape[1:])
    hist[pairs, small_side] = small
    hist[pairs, 1 - small_side] = parents - small
    return hist.reshape((-1,) + parents.shape[1:])


#: The least gain of a split, as a share of its node's term
#: G^2 / (H + lambda).  A smaller gain is rounding noise: a node's
#: histograms built from its rows and as parent − sibling can give it
#: opposite signs.
_MIN_GAIN = 1e-10

#: The share of its node's hessian sum H by which a child's hessian sum may
#: fall short of ``min_child_weight``.  A child's sum taken from its rows
#: and as parent − sibling can round to opposite sides of the bound.
_WEIGHT_SLACK = 1e-10


def _least_child_weight(h_node: np.ndarray, min_child_weight: float) -> np.ndarray:
    """The least hessian sum a child of a node of hessian sum ``h_node`` may
    have: ``min_child_weight - _WEIGHT_SLACK * h_node``."""
    return min_child_weight - _WEIGHT_SLACK * h_node


def _best_splits(
    bins: _Bins, hist: np.ndarray, g_sum: np.ndarray, h_sum: np.ndarray, hp: GbmHyperParams
) -> tuple[np.ndarray, np.ndarray]:
    """Best (feature, bin) of each node from its histograms and row sums;
    the feature is -1 where no split gains more than :data:`_MIN_GAIN`
    times the node's own term ``G^2 / (H + lambda)``.  Each child's hessian
    sum must reach :func:`_least_child_weight` of the node's.

    Gains are computed at the real candidates only, one (nodes,
    candidates) array gathered from the histograms' cumulative sums.
    Candidates ascend by feature, then bin, so each node's argmax resolves
    ties to the lowest feature id, then the lowest bin.  A matrix without
    candidates splits no node.
    """
    n_nodes = hist.shape[0]
    if bins.candidates.size == 0:
        return np.full(n_nodes, -1), np.zeros(n_nodes, dtype=np.intp)
    cumulative = np.cumsum(hist.reshape(n_nodes, 2, -1, bins.width), axis=3).reshape(n_nodes, 2, -1)
    gl, hl = np.take(cumulative, bins.candidates, axis=2).transpose(1, 0, 2)
    lam = hp.l2_lambda
    g_sum = g_sum[:, None]
    h_sum = h_sum[:, None]
    parent = np.divide(g_sum * g_sum, h_sum + lam, out=np.zeros_like(g_sum), where=(h_sum + lam) > 0)
    gr = g_sum - gl
    hr = h_sum - hl
    left_term = np.divide(gl * gl, hl + lam, out=np.zeros_like(gl), where=(hl + lam) > 0)
    right_term = np.divide(gr * gr, hr + lam, out=np.zeros_like(gr), where=(hr + lam) > 0)
    gains = 0.5 * (left_term + right_term - parent)
    least = _least_child_weight(h_sum, hp.min_child_weight)
    gains[(hl < least) | (hr < least)] = -np.inf
    nan = np.isnan(gains)
    if nan.any():
        # A NaN gain rules out its whole feature, as in a per-feature search
        # whose argmax lands on the NaN and then fails the `> 0` test.
        feature = bins.candidates // bins.width
        ruled_out = np.zeros((n_nodes, bins.flat.shape[1]), dtype=bool)
        node, candidate = np.nonzero(nan)
        ruled_out[node, feature[candidate]] = True
        gains[ruled_out[:, feature]] = -np.inf
    best = np.argmax(gains, axis=1)
    feature, bin_ = np.divmod(bins.candidates[best], bins.width)
    return np.where(gains[np.arange(n_nodes), best] > _MIN_GAIN * parent.ravel(), feature, -1), bin_


def _node_sums(values: Optional[np.ndarray], level: list[np.ndarray]) -> np.ndarray:
    """Sum of ``values`` over each node's rows; its row count for unit
    values (``None``).  ``np.add.reduce`` is the pairwise sum ``.sum()``
    runs, without the method's wrapper."""
    if values is None:
        return np.array([rows.size for rows in level], dtype=np.float64)
    return np.array([np.add.reduce(values[rows]) for rows in level])


def _build_tree(
    bins: _Bins, g: np.ndarray, h: Optional[np.ndarray], hp: GbmHyperParams
) -> tuple[Tree, np.ndarray]:
    """Grow one tree on (g, h) one depth level at a time; returns it plus
    the score update per row.  ``h=None`` means every hessian is 1, so a
    node's hessian sum is its row count.

    A node is searched only if it is above ``max_depth``, has two rows or
    more, and its hessian sum H reaches its own :func:`_least_child_weight`
    ``m``; any other node is a leaf at once.  The last rule is exact: with
    H < m, a candidate whose left side reaches ``m`` leaves ``H - hl < 0``
    on its right, and ``m > H >= 0``, so :func:`_best_splits` would reject
    every candidate anyway.  A level's histograms are built only when one
    of its nodes is searched: the root's from all rows, a later level's by
    :func:`_child_histograms` from the level above.  So a tree whose root
    cannot split, such as one for a class absent from the rows, builds no
    histogram.  Node sums, and so leaf values, always come from the node's
    own rows.  Nodes are numbered breadth-first while growing and
    renumbered to preorder at the end.
    """
    nodes: list[list] = []  # breadth-first [feature, threshold, left, right, value]
    update = np.zeros(g.size)
    level = [np.arange(g.size)]  # rows of each node of the level, ascending
    for depth in range(hp.max_depth + 1):
        g_sum = _node_sums(g, level)
        h_sum = _node_sums(h, level)
        split_f = np.full(len(level), -1)
        split_b = np.zeros(len(level), dtype=np.intp)
        searched = np.array([rows.size >= 2 for rows in level])
        searched &= h_sum >= _least_child_weight(h_sum, hp.min_child_weight)
        if depth < hp.max_depth and searched.any():
            # One row per node of the level: the root's from all rows, a
            # later level's from the histograms of the split nodes above.
            hist = _histograms(bins, g, h) if depth == 0 else _child_histograms(bins, g, h, hist[split_nodes], children)
            split_f[searched], split_b[searched] = _best_splits(
                bins, hist[searched], g_sum[searched], h_sum[searched], hp
            )
        children = []
        for i, rows in enumerate(level):
            f, b = int(split_f[i]), int(split_b[i])
            if f >= 0:
                mask = bins.codes[f][rows] <= b
                # With min_child_weight 0 the best split can leave a side
                # without rows; its gain is rounding noise, and since it
                # was the argmax no candidate has a real gain.
                if np.count_nonzero(mask) in (0, rows.size):
                    f = split_f[i] = -1
            if f < 0:
                leaf = -hp.learning_rate * float(g_sum[i]) / (float(h_sum[i]) + hp.l2_lambda)
                nodes.append([-1, 0.0, -1, -1, leaf])
                update[rows] = leaf
                continue
            # The next level follows this one, two nodes per split node.
            first_child = len(nodes) + len(level) - i + 2 * len(children)
            nodes.append([f, float(bins.edges[f][b]), first_child, first_child + 1, 0.0])
            children.append((rows[mask], rows[~mask]))
        if not children:
            break
        split_nodes = split_f >= 0
        level = [rows for pair in children for rows in pair]
    return _preorder(nodes), update


def _preorder(nodes: list[list]) -> Tree:
    """The tree of breadth-first ``nodes``, renumbered to preorder."""
    order = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if nodes[node][0] >= 0:
            stack += (nodes[node][3], nodes[node][2])
    new_id = np.empty(len(order), dtype=np.int32)
    new_id[order] = np.arange(len(order))
    arrays = {k: np.array(col, dtype=t)[order] for (k, t), col in zip(_TREE_DTYPES.items(), zip(*nodes))}
    split = arrays["feature"] >= 0
    for k in ("left", "right"):
        arrays[k] = np.where(split, new_id[arrays[k]], -1).astype(np.int32)
    return Tree(**arrays)


def _clipped_log_priors(counts: np.ndarray) -> np.ndarray:
    priors = counts / counts.sum()
    return np.log(np.clip(priors, 1e-12, None))


@dataclass(frozen=True)
class _Loss:
    """What the boosting loop needs from a loss; scores are class-major,
    (outputs, rows), as are the gradients and hessians.

    ``evaluate(scores)`` returns the mean loss of the scores and the
    gradients and hessians at them, so one pass over the scores serves the
    loss after a round and the gradients of the next.  A ``None`` hessian
    means every hessian is 1.
    """

    kind: str
    base: np.ndarray  # base score per output; one tree per output per round
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray, Optional[np.ndarray]]]


def _boost(train: FeatureMatrix, hp: GbmHyperParams, loss: _Loss) -> GbmModel:
    """The boosting loop shared by the classifier and the regressor."""
    bins = _bin_features(train.X, hp.n_bins)
    scores = np.repeat(loss.base[:, None], train.n_rows, axis=1)
    value, grad, hess = loss.evaluate(scores)
    losses = [value]
    all_trees: list[list[Tree]] = []
    for _ in range(hp.n_rounds):
        round_trees = []
        for k in range(loss.base.size):
            tree, update = _build_tree(bins, grad[k], None if hess is None else hess[k], hp)
            scores[k] += update
            round_trees.append(tree)
        all_trees.append(round_trees)
        grad = hess = None  # freed before the next evaluation allocates its own
        value, grad, hess = loss.evaluate(scores)
        losses.append(value)
    return GbmModel(
        kind=loss.kind, n_classes=loss.base.size, hyperparams=hp, base_score=loss.base,
        trees=all_trees, columns=train.columns, schema_hash=train.schema_hash,
        vocab=train.vocab, train_loss=losses,
    )


def train_gbm(train: FeatureMatrix, hp: GbmHyperParams = GbmHyperParams()) -> GbmModel:
    """Fit the 4-category classifier with the softmax loss.

    Per-class base scores are the log label priors, so a zero-round model
    predicts the empirical class distribution.  Training log-loss after
    each round is recorded on the model.
    """
    if train.n_rows == 0:
        raise ValueError("training matrix is empty")
    if train.y is None:
        raise ValueError("training matrix carries no labels")
    y = train.y.astype(np.int64)
    counts = np.bincount(y, minlength=N_CATEGORIES).astype(float)
    if (counts > 0).sum() < 2:
        raise ValueError("training labels contain a single class")
    cols = np.arange(train.n_rows)

    def evaluate(scores: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        # The shift, exponent and column sums of :func:`_softmax`, shared
        # by the mean cross-entropy and the gradients.
        shifted = scores - scores.max(axis=0)
        proba = np.exp(shifted)
        total = proba.sum(axis=0)
        value = float(np.mean(np.log(total) - shifted[y, cols]))
        del shifted
        proba /= total
        grad = proba.copy()
        grad[y, cols] -= 1.0
        hess = 1.0 - proba
        hess *= proba
        return value, grad, hess

    return _boost(train, hp, _Loss("classifier", _clipped_log_priors(counts), evaluate))


def train_regressor(train: FeatureMatrix, hp: GbmHyperParams = GbmHyperParams()) -> GbmModel:
    """Fit a squared-error regressor on the raw dB target; every hessian is
    1, so trees read row counts for hessian sums."""
    if train.n_rows == 0:
        raise ValueError("training matrix is empty")
    if train.y_cnr_db is None:
        raise ValueError("training matrix carries no regression target")
    y = train.y_cnr_db.astype(np.float64)

    def evaluate(scores: np.ndarray) -> tuple[float, np.ndarray, None]:
        residual = scores - y
        return float(np.mean(residual[0] ** 2)), residual, None

    return _boost(train, hp, _Loss("regressor", np.array([float(y.mean())]), evaluate))


def baseline_majority(train: FeatureMatrix) -> GbmModel:
    """A zero-tree classifier that always predicts the modal class
    (probability-wise, the empirical prior; argmax ties go to the worse
    category)."""
    if train.n_rows == 0:
        raise ValueError("training matrix is empty")
    if train.y is None:
        raise ValueError("training matrix carries no labels")
    counts = np.bincount(train.y.astype(np.int64), minlength=N_CATEGORIES).astype(float)
    return GbmModel(
        kind="classifier",
        n_classes=N_CATEGORIES,
        hyperparams=GbmHyperParams(n_rounds=0),
        base_score=_clipped_log_priors(counts),
        trees=[],
        columns=train.columns,
        schema_hash=train.schema_hash,
        vocab=train.vocab,
        train_loss=[],
    )


def _check_schema(model: GbmModel, matrix: FeatureMatrix) -> None:
    if matrix.schema_hash != model.schema_hash:
        raise SchemaMismatchError(
            "feature schema of the rows does not match the schema the model "
            f"was trained on (columns {matrix.columns} vs {model.columns})"
        )


#: (row, tree) and (row, piece) pairs predicted at once; bounds the
#: temporaries of a block of rows while keeping whole flights in one block.
_BLOCK_PAIRS = 2**18

#: Table words (uint64) of one block of trees: 2**16 words, 512 KiB.  A
#: block outgrows it only when it is one tree whose own tables do; a
#: trained tree has at most ``n_bins - 1`` distinct thresholds per feature,
#: so its tables hold at most ``n_bins`` rows per feature of one word per
#: 64 leaves.
_TABLE_WORDS = 2**16


def raw_scores(model: GbmModel, matrix: FeatureMatrix) -> np.ndarray:
    """Base scores plus summed leaf values, class-major: shape (n_classes,
    n_rows).

    Rows reach every tree at once in blocks of
    :attr:`_FlatEnsemble.rows_per_block`; leaf values are added round by
    round, in training order.
    """
    _check_schema(model, matrix)
    if matrix.X.shape[1] != len(model.columns):
        raise SchemaMismatchError(
            f"{matrix.X.shape[1]} feature columns for a model of {len(model.columns)}"
        )
    scores = np.repeat(model.base_score[:, None], matrix.n_rows, axis=1)
    if model.trees:
        X = np.ascontiguousarray(matrix.X, dtype=np.float64)
        flat, step = model._flat, model._flat.rows_per_block
        for start in range(0, matrix.n_rows, step):
            block = slice(start, start + step)
            leaves = flat.leaf_values(X[block]).reshape(len(model.trees), model.n_classes, -1)
            for round_leaves in leaves:
                scores[:, block] += round_leaves
    return scores


def predict_proba(model: GbmModel, rows: FeatureMatrix) -> np.ndarray:
    """Per-row category distribution, shape (n_rows, n_classes); rows sum
    to 1.  The softmax runs over class-major scores."""
    if model.kind != "classifier":
        raise ValueError(f"predict_proba needs a classifier, got {model.kind!r}")
    return _softmax(raw_scores(model, rows)).T


def predict_labels(model: GbmModel, rows: FeatureMatrix) -> np.ndarray:
    """Integer category per row; probability ties resolve to the worse
    category so downstream switching logic errs on the safe side."""
    return np.argmax(predict_proba(model, rows), axis=1)


def predict_value(model: GbmModel, rows: FeatureMatrix) -> np.ndarray:
    """Regression output in dB, one value per row."""
    if model.kind != "regressor":
        raise ValueError(f"predict_value needs a regressor, got {model.kind!r}")
    return raw_scores(model, rows)[0]


def _tree_to_jsonable(tree: Tree) -> dict:
    return {k: getattr(tree, k).tolist() for k in _TREE_DTYPES}


def _tree_from_jsonable(data: dict) -> Tree:
    try:
        tree = Tree(**{k: np.array(data[k], dtype=t) for k, t in _TREE_DTYPES.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad tree record: {exc}") from exc
    if not np.isfinite(tree.value).all():
        raise ModelFormatError("non-finite leaf value in model file")
    return tree


def model_to_jsonable(model: GbmModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "n_classes": model.n_classes,
        "hyperparams": dataclasses.asdict(model.hyperparams),
        "base_scores": model.base_score.tolist(),
        "columns": list(model.columns),
        "schema_hash": model.schema_hash,
        "vocab": None if model.vocab is None else model.vocab.to_jsonable(),
        "train_loss": model.train_loss,
        "trees": [[_tree_to_jsonable(t) for t in round_trees] for round_trees in model.trees],
    }


def _check_tree(tree: Tree, n_features: int) -> None:
    """Reject node arrays that are not one tree of valid splits, which
    :func:`raw_scores` would mis-predict."""
    n, split = tree.feature.size, tree.feature >= 0
    if n == 0 or any(getattr(tree, k).size != n for k in _TREE_DTYPES):
        raise ModelFormatError("tree node arrays are empty or of unequal length")
    if ((tree.left != -1) | (tree.right != -1))[~split].any():
        raise ModelFormatError("a leaf node has children")
    if (tree.feature >= n_features).any():
        raise ModelFormatError(f"split feature index out of range for {n_features} columns")
    if not np.isfinite(tree.threshold[split]).all():
        raise ModelFormatError("non-finite threshold at a split node")
    lo, hi = np.minimum(tree.left, tree.right), np.maximum(tree.left, tree.right)
    if ((lo <= np.arange(n)) | (hi >= n))[split].any():
        raise ModelFormatError("a child index does not point forward within its tree")
    children = np.concatenate([tree.left[split], tree.right[split]])
    if not np.array_equal(np.bincount(children, minlength=n), np.arange(n) > 0):
        raise ModelFormatError("a node other than the root is not the child of exactly one split")


def model_from_jsonable(data: dict) -> GbmModel:
    version = data.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format_version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    try:
        model = GbmModel(
            kind=data["kind"],
            n_classes=int(data["n_classes"]),
            hyperparams=GbmHyperParams(**data["hyperparams"]),
            base_score=np.array(data["base_scores"], dtype=np.float64),
            trees=[[_tree_from_jsonable(t) for t in row] for row in data["trees"]],
            columns=tuple(data["columns"]),
            schema_hash=data["schema_hash"],
            vocab=None if data["vocab"] is None else Vocabulary.from_jsonable(data["vocab"]),
            train_loss=[float(x) for x in data["train_loss"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"bad model file: {exc}") from exc
    if model.base_score.shape != (model.n_classes,):
        raise ModelFormatError(f"{model.base_score.size} base scores for {model.n_classes} classes")
    for r, round_trees in enumerate(model.trees):
        if len(round_trees) != model.n_classes:
            raise ModelFormatError(f"round {r} has {len(round_trees)} trees, not {model.n_classes}")
        for tree in round_trees:
            _check_tree(tree, len(model.columns))
    return model


def save_model(model: GbmModel, path: str) -> None:
    """Versioned JSON serialization; identical models produce identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_jsonable(model), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path: str) -> GbmModel:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    return model_from_jsonable(data)
