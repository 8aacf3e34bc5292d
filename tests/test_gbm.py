import dataclasses
import hashlib
import itertools
import json
import platform
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satlink.cli import ExperimentSpec, build_experiment_dataset, load_records, run_experiment
from satlink.flightsim import (
    LinkModelParams,
    WeatherSpec,
    demo_config,
    generate_dataset,
    generate_flight,
)
from satlink.ingest import CnrCategory, LogColumns, encode_features, labeled, split_by_flight
from satlink.model import (
    GbmHyperParams,
    baseline_majority,
    eval_regressor,
    predict_labels,
    predict_proba,
    predict_value,
    save_model,
    train_gbm,
    train_regressor,
)
from satlink.model import gbm
from satlink.model.gbm import N_CATEGORIES, GbmModel, Tree, model_to_jsonable

from conftest import make_matrix, separable_toy


def assert_loss_monotone(model, tol=1e-9):
    losses = np.array(model.train_loss)
    assert np.all(np.diff(losses) <= tol), f"loss increased: {losses}"


def exact_greedy_split(X, g, h, lam, min_child_weight):
    """All-thresholds maximizer of the split gain; independent of binning."""
    total_g, total_h = g.sum(), h.sum()
    parent = total_g**2 / (total_h + lam)
    best, best_gain = None, 0.0
    for f in range(X.shape[1]):
        for v0, v1 in zip(*(lambda u: (u[:-1], u[1:]))(np.unique(X[:, f]))):
            thr = (v0 + v1) / 2.0
            mask = X[:, f] <= thr
            gl, hl = g[mask].sum(), h[mask].sum()
            gr, hr = total_g - gl, total_h - hl
            if hl < min_child_weight or hr < min_child_weight:
                continue
            gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent)
            if gain > best_gain:
                best_gain, best = gain, (f, thr)
    return best


def reference_find_split(codes, rows, g, h, g_sum, h_sum, edges_per_feature, hp):
    """Per-feature histogram split search over row-major ``codes``.

    Two ``bincount`` calls per feature; the reference for the per-level
    search over all features and nodes in ``gbm._best_splits``.  A split
    must gain more than 1e-10 times the parent term, and each child's
    hessian sum must reach ``min_child_weight`` less 1e-10 times the
    node's, as there.  Returns (feature, bin, gain).
    """
    lam = hp.l2_lambda
    parent = g_sum * g_sum / (h_sum + lam) if h_sum + lam > 0 else 0.0
    least = hp.min_child_weight - 1e-10 * h_sum  # a shortfall below is rounding noise
    best = None
    best_gain = 1e-10 * parent  # a smaller gain is rounding noise
    g_rows = g[rows]
    h_rows = h[rows]
    for f, edges in enumerate(edges_per_feature):
        n_bins_f = edges.size + 1
        if n_bins_f < 2:
            continue
        c = codes[rows, f]
        hist_g = np.bincount(c, weights=g_rows, minlength=n_bins_f)
        hist_h = np.bincount(c, weights=h_rows, minlength=n_bins_f)
        gl = np.cumsum(hist_g)[:-1]
        hl = np.cumsum(hist_h)[:-1]
        gr = g_sum - gl
        hr = h_sum - hl
        left_term = np.divide(gl * gl, hl + lam, out=np.zeros_like(gl), where=(hl + lam) > 0)
        right_term = np.divide(gr * gr, hr + lam, out=np.zeros_like(gr), where=(hr + lam) > 0)
        gains = 0.5 * (left_term + right_term - parent)
        gains[(hl < least) | (hr < least)] = -np.inf
        b = int(np.argmax(gains))
        if gains[b] > best_gain:
            best_gain = float(gains[b])
            best = (f, b, best_gain)
    return best


def reference_build_tree(bins, g, h, hp):
    """Drop-in for ``gbm._build_tree`` that grows the tree depth first with
    :func:`reference_find_split` on row-major codes, every node's
    histograms built directly from its rows.  It searches every node above
    ``max_depth`` with two rows or more, with no early leaf for a light
    node, so the child-weight rule of the search alone decides.  ``h=None``
    reads as unit hessians."""
    codes = bins.codes.T
    if h is None:
        h = np.ones(g.size)
    feature, threshold, left, right, value = [], [], [], [], []
    update = np.zeros(codes.shape[0])

    def grow(rows, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)

        g_sum = float(g[rows].sum())
        h_sum = float(h[rows].sum())
        split = None
        if depth < hp.max_depth and rows.size >= 2:
            split = reference_find_split(codes, rows, g, h, g_sum, h_sum, bins.edges, hp)
        if split is None:
            leaf = -hp.learning_rate * g_sum / (h_sum + hp.l2_lambda)
            value[node] = leaf
            update[rows] = leaf
            return node
        f, b, _ = split
        threshold[node] = float(bins.edges[f][b])
        feature[node] = f
        mask = codes[rows, f] <= b
        left[node] = grow(rows[mask], depth + 1)
        right[node] = grow(rows[~mask], depth + 1)
        return node

    grow(np.arange(codes.shape[0]), 0)
    tree = Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )
    return tree, update


@st.composite
def split_cases(draw):
    """One level's split problems: a few nodes' rows over data with few
    distinct values (heavy ties), constant and duplicate columns, tied
    gradients and zero or subnormal hessians."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 5))
    levels = draw(st.sampled_from([1, 2, 3, 300]))
    X = rng.integers(0, levels, size=(n, n_features)).astype(float)
    for f in range(1, n_features):
        kind = draw(st.sampled_from(["own", "constant", "duplicate"]))
        if kind == "constant":
            X[:, f] = 7.0
        elif kind == "duplicate":
            X[:, f] = X[:, 0]
    if draw(st.booleans()):
        g = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=n)
        h = rng.choice([0.0, 0.25, 1.0] + [5e-324] * draw(st.integers(0, 1)), size=n)
    else:
        g = rng.normal(size=n)
        h = rng.uniform(0.0, 1.0, size=n)
    nodes = [
        np.sort(rng.choice(n, size=draw(st.integers(2, n)), replace=False))
        for _ in range(draw(st.integers(1, 3)))
    ]
    hp = GbmHyperParams(
        n_bins=draw(st.sampled_from([2, 256])),
        min_child_weight=draw(st.sampled_from([0.0, 1.0])),
        l2_lambda=draw(st.sampled_from([0.0, 1.0])),
    )
    return X, g, h, nodes, hp


def level_and_reference_splits(X, g, h, nodes, hp):
    """(feature, bin) per node from one ``_best_splits`` call over direct
    histograms, and from :func:`reference_find_split` node by node; None
    where a node does not split."""
    bins = gbm._bin_features(X, hp.n_bins)
    g_sum = np.array([float(g[rows].sum()) for rows in nodes])
    h_sum = np.array([float(h[rows].sum()) for rows in nodes])
    with np.errstate(invalid="ignore", over="ignore"):
        features, bins_ = gbm._best_splits(bins, gbm._histograms(bins, g, h, nodes), g_sum, h_sum, hp)
        want = [
            reference_find_split(bins.codes.T, rows, g, h, gs, hs, bins.edges, hp)
            for rows, gs, hs in zip(nodes, g_sum, h_sum)
        ]
    got = [None if f < 0 else (int(f), int(b)) for f, b in zip(features, bins_)]
    return got, [None if w is None else w[:2] for w in want]


def reference_best_splits(bins, hist, g_sum, h_sum, hp):
    """The full-width search for ``gbm._best_splits``: gains at every
    (feature, bin) slot in one (nodes, features, width - 1) array, -inf
    where a feature has no split after that bin, and a row-major argmax
    per node.  A matrix without candidates gets one empty split slot per
    feature, so every node still has a gain to take the argmax of."""
    n_nodes = hist.shape[0]
    hist = hist.reshape(n_nodes, 2, len(bins.edges), bins.width)
    if bins.width == 1:
        hist = np.concatenate([hist, np.zeros_like(hist)], axis=3)
    n_slots = hist.shape[3] - 1
    candidate = np.arange(n_slots) < np.array([e.size for e in bins.edges])[:, None]
    gl, hl = np.cumsum(hist, axis=3)[:, :, :, :-1].transpose(1, 0, 2, 3)
    lam = hp.l2_lambda
    g_sum = g_sum[:, None, None]
    h_sum = h_sum[:, None, None]
    parent = np.divide(g_sum * g_sum, h_sum + lam, out=np.zeros_like(g_sum), where=(h_sum + lam) > 0)
    gr = g_sum - gl
    hr = h_sum - hl
    left_term = np.divide(gl * gl, hl + lam, out=np.zeros_like(gl), where=(hl + lam) > 0)
    right_term = np.divide(gr * gr, hr + lam, out=np.zeros_like(gr), where=(hr + lam) > 0)
    gains = 0.5 * (left_term + right_term - parent)
    least = hp.min_child_weight - 1e-10 * h_sum
    gains[~candidate | (hl < least) | (hr < least)] = -np.inf
    # A NaN gain rules out its whole feature.
    gains[np.isnan(gains).any(axis=2)] = -np.inf
    gains = gains.reshape(n_nodes, -1)
    best = np.argmax(gains, axis=1)
    feature, bin_ = np.divmod(best, n_slots)
    return np.where(gains[np.arange(n_nodes), best] > 1e-10 * parent.ravel(), feature, -1), bin_


@st.composite
def histogram_cases(draw):
    """Bins of features with 0 to 5 split candidates (none at all in some
    cases) and a few nodes' histograms of rows whose gradients and
    hessians come from small sets (heavy ties), with gradients whose
    squares overflow and zero, subnormal or infinite hessians.  A NaN gain
    needs an infinite term on each side of its sum; with finite hessians
    the node's own term is then infinite too and nothing splits, so only
    infinite hessians give a node a NaN gain in one feature and a real
    split in another."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 5))
    most = draw(st.sampled_from([0, 1, 5, 5]))
    n_edges = rng.integers(0, most + 1, size=n_features)
    # Column f takes the values 0..n_edges[f], so it has n_edges[f] edges.
    X = np.stack([np.arange(most + 1) % (n + 1) for n in n_edges], axis=1).astype(float)
    bins = gbm._bin_features(X, 256)
    assert [e.size for e in bins.edges] == n_edges.tolist()
    g_set = [-1.0, -0.5, 0.0, 0.5, 1.0] + [-1e200, 1e200] * draw(st.integers(0, 1))
    h_set = [0.0, 0.25, 1.0] + [5e-324] * draw(st.integers(0, 1)) + [np.inf] * draw(st.integers(0, 1))
    n_nodes = draw(st.integers(1, 4))
    hist = np.zeros((n_nodes, 2, bins.size))
    g_sum, h_sum = np.empty(n_nodes), np.empty(n_nodes)
    for k in range(n_nodes):
        n = draw(st.integers(2, 30))
        g, h = rng.choice(g_set, size=n), rng.choice(h_set, size=n)
        slots = rng.integers(0, n_edges + 1, size=(n, n_features)) + np.arange(n_features) * bins.width
        np.add.at(hist[k, 0], slots, g[:, None])
        np.add.at(hist[k, 1], slots, h[:, None])
        g_sum[k], h_sum[k] = np.add.reduce(g), np.add.reduce(h)
    hp = GbmHyperParams(min_child_weight=draw(st.sampled_from([0.0, 1.0])), l2_lambda=draw(st.sampled_from([0.0, 1.0])))
    return bins, hist, g_sum, h_sum, hp


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(split_cases())
    def test_flat_search_matches_per_feature_reference(self, case):
        got, want = level_and_reference_splits(*case)
        assert got == want

    def test_nan_gain_never_wins(self):
        # Overflowing gradients and infinite hessians give feature 0 a NaN
        # gain (inf / inf), while feature 1 has a real positive split.
        X = np.array([[2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
        g = np.array([-1.0, -1e200, 1e200])
        h = np.array([1.0, np.inf, np.inf])
        hp = GbmHyperParams(min_child_weight=0.0)
        assert level_and_reference_splits(X, g, h, [np.arange(3)], hp) == ([(1, 0)], [(1, 0)])

    @settings(max_examples=300, deadline=None)
    @given(histogram_cases())
    def test_candidate_search_matches_full_width_search(self, case):
        with np.errstate(invalid="ignore", over="ignore"):
            features, bins_ = gbm._best_splits(*case)
            want_features, want_bins = reference_best_splits(*case)
        assert features.tolist() == want_features.tolist()
        split = features >= 0
        assert bins_[split].tolist() == want_bins[split].tolist()

    def test_all_constant_columns_never_split(self):
        X = np.full((10, 3), 4.0)
        bins = gbm._bin_features(X, 64)
        g = np.linspace(-1.0, 1.0, 10)
        hist = gbm._histograms(bins, g, np.ones(10))
        features, _ = gbm._best_splits(bins, hist, np.zeros(1), np.full(1, 10.0), GbmHyperParams())
        assert features.tolist() == [-1]


def direct_histogram(bins, values, rows):
    """(features, width) sums of ``values`` over ``rows``, one ``bincount``
    per feature; independent of the flat slot layout."""
    width = bins.width
    return np.stack([np.bincount(codes[rows], weights=values[rows], minlength=width) for codes in bins.codes])


@st.composite
def growth_cases(draw):
    """Data for one tree grown to depth 6, so that most levels subtract
    from a parent whose own histogram was subtracted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    n_features = draw(st.integers(1, 4))
    levels = draw(st.sampled_from([3, 20, 10**6]))
    X = rng.integers(0, levels, size=(n, n_features)).astype(float)
    if draw(st.booleans()):
        g = rng.normal(size=n) * 10.0 ** rng.integers(-8, 3, size=n)
        h = rng.uniform(0.0, 1.0, size=n)
    else:
        g = rng.choice([-1.0, -0.5, 0.5, 1.0], size=n)
        h = np.ones(n)
    hp = GbmHyperParams(
        max_depth=6, n_bins=draw(st.sampled_from([4, 64, 256])), min_child_weight=draw(st.sampled_from([0.0, 1.0]))
    )
    return X, g, h, hp


class TestHistogramSubtraction:
    # A subtracted slot carries the rounding errors of the sums it was made
    # from, each at most about rows * 2**-53 * sum|g| over the ancestor's
    # rows, plus one per subtraction; with at most 400 rows and six levels
    # that stays far below 1e-12 * sum|g| over all of the tree's rows.  A
    # bound on the node's own sum|g| would not hold: a node's gradients can
    # cancel or be tiny next to its ancestors'.
    TOLERANCE = 1e-12

    @settings(max_examples=150, deadline=None)
    @given(growth_cases())
    def test_every_subtracted_sibling_matches_a_direct_bincount(self, case):
        X, g, h, hp = case
        bins = gbm._bin_features(X, hp.n_bins)
        levels = []

        def spy(bins_, g_, h_, parents, children):
            out = child_histograms(bins_, g_, h_, parents, children)
            levels.append(([rows for pair in children for rows in pair], out))
            return out

        child_histograms = gbm._child_histograms
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbm, "_child_histograms", spy)
            gbm._build_tree(bins, g, h, hp)
        tol_g = self.TOLERANCE * np.abs(g).sum()
        tol_h = self.TOLERANCE * h.sum()
        for nodes, hist in levels:
            for rows, (got_g, got_h) in zip(nodes, hist, strict=True):
                assert np.abs(got_g.reshape(X.shape[1], -1) - direct_histogram(bins, g, rows)).max() <= tol_g
                assert np.abs(got_h.reshape(X.shape[1], -1) - direct_histogram(bins, h, rows)).max() <= tol_h

    def test_unit_hessians_are_row_counts_bit_for_bit(self):
        rng = np.random.default_rng(8)
        bins = gbm._bin_features(rng.integers(0, 9, size=(300, 3)).astype(float), 64)
        g, ones = rng.normal(size=300), np.ones(300)
        nodes = [np.sort(rng.choice(300, size=k, replace=False)) for k in (5, 120, 299)]
        for row_sets in (None, nodes):
            got, want = gbm._histograms(bins, g, None, row_sets), gbm._histograms(bins, g, ones, row_sets)
            assert got.tobytes() == want.tobytes()
        tree, update = gbm._build_tree(bins, g, None, GbmHyperParams(max_depth=4))
        want, want_update = gbm._build_tree(bins, g, ones, GbmHyperParams(max_depth=4))
        assert gbm._tree_to_jsonable(tree) == gbm._tree_to_jsonable(want)
        assert update.tobytes() == want_update.tobytes()

    def test_the_smaller_child_is_built_directly(self):
        bins = gbm._bin_features(np.arange(8.0)[:, None], 64)
        g = np.linspace(-1.0, 1.0, 8)
        h = np.ones(8)
        root = gbm._histograms(bins, g, h)
        # 3 rows left and 5 right, then 4 and 4: the left child is built
        # directly both times.
        for left, right in [(np.arange(3), np.arange(3, 8)), (np.arange(4), np.arange(4, 8))]:
            hist = gbm._child_histograms(bins, g, h, root, [(left, right)])
            assert hist[0].tobytes() == gbm._histograms(bins, g, h, [left])[0].tobytes()
        hist = gbm._child_histograms(bins, g, h, root, [(np.arange(5), np.arange(5, 8))])
        assert hist[1].tobytes() == gbm._histograms(bins, g, h, [np.arange(5, 8)])[0].tobytes()


@st.composite
def zero_weight_cases(draw):
    """Normal rows, unit or softmax-like hessians and ``min_child_weight``
    0, where a split that sends every row of a node to one side has only
    rounding noise for a gain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(50, 1000))
    X = rng.normal(size=(n, 3))
    if draw(st.booleans()):
        g, h = rng.normal(size=n), np.ones(n)
    else:
        p = rng.uniform(size=n)
        g, h = p - (rng.uniform(size=n) < 0.3), p * (1.0 - p)
    hp = GbmHyperParams(max_depth=6, n_bins=64, min_child_weight=0.0, l2_lambda=draw(st.sampled_from([0.0, 1.0])))
    return X, g, h, hp


class TestEmptyChildren:
    @settings(max_examples=60, deadline=None)
    @given(zero_weight_cases())
    def test_every_leaf_is_reached_by_a_training_row(self, case):
        X, g, h, hp = case
        tree, update = gbm._build_tree(gbm._bin_features(X, hp.n_bins), g, h, hp)
        leaves = reference_leaves(tree, X)
        assert set(leaves.tolist()) == set(np.flatnonzero(tree.feature < 0).tolist())
        assert np.array_equal(update, tree.value[leaves])


def node_depths(tree):
    """Depth of every node of a preorder tree."""
    depth = np.zeros(tree.feature.size, dtype=int)
    for i in np.flatnonzero(tree.feature >= 0):
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return depth


@st.composite
def light_hessian_cases(draw):
    """Data whose hessians are small next to ``min_child_weight`` 1, so
    that many nodes above the last level fall below it."""
    X, g, h, hp = draw(growth_cases())
    scale = draw(st.sampled_from([0.01, 0.05, 0.25]))
    return X, g, h * scale, GbmHyperParams(max_depth=hp.max_depth, n_bins=hp.n_bins, min_child_weight=1.0)


def rounding_boundary_case():
    """138 rows with hessians of 0.05, ``min_child_weight`` 1 and 4 bins.
    A leaf at depth 2 has a split whose left side sums to
    1.0000000000000002 from its own rows but to 0.9999999999999992 from the
    subtracted histogram the builder searches."""
    rng = np.random.default_rng(59)
    X = rng.integers(0, 3, size=(138, 3)).astype(float)
    g = rng.choice([-1.0, -0.5, 0.5, 1.0], size=138)
    return X, g, np.full(138, 0.05), GbmHyperParams(max_depth=6, n_bins=4, min_child_weight=1.0)


class TestUnsplittableNodes:
    @staticmethod
    def histogram_calls(monkeypatch):
        calls = []
        histograms = gbm._histograms

        def spy(*args):
            calls.append(args)
            return histograms(*args)

        monkeypatch.setattr(gbm, "_histograms", spy)
        return calls

    def test_trees_of_an_absent_class_build_no_histogram(self, monkeypatch):
        matrix, hp = tie_free_case(n_classes=3)
        calls = self.histogram_calls(monkeypatch)
        per_tree = []
        build_tree = gbm._build_tree

        def counting_build_tree(*args):
            before = len(calls)
            out = build_tree(*args)
            per_tree.append(len(calls) - before)
            return out

        monkeypatch.setattr(gbm, "_build_tree", counting_build_tree)
        model = train_gbm(matrix, hp)
        per_round = np.array(per_tree).reshape(hp.n_rounds, N_CATEGORIES)
        assert (per_round[:, :3] > 0).all()
        assert (per_round[:, 3] == 0).all()
        assert all(trees[3].feature.tolist() == [-1] for trees in model.trees)

    def test_a_node_at_exactly_min_child_weight_is_searched(self, monkeypatch):
        bins = gbm._bin_features(np.arange(4.0)[:, None], 64)
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        calls = self.histogram_calls(monkeypatch)
        # Four hessians of 0.25 sum to 1.0 exactly: searched, though no
        # split leaves 1.0 on both sides.
        tree, _ = gbm._build_tree(bins, g, np.full(4, 0.25), GbmHyperParams(min_child_weight=1.0))
        assert len(calls) == 1 and tree.feature.tolist() == [-1]
        # One ulp short of the bound is within its slack of 1e-10 times the
        # node's 1.0: searched too.
        tree, _ = gbm._build_tree(bins, g, np.full(4, 0.25), GbmHyperParams(min_child_weight=np.nextafter(1.0, 2.0)))
        assert len(calls) == 2 and tree.feature.tolist() == [-1]
        # Zero hessians with min_child_weight 0: searched, and split.
        tree, _ = gbm._build_tree(bins, g, np.zeros(4), GbmHyperParams(max_depth=1, min_child_weight=0.0))
        assert len(calls) == 3 and tree.feature.tolist() == [0, -1, -1]

    def test_a_node_just_below_min_child_weight_is_a_leaf_without_search(self, monkeypatch):
        bins = gbm._bin_features(np.arange(4.0)[:, None], 64)
        g, h = np.array([-1.0, -1.0, 1.0, 2.0]), np.full(4, 0.25)
        # Short of the bound by twice the slack of 1e-10 times the node's 1.0.
        hp = GbmHyperParams(min_child_weight=1.0 + 2e-10)
        calls = self.histogram_calls(monkeypatch)
        tree, update = gbm._build_tree(bins, g, h, hp)
        assert calls == []
        want, want_update = reference_build_tree(bins, g, h, hp)
        assert gbm._tree_to_jsonable(tree) == gbm._tree_to_jsonable(want)
        assert update.tobytes() == want_update.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(light_hessian_cases())
    @example(rounding_boundary_case())
    def test_every_early_leaf_would_have_found_no_split(self, case):
        X, g, h, hp = case
        bins = gbm._bin_features(X, hp.n_bins)
        tree, update = gbm._build_tree(bins, g, h, hp)
        leaves = reference_leaves(tree, X)
        assert np.array_equal(update, tree.value[leaves])
        depth = node_depths(tree)
        for leaf in np.flatnonzero(tree.feature < 0):
            rows = np.flatnonzero(leaves == leaf)
            if depth[leaf] == hp.max_depth or rows.size < 2:
                continue
            g_sum, h_sum = np.array([g[rows].sum()]), np.array([h[rows].sum()])
            hist = gbm._histograms(bins, g, h, [rows])
            with np.errstate(invalid="ignore", over="ignore"):
                features, _ = gbm._best_splits(bins, hist, g_sum, h_sum, hp)
            assert features.tolist() == [-1], (leaf, h_sum)

    @settings(max_examples=60, deadline=None)
    @given(growth_cases())
    def test_with_min_child_weight_zero_every_node_of_two_rows_is_searched(self, case):
        X, g, h, hp = case
        hp = GbmHyperParams(max_depth=hp.max_depth, n_bins=hp.n_bins, min_child_weight=0.0)
        bins = gbm._bin_features(X, hp.n_bins)
        searched = []
        best_splits = gbm._best_splits

        def spy(bins_, hist, g_sum, h_sum, hp_):
            searched.append(hist.shape[0])
            return best_splits(bins_, hist, g_sum, h_sum, hp_)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbm, "_best_splits", spy)
            tree, _ = gbm._build_tree(bins, g, h, hp)
        leaves = reference_leaves(tree, X)
        depth = node_depths(tree)
        sizes = np.bincount(leaves, minlength=tree.feature.size)
        leaf = tree.feature < 0
        # Every split node, and every leaf above the last level with two
        # rows or more, went through the search.
        want = int((~leaf).sum() + (leaf & (depth < hp.max_depth) & (sizes >= 2)).sum())
        assert sum(searched) == want


def reference_leaves(tree, X):
    """Leaf id of one tree for every row; rows go left when x <= threshold.

    Walks one tree at a time; the reference for the flat walk over every
    tree in ``gbm.raw_scores``.
    """
    node = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        active = np.nonzero(tree.feature[node] >= 0)[0]
        if active.size == 0:
            return node
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])


def left_to_right_leaves(tree, node):
    """Leaves below ``node``, left subtree before right, by walking the
    tree; the reference for the leaf numbers of the bitvector tables."""
    leaves, stack = [], [node]
    while stack:
        node = stack.pop()
        if tree.feature[node] < 0:
            leaves.append(node)
        else:
            stack += (int(tree.right[node]), int(tree.left[node]))
    return leaves


def breadth_first(tree):
    """``tree`` with its nodes stored breadth-first in place of preorder."""
    order = [0]
    for node in order:
        if tree.feature[node] >= 0:
            order += (int(tree.left[node]), int(tree.right[node]))
    new_id = np.empty(len(order), dtype=np.int32)
    new_id[order] = np.arange(len(order))
    split = tree.feature[order] >= 0
    return Tree(
        feature=tree.feature[order], threshold=tree.threshold[order],
        left=np.where(split, new_id[tree.left[order]], -1).astype(np.int32),
        right=np.where(split, new_id[tree.right[order]], -1).astype(np.int32),
        value=tree.value[order],
    )


def reference_apply(tree, X):
    return tree.value[reference_leaves(tree, X)]


def reference_raw_scores(model, X):
    """Class-major (classes, rows) scores, one tree at a time."""
    scores = np.repeat(model.base_score[:, None], X.shape[0], axis=1)
    for round_trees in model.trees:
        for k, tree in enumerate(round_trees):
            scores[k] += reference_apply(tree, X)
    return scores


def random_tree(rng, n_features, max_depth, thresholds, split_p=0.75):
    """A preorder tree of at most ``max_depth`` levels (0 gives a single
    leaf) that splits on thresholds drawn from ``thresholds``; a node
    above the last level splits with probability ``split_p``."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        if depth < max_depth and rng.random() < split_p:
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.choice(thresholds))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        else:
            value[node] = float(rng.normal())
        return node

    grow(0)
    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def wide_tree(rng, n_features, thresholds):
    """A random tree of more than 64 leaves, so more than one bitvector word."""
    while True:
        tree = random_tree(rng, n_features, 8, thresholds, split_p=0.9)
        if (tree.feature < 0).sum() > 64:
            return tree


def random_trees(draw, rng, n_features, thresholds, n_classes):
    """[round][class] trees of one of four shapes: mixed depths; whole
    classes of single leaves among trees of mixed depth; shallow trees
    with one tree of depth 5 deeper than all the others; or mixed depths
    with one tree of more than 64 leaves."""
    n_rounds = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(["mixed", "leaf classes", "one deep", "one wide"]))
    if shape in ("mixed", "one wide"):
        trees = [
            [random_tree(rng, n_features, draw(st.integers(0, 5)), thresholds) for _ in range(n_classes)]
            for _ in range(n_rounds)
        ]
        if trees and shape == "one wide":
            trees[draw(st.integers(0, n_rounds - 1))][draw(st.integers(0, n_classes - 1))] = wide_tree(
                rng, n_features, thresholds
            )
        return trees
    if shape == "leaf classes":
        leaf_classes = set(draw(st.sets(st.integers(0, n_classes - 1), max_size=n_classes)))
        return [
            [random_tree(rng, n_features, 0 if k in leaf_classes else draw(st.integers(1, 5)), thresholds)
             for k in range(n_classes)]
            for _ in range(n_rounds)
        ]
    trees = [[random_tree(rng, n_features, 2, thresholds) for _ in range(n_classes)] for _ in range(n_rounds)]
    if trees:
        trees[draw(st.integers(0, n_rounds - 1))][draw(st.integers(0, n_classes - 1))] = random_tree(
            rng, n_features, 5, thresholds, split_p=1.0
        )
    return trees


@st.composite
def ensemble_cases(draw):
    """A model of random trees, a ``gbm._BLOCK_PAIRS`` small enough for
    short tests, and rows to score that end on, just past or well past a
    block boundary for that model.  The model's tables are built under a
    ``gbm._TABLE_WORDS`` of one word (a block per tree), a few hundred
    words, or the real budget.

    Feature values come from a few levels that double as thresholds, so
    many values equal a threshold; some values are NaN.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 4))
    levels = np.round(rng.normal(size=draw(st.integers(1, 6))), 2)
    kind, n_classes = draw(st.sampled_from([("classifier", 4), ("regressor", 1)]))
    trees = random_trees(draw, rng, n_features, levels, n_classes)
    columns = make_matrix(np.zeros((0, n_features)))
    model = GbmModel(
        kind=kind, n_classes=n_classes, hyperparams=GbmHyperParams(), base_score=rng.normal(size=n_classes),
        trees=trees, columns=columns.columns, schema_hash=columns.schema_hash, vocab=None,
    )
    block_pairs = draw(st.sampled_from([1, 7, 64]))
    per_block = 1
    if trees:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbm, "_BLOCK_PAIRS", block_pairs)
            patch.setattr(gbm, "_TABLE_WORDS", draw(st.sampled_from([1, 300, gbm._TABLE_WORDS])))
            per_block = model._flat.rows_per_block
    n_rows = draw(st.sampled_from([0, 1, per_block, per_block + 1, 2 * per_block + 3]))
    X = rng.choice(levels, size=(n_rows, n_features))
    X[rng.random(X.shape) < draw(st.sampled_from([0.0, 0.2]))] = np.nan
    return model, make_matrix(X), block_pairs


class TestRawScores:
    @settings(max_examples=150, deadline=None)
    @given(ensemble_cases())
    def test_flat_walk_matches_per_tree_reference_bit_for_bit(self, case):
        model, matrix, block_pairs = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbm, "_BLOCK_PAIRS", block_pairs)
            got = gbm.raw_scores(model, matrix)
        assert got.shape == (model.n_classes, matrix.n_rows)
        assert got.tobytes() == reference_raw_scores(model, matrix.X).tobytes()

    def test_block_boundaries_at_the_real_block_size(self):
        # Enough stumps that a block holds only a few dozen rows.
        rng = np.random.default_rng(9)
        levels = np.array([-1.0, 0.0, 1.0])
        trees = [[random_tree(rng, 2, 1, levels, split_p=1.0) for _ in range(4)] for _ in range(1024)]
        X = rng.choice(levels, size=(200, 2))
        matrix = make_matrix(X)
        model = GbmModel(
            kind="classifier", n_classes=4, hyperparams=GbmHyperParams(), base_score=np.zeros(4),
            trees=trees, columns=matrix.columns, schema_hash=matrix.schema_hash, vocab=None,
        )
        assert 1 < model._flat.rows_per_block < 100
        assert gbm.raw_scores(model, matrix).tobytes() == reference_raw_scores(model, X).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_leaf_numbers_run_left_to_right(self, seed):
        rng = np.random.default_rng(seed)
        tree = wide_tree(rng, 2, [0.0]) if rng.random() < 0.2 else random_tree(rng, 2, 6, [0.0])
        first, count = gbm._leaf_spans(tree)
        leaves = left_to_right_leaves(tree, 0)
        assert first[leaves].tolist() == list(range(len(leaves)))
        assert count[leaves].tolist() == [1] * len(leaves)
        # Each node's leaves are the run that starts at its first leaf.
        for node in range(tree.feature.size):
            want = list(range(first[node], first[node] + count[node]))
            assert first[left_to_right_leaves(tree, node)].tolist() == want
        # The same numbers when the nodes are stored breadth-first, as a
        # loaded model may store them.
        bfs = breadth_first(tree)
        first_bfs, _ = gbm._leaf_spans(bfs)
        assert first_bfs[left_to_right_leaves(bfs, 0)].tolist() == list(range(len(leaves)))
        matrix = make_matrix(rng.choice([-1.0, 0.0, 1.0, np.nan], size=(30, 2)))
        model = GbmModel(
            kind="regressor", n_classes=1, hyperparams=GbmHyperParams(), base_score=np.zeros(1),
            trees=[[tree], [bfs]], columns=matrix.columns, schema_hash=matrix.schema_hash, vocab=None,
        )
        assert gbm.raw_scores(model, matrix).tobytes() == reference_raw_scores(model, matrix.X).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_each_split_mask_clears_exactly_its_left_subtree(self, seed, n_trees):
        """Every table row equals the AND of reference masks, one per split
        on its feature whose threshold ranks below the row's, each mask
        clearing exactly the bits of the split's left subtree's leaves at
        the bits the placement rule gives the tree."""
        rng = np.random.default_rng(seed)
        levels = np.round(rng.normal(size=5), 1)
        trees = [
            wide_tree(rng, 3, levels) if rng.random() < 0.2 else random_tree(rng, 3, 6, levels, split_p=0.8)
            for _ in range(n_trees)
        ]
        trees = [tree for tree in trees if tree.feature.size > 1] or [random_tree(rng, 3, 1, levels, split_p=1.0)]
        block = gbm._TableBlock.build(list(range(len(trees))), trees)
        end, masks = 0, []  # (feature, threshold, mask words) per split
        for tree in trees:
            n_leaves = int((tree.feature < 0).sum())
            start = end if end % 64 + n_leaves <= 64 else -(-end // 64) * 64
            end = start + n_leaves
            number = {leaf: start + i for i, leaf in enumerate(left_to_right_leaves(tree, 0))}
            for node in np.flatnonzero(tree.feature >= 0):
                mask = [(1 << 64) - 1] * block.table.shape[1]
                for leaf in left_to_right_leaves(tree, int(tree.left[node])):
                    mask[number[leaf] // 64] &= ~(1 << (number[leaf] % 64))
                masks.append((int(tree.feature[node]), float(tree.threshold[node]), mask))
        assert block.table.shape[1] == -(-end // 64)
        for f, thresholds, offset in zip(block.features, block.thresholds, block.offsets):
            assert thresholds.tolist() == sorted({t for g, t, _ in masks if g == f})
            for r in range(thresholds.size + 1):
                want = [(1 << 64) - 1] * block.table.shape[1]
                below = thresholds[r] if r < thresholds.size else np.inf
                for _, _, mask in [m for m in masks if m[0] == f and m[1] < below]:
                    want = [a & b for a, b in zip(want, mask)]
                assert block.table[offset + r].tolist() == want

    def test_many_deep_trees_keep_each_block_within_the_table_budget(self):
        # Depth-7 trees of distinct thresholds: about 127 table rows and two
        # words each, so the real budget holds about 16 of them in a block.
        rng = np.random.default_rng(21)
        trees = [[random_tree(rng, 3, 7, rng.normal(size=1000), split_p=1.0)] for _ in range(60)]
        X = rng.normal(size=(300, 3))
        X[rng.random(X.shape) < 0.1] = np.nan
        matrix = make_matrix(X)
        model = GbmModel(
            kind="regressor", n_classes=1, hyperparams=GbmHyperParams(), base_score=np.zeros(1),
            trees=trees, columns=matrix.columns, schema_hash=matrix.schema_hash, vocab=None,
        )
        blocks = model._flat.blocks
        assert len(blocks) > 2
        assert all(block.table.size <= gbm._TABLE_WORDS for block in blocks)
        assert sum(block.trees.size for block in blocks) == 60
        assert np.concatenate([block.trees for block in blocks]).tolist() == list(range(60))
        assert gbm.raw_scores(model, matrix).tobytes() == reference_raw_scores(model, X).tobytes()

    def test_a_tree_larger_than_the_budget_is_a_block_of_its_own(self, monkeypatch):
        rng = np.random.default_rng(5)
        levels = np.round(rng.normal(size=20), 2)
        trees = [
            [random_tree(rng, 2, 3, levels, split_p=1.0)], [wide_tree(rng, 2, levels)],
            [random_tree(rng, 2, 3, levels, split_p=1.0)],
        ]
        monkeypatch.setattr(gbm, "_TABLE_WORDS", 40)
        X = rng.choice(levels, size=(50, 2))
        matrix = make_matrix(X)
        model = GbmModel(
            kind="regressor", n_classes=1, hyperparams=GbmHyperParams(), base_score=np.zeros(1),
            trees=trees, columns=matrix.columns, schema_hash=matrix.schema_hash, vocab=None,
        )
        sizes = [block.table.size for block in model._flat.blocks]
        assert [block.trees.tolist() for block in model._flat.blocks] == [[0], [1], [2]]
        assert sizes[0] <= 40 and sizes[1] > 40 and sizes[2] <= 40
        assert gbm.raw_scores(model, matrix).tobytes() == reference_raw_scores(model, X).tobytes()

    def test_a_chain_deeper_than_the_recursion_limit_scores_like_the_reference(self):
        # Split k sends x <= k to a leaf of value k and the rest on down the
        # chain; the last split's right child is a leaf of value -1.
        depth = 1500
        feature, threshold, left, right, value = [], [], [], [], []
        for k in range(depth):
            node = 2 * k
            feature += [0, -1]
            threshold += [float(k), 0.0]
            left += [node + 1, -1]
            right += [node + 2, -1]
            value += [0.0, float(k)]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(-1.0)
        chain = Tree(
            feature=np.array(feature, dtype=np.int32), threshold=np.array(threshold),
            left=np.array(left, dtype=np.int32), right=np.array(right, dtype=np.int32), value=np.array(value),
        )
        matrix = make_matrix([[-3.0], [0.5], [700.5], [1498.5], [2000.0], [np.nan]])
        built = GbmModel(
            kind="regressor", n_classes=1, hyperparams=GbmHyperParams(), base_score=np.zeros(1),
            trees=[[chain]], columns=matrix.columns, schema_hash=matrix.schema_hash, vocab=None,
        )
        model = gbm.model_from_jsonable(json.loads(json.dumps(model_to_jsonable(built))))
        assert model.trees[0][0].depth == depth
        got = gbm.raw_scores(model, matrix)
        assert got[0].tolist() == [0.0, 1.0, 701.0, 1499.0, -1.0, -1.0]
        assert got.tobytes() == reference_raw_scores(model, matrix.X).tobytes()

    def test_threshold_goes_left_and_nan_goes_right(self):
        stump = Tree(
            feature=np.array([0, -1, -1], dtype=np.int32),
            threshold=np.array([1.5, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -1.0, 1.0]),
        )
        matrix = make_matrix([[1.5], [np.nextafter(1.5, 2.0)], [np.nan], [-np.inf]])
        model = GbmModel(
            kind="regressor", n_classes=1, hyperparams=GbmHyperParams(), base_score=np.zeros(1),
            trees=[[stump]], columns=matrix.columns, schema_hash=matrix.schema_hash, vocab=None,
        )
        assert predict_value(model, matrix).tolist() == [-1.0, 1.0, 1.0, -1.0]

    def test_zero_round_model_scores_its_base(self):
        matrix = make_matrix(np.zeros((513, 2)), y=[0, 1, 2] * 171)
        model = baseline_majority(matrix)
        assert np.array_equal(gbm.raw_scores(model, matrix), np.repeat(model.base_score[:, None], matrix.n_rows, axis=1))

    def test_trained_models_match_reference(self, c9_train):
        matrix, hp = c9_train[0], GbmHyperParams(n_rounds=5)
        for model in (train_gbm(matrix, hp), train_regressor(matrix, hp)):
            assert gbm.raw_scores(model, matrix).tobytes() == reference_raw_scores(model, matrix.X).tobytes()

    def test_column_count_must_match_model(self):
        model = train_gbm(separable_toy(), GbmHyperParams(n_rounds=1))
        narrow = separable_toy()
        narrow.X = narrow.X[:, :1]
        with pytest.raises(gbm.SchemaMismatchError, match="columns"):
            gbm.raw_scores(model, narrow)


# (Python, numpy) versions the C9 hashes below were recorded with.
C9_BUILD = ("3.11.7", "2.4.6")


def c9_mismatch(what):
    """Assertion message for a C9 hash that does not match."""
    return (
        f"{what} differs from the value recorded on Python {C9_BUILD[0]}, numpy {C9_BUILD[1]}; "
        f"this is Python {platform.python_version()}, numpy {np.__version__}.  On the recorded build "
        "this is a regression; on another, float sums may differ, so refresh the pinned value on purpose."
    )


# SHA-256 of the saved C9 set-up models (one flight per route, seed 55,
# altitude > 6000 m, 25 rounds), recorded on ``C9_BUILD`` for the
# level-wise builder with histogram subtraction.
C9_MODEL_SHA256 = {
    "train_gbm": "0720134f123cfcc360942dacd1c27c2a7cc7ed350bdc9756db3eb08905c73cda",
    "train_regressor": "cb7a9aa9f3e0c56ef87d7867f98934b69db7575345065dcab37fe69d31aab797",
}


# SHA-256 of json.dumps(report.to_dict(), sort_keys=True) for the C9 run
# itself, recorded with the model hashes' build.
C9_REPORT_SHA256 = "3f0bffa53b7426a5b260b5f7a1c4857f196e77e697c693bd38967b649f633177"
C9_SPEC = ExperimentSpec(name="det", min_altitude_m=6000, hyperparams=GbmHyperParams(n_rounds=25), seed=3)


@pytest.fixture(scope="module")
def c9_records(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("c9_corpus")
    generate_dataset(demo_config(flights_per_route=1, seed=55, weather=WeatherSpec(5.0, 3)), str(out_dir))
    return load_records(str(out_dir))


@pytest.fixture(scope="module")
def c9_train(c9_records):
    matrix, _ = build_experiment_dataset(c9_records, C9_SPEC)
    return split_by_flight(matrix, C9_SPEC.test_fraction, C9_SPEC.seed)[0], C9_SPEC.hyperparams


def model_bytes(train_fn, matrix, hp, path):
    save_model(train_fn(matrix, hp), path)
    return path.read_bytes()


class TestModelBytes:
    @pytest.mark.parametrize("train_fn", [train_gbm, train_regressor])
    def test_pinned_c9_model_hashes(self, c9_train, train_fn, tmp_path):
        data = model_bytes(train_fn, *c9_train, tmp_path / "model.json")
        assert hashlib.sha256(data).hexdigest() == C9_MODEL_SHA256[train_fn.__name__], c9_mismatch(
            f"the {train_fn.__name__} model hash"
        )

    def test_pinned_c9_report_hash(self, c9_records):
        report, _ = run_experiment(c9_records, C9_SPEC)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == C9_REPORT_SHA256, c9_mismatch("the report hash")

    @pytest.mark.parametrize("train_fn", [train_gbm, train_regressor])
    def test_same_trees_as_reference_builder_on_tie_free_data(self, train_fn):
        # With 3 classes, the classifier's trees of the fourth are leaves
        # made before any histogram; the reference searches them.  With
        # min_child_weight 0, some nodes' best gain is rounding noise (see
        # TestSplitNoise).
        for n_classes, min_child_weight in itertools.product((4, 3), (1.0, 0.0)):
            matrix, hp = tie_free_case(n_classes)
            hp = dataclasses.replace(hp, min_child_weight=min_child_weight)
            fast = assert_same_trees_as_reference(train_fn, matrix, hp)
            assert sum(t.feature.size for trees in fast.trees for t in trees) > 10 * len(fast.trees)


def assert_same_trees_as_reference(train_fn, matrix, hp, ties=False):
    """Train with the fast builder and with :func:`reference_build_tree`;
    assert the same tree shapes and splits, and leaf values within 1e-12.
    With ``ties``, the first tree that differs may differ only at a node
    where both splits gain the same up to rounding (:func:`assert_tied`);
    the comparison ends there, since later trees grow on other scores.
    Returns the fast model."""
    calls = []
    build_tree = gbm._build_tree

    def spy(bins, g, h, hp_):
        calls.append((bins, g, h))
        return build_tree(bins, g, h, hp_)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gbm, "_build_tree", spy)
        fast = train_fn(matrix, hp)
        patch.setattr(gbm, "_build_tree", reference_build_tree)
        reference = train_fn(matrix, hp)
    fast_trees = [tree for trees in fast.trees for tree in trees]
    reference_trees = [tree for trees in reference.trees for tree in trees]
    for tree, want, call in zip(fast_trees, reference_trees, calls, strict=True):
        splits_differ = any(not np.array_equal(getattr(tree, k), getattr(want, k)) for k in ("feature", "threshold"))
        if ties and splits_differ:
            assert_tied(tree, want, *call, hp)
            break
        for key in ("feature", "threshold", "left", "right"):
            assert np.array_equal(getattr(tree, key), getattr(want, key)), key
        assert np.abs(tree.value - want.value).max() <= 1e-12
    return fast


def assert_tied(tree, want, bins, g, h, hp):
    """At the first preorder node where ``tree`` and ``want`` differ, both
    split, and their gains on the node's rows (summed directly) differ by
    at most 1e-10 times the node's term G^2 / (H + lambda): two candidates
    that split the node's rows into sums equal in exact arithmetic."""
    h = np.ones(g.size) if h is None else h
    rows = {0: np.arange(g.size)}
    node = 0
    while (tree.feature[node], tree.threshold[node]) == (want.feature[node], want.threshold[node]):
        f, r = tree.feature[node], rows[node]
        if f >= 0:
            left = bins.codes[f][r] <= np.searchsorted(bins.edges[f], tree.threshold[node])
            rows[tree.left[node]], rows[tree.right[node]] = r[left], r[~left]
        node += 1
    r, lam = rows[node], hp.l2_lambda
    G, H = g[r].sum(), h[r].sum()

    def gain(f, threshold):
        left = bins.codes[f][r] <= np.searchsorted(bins.edges[f], threshold)
        gl, hl = g[r][left].sum(), h[r][left].sum()
        return 0.5 * (gl * gl / (hl + lam) + (G - gl) ** 2 / (H - hl + lam) - G * G / (H + lam))

    assert tree.feature[node] >= 0 and want.feature[node] >= 0, node
    got, expected = gain(tree.feature[node], tree.threshold[node]), gain(want.feature[node], want.threshold[node])
    assert abs(got - expected) <= 1e-10 * G * G / (H + lam), (node, got, expected)


def tie_free_case(n_classes=4):
    """Continuous, distinct feature values and labels that depend on all
    features, with few bins and many rows in every node of a depth-4
    tree, so that no node's best split ties with another candidate.
    Labels take the first ``n_classes`` categories; the rest are absent."""
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(3000, 4))
    score = X @ np.array([1.0, -0.7, 0.4, 0.2]) + 0.3 * rng.normal(size=3000)
    y = np.searchsorted(np.quantile(score, np.arange(1, n_classes) / n_classes), score)
    matrix = make_matrix(X, y=y, y_cnr=5.0 * score)
    return matrix, GbmHyperParams(n_rounds=6, max_depth=4, n_bins=16)


def drawn_tie_free_matrix(seed, n, n_features, n_classes):
    """The data of :func:`tie_free_case` with another seed, row count,
    feature weights and class count."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    score = X @ rng.uniform(0.2, 1.0, n_features) + 0.3 * rng.normal(size=n)
    y = np.searchsorted(np.quantile(score, np.arange(1, n_classes) / n_classes), score)
    return make_matrix(X, y=y)


@st.composite
def tie_free_cases(draw):
    """:func:`tie_free_case` with drawn data, weights, class count and
    tree size, keeping its many rows per node and few bins."""
    matrix = drawn_tie_free_matrix(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(1500, 3000)), draw(st.integers(2, 4)), draw(st.integers(2, 4))
    )
    hp = GbmHyperParams(
        n_rounds=draw(st.integers(1, 3)), max_depth=draw(st.integers(1, 4)), n_bins=draw(st.sampled_from([8, 16]))
    )
    return matrix, hp


def exact_tie_case():
    """A drawn case where, in the first tree, a depth-3 node of 90 rows has
    two splits, one per feature, that both put 11 rows of class 0 and 34
    of class 1 on the left.  The first round's gradients take one value per
    class, so the two gains are equal in exact arithmetic, and the fast
    builder (subtracted histograms) and the reference (direct sums) round
    them to different winners."""
    return drawn_tie_free_matrix(1715, 1500, 2, 2), GbmHyperParams(n_rounds=1, max_depth=4, n_bins=8)


class TestSplitNoise:
    """A split must gain more than 1e-10 times its node's term: with
    ``min_child_weight`` 0, some nodes' best gain is rounding noise (about
    1e-13 against a node term of about 300 on :func:`tie_free_case`), and
    a direct and a subtracted histogram give it opposite signs.

    Drawn data can still hold exact ties: the first round's gradients take
    one value per class, so two features that split a node's classes
    alike gain the same, and rounding picks the winner.  The trees may
    differ at such a node, and only there."""

    @settings(max_examples=12, deadline=None)
    @given(tie_free_cases(), st.sampled_from([0.0, 1.0]))
    @example(exact_tie_case(), 0.0)
    def test_same_trees_as_reference_builder_at_any_min_child_weight(self, case, min_child_weight):
        matrix, hp = case
        hp = dataclasses.replace(hp, min_child_weight=min_child_weight)
        assert_same_trees_as_reference(train_gbm, matrix, hp, ties=True)


class TestHyperParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_rounds", 5.0), ("n_rounds", True), ("max_depth", 3.0), ("max_depth", False),
            ("n_bins", 2.5), ("n_bins", 64.0), ("n_bins", True), ("n_bins", "64"),
        ],
    )
    def test_counts_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            GbmHyperParams(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "min_child_weight", "l2_lambda"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "1"])
    def test_float_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            GbmHyperParams(**{field: value})

    def test_ints_are_accepted_for_float_fields_and_numpy_ints_for_counts(self):
        hp = GbmHyperParams(n_rounds=np.int64(3), n_bins=np.int32(16), learning_rate=1, l2_lambda=0)
        assert (hp.n_rounds, hp.n_bins, hp.learning_rate, hp.l2_lambda) == (3, 16, 1, 0)


class TestTraining:
    def test_separable_toy_reaches_perfect_training_accuracy(self):
        matrix = separable_toy()
        hp = GbmHyperParams(n_rounds=50)
        model = train_gbm(matrix, hp)
        assert np.mean(predict_labels(model, matrix) == matrix.y) == 1.0
        assert_loss_monotone(model)
        for round_trees in model.trees:
            for tree in round_trees:
                assert tree.depth <= hp.max_depth
                assert np.isfinite(tree.value).all()

    def test_decision_stump_flips_at_the_split(self):
        X = np.array([[0.0]] * 20 + [[1.0]] * 20)
        y = [0] * 20 + [1] * 20
        matrix = make_matrix(X, y=y)
        model = train_gbm(matrix, GbmHyperParams(n_rounds=1, max_depth=1))
        tree = model.trees[0][0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 0.5
        labels = predict_labels(model, matrix)
        assert list(labels[:20]) == [0] * 20
        assert list(labels[20:]) == [1] * 20

    def test_first_split_matches_exact_greedy_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            X = np.round(rng.normal(size=(30, 2)), 3)
            y = rng.integers(0, 2, 30)
            matrix = make_matrix(X, y=y)
            hp = GbmHyperParams(n_rounds=1, max_depth=1, n_bins=64, min_child_weight=0.25)
            model = train_gbm(matrix, hp)

            counts = np.bincount(y, minlength=4).astype(float)
            priors = np.clip(counts / counts.sum(), 1e-12, None)
            # Class-0 gradients at the log-prior starting point are constant
            # per row, matching what the first tree sees.
            p0 = np.exp(np.log(priors))[0] / np.exp(np.log(priors)).sum()
            g = np.full(30, p0) - (y == 0)
            h = np.full(30, p0 * (1.0 - p0))
            want = exact_greedy_split(X, g, h, hp.l2_lambda, hp.min_child_weight)
            assert want is not None, trial
            tree = model.trees[0][0]
            assert (int(tree.feature[0]), float(tree.threshold[0])) == (want[0], pytest.approx(want[1]))

    def test_single_class_training_rejected(self):
        matrix = make_matrix(np.random.default_rng(0).normal(size=(10, 2)), y=[2] * 10)
        with pytest.raises(ValueError, match="single class"):
            train_gbm(matrix)

    def test_empty_matrix_rejected(self):
        matrix = make_matrix(np.empty((0, 2)), y=[])
        with pytest.raises(ValueError, match="empty"):
            train_gbm(matrix)

    def test_training_is_deterministic(self):
        matrix = separable_toy()
        hp = GbmHyperParams(n_rounds=10, max_depth=4)
        a = train_gbm(matrix, hp)
        b = train_gbm(matrix, hp)
        assert model_to_jsonable(a) == model_to_jsonable(b)

    def test_prediction_invariant_under_monotone_feature_transform(self):
        matrix = separable_toy()
        hp = GbmHyperParams(n_rounds=15, max_depth=4)
        base = train_gbm(matrix, hp)
        transformed = make_matrix(np.exp(matrix.X / 5.0), y=matrix.y)
        other = train_gbm(transformed, hp)
        assert np.array_equal(predict_proba(base, matrix), predict_proba(other, transformed))


class TestNanFeatures:
    """Bin edges come from a column's non-NaN values; NaN rows fall past
    every edge, so they go right in training as in prediction."""

    @pytest.mark.parametrize("train_fn", [train_gbm, train_regressor])
    def test_a_feature_with_nans_still_splits(self, train_fn):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(2000, 1))
        y = (X[:, 0] > 0.3).astype(int)
        X[rng.choice(2000, 20, replace=False), 0] = np.nan
        matrix = make_matrix(X, y=y, y_cnr=4.0 * y)
        seen = []
        boost = gbm._boost

        def spy(train, hp, loss):
            def evaluate(scores):
                seen.append(scores.copy())
                return loss.evaluate(scores)

            return boost(train, hp, dataclasses.replace(loss, evaluate=evaluate))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbm, "_boost", spy)
            model = train_fn(matrix, GbmHyperParams(n_rounds=10, max_depth=2))
        # The first output (class 0, or the regressor's) splits every round,
        # and every threshold is finite, as loading requires.
        assert all(trees[0].feature[0] == 0 for trees in model.trees)
        gbm.model_from_jsonable(model_to_jsonable(model))
        assert model.train_loss[-1] < 0.5 * model.train_loss[0]
        assert seen[-1].tobytes() == gbm.raw_scores(model, matrix).tobytes()


class TestPrediction:
    def test_proba_is_a_distribution(self):
        matrix = separable_toy()
        model = train_gbm(matrix, GbmHyperParams(n_rounds=20))
        proba = predict_proba(model, matrix)
        assert (proba >= 0.0).all()
        assert np.abs(proba.sum(axis=1) - 1.0).max() <= 1e-9

    def test_zero_round_model_with_uniform_priors(self):
        matrix = make_matrix(np.zeros((100, 1)), y=[0, 1, 2, 3] * 25)
        model = train_gbm(matrix, GbmHyperParams(n_rounds=0))
        proba = predict_proba(model, matrix)
        assert np.array_equal(proba, np.full((100, 4), 0.25))

    def test_zero_round_model_returns_exact_priors(self):
        y = [0] * 8 + [1] * 4 + [2] * 2 + [3] * 2
        matrix = make_matrix(np.zeros((16, 1)), y=y)
        model = train_gbm(matrix, GbmHyperParams(n_rounds=0))
        proba = predict_proba(model, matrix)
        assert proba[0] == pytest.approx([0.5, 0.25, 0.125, 0.125], abs=1e-12)

    def test_argmax_consistency_and_tie_toward_worse(self):
        matrix = separable_toy()
        model = train_gbm(matrix, GbmHyperParams(n_rounds=5))
        proba = predict_proba(model, matrix)
        labels = predict_labels(model, matrix)
        assert all(int(c) == int(np.argmax(p)) for c, p in zip(labels, proba))

        uniform = make_matrix(np.zeros((8, 1)), y=[0, 1, 2, 3] * 2)
        tied = train_gbm(uniform, GbmHyperParams(n_rounds=0))
        assert set(predict_labels(tied, uniform)) == {int(CnrCategory.BAD)}


def reference_softmax(scores):
    """Row-major softmax over (rows, classes) scores."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_log_loss(scores, y):
    """Row-major mean cross-entropy over (rows, classes) scores."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(len(y)), y]))


@st.composite
def row_major_scores(draw, min_rows=0):
    """(rows, 4) scores with 0, 1 or many rows.  Each class is ordinary,
    absent (the clipped log prior of a class never seen), huge in either
    direction, or tied with class 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 37, 1000]).filter(lambda k: k >= min_rows))
    scores = rng.normal(size=(n, N_CATEGORIES)) * draw(st.sampled_from([1.0, 30.0]))
    for k in range(N_CATEGORIES):
        kind = draw(st.sampled_from(["ordinary", "absent", "huge", "tied"]))
        if kind == "absent":
            scores[:, k] = np.log(1e-12) + rng.normal(size=n) * 1e-3
        elif kind == "huge":
            scores[:, k] = rng.choice([-1e308, -800.0, 800.0, 1e308], size=n)
        elif kind == "tied":
            scores[:, k] = scores[:, 0]
    y = rng.integers(0, N_CATEGORIES, size=n)
    return scores, y


class TestClassMajorScores:
    """The boosting loop and prediction keep scores (classes, rows); every
    result must equal the row-major computation bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(row_major_scores())
    def test_softmax_matches_row_major(self, case):
        scores, _ = case
        class_major = np.ascontiguousarray(scores.T)
        # Huge scores overflow in the shift.
        with np.errstate(all="ignore"):
            assert gbm._softmax(class_major).T.tobytes() == reference_softmax(scores).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(row_major_scores(min_rows=2))
    def test_loss_gradients_and_hessians_match_row_major(self, case):
        scores, y = case
        y[:2] = [0, 1]  # a single class is rejected
        losses = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbm, "_boost", lambda train, hp, loss: losses.append(loss))
            train_gbm(make_matrix(np.zeros((y.size, 1)), y=y))
        with np.errstate(all="ignore"):
            value, grad, hess = losses[0].evaluate(np.ascontiguousarray(scores.T))
            want = reference_log_loss(scores, y)
            proba = reference_softmax(scores)
        one_hot = np.eye(N_CATEGORIES)[y]
        assert np.float64(value).tobytes() == np.float64(want).tobytes()
        assert grad.shape == hess.shape == (N_CATEGORIES, y.size)
        assert grad.T.tobytes() == (proba - one_hot).tobytes()
        assert hess.T.tobytes() == (proba * (1.0 - proba)).tobytes()

    def test_regressor_loss_is_the_mean_squared_residual_with_unit_hessians(self):
        rng = np.random.default_rng(3)
        y, scores = rng.normal(size=50), rng.normal(size=(1, 50))
        losses = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbm, "_boost", lambda train, hp, loss: losses.append(loss))
            train_regressor(make_matrix(np.zeros((50, 1)), y_cnr=y))
        value, grad, hess = losses[0].evaluate(scores)
        assert value == float(np.mean((scores[0] - y) ** 2))
        assert grad.tobytes() == (scores - y).tobytes() and hess is None

    @settings(max_examples=100, deadline=None)
    @given(
        ensemble_cases(), st.sampled_from([0.0, 1.0, 1e3, 1e300]),
        st.sets(st.integers(0, N_CATEGORIES - 1), max_size=N_CATEGORIES - 1),
    )
    def test_predict_proba_and_labels_match_row_major(self, case, spread, absent):
        model, matrix, _ = case
        if model.kind != "classifier":
            return
        model.base_score = model.base_score * spread
        model.base_score[list(absent)] = np.log(1e-12)
        want = reference_softmax(reference_raw_scores(model, matrix.X).T)
        with np.errstate(all="ignore"):
            got = predict_proba(model, matrix)
            labels = predict_labels(model, matrix)
        assert got.shape == (matrix.n_rows, N_CATEGORIES)
        assert got.tobytes() == want.tobytes()
        assert labels.tolist() == np.argmax(want, axis=1).tolist()


class TestBaseline:
    def test_predicts_modal_class(self):
        matrix = make_matrix(np.zeros((10, 1)), y=[1] * 6 + [2] * 4)
        model = baseline_majority(matrix)
        assert set(predict_labels(model, matrix)) == {1}

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            baseline_majority(make_matrix(np.empty((0, 1)), y=[]))


class TestRegressor:
    def test_constant_labels_give_zero_mse(self):
        matrix = make_matrix(np.random.default_rng(1).normal(size=(40, 3)), y_cnr=[5.0] * 40)
        model = train_regressor(matrix, GbmHyperParams(n_rounds=5))
        assert np.array_equal(predict_value(model, matrix), np.full(40, 5.0))
        mse, mae = eval_regressor(model, matrix)
        assert mse == 0.0 and mae == 0.0

    def test_mse_monotone_during_training(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 3))
        y = X[:, 0] * 2.0 + np.sin(X[:, 1]) + rng.normal(0, 0.05, 300)
        model = train_regressor(make_matrix(X, y_cnr=y), GbmHyperParams(n_rounds=40))
        assert_loss_monotone(model)
        assert model.train_loss[-1] < model.train_loss[0] * 0.2

    def test_noise_free_synthetic_cnr_mae_below_300_millidb(self, tmp_path):
        config = demo_config(flights_per_route=3, seed=51, weather=None)
        quiet = LinkModelParams(
            cnr_at_zenith_db=10.15,
            elevation_rolloff_db=3.2,
            rain_atten_db_per_mmh=0.5,
            troposphere_ceiling_m=6000.0,
            noise_sigma_db=0.0,
            horizon_cut_elevation_deg=5.0,
        )
        # Several departures per route so every route stays represented on
        # the training side of the per-flight split.
        flights = []
        for i, plan in enumerate(config.routes):
            for j in range(5):
                flights.append(
                    generate_flight(
                        plan.route,
                        list(config.satellites),
                        None,
                        quiet,
                        seed=100 * j + i,
                        departure_time=config.start_date.replace(hour=2 * j),
                        flight_id=f"F{i}x{j}",
                    )
                )
        log = LogColumns(*(np.concatenate([getattr(f, c.name) for f in flights]) for c in dataclasses.fields(LogColumns)))
        matrix, _ = encode_features(labeled(log))
        train, test = split_by_flight(matrix, 0.2, seed=3)
        model = train_regressor(train, GbmHyperParams(n_rounds=150, learning_rate=0.15))
        mse, mae = eval_regressor(model, test)
        assert mae <= 0.3, (mse, mae)
