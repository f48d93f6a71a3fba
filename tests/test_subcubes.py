"""Leaf layout by subcube points against the per-point descent it replaced.

Within the enumeration cap the package once found the leaf of every point by
sending all 2^n points through the tree's node arrays, grouped the
points by leaf with a stable argsort, and read each leaf's table from that
order.  It now lists the points of each leaf subcube directly, a block of
leaves at a time (`dtree._leaf_cells`).  The references below are the
descent code: the leaf ids, free masks, leaf tables, tree tables and leaf
depths must be the same, bit for bit, with the same query charges.

Certification takes the submodular flags from the input check when that
check ran on the same table: the flags must equal the recomputed ones, and
with ``check=False`` the pair pass must still run and flag leaves.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import leaf_map, leaves_of, random_table, tree_from_json, with_oracle_leaves
from submodtree import decompose, dtree, funcs
from submodtree.cube import popcount
from submodtree.decompose import _grow, build_lipschitz_tree, build_monotone_tree
from submodtree.dtree import ConstLeaf, DecisionTree, Node, OracleLeaf
from submodtree.funcs import (
    GENERATED_FAMILIES,
    Restriction,
    ValueOracle,
    full_tables,
    generate_random,
    instantiate,
    restrict,
)
from test_certify import ref_certify
from test_frontier import TREE_KINDS, bits, make_tree, mixed_leaves, table_oracles

ALPHAS = (0.05, 0.1, 0.25, 1 / 3, 0.5, 1.0)

# --- references: one descent of every point -------------------------------------


def descend(var, child, xs, depth):
    """The node that each point of xs reaches, for a tree given as node
    arrays: node k tests coordinate var[k] and steps to child[2k + bit], and
    a leaf steps onto itself."""
    at = np.zeros(xs.shape, dtype=np.int64)
    for _ in range(depth):
        at = child[2 * at + ((xs >> var[at]) & 1)]
    return at


def ref_leaf_index(tree):
    """The leaf (preorder, lo before hi) of every point, the tested mask of
    every leaf and the leaves, by descending all points through node arrays."""
    var, child, leaf_id, tested, leaves = [], [], [], [], []

    def walk(node, path):
        k = len(var)
        if isinstance(node, Node):
            bit = 1 << node.var
            var.append(node.var)
            child.extend((0, 0))
            leaf_id.append(-1)
            child[2 * k] = walk(node.lo, path | bit)
            child[2 * k + 1] = walk(node.hi, path | bit)
        else:
            var.append(0)
            child.extend((k, k))
            leaf_id.append(len(leaves))
            leaves.append(node)
            tested.append(path)
        return k

    walk(tree.root, 0)
    paths = np.array(tested, dtype=np.int64)
    depth = int(popcount(paths).max())
    points = np.arange(1 << tree.n, dtype=np.int64)
    at = descend(np.array(var, dtype=np.int64), np.array(child, dtype=np.int64), points, depth)
    return np.array(leaf_id, dtype=np.int32)[at], paths, leaves


def ref_leaf_map(tree):
    leaf_of, paths, _ = ref_leaf_index(tree)
    return leaf_of, paths ^ ((1 << tree.n) - 1)


def ref_cube_values(tree):
    """Value and leaf depth of every point: constants read through the leaf
    ids, oracle tables scattered over their points grouped by leaf."""
    leaf_of, paths, leaves = ref_leaf_index(tree)
    values = np.array([lf.value if isinstance(lf, ConstLeaf) else 0.0 for lf in leaves])[leaf_of]
    oracle = [k for k, lf in enumerate(leaves) if isinstance(lf, OracleLeaf)]
    if oracle:
        is_oracle = np.zeros(len(leaves), dtype=bool)
        is_oracle[oracle] = True
        points = np.flatnonzero(is_oracle[leaf_of])
        points = points[np.argsort(leaf_of[points], kind="stable")]
        values[points] = np.concatenate(full_tables([leaves[k].oracle for k in oracle]))
    return values, popcount(paths).astype(np.int64)[leaf_of]


def ref_grown_partition(f, alpha, phases):
    """The leaf of every point, in preorder, and the free mask of every leaf,
    found by descending all points through `_grow`'s node arrays."""
    mask, fixed, split = _grow([f], f.table(), [alpha], phases)
    leaves = split < 0
    number = np.cumsum(leaves) - 1
    free = ~mask[leaves] & ((1 << f.n) - 1)
    child = np.arange(split.size).repeat(2)
    child[~leaves.repeat(2)] = np.arange(1, 2 * (split.size - free.size) + 1)
    points = np.arange(1 << f.n, dtype=np.int64)
    depth = int(popcount(mask).max())
    level_leaf = number[descend(np.maximum(split, 0), child, points, depth)]
    order = []  # leaf numbers in preorder

    def walk(node):
        if split[node] >= 0:
            lo = 2 * (node - number[node]) - 1
            walk(lo)
            walk(lo + 1)
        else:
            order.append(number[node])

    walk(0)
    preorder = np.empty(len(order), dtype=np.int32)
    preorder[order] = np.arange(len(order), dtype=np.int32)
    return preorder[level_leaf], free[order]


# --- subcube points ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=12),
    block=st.sampled_from([1, 2, 4, 16, 1 << 16]),
)
def test_subcube_points_list_each_subcube_in_ascending_order(n, seed, count, block):
    # any subcubes, repeated masks included, not only a partition of the cube;
    # each in exactly one cell, whose rows ascend: listed points below the
    # block size, a subcube view above it
    rng = np.random.default_rng(seed)
    full = (1 << n) - 1
    free = rng.integers(0, full + 1, size=count, dtype=np.int64)
    fixed = rng.integers(0, full + 1, size=count, dtype=np.int64) & ~free
    cube_points = np.arange(1 << n, dtype=np.int64)
    want = [cube_points[cube_points & ~m == b] for b, m in zip(fixed.tolist(), free.tolist())]
    listed = {}
    with mock.patch.object(dtree, "_BLOCK_POINTS", block):
        for rows, cell in dtree._leaf_cells(n, fixed, free, np.arange(count)):
            assert np.all(np.diff(rows) > 0)
            assert isinstance(cell, tuple) == (rows.size == 1 and want[rows[0]].size > block)
            if not isinstance(cell, tuple):
                assert cell.dtype == np.int64 and cell.size <= block
            points = dtree._take(cube_points, n, cell).reshape(rows.size, -1)
            listed.update(zip(rows.tolist(), points))
    assert sorted(listed) == list(range(count))
    for k, points in listed.items():
        assert points.tolist() == want[k].tolist()


# --- leaf map, tree tables and leaf profiles ----------------------------------------


def assert_same_cube_values(tree, ref_tree, f, f_ref):
    leaf_of, free = leaf_map(tree)
    ref_leaf_of, ref_free = ref_leaf_map(ref_tree)
    assert leaf_of.dtype == ref_leaf_of.dtype and np.array_equal(leaf_of, ref_leaf_of)
    assert free.dtype == ref_free.dtype and np.array_equal(free, ref_free)
    ref_values, ref_depths = ref_cube_values(ref_tree)
    assert bits(dtree.tree_table(tree)) == bits(ref_values)
    assert f.query_count == f_ref.query_count
    values, depths = dtree.leaf_profile(tree)
    ref_values, ref_depths = ref_cube_values(ref_tree)
    assert bits(values) == bits(ref_values)
    assert depths.dtype == ref_depths.dtype and np.array_equal(depths, ref_depths)
    assert f.query_count == f_ref.query_count


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(("const", "oracle", "mixed")),
)
def test_leaf_map_tables_and_profiles_match_the_descent(n, seed, kind):
    f, f_ref = table_oracles(n, seed)
    tree, ref_tree = make_tree(kind, n, seed, f), make_tree(kind, n, seed, f_ref)
    assert_same_cube_values(tree, ref_tree, f, f_ref)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(TREE_KINDS),
    group=st.sampled_from([1, 2, 4, 16]),
)
def test_leaves_above_the_group_size_fill_their_subcube_views(n, seed, kind, group):
    # with a small block size most leaves are written through their subcube
    # views; with the default one, every leaf of n <= 16 is written at listed
    # points
    f, f_ref = table_oracles(n, seed)
    tree, ref_tree = make_tree(kind, n, seed, f), make_tree(kind, n, seed, f_ref)
    with mock.patch.object(dtree, "_BLOCK_POINTS", group):
        table = dtree.tree_table(tree)
        values, depths = dtree.leaf_profile(tree)
    assert bits(table) == bits(dtree.tree_table(ref_tree))
    ref_values, ref_depths = dtree.leaf_profile(ref_tree)
    assert bits(values) == bits(ref_values)
    assert depths.dtype == ref_depths.dtype and np.array_equal(depths, ref_depths)
    assert f.query_count == f_ref.query_count


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(ALPHAS),
    group=st.sampled_from([1, 2, 4, 16]),
)
def test_decomposition_leaves_above_the_group_size_read_their_subcube_views(family, n, seed, alpha, group):
    # a decomposition's leaves read the input's table where it lies: through
    # subcube views above the block size, at listed points below
    spec = generate_random(family, max(n, 2), seed)
    f, f_ref = instantiate(spec), instantiate(spec)
    report = build_lipschitz_tree(f, alpha, certify=False)
    ref_report = build_lipschitz_tree(f_ref, alpha, certify=False)
    with mock.patch.object(dtree, "_BLOCK_POINTS", group):
        table = dtree.tree_table(report.tree)
        values, depths = dtree.leaf_profile(report.tree)
        means = decompose.constantize_leaves(report)
    assert bits(table) == bits(dtree.tree_table(ref_report.tree)) == bits(f.table())
    ref_values, ref_depths = dtree.leaf_profile(ref_report.tree)
    assert bits(values) == bits(ref_values)
    assert np.array_equal(depths, ref_depths)
    ref_means = decompose.constantize_leaves(ref_report)
    assert bits(means.value) == bits(ref_means.value)
    assert f.query_count == f_ref.query_count


@pytest.mark.parametrize("n", [2, 3, 6])
def test_a_constant_and_an_oracle_leaf_with_one_tested_mask(n):
    f, f_ref = table_oracles(n, n)
    lo, lo_ref = ConstLeaf(0.25), ConstLeaf(0.25)
    trees = []
    for g, const in ((f, lo), (f_ref, lo_ref)):
        grown = with_oracle_leaves(
            DecisionTree(n, Node(0, ConstLeaf(0.0), Node(1, ConstLeaf(0.0), ConstLeaf(0.0)))), g
        )
        # lo is constant and hi.lo an oracle leaf, both tested on {x_1, x_2}
        hi = grown.root.hi
        trees.append(DecisionTree(n, Node(0, Node(1, const, hi.lo), hi)))
    assert_same_cube_values(trees[0], trees[1], f, f_ref)


@pytest.mark.parametrize(
    "text",
    [
        # x_1 tested again below itself: the hi.lo leaf is unreachable
        '{"var": 1, "lo": {"leaf": 0.0},'
        ' "hi": {"var": 1, "lo": {"leaf": 1.0}, "hi": {"leaf": 2.0}}}',
        '{"var": 3, "lo": {"leaf": 0.0}, "hi": {"leaf": 1.0}}',
        '{"var": 0, "lo": {"leaf": 0.0}, "hi": {"leaf": 1.0}}',
    ],
)
def test_trees_whose_leaves_do_not_partition_the_cube_are_rejected(text):
    # their leaf subcubes overlap or leave the cube, so no layout by subcube
    # points exists; evaluation point by point still follows the tree
    tree = tree_from_json(text, 2)
    for fn in (leaf_map, dtree.tree_table, dtree.leaf_profile):
        with pytest.raises(ValueError, match="tested twice on a path or outside dimension 2"):
            fn(tree)
    if '"var": 1' in text:
        assert dtree.evaluate_many(tree, np.arange(4)).tolist() == [0.0, 2.0, 0.0, 2.0]
        # with an oracle at the unreachable leaf, that oracle is never charged
        g = ValueOracle.from_table([5.0, 6.0])
        hi = Node(0, OracleLeaf(g, (1,)), tree.root.hi.hi)
        tree = DecisionTree(2, Node(0, tree.root.lo, hi))
        assert dtree.evaluate_many(tree, np.arange(4)).tolist() == [0.0, 2.0, 0.0, 2.0]
        assert g.query_count == 0


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(ALPHAS),
)
def test_decomposition_tables_match_the_descent(family, n, seed, alpha):
    spec = generate_random(family, n, seed)
    f, f_ref = instantiate(spec), instantiate(spec)
    tree = build_lipschitz_tree(f, alpha, check=False, certify=False).tree
    ref_tree = build_lipschitz_tree(f_ref, alpha, check=False, certify=False).tree
    assert_same_cube_values(tree, ref_tree, f, f_ref)
    mixed, ref_mixed = mixed_leaves(tree, f, seed), mixed_leaves(ref_tree, f_ref, seed)
    assert_same_cube_values(mixed, ref_mixed, f, f_ref)


def test_tree_tables_and_distances_gather_at_most_a_block_of_points():
    # the leaves of a decomposition are read from its input's table a cell at
    # a time: no gather lists the points of every leaf at once
    g = instantiate(generate_random("coverage", 18, 1))
    sizes = []

    class Gathered(np.ndarray):
        """A table that lists the size of each gather from it."""

        def __getitem__(self, index):
            if isinstance(index, np.ndarray) and index.dtype.kind == "i":
                sizes.append(index.size)
            return np.asarray(super().__getitem__(index))

    table = g.table().view(Gathered)
    f = ValueOracle(g.n, table.__getitem__, table=table)
    tree = build_lipschitz_tree(f, 0.1, certify=False).tree
    sizes.clear()
    values = dtree.tree_table(tree)
    profile, _ = dtree.leaf_profile(tree)
    (distance,) = dtree.exact_distances([f], [tree], metric="l1")
    assert dtree.tree_size(tree) > 1 and sizes != []
    assert max(sizes) <= dtree._BLOCK_POINTS
    assert bits(values) == bits(profile) == bits(g.table()) and distance == 0.0


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
def test_truncations_without_a_cached_source_charge_their_oracle_leaves(alpha, monkeypatch):
    # built beyond the cap, a decomposition holds no table of its input; read
    # within the cap, each truncation's table is the descent's, and each is
    # charged the points of its oracle leaves, with nothing cached
    spec = generate_random("coverage", 9, 1)
    f, f_ref = instantiate(spec), instantiate(spec)
    with monkeypatch.context() as mp:
        mp.setenv("SUBMODTREE_ENUM_CAP", "4")
        tree = build_lipschitz_tree(f, alpha).tree
        ref_tree = build_lipschitz_tree(f_ref, alpha).tree
    charges = []
    for d in range(dtree.tree_depth(tree) + 1):
        cut, ref_cut = dtree.truncate(tree, d), dtree.truncate(ref_tree, d)
        count = f.query_count
        table = dtree.tree_table(cut)
        charges.append(f.query_count - count)
        assert charges[-1] == int(np.sum(np.int64(1) << popcount(cut.free()[cut.oracle]).astype(np.int64)))
        assert bits(table) == bits(ref_cube_values(ref_cut)[0])
        assert f.query_count == f_ref.query_count
    assert charges[0] == 0 and charges[-1] == 1 << f.n and len(set(charges)) > 2
    assert not f.cached


# --- the leaves of a build -----------------------------------------------------------


def assert_same_build(make_f, alpha, phases):
    """A build's leaf tables, free coordinates and certificates against
    `restrict`, a descent of every point through `_grow`'s arrays and the
    checkers run on each leaf restriction."""
    f, f_ref = make_f(), make_f()
    builder = build_monotone_tree if phases == 1 else build_lipschitz_tree
    report = builder(f, alpha, check=False)
    ref_leaf_of, ref_free = ref_grown_partition(f_ref, alpha, phases)
    free = report.tree.free()
    assert free.dtype == ref_free.dtype and np.array_equal(free, ref_free)
    leaves = leaves_of(report.tree)
    assert len(leaves) == free.size
    for k, (leaf, m) in enumerate(zip(leaves, free.tolist())):
        assert leaf.free == tuple(i for i in range(f.n) if m >> i & 1)
        point = int(np.flatnonzero(ref_leaf_of == k)[0])
        fixed = {i: point >> i & 1 for i in range(f.n) if not m >> i & 1}
        want = restrict(f_ref, Restriction(f.n, fixed)).table()
        assert bits(leaf.oracle.table()) == bits(want)
    assert report.leaf_certificates == ref_certify(report.tree, alpha)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(ALPHAS),
    phases=st.sampled_from([1, 2]),
)
def test_build_leaves_match_restrict_and_the_descent_on_families(family, n, seed, alpha, phases):
    spec = generate_random(family, max(n, 2), seed)
    assert_same_build(lambda: instantiate(spec), alpha, phases)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from(ALPHAS),
    phases=st.sampled_from([1, 2]),
)
def test_build_leaves_match_restrict_and_the_descent_on_grid_tables(n, seed, alpha, phases):
    t = random_table(n, seed, alpha)
    assert_same_build(lambda: ValueOracle.from_table(t), alpha, phases)


# --- the submodular certificate of the input check -------------------------------------


def count_pair_passes(monkeypatch):
    calls = []
    maxima = funcs._pair_maxima

    def counted(t, n):
        calls.append(n)
        return maxima(t, n)

    monkeypatch.setattr(funcs, "_pair_maxima", counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(ALPHAS),
    phases=st.sampled_from([1, 2]),
)
def test_flags_from_the_input_check_equal_recomputed_flags(family, n, seed, alpha, phases):
    spec = generate_random(family, n, seed)
    f, f_ref = instantiate(spec), instantiate(spec)
    builder = build_monotone_tree if phases == 1 else build_lipschitz_tree
    with pytest.MonkeyPatch.context() as mp:
        calls = count_pair_passes(mp)
        report = builder(f, alpha)
        # the input check is the only pair pass of a checked build
        assert len(calls) == 1
    recomputed = builder(f_ref, alpha, check=False).leaf_certificates
    assert report.leaf_certificates == recomputed == ref_certify(report.tree, alpha)
    assert all(c.submodular_ok for c in report.leaf_certificates)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from(ALPHAS),
    phases=st.sampled_from([1, 2]),
)
def test_unchecked_builds_still_run_the_pair_pass(n, seed, alpha, phases):
    f = ValueOracle.from_table(random_table(n, seed, alpha))
    builder = build_monotone_tree if phases == 1 else build_lipschitz_tree
    with pytest.MonkeyPatch.context() as mp:
        calls = count_pair_passes(mp)
        report = builder(f, alpha, check=False)
    # one pair pass per dimension of two or more among the leaves: at n <= 8
    # the leaves of one dimension are one block of tables
    dims = {leaf.oracle.n for leaf in leaves_of(report.tree)}
    assert calls == sorted(k for k in dims if k >= 2)
    assert report.leaf_certificates == ref_certify(report.tree, alpha)


@pytest.mark.parametrize("phases", [1, 2])
def test_unchecked_non_submodular_leaves_are_flagged(phases):
    # uniform noise: no derivative reaches alpha = 3, so the root is the only
    # leaf, and its mixed differences are far above the tolerance
    t = np.random.default_rng(7).uniform(-1.0, 1.0, size=1 << 6)
    f = ValueOracle.from_table(t)
    builder = build_monotone_tree if phases == 1 else build_lipschitz_tree
    with pytest.raises(decompose.NotSubmodular):
        builder(ValueOracle.from_table(t), 3.0)
    report = builder(f, 3.0, check=False)
    assert [c.submodular_ok for c in report.leaf_certificates] == [False]
    assert not report.certificates_ok()
    # a two-leaf split: the planted violation sits inside the hi leaf only
    g = np.zeros(8)
    g[[0b001, 0b011, 0b101, 0b111]] = 1.0
    g[0b111] += 0.5
    report = builder(ValueOracle.from_table(g), 0.5, check=False)
    assert [c.submodular_ok for c in report.leaf_certificates] == [True, False]
