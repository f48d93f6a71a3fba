"""Distances against a tree, read a window at a time, against the
whole-table route they replaced.

`dtree.exact_distance` and `exact_distances` once made each tree's whole
table (`_as_table`) and compared it with the other side's table in one pass
(`_distances`, below as `ref_distances`).  They now fill a tree's values one
aligned window at a time and sum each table's parts of the windows pairwise.
Every distance must be the same, bit for bit, for each metric under uniform
and product weights, and every oracle must be charged the same queries.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import with_oracle_leaves
from submodtree import dtree
from submodtree.cube import ProductDistribution
from submodtree.decompose import build_lipschitz_tree
from submodtree.dtree import ConstLeaf, DecisionTree, Node
from submodtree.fourier import Spectrum
from submodtree.funcs import GENERATED_FAMILIES, ValueOracle, generate_random, instantiate

METRICS = ("l1", "l2", "disagreement")
SPECIAL = [-0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, math.nan, -math.nan, math.inf, -math.inf]


def ref_as_table(obj):
    if isinstance(obj, DecisionTree):
        return dtree.tree_table(obj), obj.n
    if isinstance(obj, Spectrum):
        return obj.table(), obj.n
    if not isinstance(obj, ValueOracle):
        obj = ValueOracle.from_table(obj)
    return obj.table(), obj.n


def ref_distances(tf, tg, n, dist, metric):
    w = 0.5**n if dist is None else dist.probability_vector()
    if metric == "disagreement":
        differ = (tf != tg).reshape(-1, 1 << n)
        if dist is None:
            return (np.count_nonzero(differ, axis=1) * w).tolist()
        return [float(np.sum(w[row])) for row in differ]
    d = np.subtract(tf, tg).reshape(-1, 1 << n)
    d = np.abs(d) if metric == "l1" else np.square(d)
    totals = (d * w).sum(axis=1).tolist()
    return totals if metric == "l1" else [math.sqrt(total) for total in totals]


def ref_distance(f, g, dist, metric):
    (tf, n), (tg, _) = ref_as_table(f), ref_as_table(g)
    return ref_distances(tf, tg, n, dist, metric)[0]


def bits(values):
    """The bits of each value, with every NaN as the one quiet NaN: numpy
    does not fix which operand's NaN a sum keeps (its SIMD body and its
    scalar tail pick different ones), so a NaN's sign is not compared."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = math.nan
    return values.view(np.uint64).tolist()


def distributions(n, seed):
    rng = np.random.default_rng((0xD15, seed, n))
    return [None, ProductDistribution(tuple(rng.uniform(0.05, 0.95, size=n)))]


def special_table(n, seed):
    """Random values, a few of them NaN, infinite or signed zeros."""
    rng = np.random.default_rng((0x7AB, seed, n))
    table = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-8, 8, 1 << n)
    at = rng.random(1 << n) < 0.05
    table[at] = rng.choice(SPECIAL, size=int(at.sum()))
    return table


@functools.cache
def special_tree(n, seed):
    """`random_tree`'s shape, at most 10 levels deep, with constant leaves
    drawn from SPECIAL and the values of a special table."""
    shape = dtree.random_tree(n, seed=seed, max_depth=min(n, 10))
    values = iter(np.concatenate([SPECIAL, special_table(n, seed)]).tolist() * 8)

    def relabel(node):
        if isinstance(node, Node):
            return Node(node.var, relabel(node.lo), relabel(node.hi))
        return ConstLeaf(next(values))

    return DecisionTree(n, relabel(shape.root))


@functools.cache
def decomposition(n, seed, alpha=0.25):
    """An oracle, its decomposition (oracle leaves) and a truncation of it."""
    if n >= 2:
        f = instantiate(generate_random(GENERATED_FAMILIES[seed % len(GENERATED_FAMILIES)], n, seed))
    else:
        f = ValueOracle.from_table(special_table(n, seed))
    f.table()
    tree = build_lipschitz_tree(f, alpha, check=False, certify=False).tree
    return f, tree, dtree.truncate(tree, dtree.tree_depth(tree) // 2)


def assert_same(f, g, oracles, dists):
    """The distance of f and g on the window route and on the reference
    route: the same bits, and the same queries charged to the oracles."""
    for dist in dists:
        for metric in METRICS:
            counts = [[h.query_count for h in oracles]]
            with np.errstate(all="ignore"):
                got = dtree.exact_distance(f, g, dist, metric)
                counts.append([h.query_count for h in oracles])
                want = ref_distance(f, g, dist, metric)
                counts.append([h.query_count for h in oracles])
            assert bits([got]) == bits([want]), (dist, metric, got, want)
            assert np.array_equal(np.subtract(counts[1], counts[0]), np.subtract(counts[2], counts[1]))


def assert_same_trees(n, seed):
    dists = distributions(n, seed)
    table = special_table(n, seed + 1)
    f, tree, cut = decomposition(n, seed)
    g = ValueOracle.from_table(special_table(n, seed + 2))
    cases = [
        (ValueOracle.from_table(table), special_tree(n, seed), []),
        (f, tree, [f]),
        (f, cut, [f]),
        (table, tree, [f]),
        (table, cut, [f]),
        (cut, table, [f]),  # a tree first: read as the second argument
        (tree, cut, [f]),  # two trees: the first one made into a table
        (f, with_oracle_leaves(tree, g), [f, g]),  # object leaves: one window
    ]
    for case in cases:
        assert_same(*case, dists)


@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 20])
def test_tree_distances_match_the_whole_table_route(n):
    # seed 0: a coverage function, whose decompositions have many leaves
    assert_same_trees(n, seed=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 10), seed=st.integers(0, 10_000), block=st.sampled_from([4, 8, 16]))
def test_small_blocks_cross_many_windows(n, seed, block):
    # blocks of a few points make cells of a few points and windows of
    # _SUM_POINTS points, so at n = 10 a tree crosses eight windows
    with mock.patch.object(dtree, "_BLOCK_POINTS", block):
        assert_same_trees(n, seed)


def test_disagreement_under_weights_sums_the_differing_weights_at_once():
    # the weights of a table's differing points, over several windows, are
    # added in one np.sum, as the whole table's were
    n = 17
    f, tree, cut = decomposition(n, 0)
    dist = distributions(n, 0)[1]
    got = dtree.exact_distance(tree, cut, dist, "disagreement")
    assert got > 0.0
    assert bits([got]) == bits([ref_distance(tree, cut, dist, "disagreement")])


def assert_same_stack(fs, trees, block):
    """exact_distances of a stack on the window route and on the reference
    route: the same bits, and the same queries charged to the oracles."""
    n = fs[0].n
    oracles = list({id(h): h for t in trees for h in [t.source, *fs] if h is not None}.values())
    for metric in METRICS:
        counts = [[h.query_count for h in oracles]]
        with mock.patch.object(dtree, "_BLOCK_POINTS", block), np.errstate(all="ignore"):
            got = dtree.exact_distances(fs, trees, metric)
            counts.append([h.query_count for h in oracles])
            tf = np.concatenate([h.table() for h in fs])
            tg = np.concatenate([dtree.tree_table(t) for t in trees])
            want = ref_distances(tf, tg, n, None, metric)
            counts.append([h.query_count for h in oracles])
        assert bits(got) == bits(want)
        assert np.array_equal(np.subtract(counts[1], counts[0]), np.subtract(counts[2], counts[1]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 10), seed=st.integers(0, 10_000), count=st.integers(1, 40),
       block=st.sampled_from([4, 16, 1 << 16]), own=st.booleans())
def test_stacks_of_mixed_trees_match_the_whole_table_route(n, seed, count, block, own):
    # decompositions, their truncations, constant trees and trees with
    # object leaves in one stack; the trees at their oracles' positions
    # (``own``) or shifted by one
    fs, trees = [], []
    for k in range(count):
        f, tree, cut = decomposition(n, seed + k)
        fs.append(f)
        trees.append((tree, cut, special_tree(n, seed + k), with_oracle_leaves(tree, f))[(seed + k) % 4])
    assert_same_stack(fs, trees if own else trees[1:] + trees[:1], block)


@pytest.mark.parametrize("block", [4, 1 << 16])
def test_stacks_of_decompositions_only_match_the_whole_table_route(block):
    # every tree a decomposition or a truncation of the oracle at its
    # position: the oracles' stack is read as the trees' sources, in runs of
    # whole tables, and across several runs
    pairs = [decomposition(6, k) for k in range(1200)]
    assert_same_stack([f for f, _, _ in pairs], [p[1 + k % 2] for k, p in enumerate(pairs)], block)


def test_the_reader_fills_no_buffer_larger_than_a_block():
    # at n = 20 a tree's values are written a window of _BLOCK_POINTS
    # points at a time: no array of 2^n values is made for a distance
    f, tree, cut = decomposition(20, 1)
    sizes = []
    windows = dtree._cube_values

    def spy(*args, **kwargs):
        for start, values, levels in windows(*args, **kwargs):
            sizes.append(values.size)
            yield start, values, levels

    with mock.patch.object(dtree, "_cube_values", spy):
        for g in (tree, cut):
            assert dtree.exact_distance(f, g, metric="l1") >= 0.0
            assert dtree.exact_distances([f], [g], metric="l2")[0] >= 0.0
    assert len(sizes) == 4 << 4 and set(sizes) == {dtree._BLOCK_POINTS}
