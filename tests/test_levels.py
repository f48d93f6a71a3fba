"""`random_tree`, `truncate` and `evaluate_many` on the array form against
the recursive code they replaced, bit for bit.

`random_tree` draws its nodes depth first and `truncate` keeps the nodes
above a depth; both build their trees through `dtree.from_levels`, and
`evaluate_many` descends the preorder arrays one depth level at a time.  The
references below are the recursions the package ran before: `grow`, which
drew the same rng stream into `Node` objects, `cut`, which rebuilt the nodes
above the depth, and `walk`, which split the points at each node.  Trees
(JSON bytes, rank, depth, size, leaf masks and leaf values as bits), values
at points and query charges must be equal.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tree_text, with_oracle_leaves
from submodtree import dtree
from submodtree.decompose import build_lipschitz_trees, build_monotone_tree
from submodtree.dtree import ConstLeaf, DecisionTree, Node, OracleLeaf
from submodtree.funcs import GENERATED_FAMILIES, ValueOracle, generate_random, instantiate, restrict
from test_flat import bits, ref_depth, ref_leaf_subcubes, ref_rank

# --- references: the recursions ------------------------------------------------------


def ref_random_tree(n, seed, leaf_prob=None, max_depth=None):
    rng = np.random.default_rng((0x7EEE, seed, n))
    if leaf_prob is None:
        leaf_prob = float(rng.uniform(0.15, 0.6))
    if max_depth is None:
        max_depth = n

    def grow(available, depth, force_split):
        stop = not available or depth >= max_depth
        if not stop and not force_split:
            stop = rng.random() < leaf_prob
        if stop:
            return ConstLeaf(float(rng.uniform(0.0, 1.0)))
        k = int(rng.integers(len(available)))
        var = available[k]
        rest = available[:k] + available[k + 1:]
        return Node(var, grow(rest, depth + 1, False), grow(rest, depth + 1, False))

    return DecisionTree(n, grow(list(range(n)), 0, n > 0))


def ref_truncate(tree, d):
    def cut(node, remaining):
        if not isinstance(node, Node):
            return node
        if remaining == 0:
            return ConstLeaf(0.0)
        return Node(node.var, cut(node.lo, remaining - 1), cut(node.hi, remaining - 1))

    return DecisionTree(tree.n, cut(tree.root, d))


def ref_evaluate_many(tree, xs):
    xs = np.asarray(xs, dtype=np.int64)
    out = np.empty(xs.shape)

    def walk(node, at):
        if not at.size:
            return
        if isinstance(node, Node):
            hi = (xs[at] >> node.var) & 1 == 1
            walk(node.lo, at[~hi])
            walk(node.hi, at[hi])
        elif isinstance(node, ConstLeaf):
            out[at] = node.value
        else:
            points, local = xs[at], np.zeros(at.shape, dtype=np.int64)
            for j, g in enumerate(node.free):
                local |= ((points >> g) & 1) << j
            out[at] = node.oracle.eval_many(local)

    walk(tree.root, np.arange(xs.size))
    return out


# --- comparisons ---------------------------------------------------------------------


def leaf_values(leaves):
    return [lf.value if isinstance(lf, ConstLeaf) else 0.0 for lf in leaves]


def assert_same_tree(tree, ref):
    """The same shape, coordinates, leaf masks, leaf kinds and leaf values,
    read from the array form against the reference's nodes; the JSON bytes
    when every leaf is a constant."""
    leaves, tested, fixed = ref_leaf_subcubes(ref)
    assert tree.n == ref.n
    assert dtree.rank(tree) == ref_rank(ref.root)
    assert dtree.tree_depth(tree) == ref_depth(ref.root)
    assert dtree.tree_size(tree) == len(leaves)
    assert tree.tested.tolist() == tested.tolist() and tree.fixed.tolist() == fixed.tolist()
    assert tree.oracle.tolist() == [isinstance(lf, OracleLeaf) for lf in leaves]
    assert bits(tree.value) == bits(leaf_values(leaves))
    got = ref_leaf_subcubes(tree)[0]
    assert [type(lf) for lf in got] == [type(lf) for lf in leaves]
    assert bits(leaf_values(got)) == bits(leaf_values(leaves))
    if not tree.oracle.any():
        assert tree_text(tree) == tree_text(ref)


def relabeled(tree, values):
    """The shape of ``tree`` with its leaves taken from ``values`` in turn."""
    it = itertools.cycle(values)

    def walk(node):
        if isinstance(node, Node):
            return Node(node.var, walk(node.lo), walk(node.hi))
        return ConstLeaf(next(it))

    return DecisionTree(tree.n, walk(tree.root))


def mixed(tree, f, seed):
    """The shape of ``tree`` with oracle leaves of f, some made constants."""
    rng = np.random.default_rng(seed)

    def walk(node):
        if isinstance(node, Node):
            return Node(node.var, walk(node.lo), walk(node.hi))
        return node if rng.random() < 0.5 else ConstLeaf(float(rng.random()))

    return DecisionTree(tree.n, walk(with_oracle_leaves(tree, f).root))


def assert_same_values(tree, ref, f, f_ref, xs):
    """evaluate_many against the walk, and the queries each charges; the
    walk took 1-D arrays only, and the values of others keep their shape, as
    `ValueOracle.eval_many` keeps it."""
    got, want = dtree.evaluate_many(tree, xs), ref_evaluate_many(ref, xs.reshape(-1)).reshape(xs.shape)
    assert got.shape == want.shape and bits(got) == bits(want)
    assert f.query_count == f_ref.query_count


SPECIAL = [-0.0, 0.0, 5e-324, 0.1, math.nan, math.inf, -math.inf, 1, 10**20]


# --- random_tree -----------------------------------------------------------------------


def test_random_trees_draw_the_recursive_trees_at_every_dimension():
    for n, seed in itertools.product(range(13), range(30)):
        assert_same_tree(dtree.random_tree(n, seed), ref_random_tree(n, seed))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    leaf_prob=st.sampled_from([None, 0.0, 0.3, 1.0]),
    data=st.data(),
)
def test_random_trees_draw_the_recursive_trees(n, seed, leaf_prob, data):
    max_depth = data.draw(st.one_of(st.none(), st.integers(0, n + 1)))
    tree = dtree.random_tree(n, seed, leaf_prob=leaf_prob, max_depth=max_depth)
    ref = ref_random_tree(n, seed, leaf_prob=leaf_prob, max_depth=max_depth)
    assert_same_tree(tree, ref)
    assert tree == ref


# --- truncate --------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    values=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=1, max_size=8),
    built=st.booleans(),
)
def test_truncations_match_the_recursive_cut(n, seed, values, built):
    # a hand-built tree keeps its leaf objects; one from the arrays has none
    tree = relabeled(dtree.random_tree(n, seed), values)
    if not built:
        tree = tree.with_constants(np.zeros(0))
    for d in range(dtree.tree_depth(tree) + 2):
        assert_same_tree(dtree.truncate(tree, d), ref_truncate(tree, d))
        assert_same_tree(dtree.truncate(dtree.truncate(tree, d + 1), d), ref_truncate(tree, d))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 9), seed=st.integers(0, 10_000), kind=st.sampled_from(["oracle", "mixed"]))
def test_truncations_of_oracle_leaves_read_and_charge_as_the_cut(n, seed, kind):
    t = np.random.default_rng(seed).uniform(-1.0, 1.0, size=1 << n)
    f, f_ref = ValueOracle.from_table(t), ValueOracle.from_table(t.copy())
    shape = dtree.random_tree(n, seed)
    make = with_oracle_leaves if kind == "oracle" else (lambda tree, g: mixed(tree, g, seed))
    tree, ref = make(shape, f), make(shape, f_ref)
    xs = np.random.default_rng(seed).integers(0, 1 << n, size=(4, 25), dtype=np.int64)
    for d in range(dtree.tree_depth(tree) + 1):
        cut, ref_cut = dtree.truncate(tree, d), ref_truncate(ref, d)
        assert_same_tree(cut, ref_cut)
        assert bits(dtree.tree_table(cut)) == bits(dtree.tree_table(ref_cut))
        assert f.query_count == f_ref.query_count
        assert_same_values(cut, ref_cut, f, f_ref, xs)


def decompositions(specs, cap, monkeypatch):
    """Two builds of each spec, one to read through the arrays and one
    through ``tree.root``, with the enumeration cap at ``cap`` when given."""
    if cap is not None:
        monkeypatch.setenv("SUBMODTREE_ENUM_CAP", str(cap))
    fs, fs_ref = [instantiate(s) for s in specs], [instantiate(s) for s in specs]
    if cap is None:
        trees = [r.tree for r in build_lipschitz_trees(fs, 0.25, certify=False)]
        refs = [r.tree for r in build_lipschitz_trees(fs_ref, 0.25, certify=False)]
    else:
        trees = [build_monotone_tree(f, 0.25, check=False, certify=False).tree for f in fs]
        refs = [build_monotone_tree(f, 0.25, check=False, certify=False).tree for f in fs_ref]
    return zip(fs, fs_ref, trees, refs)


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(2, 10),
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
    cap=st.sampled_from([None, 1, 3]),
)
def test_decompositions_truncate_and_evaluate_as_their_restricted_leaves(family, n, seeds, cap):
    # within the cap the leaves read the cached table; beyond it (the cap
    # lowered below n) they evaluate the source, and the tables of trees
    # built there, read within the cap, come from the leaves' objects
    specs = [generate_random(family, n, seed) for seed in seeds]
    xs = np.random.default_rng(n).integers(0, 1 << n, size=64, dtype=np.int64)
    cuts = []
    with pytest.MonkeyPatch.context() as mp:
        for f, f_ref, tree, ref in decompositions(specs, cap, mp):
            assert_same_values(tree, ref, f, f_ref, xs)
            for d in range(dtree.tree_depth(tree) + 1):
                cut, ref_cut = dtree.truncate(tree, d), ref_truncate(ref, d)
                assert_same_tree(cut, ref_cut)
                assert cut.source is f
                assert_same_values(cut, ref_cut, f, f_ref, xs)
                cuts.append((f, f_ref, tree, ref, d, ref_cut))
    for f, f_ref, tree, ref, d, ref_cut in cuts:
        views = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dtree, "restrict", lambda *a: views.append(a) or restrict(*a))
            got = dtree.exact_distance(tree, dtree.truncate(tree, d), metric="disagreement")
        want = dtree.exact_distance(ref, ref_cut, metric="disagreement")
        assert bits([got]) == bits([want])
        assert f.query_count == f_ref.query_count
        # a cached table is read where it lies, with no view per leaf
        assert views == [] or not f.cached


# --- evaluate_many ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    values=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=1, max_size=8),
    shape=st.sampled_from([(0,), (1,), (40,), (3, 7)]),
)
def test_evaluate_many_matches_the_recursive_walk(n, seed, values, shape):
    tree = relabeled(dtree.random_tree(n, seed), values)
    xs = np.random.default_rng(seed).integers(0, 1 << n, size=shape, dtype=np.int64)
    f = ValueOracle.from_table(np.zeros(1))
    assert_same_values(tree, tree, f, f, xs)
    assert_same_values(dtree.truncate(tree, dtree.tree_depth(tree)), tree, f, f, xs)
