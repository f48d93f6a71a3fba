"""The array form of trees against the object walkers it replaced, bit for bit.

Every consumer of a tree reads its array form (`dtree.DecisionTree`); decompositions
are built in that form straight from the level arrays of `_grow`.  The
references below are the walkers the package used before: the recursive
rank, the leaf iterator, the leaf-subcube walk, the JSON emitter, the
per-leaf means and the closure that built `Node` and `OracleLeaf` objects
from `_grow`'s arrays, with its certification.  Rank, depth, size, leaf
order, tree tables, JSON bytes, leaf means, certificates and every query
count must be equal.
"""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_certify
from conftest import leaves_of, subcube_points, tree_text, with_oracle_leaves
from submodtree import decompose, dtree, funcs
from submodtree.decompose import build_lipschitz_trees, constantize_leaves
from submodtree.dtree import ConstLeaf, DecisionTree, Node, OracleLeaf
from submodtree.funcs import GENERATED_FAMILIES, ValueOracle, full_tables, generate_random, instantiate

# --- references: the object walkers --------------------------------------------------


def ref_rank(node):
    if not isinstance(node, Node):
        return 0
    r0, r1 = ref_rank(node.lo), ref_rank(node.hi)
    return max(r0, r1) if r0 != r1 else r0 + 1


def ref_depth(node):
    if not isinstance(node, Node):
        return 0
    return 1 + max(ref_depth(node.lo), ref_depth(node.hi))


def ref_iter_leaves(node, out):
    if isinstance(node, Node):
        ref_iter_leaves(node.lo, out)
        ref_iter_leaves(node.hi, out)
    else:
        out.append(node)


def ref_leaf_subcubes(tree):
    leaves, paths, fixed = [], [], []

    def walk(node, path, bits):
        if isinstance(node, Node):
            if not 0 <= node.var < tree.n or path >> node.var & 1:
                raise ValueError(
                    f"coordinate {node.var} tested twice on a path or outside dimension {tree.n}"
                )
            bit = 1 << node.var
            walk(node.lo, path | bit, bits)
            walk(node.hi, path | bit, bits | bit)
        else:
            leaves.append(node)
            paths.append(path)
            fixed.append(bits)

    walk(tree.root, 0, 0)
    return leaves, np.array(paths, dtype=np.int64), np.array(fixed, dtype=np.int64)


def ref_table(tree):
    """The tree's table through the leaf walk, each oracle leaf charged its
    2^k points."""
    leaves, paths, fixed = ref_leaf_subcubes(tree)
    points, sizes = subcube_points(fixed, paths ^ ((1 << tree.n) - 1))
    in_order = np.repeat([lf.value if isinstance(lf, ConstLeaf) else 0.0 for lf in leaves], sizes)
    is_oracle = np.array([isinstance(lf, OracleLeaf) for lf in leaves])
    tables = full_tables([lf.oracle for lf in leaves if isinstance(lf, OracleLeaf)])
    if tables:
        in_order[np.repeat(is_oracle, sizes)] = np.concatenate(tables)
    out = np.empty(1 << tree.n)
    out[points] = in_order
    return out


def ref_json_scalar(value):
    import json

    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def ref_json(tree):
    out = io.StringIO()
    write = out.write

    def emit(node, pad):
        inner = pad + "  "
        if isinstance(node, Node):
            write(f'{{\n{inner}"hi": ')
            emit(node.hi, inner)
            write(f',\n{inner}"lo": ')
            emit(node.lo, inner)
            write(f',\n{inner}"var": {node.var + 1}\n{pad}}}')
        else:
            write(f'{{\n{inner}"leaf": {ref_json_scalar(node.value)}\n{pad}}}')

    emit(tree.root, "")
    write("\n")
    return out.getvalue()


def ref_means(tables):
    sizes = np.array([t.size for t in tables], dtype=np.int64)
    means = np.empty(len(tables))
    for size in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        block = np.stack([tables[k] for k in at.tolist()])
        row = block.mean(axis=1)
        const = (block == block[:, :1]).all(axis=1)
        row[const] = block[const, 0]
        means[at] = row
    return means


def ref_constantize(tree):
    """Every oracle leaf (within the cap) replaced by its mean, leaf by leaf."""
    leaves = []
    ref_iter_leaves(tree.root, leaves)
    oracles = [lf.oracle for lf in leaves if isinstance(lf, OracleLeaf)]
    means = iter(ref_means([g.table() if g.n else np.array([g(0)]) for g in oracles]).tolist())

    def walk(node):
        if isinstance(node, Node):
            return Node(node.var, walk(node.lo), walk(node.hi))
        return ConstLeaf(next(means)) if isinstance(node, OracleLeaf) else node

    return DecisionTree(tree.n, walk(tree.root))


def ref_build(fs, table, mask, bits, split):
    """`_grow`'s level arrays as objects: leaf views over one gather of the
    stacked table."""
    n = fs[0].n
    leaves = split < 0
    number = np.cumsum(leaves) - 1
    free = ~mask[leaves] & ((1 << n) - 1)
    points, sizes = subcube_points(bits[leaves], free)
    values = table[points]
    owners = (points[np.cumsum(sizes) - sizes] >> n).tolist()
    oracles, start = [], 0
    for size, owner in zip(sizes.tolist(), owners):
        t = values[start:start + size]
        oracles.append(ValueOracle(size.bit_length() - 1, t.__getitem__, counter=fs[owner]._counter, table=t))
        start += size
    var, numbers, masks = split.tolist(), number.tolist(), free.tolist()

    def build(node):
        if var[node] >= 0:
            lo = len(fs) + 2 * (node - numbers[node] - 1)
            return Node(var[node], build(lo), build(lo + 1))
        k = numbers[node]
        return OracleLeaf(oracles[k], tuple(i for i in range(n) if masks[k] >> i & 1))

    return [DecisionTree(n, build(k)) for k in range(len(fs))]


def ref_certify(trees, alpha):
    """Each leaf checked on its own table by the reference checkers, one leaf
    at a time.  The build skips the pair pass on a batch that passed
    `is_submodular`, so every leaf must pass it here too."""
    return [test_certify.ref_certify(tree, alpha) for tree in trees]


def ref_decompose(fs, alpha):
    """The parent's batched build: check, grow, objects, certificates, ranks."""
    n = fs[0].n
    step = max(1, dtree.STACK_POINTS >> n)
    out = []
    for k in range(0, len(fs), step):
        batch = fs[k:k + step]
        table = funcs.stacked_table(batch)
        decompose._check_submodular(batch, table, True)  # raises as the build does
        grown = decompose._grow(batch, table, [alpha], 2)
        trees = ref_build(batch, table, *grown)
        certs = ref_certify(trees, alpha)
        out += [(tree, ref_rank(tree.root), c) for tree, c in zip(trees, certs)]
    return out


# --- comparisons ---------------------------------------------------------------------


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tobytes()


def assert_same_shape(tree, ref_tree):
    ref_leaves = []
    ref_iter_leaves(ref_tree.root, ref_leaves)
    assert dtree.rank(tree) == ref_rank(ref_tree.root)
    assert dtree.tree_depth(tree) == ref_depth(ref_tree.root)
    assert dtree.tree_size(tree) == len(ref_leaves)
    flat = dtree._leaf_subcubes(tree)
    _, ref_tested, ref_fixed = ref_leaf_subcubes(ref_tree)
    assert flat.tested.tolist() == ref_tested.tolist() and flat.fixed.tolist() == ref_fixed.tolist()
    return ref_leaves


SPECIAL = [-0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, math.nan, math.inf, -math.inf]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    leaf_prob=st.sampled_from([None, 0.0, 0.3, 1.0]),
    values=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), min_size=1, max_size=8),
    data=st.data(),
)
def test_random_trees_read_as_the_walkers_read_them(n, seed, leaf_prob, values, data):
    shape = dtree.random_tree(n, seed=seed, leaf_prob=leaf_prob, max_depth=data.draw(st.integers(0, n)))
    it = itertools.cycle(values)

    def relabel(node):
        if isinstance(node, Node):
            return Node(node.var, relabel(node.lo), relabel(node.hi))
        return ConstLeaf(next(it))

    tree = DecisionTree(n, relabel(shape.root))
    ref_leaves = assert_same_shape(tree, tree)
    assert all(a is b for a, b in zip(leaves_of(tree), ref_leaves, strict=True))
    assert tree_text(tree) == ref_json(tree)
    assert bits(dtree.tree_table(tree)) == bits(ref_table(tree))
    # the same tree made from its array form builds equal nodes on demand
    again = dtree.truncate(tree, dtree.tree_depth(tree))
    assert tree_text(again) == ref_json(tree)
    assert ref_json(again) == ref_json(tree)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
def test_trees_with_oracle_leaves_charge_as_the_walk_charged(n, seed):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size=1 << n)
    f, f_ref = ValueOracle.from_table(t), ValueOracle.from_table(t.copy())
    shape = dtree.random_tree(n, seed=seed)
    tree, ref_tree = with_oracle_leaves(shape, f), with_oracle_leaves(shape, f_ref)
    assert_same_shape(tree, ref_tree)
    assert bits(dtree.tree_table(tree)) == bits(ref_table(ref_tree))
    assert f.query_count == f_ref.query_count
    means = constantize_leaves(decompose.DecompositionReport(tree, 0.5, 0, 1.0))
    assert tree_text(means) == ref_json(ref_constantize(ref_tree))
    assert f.query_count == f_ref.query_count


def assert_same_decompositions(specs, alpha):
    fs = [instantiate(spec) for spec in specs]
    fs_ref = [instantiate(spec) for spec in specs]
    reports = build_lipschitz_trees(fs, alpha)
    refs = ref_decompose(fs_ref, alpha)
    assert [f.query_count for f in fs] == [f.query_count for f in fs_ref]
    n = fs[0].n
    errs = dtree.exact_distances(fs, [r.tree for r in reports], metric="l1")
    ref_errs = [
        dtree._distances(f.table(), ref_table(tree), n, None, "l1")[0]
        for f, (tree, _, _) in zip(fs_ref, refs)
    ]
    assert bits(errs) == bits(ref_errs)
    assert [f.query_count for f in fs] == [f.query_count for f in fs_ref]
    for f, f_ref, report, (ref_tree, ref_rank_, ref_certs) in zip(fs, fs_ref, reports, refs):
        ref_leaves = assert_same_shape(report.tree, ref_tree)
        assert report.rank == ref_rank_
        assert report.leaf_certificates == ref_certs
        leaves = leaves_of(report.tree)
        assert [lf.free for lf in leaves] == [lf.free for lf in ref_leaves]
        for lf, ref_lf in zip(leaves, ref_leaves):
            assert lf.oracle._counter is f._counter
            assert bits(lf.oracle.table()) == bits(ref_lf.oracle.table())
        means, ref_means_ = constantize_leaves(report), ref_constantize(ref_tree)
        assert f.query_count == f_ref.query_count
        assert bits(means.value) == bits([lf.value for lf in leaves_of(ref_means_)])
        assert tree_text(means) == ref_json(ref_means_)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(4, 10),
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
    alpha=st.sampled_from([0.05, 0.25, 0.5]),
)
def test_batched_corpus_decompositions_match_the_object_build(n, seeds, alpha):
    specs = [generate_random(family, n, seed) for family in GENERATED_FAMILIES for seed in seeds]
    assert_same_decompositions(specs, alpha)
    for spec in specs:
        assert_same_beyond_the_cap(spec, alpha)


def assert_same_beyond_the_cap(spec, alpha):
    """A build within the enumeration cap against one beyond it, the cap set
    to the largest leaf dimension: the same shape, leaf tables read through
    ``tree.root``, certificates, means and query counts."""
    f, g = instantiate(spec), instantiate(spec)
    report = build_lipschitz_trees([f], alpha)[0]
    means = constantize_leaves(report)
    leaves = []
    ref_iter_leaves(report.tree.root, leaves)
    top = max(lf.oracle.n for lf in leaves)
    if top == f.n:
        return  # a one-leaf tree: its leaf is beyond any cap below n
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SUBMODTREE_ENUM_CAP", str(max(top, 1)))
        beyond = build_lipschitz_trees([g], alpha)[0]
        beyond_means = constantize_leaves(beyond)
        beyond_leaves = []
        ref_iter_leaves(beyond.tree.root, beyond_leaves)
        assert [lf.free for lf in beyond_leaves] == [lf.free for lf in leaves]
        for lf, ref_lf in zip(beyond_leaves, leaves, strict=True):
            assert bits(lf.oracle.table()) == bits(ref_lf.oracle.table())
    assert beyond.leaf_certificates == report.leaf_certificates
    assert beyond_means.n == means.n and ref_json(beyond_means) == ref_json(means)
    assert beyond.leaf_mean_samples is report.leaf_mean_samples is None
    assert g.query_count == f.query_count


def test_a_grown_tree_holds_no_copy_of_the_table():
    # its leaves read the input's table where it lies: a tree of 470 leaves
    # at n = 16 holds its nodes and masks, not 2^16 values of 8 bytes
    f = instantiate(generate_random("coverage", 16, 1))
    report = build_lipschitz_trees([f], 0.1)[0]
    tree = report.tree
    assert tree.oracle.size == 470 and tree.leaves is None
    held = sum(a.nbytes for a in (getattr(tree, name) for name in DecisionTree.__slots__) if isinstance(a, np.ndarray))
    assert held < 8 * (1 << 16) // 8
    # reading the leaves' tables and means leaves the tree as it was
    dtree.tree_table(report.tree)
    constantize_leaves(report)
    assert sum(a.nbytes for a in (getattr(tree, name) for name in DecisionTree.__slots__) if isinstance(a, np.ndarray)) == held


@settings(max_examples=4, deadline=None)
@given(
    family=st.sampled_from(["matroid_rank_partition", "budget_additive"]),
    n=st.integers(12, 16),
    seed=st.integers(0, 10_000),
    alpha=st.sampled_from([0.05, 0.25, 0.5]),
)
def test_deep_tree_decompositions_match_the_object_build(family, n, seed, alpha):
    assert_same_decompositions([generate_random(family, n, seed)], alpha)


def test_a_path_that_tests_a_coordinate_twice_is_rejected_at_its_first_node():
    # the first offending node in preorder names the error, as the walk did
    tree = DecisionTree(3, Node(0, Node(2, ConstLeaf(0.0), Node(2, ConstLeaf(1.0), ConstLeaf(2.0))),
                                Node(0, ConstLeaf(3.0), ConstLeaf(4.0))))
    for fn in (dtree._leaf_subcubes, ref_leaf_subcubes):
        with pytest.raises(ValueError) as raised:
            fn(tree)
        assert str(raised.value) == "coordinate 2 tested twice on a path or outside dimension 3"
