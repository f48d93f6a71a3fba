"""Level-synchronous decomposition and one-pass leaf tables against references.

The references below are the code the package ran before the decomposition
grew one depth level at a time: recursive growers that query one point at a
time and restrict every leaf, a per-leaf `np.mean`, and recursive table and
profile fills that query each oracle leaf on its own.  The new code must give
the same trees, leaf order, free coordinates, leaf tables, leaf means and
query charges, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_table, with_oracle_leaves
from submodtree import decompose, dtree
from submodtree.cube import check_enumerable, enum_cap
from submodtree.decompose import (
    DecompositionReport,
    _means,
    build_exact_discrete_tree,
    build_lipschitz_tree,
    build_monotone_tree,
    constantize_leaves,
    default_mean_samples,
    proper_learn_discrete,
)
from submodtree.dtree import ConstLeaf, DecisionTree, Node, OracleLeaf
from submodtree.funcs import (
    GENERATED_FAMILIES,
    TOL,
    Restriction,
    ValueOracle,
    generate_random,
    instantiate,
    restrict,
)
from test_certify import certify

ALPHAS = (0.02, 0.05, 0.1, 0.25, 1 / 3, 0.5, 1.0)

# --- references -----------------------------------------------------------------


def discrete_level(f, tol=TOL):
    """Smallest k <= 64 with all values of f on the grid {0, 1/k, ..., 1}, if any."""
    t = f.table()
    for k in range(1, 65):
        scaled = t * k
        if np.max(np.abs(scaled - np.round(scaled))) <= tol * k:
            return k
    return None


def ref_leaf_for(f, fixed):
    r = Restriction(f.n, dict(fixed))
    return OracleLeaf(restrict(f, r), r.free)


def ref_grow_monotone(f, alpha, fixed, leaf):
    base = 0
    for i, b in fixed.items():
        if b:
            base |= 1 << i
    f_base = f(base)
    for i in range(f.n):
        if i in fixed:
            continue
        if f(base | (1 << i)) - f_base > alpha + TOL:
            lo = ref_grow_monotone(f, alpha, {**fixed, i: 0}, leaf)
            hi = ref_grow_monotone(f, alpha, {**fixed, i: 1}, leaf)
            return Node(i, lo, hi)
    return leaf(fixed)


def ref_grow_flipped(f, alpha, fixed):
    top = 0
    for i in range(f.n):
        if fixed.get(i, 1):
            top |= 1 << i
    f_top = f(top)
    for i in range(f.n):
        if i in fixed:
            continue
        if f_top - f(top ^ (1 << i)) < -(alpha + TOL):
            lo = ref_grow_flipped(f, alpha, {**fixed, i: 0})
            hi = ref_grow_flipped(f, alpha, {**fixed, i: 1})
            return Node(i, lo, hi)
    return ref_leaf_for(f, fixed)


def ref_build(f, alpha, phases):
    """The recursive construction: monotone rule, then the flipped rule inside
    each of its leaves when ``phases`` is 2."""
    if f.n <= enum_cap():
        f.table()
    if phases == 1:
        leaf = lambda fixed: ref_leaf_for(f, fixed)  # noqa: E731
    else:
        leaf = lambda fixed: ref_grow_flipped(f, alpha, fixed)  # noqa: E731
    return DecisionTree(f.n, ref_grow_monotone(f, alpha, {}, leaf))


def ref_evaluate(tree, x):
    """The tree's value at one point, down its nodes."""
    if x < 0 or x >> tree.n:
        raise ValueError(f"point {x} outside dimension {tree.n}")
    node = tree.root
    while isinstance(node, Node):
        node = node.hi if (x >> node.var) & 1 else node.lo
    if isinstance(node, ConstLeaf):
        return node.value
    local = 0
    for k, g in enumerate(node.free):
        if (x >> g) & 1:
            local |= 1 << k
    return node.oracle(local)


def ref_map_leaves(node, fn):
    if isinstance(node, OracleLeaf):
        return fn(node)
    if isinstance(node, Node):
        return Node(node.var, ref_map_leaves(node.lo, fn), ref_map_leaves(node.hi, fn))
    return node


def ref_constantize(report, mc_samples=None, seed=0):
    """Leaf means one leaf at a time, as `constantize_leaves` computed them."""
    used = []

    def mean_of(leaf):
        if leaf.oracle.n == 0:
            return leaf.oracle(0)
        if leaf.oracle.n <= enum_cap():
            t = leaf.oracle.table()
            if np.all(t == t[0]):
                return float(t[0])
            return float(np.mean(t))
        m = mc_samples if mc_samples is not None else default_mean_samples(report.alpha)
        used.append(m)
        rng = np.random.default_rng((0xC0457, seed, leaf.free))
        xs = rng.integers(0, 1 << leaf.oracle.n, size=m, dtype=np.int64)
        return float(np.mean(leaf.oracle.eval_many(xs)))

    root = ref_map_leaves(report.tree.root, lambda lf: ConstLeaf(mean_of(lf)))
    return DecisionTree(report.tree.n, root), (used[0] if used else None)


def ref_to_const(leaf):
    if leaf.oracle.n == 0:
        return ConstLeaf(leaf.oracle(0))
    return ConstLeaf(float(leaf.oracle.table()[0]))


def ref_fill_table(node, idx, out):
    if isinstance(node, ConstLeaf):
        out[idx] = node.value
        return
    if isinstance(node, OracleLeaf):
        local = np.zeros(idx.shape, dtype=np.int64)
        for k, g in enumerate(node.free):
            local |= ((idx >> g) & 1) << k
        out[idx] = node.oracle.eval_many(local)
        return
    bit = (idx >> node.var) & 1
    ref_fill_table(node.lo, idx[bit == 0], out)
    ref_fill_table(node.hi, idx[bit == 1], out)


def ref_tree_table(tree):
    check_enumerable(tree.n, "tree table")
    out = np.empty(1 << tree.n, dtype=float)
    ref_fill_table(tree.root, np.arange(1 << tree.n, dtype=np.int64), out)
    return out


def ref_fill_profile(node, idx, depth, vals, depths):
    if isinstance(node, Node):
        bit = (idx >> node.var) & 1
        ref_fill_profile(node.lo, idx[bit == 0], depth + 1, vals, depths)
        ref_fill_profile(node.hi, idx[bit == 1], depth + 1, vals, depths)
        return
    depths[idx] = depth
    if isinstance(node, ConstLeaf):
        vals[idx] = node.value
        return
    local = np.zeros(idx.shape, dtype=np.int64)
    for k, g in enumerate(node.free):
        local |= ((idx >> g) & 1) << k
    vals[idx] = node.oracle.eval_many(local)


def ref_leaf_profile(tree):
    vals = np.empty(1 << tree.n, dtype=float)
    depths = np.empty(1 << tree.n, dtype=np.int64)
    ref_fill_profile(tree.root, np.arange(1 << tree.n, dtype=np.int64), 0, vals, depths)
    return vals, depths


# --- comparison -----------------------------------------------------------------


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_tree(got, want):
    """Same shape, split coordinates, leaf order, free tuples and leaf values,
    bit for bit; oracle leaves are read on their whole cube."""
    assert got.n == want.n
    a, b = [got.root], [want.root]
    while a:
        x, y = a.pop(), b.pop()
        assert type(x) is type(y)
        if isinstance(x, Node):
            assert x.var == y.var
            a += [x.hi, x.lo]
            b += [y.hi, y.lo]
        elif isinstance(x, OracleLeaf):
            assert x.free == y.free and x.oracle.n == y.oracle.n
            cube = np.arange(1 << x.oracle.n, dtype=np.int64)
            assert bits(x.oracle.eval_many(cube)) == bits(y.oracle.eval_many(cube))
        else:
            assert bits(x.value) == bits(y.value)
    assert not b


BUILDERS = {1: build_monotone_tree, 2: build_lipschitz_tree}


def assert_same_growth(make_f, alpha, phases):
    """The frontier against the recursive growers, on fresh copies of one input:
    trees, charges, and certificates against `certify` on the finished tree."""
    f, f_ref, f_cert = make_f(), make_f(), make_f()
    got = BUILDERS[phases](f, alpha, check=False, certify=False)
    want = ref_build(f_ref, alpha, phases)
    assert f.query_count == f_ref.query_count
    assert got.leaf_certificates == []
    assert_same_tree(got.tree, want)
    report = BUILDERS[phases](f_cert, alpha, check=False)
    assert report.leaf_certificates == certify(report.tree, alpha)
    return got


family_inputs = st.tuples(
    st.sampled_from(GENERATED_FAMILIES),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=10_000),
)


# --- growth -----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(inp=family_inputs, alpha=st.sampled_from(ALPHAS), phases=st.sampled_from([1, 2]))
def test_frontier_matches_recursive_growth_on_families(inp, alpha, phases):
    family, n, seed = inp
    spec = generate_random(family, n, seed)
    assert_same_growth(lambda: instantiate(spec), alpha, phases)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from(ALPHAS),
    phases=st.sampled_from([1, 2]),
    cap=st.sampled_from([None, 1, 3]),
)
def test_frontier_matches_recursive_growth_on_tables(n, seed, alpha, phases, cap):
    # grid tables put derivatives exactly at alpha + TOL and -(alpha + TOL),
    # where a split must not happen; below n, the cap makes the
    # frontier probe through eval_many instead of gathering from the table
    t = random_table(n, seed, alpha)
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setenv("SUBMODTREE_ENUM_CAP", str(cap))
        assert_same_growth(lambda: ValueOracle.from_table(t), alpha, phases)


def test_a_derivative_exactly_at_the_bound_does_not_split():
    alpha = 0.25
    at_bound = alpha + TOL
    mono = ValueOracle.from_table([0.0, at_bound, 0.0, 2 * at_bound])
    assert isinstance(build_monotone_tree(mono, alpha, check=False).tree.root, OracleLeaf)
    flipped = ValueOracle.from_table([0.0, 0.0, at_bound, 0.0])
    assert isinstance(build_lipschitz_tree(flipped, alpha, check=False).tree.root, OracleLeaf)
    # the first coordinate that passes is the split, not the largest derivative
    both = ValueOracle.from_table([0.0, 0.5, 0.9, 0.9])
    assert build_monotone_tree(both, alpha, check=False).tree.root.var == 0


@settings(max_examples=40, deadline=None)
@given(
    inp=family_inputs,
    cap=st.integers(min_value=1, max_value=3),
    alpha=st.sampled_from(ALPHAS),
    phases=st.sampled_from([1, 2]),
)
def test_frontier_matches_recursive_growth_above_the_cap(inp, cap, alpha, phases):
    family, n, seed = inp
    assume(n > cap)
    spec = generate_random(family, n, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SUBMODTREE_ENUM_CAP", str(cap))
        # no cached table: every probe is evaluated, and leaves are restrictions
        assert_same_growth(lambda: instantiate(spec), alpha, phases)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(("coverage", "cut", "matroid_rank_partition")),
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_exact_discrete_trees_match(family, n, seed):
    spec = generate_random(family, n, seed)
    f, f_ref = instantiate(spec), instantiate(spec)
    k = discrete_level(f)
    assume(k is not None)
    got = build_exact_discrete_tree(f, k, check=False, certify=False)
    ref = ref_build(f_ref, 1.0 / (k + 1.0 / 3.0), 2)
    want = DecisionTree(n, ref_map_leaves(ref.root, ref_to_const))
    assert f.query_count == f_ref.query_count
    assert_same_tree(got.tree, want)


# --- leaf means -------------------------------------------------------------------


# sizes around numpy's 8-element unrolled blocks and 128-element pairwise blocks
MEAN_SIZES = (1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1000)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_grouped_means_equal_per_table_np_mean(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.choice(MEAN_SIZES, size=int(rng.integers(1, 40)))
    tables = []
    for s in sizes.tolist():
        kind = rng.integers(3)
        if kind == 0:
            tables.append(np.full(s, rng.choice([0.1, 1 / 3, 0.7])))
        elif kind == 1:
            tables.append(rng.integers(0, 7, size=s) / 7)
        else:
            tables.append(rng.uniform(-1.0, 1.0, size=s) * 10.0 ** rng.integers(-3, 4))
    want = [float(t[0]) if np.all(t == t[0]) else float(np.mean(t)) for t in tables]
    # blocks as `dtree.leaf_blocks` gives them: the tables of one size as rows
    rows = [np.flatnonzero(sizes == s) for s in np.unique(sizes).tolist()]
    blocks = [(k, np.stack([tables[i] for i in k.tolist()])) for k in rows]
    assert bits(_means(blocks, len(tables))) == bits(want)


def assert_same_means(make, **kwargs):
    """constantize_leaves against per-leaf means on two copies of one report,
    with the queries each charges; ``make()`` gives (report, its oracle)."""
    (report, f), (ref_report, f_ref) = make(), make()
    before, before_ref = f.query_count, f_ref.query_count
    got = constantize_leaves(report, **kwargs)
    want, used = ref_constantize(ref_report, **kwargs)
    assert_same_tree(got, want)
    assert report.leaf_mean_samples == used
    assert f.query_count - before == f_ref.query_count - before_ref


def report_of(tree, alpha):
    rank = dtree.rank(tree)
    return DecompositionReport(tree=tree, alpha=alpha, rank=rank, claimed_rank_bound=1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=10), seed=st.integers(min_value=0, max_value=10_000))
def test_leaf_means_match_per_leaf_np_mean_on_random_shapes(n, seed):
    # random shapes at n <= 10 give leaves of 1 to 512 points
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=1 << n) * (rng.random(1 << n) < 0.7)
    shape = dtree.random_tree(n, seed=seed)

    def make():
        f = ValueOracle.from_table(t)
        return report_of(with_oracle_leaves(shape, f), 0.1), f

    assert_same_means(make)


@settings(max_examples=40, deadline=None)
@given(inp=family_inputs, alpha=st.sampled_from(ALPHAS))
def test_leaf_means_match_on_lipschitz_trees(inp, alpha):
    family, n, seed = inp
    spec = generate_random(family, n, seed)

    def make():
        f = instantiate(spec)
        return report_of(build_lipschitz_tree(f, alpha, check=False, certify=False).tree, alpha), f

    assert_same_means(make)


@pytest.mark.parametrize("cap", [2, 4])
@pytest.mark.parametrize("family", GENERATED_FAMILIES)
def test_leaf_means_match_above_the_cap(monkeypatch, family, cap):
    # leaves beyond the cap take seeded sample means; those within it are exact
    monkeypatch.setenv("SUBMODTREE_ENUM_CAP", str(cap))
    spec = generate_random(family, 8, 5)

    def make():
        f = instantiate(spec)
        return report_of(build_lipschitz_tree(f, 0.5, check=False, certify=False).tree, 0.5), f

    assert_same_means(make, mc_samples=64, seed=3)


# --- tables, profiles and batch evaluation of trees -------------------------------


def mixed_leaves(tree, f, seed):
    """The shape of ``tree`` with oracle leaves, some turned into constants."""
    rng = np.random.default_rng(seed)
    keep = lambda lf: lf if rng.random() < 0.5 else ConstLeaf(float(rng.random()))  # noqa: E731
    return DecisionTree(tree.n, ref_map_leaves(with_oracle_leaves(tree, f).root, keep))


TREE_KINDS = ("const", "oracle", "mixed")


def make_tree(kind, n, seed, f):
    shape = dtree.random_tree(n, seed=seed)
    if kind == "const":
        return shape
    if kind == "oracle":
        return with_oracle_leaves(shape, f)
    return mixed_leaves(shape, f, seed)


def table_oracles(n, seed):
    t = np.random.default_rng(seed).uniform(size=1 << n)
    return ValueOracle.from_table(t), ValueOracle.from_table(t)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(TREE_KINDS),
)
def test_tree_table_and_leaf_profile_match_recursive_fills(n, seed, kind):
    f, f_ref = table_oracles(n, seed)
    tree, ref_tree = make_tree(kind, n, seed, f), make_tree(kind, n, seed, f_ref)
    assert bits(dtree.tree_table(tree)) == bits(ref_tree_table(ref_tree))
    assert f.query_count == f_ref.query_count
    vals, depths = dtree.leaf_profile(tree)
    ref_vals, ref_depths = ref_leaf_profile(ref_tree)
    assert bits(vals) == bits(ref_vals)
    assert depths.dtype == ref_depths.dtype and np.array_equal(depths, ref_depths)
    assert f.query_count == f_ref.query_count


@settings(max_examples=40, deadline=None)
@given(inp=family_inputs, alpha=st.sampled_from(ALPHAS))
def test_tree_table_of_a_decomposition_is_the_input_table(inp, alpha):
    family, n, seed = inp
    spec = generate_random(family, n, seed)
    f, f_ref = instantiate(spec), instantiate(spec)
    tree = build_lipschitz_tree(f, alpha, check=False, certify=False).tree
    ref_tree = ref_build(f_ref, alpha, 2)
    got = dtree.tree_table(tree)
    assert bits(got) == bits(ref_tree_table(ref_tree)) == bits(f.table())
    assert f.query_count == f_ref.query_count


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(TREE_KINDS),
    cap=st.sampled_from([None, 2]),
    shape=st.sampled_from([(50,), (5, 10)]),
)
def test_evaluate_many_matches_per_point_evaluate(n, seed, kind, cap, shape):
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setenv("SUBMODTREE_ENUM_CAP", str(cap))
        spec = generate_random("budget_additive", max(n, 1), seed)
        f, f_ref = instantiate(spec), instantiate(spec)
        if n == 0:
            f, f_ref = table_oracles(0, seed)
        tree, ref_tree = make_tree(kind, n, seed, f), make_tree(kind, n, seed, f_ref)
        xs = np.random.default_rng(seed).integers(0, 1 << n, size=shape, dtype=np.int64)
        got = dtree.evaluate_many(tree, xs)
        want = [ref_evaluate(ref_tree, int(x)) for x in xs.reshape(-1)]
        assert got.shape == xs.shape and bits(got) == bits(want)
        assert f.query_count == f_ref.query_count


def test_evaluate_many_rejects_points_outside_the_dimension():
    tree = dtree.random_tree(3, seed=0)
    for bad in ([8], [-1]):
        with pytest.raises(ValueError):
            dtree.evaluate_many(tree, bad)


@pytest.mark.parametrize("seed", range(4))
def test_proper_learn_above_the_cap_matches_per_point_evaluation(monkeypatch, seed):
    spec = generate_random("matroid_rank_partition", 9, seed)
    k = discrete_level(instantiate(spec))
    monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "6")
    f, f_ref = instantiate(spec), instantiate(spec)
    got = proper_learn_discrete(f, k, [0, 1, 2, 3], seed=seed)
    per_point = lambda tree, xs: np.array([ref_evaluate(tree, int(x)) for x in xs])  # noqa: E731
    monkeypatch.setattr(decompose, "evaluate_many", per_point)
    want = proper_learn_discrete(f_ref, k, [0, 1, 2, 3], seed=seed)
    assert got.disagreement == want.disagreement and got.submodular is None
    assert_same_tree(got.tree, want.tree)
    assert f.query_count == f_ref.query_count
