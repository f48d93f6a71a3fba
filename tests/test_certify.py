"""Strided checkers and whole-tree leaf certification against references.

The reference functions below are the checkers the package used before they
became strided passes: each pair or coordinate gathered its points through
``np.arange`` masks, and a decomposition was certified by running the three
checkers on every leaf restriction.  The new checkers must return the same
``ok``, ``witness`` and ``extreme``, and whole-tree certification the same
certificates, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import leaf_map, leaves_of, random_table, with_oracle_leaves
from submodtree import decompose, dtree
from submodtree.cube import check_enumerable, enum_cap
from submodtree.decompose import (
    LeafCertificate,
    _certify,
    build_lipschitz_tree,
    build_monotone_tree,
    constantize_leaves,
)
from submodtree.dtree import ConstLeaf, DecisionTree, Node, OracleLeaf
from submodtree.funcs import (
    GENERATED_FAMILIES,
    TOL,
    CheckResult,
    Restriction,
    ValueOracle,
    generate_random,
    instantiate,
    is_alpha_monotone_decreasing,
    is_monotone,
    is_submodular,
    lipschitz_constant,
    restrict,
)

# --- references ---------------------------------------------------------------


def ref_derivative_table(table, n, i):
    idx = np.arange(1 << n)
    lo = idx[(idx >> i) & 1 == 0]
    return table[lo | (1 << i)] - table[lo], lo


def ref_is_submodular(f, tol=TOL):
    check_enumerable(f.n, "submodularity check")
    t = f.table()
    n = f.n
    idx = np.arange(1 << n)
    worst = -np.inf
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            base = idx[((idx >> i) & 1 == 0) & ((idx >> j) & 1 == 0)]
            dd = t[base | bi | bj] - t[base | bi] - t[base | bj] + t[base]
            k = int(np.argmax(dd))
            if dd[k] > worst:
                worst = float(dd[k])
            if dd[k] > tol:
                return CheckResult(False, (i, j, int(base[k])), float(dd[k]))
    return CheckResult(True, None, worst)


def ref_is_monotone(f, tol=TOL):
    t = f.table()
    for i in range(f.n):
        d, lo = ref_derivative_table(t, f.n, i)
        k = int(np.argmin(d))
        if d[k] < -tol:
            return CheckResult(False, (i, int(lo[k])), float(d[k]))
    return CheckResult(True)


def ref_is_alpha_monotone_decreasing(f, alpha, tol=TOL):
    t = f.table()
    for i in range(f.n):
        d, lo = ref_derivative_table(t, f.n, i)
        k = int(np.argmax(d))
        if d[k] > alpha + tol:
            return CheckResult(False, (i, int(lo[k])), float(d[k]))
    return CheckResult(True)


def ref_lipschitz_constant(f):
    t = f.table()
    worst = 0.0
    for i in range(f.n):
        d, _ = ref_derivative_table(t, f.n, i)
        if d.size:
            worst = max(worst, float(np.max(np.abs(d))))
    return worst


def certify(tree, alpha):
    """`_certify` of one tree, as `_decompose` calls it."""
    return _certify([tree], [alpha])[0]


def ref_certify(tree, alpha):
    """Per-leaf certification: the three checkers on each leaf restriction."""
    leaves = leaves_of(tree)
    certs = []
    for lf in leaves:
        if not isinstance(lf, OracleLeaf):
            certs.append(LeafCertificate(True, True, True))
        elif lf.oracle.n > enum_cap():
            certs.append(LeafCertificate(None, None, None))
        else:
            mono = bool(ref_is_alpha_monotone_decreasing(lf.oracle, alpha))
            lip = ref_lipschitz_constant(lf.oracle) <= alpha + TOL
            sub = bool(ref_is_submodular(lf.oracle))
            certs.append(LeafCertificate(mono, lip, sub))
    return certs


def ref_leaf_of(tree, x):
    """Preorder index (lo before hi) of the leaf that point x reaches."""
    leaves = leaves_of(tree)
    node = tree.root
    while isinstance(node, Node):
        node = node.hi if (x >> node.var) & 1 else node.lo
    return next(k for k, lf in enumerate(leaves) if lf is node)


# --- inputs -------------------------------------------------------------------

ALPHAS = (0.05, 0.25, 1 / 3, 0.5)


# --- checkers -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from(ALPHAS),
)
def test_checkers_match_references(n, seed, alpha):
    f = ValueOracle.from_table(random_table(n, seed, alpha))
    assert is_submodular(f) == ref_is_submodular(f)
    assert is_monotone(f) == ref_is_monotone(f)
    assert is_alpha_monotone_decreasing(f, alpha) == ref_is_alpha_monotone_decreasing(f, alpha)
    assert lipschitz_constant(f) == ref_lipschitz_constant(f)
    for tol in (0.0, 2 * TOL):
        assert is_submodular(f, tol) == ref_is_submodular(f, tol)
        assert is_monotone(f, tol) == ref_is_monotone(f, tol)


def test_differences_exactly_at_the_tolerance_pass():
    # mixed difference TOL at the all-zero base of (x_2, x_3)
    t = np.zeros(8)
    t[0b110] = TOL
    f = ValueOracle.from_table(t)
    assert is_submodular(f) == CheckResult(True, None, TOL)
    t[0b110] = 2 * TOL
    assert is_submodular(ValueOracle.from_table(t)) == CheckResult(False, (1, 2, 0), 2 * TOL)
    # derivative of exactly alpha + TOL along x_1 at the point 100
    alpha = 0.25
    g = ValueOracle.from_table([0.0, 0.0, 0.0, 0.0, 0.0, alpha + TOL, 0.0, 0.0])
    assert is_alpha_monotone_decreasing(g, alpha) == CheckResult(True)
    assert is_alpha_monotone_decreasing(g, alpha, tol=0.0) == CheckResult(
        False, (0, 0b100), alpha + TOL
    )


# --- whole-tree certification ---------------------------------------------------


def assert_same_certification(make_tree, f_ref, f, alpha):
    """_certify against per-leaf certification on two copies of one input,
    comparing the certificates and the queries each one charges."""
    ref_tree, tree = make_tree(f_ref), make_tree(f)
    before_ref, before = f_ref.query_count, f.query_count
    want = ref_certify(ref_tree, alpha)
    got = certify(tree, alpha)
    assert got == want
    assert f.query_count - before == f_ref.query_count - before_ref
    return got


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from(ALPHAS),
)
def test_whole_tree_certificates_match_per_leaf_on_random_trees(n, seed, alpha):
    t = random_table(n, seed, alpha)
    shape = dtree.random_tree(n, seed=seed % 10_000)
    certs = assert_same_certification(
        lambda f: with_oracle_leaves(shape, f),
        ValueOracle.from_table(t),
        ValueOracle.from_table(t),
        alpha,
    )
    assert len(certs) == dtree.tree_size(shape)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(ALPHAS),
)
def test_whole_tree_certificates_match_per_leaf_on_monotone_trees(family, n, seed, alpha):
    spec = generate_random(family, n, seed)
    f = instantiate(spec)
    tree = build_monotone_tree(f, alpha, certify=False).tree
    assert certify(tree, alpha) == ref_certify(tree, alpha)


@pytest.mark.parametrize("over", [0.0, TOL])
def test_leaf_differences_exactly_at_the_bounds_pass(over):
    # split on x_1; the lo leaf gets a mixed difference of TOL (+ over) on
    # (x_2, x_3), the hi leaf derivatives of alpha + TOL (+ over) along x_4
    alpha = 0.25
    t = np.zeros(16)
    t[0b0110] = TOL + over
    t[[0b1001, 0b1011, 0b1101, 0b1111]] = alpha + TOL + over
    f = ValueOracle.from_table(t)
    tree = with_oracle_leaves(DecisionTree(4, Node(0, ConstLeaf(0.0), ConstLeaf(0.0))), f)
    ok = not over
    want = [LeafCertificate(True, True, ok), LeafCertificate(ok, ok, True)]
    assert ref_certify(tree, alpha) == want
    assert certify(tree, alpha) == want


def test_monotone_trees_can_fail_the_lipschitz_certificate():
    # the comparison above covers failing certificates too
    f = instantiate(generate_random("cut", 5, 1))
    tree = build_monotone_tree(f, 0.25, certify=False).tree
    certs = certify(tree, 0.25)
    assert certs == ref_certify(tree, 0.25)
    assert sum(c.lipschitz_ok is False for c in certs) == 5
    assert all(c.alpha_monotone_ok and c.submodular_ok for c in certs)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(min_value=4, max_value=8),
    cap=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.sampled_from(ALPHAS),
)
def test_whole_tree_certificates_match_per_leaf_above_the_cap(family, n, cap, seed, alpha):
    spec = generate_random(family, n, seed)
    shape = dtree.random_tree(n, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SUBMODTREE_ENUM_CAP", str(cap))
        # no cached tables: leaves within the cap charge their own tables
        assert_same_certification(
            lambda f: with_oracle_leaves(shape, f), instantiate(spec), instantiate(spec), alpha
        )


def test_constant_leaves_pass_and_big_leaves_get_none(monkeypatch):
    f = instantiate(generate_random("cut", 6, 1))
    tree = DecisionTree(
        6,
        Node(0, ConstLeaf(0.5), OracleLeaf(restrict(f, Restriction(6, {0: 1})), (1, 2, 3, 4, 5))),
    )
    assert certify(tree, 0.5)[0] == LeafCertificate(True, True, True)
    monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "4")
    assert certify(tree, 0.5) == [
        LeafCertificate(True, True, True),
        LeafCertificate(None, None, None),
    ]


def test_lipschitz_tree_certificates_match_per_leaf():
    for family in GENERATED_FAMILIES:
        f = instantiate(generate_random(family, 10, 3))
        report = build_lipschitz_tree(f, 0.1)
        assert report.leaf_certificates == ref_certify(report.tree, 0.1)
        assert report.certificates_ok()


# --- leaf map -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 10_000))
def test_leaf_map_matches_a_per_point_descent(n, seed):
    tree = dtree.random_tree(n, seed=seed)
    leaf_of, free = leaf_map(tree)
    assert leaf_of.dtype == np.int32
    assert leaf_of.tolist() == [ref_leaf_of(tree, x) for x in range(1 << n)]
    leaves = leaves_of(tree)
    assert len(free) == len(leaves)
    # a coordinate is free in a leaf exactly when the leaf's points vary in it
    for k in range(len(leaves)):
        points = np.flatnonzero(leaf_of == k)
        varying = int(np.bitwise_or.reduce(points ^ points[0]))
        assert int(free[k]) == varying


# --- blocks and charges -----------------------------------------------------------


@pytest.mark.parametrize("family, alpha", [("cut", 1.0), ("coverage", 0.1)])
def test_certification_lists_at_most_a_block_of_points(family, alpha, monkeypatch):
    # each leaf is read from its own table in blocks: no listing of the
    # points of every leaf at once, and a leaf above the block size is read
    # through its subcube view
    f = instantiate(generate_random(family, 18, 1))
    sizes = []

    class Gathered(np.ndarray):
        """A stack of tables that lists the size of each gather from it."""

        def __getitem__(self, index):
            if isinstance(index, np.ndarray) and index.dtype.kind == "i":
                sizes.append(index.size)
            return np.asarray(super().__getitem__(index))

    stacked = dtree.stacked_table
    monkeypatch.setattr(dtree, "stacked_table", lambda fs: stacked(fs).view(Gathered))
    report = build_lipschitz_tree(f, alpha)
    leaves = dtree.tree_size(report.tree)
    assert (leaves == 1) == (family == "cut")
    assert report.certificates_ok()
    assert (sizes != []) == (family != "cut")
    assert max(sizes, default=0) <= dtree._BLOCK_POINTS


def build_charges(family, alpha):
    """The leaf dimensions of the decomposition of a generated n = 6 input,
    its certificates, and the queries its certification and then its leaf
    means charge: a certified build against an uncertified one of a copy."""
    spec = generate_random(family, 6, 0)
    bare, f = instantiate(spec), instantiate(spec)
    build_lipschitz_tree(bare, alpha, certify=False)
    report = build_lipschitz_tree(f, alpha)
    certified = f.query_count - bare.query_count
    constantize_leaves(report, mc_samples=50)
    dims = np.bitwise_count(report.tree.free()[report.tree.oracle])
    return dims, report, certified, f.query_count - bare.query_count - certified


@pytest.mark.parametrize("family", ["coverage", "budget_additive"])
def test_certification_and_means_charge_as_the_leaf_oracles(family, monkeypatch):
    # within the cap the leaves are read from the input's cached table; a
    # 0-dimensional leaf's mean is the query g(0)
    dims, _, certified, means = build_charges(family, 0.1)
    assert (dims == 0).any()
    assert (certified, means) == (0, np.count_nonzero(dims == 0))
    # beyond it each leaf within the cap is charged its table, g.table(),
    # which it then keeps, and a larger leaf its Monte Carlo samples
    monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "2")
    dims, report, certified, means = build_charges(family, 0.1)
    assert (dims == 0).any() and (dims > 2).any() and ((dims > 0) & (dims <= 2)).any()
    assert report.leaf_certificates == ref_certify(report.tree, 0.1)
    assert certified == int(np.sum(1 << dims[dims <= 2]))
    assert means == np.count_nonzero(dims == 0) + 50 * np.count_nonzero(dims > 2)
