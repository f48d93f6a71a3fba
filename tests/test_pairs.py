"""Block kernels for derivatives and mixed differences against the per-pair
passes they replace.

Checkers, leaf certification and the pairwise Fourier bound read every
coordinate (derivatives) or pair of coordinates (mixed differences, pairwise
weights) of a table in rows.  Derivative rows are strided views; pair rows
come in one gather while a table's rows fit ``funcs._GATHER_BUDGET`` values
and one strided pair at a time above it, where the submodularity checks
take pair maxima from blocks of ``funcs._PAIR_BLOCK`` points instead.  Each
test forces both paths by patching the budget (and a block size small
enough to cut these tables into many blocks), and compares the result bit
for bit with a reference: the strided per-pair generators and the
``np.arange``-mask checkers of ``test_certify``, and the dict-spectrum
loops that computed the pairwise bound and its best constant.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_dict, random_table, with_oracle_leaves
from test_certify import (
    ALPHAS,
    certify,
    ref_certify,
    ref_derivative_table,
    ref_is_alpha_monotone_decreasing,
    ref_is_monotone,
    ref_is_submodular,
    ref_lipschitz_constant,
)
from submodtree import cli, dtree, fourier, funcs
from submodtree.decompose import build_lipschitz_tree
from submodtree.funcs import (
    GENERATED_FAMILIES,
    TOL,
    ValueOracle,
    generate_random,
    instantiate,
    is_alpha_monotone_decreasing,
    is_monotone,
    is_submodular,
    iter_corpus,
    lipschitz_constant,
)

# a budget that every table fits, and one that none does, with pair blocks
# of 64 points: both kinds of pair read (within a block, and x_i = 1 against
# x_i = 0 pieces) occur from n = 7
PATHS = {"gather": (1 << 62, 1 << 16), "strided": (0, 64)}


@contextmanager
def path(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcs, "_GATHER_BUDGET", PATHS[name][0])
        mp.setattr(funcs, "_PAIR_BLOCK", PATHS[name][1])
        yield


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- references ---------------------------------------------------------------


def ref_mixed_difference_table(t, n, i, j):
    """Mixed differences over (i, j) at the points with x_i = x_j = 0."""
    idx = np.arange(1 << n)
    bi, bj = 1 << i, 1 << j
    base = idx[((idx >> i) & 1 == 0) & ((idx >> j) & 1 == 0)]
    return t[base | bi | bj] - t[base | bi] - t[base | bj] + t[base], base


def ref_superset_mass(sp, bi, bj):
    """Sum of coeff(S)^2 over S containing both bits of a mask -> coefficient
    dict, left to right from 0, as the builtin ``sum`` of CPython 3.11 and
    older adds floats."""
    total = 0
    for s, c in sp.items():
        if (s & bi) and (s & bj):
            total += c * c
    return total


def ref_pairwise_coefficient_gap(f):
    sp = as_dict(fourier.transform(f))
    worst = (math.inf, 0.0, (0, 1))
    for i in range(f.n):
        for j in range(i + 1, f.n):
            bi, bj = 1 << i, 1 << j
            pair = abs(sp.get(bi | bj, 0.0))
            total = ref_superset_mass(sp, bi, bj)
            if pair - 0.5 * total < worst[0] - 0.5 * worst[1]:
                worst = (pair, total, (i, j))
    return worst


def ref_best_constant(f, best):
    sp = as_dict(fourier.transform(f))
    for i in range(f.n):
        for j in range(i + 1, f.n):
            bi, bj = 1 << i, 1 << j
            tot = ref_superset_mass(sp, bi, bj)
            if tot > 1e-12:
                best = min(best, abs(sp.get(bi | bj, 0.0)) / tot)
    return best


# --- rows -----------------------------------------------------------------------


def mixed_difference_rows(t, n):
    """Every pair's row of `_mixed_difference_row`, in lexicographic order."""
    return [(c, funcs._mixed_difference_row(t, *c)) for c in itertools.combinations(range(n), 2)]


def pair_reader_rows(t, n):
    """Every pair's row of mixed differences as `_pair_rows` reads it, with
    the number of groups it yields."""
    rows = np.empty((1, math.comb(n, 2), (1 << n) >> 2))
    groups = 0
    for at, corners in funcs._pair_rows(t, n, np.s_[:]):
        assert not np.shares_memory(corners, t)  # the caller may overwrite them
        rows[at] = funcs._mixed(*corners)
        groups += 1
    return list(zip(itertools.combinations(range(n), 2), rows[0])), groups


@pytest.mark.parametrize("name", sorted(PATHS))
@pytest.mark.parametrize("n", range(13))
def test_rows_match_per_pair_references(name, n):
    t = random_table(n, 7 * n + 1, 0.25)
    with path(name):
        derivative_rows = [((i,), d) for i, d in funcs._derivative_rows(t, n)]
        pair_rows, groups = pair_reader_rows(t, n)
    # derivatives are read one coordinate at a time on either path; pair
    # rows in one gather of the table, or one strided pair at a time
    assert groups == (min(1, n // 2) if name == "gather" else math.comb(n, 2))
    for order, rows, ref in (
        (1, derivative_rows, lambda c: ref_derivative_table(t, n, *c)),
        (2, mixed_difference_rows(t, n), lambda c: ref_mixed_difference_table(t, n, *c)),
        (2, pair_rows, lambda c: ref_mixed_difference_table(t, n, *c)),
    ):
        want = list(itertools.combinations(range(n), order))
        assert [c for c, _ in rows] == want
        for c, row in rows:
            values, base = ref(c)
            assert same_bits(row, values), (order, c)
            points = funcs._with_zero_bits(np.arange(row.size), *c)
            assert points.tolist() == base.tolist(), (order, c)
    # the gathered corners of each pair's row
    for r, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        base = ref_mixed_difference_table(t, n, i, j)[1]
        corners = [(base | s).tolist() for s in (0, 1 << i, 1 << j, (1 << i) | (1 << j))]
        assert funcs._gather_index(n)[:, r].tolist() == corners, (i, j)


# pair blocks of 2 and 4 points hold no pair within a block, and from 64
# points on a block holds pairs with runs of 8 values and more; the smallest
# blocks stop at n = 9, where a table already spans 256 of them
BLOCKS = [(b, n) for b in (2, 4, 8, 64, 1 << 16) for n in range(2, 13) if b >= 64 or n <= 9]


def nan_table(n, seed):
    t = random_table(n, seed, 0.25)
    t[np.random.default_rng(seed).integers(1 << n, size=2)] = np.nan
    return t


@pytest.mark.parametrize("block, n", BLOCKS)
def test_pair_maxima_match_the_reference_rows(block, n):
    # the reference's maximum of each row, and is_submodular's ok, witness
    # and extreme, on blocked reads that cut the table at many block edges;
    # random_table gives passing and failing tables
    tables = [random_table(n, 3 * n + k, 0.25) for k in range(3)] + [nan_table(n, n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcs, "_GATHER_BUDGET", 0)
        mp.setattr(funcs, "_PAIR_BLOCK", block)
        for t in tables:
            want = [ref_mixed_difference_table(t, n, *c)[0].max()
                    for c in itertools.combinations(range(n), 2)]
            assert same_bits(funcs._pair_maxima(t, n), np.array(want))
            f = ValueOracle.from_table(t)
            for tol in (TOL, 0.0, 0.5):
                got, ref = is_submodular(f, tol), ref_is_submodular(f, tol)
                assert got == ref and same_bits(got.extreme, ref.extreme), (tol, got, ref)


def above_tol(t, n):
    """Whether some mixed difference of t is above TOL, in rows that hold a
    NaN too."""
    return any((ref_mixed_difference_table(t, n, *c)[0] > TOL).any()
               for c in itertools.combinations(range(n), 2))


# x0 x1 (1 - x2), and -x0 x1, each with a NaN at point 4 (x2 = 1), where every
# pair row holds a NaN.  The first has its one difference above TOL in the
# (0, 1) row, and the (0, 2) and (1, 2) rows after it are at most TOL where
# they are not NaN; the second has no difference above TOL
NAN_FAILS = np.array([0, 0, 0, 1, np.nan, 0, 0, 0])
NAN_PASSES = np.array([0, 0, 0, -1, np.nan, 0, 0, -1])


@pytest.mark.parametrize("name", sorted(PATHS))
def test_nan_tables_match_the_references(name):
    # a NaN row neither fails nor sets the passing extreme, on both paths;
    # leaf certification still flags a leaf for a difference above TOL in a
    # row that holds a NaN, whichever pair rows follow it and wherever the
    # table sits in a stack
    flagged = 0
    for n in range(2, 9):
        t = nan_table(n, n)
        f = ValueOracle.from_table(t)
        above = above_tol(t, n)
        with path(name):
            got = is_submodular(f)
            sub = funcs.leaf_violations(t, n, 0.25)[2]
        ref = ref_is_submodular(f)
        assert got == ref and same_bits(got.extreme, ref.extreme), (n, got, ref)
        assert sub.tolist() == [above], n
        flagged += above and ref.ok
        # NaN tables behind clean passing and failing ones
        tables = [random_table(n, 5 * n + k, 0.25) for k in range(3)] + [t, nan_table(n, n + 100)]
        with path(name):
            sub = funcs.leaf_violations(np.concatenate(tables), n, 0.25)[2]
        assert sub.tolist() == [above_tol(u, n) for u in tables], n
    assert flagged > 0
    tables = [NAN_PASSES, NAN_FAILS, NAN_PASSES, NAN_FAILS]
    assert [above_tol(u, 3) for u in tables] == [False, True, False, True]
    for stack in (NAN_FAILS, np.concatenate(tables)):
        with path(name):
            sub = funcs.leaf_violations(stack, 3, 0.25)[2]
        assert sub.tolist() == [above_tol(u, 3) for u in np.split(stack, len(stack) // 8)]


def test_a_nan_table_that_passes_the_check_is_certified_as_unchecked():
    # is_submodular passes NAN_FAILS and some NaN tables with a difference
    # above TOL beside a NaN in its pair row; the check's verdict must not
    # let certification skip the pair pass on them
    hidden = 0
    for t in [NAN_FAILS] + [nan_table(n, n) for n in range(2, 9)]:
        n = t.size.bit_length() - 1
        if not is_submodular(ValueOracle.from_table(t)):
            continue
        hidden += above_tol(t, n)
        for alpha in cli.ALPHA_GRID:
            checked = build_lipschitz_tree(ValueOracle.from_table(t), alpha)
            unchecked = build_lipschitz_tree(ValueOracle.from_table(t), alpha, check=False)
            assert checked.leaf_certificates == unchecked.leaf_certificates, (n, alpha)
    assert hidden > 0


# --- checkers -------------------------------------------------------------------


def assert_checkers_match(f, alpha):
    for name in PATHS:
        with path(name):
            assert is_submodular(f) == ref_is_submodular(f), name
            assert is_monotone(f) == ref_is_monotone(f), name
            assert (is_alpha_monotone_decreasing(f, alpha)
                    == ref_is_alpha_monotone_decreasing(f, alpha)), name
            assert same_bits(lipschitz_constant(f), ref_lipschitz_constant(f)), name
            for tol in (0.0, 2 * TOL):
                assert is_submodular(f, tol) == ref_is_submodular(f, tol), name
                assert is_monotone(f, tol) == ref_is_monotone(f, tol), name
                assert (is_alpha_monotone_decreasing(f, alpha, tol)
                        == ref_is_alpha_monotone_decreasing(f, alpha, tol)), name


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from(ALPHAS),
)
def test_checkers_match_references_on_random_tables(n, seed, alpha):
    assert_checkers_match(ValueOracle.from_table(random_table(n, seed, alpha)), alpha)


@pytest.mark.parametrize("family", GENERATED_FAMILIES)
def test_checkers_match_references_on_families(family):
    for n, seed in ((2, 0), (5, 1), (8, 2), (11, 3)):
        assert_checkers_match(instantiate(generate_random(family, n, seed)), 0.25)


def test_random_tables_reach_every_failure():
    # the comparisons above cover failing checks with witnesses
    failed = {"submodular": 0, "monotone": 0, "alpha": 0}
    for seed in range(30):
        f = ValueOracle.from_table(random_table(6, seed, 0.25))
        failed["submodular"] += not is_submodular(f)
        failed["monotone"] += not is_monotone(f)
        failed["alpha"] += not is_alpha_monotone_decreasing(f, 0.25)
    assert min(failed.values()) > 0, failed


# --- certification --------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=11),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from(ALPHAS),
)
def test_leaf_certificates_match_per_leaf_on_random_trees(n, seed, alpha):
    f = ValueOracle.from_table(random_table(n, seed, alpha))
    tree = with_oracle_leaves(dtree.random_tree(n, seed=seed % 10_000), f)
    want = ref_certify(tree, alpha)
    for name in PATHS:
        with path(name):
            assert certify(tree, alpha) == want, name


@pytest.mark.parametrize("block", [4, 64])
def test_unchecked_certificates_on_non_submodular_tables(block):
    # the pair pass of leaf_violations (known_submodular=False) against
    # per-leaf checks, on tables cut into many pair blocks
    failed = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcs, "_GATHER_BUDGET", 0)
        mp.setattr(funcs, "_PAIR_BLOCK", block)
        for n in range(2, 11):
            for seed in range(6):
                f = ValueOracle.from_table(random_table(n, 6 * n + seed, 0.25))
                tree = with_oracle_leaves(dtree.random_tree(n, seed=seed), f)
                want = ref_certify(tree, 0.25)
                assert certify(tree, 0.25) == want, (n, seed)
                failed += sum(not c.submodular_ok for c in want)
    assert failed > 0


# --- pairwise bound -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PATHS))
def test_pairwise_gap_on_tiny_cubes(name, or2, and2, edge_cut):
    tiny = [ValueOracle.from_table([0.3]), ValueOracle.from_table([0.0, 1.0]), or2, and2, edge_cut]
    with path(name):
        for f in tiny:
            got, want = fourier.pairwise_coefficient_gap(f), ref_pairwise_coefficient_gap(f)
            assert got[2] == want[2]
            assert same_bits(got[0], want[0]) and same_bits(got[1], float(want[1]))
    assert fourier.pairwise_coefficient_gap(tiny[0]) == (math.inf, 0.0, (0, 1))
    assert fourier.pairwise_coefficient_gap(tiny[1]) == (math.inf, 0.0, (0, 1))


@pytest.mark.parametrize(
    "name, seeds", [("gather", range(20)), ("strided", range(3))]
)
def test_pairwise_suite_matches_dict_loops_on_corpus(name, seeds):
    ns = tuple(range(4, 11))
    want_rows, best = [], math.inf
    for inst, f in iter_corpus(ns=ns, seeds=seeds):
        pair, total, worst = ref_pairwise_coefficient_gap(f)
        want_rows.append((inst, pair, 0.5 * total, pair - 0.5 * total, pair >= 0.5 * total - TOL))
        best = ref_best_constant(f, best)
        with path(name):
            got = fourier.pairwise_coefficient_gap(f)
        assert got[2] == worst, inst
        assert same_bits(got[0], pair) and same_bits(got[1], float(total)), inst
    with path(name):
        rows, got_best = cli.suite_pairwise(ns, seeds)
    assert [tuple(r.values()) for r in rows] == want_rows
    for r, want in zip(rows, want_rows):
        assert all(same_bits(a, b) for a, b in zip(list(r.values())[1:4], want[1:4])), r
    assert same_bits(got_best, best)


def test_pairwise_identities_hold_on_the_corpus():
    # coeff({i,j}) = E[mixed difference]/4 and the mass of the supersets of
    # {i,j} = E[mixed difference^2]/16 (the route the pairwise bound does not
    # take: it moves the last digits of the reports)
    worst = 0.0
    for _, f in iter_corpus():
        pair, total = fourier.pairwise_weights(f)
        dd = np.array([row for _, row in mixed_difference_rows(f.table(), f.n)])
        worst = max(
            worst,
            float(np.max(np.abs(np.abs(dd.mean(axis=1) / 4) - pair))),
            float(np.max(np.abs((dd**2).mean(axis=1) / 16 - total))),
        )
    assert worst <= 1e-15
