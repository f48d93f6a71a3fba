"""Batched decomposition against one build at a time.

`decompose.build_lipschitz_trees` grows, restricts and certifies the trees
of several oracles of one dimension as one stacked cube: their tables one
after another, each tree rooted at its own table's slot.  Every tree, leaf
table, certificate, rank, exact l1 distance and query charge must equal what
`build_lipschitz_tree` and `dtree.exact_distance` give on each oracle
alone, bit for bit, and a failing input check must raise what the first
failing oracle raises alone.  `decompose.build_lipschitz_grid` builds a
batch at several alphas at once, and must give what `build_lipschitz_trees`
gives at each alpha in turn.
"""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import leaves_of, random_table, tree_text
from submodtree import cli, decompose, dtree
from submodtree.decompose import (
    NotSubmodular,
    build_lipschitz_grid,
    build_lipschitz_tree,
    build_lipschitz_trees,
    constantize_leaves,
)
from submodtree.funcs import GENERATED_FAMILIES, ValueOracle, generate_random, instantiate

ALPHAS = (0.05, 0.1, 0.25, 1 / 3, 0.5, 1.0)
BATCH_SIZES = (1, 2, 3, 5)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64).tobytes()


def one_at_a_time(fs, alpha, check, certify):
    """The reports of a loop of single builds, the query counts after them
    and the l1 distances, or the exception the loop raises."""
    try:
        reports = [build_lipschitz_tree(f, alpha, check=check, certify=certify) for f in fs]
    except NotSubmodular as e:
        return e
    built = [f.query_count for f in fs]
    errs = [dtree.exact_distance(f, r.tree, metric="l1") for f, r in zip(fs, reports)]
    return reports, built, errs


def assert_same_batch(make_fs, alpha, check, certify=True, group=None):
    """The batched build of make_fs() against single builds of a second copy,
    with the batch cut at ``group`` stacked points when given."""
    fs, refs = make_fs(), make_fs()
    want = one_at_a_time(refs, alpha, check, certify)
    with mock.patch.object(dtree, "STACK_POINTS", group or dtree.STACK_POINTS):
        if isinstance(want, NotSubmodular):
            with pytest.raises(NotSubmodular) as got:
                build_lipschitz_trees(fs, alpha, check=check, certify=certify)
            assert str(got.value) == str(want)
            return
        reports = build_lipschitz_trees(fs, alpha, check=check, certify=certify)
        built = [f.query_count for f in fs]
        errs = dtree.exact_distances(fs, [r.tree for r in reports], metric="l1")
    ref_reports, ref_built, ref_errs = want
    assert len(reports) == len(fs)
    assert built == ref_built
    for report, ref in zip(reports, ref_reports):
        assert report.rank == ref.rank and report.phase == ref.phase
        assert report.leaf_certificates == ref.leaf_certificates
        leaves, ref_leaves = leaves_of(report.tree), leaves_of(ref.tree)
        assert [lf.free for lf in leaves] == [lf.free for lf in ref_leaves]
        assert [bits(lf.oracle.table()) for lf in leaves] == [
            bits(lf.oracle.table()) for lf in ref_leaves
        ]
    assert bits(errs) == bits(ref_errs)
    assert [f.query_count for f in fs] == [g.query_count for g in refs]
    texts = [tree_text(constantize_leaves(r)) for r in reports]
    assert texts == [tree_text(constantize_leaves(r)) for r in ref_reports]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    size=st.sampled_from(BATCH_SIZES),
    data=st.data(),
    alpha=st.sampled_from(ALPHAS),
    check=st.booleans(),
    split=st.booleans(),
)
def test_batches_match_single_builds_on_the_corpus(n, size, data, alpha, check, split):
    picks = data.draw(st.lists(
        st.tuples(st.sampled_from(GENERATED_FAMILIES), st.integers(0, 10_000)),
        min_size=size, max_size=size,
    ))
    specs = [generate_random(family, n, seed) for family, seed in picks]
    group = 2 << n if split else None  # two tables per stack: the batch is cut
    assert_same_batch(lambda: [instantiate(s) for s in specs], alpha, check, group=group)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    size=st.sampled_from(BATCH_SIZES),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=5, max_size=5),
    alpha=st.sampled_from(ALPHAS),
    check=st.booleans(),
    certify=st.booleans(),
)
def test_batches_match_single_builds_on_random_tables(n, size, seeds, alpha, check, certify):
    # grid tables, submodular families with and without a bump, and noise:
    # batches mix inputs that pass and fail the check
    tables = [random_table(n, seed, alpha) for seed in seeds[:size]]
    make = lambda: [ValueOracle.from_table(t) for t in tables]  # noqa: E731
    assert_same_batch(make, alpha, check, certify)


def test_a_failing_check_names_the_first_failing_input():
    good = instantiate(generate_random("cut", 5, 1)).table()
    noise = [np.random.default_rng(k).uniform(0.0, 1.0, size=32) for k in range(2)]
    fs = [ValueOracle.from_table(t) for t in (good, noise[1], good, noise[0])]
    with pytest.raises(NotSubmodular) as alone:
        build_lipschitz_tree(ValueOracle.from_table(noise[1]), 0.5)
    with pytest.raises(NotSubmodular) as batched:
        build_lipschitz_trees(fs, 0.5)
    assert str(batched.value) == str(alone.value)
    # unchecked, the same batch builds, and its noisy leaves fail certification
    reports = build_lipschitz_trees(fs, 0.5, check=False)
    assert [r.certificates_ok() for r in reports] == [True, False, True, False]


def test_a_grid_checks_every_alpha():
    fs = [instantiate(generate_random("cut", 4, 0))]
    for alphas in ([], [0.5, 0.0], [float("nan"), 0.5], [0.5, 1e-320]):
        with pytest.raises(ValueError, match="alpha"):
            build_lipschitz_grid(fs, alphas)
    assert fs[0].query_count == 0


def test_a_batch_has_one_dimension():
    fs = [instantiate(generate_random("cut", n, 0)) for n in (4, 5)]
    with pytest.raises(ValueError, match="one dimension"):
        build_lipschitz_trees(fs, 0.5)


@pytest.mark.parametrize("n", [4, 7, 10])
def test_stacked_distances_sum_each_table_alone(n):
    # each l1 total is np.sum over its own 2^n values, not a slice of a longer sum
    fs = [instantiate(generate_random(family, n, 3)) for family in GENERATED_FAMILIES]
    trees = [dtree.random_tree(n, seed) for seed in range(len(fs))]
    for metric in ("l1", "l2", "disagreement"):
        got = dtree.exact_distances(fs, trees, metric=metric)
        want = [dtree.exact_distance(f, t, metric=metric) for f, t in zip(fs, trees)]
        assert bits(got) == bits(want)


def distances_row_by_row(tf, tg, n, metric):
    """The uniform distances of `dtree._distances`, one np.sum or
    np.count_nonzero per table: the reference for its one-reduction sums."""
    w = 0.5**n
    if metric == "disagreement":
        return [float(np.count_nonzero(row) * w) for row in (tf != tg).reshape(-1, 1 << n)]
    d = (tf - tg).reshape(-1, 1 << n)
    d = np.abs(d) if metric == "l1" else np.square(d)
    totals = [float(np.sum(row)) for row in d * w]
    return totals if metric == "l1" else [math.sqrt(total) for total in totals]


SPECIAL_VALUES = (float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e308, 5e-324)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 16),
    tables=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.tuples(st.booleans(), st.integers(0, 2**31), st.sampled_from(SPECIAL_VALUES)),
                      max_size=8),
    metric=st.sampled_from(("l1", "l2", "disagreement")),
)
def test_distance_rows_sum_as_each_row_alone(n, tables, seed, specials, metric):
    rng = np.random.default_rng(seed)
    size = tables << n
    tf = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 12, size)
    tg = np.where(rng.random(size) < 0.5, tf, rng.standard_normal(size))
    for in_f, at, value in specials:
        (tf if in_f else tg)[at % size] = value
    with np.errstate(all="ignore"):  # inf - inf, and squares past the largest float
        want = distances_row_by_row(tf, tg, n, metric)
        assert bits(dtree._distances(tf, tg.copy(), n, None, metric)) == bits(want)


# --- alpha grids ------------------------------------------------------------------

FLAT_ARRAYS = ("leaf", "var", "depth", "count", "piece", "tested", "fixed", "value", "oracle")


def assert_same_grid(make_fs, alphas, check=True, certify=True):
    """`build_lipschitz_grid` of make_fs() against `build_lipschitz_trees` of
    a second copy at each alpha in turn: the same tree arrays, certificates,
    ranks and alphas, and the same query counts after all the builds, or the
    same error."""
    fs, refs = make_fs(), make_fs()

    def build():
        # the grid always checks and certifies; the other cases reach its
        # one builder directly
        if check and certify:
            return build_lipschitz_grid(fs, alphas)
        return decompose._decompose(fs, list(alphas), 2, check, certify)

    try:
        want = [build_lipschitz_trees(refs, alpha, check=check, certify=certify) for alpha in alphas]
    except NotSubmodular as e:
        with pytest.raises(NotSubmodular) as got:
            build()
        assert str(got.value) == str(e)
        return
    grid = build()
    assert len(grid) == len(alphas)
    for alpha, reports, ref_reports in zip(alphas, grid, want):
        assert len(reports) == len(ref_reports) == len(fs)
        for f, report, ref in zip(fs, reports, ref_reports):
            assert type(report.alpha) is type(ref.alpha) and report.alpha == ref.alpha == alpha
            assert (report.rank, report.claimed_rank_bound, report.phase) == (
                ref.rank, ref.claimed_rank_bound, ref.phase)
            assert report.leaf_certificates == ref.leaf_certificates
            tree, ref_tree = report.tree, ref.tree
            assert tree.source is f
            assert (tree.n, tree.rank, tree.bad) == (ref_tree.n, ref_tree.rank, ref_tree.bad)
            for name in FLAT_ARRAYS:
                a, b = getattr(tree, name), getattr(ref_tree, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert [f.query_count for f in fs] == [g.query_count for g in refs]


@pytest.mark.parametrize("n", range(4, 11))
def test_grids_match_builds_alpha_by_alpha_on_corpus_stacks(n):
    # the rank suite's stacks and alphas
    for _, _, _, stack in cli._corpus_chunks((n,), range(930, 933)):
        assert_same_grid(lambda: [ValueOracle.from_table(t) for t in stack], cli.ALPHA_GRID)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    size=st.sampled_from(BATCH_SIZES),
    data=st.data(),
    alphas=st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=4),
    split=st.booleans(),
)
def test_grids_match_builds_alpha_by_alpha_on_generated_oracles(n, size, data, alphas, split):
    picks = data.draw(st.lists(
        st.tuples(st.sampled_from(GENERATED_FAMILIES), st.integers(0, 10_000)),
        min_size=size, max_size=size,
    ))
    specs = [generate_random(family, n, seed) for family, seed in picks]
    with mock.patch.object(dtree, "STACK_POINTS", 2 << n if split else dtree.STACK_POINTS):
        assert_same_grid(lambda: [instantiate(s) for s in specs], alphas)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    size=st.sampled_from(BATCH_SIZES),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=5, max_size=5),
    alphas=st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=4),
    check=st.booleans(),
    certify=st.booleans(),
)
def test_grids_match_builds_alpha_by_alpha_on_random_tables(n, size, seeds, alphas, check, certify):
    # unchecked, leaves fail certification; checked, many stacks raise
    tables = [random_table(n, seed, alphas[0]) for seed in seeds[:size]]
    assert_same_grid(lambda: [ValueOracle.from_table(t) for t in tables], alphas, check, certify)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=7),
    family=st.sampled_from(GENERATED_FAMILIES),
    seed=st.integers(0, 10_000),
    alphas=st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=3),
    cached=st.booleans(),
)
def test_grids_match_builds_alpha_by_alpha_beyond_the_cap(n, family, seed, alphas, cached):
    # growth probes the oracle, and leaves above the cap get no certificate
    spec = generate_random(family, n, seed)
    table = instantiate(spec).table()
    make = (lambda: [ValueOracle.from_table(table)]) if cached else (lambda: [instantiate(spec)])
    with mock.patch.dict(os.environ, {"SUBMODTREE_ENUM_CAP": "3"}):
        assert_same_grid(make, alphas)


def test_a_failing_grid_names_the_first_failing_input():
    good = instantiate(generate_random("cut", 5, 1)).table()
    noise = [np.random.default_rng(k).uniform(0.0, 1.0, size=32) for k in range(2)]
    tables = (good, noise[1], good, noise[0])
    with pytest.raises(NotSubmodular) as alone:
        build_lipschitz_tree(ValueOracle.from_table(noise[1]), 0.5)
    with pytest.raises(NotSubmodular) as grid:
        build_lipschitz_grid([ValueOracle.from_table(t) for t in tables], cli.ALPHA_GRID)
    assert str(grid.value) == str(alone.value)
    assert_same_grid(lambda: [ValueOracle.from_table(t) for t in tables], cli.ALPHA_GRID)
    assert_same_grid(lambda: [ValueOracle.from_table(t) for t in tables], cli.ALPHA_GRID, check=False)
