import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_dict, tree_from_json, tree_text
from submodtree import dtree
from submodtree.cube import DimensionTooLarge, ProductDistribution
from submodtree.dtree import (
    ConstLeaf,
    DecisionTree,
    Node,
    NonConstantLeaf,
    OracleLeaf,
    evaluate_many,
    exact_distance,
    leaf_profile,
    pruning_bound,
    pruning_depth_for,
    random_tree,
    rank,
    to_json_chunks,
    to_spectrum,
    tree_depth,
    tree_size,
    tree_table,
    truncate,
    truncation_disagreements,
)
from submodtree.fourier import spectral_l1
from submodtree.funcs import ValueOracle


def complete_tree(depth: int, values, start_var: int = 0) -> DecisionTree:
    counter = iter(values)

    def grow(d, var):
        if d == 0:
            return ConstLeaf(next(counter))
        return Node(var, grow(d - 1, var + 1), grow(d - 1, var + 1))

    return DecisionTree(depth + start_var, grow(depth, start_var))


def caterpillar(depth: int) -> DecisionTree:
    """Left path of the given depth, every right child a leaf."""

    def grow(d, var):
        if d == 0:
            return ConstLeaf(0.5)
        return Node(var, grow(d - 1, var + 1), ConstLeaf(float(var)))

    return DecisionTree(depth, grow(depth, 0))


def test_evaluate_examples():
    assert evaluate_many(DecisionTree(3, ConstLeaf(0.7)), [0b101])[0] == 0.7
    dictator = DecisionTree(2, Node(0, ConstLeaf(0.0), ConstLeaf(1.0)))
    assert evaluate_many(dictator, [0b01])[0] == 1.0  # x_1 = 1
    assert evaluate_many(dictator, [0b10])[0] == 0.0


def test_evaluate_oracle_leaf():
    inner = ValueOracle.from_table([0.0, 1.0, 1.0, 1.0])
    tree = DecisionTree(3, Node(1, ConstLeaf(0.0), OracleLeaf(inner, (0, 2))))
    # x_2 = 1 routes to the oracle over (x_1, x_3)
    assert evaluate_many(tree, [0b010])[0] == 0.0
    assert evaluate_many(tree, [0b011])[0] == 1.0
    assert evaluate_many(tree, [0b110])[0] == 1.0


def test_rank_examples():
    assert rank(DecisionTree(1, ConstLeaf(0.0))) == 0
    assert rank(complete_tree(2, [0.1, 0.2, 0.3, 0.4])) == 2
    assert rank(caterpillar(5)) == 1


def test_size_depth_examples():
    lf = DecisionTree(1, ConstLeaf(1.0))
    assert tree_size(lf) == 1 and tree_depth(lf) == 0
    full = complete_tree(3, range(8))
    assert tree_size(full) == 8 and tree_depth(full) == 3
    cat = caterpillar(5)
    assert tree_size(cat) == 6 and tree_depth(cat) == 5


def test_rank_at_most_log_size():
    for seed in range(30):
        t = random_tree(8, seed)
        assert rank(t) <= math.log2(tree_size(t)) + 1e-12


def test_truncate_examples():
    full = complete_tree(3, range(8))
    top = truncate(full, 0)
    assert isinstance(top.root, ConstLeaf) and top.root.value == 0.0
    lf = DecisionTree(2, ConstLeaf(0.9))
    assert truncate(lf, 4) == lf
    cut2 = truncate(full, 2)
    assert tree_depth(cut2) == 2
    vals, depths = leaf_profile(cut2)
    assert set(vals[depths == 2]) == {0.0}


@pytest.mark.parametrize("d", [2.5, 2.0, -1, "2", None])
def test_truncate_rejects_a_depth_that_is_not_a_nonnegative_integer(d):
    # a fractional depth never reached 0 and returned the whole tree
    with pytest.raises(ValueError, match="depth must be a nonnegative integer"):
        truncate(random_tree(5, 0), d)
    assert tree_depth(truncate(random_tree(5, 0), np.int64(2))) == 2


def test_dimensions_outside_the_int64_packing_are_rejected():
    # n = 64 recorded the tested mask -2^63, and n = 70 the mask 0
    for n in (-1, 63, 64, 70):
        with pytest.raises(DimensionTooLarge, match=f"got n={n}$"):
            DecisionTree(n, Node(n - 1, ConstLeaf(0.0), ConstLeaf(1.0)))
        with pytest.raises(DimensionTooLarge):
            dtree.from_levels(n, np.array([True]), np.array([-1]), np.array([0]), np.array([0.0]), np.array([False]))
        with pytest.raises(DimensionTooLarge):
            random_tree(n, 0)
    assert rank(DecisionTree(0, ConstLeaf(1.0))) == 0
    wide = DecisionTree(62, Node(61, ConstLeaf(0.0), ConstLeaf(1.0)))
    assert wide.tested.tolist() == [1 << 61] * 2
    assert tree_size(random_tree(62, 0, max_depth=3)) >= 1


def test_exact_distance_examples():
    one = DecisionTree(3, ConstLeaf(1.0))
    zero = DecisionTree(3, ConstLeaf(0.0))
    assert exact_distance(one, zero, metric="l1") == 1.0
    or_tree = DecisionTree(
        2, Node(0, Node(1, ConstLeaf(0.0), ConstLeaf(1.0)), ConstLeaf(1.0))
    )
    or_oracle = ValueOracle.from_table([0, 1, 1, 1])
    assert exact_distance(or_oracle, or_tree, metric="l2") == 0.0
    assert exact_distance(or_oracle, or_tree, metric="disagreement") == 0.0
    # a table is one axis of 2^n values; a column of them is rejected
    assert exact_distance(or_oracle, np.array([0.0, 1.0, 1.0, 1.0]), metric="l1") == 0.0
    with pytest.raises(ValueError, match="1-D"):
        exact_distance(or_oracle, np.array([0.0, 1.0, 1.0, 1.0]).reshape(-1, 1), metric="l1")


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=14),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # 1e-320 and 1e-310 give subnormal differences, 1e-160 subnormal squares
    scale=st.sampled_from([1e-320, 1e-310, 1e-160, 1e-5, 1.0, 1e150]),
)
def test_exact_distance_uniform_default_matches_explicit_distribution(n, seed, scale):
    rng = np.random.default_rng(seed)
    tf = rng.standard_normal(1 << n) * scale
    tg = np.where(rng.random(1 << n) < 0.3, tf, rng.standard_normal(1 << n) * scale)
    uniform = ProductDistribution.uniform(n)
    for metric in ("l1", "l2", "disagreement"):
        assert exact_distance(tf, tg, metric=metric) == exact_distance(tf, tg, uniform, metric)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1e-320, 1e-310, 1e-160, 1e-5, 1.0, 1e150]),
    uniform=st.booleans(),
)
def test_exact_distance_matches_the_expressions_with_temporaries(n, seed, scale, uniform):
    """The in-place l1 and l2 against the expressions they replaced."""
    rng = np.random.default_rng(seed)
    tf = rng.standard_normal(1 << n) * scale
    tg = np.where(rng.random(1 << n) < 0.3, tf, rng.standard_normal(1 << n) * scale)
    dist = None if uniform else ProductDistribution(tuple(rng.uniform(0.05, 0.95, size=n)))
    w = 0.5**n if uniform else dist.probability_vector()
    assert exact_distance(tf, tg, dist, "l1") == float(np.sum(w * np.abs(tf - tg)))
    assert exact_distance(tf, tg, dist, "l2") == float(math.sqrt(np.sum(w * (tf - tg) ** 2)))


def test_exact_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        exact_distance(DecisionTree(2, ConstLeaf(0.0)), DecisionTree(3, ConstLeaf(0.0)))


def test_to_spectrum_examples():
    assert as_dict(to_spectrum(DecisionTree(2, ConstLeaf(0.4)))) == pytest.approx({0: 0.4})
    dictator = DecisionTree(1, Node(0, ConstLeaf(0.0), ConstLeaf(1.0)))
    assert as_dict(to_spectrum(dictator)) == pytest.approx({0: 0.5, 1: -0.5})


def test_to_spectrum_requires_constant_leaves():
    inner = ValueOracle.from_table([0.0, 1.0])
    tree = DecisionTree(2, Node(0, OracleLeaf(inner, (1,)), ConstLeaf(1.0)))
    with pytest.raises(NonConstantLeaf):
        to_spectrum(tree)


def test_spectral_l1_at_most_size_and_degree_at_most_depth():
    for seed in range(40):
        t = random_tree(8, seed)
        sp = to_spectrum(t)
        assert spectral_l1(sp) <= tree_size(t) + 1e-9, seed
        assert sp.degree() <= tree_depth(t), seed


def test_random_tree_deterministic():
    a, b = random_tree(10, 3), random_tree(10, 3)
    assert a == b
    assert random_tree(10, 4) != a


def test_truncation_profile_matches_literal_truncation():
    for seed in range(10):
        t = random_tree(9, seed)
        dist = ProductDistribution(tuple(np.random.default_rng(seed).uniform(0.2, 0.8, 9)))
        dis = truncation_disagreements(t, dist)
        for d in range(tree_depth(t) + 1):
            direct = exact_distance(t, truncate(t, d), dist, "disagreement")
            assert dis[d] == pytest.approx(direct, abs=1e-12), (seed, d)


def test_pruning_bound_holds_exhaustively():
    for seed in range(25):
        t = random_tree(10, seed)
        r = rank(t)
        for alpha in (0.1, 0.25, 0.5):
            rng = np.random.default_rng((seed, int(alpha * 100)))
            for mu in [(alpha,) * 10, tuple(rng.uniform(alpha, 1 - alpha, 10))]:
                dis = truncation_disagreements(t, ProductDistribution(mu))
                for d in range(tree_depth(t) + 1):
                    assert dis[d] <= pruning_bound(r, alpha, d) + 1e-9, (seed, alpha, d)


def test_pruning_closed_form_depth_reaches_epsilon():
    for seed in range(25):
        t = random_tree(10, seed)
        r = rank(t)
        depth = tree_depth(t)
        for alpha in (0.1, 0.25, 0.5):
            dis = truncation_disagreements(t, ProductDistribution((alpha,) * 10))
            for eps in (0.5, 0.25, 0.125):
                d = min(pruning_depth_for(r, alpha, eps), depth)
                assert dis[d] <= eps + 1e-9, (seed, alpha, eps)


def test_depth_d_trees_have_degree_at_most_d():
    for seed in range(15):
        t = random_tree(7, seed)
        assert to_spectrum(t).degree() <= tree_depth(t)


def test_json_roundtrip():
    t = random_tree(6, seed=12)
    text = tree_text(t)
    obj = json.loads(text)

    def check_vars_one_based(o):
        if "var" in o:
            assert 1 <= o["var"] <= 6
            check_vars_one_based(o["lo"])
            check_vars_one_based(o["hi"])

    check_vars_one_based(obj)
    again = tree_from_json(text, 6)
    assert np.array_equal(tree_table(again), tree_table(t))


def test_json_rejects_oracle_leaves():
    inner = ValueOracle.from_table([0.0, 1.0])
    tree = DecisionTree(2, Node(0, OracleLeaf(inner, (1,)), ConstLeaf(1.0)))
    with pytest.raises(NonConstantLeaf):  # before the first chunk
        to_json_chunks(tree)
