import json
import math

import numpy as np
import pytest

from submodtree.cube import ProductDistribution
from submodtree.dtree import (
    ConstLeaf,
    DecisionTree,
    Node,
    NonConstantLeaf,
    OracleLeaf,
    evaluate,
    exact_distance,
    from_json,
    leaf_profile,
    pruning_bound,
    pruning_depth_for,
    random_tree,
    rank,
    to_json,
    to_json_text,
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
    assert evaluate(DecisionTree(3, ConstLeaf(0.7)), 0b101) == 0.7
    dictator = DecisionTree(2, Node(0, ConstLeaf(0.0), ConstLeaf(1.0)))
    assert evaluate(dictator, 0b01) == 1.0  # x_1 = 1
    assert evaluate(dictator, 0b10) == 0.0


def test_evaluate_oracle_leaf():
    inner = ValueOracle.from_table([0.0, 1.0, 1.0, 1.0])
    tree = DecisionTree(3, Node(1, ConstLeaf(0.0), OracleLeaf(inner, (0, 2))))
    # x_2 = 1 routes to the oracle over (x_1, x_3)
    assert evaluate(tree, 0b010) == 0.0
    assert evaluate(tree, 0b011) == 1.0
    assert evaluate(tree, 0b110) == 1.0


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


def test_truncate_mean_replacement():
    full = complete_tree(2, [0.0, 1.0, 1.0, 1.0])
    t = truncate(full, 1, replacement="mean")
    assert evaluate(t, 0b00) == 0.5
    assert evaluate(t, 0b01) == 1.0


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


def test_exact_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        exact_distance(DecisionTree(2, ConstLeaf(0.0)), DecisionTree(3, ConstLeaf(0.0)))


def test_to_spectrum_examples():
    assert to_spectrum(DecisionTree(2, ConstLeaf(0.4))).coeffs == pytest.approx({0: 0.4})
    dictator = DecisionTree(1, Node(0, ConstLeaf(0.0), ConstLeaf(1.0)))
    assert to_spectrum(dictator).coeffs == pytest.approx({0: 0.5, 1: -0.5})


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
    text = to_json(t)
    obj = json.loads(text)

    def check_vars_one_based(o):
        if "var" in o:
            assert 1 <= o["var"] <= 6
            check_vars_one_based(o["lo"])
            check_vars_one_based(o["hi"])

    check_vars_one_based(obj)
    again = from_json(text, 6)
    assert np.array_equal(tree_table(again), tree_table(t))


def test_json_rejects_oracle_leaves():
    inner = ValueOracle.from_table([0.0, 1.0])
    tree = DecisionTree(2, Node(0, OracleLeaf(inner, (1,)), ConstLeaf(1.0)))
    with pytest.raises(NonConstantLeaf):
        to_json(tree)
    with pytest.raises(NonConstantLeaf):
        to_json_text(tree)
