import math

import numpy as np
import pytest

from conftest import leaves_of, small_corpus
from submodtree.decompose import (
    DecompositionReport,
    NonDiscreteRange,
    NotSubmodular,
    approximate_by_tree,
    build_exact_discrete_tree,
    build_lipschitz_tree,
    build_monotone_tree,
    constantize_leaves,
    proper_learn_discrete,
)
from submodtree.dtree import (
    Node,
    OracleLeaf,
    exact_distance,
    rank,
    tree_size,
)
from submodtree.funcs import (
    FamilySpec,
    ValueOracle,
    generate_random,
    instantiate,
)


def exactness(f, report) -> float:
    return exact_distance(f, report.tree, metric="l1")


class TestMonotonePhase:
    def test_constant_is_single_leaf(self):
        const = ValueOracle.from_table([0.3] * 8)
        rep = build_monotone_tree(const, 0.7)
        assert tree_size(rep.tree) == 1 and rep.rank == 0

    def test_or_hand_trace(self, or2):
        rep = build_monotone_tree(or2, 0.6)
        root = rep.tree.root
        assert isinstance(root, Node) and root.var == 0
        assert isinstance(root.hi, OracleLeaf)  # restriction to x_1 = 1 is constant 1
        assert root.hi.oracle(0) == 1.0
        assert isinstance(root.lo, Node) and root.lo.var == 1
        assert rep.rank == 1

    def test_or_alpha_one_is_leaf(self, or2):
        rep = build_monotone_tree(or2, 1.0)
        assert tree_size(rep.tree) == 1

    def test_rejects_bad_alpha(self, or2):
        with pytest.raises(ValueError):
            build_monotone_tree(or2, 0.0)

    def test_rejects_non_submodular(self, and2):
        with pytest.raises(NotSubmodular):
            build_monotone_tree(and2, 0.5)

    def test_monotone_phase_certificates(self, edge_cut):
        rep = build_monotone_tree(edge_cut, 0.5)
        assert all(c.alpha_monotone_ok and c.submodular_ok for c in rep.leaf_certificates)
        assert rep.claimed_rank_bound == 2.0
        assert rep.rank <= 2


class TestLipschitzTree:
    def test_or_same_as_monotone(self, or2):
        # constant leaves are 0-Lipschitz, so phase 2 adds nothing
        a = build_monotone_tree(or2, 0.6)
        b = build_lipschitz_tree(or2, 0.6)
        assert tree_size(a.tree) == tree_size(b.tree) and b.rank == 1

    def test_edge_cut(self, edge_cut):
        rep = build_lipschitz_tree(edge_cut, 0.5)
        assert exactness(edge_cut, rep) == 0.0
        assert rep.rank <= 4
        assert rep.certificates_ok()

    def test_monotone_target_needs_no_flip_phase(self):
        f = instantiate(generate_random("coverage", 8, seed=5))
        rep = build_lipschitz_tree(f, 0.25)
        assert rep.rank <= math.ceil(1 / 0.25)
        assert exactness(f, rep) == 0.0
        assert rep.certificates_ok()

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    def test_exactness_rank_certificates_on_corpus(self, alpha):
        for inst, f in small_corpus(ns=(4, 7, 10), seeds=(0, 1)):
            rep = build_lipschitz_tree(f, alpha)
            assert exactness(f, rep) <= 1e-9, inst
            assert rep.rank <= math.ceil(2.0 / alpha), inst
            assert rep.certificates_ok(), inst

    def test_flip_phase_actually_runs_on_cuts(self):
        # a cut function has steep negative derivatives near the top
        f = instantiate(generate_random("cut", 8, seed=1))
        mono = build_monotone_tree(f, 0.25)
        lip = build_lipschitz_tree(f, 0.25)
        assert tree_size(lip.tree) > tree_size(mono.tree)
        assert not all(c.lipschitz_ok for c in mono.leaf_certificates)
        assert lip.certificates_ok()


class TestConstantize:
    def test_constant_leaf_input_unchanged(self):
        tree_in = build_lipschitz_tree(
            ValueOracle.from_table([0.0, 1.0, 1.0, 0.0]), 1.0
        )
        out = constantize_leaves(tree_in)
        again = constantize_leaves(
            DecompositionReport(tree=out, alpha=1.0, rank=rank(out), claimed_rank_bound=2.0)
        )
        assert again == out

    def test_or_l2_example(self, or2):
        eps = 0.8
        rep = build_lipschitz_tree(or2, eps * eps / 2.0)
        tree = constantize_leaves(rep)
        assert exact_distance(or2, tree, metric="l2") <= eps

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    def test_end_to_end_error_and_rank(self, eps):
        for inst, f in small_corpus(ns=(6, 9), seeds=(0, 1)):
            tree, rep = approximate_by_tree(f, eps)
            assert exact_distance(f, tree, metric="l2") <= eps + 1e-9, inst
            assert rep.rank <= math.ceil(4.0 / (eps * eps)), inst

    def test_monte_carlo_leaf_means_beyond_cap(self, monkeypatch):
        f = instantiate(generate_random("coverage", 7, seed=6))
        rep = build_lipschitz_tree(f, 0.9)
        exact_tree = constantize_leaves(rep)
        monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "3")
        mc_tree = constantize_leaves(rep, mc_samples=20000, seed=1)
        again = constantize_leaves(rep, mc_samples=20000, seed=1)
        assert mc_tree == again  # seeded means replay exactly
        assert rep.leaf_mean_samples == 20000
        monkeypatch.delenv("SUBMODTREE_ENUM_CAP")
        err = exact_distance(exact_tree, mc_tree, metric="l2")
        assert err <= 0.05

    def test_exact_leaf_means_after_the_cap_is_lowered(self, monkeypatch):
        # a tree built within the cap, averaged under a lower one: the means
        # of the leaves still within it are their own, although larger leaves
        # come before them (they once read the slices of earlier leaves)
        f = instantiate(generate_random("coverage", 10, 0))
        rep = build_lipschitz_tree(f, 0.2)
        leaves = leaves_of(rep.tree)
        monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "4")
        means = leaves_of(constantize_leaves(rep, mc_samples=64, seed=1))
        small = [k for k, lf in enumerate(leaves) if lf.oracle.n <= 4]
        assert 0 < small[-1] and len(small) < len(leaves)
        assert [means[k].value for k in small] == [float(np.mean(leaves[k].oracle.table())) for k in small]

    def test_per_leaf_variance_bound(self):
        alpha = 0.25
        for inst, f in small_corpus(ns=(8,), seeds=(0, 1, 2)):
            rep = build_lipschitz_tree(f, alpha)
            for lf in leaves_of(rep.tree):
                if lf.oracle.n == 0:
                    continue
                t = lf.oracle.table()
                var = float(np.mean((t - np.mean(t)) ** 2))
                bound = 2.0 * alpha * float(np.mean(t))
                assert var <= bound + 1e-9, inst


class TestDiscrete:
    def test_or_is_one_level(self, or2):
        rep = build_exact_discrete_tree(or2, 1)
        assert exact_distance(or2, rep.tree, metric="disagreement") == 0.0
        assert rep.rank <= 2
        assert rep.rank == 1

    def test_edge_cut_k1(self, edge_cut):
        rep = build_exact_discrete_tree(edge_cut, 1)
        assert exact_distance(edge_cut, rep.tree, metric="disagreement") == 0.0
        assert rep.rank <= 2

    def test_matroid_k_values(self):
        # partition matroid with total cap k has range {0, 1/k, ..., 1}
        spec = FamilySpec(
            "matroid_rank_partition",
            8,
            {"blocks": [[1, 2, 3, 4], [5, 6, 7, 8]], "caps": [1, 1]},
        )
        f = instantiate(spec)
        rep = build_exact_discrete_tree(f, 2)
        assert exact_distance(f, rep.tree, metric="disagreement") == 0.0
        assert rep.rank <= 4

    def test_reject_non_discrete(self):
        f = ValueOracle.from_table([0.0, 0.37, 0.61, 1.0])
        with pytest.raises(NonDiscreteRange):
            build_exact_discrete_tree(f, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_discrete_corpus(self, k):
        # graph cuts with k edges take values on the 1/k grid
        rng = np.random.default_rng(k)
        pairs = [(a + 1, b + 1) for a in range(6) for b in range(a + 1, 6)]
        for trial in range(4):
            chosen = rng.choice(len(pairs), size=k, replace=False)
            edges = [list(pairs[int(c)]) for c in chosen]
            f = instantiate(FamilySpec("cut", 6, {"edges": edges}))
            rep = build_exact_discrete_tree(f, k)
            assert exact_distance(f, rep.tree, metric="disagreement") == 0.0
            assert rep.rank <= 2 * k


class TestShallowApproximation:
    def test_constantized_tree_truncates_to_shallow_l2_approx(self):
        # composition: constantize at eps1 = eps/2, then truncate at the
        # depth that brings disagreement under eps2 = eps^2/4; each
        # disagreeing point costs at most 1 in squared error, so the total
        # l2 error stays below eps at depth O(1/eps^2)
        eps = 0.5
        for inst, f in small_corpus(ns=(8, 10), seeds=(0, 1)):
            tree, rep = approximate_by_tree(f, eps / 2, certify=False)
            from submodtree.dtree import pruning_depth_for, rank as tree_rank, truncate, tree_depth

            r = tree_rank(tree)
            d = pruning_depth_for(r, 0.5, eps * eps / 4.0)
            shallow = truncate(tree, min(d, tree_depth(tree)))
            err = exact_distance(f, shallow, metric="l2")
            assert err <= eps + 1e-9, inst

    def test_discrete_truncation_disagreement_and_depth(self):
        # grid-valued targets: the exact rank <= 2k tree truncated at the
        # uniform closed-form depth misclassifies at most eps of the cube,
        # and that depth is within 5 (k + log2(1/eps))
        from submodtree.dtree import pruning_depth_for, truncation_disagreements, tree_depth

        for k, edges in ((1, [[1, 2]]), (2, [[1, 2], [3, 4]]), (3, [[1, 2], [2, 3], [5, 6]])):
            f = instantiate(FamilySpec("cut", 6, {"edges": edges}))
            rep = build_exact_discrete_tree(f, k)
            dis = truncation_disagreements(rep.tree)
            for eps in (0.5, 0.25):
                d = pruning_depth_for(rep.rank, 0.5, eps)
                assert d <= 5 * (k + math.log2(1.0 / eps)), (k, eps)
                assert dis[min(d, tree_depth(rep.tree))] <= eps + 1e-9, (k, eps)


class TestValueAddInduction:
    def test_subtree_rank_bounded_by_value_headroom(self):
        # the rank bound comes from an induction: at every node of the
        # one-sided tree, rank(subtree) <= (max f - f(subcube base)) / alpha
        from submodtree.dtree import Node as TNode
        from submodtree.dtree import DecisionTree as DT
        from submodtree.dtree import rank as tree_rank

        alpha = 0.25
        for inst, f in small_corpus(ns=(6, 8), seeds=(0, 1, 2)):
            rep = build_monotone_tree(f, alpha, certify=False)
            M = float(f.table().max())

            def walk(node, base):
                headroom = (M - f(base)) / alpha
                assert tree_rank(DT(f.n, node)) <= headroom + 1e-9, inst
                if isinstance(node, TNode):
                    walk(node.lo, base)
                    walk(node.hi, base | (1 << node.var))

            walk(rep.tree.root, 0)


class TestBoundaryDerivatives:
    def test_derivative_exactly_alpha_stays_leaf(self):
        # ties at the split threshold count as satisfying the leaf contract
        n = 4
        linear = ValueOracle.from_table([x.bit_count() / n for x in range(1 << n)])
        rep = build_lipschitz_tree(linear, 1.0 / n)
        assert tree_size(rep.tree) == 1
        assert rep.certificates_ok()

    def test_just_above_alpha_splits(self):
        n = 4
        linear = ValueOracle.from_table([x.bit_count() / n for x in range(1 << n)])
        rep = build_lipschitz_tree(linear, 1.0 / n - 0.01)
        assert tree_size(rep.tree) > 1
        assert rep.certificates_ok()

    def test_moderate_dimension_build(self):
        f = instantiate(generate_random("coverage", 14, seed=0))
        rep = build_lipschitz_tree(f, 0.5, check=False, certify=False)
        assert rep.rank <= 4
        assert exact_distance(f, rep.tree, metric="l1") <= 1e-9


class TestProperLearn:
    def test_junta_target_recovered_exactly(self):
        # OR on coordinates {0, 1} inside n = 8
        table = [float((x & 0b11) != 0) for x in range(256)]
        f = ValueOracle.from_table(table)
        res = proper_learn_discrete(f, 1, [0, 1], seed=3)
        assert res.disagreement == 0.0
        assert res.submodular

    def test_any_assignment_works_when_target_is_junta(self):
        spec = FamilySpec(
            "matroid_rank_partition",
            6,
            {"blocks": [[1, 2], [3], [4], [5], [6]], "caps": [1, 1, 1, 1, 1]},
        )
        f = instantiate(spec)
        res = proper_learn_discrete(f, 5, [0, 1, 2, 3, 4, 5], seed=0, trials=1)
        assert res.disagreement == 0.0

    def test_markov_best_of_three(self):
        # target is 1/8-far from every junta on J = {0,1,2}: an extra block
        # outside J contributes min(weight, 1)/2
        spec = FamilySpec(
            "matroid_rank_partition",
            6,
            {"blocks": [[1, 2, 3], [4, 5, 6]], "caps": [1, 1]},
        )
        f = instantiate(spec)
        hits = 0
        for seed in range(20):
            res = proper_learn_discrete(f, 2, [0, 1, 2], seed=seed, trials=3)
            hits += res.disagreement <= 0.25 + 1e-9
        # each trial fails only when the random outside assignment is all-zero
        assert hits >= 16
