import json

import numpy as np
import pytest

from conftest import pt, random_table_oracle, small_corpus
from submodtree.funcs import (
    FamilySpec,
    GENERATED_FAMILIES,
    InvalidFamilySpec,
    Restriction,
    TOL,
    ValueOracle,
    derivative,
    flip_oracle,
    generate_random,
    instantiate,
    is_alpha_monotone_decreasing,
    is_submodular,
    lipschitz_constant,
    restrict,
    second_derivative,
)


class TestInstantiate:
    def test_coverage_example(self):
        spec = FamilySpec(
            "coverage", 2, {"universe_size": 2, "sets": [[1], [1, 2]]}
        )
        f = instantiate(spec)
        assert f(pt("10")) == 0.5
        assert f(pt("01")) == 1.0
        assert f(pt("11")) == 1.0

    def test_single_edge_cut(self, edge_cut):
        assert edge_cut(pt("00")) == 0.0
        assert edge_cut(pt("10")) == 1.0
        assert edge_cut(pt("01")) == 1.0
        assert edge_cut(pt("11")) == 0.0

    def test_concave_profile_xor_shape(self):
        f = instantiate(FamilySpec("concave_profile", 2, {"profile": [0, 1, 0]}))
        assert [f(x) for x in range(4)] == [0.0, 1.0, 1.0, 0.0]

    def test_invalid_specs(self):
        with pytest.raises(InvalidFamilySpec):
            instantiate(FamilySpec("coverage", 2, {"universe_size": 0, "sets": [[], []]}))
        with pytest.raises(InvalidFamilySpec):
            instantiate(FamilySpec("concave_profile", 2, {"profile": [0, 0.2, 1]}))
        with pytest.raises(InvalidFamilySpec):
            instantiate(FamilySpec("cut", 2, {"edges": []}))
        with pytest.raises(InvalidFamilySpec):
            instantiate(FamilySpec("nonsense", 2, {}))

    def test_numpy_integers_are_integer_fields(self):
        i = np.int64
        specs = [
            FamilySpec("coverage", i(2), {"universe_size": i(2), "sets": [[i(1)], [i(1), 2]]}),
            FamilySpec("cut", i(2), {"edges": [[i(1), i(2)]]}),
            FamilySpec("matroid_rank_partition", 2, {"blocks": [[i(1), 2]], "caps": [i(1)]}),
        ]
        plain = [
            FamilySpec("coverage", 2, {"universe_size": 2, "sets": [[1], [1, 2]]}),
            FamilySpec("cut", 2, {"edges": [[1, 2]]}),
            FamilySpec("matroid_rank_partition", 2, {"blocks": [[1, 2]], "caps": [1]}),
        ]
        for spec, want in zip(specs, plain):
            assert instantiate(spec).table().tolist() == instantiate(want).table().tolist()

    def test_matroid_block_coordinates_are_one_based(self):
        spec = FamilySpec("matroid_rank_partition", 2, {"blocks": [[0, 1, 2]], "caps": [1]})
        with pytest.raises(InvalidFamilySpec, match=r"1\.\.2"):
            instantiate(spec)

    def test_spec_json_roundtrip(self):
        spec = generate_random("coverage", 5, seed=3)
        text = json.dumps({"family": spec.family, "n": spec.n, **spec.params})
        assert FamilySpec.from_json(text) == spec


class TestDerivatives:
    def test_or_derivative(self, or2):
        assert derivative(or2, 0, pt("00")) == 1.0
        assert derivative(or2, 0, pt("01")) == 0.0

    def test_constant_derivative(self):
        const = ValueOracle.from_table([0.3] * 8)
        for i in range(3):
            for x in range(8):
                assert derivative(const, i, x) == 0.0

    def test_second_derivative_examples(self, and2, edge_cut):
        assert second_derivative(and2, 0, 1, 0) == 1.0
        assert second_derivative(edge_cut, 0, 1, 0) == -2.0
        linear = ValueOracle.from_table([0.0, 0.25, 0.5, 0.75, 0.25, 0.5, 0.75, 1.0])
        for x in range(8):
            assert second_derivative(linear, 0, 2, x) == pytest.approx(0.0)

    def test_second_derivative_same_coordinate(self, or2):
        with pytest.raises(ValueError):
            second_derivative(or2, 1, 1, 0)


class TestCheckers:
    def test_cut_is_submodular(self, edge_cut):
        assert bool(is_submodular(edge_cut))

    def test_and_is_not_submodular(self, and2):
        res = is_submodular(and2)
        assert not res
        assert res.witness == (0, 1, 0)
        assert res.extreme == pytest.approx(1.0)

    def test_alpha_monotone(self, or2):
        assert bool(is_alpha_monotone_decreasing(or2, 1.0))
        res = is_alpha_monotone_decreasing(or2, 0.6)
        assert not res
        assert res.witness == (0, 0)

    def test_alpha_monotone_constant(self):
        const = ValueOracle.from_table([0.4, 0.4, 0.4, 0.4])
        assert bool(is_alpha_monotone_decreasing(const, 0.0))

    def test_lipschitz_examples(self, edge_cut):
        n = 4
        counting = ValueOracle.from_table(
            [x.bit_count() / n for x in range(1 << n)]
        )
        assert lipschitz_constant(counting) == pytest.approx(1 / n)
        assert lipschitz_constant(ValueOracle.from_table([0.7, 0.7])) == 0.0
        assert lipschitz_constant(edge_cut) == 1.0


class TestRestrictAndFlip:
    def test_or_restrictions(self, or2):
        high = restrict(or2, Restriction(2, {0: 1}))
        assert [high(z) for z in range(2)] == [1.0, 1.0]
        low = restrict(or2, Restriction(2, {0: 0}))
        assert [low(z) for z in range(2)] == [0.0, 1.0]

    def test_empty_restriction_is_identity(self, or2):
        assert restrict(or2, Restriction(2, {})) is or2

    def test_flip_or(self, or2):
        flipped = flip_oracle(or2)
        assert [flipped(x) for x in range(4)] == [1.0, 1.0, 1.0, 0.0]

    def test_flip_constant(self):
        const = ValueOracle.from_table([0.2, 0.2])
        assert flip_oracle(const)(0) == 0.2

    def test_flip_involution(self):
        f = random_table_oracle(5, seed=9)
        twice = flip_oracle(flip_oracle(f))
        assert np.array_equal(twice.table(), f.table())

    def test_function_backed_restriction(self):
        # same slicing semantics with and without a materialized table
        spec = generate_random("coverage", 6, seed=4)
        lazy = instantiate(spec)
        eager = instantiate(spec)
        eager.table()
        r = Restriction(6, {1: 1, 4: 0})
        a, b = restrict(lazy, r), restrict(eager, r)
        assert [a(z) for z in range(16)] == [b(z) for z in range(16)]

    def test_restriction_preserves_submodularity(self):
        for inst, f in small_corpus(ns=(6,), seeds=(0, 1)):
            r = Restriction(6, {0: 1, 3: 0})
            assert bool(is_submodular(restrict(f, r))), inst

    def test_flip_preserves_submodularity(self):
        for inst, f in small_corpus(ns=(6, 8), seeds=(0, 1)):
            assert bool(is_submodular(flip_oracle(f))), inst


class TestGeneratedCorpus:
    def test_deterministic_in_seed(self):
        for family in GENERATED_FAMILIES:
            assert generate_random(family, 6, 7) == generate_random(family, 6, 7)
            assert generate_random(family, 6, 7) != generate_random(family, 6, 8)

    @pytest.mark.parametrize("family", GENERATED_FAMILIES)
    def test_all_instances_submodular_in_unit_range(self, family):
        # >= 50 seeds per family, spread over n <= 10
        count = 0
        for n in (3, 4, 5, 6, 7, 8, 9, 10):
            for seed in range(7):
                f = instantiate(generate_random(family, n, seed))
                t = f.table()
                assert t.min() >= -TOL and t.max() <= 1 + TOL, (family, n, seed)
                assert bool(is_submodular(f)), (family, n, seed)
                count += 1
        assert count >= 50

    def test_cut_n2_single_edge(self):
        spec = generate_random("cut", 2, seed=11)
        assert spec.params["edges"] == [[1, 2]]

    def test_concave_profile_in_unit_range(self):
        spec = generate_random("concave_profile", 6, seed=7)
        assert all(0.0 <= v <= 1.0 for v in spec.params["profile"])

    def test_monotone_decreasing_derivatives(self):
        # for submodular f the derivative along i never grows along any edge
        for inst, f in small_corpus(ns=(6, 8), seeds=(0, 1, 2)):
            n = f.n
            t = f.table()
            idx = np.arange(1 << n)
            for i in range(n):
                lo = idx[(idx >> i) & 1 == 0]
                d = t[lo | (1 << i)] - t[lo]
                for j in range(n):
                    if j == i:
                        continue
                    sub = (lo >> j) & 1 == 0
                    z0 = np.flatnonzero(sub)
                    pair = {int(v): k for k, v in enumerate(lo)}
                    z1 = np.array([pair[int(lo[k] | (1 << j))] for k in z0])
                    assert np.all(d[z0] >= d[z1] - TOL), (inst, i, j)

    def test_variance_bound(self):
        # Var <= 2 * Lipschitz constant * mean, exhaustively
        for inst, f in small_corpus(ns=(4, 6, 8, 10), seeds=(0, 1, 2)):
            t = f.table()
            var = float(np.mean((t - np.mean(t)) ** 2))
            bound = 2.0 * lipschitz_constant(f) * float(np.mean(t))
            assert var <= bound + 1e-9, inst


class TestQueryCounting:
    def test_concurrent_counting(self):
        from concurrent.futures import ThreadPoolExecutor

        f = instantiate(generate_random("coverage", 6, seed=0))
        before = f.query_count

        def hammer(k):
            for x in range(64):
                f(x)
            return k

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert f.query_count == before + 8 * 64

    def test_counter_shared_with_restrictions(self):
        f = instantiate(generate_random("coverage", 5, seed=0))
        before = f.query_count
        g = restrict(f, Restriction(5, {2: 1}))
        g(0)
        g(3)
        assert f.query_count == before + 2

    def test_table_charges_once(self):
        f = instantiate(generate_random("cut", 4, seed=0))
        before = f.query_count
        f.table()
        f.table()
        assert f.query_count == before + 16
