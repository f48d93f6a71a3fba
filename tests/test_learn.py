import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_dict, small_corpus, spectrum_of
from submodtree.cube import MAX_PACKED_N, mask_of
from submodtree.dtree import exact_distance, tree_table
from submodtree import fourier
from submodtree.fourier import Spectrum, parity_signs, spectral_l1, transform
from submodtree.funcs import GENERATED_FAMILIES, FamilySpec, ValueOracle, generate_random, instantiate, view
from submodtree.learn import (
    LabeledSample,
    _bucket_weight_estimate,
    agnostic_l2_learn,
    draw_sample,
    find_influential_variables,
    km_search,
    pac_learn,
    threshold_decompose,
)

KM_FAST = dict(bucket_samples=4096, coeff_samples=1 << 15)


def planted_oracle(n, coeffs) -> ValueOracle:
    return ValueOracle.from_table(spectrum_of(n, coeffs).table())


def _reference_influential(data, gamma: float) -> tuple[int, ...]:
    """`find_influential_variables` as it was before it read its coefficients
    through `low_degree_estimate`: the n singletons and the pairs, cut."""
    n = data.n if isinstance(data, LabeledSample) else data.size.bit_length() - 1
    i, j = np.triu_indices(n, 1)
    masks = np.concatenate([1 << np.arange(n), (1 << i) | (1 << j)])
    if isinstance(data, LabeledSample):
        coeffs = fourier.empirical_coefficients(data.xs, data.ys, n, masks)
    else:
        coeffs = data[masks]
    cut = np.where(masks & (masks - 1), 1.5 * gamma * gamma, gamma / 2.0)
    keep = masks[np.abs(coeffs) >= cut]
    return tuple(k for k in range(n) if int(np.bitwise_or.reduce(keep, initial=0)) >> k & 1)


class TestFindInfluential:
    def test_exact_mode_edge_cut_in_four_vars(self):
        f = instantiate(FamilySpec("cut", 4, {"edges": [[1, 2]]}))
        assert find_influential_variables(fourier.coefficients(f), 0.3) == (0, 1)

    def test_constant_gives_empty(self):
        const = ValueOracle.from_table([0.4] * 16)
        assert find_influential_variables(fourier.coefficients(const), 0.3) == ()

    def test_sampled_coverage_junta(self):
        sets = [[] for _ in range(8)]
        sets[1], sets[4] = [1], [1, 2]
        f = instantiate(FamilySpec("coverage", 8, {"universe_size": 2, "sets": sets}))
        sample = draw_sample(f, 1 << 16, seed=5)
        J = find_influential_variables(sample, 0.2)
        assert set(J) >= {1, 4}
        assert len(J) <= 4

    def test_gamma_validation(self):
        const = ValueOracle.from_table([0.4] * 4)
        with pytest.raises(ValueError):
            find_influential_variables(fourier.coefficients(const), 0.6)

    def test_an_oracle_is_not_data(self):
        const = ValueOracle.from_table([0.4] * 4)
        with pytest.raises(TypeError, match=r"fourier\.coefficients\(f\)"):
            find_influential_variables(const, 0.1)

    # sampled data above n = 20 estimates each coefficient on its own
    @settings(deadline=None)
    @given(st.sampled_from(["coverage", "cut"]), st.integers(min_value=2, max_value=24),
           st.integers(min_value=0, max_value=9), st.booleans(),
           st.sampled_from([0.02, 0.1, 0.2, 0.3]))
    def test_matches_the_singleton_and_pair_cut(self, family, n, seed, sampled, gamma):
        f = instantiate(generate_random(family, n if sampled else min(n, 10), seed))
        data = draw_sample(f, 512, seed) if sampled else fourier.coefficients(f)
        assert find_influential_variables(data, gamma) == _reference_influential(data, gamma)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            find_influential_variables(
                LabeledSample(3, np.array([], dtype=np.int64), np.array([])), 0.1
            )

    def test_soundness_and_size_on_corpus(self):
        gamma = 0.2
        for inst, f in small_corpus(ns=(6, 8), seeds=(0, 1, 2)):
            sp = as_dict(transform(f))
            J = set(find_influential_variables(fourier.coefficients(f), gamma))
            must_cover = set()
            for s, c in sp.items():
                if s and abs(c) >= gamma:
                    must_cover.update(i for i in range(f.n) if (s >> i) & 1)
            assert must_cover <= J, inst
            assert len(J) <= 2.0 / gamma**4, inst

    def test_junta_projection_statement(self):
        # if some degree-d, norm-L function is eps-close to f, then the
        # variables flagged at cutoff eps^2/L carry a degree-d function
        # within 2 eps of f (checked by exact projection)
        d = 3
        for inst, f in small_corpus(ns=(6, 8), seeds=(0, 1)):
            sp = as_dict(transform(f))
            p = {s: c for s, c in sp.items() if s.bit_count() <= d}
            eps = math.sqrt(sum(c * c for s, c in sp.items() if s.bit_count() > d))
            L = sum(abs(c) for c in p.values())
            if eps < 1e-9:
                continue
            cutoff = eps * eps / L
            J = 0
            for s, c in sp.items():
                if s and s.bit_count() <= d and abs(c) >= cutoff:
                    J |= s
            proj = spectrum_of(
                f.n,
                {s: c for s, c in sp.items() if s.bit_count() <= d and (s & ~J) == 0},
            )
            err = exact_distance(f, proj, metric="l2")
            assert err <= 2 * eps + 1e-9, inst

    def test_pair_coefficient_forced_by_large_set(self):
        # any i inside a heavy set forces a heavy pair coefficient
        gamma = 0.2
        for inst, f in small_corpus(ns=(6, 8), seeds=(0, 1, 2)):
            sp = as_dict(transform(f))
            for s, c in sp.items():
                if s.bit_count() < 2 or abs(c) < gamma:
                    continue
                for i in range(f.n):
                    if not (s >> i) & 1:
                        continue
                    best = max(
                        abs(sp.get((1 << i) | (1 << j), 0.0))
                        for j in range(f.n)
                        if j != i
                    )
                    assert best >= gamma * gamma / 2.0 - 1e-9, (inst, i)


class TestPacLearn:
    def test_exact_junta_realizable(self):
        table = [float((x & 0b101) != 0) for x in range(1 << 10)]
        f = ValueOracle.from_table(table)
        hyp = pac_learn(f, 0.25, gamma=0.05, degree=2, exact=True)
        assert set(hyp.info["J"]) == {0, 2}
        assert exact_distance(f, hyp.spectrum, metric="l2") <= 1e-6

    def test_constant_target(self):
        f = ValueOracle.from_table([0.3] * 64)
        hyp = pac_learn(f, 0.25, gamma=0.05, degree=2, exact=True)
        assert set(hyp.spectrum.masks.tolist()) <= {0}
        assert exact_distance(f, hyp.spectrum, metric="l2") <= 1e-9

    @pytest.mark.parametrize("family,seed,gamma,degree", [
        ("coverage", 1, 0.02, 2), ("cut", 0, 0.1, 3), ("matroid_rank_partition", 1, 0.1, 2),
    ])
    def test_exact_mode_transforms_once(self, monkeypatch, family, seed, gamma, degree):
        f = instantiate(generate_random(family, 10, seed))
        # the two-stage route: each stage computes the full transform
        J = find_influential_variables(fourier.coefficients(f), gamma)
        want = fourier.low_degree_estimate(fourier.coefficients(f), mask_of(J), degree)
        calls = []
        fwht = fourier.fwht
        monkeypatch.setattr(fourier, "fwht", lambda v: calls.append(len(v)) or fwht(v))
        hyp = pac_learn(f, 0.5, gamma=gamma, degree=degree, exact=True)
        assert calls == [1 << 10]
        assert hyp.info["J"] == list(J) and J
        assert hyp.spectrum.masks.tolist() == want.masks.tolist()
        assert hyp.spectrum.coeffs.tobytes() == want.coeffs.tobytes()

    def test_sampled_mode_needs_m(self):
        f = ValueOracle.from_table([0.3] * 64)
        with pytest.raises(ValueError):
            pac_learn(f, 0.25, gamma=0.05, degree=2)

    def test_sampled_constantized_tree_target(self):
        from submodtree.decompose import approximate_by_tree

        base = instantiate(generate_random("coverage", 10, seed=2))
        tree, _ = approximate_by_tree(base, 0.5)
        target = ValueOracle.from_table(tree_table(tree))
        hyp = pac_learn(target, 0.5, gamma=0.05, degree=4, m=1 << 17, seed=0)
        assert exact_distance(target, hyp.spectrum, metric="l2") <= 0.5

    def test_hypothesis_support_inside_junta(self):
        f = instantiate(generate_random("coverage", 8, seed=1))
        hyp = pac_learn(f, 0.5, gamma=0.1, degree=3, exact=True)
        for s in hyp.spectrum.masks.tolist():
            assert s & ~hyp.variables_used == 0
            assert s.bit_count() <= 3


class TestKmSearch:
    def test_planted_pair(self):
        f = planted_oracle(8, {mask_of([0]): 0.5, mask_of([1, 2]): 0.3})
        hyp = km_search(f, theta=0.4, seed=7, **KM_FAST)
        got = as_dict(hyp.spectrum)
        assert mask_of([0]) in got
        assert all(s in (mask_of([0]), mask_of([1, 2])) for s in got)
        assert got[mask_of([0])] == pytest.approx(0.5, abs=0.1)

    def test_single_parity(self):
        s = mask_of([2, 5])
        f = planted_oracle(8, {s: 1.0})
        hyp = km_search(f, theta=0.5, seed=1, **KM_FAST)
        assert as_dict(hyp.spectrum) == {s: pytest.approx(1.0, abs=0.125)}

    def test_zero_function(self):
        f = ValueOracle.from_table([0.0] * 256)
        hyp = km_search(f, theta=0.5, seed=0, **KM_FAST)
        assert as_dict(hyp.spectrum) == {}

    def test_degree_cap_filters(self):
        big = mask_of([0, 1, 2, 3, 4, 5])
        f = planted_oracle(8, {big: 0.8, mask_of([1]): 0.6})
        hyp = km_search(f, theta=0.4, degree=2, seed=3, **KM_FAST)
        assert big not in hyp.spectrum.masks
        assert mask_of([1]) in hyp.spectrum.masks

    def test_contract_over_seeds(self):
        theta, d = 0.4, 4
        ok = 0
        runs = 30
        for seed in range(runs):
            rng = np.random.default_rng((42, seed))
            masks = []
            while len(masks) < 3:
                m = int(rng.integers(1, 256))
                if m.bit_count() <= d and m not in masks:
                    masks.append(m)
            signs = rng.choice([-1.0, 1.0], size=3)
            planted = {m: s * v for m, v, s in zip(masks, [0.5, 0.3, 0.15], signs)}
            f = planted_oracle(8, planted)
            hyp = km_search(f, theta, degree=d, seed=seed, **KM_FAST)
            got = as_dict(hyp.spectrum)
            c1 = all(s.bit_count() <= d for s in got)
            c2 = masks[0] in got
            c3 = all(abs(planted.get(s, 0.0)) > theta / 2 for s in got)
            c4 = all(abs(planted.get(s, 0.0) - est) <= theta / 4 for s, est in got.items())
            ok += c1 and c2 and c3 and c4
        assert ok >= 0.95 * runs

    def test_reports_queries(self):
        f = planted_oracle(8, {1: 1.0})
        hyp = km_search(f, theta=0.5, seed=0, **KM_FAST)
        assert hyp.queries_used > 0
        assert hyp.info["buckets_examined"] > 0

    def test_default_sample_counts_outside_the_float_range(self):
        # theta^4 overflows: less than one sample, so one; theta^4
        # underflows, or the count exceeds the work limit: no draw at all
        f = planted_oracle(4, {1: 1.0})
        hyp = km_search(f, theta=1e100, seed=0)
        assert (hyp.info["bucket_samples"], hyp.info["coeff_samples"]) == (1, 1)
        before = f.query_count
        for theta in (1e-100, 0.01):
            with pytest.raises(fourier.BudgetExceeded, match="exceeds the work limit"):
                km_search(f, theta=theta, seed=0)
        assert f.query_count == before
        # given counts are used as they are
        assert km_search(f, theta=1e-100, seed=0, bucket_samples=4, coeff_samples=4).queries_used

    @pytest.mark.parametrize("counts,name", [
        (dict(bucket_samples=0), "bucket_samples"),
        (dict(bucket_samples=-3), "bucket_samples"),
        (dict(bucket_samples=2.5), "bucket_samples"),
        (dict(coeff_samples=0), "coeff_samples"),
    ])
    def test_sample_counts_are_checked_at_entry(self, counts, name):
        f = planted_oracle(4, {1: 1.0})
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            km_search(f, theta=0.5, seed=0, **{**KM_FAST, **counts})
        assert f.query_count == 0


def ref_bucket_weight_estimate(f, k, pattern, m, rng):
    """`_bucket_weight_estimate` before it shared one parity of x1 ^ x2 and
    one evaluator call between its two point halves."""
    n = f.n
    x1 = rng.integers(0, 1 << k, size=m, dtype=np.int64)
    x2 = rng.integers(0, 1 << k, size=m, dtype=np.int64)
    y = rng.integers(0, 1 << (n - k), size=m, dtype=np.int64) if n > k else np.zeros(m, np.int64)
    p1 = x1 | (y << k)
    p2 = x2 | (y << k)
    terms = (
        f.eval_many(p1)
        * f.eval_many(p2)
        * parity_signs(pattern, x1)
        * parity_signs(pattern, x2)
    )
    return float(np.mean(terms))


# the table-backed oracles hold 2^n values, so their n stays small; their
# values include -0.0, +-inf and NaN
TABLE_VALUES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["family", "table", "view"]),
    family=st.sampled_from(GENERATED_FAMILIES),
    m=st.sampled_from([1, 2, 3, 4, 6000, 8191, 8192, 8193]) | st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_bucket_estimate_matches_the_two_call_reference(kind, family, m, seed, data):
    if kind == "table":
        n = data.draw(st.integers(1, 10))
        values = np.array(data.draw(st.lists(TABLE_VALUES, min_size=1, max_size=8)))
        table = values[np.random.default_rng(seed).integers(0, values.size, size=1 << n)]

        def make():
            return ValueOracle.from_table(table)

    else:
        n = data.draw(st.integers(1, MAX_PACKED_N) | st.sampled_from([1, 2, 30, MAX_PACKED_N]))
        spec = generate_random(family if n >= 2 else "coverage", n, seed % 1000)  # cut needs n >= 2

        def make():
            f = instantiate(spec)  # the view is the unit-range map of `agnostic_l2_learn`
            return f if kind == "family" else view(f, values=lambda v: 2.0 * v - 1.0)

    k = data.draw(st.integers(1, n) | st.just(n))
    pattern = data.draw(st.integers(0, (1 << k) - 1))
    f, f_ref = make(), make()
    with np.errstate(all="ignore"):  # inf - inf and overflowing sums in the tables' means
        got = _bucket_weight_estimate(f, k, pattern, m, np.random.default_rng(seed))
        want = ref_bucket_weight_estimate(f_ref, k, pattern, m, np.random.default_rng(seed))
    assert np.float64(got).tobytes() == np.float64(want).tobytes() or (math.isnan(got) and math.isnan(want))
    assert f.query_count == f_ref.query_count == 2 * m


class TestAgnostic:
    def test_realizable_parity(self):
        f = planted_oracle(8, {mask_of([0]): 1.0})
        hyp = agnostic_l2_learn(f, 0.5, L=1.0, seed=0, **KM_FAST)
        assert exact_distance(f, hyp.spectrum, metric="l2") <= 0.5

    def test_noisy_parity_against_competitor(self):
        rng = np.random.default_rng(8)
        noise = rng.uniform(-0.1, 0.1, size=256)
        chi = parity_signs(1, np.arange(256))
        f = ValueOracle.from_table(0.9 * chi + noise)
        hyp = agnostic_l2_learn(f, 0.4, L=1.0, seed=2, **KM_FAST)
        g = Spectrum(8, [1], [0.9])
        delta = exact_distance(f, g, metric="l2")
        err = exact_distance(f, hyp.spectrum, metric="l2")
        assert err <= delta + 0.4 + 1e-9

    def test_unit_range_tree_target(self):
        from submodtree.decompose import approximate_by_tree

        base = instantiate(generate_random("coverage", 8, seed=3))
        tree, _ = approximate_by_tree(base, 0.5)
        f = ValueOracle.from_table(tree_table(tree))
        L = spectral_l1(transform(f))
        hyp = agnostic_l2_learn(f, 0.5, L=L, seed=1, unit_range=True, **KM_FAST)
        # competitor g = f itself realizes Delta = 0
        assert exact_distance(f, hyp.spectrum, metric="l2") <= 0.5

    def test_dominance_against_explicit_competitors(self):
        f = planted_oracle(8, {mask_of([1]): 0.7, mask_of([0, 2]): 0.4})
        hyp = agnostic_l2_learn(f, 0.5, L=1.2, seed=4, **KM_FAST)
        err = exact_distance(f, hyp.spectrum, metric="l2")
        competitors = [
            spectrum_of(8, {mask_of([1]): 0.7, mask_of([0, 2]): 0.4}),
            Spectrum(8, [mask_of([1])], [0.7]),
            Spectrum(8, [0], [0.1]),
        ]
        for g in competitors:
            assert spectral_l1(g) <= 1.2
            assert err <= exact_distance(f, g, metric="l2") + 0.5 + 1e-9

    @pytest.mark.parametrize("epsilon, L", [(1e-200, 1.0), (0.5, 1e308), (1e200, 1.0)])
    def test_a_threshold_outside_the_floats_names_epsilon_and_l(self, epsilon, L):
        f = planted_oracle(4, {mask_of([0]): 0.5})
        for unit_range in (False, True):
            with pytest.raises(ValueError, match=re.escape(f"got epsilon={epsilon}, L={L}") + "$"):
                agnostic_l2_learn(f, epsilon, L, unit_range=unit_range, **KM_FAST)
        assert f.query_count == 0


class TestThresholdDecompose:
    def test_all_ones(self):
        g = ValueOracle.from_table([1.0] * 8)
        levels, gp = threshold_decompose(g, 0.25)
        assert len(levels) == 4
        assert all(level(x) == 1.0 for level in levels for x in range(8))
        assert all(gp(x) == 1.0 for x in range(8))

    def test_rounding_example(self):
        g = ValueOracle.from_table([0.6] * 4)
        _, gp = threshold_decompose(g, 0.25)
        assert gp(0) == pytest.approx(0.5)

    def test_grid_values_unchanged(self):
        g = ValueOracle.from_table([0.0, 0.5, 1.0, 0.5])
        _, gp = threshold_decompose(g, 0.5)
        assert [gp(x) for x in range(4)] == [0.0, 0.5, 1.0, 0.5]

    def test_pointwise_band(self):
        rng = np.random.default_rng(0)
        g = ValueOracle.from_table(rng.uniform(0, 1, 64))
        for eps in (0.5, 0.25, 0.1):
            levels, gp = threshold_decompose(g, eps)
            gap = g.table() - gp.table()
            assert np.all(gap >= -1e-12) and np.all(gap <= eps + 1e-12)
            recombined = eps * sum(level.table() for level in levels)
            assert np.allclose(recombined, gp.table())

    @given(
        st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**30),
    )
    def test_pointwise_band_property(self, eps, seed):
        rng = np.random.default_rng(seed)
        g = ValueOracle.from_table(rng.uniform(0, 1, 16))
        _, gp = threshold_decompose(g, eps)
        gap = g.table() - gp.table()
        assert np.all(gap >= -1e-9) and np.all(gap <= eps + 1e-9)

    def test_epsilon_validation(self):
        g = ValueOracle.from_table([0.0, 1.0])
        with pytest.raises(ValueError):
            threshold_decompose(g, 0.0)

    def test_boolean_subadditivity(self):
        # l1 error of the recombination is at most eps * sum of the levelwise
        # disagreement of any Boolean approximations
        rng = np.random.default_rng(3)
        g = ValueOracle.from_table(rng.uniform(0, 1, 64))
        eps = 0.25
        levels, gp = threshold_decompose(g, eps)
        approx = [
            (level.table() != (rng.random(64) < 0.1)).astype(float) for level in levels
        ]
        # approx[i] here is the XOR with a noise mask: a Boolean approximation
        recombined = eps * sum(a for a in approx)
        l1 = float(np.mean(np.abs(gp.table() - recombined)))
        total = sum(float(np.mean(a != l.table())) for a, l in zip(approx, levels))
        assert l1 <= eps * total + 1e-12
