import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_dict, pt
from submodtree.cube import fw_rank, mask_of
from submodtree.fourier import (
    BudgetExceeded,
    LabeledSample,
    Spectrum,
    candidate_masks,
    empirical_coefficients,
    parity_signs,
    transform,
)
from submodtree.funcs import ValueOracle, is_monotone, is_submodular
from submodtree.hardness import (
    EmbeddingSpec,
    GadgetSpec,
    NoCandidateFound,
    NoisySource,
    alternating_partial_sum,
    alternating_partial_sum_closed,
    beta,
    correlation_brute_force,
    correlation_closed_form,
    embed_build,
    embed_decode,
    embedding_spec_for,
    gadget_profile,
    lpn_reduce,
    make_gadget,
    noisy_examples,
    noisy_l1_error_exact,
    regression_learner,
)


def beta_inv(spec: EmbeddingSpec, x: int) -> int | None:
    """The preimage of a weight-t point under `beta`, when its rank falls
    inside 2^k: the rank's k low bits in reverse order."""
    r = fw_rank(x, spec.n)
    if r >= (1 << spec.k):
        return None
    return int(format(r, f"0{spec.k}b")[::-1], 2)


class TestGadgets:
    def test_plateau_s2_profile(self):
        assert gadget_profile(2, "plateau") == [0, 1, 0]

    def test_monotone_s2_profile(self):
        assert gadget_profile(2, "monotone") == [0, 1, 1]

    def test_plateau_s3_top_is_negative(self):
        # the displayed odd-case formula leaves the top layer at -1/(k-1)
        assert gadget_profile(3, "plateau")[3] == Fraction(-1)

    def test_rejects_small_s(self):
        with pytest.raises(ValueError):
            GadgetSpec(mask_of([0]), "plateau")
        with pytest.raises(ValueError):
            gadget_profile(1, "plateau")

    def test_monotonization_identity(self):
        # H = (R + linear)/2 with slope 1/k (even) or 1/(k-1) (odd)
        for s in range(2, 11):
            k = (s + 1) // 2
            denom = k if s % 2 == 0 else k - 1
            R = gadget_profile(s, "plateau")
            H = gadget_profile(s, "monotone")
            for w in range(s + 1):
                assert H[w] == (R[w] + Fraction(w, denom)) / 2, (s, w)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 8])
    def test_certificates(self, s):
        n = s + 2
        subset = mask_of(range(1, s + 1))
        H = make_gadget(GadgetSpec(subset, "monotone"), n)
        R = make_gadget(GadgetSpec(subset, "plateau"), n)
        assert bool(is_submodular(H)) and bool(is_monotone(H))
        assert bool(is_submodular(R))
        # symmetric inside the subset, constant outside
        t = H.table()
        for x in range(1 << n):
            w = (x & subset).bit_count()
            twin = int(mask_of(range(1, w + 1)))
            assert t[x] == t[twin], (s, x)

    def test_monotone_gadget_in_unit_range(self):
        for s in range(2, 13):
            prof = gadget_profile(s, "monotone")
            assert all(0 <= v <= 1 for v in prof)

    def test_certificates_up_to_s12_in_n14(self):
        n = 14
        for s in range(2, 13):
            subset = mask_of(range(s))
            assert bool(is_submodular(make_gadget(GadgetSpec(subset, "monotone"), n))), s
            assert bool(is_monotone(make_gadget(GadgetSpec(subset, "monotone"), n))), s
            assert bool(is_submodular(make_gadget(GadgetSpec(subset, "plateau"), n))), s


class TestCorrelations:
    def test_key_values(self):
        assert correlation_closed_form(2) == Fraction(-1, 2)
        assert correlation_closed_form(3) == Fraction(-1, 4)
        assert correlation_closed_form(4) == Fraction(1, 8)

    @pytest.mark.parametrize("s", range(2, 17))
    def test_closed_form_matches_brute_force(self, s):
        assert correlation_closed_form(s) == correlation_brute_force(s)

    @pytest.mark.parametrize("s", range(2, 17))
    def test_monotone_correlation_is_half(self, s):
        assert correlation_brute_force(s, "monotone") == correlation_brute_force(s) / 2

    def test_linear_term_is_uncorrelated(self):
        # <chi_S, w_S> = 0, which is why halving works
        for s in range(2, 10):
            total = sum(
                Fraction((-1) ** w * math.comb(s, w) * w) for w in range(s + 1)
            )
            assert total == 0

    def test_undefined_for_s1(self):
        with pytest.raises(ValueError):
            correlation_closed_form(1)

    @pytest.mark.parametrize("s", range(2, 17))
    def test_magnitude_law(self, s):
        scaled = abs(float(correlation_brute_force(s, "monotone"))) * s**1.5
        assert 0.1 <= scaled <= 10.0

    def test_gadget_oracle_matches_exact_correlation(self):
        s, n = 4, 6
        subset = mask_of(range(s))
        R = make_gadget(GadgetSpec(subset, "plateau"), n)
        sp = transform(R)
        assert as_dict(sp)[subset] == pytest.approx(float(correlation_closed_form(s)))


class TestPartialSums:
    def test_examples(self):
        assert alternating_partial_sum(5, 2) == 6
        assert alternating_partial_sum(7, 0) == 1
        assert alternating_partial_sum(4, 4) == 0

    def test_identity_up_to_20(self):
        for n in range(1, 21):
            for r in range(n + 1):
                assert alternating_partial_sum(n, r) == alternating_partial_sum_closed(n, r)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            alternating_partial_sum(4, 5)


class TestEmbedding:
    def test_spec_for_k2(self):
        spec = embedding_spec_for(2)
        assert spec.t == 2  # C(4,2)=6 >= 4 > C(2,1)=2
        with pytest.raises(ValueError):
            EmbeddingSpec(2, 3)

    def test_xor_values(self):
        xor = ValueOracle.from_table([0.0, 1.0, 1.0, 0.0])
        h, spec = embed_build(xor)
        assert h(pt("0011")) == 0.75  # embeds y=00, f=0, dip to 1 - 1/(2t)
        assert h(pt("0101")) == 1.0  # embeds y=01, f=1
        assert h(pt("1111")) == 1.0
        assert h(pt("0000")) == 0.0
        assert h(pt("1000")) == pytest.approx(0.5)

    def test_beta_is_injective_and_invertible(self):
        for k in (1, 2, 3, 4):
            spec = embedding_spec_for(k)
            seen = set()
            for y in range(1 << k):
                x = beta(spec, y)
                assert x.bit_count() == spec.t
                assert x not in seen
                seen.add(x)
                assert beta_inv(spec, x) == y

    def test_query_cost(self):
        f = ValueOracle.from_table([0.0, 1.0, 1.0, 0.0])
        h, spec = embed_build(f)
        before = f.query_count
        for x in range(1 << spec.n):
            h(x)
        assert f.query_count - before <= 1 << spec.n

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_monotone_submodular_and_exact_roundtrip(self, k):
        rng = np.random.default_rng((99, k))
        for trial in range(3):
            f = ValueOracle.from_table(rng.integers(0, 2, size=1 << k).astype(float))
            h, spec = embed_build(f)
            assert bool(is_monotone(h)), (k, trial)
            assert bool(is_submodular(h)), (k, trial)
            dec = embed_decode(h, spec)
            assert all(dec(y) == f(y) for y in range(1 << k))

    def test_middle_layer_exchange_cases(self):
        # the submodularity exchange inequality at the three weights touching
        # the modified layer: |S| in {t-2, t-1, t}
        spec = embedding_spec_for(3)
        t, n = spec.t, spec.n
        rng = np.random.default_rng(13)
        f = ValueOracle.from_table(rng.integers(0, 2, size=8).astype(float))
        h, _ = embed_build(f)
        table = h.table()
        for base in range(1 << n):
            w = base.bit_count()
            if w not in (t - 2, t - 1, t):
                continue
            for i in range(n):
                if (base >> i) & 1:
                    continue
                for j in range(i + 1, n):
                    if (base >> j) & 1:
                        continue
                    lhs = table[base | (1 << i)] - table[base]
                    rhs = table[base | (1 << i) | (1 << j)] - table[base | (1 << j)]
                    assert lhs >= rhs - 1e-12, (base, i, j)

    def test_decode_constant_one(self):
        spec = embedding_spec_for(3)
        ones = ValueOracle.from_table([1.0] * (1 << spec.n))
        dec = embed_decode(ones, spec)
        assert all(dec(y) == 1.0 for y in range(8))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_perturbation_transfer(self, k, eps):
        rng = np.random.default_rng((7, k, int(eps * 100)))
        f = ValueOracle.from_table(rng.integers(0, 2, size=1 << k).astype(float))
        h, spec = embed_build(f)
        budget = spec.transfer_budget(eps)
        for trial in range(5):
            noise = rng.uniform(-1, 1, size=1 << spec.n)
            noise *= budget / np.mean(np.abs(noise))
            g = ValueOracle.from_table(h.table() + noise)
            dec = embed_decode(g, spec)
            err = np.mean([abs(dec(y) - f(y)) for y in range(1 << k)])
            assert err <= eps + 1e-9, (k, eps, trial)


class TestNoisySource:
    def test_zero_noise_labels_are_parity(self):
        src = NoisySource(6, mask_of([1, 3]), 0.0, seed=4)
        sample = noisy_examples(src, 500)
        assert np.array_equal(sample.ys, parity_signs(src.subset, sample.xs))

    def test_flip_rate(self):
        src = NoisySource(8, mask_of([0, 5]), 0.1, seed=9)
        sample = noisy_examples(src, 100_000)
        flips = np.mean(sample.ys != parity_signs(src.subset, sample.xs))
        assert flips == pytest.approx(0.1, abs=0.005)

    def test_zero_candidate_error_is_one(self):
        src = NoisySource(5, mask_of([2]), 0.2, seed=1)
        sample = noisy_examples(src, 2000)
        assert np.mean(np.abs(0.0 - sample.ys)) == 1.0

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            NoisySource(4, 1, 0.5)

    def test_noisy_error_identity(self):
        # E|f - y| = 1 - (1 - 2 eta) coeff_f(S) for [-1,1]-valued f
        rng = np.random.default_rng(11)
        for n in (4, 6, 8):
            subset = int(rng.integers(1, 1 << n))
            for eta in (0.0, 0.1, 0.3):
                src = NoisySource(n, subset, eta, seed=0)
                f = ValueOracle.from_table(rng.uniform(-1, 1, size=1 << n))
                got = noisy_l1_error_exact(f, src)
                coeff = as_dict(transform(f)).get(subset, 0.0)
                assert got == pytest.approx(1.0 - (1.0 - 2.0 * eta) * coeff, abs=1e-12)


class TestLpnReduce:
    def test_noiseless_recovery(self):
        learner = regression_learner(2)
        for seed in range(5):
            target = mask_of([3, 11])
            src = NoisySource(16, target, 0.0, seed=seed)
            assert lpn_reduce(src, 2, learner, gamma=0.5, m=1 << 14) == target

    def test_noisy_recovery(self):
        learner = regression_learner(2)
        hits = 0
        for seed in range(10):
            target = mask_of([1, 9])
            src = NoisySource(16, target, 0.1, seed=seed)
            hits += lpn_reduce(src, 2, learner, gamma=0.5, m=1 << 14) == target
        assert hits >= 8

    def test_no_candidate_error(self):
        src = NoisySource(8, mask_of([0]), 0.0, seed=0)

        def silent_learner(sample):
            return Spectrum(8, [], [])

        with pytest.raises(NoCandidateFound):
            lpn_reduce(src, 1, silent_learner, gamma=0.5, m=256)

    @pytest.mark.parametrize("gamma", [0.0, -0.5, float("nan"), float("inf")])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        def unreachable_learner(sample):
            raise AssertionError("the learner ran")

        with pytest.raises(ValueError, match="gamma"):
            lpn_reduce(NoisySource(8, mask_of([0]), 0.0, seed=0), 1, unreachable_learner, gamma)

    def test_gadget_correlated_labels_expose_the_parity(self):
        # labels drawn from the monotone gadget, rescaled to [-1,1], leave a
        # spectrum entry of at least gamma/2 at the hidden subset
        for s in (2, 4, 6, 8):
            n = 10
            subset = mask_of(range(2, 2 + s))
            H = make_gadget(GadgetSpec(subset, "monotone"), n)
            signed = ValueOracle.from_table(2.0 * H.table() - 1.0)
            gamma = abs(float(correlation_closed_form(s))) / 2.0
            rng = np.random.default_rng((5, s))
            xs = rng.integers(0, 1 << n, size=1 << 15, dtype=np.int64)
            ys = signed.eval_many(xs)
            hyp = regression_learner(s)(LabeledSample(n, xs, ys))
            assert abs(as_dict(hyp).get(subset, 0.0)) >= gamma / 2.0, s


def _reference_regression(sample: LabeledSample, degree: int) -> Spectrum:
    """`regression_learner` as it was before it called `low_degree_estimate`:
    every candidate's estimate, zeros included."""
    n = sample.n
    masks = candidate_masks((1 << n) - 1, degree)
    return Spectrum(n, masks, empirical_coefficients(sample.xs, sample.ys, n, masks))


@st.composite
def _samples(draw):
    n = draw(st.integers(min_value=1, max_value=23))
    m = draw(st.integers(min_value=1, max_value=40))
    xs = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=m, max_size=m))
    # labels in {-1, 0, 1} make exact-zero estimates common
    ys = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0, 0.5]), min_size=m, max_size=m))
    return LabeledSample(n, np.array(xs, dtype=np.int64), np.array(ys))


@settings(deadline=None)  # two 2^20 transforms per example at n = 20
@given(_samples(), st.integers(min_value=0, max_value=2))
def test_regression_learner_keeps_the_nonzero_entries_of_the_reference(sample, degree):
    got = regression_learner(degree)(sample)
    ref = _reference_regression(sample, degree)
    keep = ref.coeffs != 0.0
    assert got.n == ref.n
    assert got.masks.tolist() == ref.masks[keep].tolist()
    assert got.coeffs.tobytes() == ref.coeffs[keep].tobytes()


def test_regression_learner_has_a_candidate_budget():
    sample = noisy_examples(NoisySource(21, 1, 0.0), 64)
    with pytest.raises(BudgetExceeded, match=f"{1 << 21} candidate"):
        regression_learner(21)(sample)
