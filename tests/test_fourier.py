import functools
import math
import operator
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_dict, pt, random_table_oracle, small_corpus, spectrum_of
from submodtree import cli, fourier
from submodtree.cube import mask_of
from submodtree.fourier import (
    SPARSE_EPS,
    _CSV_CHUNK,
    BudgetExceeded,
    LabeledSample,
    Spectrum,
    _csv_chunks,
    candidate_masks,
    coefficients,
    coefficients_at,
    empirical_coefficients,
    estimate_coefficient,
    fwht,
    low_degree_estimate,
    pairwise_coefficient_gap,
    parity_signs,
    spectral_l1,
    transform,
)
from submodtree.funcs import TOL, ValueOracle, iter_corpus
from submodtree.learn import draw_sample


def chi_oracle(subset: int, n: int) -> ValueOracle:
    return ValueOracle.from_table(parity_signs(subset, np.arange(1 << n)))


def read_csv(text: str, n: int) -> Spectrum:
    """The spectrum of a CSV that `Spectrum.to_csv` wrote."""
    rows = [r.split(",") for r in text.strip().splitlines()[1:] if r]
    return Spectrum(n, [int(m) for m, _ in rows], [float(c) for _, c in rows])


def test_parity_examples():
    assert parity_signs(0, [pt("1011")]).tolist() == [1.0]
    s12 = mask_of([0, 1])
    assert parity_signs(s12, [pt("10"), pt("11")]).tolist() == [-1.0, 1.0]


def test_transform_or(or2):
    sp = transform(or2)
    assert as_dict(sp) == pytest.approx({0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25})


def test_transform_parity_is_orthonormal():
    s = mask_of([1, 3])
    sp = transform(chi_oracle(s, 5))
    assert as_dict(sp) == pytest.approx({s: 1.0})


def test_transform_constant():
    sp = transform(ValueOracle.from_table([0.3] * 16))
    assert as_dict(sp) == pytest.approx({0: 0.3})


def test_spectral_l1_examples(or2):
    assert spectral_l1(transform(or2)) == pytest.approx(1.5)
    assert spectral_l1(transform(chi_oracle(0b101, 3))) == pytest.approx(1.0)
    assert spectral_l1(Spectrum(3, [], [])) == 0.0


@pytest.mark.parametrize("n", [1, 3, 6, 9, 12])
def test_roundtrip_and_parseval(n):
    f = random_table_oracle(n, seed=n)
    sp = transform(f)
    assert np.max(np.abs(sp.table() - f.table())) < 1e-9
    energy = float(np.mean(f.table() ** 2))
    assert sum(c * c for c in sp.coeffs.tolist()) == pytest.approx(energy, abs=1e-9)


def test_fwht_is_self_inverse():
    rng = np.random.default_rng(5)
    v = rng.normal(size=64)
    assert np.allclose(fwht(fwht(v)) / 64, v)


@given(
    st.integers(min_value=0, max_value=6),
    st.data(),
)
def test_fwht_roundtrip_property(n, data):
    vals = data.draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
    v = np.array(vals)
    assert np.max(np.abs(fwht(fwht(v)) / (1 << n) - v)) < 1e-9


def _reference_fwht(values) -> np.ndarray:
    """The butterfly that copied both halves at every stage."""
    a = np.asarray(values, dtype=float).copy()
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        h *= 2
    return a.reshape(-1)


_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324]


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=2**32 - 1))
def test_fwht_matches_the_two_copy_butterfly(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) * 10.0 ** rng.integers(-5, 6, size=1 << n)
    special = rng.random(1 << n) < 0.05
    v[special] = rng.choice(_SPECIAL, size=int(special.sum()))
    with np.errstate(all="ignore"):
        got, want = fwht(v), _reference_fwht(v)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.floats(), min_size=1 << n, max_size=1 << n)))
def test_fwht_matches_the_two_copy_butterfly_on_any_floats(values):
    with np.errstate(all="ignore"):
        got, want = fwht(values), _reference_fwht(values)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


_SUBNORMAL = [5e-324, -5e-324, 2.2e-308, -1e-310]


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_coefficients_divide_in_place_bit_for_bit(n, seed):
    # the in-place quotient against fwht(t) / t.size, on tables with NaN,
    # infinities, signed zeros and subnormals
    rng = np.random.default_rng(seed)
    t = rng.normal(size=1 << n) * 10.0 ** rng.integers(-310, 300, size=1 << n)
    special = rng.random(1 << n) < rng.choice([0.0, 0.05, 0.5])
    t[special] = rng.choice(_SPECIAL + _SUBNORMAL, size=int(special.sum()))
    with np.errstate(all="ignore"):
        want = fwht(t) / t.size
        want[(want >= -SPARSE_EPS) & (want <= SPARSE_EPS)] = 0.0
        got = coefficients(ValueOracle.from_table(t))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@given(st.integers(min_value=1, max_value=8), st.data())
def test_parity_matches_definition(n, data):
    s = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    x = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    direct = (-1) ** sum((x >> i) & (s >> i) & 1 for i in range(n))
    assert parity_signs(s, [x]).tolist() == [direct]


def test_derivative_spectrum_check_examples(or2, edge_cut):
    from submodtree.fourier import derivative_spectrum_check

    a, b = derivative_spectrum_check(edge_cut, 0, 1)
    assert a == pytest.approx(4.0) and b == pytest.approx(4.0)
    linear = ValueOracle.from_table([0.0, 0.5, 0.5, 1.0])
    a, b = derivative_spectrum_check(linear, 0, 1)
    assert a == pytest.approx(0.0) and b == pytest.approx(0.0)
    a, b = derivative_spectrum_check(or2, 0, 1)
    assert a == pytest.approx(1.0) and b == pytest.approx(1.0)


def test_derivative_identities_pointwise():
    # first-derivative identity: d_i f = -2 sum_{S ni i} coeff(S) chi_{S minus i}
    # (chi flips sign when x_i goes 0 -> 1, so the factor is -2, and the
    # signs cancel in the mixed identity with factor +4)
    for inst, f in small_corpus(ns=(6,), seeds=(0, 1)):
        sp = transform(f)
        t = f.table()
        idx = np.arange(1 << f.n)
        for i in range(f.n):
            bi = 1 << i
            d = t[idx | bi] - t[idx & ~bi]
            masked = spectrum_of(f.n, {s ^ bi: -2 * c for s, c in as_dict(sp).items() if s & bi})
            assert np.max(np.abs(d - masked.table())) < 1e-9, (inst, i)

    for inst, f in small_corpus(ns=(8,), seeds=(0,)):
        from submodtree.fourier import derivative_spectrum_check

        for i in range(f.n):
            for j in range(i + 1, f.n):
                a, b = derivative_spectrum_check(f, i, j)
                assert a == pytest.approx(b, abs=1e-9), (inst, i, j)


def test_estimate_coefficient_examples(or2):
    s = mask_of([0, 2])
    chi = chi_oracle(s, 4)
    for m in (1, 7, 64):
        assert estimate_coefficient(chi, s, m, seed=m) == pytest.approx(1.0)
    const = ValueOracle.from_table([0.5] * 16)
    assert abs(estimate_coefficient(const, 0b1, 4096, seed=3)) <= 0.05
    est = estimate_coefficient(or2, 0b11, 65536, seed=1)
    assert est == pytest.approx(-0.25, abs=0.02)


def test_estimate_coefficient_needs_samples(or2):
    with pytest.raises(ValueError):
        estimate_coefficient(or2, 1, 0, seed=0)


def test_low_degree_exact_recovers_embedded_or():
    table = [float((x & 0b11) != 0) for x in range(256)]
    f = ValueOracle.from_table(table)
    sp = low_degree_estimate(coefficients(f), mask_of([0, 1]), 2)
    assert as_dict(sp) == pytest.approx({0: 0.75, 1: -0.25, 2: -0.25, 3: -0.25})


def test_low_degree_single_variable():
    chi = chi_oracle(0b1, 4)
    sp = as_dict(low_degree_estimate(draw_sample(chi, 4096, seed=2), 0b1, 1))
    assert sp[1] == pytest.approx(1.0, abs=0.05)
    assert abs(sp.get(0, 0.0)) <= 0.05


def test_low_degree_empty_variables():
    f = random_table_oracle(5, seed=1)
    sp = as_dict(low_degree_estimate(draw_sample(f, 2048, seed=0), 0, 0))
    assert list(sp) == [0]
    assert sp[0] == pytest.approx(float(np.mean(f.table())), abs=0.05)


def test_low_degree_budget():
    f = random_table_oracle(10, seed=0)
    with pytest.raises(BudgetExceeded):
        low_degree_estimate(draw_sample(f, 16, seed=0), (1 << 10) - 1, 5, budget=10)
    # 638 candidates: the budget is inclusive
    assert low_degree_estimate(coefficients(f), (1 << 10) - 1, 5, budget=638).masks.size == 638
    with pytest.raises(BudgetExceeded, match="638 candidate"):
        low_degree_estimate(coefficients(f), (1 << 10) - 1, 5, budget=637)


def test_sample_work_limit_bounds_per_mask_estimates(monkeypatch):
    # n = 21 is above the butterfly: 22 masks of degree <= 1, 16 samples
    sample = draw_sample(random_table_oracle(21, seed=0), 16, seed=0)
    monkeypatch.setattr(fourier, "SAMPLE_WORK_LIMIT", 22 * 16)  # inclusive
    assert low_degree_estimate(sample, (1 << 21) - 1, 1).masks.size <= 22
    monkeypatch.setattr(fourier, "SAMPLE_WORK_LIMIT", 22 * 16 - 1)
    with pytest.raises(BudgetExceeded, match="22 candidate coefficients times 16 samples"):
        low_degree_estimate(sample, (1 << 21) - 1, 1)
    # the butterfly and exact coefficients are not estimated per mask
    monkeypatch.setattr(fourier, "SAMPLE_WORK_LIMIT", 0)
    f = random_table_oracle(10, seed=0)
    low_degree_estimate(draw_sample(f, 16, seed=0), (1 << 10) - 1, 2)
    low_degree_estimate(coefficients(f), (1 << 10) - 1, 2)


def test_low_degree_budget_is_checked_before_any_mask_is_built():
    # 2^40 candidates: building them would not end
    sample = LabeledSample(40, np.array([3], dtype=np.int64), np.array([1.0]))
    with pytest.raises(ValueError, match=f"{1 << 40} candidate"):
        low_degree_estimate(sample, (1 << 40) - 1, 40)
    assert issubclass(BudgetExceeded, ValueError)


def test_coefficients_at_reads_either_form_of_data():
    f = random_table_oracle(5, seed=4)
    c = coefficients(f)
    masks = np.array([7, 0, 31, 7])
    assert coefficients_at(c, masks).tobytes() == c[masks].tobytes()
    sample = draw_sample(f, 300, seed=1)
    want = empirical_coefficients(sample.xs, sample.ys, 5, masks)
    assert coefficients_at(sample, masks.tolist()).tobytes() == want.tobytes()


@pytest.mark.parametrize("data, error, message", [
    (random_table_oracle(3, seed=0), TypeError, r"fourier\.coefficients\(f\)"),
    ((np.array([1]), np.array([1.0])), TypeError, "LabeledSample"),
    (np.zeros(6), TypeError, "length 2\\^n"),
    (np.zeros((2, 2)), TypeError, "length 2\\^n"),
    (np.zeros(0), TypeError, "length 2\\^n"),
    (LabeledSample(3, np.array([], dtype=np.int64), np.array([])), ValueError, "empty sample"),
])
def test_coefficients_at_rejects_other_data(data, error, message):
    with pytest.raises(error, match=message):
        coefficients_at(data, [0])
    with pytest.raises(error, match=message):
        low_degree_estimate(data, 0, 0)


def test_candidate_masks_counts():
    masks = candidate_masks(mask_of([0, 1, 2, 3]), 2)
    assert masks.dtype == np.int64
    assert len(masks) == 1 + 4 + 6
    assert all(m.bit_count() <= 2 for m in masks.tolist())
    assert candidate_masks(0b1011, -1).tolist() == []


@given(st.integers(min_value=0, max_value=(1 << 12) - 1), st.integers(min_value=0, max_value=12))
def test_candidate_masks_are_the_ascending_small_subsets(variables, degree):
    want = [s for s in range(variables + 1) if s & ~variables == 0 and s.bit_count() <= degree]
    assert candidate_masks(variables, degree).tolist() == want


def test_sampled_estimates_match_direct_mean():
    # the butterfly path must equal the naive estimator on the same sample
    from submodtree.fourier import parity_signs, sample_points

    f = random_table_oracle(6, seed=2)
    xs = sample_points(6, 500, seed=1)
    ys = f.eval_many(xs)
    masks = candidate_masks((1 << 6) - 1, 2)
    est = empirical_coefficients(xs, ys, 6, masks)
    assert est.shape == masks.shape
    for s, e in zip(masks[:10].tolist(), est[:10].tolist()):
        direct = float(np.mean(ys * parity_signs(s, xs)))
        assert e == pytest.approx(direct, abs=1e-9)


def test_pairwise_bound_on_corpus():
    for inst, f in small_corpus(ns=(4, 6, 8, 10), seeds=(0, 1)):
        pair, total, _ = pairwise_coefficient_gap(f)
        assert pair >= 0.5 * total - TOL, inst


def test_pairwise_bound_tight_on_edge_cut(edge_cut):
    pair, total, _ = pairwise_coefficient_gap(edge_cut)
    # coefficient 1/2 against mass 1/4: the factor-2 constant with equality
    assert pair == pytest.approx(0.5)
    assert total == pytest.approx(0.25)


def test_spectrum_csv_roundtrip(or2):
    sp = transform(or2)
    text = sp.to_csv()
    assert text.splitlines()[0] == "mask,coefficient"
    again = read_csv(text, 2)
    assert again.masks.tolist() == sp.masks.tolist()
    assert again.coeffs.tolist() == sp.coeffs.tolist()


# --- one exact-coefficient route, checked against the routes it replaced ------


def _reference_transform(f: ValueOracle) -> dict[int, float]:
    """The sparse spectrum as `transform` built it before `coefficients`."""
    t = f.table()
    dense = fwht(t) / t.size
    return {int(s): float(c) for s, c in enumerate(dense) if abs(c) > SPARSE_EPS}


def _reference_low_order(f: ValueOracle) -> dict[int, float]:
    """Every degree-1 and degree-2 coefficient, read from the sparse spectrum."""
    sp = _reference_transform(f)
    out = {}
    for i in range(f.n):
        out[1 << i] = sp.get(1 << i, 0.0)
        for j in range(i + 1, f.n):
            out[(1 << i) | (1 << j)] = sp.get((1 << i) | (1 << j), 0.0)
    return out


def _reference_low_degree(f: ValueOracle, variables: int, degree: int) -> dict[int, float]:
    sp = _reference_transform(f)
    coeffs = {s: sp.get(s, 0.0) for s in candidate_masks(variables, degree)}
    return {s: c for s, c in coeffs.items() if abs(c) > SPARSE_EPS}


def _left_to_right(values) -> float:
    """0.0 + v0 + v1 + ..., the built-in `sum` of floats before CPython 3.12."""
    return functools.reduce(operator.add, values, 0.0)


# a few entries a multiple of 1e-12 away from a common value put coefficients
# on both sides of SPARSE_EPS
_table_values = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.integers(min_value=-3, max_value=3).map(lambda k: 0.5 + k * 1e-12),
)


@st.composite
def _tables(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    values = draw(st.lists(_table_values, min_size=1 << n, max_size=1 << n))
    return ValueOracle.from_table(values)


@given(_tables(), st.data())
def test_coefficient_readers_match_the_sparse_spectrum_route(f, data):
    ref = _reference_transform(f)
    c = coefficients(f)
    assert [float(v) for v in c] == [ref.get(s, 0.0) for s in range(1 << f.n)]
    sp = transform(f)
    assert sp.masks.dtype == np.int64 and sp.coeffs.dtype == np.float64
    assert as_dict(sp) == ref
    assert list(as_dict(sp)) == list(ref)
    low = _reference_low_order(f)
    assert coefficients_at(c, list(low)).tolist() == list(low.values())
    variables = data.draw(st.integers(min_value=0, max_value=(1 << f.n) - 1))
    degree = data.draw(st.integers(min_value=0, max_value=f.n))
    got = as_dict(low_degree_estimate(c, variables, degree))
    want = _reference_low_degree(f, variables, degree)
    assert got == want and list(got) == sorted(want)


def test_spectrum_arrays_are_checked():
    sp = Spectrum(3, [1, 4], [0.5, -0.25])
    assert sp.masks.dtype == np.int64 and sp.coeffs.dtype == np.float64
    assert sp.degree() == 1 and sp.support_union() == 5
    assert Spectrum(3, [], []).degree() == 0 and Spectrum(3, [], []).support_union() == 0
    for masks, coeffs in [([4, 1], [0.5, 0.5]), ([1, 1], [0.5, 0.5]), ([8], [1.0]),
                          ([-1], [1.0]), ([1], [0.5, 0.5]), ([[1]], [[0.5]])]:
        with pytest.raises(ValueError):
            Spectrum(3, masks, coeffs)


def _reference_csv(coeffs: dict) -> str:
    """The CSV as written from the mask -> coefficient dict."""
    lines = ["mask,coefficient"]
    for s in sorted(coeffs):
        lines.append(f"{s},{coeffs[s]:.17g}")
    return "\n".join(lines) + "\n"


@given(_tables())
def test_from_dense_and_to_csv_match_the_dict_route(f):
    sp = transform(f)
    ref = _reference_transform(f)
    assert sp.to_csv() == _reference_csv(ref)
    dense = coefficients(f)
    assert sp.dense().tolist() == dense.tolist()
    again = read_csv(sp.to_csv(), f.n)
    assert again.masks.tolist() == sp.masks.tolist() and again.coeffs.tolist() == sp.coeffs.tolist()


def test_coefficients_zero_rule_and_nan():
    assert coefficients(ValueOracle.from_table([SPARSE_EPS, -SPARSE_EPS])).tolist() == [0.0, 0.0]
    assert coefficients(ValueOracle.from_table([3 * SPARSE_EPS])).tolist() == [3 * SPARSE_EPS]
    f = ValueOracle.from_table([0.0, 1.0, float("nan"), 1.0])
    assert np.isnan(coefficients(f)).all()
    assert transform(f).masks.tolist() == [0, 1, 2, 3]


# quotients by a prime are rarely dyadic, so their sums round
_coefficient_values = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(lambda c: c != 0.0),
    st.integers(min_value=-(10**9), max_value=10**9).filter(bool).map(lambda k: k / 7919),
)


@st.composite
def _spectra(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    coeffs = draw(st.dictionaries(masks, _coefficient_values, max_size=40))
    return spectrum_of(n, coeffs)


@given(_spectra())
def test_spectrum_sums_are_left_to_right(sp):
    coeffs = as_dict(sp)  # ascending masks
    assert spectral_l1(sp) == _left_to_right(abs(c) for c in coeffs.values())


@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=40))
def test_parseval_lhs_is_left_to_right(n, seed):
    rows = cli.suite_parseval((n,), (seed,))
    want = [
        _left_to_right(c * c for c in _reference_transform(f).values())
        for _, f in iter_corpus(ns=(n,), seeds=(seed,))
    ]
    assert [r["lhs"] for r in rows] == want


# --- the CSV kernel, checked against one `format` call per row -----------------


def _csv_rows(masks, coeffs) -> bytes:
    return b"".join(_csv_chunks(masks, coeffs))


def _format_rows(masks, coeffs) -> bytes:
    return "".join(map("{},{:.17g}\n".format, masks, coeffs)).encode()


def _kernel_rows(masks, coeffs) -> bytes:
    return _csv_rows(np.array(masks, dtype=np.int64), np.array(coeffs, dtype=np.float64))


_float_bits = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]
)


_small_sizes = st.integers(min_value=1, max_value=64)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**62 - 1),
                  st.one_of(_float_bits, st.floats())),
        min_size=1,
        max_size=40,
    ),
    # one draw in four crosses a chunk boundary
    st.one_of(_small_sizes, _small_sizes, _small_sizes,
              st.integers(min_value=_CSV_CHUNK - 1, max_value=_CSV_CHUNK + 1)),
)
def test_csv_kernel_matches_format(rows, size):
    masks, coeffs = zip(*rows)
    masks = np.resize(np.array(masks, dtype=np.int64), size)
    coeffs = np.resize(np.array(coeffs, dtype=np.float64), size)
    assert _csv_rows(masks, coeffs) == _format_rows(masks.tolist(), coeffs.tolist())


def _edge_values() -> list[float]:
    """Values where the digits, the exponent or the notation are easy to get wrong."""
    ties = [(1 + k * 2.0**-17) * 2.0**s for k in range(1, 200, 2) for s in range(-10, 11)]
    near_powers = []
    for j in range(-300, 301):
        p = float(f"1e{j}")
        near_powers += [p, math.nextafter(p, 0), math.nextafter(math.nextafter(p, 0), 0),
                        math.nextafter(p, math.inf)]
    switch = [v * s for v in (1e-5, 1e-4, 1e16, 1e17) for s in (0.5, 0.999999999999999, 1.5, 9.99)]
    special = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = ties + near_powers + switch + special
    return values + [-v for v in values]


def test_csv_kernel_edge_values():
    values = _edge_values()
    # 17-digit ties: the exact decimal expansion has 18 digits and ends in 5
    assert sum(len(Decimal(v).as_tuple().digits) == 18 for v in values) >= 100
    # carries: a value below 10^j that prints as 10^j
    positive = [v for v in values if 0 < v < math.inf]
    below = [v for v in positive if Fraction(v) < Fraction(10) ** math.ceil(math.log10(v))]
    assert sum(format(v, ".17g").split("e")[0].rstrip("0").rstrip(".") == "1" for v in below) >= 10
    masks = [0, 9, 10, 9999, 10000, 99999999, 100000000, 2**62 - 1, 2**63 - 1]
    masks = [masks[i % len(masks)] for i in range(len(values))]
    assert _kernel_rows(masks, values) == _format_rows(masks, values)
    assert _kernel_rows([], []) == b""
