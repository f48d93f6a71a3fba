import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import pt
from submodtree import cube
from submodtree.cube import (
    DimensionTooLarge,
    ProductDistribution,
    format_point,
    format_subset,
    fw_rank,
    fw_unrank,
    mask_of,
)


def lex_sorted_weight_class(n: int, w: int) -> list[int]:
    """Independent oracle: weight-w strings ordered lexicographically as
    coordinate tuples (x_1, ..., x_n) with 0 < 1."""
    tuples = [t for t in itertools.product((0, 1), repeat=n) if sum(t) == w]
    tuples.sort()
    return [sum(b << i for i, b in enumerate(t)) for t in tuples]


def test_fw_rank_examples():
    # hand enumeration of the six weight-2 strings of length 4
    assert fw_rank(pt("0011"), 4) == 0
    assert fw_rank(pt("0101"), 4) == 1
    assert fw_rank(pt("1100"), 4) == 5


def test_fw_unrank_examples():
    assert format_point(fw_unrank(4, 2, 0), 4) == "0011"
    assert format_point(fw_unrank(4, 2, 5), 4) == "1100"
    assert format_point(fw_unrank(4, 0, 0), 4) == "0000"


def test_fw_unrank_out_of_range():
    with pytest.raises(ValueError):
        fw_unrank(4, 2, 6)
    with pytest.raises(ValueError):
        fw_unrank(4, 2, -1)


@pytest.mark.parametrize("n", range(1, 13))
def test_fw_rank_is_the_lex_position(n):
    for w in range(n + 1):
        ordered = lex_sorted_weight_class(n, w)
        assert len(ordered) == math.comb(n, w)
        for r, x in enumerate(ordered):
            assert fw_rank(x, n) == r
            assert fw_unrank(n, w, r) == x


@given(
    st.integers(min_value=1, max_value=20),
    st.data(),
)
def test_fw_roundtrip_random(n, data):
    w = data.draw(st.integers(min_value=0, max_value=n))
    r = data.draw(st.integers(min_value=0, max_value=math.comb(n, w) - 1))
    x = fw_unrank(n, w, r)
    assert x.bit_count() == w
    assert fw_rank(x, n) == r


def point_probability(dist: ProductDistribution, x: int) -> float:
    """The probability of one point, as a product over its coordinates."""
    p = 1.0
    for i, mu_i in enumerate(dist.mu):
        p *= mu_i if (x >> i) & 1 else 1.0 - mu_i
    return p


def test_point_probability_examples():
    assert ProductDistribution.uniform(3).probability_vector() == pytest.approx([1 / 8] * 8)
    assert ProductDistribution((1.0, 1.0)).probability_vector()[0b11] == 1.0
    quarter = ProductDistribution((0.25, 0.5)).probability_vector()
    assert quarter[pt("10")] == pytest.approx(0.125)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_probability_vector_sums_to_one(n):
    rng = np.random.default_rng(n)
    dist = ProductDistribution(tuple(rng.uniform(0, 1, size=n)))
    p = dist.probability_vector()
    assert abs(p.sum() - 1.0) < 1e-12
    # vector agrees with the pointwise product
    for x in [0, (1 << n) - 1, int(rng.integers(1 << n))]:
        assert p[x] == pytest.approx(point_probability(dist, x))


def test_boundedness():
    assert ProductDistribution.uniform(5).boundedness() == 0.5
    d = ProductDistribution((0.1, 0.8))
    assert d.boundedness() == pytest.approx(0.1)
    d.require_bounded(0.1)
    with pytest.raises(ValueError):
        d.require_bounded(0.2)


def test_point_serialization_roundtrip():
    assert pt("0110") == 6
    assert format_point(6, 4) == "0110"
    for s in ("0", "1", "1011", "000111"):
        assert format_point(pt(s), len(s)) == s


def test_subset_serialization():
    assert format_subset(mask_of([1, 2])) == "{2,3}"
    assert format_subset(0) == "{}"


def test_enum_cap_env(monkeypatch):
    monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "6")
    assert cube.enum_cap() == 6
    with pytest.raises(DimensionTooLarge):
        cube.check_enumerable(7)
    monkeypatch.delenv("SUBMODTREE_ENUM_CAP")
    assert cube.enum_cap() == cube.DEFAULT_ENUM_CAP
