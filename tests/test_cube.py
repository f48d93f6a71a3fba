import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from submodtree import cube
from submodtree.cube import (
    DimensionTooLarge,
    ProductDistribution,
    flip,
    format_point,
    format_subset,
    fw_rank,
    fw_unrank,
    mask_of,
    parse_point,
    parse_subset,
    weight,
)


def lex_sorted_weight_class(n: int, w: int) -> list[int]:
    """Independent oracle: weight-w strings ordered lexicographically as
    coordinate tuples (x_1, ..., x_n) with 0 < 1."""
    tuples = [t for t in itertools.product((0, 1), repeat=n) if sum(t) == w]
    tuples.sort()
    return [sum(b << i for i, b in enumerate(t)) for t in tuples]


def test_weight_examples():
    full = mask_of(range(4))
    assert weight(parse_point("0000")[0], full) == 0
    assert weight(parse_point("0110")[0], full) == 2
    assert weight(parse_point("0110")[0], mask_of([0, 3])) == 0


def test_flip_examples():
    assert format_point(flip(parse_point("0000")[0], 4), 4) == "1111"
    assert format_point(flip(parse_point("1111")[0], 4), 4) == "0000"
    assert format_point(flip(parse_point("0110")[0], 4), 4) == "1001"


@given(st.integers(min_value=1, max_value=24), st.data())
def test_flip_is_involution(n, data):
    x = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert flip(flip(x, n), n) == x


def test_fw_rank_examples():
    # hand enumeration of the six weight-2 strings of length 4
    assert fw_rank(parse_point("0011")[0], 4) == 0
    assert fw_rank(parse_point("0101")[0], 4) == 1
    assert fw_rank(parse_point("1100")[0], 4) == 5


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


def test_point_probability_examples():
    uniform = ProductDistribution.uniform(3)
    for x in range(8):
        assert uniform.point_probability(x) == pytest.approx(1 / 8)
    assert ProductDistribution((1.0, 1.0)).point_probability(0b11) == 1.0
    quarter = ProductDistribution((0.25, 0.5))
    assert quarter.point_probability(parse_point("10")[0]) == pytest.approx(0.125)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_probability_vector_sums_to_one(n):
    rng = np.random.default_rng(n)
    dist = ProductDistribution(tuple(rng.uniform(0, 1, size=n)))
    p = dist.probability_vector()
    assert abs(p.sum() - 1.0) < 1e-12
    # vector agrees with the pointwise product
    for x in [0, (1 << n) - 1, int(rng.integers(1 << n))]:
        assert p[x] == pytest.approx(dist.point_probability(x))


def test_boundedness():
    assert ProductDistribution.uniform(5).boundedness() == 0.5
    d = ProductDistribution((0.1, 0.8))
    assert d.boundedness() == pytest.approx(0.1)
    d.require_bounded(0.1)
    with pytest.raises(ValueError):
        d.require_bounded(0.2)


def test_point_serialization_roundtrip():
    x, n = parse_point("0110")
    assert (x, n) == (6, 4)
    assert format_point(x, n) == "0110"
    with pytest.raises(ValueError):
        parse_point("01x0")


def test_subset_serialization():
    assert format_subset(mask_of([1, 2])) == "{2,3}"
    assert parse_subset("{2,3}") == 0b110
    assert parse_subset("{}") == 0
    assert format_subset(0) == "{}"


def test_enum_cap_env(monkeypatch):
    monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "6")
    assert cube.enum_cap() == 6
    with pytest.raises(DimensionTooLarge):
        cube.all_points(7)
    monkeypatch.delenv("SUBMODTREE_ENUM_CAP")
    assert cube.enum_cap() == cube.DEFAULT_ENUM_CAP
