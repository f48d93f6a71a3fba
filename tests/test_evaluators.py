"""Array evaluators and views against scalar per-point references.

The reference functions below are the per-point closures the package used
before its oracles became array-native.  Each array evaluator must match its
reference bit for bit, on random points with n up to 62.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodtree import cube, funcs
from submodtree.funcs import (
    GENERATED_FAMILIES,
    _COVER_WIDTH,
    _POINT_CHUNK,
    _PREFIX_WIDTH,
    FamilySpec,
    Restriction,
    ValueOracle,
    flip_oracle,
    generate_random,
    instantiate,
    restrict,
    view,
)
from submodtree.hardness import (
    GadgetSpec,
    embed_build,
    embed_decode,
    gadget_profile,
    make_gadget,
)
from submodtree.learn import threshold_decompose, threshold_oracle

MAX_N = cube.MAX_PACKED_N


# --- scalar references ------------------------------------------------------


def ref_family(spec):
    """Per-point evaluator of a generated family instance."""
    n, p = spec.n, spec.params
    if spec.family == "coverage":
        u = p["universe_size"]
        masks = [sum(1 << (e - 1) for e in s) for s in p["sets"]]

        def cov(x):
            covered = 0
            for i, m in enumerate(masks):
                if (x >> i) & 1:
                    covered |= m
            return covered.bit_count() / u

        return cov
    if spec.family == "cut":
        edges = p["edges"]

        def cut(x):
            crossing = sum(1 for a, b in edges if ((x >> (a - 1)) & 1) != ((x >> (b - 1)) & 1))
            return crossing / len(edges)

        return cut
    if spec.family == "budget_additive":
        w, b = p["weights"], p["budget"]

        def badd(x):
            # left-to-right float sum (the plain sum() of Python <= 3.11)
            total = 0
            for i in range(n):
                if (x >> i) & 1:
                    total += w[i]
            return min(total, b) / b

        return badd
    if spec.family == "matroid_rank_partition":
        blocks = [sum(1 << (i - 1) for i in blk) for blk in p["blocks"]]
        caps = p["caps"]

        def rank(x):
            return sum(min((x & blk).bit_count(), c) for blk, c in zip(blocks, caps)) / sum(caps)

        return rank
    if spec.family == "concave_profile":
        profile = p["profile"]
        return lambda x: profile[x.bit_count()]
    raise AssertionError(spec.family)


def ref_fw_rank(x, n):
    w = (x & ((1 << n) - 1)).bit_count()
    rank = 0
    for pos in range(n):
        if w == 0:
            break
        if (x >> pos) & 1:
            rank += math.comb(n - 1 - pos, w)
            w -= 1
    return rank


def ref_fw_unrank(n, w, r):
    x = 0
    for pos in range(n):
        if w == 0:
            break
        c = math.comb(n - 1 - pos, w)
        if r >= c:
            x |= 1 << pos
            r -= c
            w -= 1
    return x


def ref_lex_position(y, k):
    return sum(1 << (k - 1 - i) for i in range(k) if (y >> i) & 1)


def ref_carrier(f, spec):
    t, n, k = spec.t, spec.n, spec.k

    def h(x):
        w = x.bit_count()
        if w < t:
            return w / t
        if w > t:
            return 1.0
        r = ref_fw_rank(x, n)
        if r >= (1 << k):
            return 1.0
        return 1.0 - 1.0 / (2 * t) if f(ref_lex_position(r, k)) == 0 else 1.0

    return h


def assert_bitwise_equal(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


points = st.lists(st.integers(min_value=0), min_size=1, max_size=40)


# --- array evaluators ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(min_value=2, max_value=MAX_N),
    seed=st.integers(min_value=0, max_value=10_000),
    raw=points,
)
def test_family_evaluator_matches_scalar_reference(family, n, seed, raw):
    spec = generate_random(family, n, seed)
    xs = np.array([x % (1 << n) for x in raw], dtype=np.int64)
    ref = ref_family(spec)
    got = instantiate(spec).eval_many(xs)
    assert_bitwise_equal(got, [ref(int(x)) for x in xs])


@pytest.mark.parametrize(
    "blocks, caps",
    [
        ([[1, 2, 3]], [300]),  # above uint8, the type of a popcount
        ([[1, 2, 3]], [255]),
        ([[1, 2, 3]], [256]),
        ([[1], [2, 3]], [2**63 - 1, 1]),  # the largest cap; above a block's size is allowed
        ([[1, 3], [2]], [300, 2]),
    ],
)
def test_large_matroid_caps_match_scalar_reference(blocks, caps):
    spec = FamilySpec("matroid_rank_partition", 3, {"blocks": blocks, "caps": caps})
    ref = ref_family(spec)
    assert_bitwise_equal(instantiate(spec).table(), [ref(x) for x in range(8)])


def ref_cut_passes(edges):
    """The cut evaluator before it took each vertex's bit once: five passes
    over the points per edge."""
    m = len(edges)

    def cut(xs):
        crossing = np.zeros(xs.shape, dtype=np.int64)
        for a, b in edges:
            crossing += ((xs >> (a - 1)) ^ (xs >> (b - 1))) & 1
        return crossing / m

    return cut


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=MAX_N), seed=st.integers(0, 1000), data=st.data())
def test_cut_evaluator_matches_the_per_edge_passes(n, seed, data):
    vertex = st.integers(min_value=1, max_value=n)
    edges = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                               min_size=1, max_size=30))
    edges += data.draw(st.lists(st.sampled_from(edges), max_size=5))  # repeated edges
    size = data.draw(st.sampled_from([1, 7, _POINT_CHUNK - 1, _POINT_CHUNK + 1]))
    xs = np.random.default_rng(seed).integers(0, 1 << n, size=size, dtype=np.int64)
    f = instantiate(FamilySpec("cut", n, {"edges": [list(e) for e in edges]}))
    assert_bitwise_equal(f.eval_many(xs), ref_cut_passes(edges)(xs))


def ref_coverage_passes(universe_size, sets):
    """The coverage evaluator before its lookup tables: three passes over the
    points per owned element."""
    owners = {}
    for i, s in enumerate(sets):
        for e in s:
            owners[e] = owners.get(e, 0) | (1 << i)

    def cov(xs):
        covered = np.zeros(xs.shape, dtype=np.int64)
        for owner in owners.values():
            covered += (xs & owner) != 0
        return covered / universe_size

    return cov


def ref_budget_passes(weights, budget):
    """The budget-additive evaluator before its prefix table: four passes over
    the points per coordinate, in ascending order."""

    def badd(xs):
        total = np.zeros(xs.shape)
        for i, w in enumerate(weights):
            total += ((xs >> i) & 1) * w
        return np.minimum(total, budget) / budget

    return badd


# dimensions at the edges of the lookup chunks and of the budget-additive
# high coordinates' unsigned types (n - 16 = 16, 17, 32, 33), and batch sizes
# around the point chunk and around the chunk width in coordinates and in
# table entries
KERNEL_NS = (
    st.sampled_from([1, 2, 11, 12, 13, 15, 16, 17, 23, 24, 25, 32, 33, 48, 49, 61, 62])
    | st.integers(1, MAX_N)
)
BATCHES = sorted({
    1, 2, 3,
    _COVER_WIDTH - 1, _COVER_WIDTH, _COVER_WIDTH + 1,
    (1 << _COVER_WIDTH) - 1, 1 << _COVER_WIDTH, (1 << _COVER_WIDTH) + 1,
    _POINT_CHUNK - 1, _POINT_CHUNK, _POINT_CHUNK + 1, 2 * _POINT_CHUNK + 5,
})


def kernel_points(n, size, rng):
    xs = rng.integers(0, 1 << n, size=size, dtype=np.int64)
    xs[:2] = [0, (1 << n) - 1][:size]  # the empty and the full set
    return xs


def ref_cut_per_edge(edges):
    """The cut evaluator before its per-vertex masks: each vertex's bit once,
    then one XOR and one add per edge."""
    m = len(edges)
    vertices = {v for edge in edges for v in edge}

    def cut(xs):
        bit = {v: ((xs >> (v - 1)) & 1).astype(np.uint8) for v in vertices}
        crossing = np.zeros(xs.shape, dtype=np.int32)
        for a, b in edges:
            crossing += bit[a] ^ bit[b]
        return crossing / m

    return cut


@st.composite
def edge_multisets(draw, n):
    """Edges on 1..n, with some of them repeated as drawn and some reversed."""
    vertex = st.integers(min_value=1, max_value=n)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), min_size=1, max_size=40))
    edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    edges += [(b, a) for a, b in draw(st.lists(st.sampled_from(edges), max_size=6))]
    return draw(st.permutations(edges))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=2, max_value=12), data=st.data())
def test_cut_masks_match_the_per_edge_loop_on_whole_tables(n, data):
    edges = data.draw(edge_multisets(n))
    f = instantiate(FamilySpec("cut", n, {"edges": [list(e) for e in edges]}))
    assert_bitwise_equal(f.table(), ref_cut_per_edge(edges)(np.arange(1 << n, dtype=np.int64)))


@settings(max_examples=80, deadline=None)
@given(n=KERNEL_NS.filter(lambda n: n >= 2), seed=st.integers(0, 1000), data=st.data())
def test_cut_masks_match_the_per_edge_loop_on_sampled_points(n, seed, data):
    edges = data.draw(edge_multisets(n))
    xs = kernel_points(n, data.draw(st.sampled_from(BATCHES)), np.random.default_rng(seed))
    f = instantiate(FamilySpec("cut", n, {"edges": [list(e) for e in edges]}))
    assert_bitwise_equal(f.eval_many(xs), ref_cut_per_edge(edges)(xs))


@settings(max_examples=120, deadline=None)
@given(
    n=KERNEL_NS,
    owned=st.sampled_from([0, 1, 2, 63, 64, 65, 127, 128, 129, 200]),
    spare=st.sampled_from([0, 1, 5]),
    size=st.sampled_from(BATCHES),
    seed=st.integers(0, 2**32 - 1),
)
def test_coverage_lookup_matches_the_per_element_passes(n, owned, spare, size, seed):
    rng = np.random.default_rng(seed)
    universe = max(owned + spare, 1)  # elements above `owned` belong to no set
    sets = [[] for _ in range(n)]  # the sets no element is drawn for stay empty
    for e in rng.permutation(np.arange(1, owned + 1)).tolist():
        for i in rng.choice(n, size=rng.integers(1, min(n, 3) + 1), replace=False).tolist():
            sets[i].extend([e] * int(rng.integers(1, 3)))  # repeated elements
    for s in sets:
        rng.shuffle(s)
    f = instantiate(FamilySpec("coverage", n, {"universe_size": universe, "sets": sets}))
    ref = ref_coverage_passes(universe, sets)
    xs = kernel_points(n, size, rng)
    assert_bitwise_equal(f.eval_many(xs), ref(xs))
    if n <= _COVER_WIDTH:
        assert_bitwise_equal(f.table(), ref(np.arange(1 << n, dtype=np.int64)))


@settings(max_examples=120, deadline=None)
@given(
    n=KERNEL_NS,
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    size=st.sampled_from(BATCHES),
    seed=st.integers(0, 2**32 - 1),
)
def test_budget_prefix_table_matches_the_per_coordinate_passes(n, zeros, size, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=n)
    weights[rng.random(n) < zeros] = 0.0  # zero weights, all of them at 1.0
    weights = weights.tolist()
    budget = float(rng.uniform(1e-3, max(1e-3, float(np.cumsum(weights)[-1]))))
    f = instantiate(FamilySpec("budget_additive", n, {"weights": weights, "budget": budget}))
    ref = ref_budget_passes(weights, budget)
    xs = kernel_points(n, size, rng)
    assert_bitwise_equal(f.eval_many(xs), ref(xs))
    if n <= _PREFIX_WIDTH:
        assert_bitwise_equal(f.table(), ref(np.arange(1 << n, dtype=np.int64)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=MAX_N),
    kind=st.sampled_from(["plateau", "monotone"]),
    data=st.data(),
)
def test_gadget_evaluator_matches_scalar_reference(n, kind, data):
    subset = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    if subset.bit_count() < 2:
        subset |= 0b11
    spec = GadgetSpec(subset, kind)
    profile = [float(v) for v in gadget_profile(spec.s, kind)]
    xs = np.array([x % (1 << n) for x in data.draw(points)], dtype=np.int64)
    got = make_gadget(spec, n).eval_many(xs)
    assert_bitwise_equal(got, [profile[(int(x) & subset).bit_count()] for x in xs])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=MAX_N), data=st.data())
def test_fixed_weight_ranking_matches_scalar_reference(n, data):
    xs = np.array([x % (1 << n) for x in data.draw(points)], dtype=np.int64)
    assert cube.fw_rank(xs, n).tolist() == [ref_fw_rank(int(x), n) for x in xs]
    w = data.draw(st.integers(min_value=0, max_value=n))
    rs = data.draw(st.lists(st.integers(0, math.comb(n, w) - 1), min_size=1, max_size=20))
    got = cube.fw_unrank(n, w, np.array(rs, dtype=np.int64))
    assert got.tolist() == [ref_fw_unrank(n, w, r) for r in rs]


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=1, max_value=8), seed=st.integers(0, 1000))
def test_embedding_carrier_and_decoder_match_scalar_reference(k, seed):
    rng = np.random.default_rng(seed)
    f = ValueOracle.from_table(rng.integers(0, 2, size=1 << k).astype(float))
    h, spec = embed_build(f)
    ref = ref_carrier(f, spec)
    xs = np.arange(1 << spec.n, dtype=np.int64)
    assert_bitwise_equal(h.eval_many(xs), [ref(int(x)) for x in xs])
    # decoding the exact carrier reads f back
    assert_bitwise_equal(embed_decode(h, spec).table(), f.table())


def test_carrier_charges_one_source_query_per_embedded_point():
    f = ValueOracle.from_table([0.0, 1.0, 1.0, 0.0])
    h, spec = embed_build(f)
    before = f.query_count
    h.table()
    assert f.query_count - before == 1 << spec.k


# --- views ---------------------------------------------------------------------


VIEWS = {
    "restrict": lambda f: restrict(f, Restriction(f.n, {1: 1, 4: 0, 6: 1})),
    "restrict-all": lambda f: restrict(f, Restriction(f.n, {i: i % 2 for i in range(f.n)})),
    "flip": flip_oracle,
    "threshold": lambda f: threshold_oracle(f, 0.5),
    "staircase": lambda f: threshold_decompose(f, 0.3)[1],
    "signed": lambda f: view(f, values=lambda v: 2.0 * v - 1.0),
    "flip-then-signed": lambda f: view(flip_oracle(f), values=lambda v: 2.0 * v - 1.0),
}


@pytest.mark.parametrize("family", GENERATED_FAMILIES)
@pytest.mark.parametrize("name", sorted(VIEWS))
def test_view_same_with_or_without_cached_parent_table(family, name):
    spec = generate_random(family, 8, seed=5)
    lazy, eager = instantiate(spec), instantiate(spec)
    eager.table()
    a, b = VIEWS[name](lazy), VIEWS[name](eager)
    assert a.n == b.n
    xs = np.arange(1 << a.n, dtype=np.int64)[::-3]

    charges = []
    for v in (a, b):
        before = v.query_count
        singles = [v(int(x)) for x in xs]
        batch = v.eval_many(xs)
        charges.append(v.query_count - before)
        assert_bitwise_equal(batch, singles)
    assert charges[0] == charges[1] == 2 * xs.size

    # a cached parent table gives the view its table without further charges
    before = b.query_count
    eager_table = b.table()
    assert b.query_count == before
    before = a.query_count
    lazy_table = a.table()
    assert a.query_count - before == 1 << a.n
    assert_bitwise_equal(lazy_table, eager_table)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(GENERATED_FAMILIES),
    n=st.integers(min_value=13, max_value=16),
    seed=st.integers(0, 1000),
    size=st.sampled_from([_POINT_CHUNK - 1, _POINT_CHUNK, _POINT_CHUNK + 1]),
)
def test_chunked_evaluators_match_one_whole_array_call(family, n, seed, size):
    # every family evaluates by chunks of _POINT_CHUNK points; with a chunk
    # larger than the cube, its evaluator is one call on the whole array
    spec = generate_random(family, n, seed)
    xs = np.random.default_rng(seed).integers(0, 1 << n, size=size, dtype=np.int64)
    table, batch = instantiate(spec).table(), instantiate(spec).eval_many(xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcs, "_POINT_CHUNK", 1 << 30)
        f = instantiate(spec)
        whole, whole_batch = f._fn(np.arange(1 << n, dtype=np.int64)), f._fn(xs)
    assert_bitwise_equal(table, whole)
    assert_bitwise_equal(batch, whole_batch)
