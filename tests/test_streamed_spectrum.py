"""`spectrum` in bounded memory: the range-filled truth table, the blocked
butterfly and the CSV written chunk by chunk, each checked bit for bit
against the whole-array route it replaced."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from submodtree import cli, fourier, funcs
from submodtree.fourier import _CSV_CHUNK, Spectrum, fwht, transform
from submodtree.funcs import (
    GENERATED_FAMILIES,
    Restriction,
    ValueOracle,
    flip_oracle,
    generate_random,
    instantiate,
    restrict,
)

_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324]


def _two_copy_fwht(values: np.ndarray) -> np.ndarray:
    """The butterfly along the last axis as it was before blocking: each
    level over the whole array, with a copy of the low half."""
    a = np.asarray(values, dtype=float).copy()
    h = 1
    while h < a.shape[-1]:
        v = a.reshape(-1, 2 * h)
        lo = v[:, :h].copy()
        v[:, :h] += v[:, h:]
        np.subtract(lo, v[:, h:], out=v[:, h:])
        h *= 2
    return a


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


def _special_stack(k: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(k, 1 << n)) * 10.0 ** rng.integers(-5, 6, size=(k, 1 << n))
    special = rng.random(v.shape) < 0.05
    v[special] = rng.choice(_SPECIAL, size=int(special.sum()))
    return v


# up to two levels above the block, so that every kind of level runs
_BLOCK_LEVEL = fourier._BLOCK.bit_length() - 1


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", range(0, _BLOCK_LEVEL + 3))
def test_blocked_fwht_matches_the_two_copy_butterfly(n, k):
    v = _special_stack(k, n, seed=n)
    with np.errstate(all="ignore"):
        got, want = fwht(v), _two_copy_fwht(v)
        assert _bits(got) == _bits(want)
        # a 1-D table is a stack of one, and a stack in Fortran order is the
        # same stack
        assert _bits(fwht(v[0])) == _bits(want[0])
        assert _bits(fwht(np.asfortranarray(v))) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.sampled_from([1, 3]), st.sampled_from([2, 4, 8]),
       st.integers(0, 2**32 - 1))
def test_blocked_fwht_matches_at_small_blocks(n, k, block, seed):
    # a small block runs the levels above it at small n too; a block holds
    # at least one pair, so that level h = 1 runs on strided views, as it
    # did before (numpy's contiguous loop may give a NaN of other sign)
    v = _special_stack(k, n, seed)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(fourier, "_BLOCK", block)
        got = fwht(v)
        coeffs = fourier.stacked_coefficients(v)
    want = _two_copy_fwht(v)
    assert _bits(got) == _bits(want)
    with np.errstate(all="ignore"):
        want = want / v.shape[-1]
        want[(want >= -fourier.SPARSE_EPS) & (want <= fourier.SPARSE_EPS)] = 0.0
    assert _bits(coeffs) == _bits(want)


def _whole(fn, n: int) -> np.ndarray:
    return fn(np.arange(1 << n, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(GENERATED_FAMILIES), n=st.integers(13, 16), seed=st.integers(0, 1000))
def test_range_filled_tables_match_one_whole_array_call(family, n, seed):
    spec = generate_random(family, n, seed)
    f = instantiate(spec)
    want = _whole(f._fn, n)
    before = f.query_count
    assert _bits(f.table()) == _bits(want)
    assert f.query_count - before == 1 << n

    g = instantiate(spec)
    (t,) = funcs.full_tables([g])
    assert _bits(t) == _bits(want) and g.query_count == 1 << n
    fresh = funcs.fresh_table(g)
    assert _bits(fresh) == _bits(want) and g.query_count == 2 << n
    assert g._table is None  # neither caches the table

    # a flip and a restriction of an oracle with no cached table evaluate
    # through their point maps
    flip = flip_oracle(instantiate(spec))
    assert _bits(flip.table()) == _bits(_whole(flip._fn, n))
    sub = restrict(instantiate(spec), Restriction(n, {n // 2: 1}))
    assert _bits(sub.table()) == _bits(_whole(sub._fn, n - 1))
    # a view of a cached table that has no cheaper form fills its own table
    # from the point map
    cached = instantiate(spec)
    cached.table()
    assert _bits(flip_oracle(cached).table()) == _bits(flip.table())
    assert _bits(funcs.fresh_table(cached)) == _bits(want)


def _table_with_support(n: int, support: np.ndarray) -> np.ndarray:
    """A table in [0, 1] whose coefficients are exactly 0.5 at mask 0 and
    +-2^-20 on ``support`` (which leaves mask 0 out): every sum is dyadic and
    exact."""
    c = np.zeros(1 << n)
    c[support] = np.where(np.arange(support.size) % 3, 1.0, -1.0) * 2.0**-20
    c[0] = 0.5
    return fwht(c)


def _spectrum_bytes(tmp_path, capsys, table: np.ndarray) -> tuple[bytes, bytes]:
    spec = tmp_path / "spec.json"
    n = table.size.bit_length() - 1
    spec.write_text(json.dumps({"family": "truth_table", "n": n, "values": table.tolist()}))
    capsys.readouterr()
    assert cli.main(["spectrum", "--file", str(spec), "--out", str(tmp_path / "out")]) == 0
    return capsys.readouterr().out.encode(), (tmp_path / "out" / "spectrum.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK - 1, 2 * _CSV_CHUNK, 2 * _CSV_CHUNK + 1])
@pytest.mark.parametrize("scan", [fourier._SCAN, _CSV_CHUNK, 2 * _CSV_CHUNK, 4 * _CSV_CHUNK, 32 * _CSV_CHUNK])
def test_streamed_spectrum_matches_to_csv(tmp_path, capsys, monkeypatch, rows, scan):
    monkeypatch.setattr(fourier, "_SCAN", scan)
    n = 16
    rng = np.random.default_rng(rows)
    support = np.sort(rng.choice(np.arange(1, 1 << n), size=max(rows - 1, 0), replace=False))
    table = _table_with_support(n, support) if rows else np.zeros(1 << n)
    want = transform(ValueOracle.from_table(table)).to_csv().encode()
    assert want.count(b"\n") == rows + 1
    assert _spectrum_bytes(tmp_path, capsys, table) == (want, want)
    # the evaluator route, with no cached table to copy
    f = ValueOracle(n, table.__getitem__)
    assert b"".join(fourier.spectrum_csv(f)) == want
    assert f.query_count == 1 << n and f._table is None


@pytest.mark.parametrize("scan", [fourier._SCAN, _CSV_CHUNK, 2 * _CSV_CHUNK, 4 * _CSV_CHUNK, 32 * _CSV_CHUNK])
@pytest.mark.parametrize("edge", [-1, 0])
def test_streamed_spectrum_with_a_zero_on_a_chunk_edge(tmp_path, capsys, monkeypatch, scan, edge):
    monkeypatch.setattr(fourier, "_SCAN", scan)
    n = 16
    zero = scan + edge if scan < 1 << n else _CSV_CHUNK + edge
    support = np.setdiff1d(np.arange(1, 1 << n), [zero])
    table = _table_with_support(n, support)
    sp = transform(ValueOracle.from_table(table))
    assert zero not in sp.masks and sp.masks.size == (1 << n) - 1
    want = sp.to_csv().encode()
    assert _spectrum_bytes(tmp_path, capsys, table) == (want, want)
    assert b"".join(fourier._dense_csv_chunks(sp.dense())) == want[len(fourier.CSV_HEADER):]


def test_to_csv_is_the_join_of_the_chunk_writer():
    sp = Spectrum(40, [0, 3, 1 << 39], [0.5, -0.25, 1e-300])
    rows = "".join(map("{},{:.17g}\n".format, sp.masks.tolist(), sp.coeffs.tolist()))
    assert sp.to_csv() == "mask,coefficient\n" + rows
