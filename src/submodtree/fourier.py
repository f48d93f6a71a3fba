"""Fourier analysis on {0,1}^n under the uniform distribution.

Conventions: the character of a subset mask S is chi_S(x) = (-1)^{|x & S|};
analysis is expectation-normalized, coeff(S) = E[f * chi_S], and synthesis is
the plain sum f(x) = sum_S coeff(S) * chi_S(x).  Masks are little-endian
coordinate sets, matching the point packing in `cube`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import funcs
from .cube import check_enumerable, enum_cap, popcount, subset_members
from .funcs import ValueOracle

SPARSE_EPS = 1e-12


class BudgetExceeded(ValueError):
    """Raised when a candidate-coefficient sweep would exceed its budget."""


# Estimated one mask at a time (n above the butterfly's), a sweep makes one
# pass over the sample per mask, about 8 ns per sample on a 2-core Xeon with
# numpy 2.4: masks x samples is bounded by this limit, about 2 s per sweep.
SAMPLE_WORK_LIMIT = 1 << 28


def parity_signs(subset: int, xs: np.ndarray) -> np.ndarray:
    """chi_S over an array of packed points."""
    return 1.0 - 2.0 * (popcount(np.asarray(xs, dtype=np.int64) & subset) & 1)


def fwht(values: np.ndarray) -> np.ndarray:
    """In-place-style Walsh-Hadamard butterfly along the last axis;
    output[..., S] = sum_x chi_S(x) v[..., x].

    The transform matrix is its own inverse up to the factor 2^n.  A stack
    of tables is transformed row by row, each row with the bits it gets
    alone: every level pairs values within one aligned block of 2h, and the
    rows are whole blocks.
    """
    a = np.array(values, dtype=float, order="C")  # a copy, transformed in place
    m = a.shape[-1]
    if m & (m - 1):
        raise ValueError(f"length {m} is not a power of two")
    _fwht_in_place(a.reshape(-1), m)
    return a


# Entries per block of the butterfly: 256 KB of float64, which stays in cache.
_BLOCK = 1 << 15


def _fwht_in_place(flat: np.ndarray, m: int) -> None:
    """`fwht` in place on a contiguous 1-D array of rows of length m.

    Levels h < _BLOCK run block by block, every level of a block before the
    next block; each higher level pairs block-sized slices at distance h.
    Every pair of values at a level gets lo + hi and lo - hi, level after
    level, as a butterfly over the whole array gives it, so the bits do not
    depend on the block; no temporary is larger than a block.
    """
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        h = 1
        while h < min(m, _BLOCK):
            v = block.reshape(-1, 2 * h)
            lo = v[:, :h].copy()
            v[:, :h] += v[:, h:]
            np.subtract(lo, v[:, h:], out=v[:, h:])
            h *= 2
    h = _BLOCK
    while h < m:
        for start in range(0, flat.size, 2 * h):
            for j in range(start, start + h, _BLOCK):
                x, y = flat[j : j + _BLOCK], flat[j + h : j + h + _BLOCK]
                lo = x.copy()
                x += y
                np.subtract(lo, y, out=y)
        h *= 2


# --- the spectrum CSV writer --------------------------------------------------
#
# Every row is "{},{:.17g}\n".format(mask, coeff), byte for byte.  For finite
# |x| in [1e-280, 1e280) the kernel takes E as the floor of the double just
# below log10|x|, and rounds y = |x| 10^(16-E) to the integer D of 17 digits.
# So a value at or just below 10^j, which log10 rounds to j, gets E = j - 1
# and D = 10^17: a carry to E + 1.  y is the double-double hi + lo, Dekker's
# product of |x| and the double-double 10^(16-E).  hi is exact, and lo is off
# by less than 1e-14, from rounding its last two sums and the low part of
# 10^(16-E).  A value keeps D = hi + rint(lo) only when 10^16 <= D <= 10^17
# (D = 10^16 also needs y above 10^16, or E was read one too high) and when
# lo's fraction is farther than _TIE_TOL from 1/2.  Every other value, NaN,
# infinities, zeros and subnormals among them, is written by `format` in its
# own row.
#
# A row is laid out in uint32 lanes of four bytes: the mask's digits; ",", sign;
# the digits before the point; the point and the zeros that follow it when the
# exponent is below -1; 17 digits after the point; the exponent and "\n".
# Bytes a row does not use hold 0 and are deleted when the rows are joined.

_CSV_CHUNK = 1 << 13  # rows per pass: a row buffer of about 0.5 MB
_TIE_TOL = 1e-9
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _lane_table(texts: list[str], dtype) -> np.ndarray:
    """Each text as one lane of ``dtype``, padded with 0 bytes."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer("".join(t.ljust(size, "\0") for t in texts).encode(), dtype=dtype)


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The writer's lookup tables, built on first use."""
    # the digits of 0..9999, most significant first
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    keep = np.arange(4) >= np.arange(5)[:, None]
    return {
        "quads": (np.ascontiguousarray(digits.T) + np.uint8(ord("0"))).view(np.uint32).ravel(),
        "quad_zeros": np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0),
        # lane masks: the first c bytes cleared, or the last c
        "clear_first": (keep * np.uint8(255)).view(np.uint32).ravel(),
        "clear_last": (keep[:, ::-1] * np.uint8(255)).view(np.uint32).ravel(),
        "sign": _lane_table([",", ",-"], np.uint32),
        "point": _lane_table(["", ".", ".0", ".00", ".000"], np.uint32),
    }


def _by_distinct(fn, keys: np.ndarray, dtype) -> np.ndarray:
    """fn(k) for each int64 key k, with fn called once per distinct key."""
    base = int(keys.min())
    used = np.flatnonzero(np.bincount(keys - base))
    table = np.zeros(int(used[-1]) + 1, dtype=dtype)
    table[used] = [fn(base + j) for j in used.tolist()]
    return table[keys - base]


def _put_digits(out: np.ndarray, v: np.ndarray, clear_first, strip_zeros: bool = False) -> None:
    """Write the last 4 * out.shape[1] decimal digits of each int64 v >= 0 as
    ASCII into out's uint32 lanes, most significant first.  The first
    ``clear_first`` digits are set to 0, and with ``strip_zeros`` so are the
    trailing zeros."""
    t = _tables()
    groups = out.shape[1]
    zeros = 0
    for j in reversed(range(groups)):
        q = v // 10000
        quad = v - q * 10000
        lane = t["quads"][quad]
        if strip_zeros:
            # the quad's own trailing zeros, when every later quad is zero
            cleared = t["quad_zeros"][quad] * (zeros == 4 * (groups - 1 - j))
            lane &= t["clear_last"][cleared]
            zeros = zeros + cleared
        cleared = clear_first - 4 * j
        if np.any(cleared > 0):
            lane &= t["clear_first"][np.minimum(np.maximum(cleared, 0), 4)]
        out[:, j] = lane
        v = q


@functools.cache
def _power_of_ten(k: int) -> tuple[float, float]:
    """10^k as the double-double hi + lo, both rounded from the exact value."""
    p = Fraction(10) ** k
    return float(p), float(p - Fraction(float(p)))


def _fixed(exp10):
    """Whether %g prints a value with exponent exp10 in fixed notation."""
    return (exp10 >= -4) & (exp10 < 17)


@functools.cache
def _row_end(exp10: int) -> int:
    """What follows the digits of a value printed with exponent exp10, as one
    uint64 lane: "\n" in fixed notation, else the exponent and "\n"."""
    return int(_lane_table(["\n" if _fixed(exp10) else f"e{exp10:+03d}\n"], np.uint64)[0])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = hi + lo, each half with at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _csv_chunk(masks: np.ndarray, x: np.ndarray) -> bytearray:
    """The rows of one chunk of masks and coefficients."""
    t = _tables()
    n = x.size
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax < 1e280)  # False for NaN
    ax = np.where(ok, ax, 1.0)
    e = np.floor(np.nextafter(np.log10(ax), -np.inf)).astype(np.int64)
    p_hi = _by_distinct(lambda k: _power_of_ten(k)[0], 16 - e, float)
    p_lo = _by_distinct(lambda k: _power_of_ten(k)[1], 16 - e, float)
    hi = ax * p_hi  # an integer: y >= 2^53 wherever D is kept
    a1, a2 = _split(ax)
    b1, b2 = _split(p_hi)
    lo = (((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2) + ax * p_lo
    r = np.rint(lo)
    frac = lo - r
    d = hi.astype(np.int64) + r.astype(np.int64)
    keep = (ok & (d >= 10**16) & (d <= 10**17) & (np.abs(frac) < 0.5 - _TIE_TOL)
            & ((d > 10**16) | (frac > _TIE_TOL)))
    carry = d == 10**17
    d = np.where(keep & ~carry, d, 10**16)
    exp10 = e + carry  # the printed exponent
    fixed = _fixed(exp10)
    point = np.where(fixed, np.maximum(exp10, -1), 0)  # the digit the point follows
    unit = _POW10[16 - point]
    whole = d // unit  # 0 when the point precedes d0
    after = (d - whole * unit) * _POW10[point + 1]  # the digits after the point, 17 wide

    width = np.searchsorted(_POW10[1:], masks, side="right") + 1
    whole_width = np.maximum(point + 1, 1)
    mask_lanes = -(-int(width.max()) // 4)
    whole_lanes = -(-int(whole_width.max()) // 4)
    lanes = mask_lanes + whole_lanes + 9
    raw = bytearray(4 * lanes * n)
    row = np.frombuffer(raw, dtype=np.uint32).reshape(n, lanes)
    _put_digits(row[:, :mask_lanes], masks, 4 * mask_lanes - width)
    col = mask_lanes
    row[:, col] = t["sign"][np.signbit(x).view(np.uint8)]
    _put_digits(row[:, col + 1 : col + 1 + whole_lanes], whole, 4 * whole_lanes - whole_width)
    col += 1 + whole_lanes
    lead_zeros = np.where(fixed & (exp10 < -1), -1 - exp10, 0)
    row[:, col] = t["point"][np.where(after > 0, 1 + lead_zeros, 0)]
    _put_digits(row[:, col + 1 : col + 6], after, 3, strip_zeros=True)
    row[:, col + 6 :] = _by_distinct(_row_end, exp10, np.uint64).view(np.uint32).reshape(n, 2)

    escaped = np.flatnonzero(~keep)
    if escaped.size:
        area = 4 * (lanes - mask_lanes) - 1  # from the sign byte to the row's end
        texts = b"".join(format(v, ".17g").encode().ljust(area - 1, b"\0") + b"\n"
                         for v in x[escaped].tolist())
        bytes_of = np.frombuffer(raw, dtype=np.uint8).reshape(n, 4 * lanes)
        bytes_of[escaped, -area:] = np.frombuffer(texts, dtype=np.uint8).reshape(-1, area)
    return raw.translate(None, b"\0")


CSV_HEADER = b"mask,coefficient\n"


def _csv_chunks(masks: np.ndarray, coeffs: np.ndarray) -> Iterator[bytes]:
    """The bytes of "{},{:.17g}\\n".format(m, c) for every int64 mask m >= 0
    and float64 coefficient c, in order, _CSV_CHUNK rows at a time."""
    for i in range(0, masks.size, _CSV_CHUNK):
        yield _csv_chunk(masks[i : i + _CSV_CHUNK], coeffs[i : i + _CSV_CHUNK])


_SCAN = _CSV_CHUNK  # entries of a dense array searched for nonzeros at a time


def _dense_csv_chunks(c: np.ndarray) -> Iterator[bytes]:
    """The rows of the nonzero entries of a 1-D coefficient array, by
    ascending mask, as `_csv_chunks` of `Spectrum.from_dense` writes them,
    with no array of the whole support, one chunk's rows at a time.  The
    nonzeros of a window that do not fill a chunk wait for the next window,
    so a sparse array is not written in many small chunks."""
    masks = np.empty(0, dtype=np.int64)
    for start in range(0, c.size, _SCAN):
        found = np.flatnonzero(c[start : start + _SCAN])
        found += start
        masks = np.concatenate([masks, found])
        cut = masks.size if start + _SCAN >= c.size else masks.size - masks.size % _CSV_CHUNK
        yield from _csv_chunks(masks[:cut], c[masks[:cut]])
        masks = masks[cut:]


@dataclass(eq=False)
class Spectrum:
    """Sparse Fourier coefficients over dimension n: coeffs[k] = coeff(masks[k]),
    with the masks (int64) strictly ascending and the coefficients float64."""

    n: int
    masks: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.masks = np.asarray(self.masks, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        m = self.masks
        if m.ndim != 1 or m.shape != self.coeffs.shape:
            raise ValueError("masks and coeffs must be aligned 1-d arrays")
        if m.size and (m[0] < 0 or m[-1] >> self.n or np.any(m[1:] <= m[:-1])):
            raise ValueError(f"masks must be strictly ascending subsets of [0, {self.n})")

    @staticmethod
    def from_dense(values: np.ndarray, n: int) -> "Spectrum":
        """The nonzero entries of a dense coefficient array, by ascending mask."""
        masks = np.flatnonzero(values)
        return Spectrum(n, masks, values[masks])

    def dense(self) -> np.ndarray:
        check_enumerable(self.n, "dense spectrum")
        out = np.zeros(1 << self.n)
        out[self.masks] = self.coeffs
        return out

    def degree(self) -> int:
        return int(popcount(self.masks).max(initial=0))

    def support_union(self) -> int:
        return int(np.bitwise_or.reduce(self.masks, initial=0))

    def table(self) -> np.ndarray:
        """Truth table of the represented function (synthesis transform)."""
        return fwht(self.dense())

    def to_csv(self) -> str:
        return b"".join([CSV_HEADER, *_csv_chunks(self.masks, self.coeffs)]).decode("ascii")


def coefficients(f: ValueOracle) -> np.ndarray:
    """Every exact coefficient of an oracle by ascending mask, via the fast
    butterfly, O(n 2^n): the stack of one of `stacked_coefficients`."""
    return stacked_coefficients(f.table())


def stacked_coefficients(tables: np.ndarray) -> np.ndarray:
    """The coefficients of each table of a stack along its last axis, each
    row the bits `coefficients` gives its table alone.

    A coefficient with |c| <= SPARSE_EPS is set to exactly 0.0; NaN is not,
    so a table holding NaN gives NaN coefficients.
    """
    return _to_coefficients(fwht(tables))


def _to_coefficients(c: np.ndarray) -> np.ndarray:
    """Turn the butterfly's sums into coefficients in place, block by block:
    divide by the row length, then set |c| <= SPARSE_EPS to 0.0."""
    m = c.shape[-1]
    flat = c.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        block /= m
        block[(block >= -SPARSE_EPS) & (block <= SPARSE_EPS)] = 0.0
    return c


def transform(f: ValueOracle) -> Spectrum:
    """Full exact spectrum of an oracle: its nonzero coefficients."""
    return Spectrum.from_dense(coefficients(f), f.n)


def spectrum_csv(f: ValueOracle) -> Iterator[bytes]:
    """`transform(f).to_csv()` in ASCII: the header, then the rows chunk by
    chunk as they are read.

    The coefficients are computed at once, in one array of 2^n float64:
    `funcs.fresh_table` (charged 2^n queries, nothing cached), transformed
    in place into `coefficients(f)`'s bits.  The rows take per chunk arrays
    of fixed size; no array of the support and no whole CSV is made.
    """
    c = np.ascontiguousarray(funcs.fresh_table(f), dtype=float)
    _fwht_in_place(c, c.size)
    _to_coefficients(c)
    return itertools.chain([CSV_HEADER], _dense_csv_chunks(c))


def spectral_l1(sp: Spectrum) -> float:
    """Sum of absolute coefficients, added left to right in ascending mask order."""
    return float(np.cumsum(np.abs(np.append(0.0, sp.coeffs)))[-1])


def pairwise_weights(f: ValueOracle) -> tuple[np.ndarray, np.ndarray]:
    """|coeff({i,j})| and the sum of coeff(S)^2 over S containing i and j, for
    every pair i < j in lexicographic order: the stack of one of
    `stacked_pairwise_weights`."""
    pair, total = stacked_pairwise_weights(coefficients(f)[None], f.n)
    return pair[0], total[0]


def stacked_pairwise_weights(c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`pairwise_weights` of each row of a (K, 2^n) stack of coefficient
    arrays (`stacked_coefficients`): two (K, pairs) arrays.

    Each sum is a sequential cumulative sum in ascending mask order, so it
    equals the left-to-right sum over the sparse spectrum bit for bit.  The
    masks containing both coordinates of a pair are the (1, 1) corner of its
    row, read by `funcs._pair_rows`.
    """
    i, j = np.triu_indices(n, 1)
    pair = np.abs(c[:, (1 << i) | (1 << j)])
    total = np.empty(pair.shape)
    for at, (corner,) in funcs._pair_rows(c * c, n, np.s_[3:]):
        total[at] = np.cumsum(corner, axis=2, out=corner)[:, :, -1]
    return pair, total


def derivative_spectrum_check(f: ValueOracle, i: int, j: int) -> tuple[float, float]:
    """Two routes to the same quantity: E[(mixed second difference)^2].

    Returns (pointwise enumeration, 16 * sum of squared coefficients over
    masks containing both i and j); the two agree for every function.
    """
    if i == j:
        raise ValueError("need two distinct coordinates")
    n = f.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"coordinates ({i}, {j}) outside [0, {n})")
    check_enumerable(n, "derivative identity check")
    i, j = min(i, j), max(i, j)
    rank = i * (2 * n - i - 1) // 2 + j - i - 1  # of the pair in lexicographic order
    dd = funcs._mixed_difference_row(f.table(), i, j)
    return float(np.mean(dd**2)), 16.0 * float(pairwise_weights(f)[1][rank])


def pairwise_coefficient_gap(f: ValueOracle) -> tuple[float, float, tuple[int, int]]:
    """Worst pair for the submodular pairwise bound.

    Returns (|coeff({i,j})|, sum of coeff(S)^2 over S containing i and j, and
    the minimizing pair), where the pair minimizes the margin of
    |coeff({i,j})| >= 1/2 * sum; (inf, 0.0, (0, 1)) when n < 2.
    """
    pair, total = pairwise_weights(f)
    if not pair.size:
        return (math.inf, 0.0, (0, 1))
    k = int(np.argmin(pair - 0.5 * total))
    i, j = (int(a[k]) for a in np.triu_indices(f.n, 1))
    return float(pair[k]), float(total[k]), (i, j)


def sample_points(n: int, m: int, seed) -> np.ndarray:
    """m uniform points as packed ints, fully determined by the seed."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << n, size=m, dtype=np.int64)


def estimate_coefficient(f: ValueOracle, subset: int, m: int, seed) -> float:
    """Empirical mean of f(x) chi_S(x) over m seeded uniform samples."""
    if m < 1:
        raise ValueError("need at least one sample")
    xs = sample_points(f.n, m, seed)
    ys = f.eval_many(xs)
    return float(np.mean(ys * parity_signs(subset, xs)))


def candidate_masks(variables: int, degree: int) -> np.ndarray:
    """All subsets of the variable mask with at most ``degree`` members, ascending."""
    masks = [0] if degree >= 0 else []
    for i in subset_members(variables):
        # every new mask holds i, the highest member so far: the list stays ascending
        masks += [s | 1 << i for s in masks if s.bit_count() < degree]
    return np.array(masks, dtype=np.int64)


def empirical_coefficients(xs: np.ndarray, ys: np.ndarray, n: int, masks) -> np.ndarray:
    """Shared-sample estimates mean(y * chi_S(x)) for every mask at once,
    aligned with ``masks``.

    When n is within the enumeration cap the estimates are computed for all
    masks in one butterfly over per-point label sums, which is numerically
    the same estimator as the direct mean.
    """
    masks = np.asarray(masks, dtype=np.int64)
    if _butterfly(n):
        sums = np.bincount(np.asarray(xs, dtype=np.int64), weights=ys, minlength=1 << n)
        return fwht(sums)[masks] / len(xs)
    return np.array([np.mean(ys * parity_signs(s, xs)) for s in masks.tolist()], dtype=float)


def _butterfly(n: int) -> bool:
    """Whether `empirical_coefficients` estimates all masks in one butterfly."""
    return n <= min(20, enum_cap())


@dataclass(frozen=True)
class LabeledSample:
    """Uniform examples (packed points, real labels)."""

    n: int
    xs: np.ndarray
    ys: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)


def dimension(data) -> int:
    """n of learning data: the dense array `coefficients` returns (length
    2^n) or a non-empty LabeledSample."""
    if isinstance(data, LabeledSample):
        if len(data) == 0:
            raise ValueError("empty sample")
        return data.n
    size = data.size if isinstance(data, np.ndarray) and data.ndim == 1 else 0
    if size and not size & (size - 1):
        return size.bit_length() - 1
    if isinstance(data, ValueOracle):
        raise TypeError("pass fourier.coefficients(f) for the exact coefficients of an oracle")
    raise TypeError("expected a dense coefficient array of length 2^n or a LabeledSample")


def coefficients_at(data, masks) -> np.ndarray:
    """The coefficients at ``masks`` from either form of learning data: exact,
    indexed from the array `coefficients(f)` returns, or estimated from a
    LabeledSample's one sample by `empirical_coefficients`."""
    n = dimension(data)
    if isinstance(data, LabeledSample):
        return empirical_coefficients(data.xs, data.ys, n, masks)
    return data[np.asarray(masks, dtype=np.int64)]


def low_degree_estimate(data, variables: int, degree: int, *, budget: int = 1 << 20) -> Spectrum:
    """The nonzero coefficients of ``data`` (see `coefficients_at`) at the
    subsets of ``variables`` with at most ``degree`` members.

    Raises BudgetExceeded, before any estimate, when the candidates exceed
    ``budget`` or, estimated one at a time from a sample, their count times
    the sample size exceeds SAMPLE_WORK_LIMIT.
    """
    n = dimension(data)
    k = variables.bit_count()
    count = sum(math.comb(k, i) for i in range(min(degree, k) + 1))
    if count > budget:
        raise BudgetExceeded(f"{count} candidate coefficients exceed budget {budget}")
    if isinstance(data, LabeledSample) and not _butterfly(n) and count * len(data) > SAMPLE_WORK_LIMIT:
        raise BudgetExceeded(
            f"{count} candidate coefficients times {len(data)} samples exceed the"
            f" work limit {SAMPLE_WORK_LIMIT} at n={n}"
        )
    masks = candidate_masks(variables, degree)
    est = coefficients_at(data, masks)
    keep = est != 0.0
    return Spectrum(n, masks[keep], est[keep])
