"""Value oracles over {0,1}^n: submodular families, views, checkers.

A `ValueOracle` evaluates a real function on arrays of packed points: its
one evaluator maps an int64 point array to a float array, and a single query
is a batch of one.  Views built by `view` (restrictions, flips, value maps)
share the parent oracle's query counter, so query-complexity reports survive
the recursive constructions that work on subcubes.

All inequality checks use the tolerance TOL = 1e-9: ties at a bound count as
satisfying it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import cube
from .cube import check_enumerable, check_packable, format_point, popcount

TOL = 1e-9

FAMILIES = (
    "coverage",
    "cut",
    "budget_additive",
    "matroid_rank_partition",
    "concave_profile",
    "truth_table",
)


class InvalidFamilySpec(ValueError):
    """Raised for missing, mistyped or internally inconsistent family parameters."""


class _QueryCounter:
    """Thread-safe monotone evaluation counter shared along restrictions."""

    __slots__ = ("_lock", "_count")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def charge(self, k: int = 1) -> None:
        with self._lock:
            self._count += k

    @property
    def count(self) -> int:
        return self._count


class ValueOracle:
    """Deterministic real-valued function on {0,1}^n, evaluated on arrays.

    ``fn`` maps a 1-D int64 array of packed points to the float array of
    their values.  Evaluation is pure apart from the query counter, which
    charges one query per point.  ``table()`` caches the full truth table
    (n <= enumeration cap) and charges 2^n queries once; later queries read
    the cached table.
    """

    def __init__(
        self,
        n: int,
        fn: Callable[[np.ndarray], np.ndarray],
        *,
        counter: _QueryCounter | None = None,
        table: np.ndarray | None = None,
    ) -> None:
        self.n = n
        self._fn = fn
        self._counter = counter if counter is not None else _QueryCounter()
        self._table = table

    @staticmethod
    def from_table(values) -> "ValueOracle":
        """The oracle of a 1-D table of 2^n values, little-endian point order."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"a table is 1-D, got shape {values.shape}")
        size = values.size
        n = size.bit_length() - 1
        if size != (1 << n):
            raise ValueError(f"table length {size} is not a power of two")
        return ValueOracle(n, values.__getitem__, table=values)

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        """Values at a 1-D int64 point array, charging no query."""
        if self._table is not None:
            return self._table[xs]
        return self._fn(xs)

    def __call__(self, x: int) -> float:
        self._counter.charge()
        if self._table is not None:
            return float(self._table[x])
        return float(self._fn(np.array([x], dtype=np.int64))[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        self._counter.charge(int(xs.size))
        return self._eval(xs.reshape(-1)).reshape(xs.shape)

    def charge(self, k: int) -> None:
        """Charge k queries that the caller answered from the cached table."""
        self._counter.charge(int(k))

    def table(self) -> np.ndarray:
        """Full truth table indexed by little-endian point integers."""
        if self._table is None:
            check_enumerable(self.n, "truth table")
            self._counter.charge(1 << self.n)
            self._table = _cube_values(self._fn, self.n)
        return self._table

    @property
    def query_count(self) -> int:
        return self._counter.count

    @property
    def cached(self) -> bool:
        """Whether the truth table is cached: views made of it then hold
        their own tables, read and charged for nothing."""
        return self._table is not None


def view(
    f: ValueOracle,
    *,
    n: int | None = None,
    points: Callable[[np.ndarray], np.ndarray] | None = None,
    values: Callable[[np.ndarray], np.ndarray] | None = None,
    sub_table: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ValueOracle:
    """The oracle x -> values(f(points(x))) on n coordinates (default f.n).

    ``points`` maps view points to f's points and ``values`` maps f's values
    elementwise; either defaults to the identity.  The view shares f's query
    counter and charges one query per point it is asked for, none for the
    f evaluations behind it.  When f's table is cached the view's table is
    derived from it at once, through ``sub_table`` when given (a cheaper
    form of the point map) and through the maps otherwise.
    """

    def fn(xs: np.ndarray) -> np.ndarray:
        ys = f._eval(points(xs) if points else xs)
        return values(ys) if values else ys

    n = f.n if n is None else n
    if f._table is None:
        return ValueOracle(n, fn, counter=f._counter)
    if sub_table is not None:
        table = sub_table(f._table)
    elif points is None:
        table = values(f._table)
    else:
        table = _cube_values(fn, n)
    # a table-backed view holds only its table, not f and the maps
    return ValueOracle(n, table.__getitem__, counter=f._counter, table=table)


def full_tables(oracles: Sequence[ValueOracle]) -> list[np.ndarray]:
    """The whole truth table of each oracle, read from its cache when it has one.

    Each oracle is charged its 2^n points, as `eval_many` over its cube
    would charge (one charge per shared counter), and nothing is cached.
    """
    charges: dict[_QueryCounter, int] = {}
    for g in oracles:
        charges[g._counter] = charges.get(g._counter, 0) + (1 << g.n)
    for counter, k in charges.items():
        counter.charge(k)
    return [g._table if g._table is not None else _cube_values(g._fn, g.n) for g in oracles]


def fresh_table(f: ValueOracle) -> np.ndarray:
    """f's truth table in a new array the caller may overwrite: a copy of
    the cached table, or else filled from the evaluator and not cached.
    Charges 2^n queries, as `full_tables` does."""
    check_enumerable(f.n, "truth table")
    f.charge(1 << f.n)
    return f._table.copy() if f._table is not None else _cube_values(f._fn, f.n)


@dataclass(frozen=True)
class Restriction:
    """Partial assignment: ``fixed`` maps coordinates to bits, rest are free."""

    n: int
    fixed: Mapping[int, int]

    def __post_init__(self) -> None:
        for i, b in self.fixed.items():
            if not 0 <= i < self.n:
                raise ValueError(f"fixed coordinate {i} outside [0, {self.n})")
            if b not in (0, 1):
                raise ValueError(f"fixed value must be a bit, got {b}")

    @property
    def free(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.fixed)

    def base_point(self) -> int:
        x = 0
        for i, b in self.fixed.items():
            if b:
                x |= 1 << i
        return x


def restrict(f: ValueOracle, restriction: Restriction) -> ValueOracle:
    """Oracle on the free coordinates of the subcube fixed by ``restriction``.

    A restriction of a submodular function is submodular.  The result shares
    f's query counter.
    """
    if restriction.n != f.n:
        raise ValueError(f"restriction is over n={restriction.n}, oracle n={f.n}")
    if not restriction.fixed:
        return f
    free = restriction.free
    base = restriction.base_point()

    def expand(zs: np.ndarray) -> np.ndarray:
        xs = np.full_like(zs, base)
        for local, g in enumerate(free):
            xs |= ((zs >> local) & 1) << g
        return xs

    # axis (n-1-i) of the C-order reshape carries coordinate i; a slice is
    # much cheaper than gathering through expand
    idx = tuple(
        slice(None) if i in free else restriction.fixed[i] for i in reversed(range(f.n))
    )

    def sub_table(t: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(t.reshape((2,) * f.n)[idx]).reshape(1 << len(free))

    return view(f, n=len(free), points=expand, sub_table=sub_table)


def stacked_table(oracles: Sequence[ValueOracle]) -> np.ndarray:
    """The truth tables of oracles of one dimension n, one after another: the
    table of a stack whose point k * 2^n + x is point x of oracle k, so that
    the bits above n of a stacked point name its oracle.  One oracle's stack
    is its cached table itself."""
    tables = [g.table() for g in oracles]
    return tables[0] if len(tables) == 1 else np.concatenate(tables)


def flip_oracle(f: ValueOracle) -> ValueOracle:
    """The view x -> f(not x); an involution, submodularity-preserving."""
    full = (1 << f.n) - 1
    return view(f, points=lambda xs: xs ^ full)


# --- discrete derivatives -------------------------------------------------

def derivative(f: ValueOracle, i: int, x: int) -> float:
    """f with coordinate i set to 1, minus f with it set to 0."""
    if not 0 <= i < f.n:
        raise ValueError(f"coordinate {i} outside [0, {f.n})")
    hi = x | (1 << i)
    lo = hi ^ (1 << i)
    return f(hi) - f(lo)


def second_derivative(f: ValueOracle, i: int, j: int, x: int) -> float:
    """Mixed difference over coordinates i != j; <= 0 iff f is submodular."""
    if i == j:
        raise ValueError("second derivative needs two distinct coordinates")
    bi, bj = 1 << i, 1 << j
    base = x & ~(bi | bj)
    return f(base | bi | bj) - f(base | bi) - f(base | bj) + f(base)


# --- exhaustive checkers ------------------------------------------------------
#
# The checkers read a table in rows: one row per coordinate i (derivatives)
# or per pair i < j (mixed differences, pairwise weights), in lexicographic
# order, each over the points with zeros at its coordinates in ascending
# order.  t.reshape(-1, 2, 1 << i) puts coordinate i on the middle axis, so
# fixing x_i is a strided view of the table, and what is left lists the other
# points in ascending order when flattened in C order.  Derivative rows are
# always read through these views.  Pair rows are read by `_pair_rows`: while
# a table's pair rows fit _GATHER_BUDGET values, with one gather through an
# index array cached per n, and one strided pair at a time above it, where
# the submodularity checks take pair maxima from the cache-sized blocks of
# `_blocked_pair_maxima` instead.
#
# A stack of tables (`stacked_table`) is read through the same views: its
# rows over the low n coordinates pair each point only with points of its
# own table, so no difference crosses from one table into the next.  Leaf
# certification checks the leaves of one dimension as such a stack of their
# own tables (`leaf_violations`).
_GATHER_BUDGET = 1 << 16


def _quarters(a: np.ndarray, i: int, j: int) -> tuple[np.ndarray, ...]:
    """Views of a per-point array at (x_i, x_j) = 00, 10, 01, 11, for i < j."""
    v = a.reshape(-1, 2, 1 << (j - 1 - i), 2, 1 << i)
    return v[:, 0, :, 0], v[:, 0, :, 1], v[:, 1, :, 0], v[:, 1, :, 1]


def _with_zero_bits(k, *bits):
    """The point whose bits outside ``bits`` (ascending) read k, with zeros at
    ``bits``; elementwise when k or the bits are arrays."""
    for b in bits:
        k = (k >> b << (b + 1)) | (k & ((1 << b) - 1))
    return k


def _derivative_rows(t: np.ndarray, n: int):
    """(i, d) per coordinate i < n: d[k] is the derivative along i at the
    k-th point with x_i = 0, `_with_zero_bits(k, i)`, of t or of a stack of
    2^n-point tables."""
    for i in range(n):
        v = t.reshape(-1, 2, 1 << i)
        yield i, (v[:, 1] - v[:, 0]).reshape(-1)


@functools.cache
def _gather_index(n: int) -> np.ndarray:
    """index[s, r, k]: the k-th point of the row of the r-th pair i < j, with
    x_i and x_j set to bits 0 and 1 of s, so index[0] holds the rows' points
    themselves.  Every caller shares the array, and none may write to it; it
    is not flagged read-only because numpy gathers more slowly through a
    read-only index."""
    i, j = (c[:, None] for c in np.triu_indices(n, 1))
    base = _with_zero_bits(np.arange(1 << (n - 2), dtype=np.int64), i, j)
    return np.stack([base, base | 1 << i, base | 1 << j, base | 1 << i | 1 << j])


def _pair_rows(t: np.ndarray, n: int, corners: slice):
    """The pair rows of a stack of 2^n-point tables (one table is a stack
    of one), in groups: yields (at, rows), where rows[c] holds the values at
    the c-th of the ``corners`` (numbered as in `_gather_index`) of the rows
    of the group, shaped (tables, pairs, 2^(n-2)), and ``at`` indexes the
    group's tables and pairs in a (tables, pairs) array.  rows is a new
    array, which the caller may overwrite.

    Within the gather budget a group is every pair of as many tables as one
    gather of _GATHER_BUDGET values reads; above it, one pair of every
    table.
    """
    if n < 2:
        return
    tables = t.reshape(-1, 1 << n)
    if math.comb(n, 2) << (n - 2) <= _GATHER_BUDGET:
        index = _gather_index(n)[corners]
        step = max(1, _GATHER_BUDGET // index.size)  # tables per gather
        for k in range(0, len(tables), step):
            yield np.s_[k:k + step], np.moveaxis(tables[k:k + step].take(index, axis=1), 1, 0)
        return
    for r, c in enumerate(itertools.combinations(range(n), 2)):
        rows = [q.reshape(len(tables), 1, -1) for q in _quarters(t, *c)[corners]]
        yield np.s_[:, r:r + 1], np.array(rows)


def _mixed(t00, t10, t01, t11) -> np.ndarray:
    """t11 - t10 - t01 + t00, in that order."""
    dd = t11 - t10
    dd -= t01
    dd += t00
    return dd


def _mixed_difference_row(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """The mixed differences over the pair i < j at the points with both
    coordinates 0, in ascending order: the k-th at `_with_zero_bits(k, i, j)`."""
    return _mixed(*_quarters(t, i, j)).reshape(-1)


# Above the gather budget, pair maxima are read in blocks of _PAIR_BLOCK
# points.  For each coordinate j, a block is whole slabs of j (the x_j = 0
# half, then the x_j = 1 half), or the same aligned piece of both halves of
# one slab where a slab is larger.  The derivative along j, d = hi - lo, is
# taken once per block: at x_i = 1 it is t11 - t10 of the pair (i, j), which
# then finishes as (d - t01) + t00 while the block is in cache, the gather
# path's operations in its order.  Where x_i is fixed within a piece, the
# x_i = 1 piece pairs with the x_i = 0 piece of the same slab.
_PAIR_BLOCK = 1 << 16


def _pair_maxima(t: np.ndarray, n: int) -> np.ndarray:
    """The largest mixed difference of each pair i < j, in lexicographic
    order; NaN for a pair with a NaN difference, as ndarray.max gives.  For
    a stack of 2^n-point tables, the maxima of each table, one table after
    another, each the bits its table alone gives."""
    tables = t.reshape(-1, 1 << n)
    if n > 1 and math.comb(n, 2) << (n - 2) > _GATHER_BUDGET:
        return np.concatenate([_blocked_pair_maxima(table, n) for table in tables])
    tops = np.empty((len(tables), math.comb(n, 2)))
    for at, rows in _pair_rows(t, n, np.s_[:]):
        tops[at] = _mixed(*rows).max(axis=2)
    return tops.reshape(-1)


def _blocked_pair_maxima(t: np.ndarray, n: int) -> np.ndarray:
    """`_pair_maxima` of one table above the gather budget."""
    half = _PAIR_BLOCK >> 1
    parts = np.full((math.comb(n, 2), max(1, (1 << n) // _PAIR_BLOCK)), -np.inf)
    buf, dbuf = np.empty(half), np.empty(half)
    for j in range(1, n):
        slabs = t.reshape(-1, 2, 1 << j)
        w = min(1 << j, half)
        s = half // w
        blocks = itertools.product(range(0, len(slabs), s), range(0, 1 << j, w))
        for b, (h, c) in enumerate(blocks):
            lo, hi = slabs[h:h + s, 0, c:c + w], slabs[h:h + s, 1, c:c + w]
            d = np.subtract(hi, lo, out=dbuf[:lo.size].reshape(lo.shape))
            for i in range(j):
                if 1 << i < w:
                    q = (len(d), w >> (i + 1), 2, 1 << i)
                    ops = d.reshape(q)[:, :, 1], hi.reshape(q)[:, :, 0], lo.reshape(q)[:, :, 0]
                    if i < 3:  # runs of 1, 2 or 4 values: iterate the long axis innermost
                        ops = [a.transpose(0, 2, 1) for a in ops]
                elif c >> i & 1:
                    p = c ^ (1 << i)
                    ops = d, slabs[h:h + s, 1, p:p + w], slabs[h:h + s, 0, p:p + w]
                else:
                    continue
                out = buf[:ops[0].size].reshape(ops[0].shape)
                np.subtract(ops[0], ops[1], out=out)
                out += ops[2]
                parts[i * (2 * n - i - 1) // 2 + j - i - 1, b] = out.max()
    return parts.max(axis=1)


def _pair(n: int, r: int) -> tuple[int, int]:
    """The r-th pair i < j of n coordinates in lexicographic order."""
    return next(itertools.islice(itertools.combinations(range(n), 2), r, None))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exhaustive inequality check, with a witness on failure.

    The witness is (i, j, point) for pair checks and (i, point) for
    single-coordinate checks, all 0-based.
    """

    ok: bool
    witness: tuple | None = None
    extreme: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def _first_failure(t: np.ndarray, n: int, fails, pick) -> CheckResult:
    """The failed check at the first coordinate whose derivatives fail
    ``fails`` (elementwise), witnessed at the first ``pick`` (an argmin or
    argmax) of its row; a pass when no row fails."""
    for i, d in _derivative_rows(t, n):
        if fails(d).any():
            k = int(pick(d))
            return CheckResult(False, (i, int(_with_zero_bits(k, i))), float(d[k]))
    return CheckResult(True)


def is_submodular(f: ValueOracle, tol: float = TOL) -> CheckResult:
    """Exhaustive check that every mixed second difference is <= tol."""
    check_enumerable(f.n, "submodularity check")
    t = f.table()
    tops = _pair_maxima(t, f.n)
    bad = np.flatnonzero(tops > tol)
    if bad.size:
        i, j = _pair(f.n, int(bad[0]))
        dd = _mixed_difference_row(t, i, j)
        k = int(np.argmax(dd))
        return CheckResult(False, (i, j, int(_with_zero_bits(k, i, j))), float(dd[k]))
    # builtin max skips the NaN maxima
    return CheckResult(True, None, max([-math.inf, *tops.tolist()]))


def is_monotone(f: ValueOracle, tol: float = TOL) -> CheckResult:
    """Exhaustive check that all discrete derivatives are >= -tol."""
    check_enumerable(f.n, "monotonicity check")
    return _first_failure(f.table(), f.n, lambda d: d < -tol, np.argmin)


def is_alpha_monotone_decreasing(f: ValueOracle, alpha: float, tol: float = TOL) -> CheckResult:
    """Exhaustive check that every discrete derivative is <= alpha + tol."""
    check_enumerable(f.n, "alpha-monotone check")
    bound = alpha + tol
    return _first_failure(f.table(), f.n, lambda d: d > bound, np.argmax)


def lipschitz_constant(f: ValueOracle) -> float:
    """max over i, x of |derivative along i at x| (exhaustive): the stack of
    one of `stacked_lipschitz`."""
    check_enumerable(f.n, "Lipschitz constant")
    return float(stacked_lipschitz(f.table(), f.n)[0])


def stacked_lipschitz(t: np.ndarray, n: int) -> np.ndarray:
    """Per table of a stack of 2^n-point tables (`stacked_table`), the
    largest |derivative along i at x| over every i and x (exhaustive).

    Each coordinate's maximum is folded in when it is larger, so a table
    holding NaN, whose every coordinate's maximum is NaN, gets 0.0.
    """
    worst = np.zeros(t.size >> n)
    for _, d in _derivative_rows(t, n):
        top = np.abs(d).reshape(len(worst), -1).max(axis=1)
        worst = np.where(top > worst, top, worst)
    return worst


def stacked_pair_maxima(t: np.ndarray, n: int) -> np.ndarray:
    """Per table of a stack of 2^n-point tables, the largest mixed difference
    of each pair i < j, as `is_submodular` reads them: one row per table."""
    return _pair_maxima(t, n).reshape(t.size >> n, -1)


def leaf_violations(
    t: np.ndarray, n: int, alpha: float, known_submodular: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per table of a stack of 2^n-point tables, such as the leaf tables of
    decompositions (`dtree.leaf_blocks`), whether it fails the
    alpha-monotone, alpha-Lipschitz and submodular checks:
    `is_alpha_monotone_decreasing`, `lipschitz_constant` <= alpha + TOL and
    `is_submodular`, as three bool arrays.  A NaN difference fails none of
    them; a table fails the submodular check when some mixed difference is
    above TOL, even in a row that holds a NaN.

    ``known_submodular`` says that no mixed difference of tables of which
    these are restrictions exceeds TOL, so no table can fail, and the pair
    pass is skipped.
    """
    rows = t.size >> n
    mono, lip, sub = np.zeros((3, rows), dtype=bool)
    bound = alpha + TOL
    for _, d in _derivative_rows(t, n):
        # |d| > bound, without a float temporary the size of d
        d = d.reshape(rows, -1)
        up = d > bound
        hits = up | (d < -bound)
        if hits.any():  # none at all when alpha >= 1 on [0, 1]-valued input
            lip |= hits.any(axis=1)
            mono |= up.any(axis=1)
        del d, up, hits  # freed before the next row is taken, not after
    if known_submodular or n < 2:
        return mono, lip, sub
    tops = stacked_pair_maxima(t, n)
    sub = (tops > TOL).any(axis=1)
    # rare on submodular input: a NaN maximum may hide differences above
    # TOL, so that table's row is read again until one row fails it
    for r, p in zip(*np.nonzero(np.isnan(tops) & ~sub[:, None])):
        if not sub[r]:
            table = t.reshape(rows, -1)[r]
            sub[r] = (_mixed_difference_row(table, *_pair(n, int(p))) > TOL).any()
    return mono, lip, sub


# --- families ---------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one normalized submodular-family instance.

    ``params`` uses the JSON field names documented in the README:
      coverage:               universe_size, sets (1-based element lists)
      cut:                    edges (1-based vertex pairs)
      budget_additive:        weights, budget
      matroid_rank_partition: blocks (1-based coordinate lists), caps
      concave_profile:        profile (n+1 values)
      truth_table:            values (2^n, little-endian point order)
    """

    family: str
    n: int
    params: dict

    @staticmethod
    def from_json(text: str) -> "FamilySpec":
        obj = json.loads(text)
        if not isinstance(obj, dict) or not {"family", "n"} <= obj.keys():
            raise InvalidFamilySpec('a family spec is a JSON object with fields "family" and "n"')
        family = obj.pop("family")
        n = obj.pop("n")
        return FamilySpec(family, n, obj)


def _validate_profile(profile: Sequence[float], n: int) -> None:
    if len(profile) != n + 1:
        raise InvalidFamilySpec(f"profile needs {n + 1} values, got {len(profile)}")
    for v in profile:
        if not -TOL <= v <= 1 + TOL:
            raise InvalidFamilySpec(f"profile value {v} outside [0, 1]")
    for i in range(n - 1):
        if profile[i + 1] - profile[i] < profile[i + 2] - profile[i + 1] - TOL:
            raise InvalidFamilySpec(
                f"profile increments not nonincreasing at position {i}"
            )


def _integer(what: str, v) -> int:
    """A Python or numpy integer as an int; a bool, float or string is rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise InvalidFamilySpec(f"{what} must be an integer, got {v!r}")
    return int(v)


def _require_finite(what: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise InvalidFamilySpec(f"{what} must be finite")


def instantiate(spec: FamilySpec) -> ValueOracle:
    """Build the normalized value oracle of a family instance (range [0,1]).

    A missing field or a field of the wrong type raises InvalidFamilySpec,
    as do a NaN or infinite value, a number too large for a float or an
    int64, and n outside 1..62 (the int64 point packing).
    """
    try:
        return _instantiate(spec)
    except InvalidFamilySpec:
        raise
    except KeyError as e:
        raise InvalidFamilySpec(f"{spec.family} spec is missing field {e}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidFamilySpec(f"malformed {spec.family} spec: {e}") from None


_INT64_MAX = (1 << 63) - 1


def _int64(what: str, v) -> int:
    """`_integer`, also rejecting a value that int64 arithmetic cannot hold."""
    v = _integer(what, v)
    if not -_INT64_MAX - 1 <= v <= _INT64_MAX:
        raise InvalidFamilySpec(f"{what} {v} does not fit int64")
    return v


# Every family evaluator works on chunks of this many points, so its
# temporaries stay in cache and none has 2^n entries.
_POINT_CHUNK = 1 << 14
_COVER_WIDTH = 12  # coordinates per lookup table of the coverage evaluator
_PREFIX_WIDTH = 16  # low coordinates in the budget-additive prefix table


def _by_chunks(per_chunk: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator that answers each chunk of _POINT_CHUNK points with
    ``per_chunk``."""

    def fn(xs: np.ndarray) -> np.ndarray:
        out = np.empty(xs.shape)
        for lo in range(0, xs.size, _POINT_CHUNK):
            out[lo : lo + _POINT_CHUNK] = per_chunk(xs[lo : lo + _POINT_CHUNK])
        return out

    return fn


def _cube_values(fn: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """fn at every point of {0,1}^n, in little-endian point order.  Above
    one chunk the values are written into one preallocated table,
    _POINT_CHUNK points at a time, each chunk's points made from a range:
    no array of the 2^n points is made."""
    if (1 << n) <= _POINT_CHUNK:
        return fn(np.arange(1 << n, dtype=np.int64))
    out = np.empty(1 << n)
    for lo in range(0, 1 << n, _POINT_CHUNK):
        out[lo : lo + _POINT_CHUNK] = fn(np.arange(lo, lo + _POINT_CHUNK, dtype=np.int64))
    return out


def _doubling_table(rows: np.ndarray, op) -> np.ndarray:
    """T over the 2^k subsets x of k coordinates, T[0] = 0 and
    T[x | 2^i] = op(T[x], rows[i]) for x < 2^i: the rows of x's coordinates
    combined in ascending order, one doubling step per coordinate."""
    table = np.zeros((1 << len(rows), *rows.shape[1:]), dtype=rows.dtype)
    for i in range(len(rows)):
        op(table[: 1 << i], rows[i], out=table[1 << i : 2 << i])
    return table


def _instantiate(spec: FamilySpec) -> ValueOracle:
    family, p = spec.family, spec.params
    if family not in FAMILIES:  # before any message names the family
        raise InvalidFamilySpec(f"unknown family {family!r}")
    n = _integer("dimension", spec.n)
    check_packable(n, "family instance")

    if family == "coverage":
        u = _int64("coverage universe_size", p["universe_size"])
        sets = p["sets"]
        if u < 1:
            raise InvalidFamilySpec("coverage universe is empty")
        if len(sets) != n:
            raise InvalidFamilySpec(f"coverage needs {n} sets, got {len(sets)}")
        number: dict[int, int] = {}  # owned element -> its number 0..E-1
        masks = []  # per set, the mask of its elements' numbers
        for s in sets:
            m = 0
            for e in s:
                e = _integer("coverage element", e)
                if not 1 <= e <= u:
                    raise InvalidFamilySpec(f"element {e} outside universe 1..{u}")
                m |= 1 << number.setdefault(e, len(number))
            masks.append(m)
        words = max(1, -(-len(number) // 64))
        rows = np.frombuffer(b"".join(m.to_bytes(8 * words, "little") for m in masks), dtype="<u8")
        rows = rows.reshape(n, words).T
        # per chunk of coordinates and per word, that word of the union of
        # the sets of each of the chunk's subsets: one 1-D table each
        (_, first), *rest = [
            (lo, [_doubling_table(word[lo : lo + _COVER_WIDTH], np.bitwise_or) for word in rows])
            for lo in range(0, n, _COVER_WIDTH)
        ]

        def cov(xs: np.ndarray) -> np.ndarray:
            covered = [t[xs & (len(t) - 1)] for t in first]
            for lo, tables in rest:
                key = (xs >> lo) & (len(tables[0]) - 1)
                for c, t in zip(covered, tables):
                    c |= t[key]
            count = np.zeros(xs.shape, dtype=np.int64)
            for c in covered:
                count += np.bitwise_count(c)
            return count / u

        return ValueOracle(n, _by_chunks(cov))

    if family == "cut":
        edges = [(_integer("cut vertex", a), _integer("cut vertex", b)) for a, b in p["edges"]]
        if not edges:
            raise InvalidFamilySpec("cut needs at least one edge")
        for a, b in edges:
            if a == b or not (1 <= a <= n and 1 <= b <= n):
                raise InvalidFamilySpec(f"bad edge ({a},{b}) for n={n}")
        m = len(edges)
        # (v, mask of v's neighbours above v), one layer of masks at a time:
        # an edge already in a layer, in either order, goes to the next one,
        # so a repeated or reversed edge counts once per occurrence
        layers: list[tuple[int, int]] = []
        rest = edges
        while rest:
            masks, again = [0] * n, []
            for a, b in rest:
                lo, hi = (a - 1, b - 1) if a < b else (b - 1, a - 1)
                if masks[lo] >> hi & 1:
                    again.append((a, b))
                else:
                    masks[lo] |= 1 << hi
            layers += [(v, mask) for v, mask in enumerate(masks) if mask]
            rest = again

        def cut(xs: np.ndarray) -> np.ndarray:
            # the crossing edges at v: its neighbours whose bit differs from
            # v's, that is the mask's bits of x, or of ~x when v's bit is set
            crossing = np.zeros(xs.shape, dtype=np.int32)
            for v, mask in layers:
                crossing += popcount(mask & (xs ^ -((xs >> v) & 1)))
            return crossing / m

        return ValueOracle(n, _by_chunks(cut))

    if family == "budget_additive":
        w = [float(v) for v in p["weights"]]
        b = float(p["budget"])
        _require_finite("budget_additive weights and budget", [*w, b])
        if len(w) != n or any(v < 0 for v in w) or b <= 0:
            raise InvalidFamilySpec("budget_additive needs n nonnegative weights and budget > 0")

        # the running sum over the low coordinates; adding 0.0 for an absent
        # coordinate changes no sum, so this is the left-to-right order
        k = min(n, _PREFIX_WIDTH)
        prefix = _doubling_table(np.array(w[:k]), np.add)
        high = np.min_scalar_type((1 << (n - k)) - 1)  # holds the coordinates above k

        def badd(xs: np.ndarray) -> np.ndarray:
            total = prefix[xs & (len(prefix) - 1)]
            if n > k:
                top = (xs >> k).astype(high)
                for i, wi in enumerate(w[k:]):
                    total += ((top >> i) & 1) * wi
            return np.minimum(total, b) / b

        return ValueOracle(n, _by_chunks(badd))

    if family == "matroid_rank_partition":
        coords = [[_integer("matroid block coordinate", i) for i in blk] for blk in p["blocks"]]
        if any(not 1 <= i <= n for blk in coords for i in blk):
            raise InvalidFamilySpec(f"matroid block coordinates must be in 1..{n}")
        blocks = [cube.mask_of(i - 1 for i in blk) for blk in coords]
        caps = [_int64("matroid cap", c) for c in p["caps"]]
        if len(blocks) != len(caps) or not blocks:
            raise InvalidFamilySpec("blocks and caps must be nonempty, same length")
        union = 0
        for blk in blocks:
            if blk & union:
                raise InvalidFamilySpec("partition blocks overlap")
            union |= blk
        if union != (1 << n) - 1:
            raise InvalidFamilySpec("partition blocks must cover all coordinates")
        if any(c < 1 for c in caps):
            raise InvalidFamilySpec("caps must be >= 1")
        total = sum(caps)

        def rank(xs: np.ndarray) -> np.ndarray:
            r = np.zeros(xs.shape, dtype=np.int64)
            for blk, c in zip(blocks, caps):
                # a cap above the block's size caps nothing; the size fits
                # popcount's uint8, where a cap above 255 would not
                r += np.minimum(popcount(xs & blk), min(c, blk.bit_count()))
            return r / total

        return ValueOracle(n, _by_chunks(rank))

    if family == "concave_profile":
        profile = [float(v) for v in p["profile"]]
        _require_finite("concave_profile profile", profile)
        _validate_profile(profile, n)
        by_weight = np.array(profile)
        return ValueOracle(n, _by_chunks(lambda xs: by_weight.take(popcount(xs))))

    # truth_table
    values = np.asarray(p["values"], dtype=float)
    if values.size != (1 << n):
        raise InvalidFamilySpec(f"truth_table needs 2^{n} values, got {values.size}")
    _require_finite("truth_table values", values)
    if values.min() < -TOL or values.max() > 1 + TOL:
        raise InvalidFamilySpec("truth_table values outside [0, 1]")
    return ValueOracle.from_table(values)


def generate_random(family: str, n: int, seed: int) -> FamilySpec:
    """Deterministic random instance of a family; always passes is_submodular."""
    check_packable(n, "family instance")
    rng = np.random.default_rng((0x5EED, seed, n, FAMILIES.index(family)))

    if family == "coverage":
        u = int(rng.integers(max(2, n // 2), 2 * n + 2))
        sets = []
        for _ in range(n):
            size = int(rng.integers(1, u + 1))
            sets.append(sorted(int(e) + 1 for e in rng.choice(u, size=size, replace=False)))
        return FamilySpec(family, n, {"universe_size": u, "sets": sets})

    if family == "cut":
        pairs = [(a + 1, b + 1) for a in range(n) for b in range(a + 1, n)]
        m = int(rng.integers(1, len(pairs) + 1)) if pairs else 1
        chosen = rng.choice(len(pairs), size=m, replace=False) if pairs else []
        edges = [list(pairs[int(i)]) for i in sorted(int(c) for c in chosen)]
        if not edges:  # n == 1 has no pairs; fall back to a self-free dummy
            raise InvalidFamilySpec("cut family needs n >= 2")
        return FamilySpec(family, n, {"edges": edges})

    if family == "budget_additive":
        weights = [float(w) for w in rng.uniform(0.05, 1.0, size=n)]
        # a sequential sum: the built-in `sum` of floats is compensated from CPython 3.12
        budget = float(rng.uniform(max(weights), np.cumsum(weights)[-1]))
        return FamilySpec(family, n, {"weights": weights, "budget": budget})

    if family == "matroid_rank_partition":
        k = int(rng.integers(1, n + 1))
        owners = rng.integers(0, k, size=n)
        blocks = [[i + 1 for i in range(n) if owners[i] == j] for j in range(k)]
        blocks = [b for b in blocks if b]
        caps = [int(rng.integers(1, len(b) + 1)) for b in blocks]
        return FamilySpec(family, n, {"blocks": blocks, "caps": caps})

    if family == "concave_profile":
        # sorted nonincreasing increments give a concave weight profile;
        # negative tail increments allowed so some instances are non-monotone
        increments = np.sort(rng.uniform(-0.6, 1.0, size=n))[::-1]
        values = np.concatenate([[0.0], np.cumsum(increments)])
        lo, hi = float(values.min()), float(values.max())
        if hi - lo < 1e-12:
            profile = [0.5] * (n + 1)
        else:
            profile = [float((v - lo) / (hi - lo)) for v in values]
        return FamilySpec(family, n, {"profile": profile})

    raise InvalidFamilySpec(f"cannot generate family {family!r}")


GENERATED_FAMILIES = (
    "coverage",
    "cut",
    "budget_additive",
    "matroid_rank_partition",
    "concave_profile",
)


def iter_corpus(
    ns: Sequence[int] = tuple(range(4, 11)),
    seeds: Sequence[int] = tuple(range(20)),
) -> Iterator[tuple[str, ValueOracle]]:
    """The generated test corpus: (instance id, oracle) pairs, family by
    family of GENERATED_FAMILIES."""
    for family in GENERATED_FAMILIES:
        for n in ns:
            for seed in seeds:
                spec = generate_random(family, n, seed)
                oracle = instantiate(spec)
                yield f"{family}-n{n}-s{seed}", oracle


_KEPT: list = []  # the last corpus made, as [(ns, seeds, corpus)]


def corpus_tables(
    ns: tuple[int, ...], seeds: tuple[int, ...]
) -> tuple[tuple[int, tuple[str, ...], np.ndarray], ...]:
    """The truth tables of the corpus `iter_corpus` generates: per distinct
    n, in the order of ``ns``, (n, instance ids, stack).  Row k of the
    read-only float64 stack is the table of instance k, family by family and
    seed by seed within a family, as `iter_corpus` yields them.

    The last corpus made is kept until one it does not hold is asked for.  A
    corpus whose ns and seeds are all among the kept one's is read from the
    kept rows, so no instance is generated twice.  Only arrays and strings
    are kept, no oracle: 8 * 2^n bytes per instance.
    """
    for kept_ns, kept_seeds, kept in _KEPT:
        if (ns, seeds) == (kept_ns, kept_seeds):
            return kept
        if set(ns) <= set(kept_ns) and set(seeds) <= set(kept_seeds):
            return _sub_corpus(kept, kept_seeds, ns, seeds)
    corpus = []
    for n in dict.fromkeys(ns):
        names = []
        stack = np.empty((len(GENERATED_FAMILIES) * len(seeds), 1 << n))
        for row, (inst, f) in zip(stack, iter_corpus(ns=(n,), seeds=seeds)):
            names.append(inst)
            row[:] = f.table()
        stack.flags.writeable = False
        corpus.append((n, tuple(names), stack))
    _KEPT[:] = [(ns, seeds, tuple(corpus))]
    return _KEPT[0][2]


def _sub_corpus(kept, kept_seeds, ns, seeds):
    """The corpus of ``ns`` and ``seeds`` as copies of rows of ``kept``, the
    corpus of ``kept_seeds``."""
    by_n = {n: (ids, stack) for n, ids, stack in kept}
    at = [kept_seeds.index(s) for s in seeds]
    corpus = []
    for n in dict.fromkeys(ns):
        ids, stack = by_n[n]
        rows = [k * len(kept_seeds) + j for k in range(len(GENERATED_FAMILIES)) for j in at]
        sub = stack[rows]
        sub.flags.writeable = False
        corpus.append((n, tuple(ids[r] for r in rows), sub))
    return tuple(corpus)


def describe_witness(witness: tuple, n: int) -> str:
    """1-based rendering of a checker witness for messages and reports."""
    if witness is None:
        return ""
    *coords, x = witness
    pretty = ",".join(str(c + 1) for c in coords)
    return f"(i={pretty}, x={format_point(x, n)})"
