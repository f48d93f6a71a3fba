"""Points, subsets, and product distributions on the Boolean hypercube.

Points of {0,1}^n are packed into Python ints little-endian: bit ``i`` of the
int is coordinate ``i`` (0-based internally; all text I/O is 1-based).  A
subset S of coordinates is packed the same way.  The textual form of a point
writes coordinate 1 first, so ``"0110"`` is the point with x_2 = x_3 = 1,
i.e. the integer 0b0110 = 6.

Fixed-weight ranking (`fw_rank` / `fw_unrank`) uses lexicographic order on
the coordinate tuple (x_1, ..., x_n) with 0 < 1, which makes the pair a
combinadic bijection between weight-w strings and {0, ..., C(n,w)-1}.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_ENUM_CAP = 24
_ENUM_CAP_ENV = "SUBMODTREE_ENUM_CAP"
MAX_PACKED_N = 62  # n-bit points and 2^n sampling bounds fit in int64


class DimensionTooLarge(ValueError):
    """Raised when an operation would enumerate more than 2^cap points, or
    when n does not fit the int64 point packing."""


def enum_cap() -> int:
    """Current exhaustive-enumeration cap (env override SUBMODTREE_ENUM_CAP)."""
    raw = os.environ.get(_ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: rejected below with the value as given
    if cap < 1:
        raise ValueError(f"{_ENUM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def check_enumerable(n: int, what: str = "operation") -> None:
    cap = enum_cap()
    if n > cap:
        raise DimensionTooLarge(
            f"{what} requires enumerating 2^{n} points; cap is n <= {cap} "
            f"(override via {_ENUM_CAP_ENV})"
        )


def popcount(values: np.ndarray | int) -> np.ndarray | int:
    """Number of set bits, elementwise."""
    if isinstance(values, (int, np.integer)):
        return int(values).bit_count()
    return np.bitwise_count(np.asarray(values, dtype=np.int64))


# C(a, b) for 0 <= a, b <= 63 (zero when b > a); every entry fits int64
_BINOMIAL = np.array([[math.comb(a, b) for b in range(64)] for a in range(64)], dtype=np.int64)


def check_packable(n: int, what: str = "operation", least: int = 1) -> None:
    """Points of n coordinates must fit the int64 packing used by arrays."""
    if not least <= n <= MAX_PACKED_N:
        raise DimensionTooLarge(
            f"{what} needs {least} <= n <= {MAX_PACKED_N} (int64 point packing), got n={n}"
        )


def fw_rank(x, n: int):
    """Position of ``x`` among all n-bit strings of its weight, in lex order.

    Lexicographic order compares coordinate tuples (x_1, ..., x_n) with
    0 < 1, so e.g. for n=4, weight 2: 0011 < 0101 < 0110 < 1001 < 1010 < 1100.
    ``x`` is a point or an int64 array of points (elementwise); n <= 62.
    """
    check_packable(n, "fixed-weight ranking")
    w = popcount(x & ((1 << n) - 1))
    rank = 0
    for pos in range(n):
        bit = (x >> pos) & 1
        # strings with a 0 here and the remaining w ones placed later
        rank = rank + bit * _BINOMIAL[n - 1 - pos, w]
        w = w - bit
    return rank if isinstance(rank, np.ndarray) else int(rank)


def fw_unrank(n: int, w: int, r):
    """Inverse of `fw_rank`: the rank-``r`` string of weight ``w``.

    ``r`` is a rank or an int64 array of ranks (elementwise); n <= 62.
    Runs in O(n) arithmetic operations.  Raises ValueError when a rank is
    outside {0, ..., C(n,w)-1}.
    """
    check_packable(n, "fixed-weight unranking")
    total = math.comb(n, w)
    if np.any((r < 0) | (r >= total)):
        raise ValueError(f"rank {r} out of range for C({n},{w}) = {total}")
    x = 0
    for pos in range(n):
        c = _BINOMIAL[n - 1 - pos, w]
        take = r >= c
        x = x | (take << pos)
        r = r - take * c
        w = w - take
    return x if isinstance(x, np.ndarray) else int(x)


@dataclass(frozen=True)
class ProductDistribution:
    """Product distribution on {0,1}^n with Pr[x_i = 1] = mu[i]."""

    mu: tuple[float, ...]

    def __post_init__(self) -> None:
        for p in self.mu:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"bias {p} outside [0, 1]")

    @property
    def n(self) -> int:
        return len(self.mu)

    @staticmethod
    def uniform(n: int) -> "ProductDistribution":
        return ProductDistribution((0.5,) * n)

    def boundedness(self) -> float:
        """Largest alpha with mu in [alpha, 1-alpha]^n (0 if degenerate)."""
        return min(min(p, 1.0 - p) for p in self.mu)

    def require_bounded(self, alpha: float) -> None:
        if self.boundedness() < alpha:
            raise ValueError(
                f"distribution is not {alpha}-bounded (boundedness "
                f"{self.boundedness()})"
            )

    def probability_vector(self) -> np.ndarray:
        """Probabilities of all 2^n points, indexed little-endian."""
        check_enumerable(self.n, "probability vector")
        p = np.ones(1)
        for mu_i in self.mu:
            p = np.concatenate([p * (1.0 - mu_i), p * mu_i])
        return p


# --- textual forms (1-based, coordinate 1 first) ---

def format_point(x: int, n: int) -> str:
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


def format_subset(subset: int) -> str:
    """Subset mask as a sorted 1-based index list, e.g. ``{2,3}``."""
    members = [str(i + 1) for i in range(subset.bit_length()) if (subset >> i) & 1]
    return "{" + ",".join(members) + "}"


def subset_members(subset: int) -> tuple[int, ...]:
    """0-based coordinates in the mask, ascending."""
    return tuple(i for i in range(subset.bit_length()) if (subset >> i) & 1)


def mask_of(coords) -> int:
    """Mask from an iterable of 0-based coordinates."""
    m = 0
    for i in coords:
        m |= 1 << i
    return m
