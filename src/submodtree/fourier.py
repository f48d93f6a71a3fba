"""Fourier analysis on {0,1}^n under the uniform distribution.

Conventions: the character of a subset mask S is chi_S(x) = (-1)^{|x & S|};
analysis is expectation-normalized, coeff(S) = E[f * chi_S], and synthesis is
the plain sum f(x) = sum_S coeff(S) * chi_S(x).  Masks are little-endian
coordinate sets, matching the point packing in `cube`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import funcs
from .cube import check_enumerable, enum_cap, popcount, subset_members
from .funcs import ValueOracle

SPARSE_EPS = 1e-12


class BudgetExceeded(ValueError):
    """Raised when a candidate-coefficient sweep would exceed its budget."""


def parity_eval(subset: int, x: int) -> int:
    """chi_S(x) in {-1, +1}."""
    return -1 if (subset & x).bit_count() & 1 else 1


def parity_signs(subset: int, xs: np.ndarray) -> np.ndarray:
    """chi_S over an array of packed points."""
    return 1.0 - 2.0 * (popcount(np.asarray(xs, dtype=np.int64) & subset) & 1)


def fwht(values: np.ndarray) -> np.ndarray:
    """In-place-style Walsh-Hadamard butterfly; output[S] = sum_x chi_S(x) v[x].

    The transform matrix is its own inverse up to the factor 2^n.
    """
    a = np.asarray(values, dtype=float).copy()
    m = a.size
    if m & (m - 1):
        raise ValueError(f"length {m} is not a power of two")
    h = 1
    while h < m:
        v = a.reshape(-1, 2 * h)
        lo = v[:, :h].copy()
        v[:, :h] += v[:, h:]
        np.subtract(lo, v[:, h:], out=v[:, h:])
        h *= 2
    return a


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

    def evaluate(self, x: int) -> float:
        return float(self.evaluate_many(np.array([x]))[0])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Sum of coeff(S) * chi_S(x), added left to right in ascending mask order."""
        xs = np.asarray(xs, dtype=np.int64)
        out = np.zeros(xs.shape, dtype=float)
        for s, c in zip(self.masks.tolist(), self.coeffs.tolist()):
            out += c * parity_signs(s, xs)
        return out

    def table(self) -> np.ndarray:
        """Truth table of the represented function (synthesis transform)."""
        return fwht(self.dense())

    def to_oracle(self, label: str = "") -> ValueOracle:
        return ValueOracle.from_table(self.table(), label=label)

    def to_csv(self) -> str:
        rows = map("{},{:.17g}\n".format, self.masks.tolist(), self.coeffs.tolist())
        return "mask,coefficient\n" + "".join(rows)

    @staticmethod
    def from_csv(text: str, n: int) -> "Spectrum":
        rows = [r.split(",") for r in text.strip().splitlines()[1:] if r]
        return Spectrum(n, [int(m) for m, _ in rows], [float(c) for _, c in rows])


def coefficients(f: ValueOracle) -> np.ndarray:
    """Every exact coefficient of an oracle by ascending mask, via the fast
    butterfly, O(n 2^n).

    A coefficient with |c| <= SPARSE_EPS is set to exactly 0.0; NaN is not,
    so a table holding NaN gives NaN coefficients.
    """
    t = f.table()
    c = fwht(t) / t.size
    c[(c >= -SPARSE_EPS) & (c <= SPARSE_EPS)] = 0.0  # |c| <= eps, with no float temporary
    return c


def transform(f: ValueOracle) -> Spectrum:
    """Full exact spectrum of an oracle: its nonzero coefficients."""
    return Spectrum.from_dense(coefficients(f), f.n)


def spectral_l1(sp: Spectrum) -> float:
    """Sum of absolute coefficients, added left to right in ascending mask order."""
    return float(np.cumsum(np.abs(np.append(0.0, sp.coeffs)))[-1])


def pairwise_weights(f: ValueOracle) -> tuple[np.ndarray, np.ndarray]:
    """|coeff({i,j})| and the sum of coeff(S)^2 over S containing i and j, for
    every pair i < j in lexicographic order.

    Both come from `coefficients`.  Each sum is a sequential cumulative sum
    in ascending mask order, so it equals the left-to-right sum over the
    sparse spectrum bit for bit.
    """
    c = coefficients(f)
    i, j = np.triu_indices(f.n, 1)
    # the masks containing both coordinates of a pair are its (1, 1) corner
    totals = [
        np.cumsum(sq.reshape(len(coords), -1), axis=1)[:, -1]
        for coords, (sq,), _ in funcs._row_blocks(c * c, f.n, 2, slice(3, None))
    ]
    # no blocks, and no pairs, when n < 2
    return np.abs(c[(1 << i) | (1 << j)]), np.concatenate([np.zeros(0), *totals])


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
    blocks = funcs._mixed_difference_blocks(f.table(), n)
    dd = next(itertools.islice(itertools.chain.from_iterable(b[1] for b in blocks), rank, None))
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
    if n <= min(20, enum_cap()):
        sums = np.bincount(np.asarray(xs, dtype=np.int64), weights=ys, minlength=1 << n)
        return fwht(sums)[masks] / len(xs)
    return np.array([np.mean(ys * parity_signs(s, xs)) for s in masks.tolist()], dtype=float)


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
    subsets of ``variables`` with at most ``degree`` members."""
    n = dimension(data)
    k = variables.bit_count()
    count = sum(math.comb(k, i) for i in range(min(degree, k) + 1))
    if count > budget:
        raise BudgetExceeded(f"{count} candidate coefficients exceed budget {budget}")
    masks = candidate_masks(variables, degree)
    est = coefficients_at(data, masks)
    keep = est != 0.0
    return Spectrum(n, masks[keep], est[keep])
