"""Fourier analysis on {0,1}^n under the uniform distribution.

Conventions: the character of a subset mask S is chi_S(x) = (-1)^{|x & S|};
analysis is expectation-normalized, coeff(S) = E[f * chi_S], and synthesis is
the plain sum f(x) = sum_S coeff(S) * chi_S(x).  Masks are little-endian
coordinate sets, matching the point packing in `cube`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import funcs
from .cube import check_enumerable, popcount
from .funcs import ValueOracle

SPARSE_EPS = 1e-12


class BudgetExceeded(RuntimeError):
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
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        h *= 2
    return a.reshape(-1)


@dataclass
class Spectrum:
    """Sparse Fourier coefficients: mask -> coeff(S), over dimension n."""

    n: int
    coeffs: dict[int, float] = field(default_factory=dict)

    @staticmethod
    def from_dense(values: np.ndarray, n: int) -> "Spectrum":
        """The nonzero entries of a dense coefficient array, by ascending mask."""
        return Spectrum(n, {int(s): float(c) for s, c in enumerate(values) if c != 0.0})

    def dense(self) -> np.ndarray:
        check_enumerable(self.n, "dense spectrum")
        out = np.zeros(1 << self.n)
        for s, c in self.coeffs.items():
            out[s] = c
        return out

    def degree(self) -> int:
        return max((s.bit_count() for s in self.coeffs), default=0)

    def support_union(self) -> int:
        mask = 0
        for s in self.coeffs:
            mask |= s
        return mask

    def evaluate(self, x: int) -> float:
        return float(self.evaluate_many(np.array([x]))[0])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        """Sum of coeff(S) * chi_S(x), added left to right in dict order."""
        xs = np.asarray(xs, dtype=np.int64)
        out = np.zeros(xs.shape, dtype=float)
        for s, c in self.coeffs.items():
            out += c * parity_signs(s, xs)
        return out

    def table(self) -> np.ndarray:
        """Truth table of the represented function (synthesis transform)."""
        return fwht(self.dense())

    def to_oracle(self, label: str = "") -> ValueOracle:
        return ValueOracle.from_table(self.table(), label=label)

    def to_csv(self) -> str:
        lines = ["mask,coefficient"]
        for s in sorted(self.coeffs):
            lines.append(f"{s},{self.coeffs[s]:.17g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str, n: int) -> "Spectrum":
        coeffs = {}
        rows = [r for r in text.strip().splitlines() if r]
        for row in rows[1:]:
            mask, coeff = row.split(",")
            coeffs[int(mask)] = float(coeff)
        return Spectrum(n, coeffs)


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
    """Sum of absolute coefficients, added left to right in dict order."""
    return float(np.cumsum(np.abs([0.0, *sp.coeffs.values()]))[-1])


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


def candidate_masks(variables: int, degree: int) -> list[int]:
    """All subsets of the variable mask with at most ``degree`` members."""
    members = [i for i in range(variables.bit_length()) if (variables >> i) & 1]
    masks = []
    for k in range(min(degree, len(members)) + 1):
        for combo in itertools.combinations(members, k):
            m = 0
            for c in combo:
                m |= 1 << c
            masks.append(m)
    return masks


def empirical_coefficients(xs: np.ndarray, ys: np.ndarray, n: int, masks) -> dict[int, float]:
    """Shared-sample estimates mean(y * chi_S(x)) for every mask at once.

    When n is within the enumeration cap the estimates are computed for all
    masks in one butterfly over per-point label sums, which is numerically
    the same estimator as the direct mean.
    """
    from .cube import enum_cap

    m = len(xs)
    masks = list(masks)
    if n <= min(20, enum_cap()):
        sums = np.bincount(np.asarray(xs, dtype=np.int64), weights=ys, minlength=1 << n)
        all_coeffs = fwht(sums) / m
        return {int(s): float(all_coeffs[s]) for s in masks}
    out = {}
    for s in masks:
        out[int(s)] = float(np.mean(ys * parity_signs(s, xs)))
    return out


def low_degree_estimate(
    data,
    variables: int,
    degree: int,
    m: int = 0,
    seed=0,
    *,
    n: int | None = None,
    exact: bool = False,
    budget: int = 1 << 20,
) -> Spectrum:
    """Spectrum supported on subsets of ``variables`` of size <= degree.

    ``data`` is a ValueOracle (exact mode or self-sampled) or an (xs, ys)
    pair of arrays (then ``n`` is required).  All sampled coefficients come
    from the same sample.
    """
    masks = candidate_masks(variables, degree)
    if len(masks) > budget:
        raise BudgetExceeded(
            f"{len(masks)} candidate coefficients exceed budget {budget}"
        )
    if exact:
        if not isinstance(data, ValueOracle):
            raise ValueError("exact mode needs a ValueOracle")
        c = coefficients(data)
        n, est = data.n, {s: float(c[s]) for s in masks}
    else:
        if isinstance(data, ValueOracle):
            if m < 1:
                raise ValueError("sampled mode needs m >= 1")
            xs = sample_points(data.n, m, seed)
            ys = data.eval_many(xs)
            n = data.n
        else:
            xs, ys = data
            if n is None:
                raise ValueError("pass n explicitly with a raw (xs, ys) sample")
        est = empirical_coefficients(np.asarray(xs), np.asarray(ys, dtype=float), n, masks)
    return Spectrum(n, {s: c for s, c in est.items() if c != 0.0})
