"""Lower-bound constructions: correlated gadgets, embeddings, noisy parities.

The plateau gadget R_S and its monotonization H_S are symmetric functions of
the weight inside S whose correlation with the parity chi_S has an exact
closed form, decaying like s^(-3/2).  Combined with the generic reduction in
`lpn_reduce`, an agnostic learner for these gadgets recovers sparse parities
from noisy examples.

`embed_build` plants an arbitrary Boolean function of k variables into the
middle layer of {0,1}^(2t) (t minimal with C(2t,t) >= 2^k), producing a
monotone submodular function whose queries cost one query to the source;
`embed_decode` reads the function back off any sufficiently accurate
approximation, transferring learning error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube import MAX_PACKED_N, check_enumerable, check_packable, fw_rank, fw_unrank, popcount
from .fourier import LabeledSample, low_degree_estimate, parity_signs
from .funcs import ValueOracle
from .learn import Hypothesis


class NoCandidateFound(RuntimeError):
    """The learner produced no spectrum entry above the candidate cutoff."""


# --- symmetric gadgets --------------------------------------------------------


@dataclass(frozen=True)
class GadgetSpec:
    """Symmetric gadget on the coordinates of ``subset``.

    ``plateau`` is the tent profile R (rises to 1 at half weight, then falls);
    ``monotone`` is its monotonization H (rises, then stays at 1).
    """

    subset: int
    kind: str = "monotone"

    def __post_init__(self) -> None:
        if self.kind not in ("plateau", "monotone"):
            raise ValueError(f"unknown gadget kind {self.kind!r}")
        if self.s < 2:
            raise ValueError("gadget needs at least 2 coordinates")

    @property
    def s(self) -> int:
        return self.subset.bit_count()

    @property
    def k(self) -> int:
        return (self.s + 1) // 2


def gadget_profile(s: int, kind: str) -> list[Fraction]:
    """Exact by-weight values of the gadget, indices 0..s.

    For odd s the plateau profile's top value is negative (-1/(k-1)); the
    monotone profile always stays in [0,1].
    """
    if s < 2:
        raise ValueError("gadget needs s >= 2")
    k = (s + 1) // 2
    denom = k if s % 2 == 0 else k - 1
    if denom == 0:
        raise ValueError("odd gadget needs s >= 3")
    profile = []
    for w in range(s + 1):
        if w <= denom:
            profile.append(Fraction(w, denom))
        elif kind == "plateau":
            profile.append(1 - Fraction(w - denom, denom))
        else:
            profile.append(Fraction(1))
    return profile


def make_gadget(spec: GadgetSpec, n: int) -> ValueOracle:
    """Gadget as an oracle on n coordinates (constant outside the subset)."""
    if spec.subset >> n:
        raise ValueError(f"subset {spec.subset:b} reaches beyond n={n}")
    profile = np.array([float(v) for v in gadget_profile(spec.s, spec.kind)])
    subset = spec.subset
    return ValueOracle(n, lambda xs: profile[popcount(xs & subset)])


def correlation_brute_force(s: int, kind: str = "plateau") -> Fraction:
    """Exact inner product of the gadget with chi_S by weight-class summation."""
    profile = gadget_profile(s, kind)
    total = Fraction(0)
    for w in range(s + 1):
        total += Fraction((-1) ** w * math.comb(s, w)) * profile[w]
    return total / (1 << s)


def correlation_closed_form(s: int) -> Fraction:
    """Closed form of <plateau gadget, chi_S>.

    Even s = 2k:   (-1)^k * 2 / 2^(2k) * C(2k-1, k) / (2k-1)
    Odd  s = 2k-1: (-1)^(k+1) / 2^(2k-1) * C(2k-2, k-1) / (k-1), needs k >= 2.
    """
    if s < 2:
        raise ValueError("closed form needs s >= 2")
    if s % 2 == 0:
        k = s // 2
        return Fraction((-1) ** k * 2 * math.comb(2 * k - 1, k), (1 << (2 * k)) * (2 * k - 1))
    k = (s + 1) // 2
    if k < 2:
        raise ValueError("odd closed form needs s >= 3")
    return Fraction((-1) ** (k + 1) * math.comb(2 * k - 2, k - 1), (1 << (2 * k - 1)) * (k - 1))


def alternating_partial_sum(n: int, r: int) -> int:
    """Direct value of sum_{j=0}^{r} (-1)^j C(n, j).

    Closed form for comparison: (-1)^r C(n-1, r).
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    return sum((-1) ** j * math.comb(n, j) for j in range(r + 1))


def alternating_partial_sum_closed(n: int, r: int) -> int:
    return (-1) ** r * math.comb(n - 1, r)


# --- middle-layer embedding ---------------------------------------------------


@dataclass(frozen=True)
class EmbeddingSpec:
    """Parameters of the middle-layer embedding of {0,1}^k into {0,1}^(2t)."""

    k: int
    t: int

    def __post_init__(self) -> None:
        if math.comb(2 * self.t, self.t) < (1 << self.k):
            raise ValueError("middle layer too small for 2^k points")
        if self.t > 1 and math.comb(2 * self.t - 2, self.t - 1) >= (1 << self.k):
            raise ValueError("t is not minimal")

    @property
    def n(self) -> int:
        return 2 * self.t

    @property
    def alpha_emb(self) -> float:
        return (1 << self.k) * math.sqrt(self.t) / float(1 << (2 * self.t))

    def transfer_budget(self, epsilon: float) -> float:
        """l1 perturbation of h below which decoding stays epsilon-accurate."""
        return self.alpha_emb * epsilon / (8.0 * self.t**1.5)


def embedding_spec_for(k: int) -> EmbeddingSpec:
    if not 1 <= k <= MAX_PACKED_N:  # 2^k must stay a small int
        raise ValueError(f"k must be in 1..{MAX_PACKED_N}, got {k}")
    t = 1
    while math.comb(2 * t, t) < (1 << k):
        t += 1
    return EmbeddingSpec(k, t)


def _reverse_bits(v, k: int):
    """The k low bits of v in reverse order (a point or an int64 array).

    Maps a k-bit point to its position in lexicographic order of coordinate
    tuples, and back.
    """
    out = 0 * v
    for i in range(k):
        out |= ((v >> i) & 1) << (k - 1 - i)
    return out


def beta(spec: EmbeddingSpec, y):
    """Lex-order-preserving injection of {0,1}^k into the weight-t layer."""
    return fw_unrank(spec.n, spec.t, _reverse_bits(y, spec.k))


def embed_build(f: ValueOracle) -> tuple[ValueOracle, EmbeddingSpec]:
    """Monotone submodular carrier of a Boolean f on k variables.

    Below the middle layer the value is weight/t; above it 1; on the middle
    layer it dips to 1 - 1/(2t) exactly at embedded points where f = 0.
    Each query costs at most one query to f.
    """
    spec = embedding_spec_for(f.n)
    t, n = spec.t, spec.n
    dip = 1.0 - 1.0 / (2 * t)

    def h(xs: np.ndarray) -> np.ndarray:
        w = popcount(xs)
        out = np.where(w < t, w / t, 1.0)
        middle = np.flatnonzero(w == t)
        r = fw_rank(xs[middle], n)
        inside = r < (1 << spec.k)
        fy = f.eval_many(_reverse_bits(r[inside], spec.k))
        bad = (fy != 0.0) & (fy != 1.0)
        if np.any(bad):
            raise ValueError(f"embedded function must be Boolean, got {fy[bad][0]}")
        out[middle[inside][fy == 0.0]] = dip
        return out

    return ValueOracle(n, h), spec


def embed_decode(g: ValueOracle, spec: EmbeddingSpec) -> ValueOracle:
    """Boolean read-back: 1 where g on the embedded point clears 1 - 1/(4t).

    If g is within l1 distance ``spec.transfer_budget(eps)`` of the carrier
    of f, the decoded function is within l1 distance eps of f.
    """
    cut = 1.0 - 1.0 / (4 * spec.t)

    def f_tilde(ys: np.ndarray) -> np.ndarray:
        return (g.eval_many(beta(spec, ys)) >= cut).astype(float)

    return ValueOracle(spec.k, f_tilde)


# --- noisy parities -----------------------------------------------------------


@dataclass(frozen=True)
class NoisySource:
    """Uniform examples of chi_S with labels flipped at rate eta."""

    n: int
    subset: int
    eta: float
    seed: int = 0

    def __post_init__(self) -> None:
        check_packable(self.n, "noisy source")
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"noise rate must be in [0, 1/2), got {self.eta}")
        if self.subset >> self.n:
            raise ValueError("target parity reaches beyond n")


def noisy_examples(src: NoisySource, m: int, stream: int = 0) -> LabeledSample:
    """m seeded examples (x, y) with y in {-1,+1}."""
    rng = np.random.default_rng((0x10A5, src.seed, stream, src.n, src.subset))
    xs = rng.integers(0, 1 << src.n, size=m, dtype=np.int64)
    flips = 1.0 - 2.0 * (rng.random(m) < src.eta)
    ys = parity_signs(src.subset, xs) * flips
    return LabeledSample(src.n, xs, ys)


def noisy_l1_error_exact(f: ValueOracle, src: NoisySource) -> float:
    """Population E|f(x) - y| summed over the joint (point, flip) law.

    For f with range [-1,1] this equals 1 - (1 - 2 eta) * coeff_f(S).
    """
    check_enumerable(src.n, "noisy error")
    t = f.table()
    chi = parity_signs(src.subset, np.arange(1 << src.n, dtype=np.int64))
    clean = np.mean(np.abs(t - chi))
    flipped = np.mean(np.abs(t + chi))
    return float((1.0 - src.eta) * clean + src.eta * flipped)


def lpn_reduce(
    src: NoisySource,
    k: int,
    learner,
    gamma: float,
    m: int = 1 << 16,
    test_m: int = 4096,
) -> int:
    """Recover a sparse parity through an agnostic-learner callback.

    Runs the learner on the noisy sample and on the label-negated sample,
    collects every spectrum entry with |coefficient| >= gamma/4 and size
    <= k as a candidate, and returns the candidate with the best empirical
    agreement on fresh examples.  The learner should be agnostic at accuracy
    (1 - 2 eta) * gamma / 2.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    sample = noisy_examples(src, m, stream=0)
    results = [learner(sample), learner(LabeledSample(src.n, sample.xs, -sample.ys))]

    cutoff = gamma / 4.0
    spectra = [res.spectrum if isinstance(res, Hypothesis) else res for res in results]
    candidates = np.unique(np.concatenate([
        sp.masks[(sp.masks != 0) & (popcount(sp.masks) <= k) & (np.abs(sp.coeffs) >= cutoff)]
        for sp in spectra
    ]))
    if not candidates.size:
        raise NoCandidateFound(
            f"no spectrum entry of size <= {k} reached the cutoff {cutoff}"
        )

    fresh = noisy_examples(src, test_m, stream=1)
    best_mask, best_err = -1, math.inf
    for mask in candidates.tolist():
        err = float(np.mean(np.abs(parity_signs(mask, fresh.xs) - fresh.ys)))
        if err < best_err:
            best_mask, best_err = mask, err
    return best_mask


def regression_learner(degree: int):
    """Low-degree regression as an LPN learner callback (examples only)."""

    def run(sample: LabeledSample):
        return low_degree_estimate(sample, (1 << sample.n) - 1, degree)

    return run
