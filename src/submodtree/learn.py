"""Learning algorithms driven by the decision-tree structure theory.

Pipeline for PAC learning a submodular target from uniform examples:
degree-1 and degree-2 coefficient estimates locate the influential
variables (a large coefficient anywhere forces a large pair coefficient,
by the pairwise bound for submodular functions), and a low-degree
regression over those variables produces the hypothesis.

``km_search`` is a degree-restricted Kushilevitz-Mansour search for all
significant coefficients of a [-1,1]-valued oracle.  Its output contract,
for threshold theta and degree cap d:
  (1) every retained mask has size <= d;
  (2) every S with |coeff(S)| >= theta and |S| <= d is retained;
  (3) no S with |coeff(S)| <= theta/2 is retained;
  (4) every retained estimate is within theta/4 of the true coefficient.
The guarantee is probabilistic; sample sizes are set so each clause holds
with high probability per run.  Running it at theta = eps^2 / (2L) gives an
agnostic learner against every competitor of spectral l1 norm at most L and
degree at most d, losing only eps in l2 distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .cube import mask_of, popcount, subset_members
from .fourier import LabeledSample, Spectrum, estimate_coefficient, parity_signs, sample_points
from .funcs import ValueOracle, view


@dataclass
class Hypothesis:
    """A learned sparse spectrum plus the budget actually spent."""

    spectrum: Spectrum
    variables_used: int
    degree: int | None
    samples_used: int
    queries_used: int
    info: dict = field(default_factory=dict)


def draw_sample(f: ValueOracle, m: int, seed) -> LabeledSample:
    if m < 1:
        raise ValueError("need at least one example")
    xs = sample_points(f.n, m, seed)
    return LabeledSample(f.n, xs, f.eval_many(xs))


def find_influential_variables(data, gamma: float) -> tuple[int, ...]:
    """Variables that can matter for a submodular target, from the degree <= 2
    coefficients of ``data`` (see `fourier.coefficients_at`) only.

    Keeps i when some pair estimate |c({i,j})| >= 3 gamma^2 / 2 or the
    singleton estimate |c({i})| >= gamma / 2.  For submodular targets this
    catches every variable appearing in any coefficient of magnitude >= gamma
    (a set coefficient that large forces a pair coefficient >= 2 gamma^2, with
    slack covering estimation error gamma^2 / 2).
    """
    if not 0 < gamma < 0.5:
        raise ValueError(f"gamma must be in (0, 1/2), got {gamma}")
    low = fourier.low_degree_estimate(data, (1 << fourier.dimension(data)) - 1, 2)
    # the mean, at mask 0, adds no member to the union
    cut = np.where(popcount(low.masks) == 2, 1.5 * gamma * gamma, gamma / 2.0)
    hits = low.masks[np.abs(low.coeffs) >= cut]
    return subset_members(int(np.bitwise_or.reduce(hits, initial=0)))


def default_gamma(epsilon: float) -> float:
    return max(2.0**-20, 2.0 ** (-4.0 / (epsilon * epsilon)))


def default_degree(epsilon: float) -> int:
    return math.ceil(1.0 / (epsilon * epsilon))


def pac_learn(
    data,
    epsilon: float,
    *,
    gamma: float | None = None,
    degree: int | None = None,
    m: int | None = None,
    seed: int = 0,
    exact: bool = False,
) -> Hypothesis:
    """Learn a [0,1] submodular target within l2 error epsilon.

    ``data`` is a ValueOracle (sampled from with ``m`` examples, or used
    exactly with ``exact=True``) or a ready LabeledSample.  One transform or
    one sample feeds both stages.  gamma and degree default from epsilon but
    every suite here passes them explicitly.
    """
    if not (epsilon > 0 and epsilon * epsilon > 0 and math.isfinite(1.0 / (epsilon * epsilon))):
        raise ValueError(f"epsilon must be positive, with 1/epsilon^2 finite, got {epsilon}")
    gamma = gamma if gamma is not None else default_gamma(epsilon)
    degree = degree if degree is not None else default_degree(epsilon)

    if exact and not isinstance(data, ValueOracle):
        raise ValueError("exact mode needs a ValueOracle")
    queries_before = data.query_count if isinstance(data, ValueOracle) else 0
    source = data
    if exact:
        source = fourier.coefficients(data)
    elif isinstance(data, ValueOracle):
        if m is None:
            raise ValueError("sampled mode needs m")
        source = draw_sample(data, m, seed)
    J = find_influential_variables(source, gamma)
    Jmask = mask_of(J)
    spectrum = fourier.low_degree_estimate(source, Jmask, degree)
    queries_used = (data.query_count - queries_before) if isinstance(data, ValueOracle) else 0
    return Hypothesis(
        spectrum=spectrum,
        variables_used=Jmask,
        degree=degree,
        samples_used=0 if exact else len(source),
        queries_used=queries_used,
        info={"J": list(J), "gamma": gamma, "epsilon": epsilon},
    )


# --- significant-coefficient search ------------------------------------------


def _bucket_weight_estimate(
    f: ValueOracle, k: int, pattern: int, m: int, rng: np.random.Generator
) -> float:
    """Paired-sample estimate of sum of coeff(S)^2 over S with S cap [k] =
    pattern: E[f(x1,y) f(x2,y) chi(x1) chi(x2)] with shared suffix y, as
    E[f(x1,y) f(x2,y) chi(x1 ^ x2)]: one parity and one evaluator call."""
    # x1 then x2 (the draws of two size-m calls), then y above k on both,
    # where it cancels in x1 ^ x2
    points = rng.integers(0, 1 << k, size=(2, m), dtype=np.int64)
    if f.n > k:
        points |= rng.integers(0, 1 << (f.n - k), size=m, dtype=np.int64) << k
    signs = parity_signs(pattern, points[0] ^ points[1])
    values = f.eval_many(points)
    return float(np.mean(values[0] * values[1] * signs))


def _default_sample_count(factor: float, theta: float, power: int, n: int) -> int:
    """ceil(factor * log(48 max(n, 2)) / theta^power), at least 1: a default
    sample count of `km_search`.  Raises fourier.BudgetExceeded when the
    count is not finite or exceeds fourier.SAMPLE_WORK_LIMIT."""
    try:
        count = factor * math.log(48.0 * max(n, 2)) / theta**power
    except (ZeroDivisionError, OverflowError):  # theta^power left the float range
        count = math.inf if theta < 1 else 0.0
    if not count <= fourier.SAMPLE_WORK_LIMIT:
        raise fourier.BudgetExceeded(
            f"a default of {count:.3g} samples per estimate at theta={theta:g} exceeds the"
            f" work limit {fourier.SAMPLE_WORK_LIMIT}; pass the sample count"
        )
    return max(1, math.ceil(count))


def km_search(
    f: ValueOracle,
    theta: float,
    degree: int | None = None,
    seed: int = 0,
    *,
    bucket_samples: int | None = None,
    coeff_samples: int | None = None,
) -> Hypothesis:
    """All significant Fourier coefficients of a [-1,1]-valued oracle.

    Recursive prefix-bucket search: a bucket holds the masks agreeing with a
    fixed membership pattern on the first k coordinates, and is expanded
    while its estimated weight (sum of squared coefficients) stays above
    theta^2 / 2.  Buckets whose pattern already exceeds the degree cap are
    pruned.  Surviving singleton masks keep their estimated coefficient when
    |estimate| >= 3 theta / 4.  Each estimate draws from its own
    bucket-derived seed, so results are independent of evaluation order.
    A sample count not given defaults from theta (`_default_sample_count`).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    for name, count in (("bucket_samples", bucket_samples), ("coeff_samples", coeff_samples)):
        if count is not None and not (isinstance(count, (int, np.integer)) and count >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    n = f.n
    d = degree if degree is not None else n
    mb = bucket_samples if bucket_samples is not None else _default_sample_count(64.0, theta, 4, n)
    mc = coeff_samples if coeff_samples is not None else _default_sample_count(256.0, theta, 2, n)

    queries_before = f.query_count
    expand_cut = theta * theta / 2.0
    keep_cut = 0.75 * theta
    buckets_examined = 0
    kept_masks, kept = [], []

    stack = [(0, 0)]
    while stack:
        k, pattern = stack.pop()
        if k == n:
            est = estimate_coefficient(f, pattern, mc, (0x6B37, seed, n, pattern, 1))
            if abs(est) >= keep_cut:
                kept_masks.append(pattern)
                kept.append(est)
            continue
        for bit in (1, 0):
            child = pattern | (bit << k)
            if child.bit_count() > d:
                continue
            buckets_examined += 1
            rng = np.random.default_rng((0x6B37, seed, n, child, 0, k + 1))
            w = _bucket_weight_estimate(f, k + 1, child, mb, rng)
            if w >= expand_cut:
                stack.append((k + 1, child))

    order = np.argsort(kept_masks)
    spectrum = Spectrum(n, np.array(kept_masks, dtype=np.int64)[order], np.array(kept)[order])
    return Hypothesis(
        spectrum=spectrum,
        variables_used=spectrum.support_union(),
        degree=d,
        samples_used=0,
        queries_used=f.query_count - queries_before,
        info={
            "theta": theta,
            "buckets_examined": buckets_examined,
            "bucket_samples": mb,
            "coeff_samples": mc,
        },
    )


def agnostic_l2_learn(
    f: ValueOracle,
    epsilon: float,
    L: float,
    degree: int | None = None,
    seed: int = 0,
    *,
    unit_range: bool = False,
    bucket_samples: int | None = None,
    coeff_samples: int | None = None,
) -> Hypothesis:
    """Agnostic l2 learning of low-spectral-norm competitors via km_search.

    For f with range [-1,1], runs km_search at theta = epsilon^2 / (2 L); the
    retained estimates h satisfy, for every g of spectral l1 norm <= L and
    degree <= d, the bound ||f - h||_2 <= ||f - g||_2 + epsilon.

    ``unit_range=True`` accepts a [0,1]-valued oracle: labels are rescaled to
    2f - 1, the competitor norm maps to 2L + 1 and the accuracy to
    2 * epsilon, and the output spectrum is mapped back; the stated guarantee
    then holds verbatim in the original [0,1] space.
    """
    if epsilon <= 0 or L <= 0:
        raise ValueError("epsilon and L must be positive")
    if unit_range:
        F = view(f, values=lambda v: 2.0 * v - 1.0)
        eps_eff = 2.0 * epsilon
        L_eff = 2.0 * L + 1.0
    else:
        F = f
        eps_eff = epsilon
        L_eff = L
    theta = eps_eff * eps_eff / (2.0 * L_eff)
    if not (theta > 0 and math.isfinite(theta)):
        raise ValueError(
            f"epsilon and L must give a positive, finite epsilon^2 / (2 L), got epsilon={epsilon}, L={L}"
        )
    hyp = km_search(
        F, theta, degree, seed, bucket_samples=bucket_samples, coeff_samples=coeff_samples
    )
    if unit_range:
        masks, coeffs = hyp.spectrum.masks, hyp.spectrum.coeffs / 2.0
        if not (masks.size and masks[0] == 0):
            masks, coeffs = np.insert(masks, 0, 0), np.insert(coeffs, 0, 0.0)
        coeffs[0] += 0.5
        hyp.spectrum = Spectrum(f.n, masks, coeffs)
        hyp.variables_used = hyp.spectrum.support_union()
    hyp.info.update({"epsilon": epsilon, "L": L, "unit_range": unit_range})
    return hyp


# --- threshold decomposition --------------------------------------------------


def threshold_oracle(g: ValueOracle, theta: float) -> ValueOracle:
    """Boolean indicator of g(x) >= theta (one g query per call)."""
    return view(g, values=lambda v: (v >= theta).astype(float))


def threshold_decompose(g: ValueOracle, epsilon: float) -> tuple[list[ValueOracle], ValueOracle]:
    """Split a [0,1]-valued g into level indicators plus their recombination.

    Returns the indicators of g >= i*epsilon for i = 1 .. floor(1/epsilon)
    and g' = epsilon * (their sum); g' never exceeds g and is within epsilon
    of it everywhere.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    count = int(math.floor(1.0 / epsilon))
    levels = [threshold_oracle(g, i * epsilon) for i in range(1, count + 1)]

    def staircase(v: np.ndarray) -> np.ndarray:
        steps = np.zeros_like(v)
        for i in range(1, count + 1):
            steps += (v >= i * epsilon).astype(float)
        return epsilon * steps

    return levels, view(g, values=staircase)

