"""Decision-tree decompositions of submodular functions.

``build_monotone_tree`` splits until every leaf's restriction has all
discrete derivatives <= alpha.  Because derivatives of a submodular function
are monotone decreasing in the partial order, it suffices to test them at
the all-zero point of each subcube, and each split raises the subcube's
base value by more than alpha, which caps the rank at 1/alpha for range
[0,1] inputs.

``build_lipschitz_tree`` runs the same construction a second time inside
each leaf on the bit-flipped restriction (splitting while some derivative at
the subcube's all-ones point is < -alpha), so the final leaves are
alpha-Lipschitz as well; the rank cap doubles to 2/alpha.

Setting alpha = eps^2/2 and replacing each leaf by its subcube mean yields
an l2 error of at most eps at rank <= 4/eps^2, via the per-leaf variance
bound Var <= 2 * alpha * mean for nonnegative alpha-Lipschitz submodular
functions.

Functions with values on the grid {0, 1/k, ..., 1} are exactly captured:
with alpha = 1/(k + 1/3) every alpha-Lipschitz leaf is constant and the
rank is at most 2k.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import dtree, funcs
from .cube import enum_cap, popcount
from .dtree import (
    DecisionTree,
    OracleLeaf,
    evaluate_many,
    exact_distance,
    rank as tree_rank,
    to_oracle,
)
from .funcs import Restriction, TOL, ValueOracle, restrict


class NotSubmodular(ValueError):
    """Input failed the exhaustive submodularity certificate."""


class NonDiscreteRange(ValueError):
    """Values are not multiples of 1/k within tolerance."""


@dataclass(frozen=True)
class LeafCertificate:
    """Exhaustive per-leaf checks (None when the leaf exceeded the cap)."""

    alpha_monotone_ok: bool | None
    lipschitz_ok: bool | None
    submodular_ok: bool | None


@dataclass
class DecompositionReport:
    tree: DecisionTree
    alpha: float
    rank: int
    claimed_rank_bound: float
    leaf_certificates: list[LeafCertificate] = field(default_factory=list)
    phase: str = "lipschitz"
    leaf_mean_samples: int | None = None

    def rank_bound(self) -> int:
        """The claimed bound as an integer: a bound within TOL above an
        integer is that integer."""
        return math.ceil(self.claimed_rank_bound - TOL)

    def rank_bound_ok(self) -> bool:
        return self.rank <= self.rank_bound()

    def certificates_ok(self) -> bool:
        certs = _distinct(self.leaf_certificates)
        return all(c.alpha_monotone_ok and c.lipschitz_ok and c.submodular_ok for c in certs)

    def to_json_chunks(self, tree: DecisionTree, **extra) -> Iterator[str]:
        """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` of the report
        object, in chunks: its fields, the scalar keys of ``extra``, and
        "tree", whose value is the JSON object of a constant-leaf tree, written
        by `dtree.to_json_chunks` at the report's indent.  The certificate
        list and the tree come in chunks of at most `dtree.JSON_BATCH` pieces,
        so neither is ever a text of its own."""
        scalars = {
            "n": self.tree.n,
            "alpha": self.alpha,
            "phase": self.phase,
            "rank": self.rank,
            "claimed_rank_bound": self.claimed_rank_bound,
            "rank_bound_ok": self.rank_bound_ok(),
            "leaf_mean_samples": self.leaf_mean_samples,
            **extra,
        }
        values = {key: [json.dumps(value)] for key, value in scalars.items()}
        values["leaf_certificates"] = _certificates_chunks(self.leaf_certificates)
        values["tree"] = dtree.to_json_chunks(tree, 1)
        parts = [["{"]]
        for key in sorted(values):
            parts += (["\n  " + json.dumps(key) + ": "], values[key], [","])
        parts[-1] = ["\n}\n"]
        return itertools.chain.from_iterable(parts)


def _distinct(certificates: list) -> list:
    """The distinct objects of a list, by identity: the leaves share a few
    certificate objects."""
    return list(dict(zip(map(id, certificates), certificates)).values())


def _certificates_chunks(certificates: list[LeafCertificate]) -> Iterator[str]:
    """The "leaf_certificates" list as the indenting encoder writes it one
    level deep, in chunks of at most `dtree.JSON_BATCH` certificates: each
    distinct certificate object is rendered once."""
    if not certificates:
        yield "[]"
        return
    blocks = {
        id(cert): "    " + json.dumps(vars(cert), sort_keys=True, indent=2).replace("\n", "\n    ")
        for cert in _distinct(certificates)
    }
    yield "[\n"
    for at in range(0, len(certificates), dtree.JSON_BATCH):
        batch = map(blocks.__getitem__, map(id, certificates[at : at + dtree.JSON_BATCH]))
        yield (",\n" if at else "") + ",\n".join(batch)
    yield "\n  ]"


def _check_submodular(fs: list[ValueOracle], table, check: bool) -> bool:
    """Whether `funcs.is_submodular` would run on every table at TOL and pass
    with no NaN pair maximum, read from the pair maxima of their stack
    ``table`` (None beyond the enumeration cap, where no check runs): then
    no mixed difference of any table, nor of a restriction of one, exceeds
    TOL.  A NaN maximum may hide a difference above TOL, which
    `funcs.is_submodular` passes.  Raises NotSubmodular for the first table
    that fails, with the witness `funcs.is_submodular` gives on it."""
    if not (check and table is not None):
        return False
    tops = funcs.stacked_pair_maxima(table, fs[0].n)
    failing = np.flatnonzero((tops > TOL).any(axis=1))
    if failing.size:
        f = fs[failing[0]]
        witness = funcs.describe_witness(funcs.is_submodular(f).witness, f.n)
        raise NotSubmodular("input is not submodular; witness " + witness)
    return not np.isnan(tops).any()


# bit i, and the bits 0..i, of every coordinate of a packed point
_UNIT = np.int64(1) << np.arange(62, dtype=np.int64)
_UPTO = (_UNIT << 1) - 1


def _gathered_splits(table, unit, bounds, alpha_of, phases: int, bits, free, late):
    """`_grow`'s split rule read from a cached (stacked) table, each node at
    its tree's bound, bounds[alpha_of]: one gather reads every neighbour of
    every node at both extreme points.  The "neighbour" along a fixed
    coordinate is the point itself, whose difference 0 never passes."""
    ends = np.concatenate([bits, bits | free]).reshape(2, -1)[:phases]
    # the per-node bounds are made after the gather, not held through it
    hit = (table[ends[..., None] ^ (free[:, None] & unit)] - table[ends][..., None]
           > bounds[alpha_of][:, None])
    first = np.where(hit.any(axis=2), hit.argmax(axis=2) if unit.size else 0, -1)
    if phases == 1:
        return first[0], np.zeros(bits.size, dtype=bool)
    moved = ~late & (first[0] < 0)
    return np.where(late | moved, first[1], first[0]), moved


def _probed_splits(f: ValueOracle, bound, phases: int, bits, free, late):
    """`_grow`'s split rule read through `eval_many`, phase by phase, so that
    no point the rule does not read is evaluated or charged."""
    split = np.full(bits.size, -1, dtype=np.int64)
    split[~late] = _probe(f, bound[~late], bits[~late], free[~late])
    moved = ~late & (split < 0) if phases == 2 else np.zeros(bits.size, dtype=bool)
    if phases == 2:
        late = late | moved
        split[late] = _probe(f, bound[late], (bits | free)[late], free[late])
    return split, moved


def _probe(f: ValueOracle, bound, points: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Per point, the first coordinate i in its ``free`` mask, in ascending
    order, with f(p ^ e_i) - f(p) > its ``bound``, or -1: one `eval_many`
    per coordinate, over the points still undecided with that coordinate
    free."""
    at = f.eval_many(points)
    split = np.full(points.size, -1, dtype=np.int64)
    for i in range(f.n):
        todo = np.flatnonzero((free >> i & 1 == 1) & (split < 0))
        if todo.size:
            split[todo[f.eval_many(points[todo] ^ _UNIT[i]) - at[todo] > bound[todo]]] = i
    return split


def _grow(fs: list[ValueOracle], table, alphas: list[float], phases: int) -> tuple[np.ndarray, ...]:
    """The decomposition trees of oracles of one dimension n, one per oracle
    at each alpha of ``alphas``, grown together one depth level at a time.

    A node is the subcube with the coordinates in its mask fixed to its bits;
    the bits above n name its oracle, as in the stack `funcs.stacked_table`,
    and node a * len(fs) + k is the root of the tree of fs[k] at alphas[a].
    A node splits on its first free coordinate i, in ascending order, with
    f(p ^ e_i) - f(p) > alpha, its tree's alpha, at its extreme point p: the
    all-zero point in phase 1.  With ``phases`` = 2 a node that phase 1
    leaves whole continues at once in phase 2, as do all its descendants, at
    the all-ones point, where the rule is f(top) - f(top - e_i) < -alpha bit
    for bit; so the phase-2 trees sit where the phase-1 leaves were.  Per
    phase, each node is charged to its oracle what the sequential rule
    reads: p, then each free coordinate up to the one it splits on, or all
    of them at a leaf.  With the stack's cached ``table`` the rule reads the
    table and these charges are made in bulk; without it (one oracle, beyond
    the enumeration cap) the rule evaluates f.

    Returns the fixed masks, fixed bits and split coordinates (-1 at a leaf)
    of the nodes in level order, left to right within a level; the children
    of the k-th split node, lo then hi, are nodes R + 2k and R + 2k + 1, for
    R = len(alphas) * len(fs) roots.
    """
    n = fs[0].n
    full = np.int64((1 << n) - 1)
    unit = _UNIT[:n]
    bounds = np.array(alphas, dtype=float) + TOL
    # per node, the index of its tree's alpha, in as few bytes as will hold it
    alpha_of = np.repeat(np.arange(len(alphas), dtype=np.min_scalar_type(len(alphas))), len(fs))
    bits = np.tile(np.arange(len(fs), dtype=np.int64) << n, len(alphas))
    mask = np.zeros(bits.size, dtype=np.int64)
    late = np.zeros(bits.size, dtype=bool)  # the node grows in phase 2
    levels = []
    while True:
        free = ~mask & full
        if table is not None:
            split, moved = _gathered_splits(table, unit, bounds, alpha_of, phases, bits, free, late)
        else:
            split, moved = _probed_splits(fs[0], bounds[alpha_of], phases, bits, free, late)
        levels.append((mask, bits, split, moved))
        at = (split >= 0).nonzero()[0]
        if not at.size:
            break
        bit = _UNIT[split[at]]
        mask = (mask[at] | bit).repeat(2)
        bits = bits[at].repeat(2)
        bits[1::2] |= bit
        late = (late | moved)[at].repeat(2)
        alpha_of = alpha_of[at].repeat(2)
    mask, bits, split, moved = (np.concatenate(a) for a in zip(*levels))
    if table is not None:
        free = ~mask & full
        read = np.bitwise_count(free & np.where(split < 0, full, _UPTO[split]))
        reads = 1 + moved + read + np.where(moved, np.bitwise_count(free), 0)
        charges = np.bincount(bits >> n, weights=reads, minlength=len(fs))
        for f, k in zip(fs, charges.astype(np.int64).tolist()):
            f.charge(k)
    return mask, bits, split


def _build(fs: list[ValueOracle], alphas: list[float], phases: int, check: bool):
    """The trees grown by `_grow`, in array form, tree a * len(fs) + k that
    of fs[k] at alphas[a], after the input check when ``check``, and whether
    the check passed (`_check_submodular`).  Every leaf is its oracle
    restricted to the leaf's subcube (`dtree.from_levels`)."""
    table = funcs.stacked_table(fs) if fs[0].n <= enum_cap() else None
    submodular = _check_submodular(fs, table, check)
    mask, _, split = _grow(fs, table, alphas, phases)
    leaf, depth = split < 0, popcount(mask).astype(np.int64)
    trees = dtree.from_levels(fs[0].n, leaf, split, depth, np.zeros(leaf.size), leaf, sources=fs * len(alphas))
    return trees, submodular


# certificates are immutable, so the leaves share one per outcome: the
# outcome (a, b, c) of three flags is entry 4a + 2b + c, and None, None,
# None is entry 8
_CERTIFICATES = np.empty(9, dtype=object)
_CERTIFICATES[:] = [
    LeafCertificate(*flags) for flags in [*itertools.product((False, True), repeat=3), (None,) * 3]
]


def _certify(
    trees: list[DecisionTree], alphas: list[float], submodular: bool = False
) -> list[list[LeafCertificate]]:
    """Certificates of the leaves of decompositions of oracles of one
    dimension, tree k at alphas[k], tree by tree, each with its leaves in
    preorder.

    Each oracle leaf within the enumeration cap is checked on its own table:
    `dtree.leaf_blocks` reads the leaves of all the trees, those of one
    dimension as one stack of tables, and `funcs.leaf_violations` checks
    each run of a block's rows whose trees share one alpha.  The rows of a
    block ascend and the trees come alpha by alpha, so a block holds at most
    one run per alpha.  ``submodular`` says that no mixed difference of any
    tree's source exceeds TOL (`_check_submodular`), so that neither does
    one of a leaf, a restriction of a source, and the pair pass is skipped.
    A larger leaf gets None; constant leaves pass.
    """
    oracle = np.concatenate([tree.oracle for tree in trees])
    dims = trees[0].n - popcount(np.concatenate([tree.tested for tree in trees])[oracle])
    # the oracle leaves of tree k end before oracle leaf ends[k]
    ends = np.cumsum([np.count_nonzero(tree.oracle) for tree in trees])
    alphas = np.asarray(alphas, dtype=float)
    outcome = np.where(dims <= enum_cap(), 7, 8)
    for rows, block in dtree.leaf_blocks(trees, outcome == 7):
        alpha = alphas[np.searchsorted(ends, rows, side="right")]  # each row's tree's
        cuts = [0, *(np.flatnonzero(np.diff(alpha)) + 1).tolist(), rows.size]
        k = block.shape[1].bit_length() - 1
        for a, b in zip(cuts, cuts[1:]):
            mono, lip, sub = funcs.leaf_violations(block[a:b], k, alpha[a], submodular)
            outcome[rows[a:b]] = 7 - (4 * mono + 2 * lip + sub)
    leaves = np.full(oracle.size, 7)
    leaves[oracle] = outcome
    certificates = _CERTIFICATES[leaves].tolist()
    counts = np.cumsum([tree.oracle.size for tree in trees]).tolist()
    return [certificates[a:b] for a, b in zip([0, *counts], counts)]


def _decompose(fs: list[ValueOracle], alphas: list[float], phases: int, check: bool, certify: bool):
    """The reports of a decomposition of each oracle in 1 or 2 phases at
    each alpha, whose rank bound is phases/alpha: one list per alpha, in
    the order of ``alphas``.

    The oracles share one dimension n.  They are built in batches whose
    stacked table holds at most dtree.STACK_POINTS points, one oracle at a
    time beyond the enumeration cap.  Each batch is checked once, grown at
    every alpha as one frontier (`_grow`) and certified once.  A batch fails
    as soon as the input check fails on one of its tables
    (`_check_submodular`), so the error names the first failing oracle in
    input order.
    """
    if not alphas:
        raise ValueError("at least one alpha is needed")
    for alpha in alphas:
        if not (alpha > 0 and math.isfinite(phases / alpha)):
            raise ValueError(f"alpha must be positive, with {phases}/alpha finite, got {alpha}")
    n = fs[0].n
    if any(f.n != n for f in fs):
        raise ValueError(f"a batch has one dimension, got {sorted({f.n for f in fs})}")
    step = max(1, dtree.STACK_POINTS >> n) if n <= enum_cap() else 1
    reports = [[] for _ in alphas]
    for k in range(0, len(fs), step):
        batch = fs[k:k + step]
        trees, submodular = _build(batch, alphas, phases, check)
        grid = [alpha for alpha in alphas for _ in batch]
        certificates = _certify(trees, grid, submodular) if certify else [[] for _ in trees]
        for j, (tree, certs, alpha) in enumerate(zip(trees, certificates, grid)):
            reports[j // len(batch)].append(DecompositionReport(
                tree=tree,
                alpha=alpha,
                rank=tree_rank(tree),
                claimed_rank_bound=phases / alpha,
                leaf_certificates=certs,
                phase="monotone" if phases == 1 else "lipschitz",
            ))
    return reports


def build_monotone_tree(
    f: ValueOracle, alpha: float, *, check: bool = True, certify: bool = True
) -> DecompositionReport:
    """Tree whose every leaf restriction has all derivatives <= alpha.

    Computes f exactly everywhere.  Rank <= ceil(1/alpha) for range-[0,1]
    inputs.  Leaves are oracle restrictions of f; they stay submodular but
    need not be Lipschitz (their lipschitz_ok certificate can be False).
    """
    return _decompose([f], [alpha], 1, check, certify)[0][0]


def build_lipschitz_tree(
    f: ValueOracle, alpha: float, *, check: bool = True, certify: bool = True
) -> DecompositionReport:
    """Exact tree representation with alpha-Lipschitz submodular leaves.

    Phase 1 is the split rule of `build_monotone_tree`; phase 2 continues
    inside each phase-1 leaf with the bit-flipped restriction (derivatives
    bounded below), realized directly by splitting while some derivative at
    the subcube's all-ones point is below -alpha.  Rank <= ceil(2/alpha) for
    range-[0,1] inputs.  A build is a batch of one (`build_lipschitz_trees`).
    """
    return _decompose([f], [alpha], 2, check, certify)[0][0]


def build_lipschitz_trees(
    fs: list[ValueOracle], alpha: float, *, check: bool = True, certify: bool = True
) -> list[DecompositionReport]:
    """`build_lipschitz_tree` of each oracle of one dimension, the same
    trees, certificates and query charges bit for bit, grown, restricted and
    certified as one stacked cube per batch: the tables one after another,
    each tree rooted at its own table's slot.  Raises NotSubmodular for the
    first input, in order, that fails the check.  A grid of one alpha
    (`build_lipschitz_grid`)."""
    return _decompose(list(fs), [alpha], 2, check, certify)[0]


def build_lipschitz_grid(fs: list[ValueOracle], alphas) -> list[list[DecompositionReport]]:
    """`build_lipschitz_trees(fs, alpha)` at each alpha of ``alphas``, one
    list of reports per alpha, the same reports bit for bit, with each
    oracle charged the sum of those builds' charges.  Each batch's stack is
    made, checked and certified once for the whole grid, and its trees at
    every alpha grow as one frontier."""
    return _decompose(list(fs), list(alphas), 2, True, True)


def default_mean_samples(alpha: float) -> int:
    """Monte Carlo sample count for leaf means beyond the enumeration cap."""
    eps = math.sqrt(2.0 * alpha)
    return int(math.ceil(16.0 / (eps * eps) * math.log(8.0)))


def constantize_leaves(
    report: DecompositionReport, *, mc_samples: int | None = None, seed: int = 0
) -> DecisionTree:
    """Replace each oracle leaf by its exact subcube mean (seeded Monte Carlo
    when the leaf exceeds the enumeration cap; the sample count used is
    recorded on the report).  The result keeps the array form of the tree,
    with the means as its constants.

    With alpha = eps^2 / 2 the result is within l2 distance eps of the
    represented function.
    """
    tree = report.tree
    dims = popcount(tree.free()[tree.oracle])
    exact = dims <= enum_cap()
    means = _means(dtree.leaf_blocks([tree], exact, point_queries=True), dims.size)
    if not exact.all():
        m = mc_samples if mc_samples is not None else default_mean_samples(report.alpha)
        oracle = [lf for lf in tree.leaf_objects() if isinstance(lf, OracleLeaf)]
        means[~exact] = [_sampled_mean(oracle[k], m, seed) for k in np.flatnonzero(~exact).tolist()]
        report.leaf_mean_samples = m
    return tree.with_constants(means)


def _means(blocks, count: int) -> np.ndarray:
    """np.mean of each of ``count`` tables, bit for bit, from ``blocks`` of
    them (`dtree.leaf_blocks`), as one mean(axis=1) per block; a constant
    table keeps its value exactly; a table in no block is left unset."""
    means = np.empty(count)
    for rows, block in blocks:
        row = block.mean(axis=1)
        const = (block == block[:, :1]).all(axis=1)
        row[const] = block[const, 0]
        means[rows] = row
    return means


def _sampled_mean(leaf: OracleLeaf, m: int, seed: int) -> float:
    rng = np.random.default_rng((0xC0457, seed, leaf.free))
    xs = rng.integers(0, 1 << leaf.oracle.n, size=m, dtype=np.int64)
    return float(np.mean(leaf.oracle.eval_many(xs)))


def approximate_by_tree(
    f: ValueOracle, epsilon: float, *, check: bool = True, certify: bool = True
) -> tuple[DecisionTree, DecompositionReport]:
    """End-to-end constant-leaf approximation: alpha = eps^2/2, leaf means.

    The result is within l2 distance eps of f and has rank <= ceil(4/eps^2).
    """
    report = build_lipschitz_tree(f, epsilon * epsilon / 2.0, check=check, certify=certify)
    tree = constantize_leaves(report)
    return tree, report


def build_exact_discrete_tree(
    f: ValueOracle, k: int, *, check: bool = True, certify: bool = True
) -> DecompositionReport:
    """Exact constant-leaf tree for values on {0, 1/k, ..., 1}; rank <= 2k.

    Runs the Lipschitz construction at alpha = 1/(k + 1/3): a leaf whose
    derivatives all have magnitude below 1/k and whose values sit on the
    1/k grid is necessarily constant.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if f.n <= enum_cap():
        t = f.table()
        scaled = t * k
        if np.max(np.abs(scaled - np.round(scaled))) > TOL * k:
            worst = int(np.argmax(np.abs(scaled - np.round(scaled))))
            raise NonDiscreteRange(
                f"value {t[worst]} at point {worst} is not a multiple of 1/{k}"
            )
    alpha = 1.0 / (k + 1.0 / 3.0)
    report = build_lipschitz_tree(f, alpha, check=check, certify=certify)
    values = np.empty(np.count_nonzero(report.tree.oracle))
    for rows, block in dtree.leaf_blocks([report.tree], np.ones(values.size, dtype=bool), point_queries=True):
        if np.any(block.max(axis=1) - block.min(axis=1) > TOL):
            raise NonDiscreteRange("leaf is not constant; range is not 1/k-discrete")
        values[rows] = block[:, 0]
    return DecompositionReport(
        tree=report.tree.with_constants(values),
        alpha=alpha,
        rank=report.rank,
        claimed_rank_bound=float(2 * k),
        leaf_certificates=report.leaf_certificates,
        phase="discrete",
    )


def _lift(tree: DecisionTree, J: list[int], n: int) -> DecisionTree:
    """The constant-leaf tree over coordinates J[0] < J[1] < ... of
    dimension n that reads coordinate J[i] where ``tree`` reads i: its nodes
    sorted by depth, ties kept in preorder, are the lifted tree in level
    order (`dtree.from_levels`), with their coordinates mapped through J."""
    level = np.argsort(tree.depth, kind="stable")
    var = np.array(J + [-1], dtype=np.int64)[tree.var[level]]  # a leaf's -1 stays -1
    number = (np.cumsum(tree.leaf) - 1)[level]  # each leaf's constant, read at leaves only
    return dtree.from_levels(n, tree.leaf[level], var, tree.depth[level], tree.value[number], tree.oracle[number])[0]


@dataclass
class ProperLearnResult:
    tree: DecisionTree
    disagreement: float
    submodular: bool | None
    assignments_tried: int


def proper_learn_discrete(
    f: ValueOracle,
    k: int,
    variables,
    seed: int = 0,
    trials: int = 3,
    test_samples: int | None = None,
) -> ProperLearnResult:
    """Properly learn a grid-valued submodular function as a function of J.

    Each trial fixes the coordinates outside ``variables`` to a seeded random
    assignment, builds the exact discrete tree of the restriction (itself
    submodular), and keeps the hypothesis with the smallest disagreement with
    f (exact within the enumeration cap, else estimated on
    ``test_samples`` points).  The output has constant leaves and reads only
    coordinates in ``variables``.
    """
    J = sorted(set(int(v) for v in variables))
    if any(v < 0 or v >= f.n for v in J):
        raise ValueError(f"variables outside [0, {f.n})")
    outside = [i for i in range(f.n) if i not in J]
    rng = np.random.default_rng((0x9120, seed, f.n, k))
    exact = f.n <= enum_cap()

    best: ProperLearnResult | None = None
    tried = max(1, trials)
    for _ in range(tried):
        bits = rng.integers(0, 2, size=len(outside))
        fixed = {i: int(b) for i, b in zip(outside, bits)}
        restricted = restrict(f, Restriction(f.n, fixed))
        sub_report = build_exact_discrete_tree(restricted, k, check=False, certify=False)

        tree = _lift(sub_report.tree, J, f.n)
        if exact:
            dis = exact_distance(f, tree, metric="disagreement")
        else:
            m = test_samples if test_samples is not None else 4096
            xs = rng.integers(0, 1 << f.n, size=m, dtype=np.int64)
            ys = f.eval_many(xs)
            dis = float(np.mean(ys != evaluate_many(tree, xs)))
        if best is None or dis < best.disagreement:
            flag = bool(funcs.is_submodular(to_oracle(tree))) if exact else None
            best = ProperLearnResult(tree, dis, flag, tried)
    return best
