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
from dataclasses import dataclass, field

import numpy as np

from . import funcs
from .cube import enum_cap, popcount
from .dtree import (
    ConstLeaf,
    DecisionTree,
    Node,
    OracleLeaf,
    TreeNode,
    descend,
    evaluate_many,
    leaf_map,
    rank as tree_rank,
)
from .funcs import Restriction, TOL, ValueOracle, restrict

SPLIT_TOL = TOL


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

    def all_true(self) -> bool:
        return bool(self.alpha_monotone_ok and self.lipschitz_ok and self.submodular_ok)


@dataclass
class DecompositionReport:
    tree: DecisionTree
    alpha: float
    rank: int
    claimed_rank_bound: float
    leaf_certificates: list[LeafCertificate] = field(default_factory=list)
    phase: str = "lipschitz"
    leaf_mean_samples: int | None = None

    def rank_bound_ok(self) -> bool:
        return self.rank <= math.ceil(self.claimed_rank_bound - TOL)

    def certificates_ok(self, require_lipschitz: bool = True) -> bool:
        for cert in self.leaf_certificates:
            if not cert.alpha_monotone_ok or not cert.submodular_ok:
                return False
            if require_lipschitz and not cert.lipschitz_ok:
                return False
        return True

    def to_json_text(self, tree_text: str, **extra) -> str:
        """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` of the report
        object: its fields, the scalar keys of ``extra``, and "tree", whose
        value is the JSON text ``tree_text`` of a tree (`dtree.to_json_text`)."""
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
        values["leaf_certificates"] = _certificates_parts(self.leaf_certificates)
        values["tree"] = [tree_text.rstrip("\n").replace("\n", "\n  ")]
        # joined once from pieces, so the certificate list is never a text of its own
        parts = ["{"]
        for key in sorted(values):
            parts += ("\n  ", json.dumps(key), ": ", *values[key], ",")
        parts[-1] = "\n}\n"
        return "".join(parts)


def _certificates_parts(certificates: list[LeafCertificate]) -> list[str]:
    """The "leaf_certificates" list as the indenting encoder writes it one
    level deep, in pieces: each of the few distinct outcomes is rendered once."""
    if not certificates:
        return ["[]"]
    blocks: dict[tuple, str] = {}
    parts = []
    for cert in certificates:
        flags = (cert.alpha_monotone_ok, cert.lipschitz_ok, cert.submodular_ok)
        if flags not in blocks:
            text = json.dumps(vars(cert), sort_keys=True, indent=2)
            blocks[flags] = "    " + text.replace("\n", "\n    ")
        parts += (",\n", blocks[flags])
    parts[0] = "[\n"
    parts.append("\n  ]")
    return parts


def _check_submodular(f: ValueOracle, check: bool) -> None:
    if check and f.n <= enum_cap():
        result = funcs.is_submodular(f)
        if not result:
            raise NotSubmodular(
                "input is not submodular; witness "
                + funcs.describe_witness(result.witness, f.n)
            )


# bit i, and the bits 0..i, of every coordinate of a packed point
_UNIT = np.int64(1) << np.arange(62, dtype=np.int64)
_UPTO = (_UNIT << 1) - 1


def _gathered_splits(table, unit, bound: float, phases: int, bits, free, late):
    """`_grow`'s split rule read from f's cached table: one gather reads every
    neighbour of every node at both extreme points.  The "neighbour" along a
    fixed coordinate is the point itself, whose difference 0 never passes."""
    ends = np.concatenate([bits, bits | free]).reshape(2, -1)[:phases]
    hit = table[ends[..., None] ^ (free[:, None] & unit)] - table[ends][..., None] > bound
    first = np.where(hit.any(axis=2), hit.argmax(axis=2) if unit.size else 0, -1)
    if phases == 1:
        return first[0], np.zeros(bits.size, dtype=bool)
    moved = ~late & (first[0] < 0)
    return np.where(late | moved, first[1], first[0]), moved


def _probed_splits(f: ValueOracle, bound: float, phases: int, bits, free, late):
    """`_grow`'s split rule read through `eval_many`, phase by phase, so that
    no point the rule does not read is evaluated or charged."""
    split = np.full(bits.size, -1, dtype=np.int64)
    split[~late] = _probe(f, bound, bits[~late], free[~late])
    moved = ~late & (split < 0) if phases == 2 else np.zeros(bits.size, dtype=bool)
    if phases == 2:
        late = late | moved
        split[late] = _probe(f, bound, (bits | free)[late], free[late])
    return split, moved


def _probe(f: ValueOracle, bound: float, points: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Per point, the first coordinate i in its ``free`` mask, in ascending
    order, with f(p ^ e_i) - f(p) > bound, or -1: one `eval_many` per
    coordinate, over the points still undecided with that coordinate free."""
    at = f.eval_many(points)
    split = np.full(points.size, -1, dtype=np.int64)
    for i in range(f.n):
        todo = np.flatnonzero((free >> i & 1 == 1) & (split < 0))
        if todo.size:
            split[todo[f.eval_many(points[todo] ^ _UNIT[i]) - at[todo] > bound]] = i
    return split


def _grow(f: ValueOracle, table, alpha: float, phases: int) -> tuple[np.ndarray, ...]:
    """The decomposition tree of f, grown one depth level at a time.

    A node is the subcube with the coordinates in its mask fixed to its bits.
    It splits on its first free coordinate i, in ascending order, with
    f(p ^ e_i) - f(p) > alpha at its extreme point p: the all-zero point in
    phase 1.  With ``phases`` = 2 a node that phase 1 leaves whole continues
    at once in phase 2, as do all its descendants, at the all-ones point,
    where the rule is f(top) - f(top - e_i) < -alpha bit for bit; so the
    phase-2 trees sit where the phase-1 leaves were.  Per phase, each node is
    charged what the sequential rule reads: p, then each free coordinate up
    to the one it splits on, or all of them at a leaf.  With f's cached
    ``table`` the rule reads the table and these charges are made in bulk.

    Returns the fixed masks, fixed bits and split coordinates (-1 at a leaf)
    of the nodes in level order, left to right within a level; the children
    of the k-th split node, lo then hi, are nodes 2k + 1 and 2k + 2.
    """
    full = np.int64((1 << f.n) - 1)
    unit = _UNIT[: f.n]
    bound = alpha + SPLIT_TOL
    mask, bits = np.zeros((2, 1), dtype=np.int64)
    late = np.zeros(1, dtype=bool)  # the node grows in phase 2
    levels = []
    while True:
        free = ~mask & full
        if table is not None:
            split, moved = _gathered_splits(table, unit, bound, phases, bits, free, late)
        else:
            split, moved = _probed_splits(f, bound, phases, bits, free, late)
        levels.append((mask, bits, split, moved))
        at = (split >= 0).nonzero()[0]
        if not at.size:
            break
        bit = _UNIT[split[at]]
        mask = (mask[at] | bit).repeat(2)
        bits = bits[at].repeat(2)
        bits[1::2] |= bit
        late = (late | moved)[at].repeat(2)
    mask, bits, split, moved = (np.concatenate(a) for a in zip(*levels))
    if table is not None:
        free = ~mask & full
        read = np.bitwise_count(free & np.where(split < 0, full, _UPTO[split]))
        f.charge(split.size + moved.sum() + read.sum() + np.bitwise_count(free[moved]).sum())
    return mask, bits, split


def _build(f: ValueOracle, alpha: float, phases: int, certify: bool):
    """The tree grown by `_grow` with restriction leaves, and the leaf
    certificates when ``certify``.

    Within the enumeration cap every point descends the node arrays once;
    those leaf ids give every leaf's table as a slice of one gather and feed
    `_certify`.  Beyond it each leaf is a `restrict` view.
    """
    within = f.n <= enum_cap()
    mask, bits, split = _grow(f, f.table() if within else None, alpha, phases)
    leaves = split < 0
    number = np.cumsum(leaves) - 1  # of each leaf node, among the leaves in level order
    free = ~mask[leaves] & ((1 << f.n) - 1)
    if within:
        child = np.arange(split.size).repeat(2)  # a leaf steps onto itself
        child[~leaves.repeat(2)] = np.arange(1, 2 * (split.size - free.size) + 1)
        points = np.arange(1 << f.n, dtype=np.int64)
        depth = int(popcount(mask[-1]))  # the last node is on the deepest level
        leaf_of = number[descend(np.maximum(split, 0), child, points, depth)]
        oracles = funcs.restrict_leaves(f, leaf_of, free)
    else:
        oracles = [
            restrict(f, Restriction(f.n, {i: b >> i & 1 for i in range(f.n) if m >> i & 1}))
            for m, b in zip(mask[leaves].tolist(), bits[leaves].tolist())
        ]
    var, numbers, masks = split.tolist(), number.tolist(), free.tolist()
    coords: dict[int, tuple[int, ...]] = {}  # free coordinates by mask
    order: list[int] = []  # leaf numbers in preorder

    def build(node: int) -> TreeNode:
        if var[node] >= 0:
            lo = 2 * (node - numbers[node]) - 1  # node - numbers[node] - 1 splits precede it
            return Node(var[node], build(lo), build(lo + 1))
        k = numbers[node]
        order.append(k)
        m = masks[k]
        if m not in coords:
            coords[m] = tuple(i for i in range(f.n) if m >> i & 1)
        return OracleLeaf(oracles[k], coords[m])

    tree = DecisionTree(f.n, build(0))
    if not certify:
        return tree, []
    if not within:
        return tree, _certify(tree, alpha, f)
    preorder = np.empty(len(order), dtype=np.int32)
    preorder[order] = np.arange(len(order), dtype=np.int32)
    return tree, _certify(tree, alpha, f, (preorder[leaf_of], free[order]))


def _map_oracle_leaves(node: TreeNode, fn) -> TreeNode:
    if isinstance(node, OracleLeaf):
        return fn(node)
    if isinstance(node, Node):
        return Node(node.var, _map_oracle_leaves(node.lo, fn), _map_oracle_leaves(node.hi, fn))
    return node


def _iter_leaves(node: TreeNode, out: list) -> None:
    if isinstance(node, Node):
        _iter_leaves(node.lo, out)
        _iter_leaves(node.hi, out)
    else:
        out.append(node)


# certificates are immutable, so the leaves share one per outcome
_CERTIFICATES = {
    flags: LeafCertificate(*flags)
    for flags in [*itertools.product((True, False), repeat=3), (None, None, None)]
}


def _certify(
    tree: DecisionTree, alpha: float, f: ValueOracle, partition: tuple | None = None
) -> list[LeafCertificate]:
    """Certificates of the leaves of a decomposition of f, in `_iter_leaves` order.

    Within the enumeration cap one strided pass over f's table checks every
    leaf at once; ``partition`` is the tree's `leaf_map` when the caller
    already has it.  Beyond the cap each leaf within it is checked on its own
    table, as a one-leaf tree, and a larger leaf gets None.  Constant leaves
    pass.
    """
    leaves: list = []
    _iter_leaves(tree.root, leaves)
    if f.n <= enum_cap():
        leaf_of, free = partition if partition is not None else leaf_map(tree)
        failed = funcs.leaf_violations(f.table(), f.n, leaf_of, free, alpha)
        ok = zip(*(np.logical_not(bad).tolist() for bad in failed))
    else:
        ok = (_leaf_ok(lf.oracle, alpha) if isinstance(lf, OracleLeaf) else None for lf in leaves)
    return [
        _CERTIFICATES[flags if isinstance(lf, OracleLeaf) else (True, True, True)]
        for lf, flags in zip(leaves, ok)
    ]


def _leaf_ok(g: ValueOracle, alpha: float) -> tuple:
    """The three certificate flags of a leaf oracle checked on its own table."""
    if g.n > enum_cap():
        return (None, None, None)
    whole = np.array([(1 << g.n) - 1])
    failed = funcs.leaf_violations(g.table(), g.n, np.zeros(1 << g.n, dtype=np.int32), whole, alpha)
    return tuple(not bad[0] for bad in failed)


def build_monotone_tree(
    f: ValueOracle, alpha: float, *, check: bool = True, certify: bool = True
) -> DecompositionReport:
    """Tree whose every leaf restriction has all derivatives <= alpha.

    Computes f exactly everywhere.  Rank <= ceil(1/alpha) for range-[0,1]
    inputs.  Leaves are oracle restrictions of f; they stay submodular but
    need not be Lipschitz (their lipschitz_ok certificate can be False).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _check_submodular(f, check)
    if f.n <= enum_cap():
        f.table()  # one bulk materialization makes every frontier query a gather
    tree, certificates = _build(f, alpha, 1, certify)
    return DecompositionReport(
        tree=tree,
        alpha=alpha,
        rank=tree_rank(tree),
        claimed_rank_bound=1.0 / alpha,
        leaf_certificates=certificates,
        phase="monotone",
    )


def build_lipschitz_tree(
    f: ValueOracle, alpha: float, *, check: bool = True, certify: bool = True
) -> DecompositionReport:
    """Exact tree representation with alpha-Lipschitz submodular leaves.

    Phase 1 is the split rule of `build_monotone_tree`; phase 2 continues
    inside each phase-1 leaf with the bit-flipped restriction (derivatives
    bounded below), realized directly by splitting while some derivative at
    the subcube's all-ones point is below -alpha.  Rank <= ceil(2/alpha) for
    range-[0,1] inputs.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _check_submodular(f, check)
    if f.n <= enum_cap():
        f.table()
    tree, certificates = _build(f, alpha, 2, certify)
    return DecompositionReport(
        tree=tree,
        alpha=alpha,
        rank=tree_rank(tree),
        claimed_rank_bound=2.0 / alpha,
        leaf_certificates=certificates,
        phase="lipschitz",
    )


def default_mean_samples(alpha: float) -> int:
    """Monte Carlo sample count for leaf means beyond the enumeration cap."""
    eps = math.sqrt(2.0 * alpha)
    return int(math.ceil(16.0 / (eps * eps) * math.log(8.0)))


def constantize_leaves(
    report: DecompositionReport,
    mode: str = "mean",
    custom_fn=None,
    mc_samples: int | None = None,
    seed: int = 0,
) -> DecisionTree:
    """Replace each oracle leaf by a constant.

    ``mean`` uses the leaf's exact subcube mean (seeded Monte Carlo when the
    leaf exceeds the enumeration cap; the sample count used is recorded on
    the report).  ``custom`` applies ``custom_fn(oracle, free) -> float``.
    With alpha = eps^2 / 2 the result is within l2 distance eps of the
    represented function.
    """
    if mode not in ("mean", "custom"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "custom" and custom_fn is None:
        raise ValueError("mode='custom' needs custom_fn")
    leaves: list = []
    _iter_leaves(report.tree.root, leaves)
    oracle = [lf for lf in leaves if isinstance(lf, OracleLeaf)]
    if mode == "custom":
        values = [float(custom_fn(lf.oracle, lf.free)) for lf in oracle]
    else:
        cap = enum_cap()
        exact = [lf.oracle for lf in oracle if lf.oracle.n <= cap]
        means = iter(_means([g.table() if g.n else np.array([g(0)]) for g in exact]).tolist())
        m = mc_samples if mc_samples is not None else default_mean_samples(report.alpha)
        values = [
            next(means) if lf.oracle.n <= cap else _sampled_mean(lf, m, seed) for lf in oracle
        ]
        if len(exact) < len(oracle):
            report.leaf_mean_samples = m
    it = iter(values)
    root = _map_oracle_leaves(report.tree.root, lambda lf: ConstLeaf(next(it)))
    return DecisionTree(report.tree.n, root)


def _means(tables: list[np.ndarray]) -> np.ndarray:
    """np.mean of every table, bit for bit, as one mean(axis=1) over the
    tables of each size; a constant table keeps its value exactly."""
    sizes = np.array([t.size for t in tables], dtype=np.int64)
    means = np.empty(len(tables))
    for size in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        block = np.stack([tables[k] for k in at.tolist()])
        row = block.mean(axis=1)
        const = (block == block[:, :1]).all(axis=1)
        row[const] = block[const, 0]
        means[at] = row
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
    tree = constantize_leaves(report, "mean")
    return tree, report


def discrete_level(f: ValueOracle, tol: float = TOL) -> int | None:
    """Smallest k <= 64 with all values on the grid {0, 1/k, ..., 1}, if any."""
    t = f.table()
    for k in range(1, 65):
        scaled = t * k
        if np.max(np.abs(scaled - np.round(scaled))) <= tol * k:
            return k
    return None


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

    def to_const(leaf: OracleLeaf) -> ConstLeaf:
        if leaf.oracle.n == 0:
            return ConstLeaf(leaf.oracle(0))
        t = leaf.oracle.table()
        if not np.all(t == t[0]):
            if float(np.max(t) - np.min(t)) > TOL:
                raise NonDiscreteRange("leaf is not constant; range is not 1/k-discrete")
        return ConstLeaf(float(t[0]))

    tree = DecisionTree(f.n, _map_oracle_leaves(report.tree.root, to_const))
    return DecompositionReport(
        tree=tree,
        alpha=alpha,
        rank=report.rank,
        claimed_rank_bound=float(2 * k),
        leaf_certificates=report.leaf_certificates,
        phase="discrete",
    )


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
    from .dtree import exact_distance, to_oracle

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

        def lift(node: TreeNode) -> TreeNode:
            if isinstance(node, Node):
                return Node(J[node.var], lift(node.lo), lift(node.hi))
            return node

        tree = DecisionTree(f.n, lift(sub_report.tree.root))
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
