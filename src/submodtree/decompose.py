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
import math
from dataclasses import dataclass, field

import numpy as np

from . import funcs
from .cube import enum_cap
from .dtree import (
    ConstLeaf,
    DecisionTree,
    Node,
    OracleLeaf,
    TreeNode,
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

    def to_json_obj(self) -> dict:
        return {
            "n": self.tree.n,
            "alpha": self.alpha,
            "phase": self.phase,
            "rank": self.rank,
            "claimed_rank_bound": self.claimed_rank_bound,
            "rank_bound_ok": self.rank_bound_ok(),
            "leaf_certificates": [
                {
                    "alpha_monotone_ok": c.alpha_monotone_ok,
                    "lipschitz_ok": c.lipschitz_ok,
                    "submodular_ok": c.submodular_ok,
                }
                for c in self.leaf_certificates
            ],
            "leaf_mean_samples": self.leaf_mean_samples,
        }


def _check_submodular(f: ValueOracle, check: bool) -> None:
    if check and f.n <= enum_cap():
        result = funcs.is_submodular(f)
        if not result:
            raise NotSubmodular(
                "input is not submodular; witness "
                + funcs.describe_witness(result.witness, f.n)
            )


def _leaf_for(f: ValueOracle, fixed: dict[int, int]) -> OracleLeaf:
    r = Restriction(f.n, dict(fixed))
    return OracleLeaf(restrict(f, r), r.free)


def _grow_monotone(f: ValueOracle, alpha: float, fixed: dict[int, int], leaf) -> TreeNode:
    """Split until every derivative at the subcube's all-zero point is <= alpha;
    ``leaf(fixed)`` builds the node that ends each path."""
    base = 0
    for i, b in fixed.items():
        if b:
            base |= 1 << i
    f_base = f(base)
    for i in range(f.n):
        if i in fixed:
            continue
        if f(base | (1 << i)) - f_base > alpha + SPLIT_TOL:
            lo = _grow_monotone(f, alpha, {**fixed, i: 0}, leaf)
            hi = _grow_monotone(f, alpha, {**fixed, i: 1}, leaf)
            return Node(i, lo, hi)
    return leaf(fixed)


def _grow_flipped(f: ValueOracle, alpha: float, fixed: dict[int, int]) -> TreeNode:
    # splitting rule of _grow_monotone applied to the flipped restriction:
    # the subcube's all-ones point plays the role of the all-zero point
    top = 0
    for i in range(f.n):
        if fixed.get(i, 1):
            top |= 1 << i
    f_top = f(top)
    for i in range(f.n):
        if i in fixed:
            continue
        if f_top - f(top ^ (1 << i)) < -(alpha + SPLIT_TOL):
            lo = _grow_flipped(f, alpha, {**fixed, i: 0})
            hi = _grow_flipped(f, alpha, {**fixed, i: 1})
            return Node(i, lo, hi)
    return _leaf_for(f, fixed)


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


def _certify(tree: DecisionTree, alpha: float, f: ValueOracle) -> list[LeafCertificate]:
    """Certificates of the leaves of a decomposition of f, in `_iter_leaves` order.

    Within the enumeration cap one strided pass over f's table checks every
    leaf at once.  Beyond it each leaf within the cap is checked on its own
    table, as a one-leaf tree, and a larger leaf gets None.  Constant leaves
    pass.
    """
    leaves: list = []
    _iter_leaves(tree.root, leaves)
    if f.n <= enum_cap():
        leaf_of, free = leaf_map(tree)
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
        f.table()  # one bulk materialization makes the recursion O(1) per query
    root = _grow_monotone(f, alpha, {}, lambda fixed: _leaf_for(f, fixed))
    tree = DecisionTree(f.n, root)
    report = DecompositionReport(
        tree=tree,
        alpha=alpha,
        rank=tree_rank(tree),
        claimed_rank_bound=1.0 / alpha,
        phase="monotone",
    )
    if certify:
        report.leaf_certificates = _certify(tree, alpha, f)
    return report


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
    root = _grow_monotone(f, alpha, {}, lambda fixed: _grow_flipped(f, alpha, fixed))
    tree = DecisionTree(f.n, root)
    report = DecompositionReport(
        tree=tree,
        alpha=alpha,
        rank=tree_rank(tree),
        claimed_rank_bound=2.0 / alpha,
        phase="lipschitz",
    )
    if certify:
        report.leaf_certificates = _certify(tree, alpha, f)
    return report


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
    used_mc = None

    def mean_of(leaf: OracleLeaf) -> float:
        nonlocal used_mc
        if leaf.oracle.n == 0:
            return leaf.oracle(0)
        if leaf.oracle.n <= enum_cap():
            t = leaf.oracle.table()
            if np.all(t == t[0]):  # constant leaves stay bit-exact
                return float(t[0])
            return float(np.mean(t))
        m = mc_samples if mc_samples is not None else default_mean_samples(report.alpha)
        used_mc = m
        rng = np.random.default_rng((0xC0457, seed, leaf.free))
        xs = rng.integers(0, 1 << leaf.oracle.n, size=m, dtype=np.int64)
        return float(np.mean(leaf.oracle.eval_many(xs)))

    def conv(leaf: OracleLeaf) -> ConstLeaf:
        if mode == "custom":
            return ConstLeaf(float(custom_fn(leaf.oracle, leaf.free)))
        return ConstLeaf(mean_of(leaf))

    root = _map_oracle_leaves(report.tree.root, conv)
    if used_mc is not None:
        report.leaf_mean_samples = used_mc
    return DecisionTree(report.tree.n, root)


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
            from .dtree import evaluate

            m = test_samples if test_samples is not None else 4096
            xs = rng.integers(0, 1 << f.n, size=m, dtype=np.int64)
            ys = f.eval_many(xs)
            hs = np.array([evaluate(tree, int(x)) for x in xs])
            dis = float(np.mean(ys != hs))
        if best is None or dis < best.disagreement:
            flag = bool(funcs.is_submodular(to_oracle(tree))) if exact else None
            best = ProperLearnResult(tree, dis, flag, tried)
    return best
