"""Binary decision trees with constant- or oracle-valued leaves.

A tree queries one coordinate per internal node (never repeating a variable
on a path); a leaf either holds a constant or an oracle over the coordinates
left free on its path.  `rank` is the Ehrenfeucht-Haussler complexity
measure: the depth of the largest complete binary tree embeddable in T.

Truncating a tree at depth d replaces every internal node at that depth by a
constant-0 leaf.  Under an alpha-bounded product distribution the truncated
tree disagrees with the original on at most 2^(r-1) * (1 - alpha/2)^d of the
mass, where r is the rank; `pruning_bound` and `pruning_depth_for` expose
that bound and its inversion.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .cube import ProductDistribution, check_enumerable, popcount, subcube_points
from .fourier import Spectrum, transform
from .funcs import ValueOracle, full_tables, stacked_table

TreeNode = Union["ConstLeaf", "OracleLeaf", "Node"]


@dataclass(frozen=True)
class ConstLeaf:
    value: float


@dataclass(frozen=True)
class OracleLeaf:
    """Leaf computing an oracle over the free coordinates (ascending order)."""

    oracle: ValueOracle
    free: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.oracle.n != len(self.free):
            raise ValueError(
                f"leaf oracle has n={self.oracle.n} but {len(self.free)} free coordinates"
            )


@dataclass(frozen=True)
class Node:
    var: int
    lo: TreeNode
    hi: TreeNode


@dataclass(frozen=True)
class DecisionTree:
    """A tree plus its ambient dimension."""

    n: int
    root: TreeNode


def evaluate(tree: DecisionTree, x: int) -> float:
    if x < 0 or x >> tree.n:
        raise ValueError(f"point {x} outside dimension {tree.n}")
    node = tree.root
    while isinstance(node, Node):
        node = node.hi if (x >> node.var) & 1 else node.lo
    if isinstance(node, ConstLeaf):
        return node.value
    local = 0
    for k, g in enumerate(node.free):
        if (x >> g) & 1:
            local |= 1 << k
    return node.oracle(local)


def _leaf_subcubes(tree: DecisionTree) -> tuple[list, np.ndarray, np.ndarray]:
    """The leaves in preorder, lo before hi, with the int64 masks of the
    coordinates tested on each leaf's path and of the bits its path fixes:
    leaf k's subcube holds the points that read fixed[k] on tested[k].

    The subcubes partition the cube only when no path tests a coordinate
    twice or one outside the dimension; any other tree is rejected.
    """
    leaves: list = []
    paths: list[int] = []
    fixed: list[int] = []

    def walk(node: TreeNode, path: int, bits: int) -> None:
        if isinstance(node, Node):
            if not 0 <= node.var < tree.n or path >> node.var & 1:
                raise ValueError(
                    f"coordinate {node.var} tested twice on a path or outside dimension {tree.n}"
                )
            bit = 1 << node.var
            walk(node.lo, path | bit, bits)
            walk(node.hi, path | bit, bits | bit)
        else:
            leaves.append(node)
            paths.append(path)
            fixed.append(bits)

    walk(tree.root, 0, 0)
    del walk  # the recursive closure would keep the leaves alive until a collection
    return leaves, np.array(paths, dtype=np.int64), np.array(fixed, dtype=np.int64)


def evaluate_many(tree: DecisionTree, xs) -> np.ndarray:
    """Values of the tree at an int64 point array.

    One walk of the tree splits the positions of the points by each node's
    bit, keeping them ascending.  The leaves are reached in preorder, lo
    before hi, and each oracle leaf that some point reaches answers all of
    its points in one eval_many.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if np.any((xs < 0) | (xs >> tree.n != 0)):
        raise ValueError(f"points outside dimension {tree.n}")
    out = np.empty(xs.shape)

    def walk(node: TreeNode, at: np.ndarray) -> None:
        if not at.size:
            return  # no point reaches the subtree: no leaf of it is charged
        if isinstance(node, Node):
            hi = (xs[at] >> node.var) & 1 == 1
            walk(node.lo, at[~hi])
            walk(node.hi, at[hi])
        elif isinstance(node, ConstLeaf):
            out[at] = node.value
        else:
            points, local = xs[at], np.zeros(at.shape, dtype=np.int64)
            for j, g in enumerate(node.free):
                local |= ((points >> g) & 1) << j
            out[at] = node.oracle.eval_many(local)

    walk(tree.root, np.arange(xs.size))
    return out


# leaves are written into a cube array in groups of about this many points,
# so no other array of 2^n values is built; a larger leaf is written alone,
# through its subcube view
_LEAF_GROUP = 1 << 20

# Batches of trees of one small dimension are decomposed and measured as one
# stack of tables of at most this many points: the per-tree cost of the
# array passes is spread over the batch, while each of the stack's
# temporaries (leaf points, leaf tables, differences) stays near 128 KB.
_STACK_POINTS = 1 << 14


def _cube_values(trees: list[DecisionTree], what: str, depths: bool = False) -> tuple:
    """Each tree's value at every point and, with ``depths``, the depth of
    the leaf every point reaches (else None), for trees of one dimension n,
    stacked as `funcs.stacked_table` stacks tables: point k * 2^n + x holds
    tree k at x.

    A walk of each tree gives each leaf's subcube.  The points of an oracle
    leaf, taken in ascending order, are its local points in order, so its
    whole table fills them in one scatter; each oracle leaf is charged its
    2^k points.  A leaf of more than _LEAF_GROUP points fills the view of
    its subcube in the cube-shaped table of its tree,
    ``values.reshape((2,) * n)[idx]``, with an int at each tested axis and a
    slice elsewhere (axis 0 is coordinate n-1), so none of its points is
    listed.
    """
    n = trees[0].n
    check_enumerable(n, what)
    if any(tree.n != n for tree in trees):
        raise ValueError(f"trees of dimensions {sorted({tree.n for tree in trees})}")
    leaves, tested, fixed = [], [], []
    for k, tree in enumerate(trees):
        tree_leaves, tree_tested, tree_fixed = _leaf_subcubes(tree)
        leaves += tree_leaves
        tested.append(tree_tested)
        fixed.append(tree_fixed | k << n)
    tested, fixed = np.concatenate(tested), np.concatenate(fixed)
    free = tested ^ ((1 << n) - 1)
    alone = np.zeros(len(leaves), dtype=bool)
    bounds = [0, len(leaves)]
    if len(trees) << n > _LEAF_GROUP:
        sizes = np.int64(1) << popcount(free).astype(np.int64)
        alone = sizes > _LEAF_GROUP
        window = (np.cumsum(sizes) - sizes) // _LEAF_GROUP
        cuts = np.flatnonzero((np.diff(window) != 0) | alone[1:] | alone[:-1]) + 1
        bounds[1:1] = cuts.tolist()
    values = levels = None
    for a, b in zip(bounds, bounds[1:]):
        if alone[a]:
            leaf = leaves[a]
            idx = (int(fixed[a] >> n),) + tuple(
                slice(None) if free[a] >> c & 1 else int(fixed[a] >> c & 1) for c in reversed(range(n))
            )
            if isinstance(leaf, OracleLeaf):
                fill = full_tables([leaf.oracle])[0].reshape((2,) * len(leaf.free))
            else:
                fill = leaf.value
        else:
            points, group_sizes = subcube_points(fixed[a:b], free[a:b])
            group = leaves[a:b]
            is_oracle = np.array([isinstance(lf, OracleLeaf) for lf in group])
            tables = full_tables([lf.oracle for lf in group if isinstance(lf, OracleLeaf)])
            constants = [lf.value if isinstance(lf, ConstLeaf) else 0.0 for lf in group]
            in_order = np.repeat(np.array(constants), group_sizes)
            if tables:
                in_order[np.repeat(is_oracle, group_sizes)] = np.concatenate(tables)
        if values is None:
            # allocated before the first group's arrays, the table kept 8 MB
            # more resident after a decompose at n = 20
            values = np.empty(len(trees) << n)
            levels = np.empty(len(trees) << n, dtype=np.int64) if depths else None
        if alone[a]:
            values.reshape((-1,) + (2,) * n)[idx] = fill
            if depths:
                levels.reshape((-1,) + (2,) * n)[idx] = popcount(int(tested[a]))
        else:
            values[points] = in_order
            if depths:
                levels[points] = np.repeat(popcount(tested[a:b]).astype(np.int64), group_sizes)
    return values, levels


def tree_table(tree: DecisionTree) -> np.ndarray:
    """Truth table of the tree, little-endian point order."""
    return _cube_values([tree], "tree table")[0]


def leaf_profile(tree: DecisionTree) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (value, depth of the leaf reached).

    A point disagrees with the depth-d truncation exactly when its leaf depth
    exceeds d and its value is nonzero, so this one traversal determines the
    truncation disagreement at every depth at once.
    """
    return _cube_values([tree], "leaf profile", depths=True)


def truncation_disagreements(tree: DecisionTree, dist: ProductDistribution | None = None) -> np.ndarray:
    """Exact Pr[tree != truncate(tree, d)] for every d = 0 .. depth."""
    vals, depths = leaf_profile(tree)
    if dist is None:
        dist = ProductDistribution.uniform(tree.n)
    p = dist.probability_vector()
    depth = tree_depth(tree)
    mask = vals != 0.0
    w = np.bincount(depths[mask], weights=p[mask], minlength=depth + 1)
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    # suffix[l] = mass of nonzero points at leaf depth >= l
    return np.array([suffix[d + 1] for d in range(depth + 1)])


def to_oracle(tree: DecisionTree) -> ValueOracle:
    return ValueOracle.from_table(tree_table(tree))


def rank(tree: DecisionTree) -> int:
    """Ehrenfeucht-Haussler rank: 0 on leaves; children's max when the child
    ranks differ, else child rank + 1."""
    return _rank(tree.root)


def _rank(node: TreeNode) -> int:
    if not isinstance(node, Node):
        return 0
    r0, r1 = _rank(node.lo), _rank(node.hi)
    return max(r0, r1) if r0 != r1 else r0 + 1


def tree_size(tree: DecisionTree) -> int:
    """Number of leaves."""
    return _size(tree.root)


def _size(node: TreeNode) -> int:
    if not isinstance(node, Node):
        return 1
    return _size(node.lo) + _size(node.hi)


def tree_depth(tree: DecisionTree) -> int:
    """Depth of the deepest leaf."""
    return _depth(tree.root)


def _depth(node: TreeNode) -> int:
    if not isinstance(node, Node):
        return 0
    return 1 + max(_depth(node.lo), _depth(node.hi))


def truncate(tree: DecisionTree, d: int) -> DecisionTree:
    """Replace every internal node at depth d by the constant leaf 0, the
    form the disagreement bound is stated for."""
    if d < 0:
        raise ValueError("depth must be nonnegative")

    def cut(node: TreeNode, remaining: int) -> TreeNode:
        if not isinstance(node, Node):
            return node
        if remaining == 0:
            return ConstLeaf(0.0)
        return Node(node.var, cut(node.lo, remaining - 1), cut(node.hi, remaining - 1))

    return DecisionTree(tree.n, cut(tree.root, d))


def pruning_bound(r: int, alpha: float, d: int) -> float:
    """Disagreement bound 2^(r-1) (1 - alpha/2)^d for a rank-r tree."""
    if r == 0:
        return 0.0
    return 2.0 ** (r - 1) * (1.0 - alpha / 2.0) ** d


def pruning_depth_for(r: int, alpha: float, epsilon: float) -> int:
    """Truncation depth floor((r + log2(1/eps)) / log2(2/(2-alpha))) that
    brings the disagreement below epsilon."""
    return int(math.floor((r + math.log2(1.0 / epsilon)) / math.log2(2.0 / (2.0 - alpha))))


class NonConstantLeaf(ValueError):
    """Raised when an operation needs constant leaves only."""


def _require_constant(node: TreeNode) -> None:
    if isinstance(node, OracleLeaf):
        raise NonConstantLeaf("tree has oracle-valued leaves; constantize first")
    if isinstance(node, Node):
        _require_constant(node.lo)
        _require_constant(node.hi)


def to_spectrum(tree: DecisionTree):
    """Exact spectrum of a constant-leaf tree (via its truth table)."""
    _require_constant(tree.root)
    return transform(to_oracle(tree))


# --- distances ---------------------------------------------------------------

def _as_table(obj) -> tuple[np.ndarray, int]:
    if isinstance(obj, DecisionTree):
        return tree_table(obj), obj.n
    if isinstance(obj, Spectrum):
        return obj.table(), obj.n
    if not isinstance(obj, ValueOracle):
        obj = ValueOracle.from_table(obj)
    return obj.table(), obj.n


def exact_distance(f, g, dist: ProductDistribution | None = None, metric: str = "l2") -> float:
    """Exact distance between any two of oracle / tree / spectrum / table.

    Metrics: ``l1`` = E|f-g|, ``l2`` = sqrt(E[(f-g)^2]), ``disagreement`` =
    Pr[f != g] (exact float inequality).  The expectation is over ``dist``
    (uniform when omitted).
    """
    tf, nf = _as_table(f)
    tg, ng = _as_table(g)
    if nf != ng:
        raise ValueError(f"dimension mismatch: {nf} vs {ng}")
    if dist is not None and dist.n != nf:
        raise ValueError(f"distribution dimension {dist.n} != {nf}")
    return _distances(tf, tg, nf, dist, metric)[0]


def exact_distances(
    fs: list[ValueOracle], trees: list[DecisionTree], metric: str = "l2"
) -> list[float]:
    """`exact_distance` (uniform weights) of each oracle and the tree at its
    position, all of one dimension, bit for bit: the trees' tables are
    filled by stacks of _STACK_POINTS points, one pass over the leaves of
    all the trees of a stack."""
    n = fs[0].n
    if any(g.n != n for g in fs) or len(trees) != len(fs):
        raise ValueError("exact_distances needs one tree per oracle, all of one dimension")
    step = max(1, _STACK_POINTS >> n)
    distances = []
    for k in range(0, len(fs), step):
        tg = _cube_values(trees[k:k + step], "tree table")[0]
        distances += _distances(stacked_table(fs[k:k + step]), tg, n, None, metric)
    return distances


def _distances(tf, tg, n: int, dist: ProductDistribution | None, metric: str) -> list[float]:
    """The distance of each 2^n-point table of the stack tf from the table
    at its position in tg, each summed over its own 2^n values."""
    if dist is None:
        # every point weighs 2^-n: the same products and sums as the uniform
        # probability vector, without building it
        w = 0.5**n
    else:
        w = dist.probability_vector()
    if metric == "disagreement":
        differ = (tf != tg).reshape(-1, 1 << n)
        if dist is None:
            return [float(np.count_nonzero(row) * w) for row in differ]
        return [float(np.sum(w[row])) for row in differ]
    if metric not in ("l1", "l2"):
        raise ValueError(f"unknown metric {metric!r}")
    # the only 2^n temporary: |f - g| or (f - g)^2, then the weights, in place
    d = (tf - tg).reshape(-1, 1 << n)
    if metric == "l1":
        np.abs(d, out=d)
    else:
        np.square(d, out=d)
    np.multiply(d, w, out=d)
    totals = [float(np.sum(row)) for row in d]
    return totals if metric == "l1" else [math.sqrt(total) for total in totals]


# --- random trees ------------------------------------------------------------

def random_tree(
    n: int,
    seed: int,
    leaf_prob: float | None = None,
    max_depth: int | None = None,
) -> DecisionTree:
    """Seed-deterministic random constant-leaf tree.

    Split variables are chosen without replacement along each path; each
    candidate node becomes a leaf with probability ``leaf_prob`` (drawn from
    the seed when omitted, which spreads the generated ranks).
    """
    rng = np.random.default_rng((0x7EEE, seed, n))
    if leaf_prob is None:
        leaf_prob = float(rng.uniform(0.15, 0.6))
    if max_depth is None:
        max_depth = n

    def grow(available: list[int], depth: int, force_split: bool) -> TreeNode:
        stop = not available or depth >= max_depth
        if not stop and not force_split:
            stop = rng.random() < leaf_prob
        if stop:
            return ConstLeaf(float(rng.uniform(0.0, 1.0)))
        k = int(rng.integers(len(available)))
        var = available[k]
        rest = available[:k] + available[k + 1:]
        return Node(var, grow(rest, depth + 1, False), grow(rest, depth + 1, False))

    return DecisionTree(n, grow(list(range(n)), 0, n > 0))


# --- serialization -----------------------------------------------------------

def to_json_text(tree: DecisionTree) -> str:
    """The tree as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    writes the nested object whose nodes are {"var": 1-based coordinate,
    "lo": ..., "hi": ...} and whose leaves are {"leaf": value}; leaves must be
    constants.  The text is written straight from the nodes: with ``indent``
    set the json module runs its pure-Python encoder, and the nested dicts
    would exist only to be encoded."""
    # StringIO appends each piece to one buffer, so no per-node string stays alive
    out = io.StringIO()
    write = out.write

    def emit(node: TreeNode, pad: str) -> None:
        inner = pad + "  "
        if isinstance(node, Node):
            write(f'{{\n{inner}"hi": ')
            emit(node.hi, inner)
            write(f',\n{inner}"lo": ')
            emit(node.lo, inner)
            write(f',\n{inner}"var": {node.var + 1}\n{pad}}}')
        elif isinstance(node, ConstLeaf):
            write(f'{{\n{inner}"leaf": {_json_scalar(node.value)}\n{pad}}}')
        else:
            _require_constant(node)

    emit(tree.root, "")
    write("\n")
    return out.getvalue()


def _json_scalar(value) -> str:
    """``json.dumps(value)``; a finite float is its repr, as json writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)

