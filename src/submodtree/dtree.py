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
from typing import Callable, Union

import numpy as np

from .cube import ProductDistribution, check_enumerable, popcount
from .funcs import ValueOracle, full_tables, group_order

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


def leaf(value: float) -> ConstLeaf:
    return ConstLeaf(float(value))


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


def descend(var: np.ndarray, child: np.ndarray, xs: np.ndarray, depth: int) -> np.ndarray:
    """The node that each point of the int64 array xs reaches, for a tree
    given as node arrays.

    Node 0 is the root; node k tests coordinate var[k] and steps to
    child[2k + bit].  A leaf steps onto itself, so after ``depth`` steps (the
    tree's depth) every point sits at its leaf.  All points descend
    together, one level per step.
    """
    at = np.zeros(xs.shape, dtype=np.int64)
    for _ in range(depth):
        step = var[at]
        np.right_shift(xs, step, out=step)
        step &= 1
        step += at
        step += at
        at = child[step]
    return at


def _leaf_index(tree: DecisionTree, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """The leaf of every point of xs, the tested mask of every leaf and the
    leaves, all numbered in preorder, lo before hi."""
    var: list[int] = []
    child: list[int] = []
    leaf_id: list[int] = []
    tested: list[int] = []  # per leaf, the mask of the coordinates on its path
    leaves: list = []

    def walk(node: TreeNode, path: int) -> int:
        k = len(var)
        if isinstance(node, Node):
            bit = 1 << node.var
            var.append(node.var)
            child.extend((0, 0))
            leaf_id.append(-1)
            child[2 * k] = walk(node.lo, path | bit)
            child[2 * k + 1] = walk(node.hi, path | bit)
        else:
            var.append(0)
            child.extend((k, k))  # a leaf steps onto itself
            leaf_id.append(len(leaves))
            leaves.append(node)
            tested.append(path)
        return k

    walk(tree.root, 0)
    paths = np.array(tested, dtype=np.int64)
    depth = int(popcount(paths).max())
    at = descend(np.array(var, dtype=np.int64), np.array(child, dtype=np.int64), xs, depth)
    return np.array(leaf_id, dtype=np.int32)[at], paths, leaves


def leaf_map(tree: DecisionTree) -> tuple[np.ndarray, np.ndarray]:
    """The leaf of every point and the free coordinates of every leaf.

    Leaves are numbered in preorder, lo before hi.  Returns the int32 leaf id
    of each point (little-endian point order) and, per leaf, the int64 mask
    of the coordinates not tested on its path.
    """
    check_enumerable(tree.n, "leaf map")
    leaf_of, paths, _ = _leaf_index(tree, np.arange(1 << tree.n, dtype=np.int64))
    return leaf_of, paths ^ ((1 << tree.n) - 1)


def evaluate_many(tree: DecisionTree, xs) -> np.ndarray:
    """Values of the tree at an int64 point array.

    Each oracle leaf answers all the points that reach it in one eval_many.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if np.any((xs < 0) | (xs >> tree.n != 0)):
        raise ValueError(f"points outside dimension {tree.n}")
    ids, _, leaves = _leaf_index(tree, xs)
    out = _constant_values(leaves)[ids]
    order = group_order(ids, len(leaves))
    bounds = np.searchsorted(ids[order], np.arange(len(leaves) + 1)).tolist()
    for k, lf in enumerate(leaves):
        at = order[bounds[k]:bounds[k + 1]]
        if isinstance(lf, OracleLeaf) and at.size:
            local = np.zeros(at.shape, dtype=np.int64)
            for j, g in enumerate(lf.free):
                local |= ((xs[at] >> g) & 1) << j
            out[at] = lf.oracle.eval_many(local)
    return out


def _constant_values(leaves: list) -> np.ndarray:
    return np.array([lf.value if isinstance(lf, ConstLeaf) else 0.0 for lf in leaves])


def _cube_values(tree: DecisionTree, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tree's value and leaf at every point, and the tested mask of
    every leaf.

    The points of an oracle leaf, taken in ascending order, are its local
    points in order, so its whole table fills them in one scatter; each
    oracle leaf is charged its 2^k points.
    """
    check_enumerable(tree.n, what)
    leaf_of, paths, leaves = _leaf_index(tree, np.arange(1 << tree.n, dtype=np.int64))
    values = _constant_values(leaves)[leaf_of]
    oracle = [k for k, lf in enumerate(leaves) if isinstance(lf, OracleLeaf)]
    if oracle:
        is_oracle = np.zeros(len(leaves), dtype=bool)
        is_oracle[oracle] = True
        points = np.flatnonzero(is_oracle[leaf_of])
        points = points[group_order(leaf_of[points], len(leaves))]
        values[points] = np.concatenate(full_tables([leaves[k].oracle for k in oracle]))
    return values, leaf_of, paths


def tree_table(tree: DecisionTree) -> np.ndarray:
    """Truth table of the tree, little-endian point order."""
    return _cube_values(tree, "tree table")[0]


def leaf_profile(tree: DecisionTree) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (value, depth of the leaf reached).

    A point disagrees with the depth-d truncation exactly when its leaf depth
    exceeds d and its value is nonzero, so this one traversal determines the
    truncation disagreement at every depth at once.
    """
    values, leaf_of, paths = _cube_values(tree, "leaf profile")
    return values, popcount(paths).astype(np.int64)[leaf_of]


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


def to_oracle(tree: DecisionTree, label: str = "") -> ValueOracle:
    return ValueOracle.from_table(tree_table(tree), label=label)


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


def subtree_mean(node: TreeNode) -> float:
    """Uniform-distribution mean of the function the subtree computes."""
    if isinstance(node, ConstLeaf):
        return node.value
    if isinstance(node, OracleLeaf):
        if node.oracle.n == 0:
            return node.oracle(0)
        return float(np.mean(node.oracle.table()))
    return 0.5 * (subtree_mean(node.lo) + subtree_mean(node.hi))


def truncate(tree: DecisionTree, d: int, replacement: str = "zero") -> DecisionTree:
    """Replace every internal node at depth d by a constant leaf.

    ``replacement="zero"`` installs the constant 0 (the form the disagreement
    bound is stated for); ``"mean"`` installs the subtree's uniform mean.
    """
    if d < 0:
        raise ValueError("depth must be nonnegative")
    if replacement not in ("zero", "mean"):
        raise ValueError(f"unknown replacement {replacement!r}")

    def cut(node: TreeNode, remaining: int) -> TreeNode:
        if not isinstance(node, Node):
            return node
        if remaining == 0:
            value = 0.0 if replacement == "zero" else subtree_mean(node)
            return ConstLeaf(value)
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
    from .fourier import transform

    _require_constant(tree.root)
    return transform(to_oracle(tree))


def map_leaves(tree: DecisionTree, fn: Callable[[ConstLeaf], float]) -> DecisionTree:
    """Rebuild a constant-leaf tree with each leaf value mapped through fn.

    The shape is unchanged, so rank, size and depth are all preserved.
    """
    _require_constant(tree.root)

    def walk(node: TreeNode) -> TreeNode:
        if isinstance(node, ConstLeaf):
            return ConstLeaf(float(fn(node)))
        return Node(node.var, walk(node.lo), walk(node.hi))

    return DecisionTree(tree.n, walk(tree.root))


# --- distances ---------------------------------------------------------------

def _as_table(obj, n_hint: int | None = None) -> tuple[np.ndarray, int]:
    from .fourier import Spectrum

    if isinstance(obj, ValueOracle):
        return obj.table(), obj.n
    if isinstance(obj, DecisionTree):
        return tree_table(obj), obj.n
    if isinstance(obj, Spectrum):
        return obj.table(), obj.n
    arr = np.asarray(obj, dtype=float)
    n = arr.size.bit_length() - 1
    return arr, n


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
    if dist is None:
        dist = ProductDistribution.uniform(nf)
    if dist.n != nf:
        raise ValueError(f"distribution dimension {dist.n} != {nf}")
    p = dist.probability_vector()
    if metric == "l1":
        return float(np.sum(p * np.abs(tf - tg)))
    if metric == "l2":
        return float(math.sqrt(np.sum(p * (tf - tg) ** 2)))
    if metric == "disagreement":
        return float(np.sum(p[tf != tg]))
    raise ValueError(f"unknown metric {metric!r}")


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

def to_json_obj(tree: DecisionTree):
    """Nested JSON structure; leaves must be constants.  Variables 1-based."""
    _require_constant(tree.root)

    def conv(node: TreeNode):
        if isinstance(node, ConstLeaf):
            return {"leaf": node.value}
        return {"var": node.var + 1, "lo": conv(node.lo), "hi": conv(node.hi)}

    return conv(tree.root)


def to_json_text(tree: DecisionTree) -> str:
    """``json.dumps(to_json_obj(tree), sort_keys=True, indent=2) + "\\n"``,
    written straight from the nodes: with ``indent`` set the json module runs
    its pure-Python encoder, and the nested dicts exist only to be encoded."""
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


def to_json(tree: DecisionTree) -> str:
    return json.dumps(to_json_obj(tree))


def from_json_obj(obj, n: int) -> DecisionTree:
    def conv(o) -> TreeNode:
        if "leaf" in o:
            return ConstLeaf(float(o["leaf"]))
        return Node(int(o["var"]) - 1, conv(o["lo"]), conv(o["hi"]))

    return DecisionTree(n, conv(obj))


def from_json(text: str, n: int) -> DecisionTree:
    return from_json_obj(json.loads(text), n)
