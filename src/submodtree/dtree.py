"""Binary decision trees with constant- or oracle-valued leaves.

A tree queries one coordinate per internal node (never repeating a variable
on a path); a leaf either holds a constant or an oracle over the coordinates
left free on its path.  `rank` is the Ehrenfeucht-Haussler complexity
measure: the depth of the largest complete binary tree embeddable in T.

A `DecisionTree` is its array form: per node in preorder, lo before hi, its
coordinate and depth; per leaf, its path's tested and fixed bits and either
a constant or an oracle.  One constructor, `from_levels`, builds every tree
from arrays in level order, one numpy pass per depth level for the subtree
sizes and ranks (bottom-up) and the positions and path masks (top-down).
Decompositions grow in level order (`decompose._grow`); each of their leaves
is the source oracle restricted to the leaf's subcube, read from the
source's table where it lies.  `random_tree` draws its nodes in preorder,
and `truncate` keeps the nodes above a depth in preorder; a stable sort by
depth puts either in level order.  ``DecisionTree(n, root)``, the way to
build a tree of `Node` objects by hand, walks it once, level by level, into
`from_levels`.  Rank, size, depth, leaf subcubes, tree tables, leaf means,
values at points and the JSON text are all read from the arrays; a tree
made from them builds its `Node` and leaf objects only when ``root`` is
read or trees are compared.
One reader, `_leaf_cells`, lists the leaves' subcubes for tree tables, leaf
profiles, distances, certification and leaf means alike: the leaves of one
dimension in blocks of at most _BLOCK_POINTS listed points, a larger leaf
alone as its subcube view.

Truncating a tree at depth d replaces every internal node at that depth by a
constant-0 leaf.  Under an alpha-bounded product distribution the truncated
tree disagrees with the original on at most 2^(r-1) * (1 - alpha/2)^d of the
mass, where r is the rank; `pruning_bound` and `pruning_depth_for` expose
that bound and its inversion.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .cube import ProductDistribution, check_enumerable, check_packable, popcount
from .fourier import Spectrum, transform
from .funcs import Restriction, ValueOracle, full_tables, restrict, stacked_table

TreeNode = Union["ConstLeaf", "OracleLeaf", "Node"]

# pieces of JSON text joined into one chunk (`to_json_chunks`), so a report
# file is written a bounded text at a time
JSON_BATCH = 8192


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


class DecisionTree:
    """A tree of dimension n in its array form.

    Per node, in preorder (lo before hi): whether it is a leaf (``leaf``),
    its coordinate (``var``, -1 at a leaf), its ``depth``, the nodes of its
    subtree (``count``) and the index of its first piece of `to_json_chunks`
    (``piece``).  Per leaf, in the same order: the masks of the coordinates
    its path tests (``tested``) and of the bits it fixes (``fixed``), its
    constant (``value``, 0.0 at an oracle leaf) and whether it is an oracle
    leaf (``oracle``).  The oracle leaves of a decomposition (and of its
    truncations) are ``source`` restricted to their subcubes; a tree made of
    objects keeps its leaf objects in ``leaves``.  ``bad`` is the coordinate
    of the first node in preorder that tests a coordinate twice on its path
    or one outside the dimension, else None.  ``json`` keeps the distinct
    pieces of `to_json_chunks` and each position's piece index once they
    are rendered.

    ``DecisionTree(n, root)`` walks a tree of nodes once, level by level,
    into `from_levels`, and keeps ``root``; a tree that `from_levels` makes
    builds its nodes the first time ``root`` is read.  Trees compare equal
    when their dimensions and their nodes do.
    """

    __slots__ = (
        "n", "_root", "leaf", "var", "depth", "count", "piece", "rank", "bad",
        "tested", "fixed", "value", "oracle", "source", "leaves", "json",
    )

    def __init__(self, n: int, root: TreeNode) -> None:
        nodes, depth, level, d = [], [], [root], 0
        while level:
            nodes += level
            depth += [d] * len(level)
            level, d = [c for node in level if isinstance(node, Node) for c in (node.lo, node.hi)], d + 1
        leaf = [not isinstance(node, Node) for node in nodes]
        objects = np.empty(len(nodes), dtype=object)
        objects[:] = nodes
        var = [-1 if is_leaf else node.var for is_leaf, node in zip(leaf, nodes)]
        walked = from_levels(
            n, np.array(leaf), np.array(var, dtype=np.int64), np.array(depth, dtype=np.int64),
            np.array([node.value if isinstance(node, ConstLeaf) else 0.0 for node in nodes], dtype=float),
            np.array([isinstance(node, OracleLeaf) for node in nodes]), objects,
        )[0]
        for name in self.__slots__:
            setattr(self, name, getattr(walked, name))
        self._root = root

    @property
    def root(self) -> TreeNode:
        """The root node; a tree that `from_levels` makes builds its nodes once."""
        if self._root is None:
            self._root = self.nodes()
        return self._root

    def __eq__(self, other) -> bool:
        if other.__class__ is not DecisionTree:
            return NotImplemented
        return (self.n, self.root) == (other.n, other.root)

    def __hash__(self) -> int:
        return hash((self.n, self.root))

    def __repr__(self) -> str:
        return f"DecisionTree(n={self.n!r}, root={self.root!r})"

    def free(self) -> np.ndarray:
        """The mask of the coordinates each leaf leaves free."""
        return ~self.tested & ((1 << self.n) - 1)

    def leaf_objects(self) -> list:
        """The leaves in preorder, as objects, built once: a decomposition's
        oracle leaf is `restrict` of ``source`` to the leaf's subcube."""
        if self.leaves is None:
            leaves = []
            for is_oracle, value, m, bits in zip(
                self.oracle.tolist(), self.value.tolist(), self.free().tolist(), self.fixed.tolist()
            ):
                if not is_oracle:
                    leaves.append(ConstLeaf(value))
                    continue
                r = Restriction(self.n, {i: bits >> i & 1 for i in range(self.n) if not m >> i & 1})
                leaves.append(OracleLeaf(restrict(self.source, r), r.free))
            self.leaves = leaves
        return self.leaves

    def with_constants(self, values: np.ndarray) -> DecisionTree:
        """The tree with ``values`` at its oracle leaves, in preorder, as
        constants; it shares the other arrays of this one."""
        tree = copy.copy(self)
        tree.value = self.value.copy()
        tree.value[self.oracle] = values
        tree.oracle = np.zeros_like(self.oracle)
        tree._root = tree.source = tree.leaves = tree.json = None
        return tree

    def nodes(self) -> TreeNode:
        """The nodes of the tree, assembled from the last node back."""
        leaves = reversed(self.leaf_objects())
        stack: list = []
        for is_leaf, var in zip(self.leaf[::-1].tolist(), self.var[::-1].tolist()):
            if is_leaf:
                stack.append(next(leaves))
            else:
                lo = stack.pop()
                stack.append(Node(var, lo, stack.pop()))
        return stack[0]


def from_levels(
    n: int, leaf: np.ndarray, var: np.ndarray, depth: np.ndarray, value: np.ndarray, oracle: np.ndarray,
    leaves: np.ndarray | None = None, sources: list = (None,),
) -> list[DecisionTree]:
    """The trees of dimension n given in level order, one per entry of
    ``sources``, in their array form: the roots first, and the children
    (lo, hi) of the j-th internal node at positions len(sources) + 2j and
    len(sources) + 2j + 1, as `decompose._grow` lists them.

    Per node: whether it is a leaf, its coordinate and its depth, and at a
    leaf its constant ``value``, whether it is an oracle leaf and, when
    ``leaves`` (an object array) is given, its leaf object; entries at
    internal nodes are not read.  An oracle leaf of tree k without an object
    is sources[k] restricted to the leaf's subcube.  Tree k holds views of
    one forest's arrays.  One pass per depth level from the bottom gives
    subtree sizes and ranks; one from the top gives positions and path
    masks.
    """
    check_packable(n, "a tree", 0)
    roots, size = len(sources), leaf.size
    inner = np.flatnonzero(~leaf)
    levels = int(depth[-1])
    # the internal nodes of depth d are inner[at[d]:at[d + 1]], and their
    # children the nodes roots + 2 * at[d] .. roots + 2 * at[d + 1] - 1
    at = np.searchsorted(depth[inner], np.arange(levels + 1)).tolist()
    count = np.ones(size, dtype=np.int64)
    rank = np.zeros(size, dtype=np.int64)

    def family(d: int) -> tuple:
        """The internal nodes of depth d and their lo and hi children."""
        a, b = at[d], at[d + 1]
        return inner[a:b], slice(roots + 2 * a, roots + 2 * b, 2), slice(roots + 2 * a + 1, roots + 2 * b, 2)

    for d in range(levels - 1, -1, -1):
        up, lo, hi = family(d)
        count[up] = 1 + count[lo] + count[hi]
        r0, r1 = rank[lo], rank[hi]
        rank[up] = np.maximum(r0, r1) + (r0 == r1)
    pre = np.empty(size, dtype=np.int64)
    pre[:roots] = np.cumsum(count[:roots]) - count[:roots]
    piece = np.zeros(size, dtype=np.int64)
    tested = np.zeros(size, dtype=np.int64)
    fixed = np.zeros(size, dtype=np.int64)
    valid = (var >= 0) & (var < n)
    bit = np.where(valid, np.left_shift(1, np.where(valid, var, 0)), 0)
    for d in range(levels):
        up, lo, hi = family(d)
        pre[lo] = pre[up] + 1
        pre[hi] = pre[lo] + count[lo]
        # hi before lo: the node opens, then its hi subtree of 2 * count - 1
        # pieces, then a piece between the two, then lo
        piece[hi] = piece[up] + 1
        piece[lo] = piece[hi] + 2 * count[hi]
        node_bit = bit[up]
        tested[lo] = tested[hi] = tested[up] | node_bit
        fixed[lo] = fixed[up]
        fixed[hi] = fixed[lo] | node_bit
    bad = ~leaf & (~valid | (tested & bit != 0))
    order = np.empty_like(pre)
    order[pre] = np.arange(size)  # the node at each preorder position
    leaf_p, var_p, depth_p, count_p, piece_p, bad_p = (a[order] for a in (leaf, var, depth, count, piece, bad))
    ends = order[leaf_p]  # the leaves in preorder
    tested_l, fixed_l, value_l, oracle_l = (a[ends] for a in (tested, fixed, value, oracle))
    first = np.flatnonzero(bad_p).tolist()  # empty unless a tree was made by hand
    node_at = np.concatenate([[0], np.cumsum(count[:roots])]).tolist()
    leaf_at = np.concatenate([[0], np.cumsum((count[:roots] + 1) // 2)]).tolist()
    trees = []
    for k, source in enumerate(sources):
        a, b, la, lb = node_at[k], node_at[k + 1], leaf_at[k], leaf_at[k + 1]
        tree = object.__new__(DecisionTree)
        tree.n, tree._root, tree.rank, tree.source, tree.json = n, None, int(rank[k]), source, None
        tree.leaf, tree.var, tree.depth, tree.count = leaf_p[a:b], var_p[a:b], depth_p[a:b], count_p[a:b]
        tree.piece, tree.tested, tree.fixed = piece_p[a:b], tested_l[la:lb], fixed_l[la:lb]
        tree.value, tree.oracle = value_l[la:lb], oracle_l[la:lb]
        tree.bad = next((int(var_p[i]) for i in first if a <= i < b), None) if first else None
        tree.leaves = None if leaves is None else leaves[ends[la:lb]].tolist()
        trees.append(tree)
    return trees


def _leaf_subcubes(tree: DecisionTree) -> DecisionTree:
    """The tree, whose leaf subcubes partition the cube: leaf k's subcube
    holds the points that read fixed[k] on tested[k].

    The subcubes partition the cube only when no path tests a coordinate
    twice or one outside the dimension; any other tree is rejected.
    """
    if tree.bad is not None:
        raise ValueError(
            f"coordinate {tree.bad} tested twice on a path or outside dimension {tree.n}"
        )
    return tree


def evaluate_many(tree: DecisionTree, xs) -> np.ndarray:
    """Values of the tree at an int64 point array, in its shape.

    The points descend the preorder arrays together, one depth level at a
    time: a point at an internal node moves to the next node, its lo child,
    or past the lo subtree to its hi child.  The points that reach a
    decomposition's oracle leaves are answered by one eval_many of its
    source; each other oracle leaf that some point reaches answers all of
    its points, in ascending order, in one eval_many.  Either way a point
    is charged one query, as its leaf's oracle charges it.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if np.any((xs < 0) | (xs >> tree.n != 0)):
        raise ValueError(f"points outside dimension {tree.n}")
    points = xs.reshape(-1)
    node = np.zeros(points.size, dtype=np.int64)
    going = np.flatnonzero(~tree.leaf[node])
    while going.size:
        at = node[going]
        node[going] = at + 1 + (points[going] >> tree.var[at] & 1) * tree.count[at + 1]
        going = going[~tree.leaf[node[going]]]
    reached = (np.cumsum(tree.leaf) - 1)[node]  # the leaf of each point, in preorder
    out = tree.value[reached]
    asked = np.flatnonzero(tree.oracle[reached])
    if asked.size and tree.source is not None:
        out[asked] = tree.source.eval_many(points[asked])
    elif asked.size:
        asked = asked[np.argsort(reached[asked], kind="stable")]
        objects = tree.leaf_objects()
        for group in np.split(asked, np.flatnonzero(np.diff(reached[asked])) + 1):
            leaf, local = objects[reached[group[0]]], np.zeros(group.size, dtype=np.int64)
            for j, g in enumerate(leaf.free):
                local |= (points[group] >> g & 1) << j
            out[group] = leaf.oracle.eval_many(local)
    return out.reshape(xs.shape)


# leaf tables are read and written as rows of blocks of about this many points
_BLOCK_POINTS = 1 << 16

# Batches of trees of one small dimension are decomposed and measured as one
# stack of tables of at most this many points: the per-tree cost of the
# array passes is spread over the batch, while each of the stack's
# temporaries (leaf points, leaf tables, differences) stays near 128 KB.
STACK_POINTS = 1 << 14


def _subcube_index(n: int, fixed: int, free: int) -> tuple:
    """The index of a subcube in a stack of 2^n-point tables shaped
    (-1,) + (2,) * n: its table (the bits of ``fixed`` above n) at axis 0,
    then an int at each fixed axis and a slice at each free one (axis 1 is
    coordinate n-1), so that none of its points is listed."""
    return (fixed >> n,) + tuple(slice(None) if free >> c & 1 else fixed >> c & 1 for c in reversed(range(n)))


def _leaf_cells(n: int, fixed: np.ndarray, free: np.ndarray, at: np.ndarray) -> Iterator[tuple]:
    """The subcubes of the leaves ``at`` in a stack of 2^n-point tables, as
    pairs (rows, cell): leaf j holds the points that read ``fixed[j]`` (its
    table's index above bit n) outside its mask of free coordinates
    ``free[j]``.

    The leaves are sorted stably by dimension, so the rows of a cell ascend.
    The leaves of one dimension k form cells of at most _BLOCK_POINTS
    points: an int64 array whose row r lists the points of leaf rows[r], its
    fixed bits OR the ascending subsets of its free mask, which are its
    local points in order, built by doubling over the mask's bits from the
    lowest (k array operations per cell; the j-th lowest free coordinate of
    every leaf is found once, in one pass over the leaves of more than j).
    A larger leaf is a cell of its own, the index of its subcube view
    (`_subcube_index`), so none of its points is listed.  `_take` and `_put`
    read and write a stack at a cell.
    """
    if not at.size:
        return
    dims = popcount(free[at])
    at = at[np.argsort(dims, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(dims))]).tolist()
    # lows[j][i - bounds[j + 1]] is the j-th free coordinate of leaf at[i],
    # for the leaves of more than j free coordinates, which come last
    left, lows = free[at], []
    for j in range(len(bounds) - 2):
        rest = left[bounds[j + 1]:]
        lows.append(rest & -rest)
        rest ^= lows[j]
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if 1 << k > _BLOCK_POINTS:
            for j in at[a:b].tolist():
                yield np.array([j]), _subcube_index(n, int(fixed[j]), int(free[j]))
            continue
        for r in range(a, b, _BLOCK_POINTS >> k):
            rows = at[r:min(b, r + (_BLOCK_POINTS >> k))]
            points = np.empty((rows.size, 1 << k), dtype=np.int64)
            points[:, 0] = fixed[rows]
            for j in range(k):
                low = lows[j][r - bounds[j + 1]:][:rows.size, None]
                np.bitwise_or(points[:, :1 << j], low, out=points[:, 1 << j:2 << j])
            yield rows, points


def _take(stack: np.ndarray, n: int, cell) -> np.ndarray:
    """The entries of a stack of 2^n-point tables at a cell of `_leaf_cells`:
    gathered at its points, or its subcube view."""
    return stack[cell] if isinstance(cell, np.ndarray) else stack.reshape((-1,) + (2,) * n)[cell]


def _put(stack: np.ndarray, n: int, cell, fill: np.ndarray) -> None:
    """Writes ``fill``, per row of a cell of `_leaf_cells` its table or one
    value, at the cell in a stack of 2^n-point tables."""
    if isinstance(cell, np.ndarray):
        stack[cell] = fill
    else:
        view = _take(stack, n, cell)
        view[...] = fill.reshape(view.shape if fill.size > 1 else ())


def leaf_blocks(trees: list[DecisionTree], read: np.ndarray, point_queries: bool = False):
    """The tables of the oracle leaves marked in ``read`` of trees of one
    dimension n (one flag per oracle leaf, in preorder, tree after tree), as
    pairs (k, b): row r of the 2-D block b is the table of oracle leaf k[r],
    and the leaves of a block share one dimension.  Each leaf is read and
    charged as its oracle's ``table()`` reads and charges it; with
    ``point_queries``, a 0-dimensional leaf is read as its one query g(0),
    which charges one query even where ``table()`` charges none.

    When every tree is a decomposition whose source's table is cached, as
    within the enumeration cap, the leaves read the stack of those tables
    (`funcs.stacked_table`, each distinct source's table once, however many
    trees share it) at the cells of `_leaf_cells`, and a restriction of a
    cached table charges nothing: a block of at most _BLOCK_POINTS points
    per cell, and a larger leaf alone, copied from its subcube view.  Other
    leaves are read from their objects, one per block.
    """
    at = np.flatnonzero(read)
    if not all(tree.source is not None and tree.source.cached for tree in trees):
        oracles = [lf.oracle for tree in trees for lf in tree.leaf_objects() if isinstance(lf, OracleLeaf)]
        for k in at.tolist():
            g = oracles[k]
            yield np.array([k]), (np.array([g(0)]) if point_queries and not g.n else g.table())[None]
        return
    n = trees[0].n
    sources = {id(tree.source): tree.source for tree in trees}
    slot = {key: k for k, key in enumerate(sources)}  # each source's table in the stack
    tested, fixed, oracle = (np.concatenate(a) for a in zip(*((t.tested, t.fixed, t.oracle) for t in trees)))
    owner = np.repeat(np.array([slot[id(tree.source)] for tree in trees], dtype=np.int64),
                      [tree.oracle.size for tree in trees])
    fixed = (fixed | owner << n)[oracle]
    free = tested[oracle] ^ ((1 << n) - 1)
    stack = stacked_table(list(sources.values()))
    if point_queries:
        queries = np.bincount(fixed[at[free[at] == 0]] >> n, minlength=len(sources))
        for source, k in zip(sources.values(), queries.tolist()):
            source.charge(k)
    for rows, cell in _leaf_cells(n, fixed, free, at):
        yield rows, _take(stack, n, cell).reshape(rows.size, -1)


def _cube_values(trees: list[DecisionTree], what: str, level: int = 0, depths=False, stack=None) -> Iterator:
    """Each tree's value at every point and, with ``depths``, the depth of
    the leaf every point reaches (else None), for trees of one dimension n,
    stacked as `funcs.stacked_table` stacks tables (point k * 2^n + x holds
    tree k at x), as (start, values, depths) of aligned windows of 2^level
    points (by default _BLOCK_POINTS, at least 128: np.sum adds parts of
    fewer in another order).  A window is written cell by cell as
    `_leaf_cells` lists the parts of the leaves that meet it over its low
    min(n, level) coordinates, or as a slice by a leaf that covers it: a
    constant leaf broadcasts its value, and an oracle leaf is charged its
    2^k points once, as `funcs.full_tables` charges them.  When every tree
    is a decomposition, whole or truncated, whose source's table is cached,
    the oracle leaves read the same window of the stack of those tables
    (``stack``, if the caller has it).  Otherwise an oracle leaf is read from
    its object (a decomposition's is its source restricted to its subcube),
    the leaves of a cell in one `funcs.full_tables`, in one window.
    """
    n = trees[0].n
    check_enumerable(n, what)
    if any(tree.n != n for tree in trees):
        raise ValueError(f"trees of dimensions {sorted({tree.n for tree in trees})}")
    for tree in trees:
        _leaf_subcubes(tree)
    tested, fixed, oracle, constants = (
        parts[0] if len(parts) == 1 else np.concatenate(parts)
        for parts in zip(*((t.tested, t.fixed | k << n, t.oracle, t.value) for k, t in enumerate(trees)))
    )
    depth = popcount(tested)[:, None] if depths else None
    free = tested ^ ((1 << n) - 1)
    at, size = np.flatnonzero(oracle), len(trees) << n
    level = level or max(_BLOCK_POINTS, 128).bit_length() - 1
    if all(tree.source is not None and tree.source.cached for tree in trees):
        stack = stacked_table([tree.source for tree in trees]) if stack is None else stack
        sizes = np.int64(1) << popcount(free[at]).astype(np.int64)
        for tree, k in zip(trees, np.bincount(fixed[at] >> n, weights=sizes, minlength=len(trees)).tolist()):
            tree.source.charge(int(k))
    elif at.size:
        objects = [lf.oracle for t in trees if t.oracle.any() for lf in t.leaf_objects() if isinstance(lf, OracleLeaf)]
        ordinal = np.cumsum(oracle) - 1  # each oracle leaf's object
        level = max(level, (size - 1).bit_length())
    width, cells, near = 1 << level, min(n, level), None
    if width < size:  # what a leaf fixes above a window: its tree and its tested bits
        high = (tested | -1 << n) & -width
        key, fixed, free = fixed & high, fixed & (width - 1), free & (width - 1)
    for start in range(0, size, width):
        stop = min(start + width, size)
        window = None if stack is None else stack if width >= size else stack[start:stop]
        values = np.empty(stop - start)
        levels = np.empty(stop - start, dtype=np.int64) if depths else None
        if width < size:
            near = np.flatnonzero(start & high == key)  # the leaves that meet the window
        if near is not None and near.size == 1:  # one leaf covers the window
            values[:] = window if oracle[near[0]] else constants[near[0]]
            if depths:
                levels[:] = depth[near[0]]
            near = near[:0]
        groups = (at, np.flatnonzero(~oracle)) if near is None else (near[oracle[near]], near[~oracle[near]])
        for is_oracle, leaves in zip((True, False), groups):
            for rows, cell in _leaf_cells(cells, fixed, free, leaves):
                if not is_oracle:
                    fill = constants[rows, None]
                elif window is not None:
                    fill = _take(window, cells, cell)
                else:
                    fill = np.array(full_tables([objects[k] for k in ordinal[rows].tolist()]))
                _put(values, cells, cell, fill)
                if depths:
                    _put(levels, cells, cell, depth[rows])
        yield start, values, levels


def tree_table(tree: DecisionTree) -> np.ndarray:
    """Truth table of the tree, little-endian point order."""
    return next(_cube_values([tree], "tree table", tree.n))[1]


def leaf_profile(tree: DecisionTree) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (value, depth of the leaf reached).

    A point disagrees with the depth-d truncation exactly when its leaf depth
    exceeds d and its value is nonzero, so this one traversal determines the
    truncation disagreement at every depth at once.
    """
    return next(_cube_values([tree], "leaf profile", tree.n, depths=True))[1:]


def truncation_disagreements(tree: DecisionTree, dist: ProductDistribution | None = None) -> np.ndarray:
    """Exact Pr[tree != truncate(tree, d)] for every d = 0 .. depth."""
    if dist is None:
        dist = ProductDistribution.uniform(tree.n)
    return profile_disagreements(leaf_profile(tree), dist)


def profile_disagreements(profile: tuple[np.ndarray, np.ndarray], dist: ProductDistribution) -> np.ndarray:
    """`truncation_disagreements` under ``dist``, read from the tree's
    `leaf_profile`, which does not depend on the distribution."""
    vals, depths = profile
    p = dist.probability_vector()
    depth = int(depths.max())  # every leaf holds a point
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
    return int(tree.rank)


def tree_size(tree: DecisionTree) -> int:
    """Number of leaves."""
    return int(tree.oracle.size)


def tree_depth(tree: DecisionTree) -> int:
    """Depth of the deepest leaf."""
    return int(tree.depth.max())


def truncate(tree: DecisionTree, d: int) -> DecisionTree:
    """Replace every internal node at depth d by the constant leaf 0, the
    form the disagreement bound is stated for.  The nodes of depth at most
    d, sorted by depth with ties kept in preorder, are the truncated tree in
    level order (`from_levels`); a decomposition's truncation keeps its
    source."""
    if not isinstance(d, (int, np.integer)) or d < 0:
        raise ValueError(f"depth must be a nonnegative integer, got {d!r}")
    kept = np.flatnonzero(tree.depth <= d)
    kept = kept[np.argsort(tree.depth[kept], kind="stable")]
    leaf = tree.leaf[kept] | (tree.depth[kept] == d)
    # each node's leaf in preorder; -1, a constant-0 leaf, at a cut node
    number = np.where(tree.leaf, np.cumsum(tree.leaf) - 1, -1)[kept]
    leaves = None if tree.leaves is None else np.array([*tree.leaves, ConstLeaf(0.0)], dtype=object)[number]
    return from_levels(
        tree.n, leaf, np.where(leaf, -1, tree.var[kept]), tree.depth[kept], np.append(tree.value, 0.0)[number],
        np.append(tree.oracle, False)[number], leaves, [tree.source],
    )[0]


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


def _constant_leaves(tree: DecisionTree) -> None:
    """Rejects a tree with an oracle leaf."""
    if tree.oracle.any():
        raise NonConstantLeaf("tree has oracle-valued leaves; constantize first")


def to_spectrum(tree: DecisionTree):
    """Exact spectrum of a constant-leaf tree (via its truth table)."""
    _constant_leaves(tree)
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
    (uniform when omitted).  A tree is read a window at a time
    (`_cube_values`); of two trees, the first is made into a table.
    """
    if isinstance(f, DecisionTree) and not isinstance(g, DecisionTree):
        f, g = g, f  # every metric is symmetric: |f - g| = |g - f|
    tf, nf = _as_table(f)
    tg, ng = (_cube_values([g], "tree table"), g.n) if isinstance(g, DecisionTree) else _as_table(g)
    if nf != ng:
        raise ValueError(f"dimension mismatch: {nf} vs {ng}")
    if dist is not None and dist.n != nf:
        raise ValueError(f"distribution dimension {dist.n} != {nf}")
    return _distances(tf, tg, nf, dist, metric)[0]


def exact_distances(
    fs: list[ValueOracle], trees: list[DecisionTree], metric: str = "l2"
) -> list[float]:
    """`exact_distance` (uniform weights) of each oracle and the tree at its
    position, all of one dimension, bit for bit: one pass of `_cube_values`
    over the leaves of all the trees, whose stack of sources is the stack
    of the oracles' tables when each tree is a decomposition of its oracle."""
    n = fs[0].n
    if any(g.n != n for g in fs) or len(trees) != len(fs):
        raise ValueError("exact_distances needs one tree per oracle, all of one dimension")
    tf = stacked_table(fs)
    own = all(tree.source is g for tree, g in zip(trees, fs))
    return _distances(tf, _cube_values(trees, "tree table", stack=tf if own else None), n, None, metric)


def _distances(tf, tg, n: int, dist: ProductDistribution | None, metric: str) -> list[float]:
    """The distance of each 2^n-point table of the stack tf from the table
    at its position in tg, each summed over its own 2^n values: tg is a
    stack, copied, or yields one in windows (start, values, _) of whole
    tables or aligned 2^k-point parts of one, which receive the differences.

    The parts of a table are summed alone, then pairwise in order, as np.sum
    adds the whole row.  A part's weights are its k low coordinates' (the
    doubling of `ProductDistribution.probability_vector`) times each higher
    coordinate's factor in turn, as the whole vector's entries are made;
    the disagreement sums the weights of a table's differing points at once.
    """
    if metric not in ("l1", "l2", "disagreement"):
        raise ValueError(f"unknown metric {metric!r}")
    parts, lows = [], None
    for start, g, _ in [(0, np.array(tg, dtype=float), None)] if isinstance(tg, np.ndarray) else tg:
        f, low = tf[start:start + g.size], min(g.size, 1 << n)  # the points of each part
        # every point weighs 2^-n without dist: the same products and sums as
        # the uniform probability vector, without building it
        w, k = 0.5**n, low.bit_length() - 1
        if dist is not None:
            lows = ProductDistribution(dist.mu[:k]).probability_vector() if lows is None else lows
            w = lows
            for i in range(k, n):
                w = w * (dist.mu[i] if start >> i & 1 else 1.0 - dist.mu[i])
        if metric == "disagreement":
            differ = (f != g).reshape(-1, low)
            parts += [w[row] for row in differ] if dist is not None else [np.count_nonzero(differ, axis=1)]
            continue
        d = np.subtract(f, g, out=g).reshape(-1, low)
        (np.abs if metric == "l1" else np.square)(d, out=d)
        np.multiply(d, w, out=d)
        # a row sum along the contiguous axis adds in the same pairwise order
        # as np.sum over that row alone
        parts.append(d.sum(axis=1))
    each = (1 << n) // low  # the parts of a table
    if metric == "disagreement" and dist is not None:
        return [float(np.sum(np.concatenate(parts[k:k + each]))) for k in range(0, len(parts), each)]
    sums = np.concatenate(parts).reshape(-1, each)
    if metric == "disagreement":
        return (sums.sum(axis=1) * w).tolist()
    while sums.shape[1] > 1:
        sums = sums[:, 0::2] + sums[:, 1::2]
    totals = sums[:, 0].tolist()
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
    check_packable(n, "a tree", 0)
    rng = np.random.default_rng((0x7EEE, seed, n))
    if leaf_prob is None:
        leaf_prob = float(rng.uniform(0.15, 0.6))
    if max_depth is None:
        max_depth = n

    # drawn depth first, lo before hi: the nodes come in preorder
    nodes, todo = [], [(list(range(n)), 0, n > 0)]
    while todo:
        available, d, force_split = todo.pop()
        if not available or d >= max_depth or not force_split and rng.random() < leaf_prob:
            nodes.append((-1, d, float(rng.uniform(0.0, 1.0))))
            continue
        k = int(rng.integers(len(available)))
        nodes.append((available[k], d, 0.0))
        todo += [(available[:k] + available[k + 1:], d + 1, False)] * 2
    var, depth, value = (np.array(a) for a in zip(*nodes))
    level = np.argsort(depth, kind="stable")
    var = var[level]
    return from_levels(n, var < 0, var, depth[level], value[level], np.zeros(var.size, dtype=bool))[0]


# --- serialization -----------------------------------------------------------

def to_json_chunks(tree: DecisionTree, indent: int = 0) -> Iterator[str]:
    """The tree's text, ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    of the nested object whose nodes are {"var": 1-based coordinate, "lo":
    ..., "hi": ...} and whose leaves are {"leaf": value}, in chunks of at most
    `JSON_BATCH` pieces; leaves must be constants, which is checked before
    the first chunk.  With ``indent`` set, the text is the tree as the
    indenting encoder writes it as a value ``indent`` levels deep: every line
    after the first that much deeper, and no final newline.

    The text is made of pieces placed by the array form, hi before lo: a
    node at depth d opens with '{"hi": ' at its position, writes '"lo": '
    between its subtrees and '"var": ...}' after them, and a leaf is one
    piece.  Each piece is rendered once per depth and coordinate or per
    depth and distinct leaf value (by its bits, so -0.0 keeps its sign), and
    the distinct pieces and each position's piece index are kept on the
    array form, so another indent re-indents only the distinct pieces.  A
    chunk joins the pieces of one batch of positions: no whole text is made.
    With ``indent`` set the json module would run its pure-Python encoder
    over nested dicts that would exist only to be encoded.
    """
    _constant_leaves(tree)
    if tree.json is None:
        tree.json = _json_table(tree)
    texts, codes = tree.json
    if indent:
        # one replace over all distinct pieces: json.dumps escapes NUL, so
        # no piece holds one
        deeper = "\0".join(texts.tolist()).replace("\n", "\n" + "  " * indent)
        texts = np.array(deeper.split("\0"), dtype=object)
    chunks = (
        "".join(texts[codes[at : at + JSON_BATCH]].tolist()) for at in range(0, codes.size, JSON_BATCH)
    )
    return chunks if indent else itertools.chain(chunks, ["\n"])


def _json_table(tree: DecisionTree) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pieces of the tree's JSON text, as an object array, and
    the index of each position's piece in it."""
    pad = ["  " * d for d in range(int(tree.depth.max()) + 2)]
    inner, ends = np.flatnonzero(~tree.leaf), np.flatnonzero(tree.leaf)
    depth, start = tree.depth[inner], tree.piece[inner]
    texts = [f'{{\n{p}"hi": ' for p in pad[1:]] + [f',\n{p}"lo": ' for p in pad[1:]]
    codes = np.empty(2 * tree.leaf.size - 1, dtype=np.int64)
    codes[start] = depth
    codes[tree.piece[inner + 1] - 1] = len(pad) - 1 + depth
    variables, var_of = np.unique(tree.var[inner], return_inverse=True)
    codes[start + 2 * tree.count[inner] - 2] = _rendered(
        texts, depth, var_of, [str(var + 1) for var in variables.tolist()],
        lambda d, text: f',\n{pad[d + 1]}"var": {text}\n{pad[d]}}}',
    )
    if tree.leaves is None:
        _, first, value_of = np.unique(tree.value.view(np.uint64), return_index=True, return_inverse=True)
        distinct = tree.value[first].tolist()
        labels = list(map(float.__repr__, distinct))
        for k in np.flatnonzero(~np.isfinite(tree.value[first])).tolist():
            labels[k] = json.dumps(distinct[k])
    else:  # a leaf object's value may be an int, written as one
        value_of, labels = np.arange(ends.size), [_json_scalar(lf.value) for lf in tree.leaves]
    codes[tree.piece[ends]] = _rendered(
        texts, tree.depth[ends], value_of, labels,
        lambda d, text: f'{{\n{pad[d + 1]}"leaf": {text}\n{pad[d]}}}',
    )
    table = np.empty(len(texts), dtype=object)
    table[:] = texts
    return table, codes


def _rendered(texts: list[str], depth: np.ndarray, keys: np.ndarray, labels: list[str], render) -> np.ndarray:
    """Appends render(d, labels[k]) to ``texts`` once per distinct pair of a
    depth d and a key k, and returns the index in ``texts`` of each
    element's."""
    _, first, pair_of = np.unique(depth * len(labels) + keys, return_index=True, return_inverse=True)
    at = len(texts)
    texts += [render(d, labels[k]) for d, k in zip(depth[first].tolist(), keys[first].tolist())]
    return at + pair_of


def _json_scalar(value) -> str:
    """``json.dumps(value)``; a finite float is its repr, as json writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)
