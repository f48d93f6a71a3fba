import json

import numpy as np
import pytest

from submodtree import dtree
from submodtree.cube import popcount
from submodtree.dtree import ConstLeaf, DecisionTree, Node, OracleLeaf
from submodtree.fourier import Spectrum
from submodtree.funcs import (
    GENERATED_FAMILIES,
    TOL,
    FamilySpec,
    Restriction,
    ValueOracle,
    generate_random,
    instantiate,
    restrict,
)


@pytest.fixture
def or2() -> ValueOracle:
    return ValueOracle.from_table([0.0, 1.0, 1.0, 1.0])


@pytest.fixture
def and2() -> ValueOracle:
    return ValueOracle.from_table([0.0, 0.0, 0.0, 1.0])


@pytest.fixture
def edge_cut() -> ValueOracle:
    return instantiate(FamilySpec("cut", 2, {"edges": [[1, 2]]}))


def pt(s: str) -> int:
    """The packed point of a bitstring written coordinate 1 first."""
    return sum(1 << i for i, c in enumerate(s) if c == "1")


def tree_text(tree: DecisionTree) -> str:
    """The chunks of `dtree.to_json_chunks`, joined: the text of tree.json."""
    return "".join(dtree.to_json_chunks(tree))


def tree_from_json(text: str, n: int) -> DecisionTree:
    """The constant-leaf tree of the text of `tree_text`."""

    def conv(o):
        if "leaf" in o:
            return ConstLeaf(float(o["leaf"]))
        return Node(int(o["var"]) - 1, conv(o["lo"]), conv(o["hi"]))

    return DecisionTree(n, conv(json.loads(text)))


def subcube_points(bits: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of subcubes, one subcube after another, each in ascending
    order, and the size of each subcube: the reference lister of leaf points,
    which lists every point of every subcube at once.

    Subcube k holds the points that read ``bits[k]`` outside its mask of
    free coordinates ``free[k]`` (``bits[k]`` has no free bit set).  A point
    is its subcube's bits OR a subset of its free mask; the ascending subsets
    of each distinct mask are built once, by doubling.
    """
    masks = free.tolist()
    subsets: dict[int, np.ndarray] = {}
    for m in set(masks):
        out = subsets[m] = np.zeros(1 << m.bit_count(), dtype=np.int64)
        size = 1
        for i in range(m.bit_length()):
            if m >> i & 1:
                np.bitwise_or(out[:size], 1 << i, out=out[size:2 * size])
                size *= 2
    one = len(masks) == 1  # one subcube: its points are its subsets, not a copy of them
    points = subsets[masks[0]] if one else np.concatenate([subsets[m] for m in masks])
    subsets.clear()  # at most 2^n values, no longer needed
    sizes = np.int64(1) << popcount(free).astype(np.int64)
    points |= bits[0] if one else np.repeat(bits, sizes)
    return points, sizes


def leaf_map(tree):
    """The partition of the cube by a tree's leaves: the int32 leaf of
    every point, leaves in preorder, and the int64 free mask of every leaf."""
    flat = dtree._leaf_subcubes(tree)
    paths, fixed = flat.tested, flat.fixed
    points, sizes = subcube_points(fixed, paths ^ ((1 << tree.n) - 1))
    leaf_of = np.empty(1 << tree.n, dtype=np.int32)
    leaf_of[points] = np.repeat(np.arange(len(paths), dtype=np.int32), sizes)
    return leaf_of, paths ^ ((1 << tree.n) - 1)


def leaves_of(tree):
    """The leaf objects of a tree in the array form's order: preorder, lo
    before hi, the same objects that ``tree.root`` holds."""
    return tree.leaf_objects()


def spectrum_of(n: int, coeffs: dict) -> Spectrum:
    """The Spectrum of a mask -> coefficient dict given in any order."""
    masks = sorted(coeffs)
    return Spectrum(n, masks, [coeffs[s] for s in masks])


def as_dict(sp: Spectrum) -> dict:
    """The spectrum as a mask -> coefficient dict, by ascending mask."""
    return dict(zip(sp.masks.tolist(), sp.coeffs.tolist()))


def small_corpus(ns=(4, 6, 8), seeds=(0, 1, 2)):
    """A light slice of the generated corpus for module-level tests."""
    from submodtree.funcs import iter_corpus

    return list(iter_corpus(ns=ns, seeds=seeds))


def random_table_oracle(n: int, seed: int, lo=0.0, hi=1.0) -> ValueOracle:
    rng = np.random.default_rng((0xABCD, seed, n))
    return ValueOracle.from_table(rng.uniform(lo, hi, size=1 << n))


def random_table(n, seed, alpha):
    """A finite table whose differences often sit exactly at the bounds.

    Values on a grid of 0, +-TOL, +-alpha and alpha + TOL give second
    differences of exactly TOL and derivatives of exactly alpha + TOL and
    -TOL; the other tables are a submodular family with a planted bump, or
    uniform noise.
    """
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        levels = np.array([0.0, TOL, -TOL, 2 * TOL, alpha, alpha + TOL, -alpha - TOL, 1.0])
        return rng.choice(levels, size=1 << n)
    if kind == 1 and n >= 1:
        family = GENERATED_FAMILIES[seed % len(GENERATED_FAMILIES)]
        t = instantiate(generate_random(family, max(n, 2), seed)).table()[: 1 << n].copy()
        if rng.random() < 0.5:
            t[rng.integers(1 << n)] += rng.choice([TOL, 0.3, -0.3])
        return t
    return rng.uniform(-1.0, 1.0, size=1 << n)


def with_oracle_leaves(tree, f):
    """The shape of ``tree`` with every leaf replaced by f restricted to it."""

    def walk(node, fixed):
        if isinstance(node, Node):
            return Node(
                node.var,
                walk(node.lo, {**fixed, node.var: 0}),
                walk(node.hi, {**fixed, node.var: 1}),
            )
        r = Restriction(f.n, fixed)
        return OracleLeaf(restrict(f, r), r.free)

    return DecisionTree(f.n, walk(tree.root, {}))
