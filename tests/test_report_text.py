"""The decompose report writers against the json module's indenting encoder.

`dtree.to_json_text` and `DecompositionReport.to_json_text` write the text
that ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` gives for the
nested objects, without building them.  The references below build the
objects and run that encoder; every comparison is bit for bit.
"""

import itertools
import json
import math

from hypothesis import given, settings, strategies as st

from submodtree import dtree
from submodtree.decompose import DecompositionReport, LeafCertificate
from submodtree.dtree import ConstLeaf, DecisionTree, Node


def ref_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def ref_tree_obj(tree: DecisionTree):
    """The nested object of a constant-leaf tree; variables 1-based."""

    def conv(node):
        if isinstance(node, ConstLeaf):
            return {"leaf": node.value}
        return {"var": node.var + 1, "lo": conv(node.lo), "hi": conv(node.hi)}

    return conv(tree.root)


def ref_report_obj(report: DecompositionReport) -> dict:
    return {
        "n": report.tree.n,
        "alpha": report.alpha,
        "phase": report.phase,
        "rank": report.rank,
        "claimed_rank_bound": report.claimed_rank_bound,
        "rank_bound_ok": report.rank_bound_ok(),
        "leaf_certificates": [
            {
                "alpha_monotone_ok": c.alpha_monotone_ok,
                "lipschitz_ok": c.lipschitz_ok,
                "submodular_ok": c.submodular_ok,
            }
            for c in report.leaf_certificates
        ],
        "leaf_mean_samples": report.leaf_mean_samples,
    }


def with_leaf_values(tree: DecisionTree, values) -> DecisionTree:
    """The tree with its leaves, in order, holding the values (cycled) as given."""
    it = itertools.cycle(values)

    def walk(node):
        if isinstance(node, ConstLeaf):
            return ConstLeaf(next(it))
        return Node(node.var, walk(node.lo), walk(node.hi))

    return DecisionTree(tree.n, walk(tree.root))


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 0.1, math.nan, math.inf, -math.inf]
leaf_values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**20), 10**20),
)
FLAGS = [*itertools.product((True, False), repeat=3), (None, None, None)]


@st.composite
def trees(draw):
    n = draw(st.integers(0, 9))
    tree = dtree.random_tree(
        n,
        seed=draw(st.integers(0, 2**32 - 1)),
        leaf_prob=draw(st.sampled_from([None, 0.0, 0.3])),
        max_depth=draw(st.integers(0, n)),
    )
    return with_leaf_values(tree, draw(st.lists(leaf_values, min_size=1, max_size=12)))


@settings(max_examples=150, deadline=None)
@given(trees())
def test_tree_text_matches_the_indenting_encoder(tree):
    assert dtree.to_json_text(tree) == ref_dump(ref_tree_obj(tree))


def test_tree_text_of_a_single_leaf_and_of_every_depth():
    for n in range(7):
        for depth in range(n + 1):
            tree = with_leaf_values(
                dtree.random_tree(n, seed=depth, leaf_prob=0.0, max_depth=depth), SPECIAL + [3, -7]
            )
            assert dtree.tree_depth(tree) == depth
            assert dtree.to_json_text(tree) == ref_dump(ref_tree_obj(tree))


certificate_lists = st.one_of(
    st.just([]),
    st.lists(st.sampled_from(FLAGS), min_size=1, max_size=40),
    st.sampled_from(FLAGS).map(lambda flags: [flags] * 5),
)


@settings(max_examples=150, deadline=None)
@given(
    trees(),
    certificate_lists,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6),
    st.integers(0, 200),
    st.sampled_from(["lipschitz", "monotone"]),
    st.one_of(st.none(), st.integers(1, 10**7)),
    st.text(max_size=12),
    st.floats(allow_nan=True, allow_infinity=True),
)
def test_report_text_matches_the_indenting_encoder(
    tree, flag_lists, alpha, bound, rank, phase, samples, instance, err
):
    # fresh certificate objects: equal flags, not shared objects, share a block
    report = DecompositionReport(
        tree=tree,
        alpha=alpha,
        rank=rank,
        claimed_rank_bound=bound,
        leaf_certificates=[LeafCertificate(*flags) for flags in flag_lists],
        phase=phase,
        leaf_mean_samples=samples,
    )
    obj = ref_report_obj(report)
    obj["instance"] = instance
    obj["max_l1_error"] = err
    obj["tree"] = ref_tree_obj(tree)
    assert report.to_json_text(tree, instance=instance, max_l1_error=err) == ref_dump(obj)
