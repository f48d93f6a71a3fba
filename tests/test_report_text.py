"""The decompose report writers against the json module's indenting encoder.

`dtree.to_json_chunks` and `DecompositionReport.to_json_chunks` write the
text that ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` gives for the
nested objects, in chunks, without building them.  The references below
build the objects and run that encoder; every comparison is of the joined
chunks, bit for bit.
"""

import itertools
import json
import math
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tree_text
from submodtree import cli, dtree
from submodtree.decompose import (
    DecompositionReport,
    LeafCertificate,
    build_lipschitz_tree,
    constantize_leaves,
)
from submodtree.dtree import ConstLeaf, DecisionTree, Node, exact_distance
from submodtree.funcs import generate_random, instantiate


def ref_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def report_text(report: DecompositionReport, tree: DecisionTree, **extra) -> str:
    return "".join(report.to_json_chunks(tree, **extra))


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
    assert tree_text(tree) == ref_dump(ref_tree_obj(tree))


def test_tree_text_of_a_single_leaf_and_of_every_depth():
    for n in range(7):
        for depth in range(n + 1):
            tree = with_leaf_values(
                dtree.random_tree(n, seed=depth, leaf_prob=0.0, max_depth=depth), SPECIAL + [3, -7]
            )
            assert dtree.tree_depth(tree) == depth
            assert tree_text(tree) == ref_dump(ref_tree_obj(tree))


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
    assert report_text(report, tree, instance=instance, max_l1_error=err) == ref_dump(obj)


# --- chunk edges ------------------------------------------------------------
#
# The writers join at most `dtree.JSON_BATCH` pieces per chunk.  With the
# batch patched to sizes that split the pieces at every kind of boundary,
# the joined chunks must still be the encoder's text.

BATCHES = [1, 2, 3, 7, 16, 1024]


def assert_same_text(got: str, want: str) -> None:
    """got == want; on a difference, the first differing offset, not a diff of
    two texts of megabytes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at offset {at}: {got[at - 30 : at + 30]!r} != {want[at - 30 : at + 30]!r}")


@pytest.fixture(scope="module")
def deep():
    """`decompose`'s report, constant-leaf tree and l1 error on the matroid
    instance of the deep-tree benchmark (n=16, pool seed 0: 21,504 leaves),
    and the encoder's texts of tree.json and report.json."""
    f = instantiate(generate_random("matroid_rank_partition", 16, 0))
    report = build_lipschitz_tree(f, 0.05)
    tree, err = constantize_leaves(report), exact_distance(f, report.tree, metric="l1")
    obj = ref_report_obj(report)
    obj.update(instance="matroid_rank_partition-n16-s0", max_l1_error=err, tree=ref_tree_obj(tree))
    return report, tree, err, ref_dump(ref_tree_obj(tree)), ref_dump(obj)


@settings(max_examples=60, deadline=None)
@given(trees(), certificate_lists, st.sampled_from(BATCHES))
def test_batched_chunks_join_to_the_encoders_text(tree, flag_lists, batch):
    report = DecompositionReport(
        tree=tree, alpha=0.25, rank=dtree.rank(tree), claimed_rank_bound=4.0,
        leaf_certificates=[LeafCertificate(*flags) for flags in flag_lists],
    )
    obj = ref_report_obj(report)
    obj.update(instance="i", max_l1_error=0.5, tree=ref_tree_obj(tree))
    with mock.patch.object(dtree, "JSON_BATCH", batch):
        assert tree_text(tree) == ref_dump(ref_tree_obj(tree))
        assert report_text(report, tree, instance="i", max_l1_error=0.5) == ref_dump(obj)


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_chunks_of_special_leaf_values(batch):
    tree = with_leaf_values(dtree.random_tree(9, seed=5, leaf_prob=0.0), SPECIAL + [3, -7, 10**20])
    certs = [LeafCertificate(*FLAGS[k % len(FLAGS)]) for k in range(dtree.tree_size(tree))]
    report = DecompositionReport(tree, 0.1, dtree.rank(tree), 9.0, certs, leaf_mean_samples=12)
    obj = ref_report_obj(report)
    obj.update(instance="special", max_l1_error=-0.0, tree=ref_tree_obj(tree))
    with mock.patch.object(dtree, "JSON_BATCH", batch):
        assert_same_text(tree_text(tree), ref_dump(ref_tree_obj(tree)))
        assert_same_text(report_text(report, tree, instance="special", max_l1_error=-0.0), ref_dump(obj))


@pytest.mark.parametrize("batch", BATCHES + [dtree.JSON_BATCH])
def test_batched_chunks_of_the_deep_tree(deep, batch):
    report, tree, err, ref_tree_text, ref_report_text = deep
    instance = "matroid_rank_partition-n16-s0"
    with mock.patch.object(dtree, "JSON_BATCH", batch):
        assert_same_text(tree_text(tree), ref_tree_text)
        assert_same_text(report_text(report, tree, instance=instance, max_l1_error=err), ref_report_text)


# a piece is one leaf, one node's opening, middle or closing, or one
# certificate: a few lines indented at most 2 * (n + 3) spaces at n = 16
PIECE_CHARS = 256


@pytest.mark.parametrize("batch", [100, dtree.JSON_BATCH])
def test_decompose_writes_each_json_file_a_batch_at_a_time(tmp_path, monkeypatch, batch):
    writes: dict[str, list[int]] = {}

    class Recorded:
        def __init__(self, path, mode):
            self.fh, self.sizes = open(path, mode), writes.setdefault(Path(path).name, [])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.sizes.append(len(text))
            return self.fh.write(text)

    monkeypatch.setattr(cli, "open", Recorded, raising=False)
    monkeypatch.setattr(dtree, "JSON_BATCH", batch)
    argv = ["decompose", "--family", "matroid_rank_partition", "--n", "16", "--seed", "0", "--alpha", "0.05"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    for name in ("report.json", "tree.json"):
        size = (tmp_path / name).stat().st_size
        assert sum(writes[name]) == size
        assert max(writes[name]) <= batch * PIECE_CHARS < size, name
    # one piece per leaf and node in the tree, one per leaf in the certificates
    assert len(writes["tree.json"]) > 2 * 21504 / batch
    assert len(writes["report.json"]) > 3 * 21504 / batch
