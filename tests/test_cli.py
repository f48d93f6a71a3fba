import hashlib
import json
from pathlib import Path

import pytest

from submodtree.cli import main


def run(argv) -> int:
    return main(argv)


def write_family(tmp_path: Path, name: str, obj: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_decompose_inline_cut(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(
        ["decompose", "--family", "cut", "--edges", "1-2", "--n", "2", "--alpha", "0.5",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rank"] <= 4
    assert report["max_l1_error"] == 0.0
    assert (out / "tree.json").exists()
    rank_csv = (out / "rank.csv").read_text()
    assert rank_csv.splitlines()[0] == "instance,lhs,rhs,margin,pass"


def test_decompose_rejects_non_submodular(tmp_path):
    path = write_family(
        tmp_path, "and2.json", {"family": "truth_table", "n": 2, "values": [0, 0, 0, 1]}
    )
    code = run(["decompose", "--family", "truth_table", "--file", path, "--alpha", "0.5"])
    assert code == 2


def test_decompose_missing_file():
    code = run(["decompose", "--file", "/nonexistent/x.json", "--alpha", "0.5"])
    assert code == 1


def test_usage_error_exit_code():
    assert run(["decompose", "--family", "cut", "--n", "2"]) == 1  # --alpha missing
    assert run(["verify", "nonsense"]) == 1


def test_verify_all_small(tmp_path):
    out = tmp_path / "v"
    code = run(["verify", "all", "--n", "8", "--seeds", "2", "--smax", "6", "--k", "2",
                "--out", str(out)])
    assert code == 0
    for name in ("variance", "parseval", "pairwise", "rank", "pruning", "correlation", "embedding"):
        text = (out / f"{name}.csv").read_text()
        assert text.splitlines()[0] == "instance,lhs,rhs,margin,pass"
        assert all(line.endswith(",true") for line in text.splitlines()[1:])


def test_learn_pac_sampled_defaults(tmp_path):
    out = tmp_path / "lp"
    code = run(
        ["learn", "pac", "--family", "coverage", "--n", "10", "--epsilon", "0.25",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "run.json").read_text())
    assert report["exact_l2_error"] <= 0.25
    assert report["samples"] == 1 << 16


def test_learn_pac_exact(tmp_path):
    out = tmp_path / "learn"
    code = run(
        ["learn", "pac", "--family", "coverage", "--n", "8", "--seed", "7",
         "--epsilon", "0.25", "--exact", "--gamma", "0.05", "--degree", "4",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "run.json").read_text())
    assert report["exact_l2_error"] <= 0.25
    assert (out / "hypothesis.csv").read_text().startswith("mask,coefficient")


def test_learn_exact_respects_cap(monkeypatch):
    monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "6")
    code = run(
        ["learn", "pac", "--family", "coverage", "--n", "8", "--epsilon", "0.5", "--exact"]
    )
    assert code == 1


def test_learn_agnostic_with_competitor(tmp_path):
    target = write_family(
        tmp_path,
        "target.json",
        {"family": "truth_table", "n": 4, "values": [0.0, 1.0] * 8},
    )
    code = run(
        ["learn", "agnostic-l2", "--file", target, "--epsilon", "0.5", "--L", "2.0",
         "--competitor", target, "--out", str(tmp_path / "ag")]
    )
    assert code == 0
    report = json.loads((tmp_path / "ag" / "run.json").read_text())
    assert report["contract_ok"] is True


def test_hardness_correlation(tmp_path):
    out = tmp_path / "h"
    assert run(["hardness", "correlation", "--smax", "10", "--out", str(out)]) == 0
    text = (out / "correlation.csv").read_text()
    assert text.splitlines()[0] == "s,closed_form,brute_force,exact_match"
    assert "2,-1/2,-1/2,true" in text
    assert all(line.endswith(",true") for line in text.splitlines()[1:])


def test_hardness_embed_with_file(tmp_path):
    path = write_family(
        tmp_path, "xor3.json",
        {"family": "truth_table", "n": 3, "values": [0, 1, 1, 0, 1, 0, 0, 1]},
    )
    out = tmp_path / "e"
    assert run(["hardness", "embed", "--f", path, "--out", str(out)]) == 0
    report = json.loads((out / "embed_report.json").read_text())
    assert report["monotone"] and report["submodular"] and report["roundtrip_exact"]


def test_hardness_lpn_small(tmp_path):
    out = tmp_path / "lpn"
    code = run(
        ["hardness", "lpn", "--n", "12", "--k", "2", "--eta", "0.0", "--trials", "5",
         "--samples", str(1 << 13), "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "lpn.json").read_text())
    assert report["successes"] == 5


def test_spectrum_output(tmp_path, capsys):
    code = run(["spectrum", "--family", "cut", "--n", "2", "--edges", "1-2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mask,coefficient"
    assert lines[1] == "0,0.5"
    assert lines[2] == "3,-0.5"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "variance", "--n", "5", "--seeds", "2"],
        ["decompose", "--family", "coverage", "--n", "6", "--seed", "3", "--alpha", "0.5"],
        ["learn", "pac", "--family", "coverage", "--n", "8", "--seed", "1",
         "--epsilon", "0.5", "--gamma", "0.1", "--degree", "3", "--samples", "4096"],
        ["hardness", "lpn", "--n", "10", "--k", "1", "--eta", "0.1", "--trials", "3",
         "--samples", "4096"],
    ],
)
def test_reports_are_byte_identical_across_reruns(tmp_path, argv):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["decompose", "--file", "SPEC", "--alpha", "0.5"], {"n": 3}),
        (["decompose", "--file", "SPEC", "--alpha", "0.5"], {"family": "cut", "n": 3}),
        (["decompose", "--file", "SPEC", "--alpha", "0.5"], {"family": "cut", "n": 3, "edges": 5}),
        (["spectrum", "--file", "SPEC"], {"family": "coverage", "n": "3"}),
        (["spectrum", "--file", "SPEC"], [1, 2]),
        (["decompose", "--family", "cut", "--n", "4", "--alpha", "inf"], None),
        (["decompose", "--family", "cut", "--n", "4", "--alpha", "nan"], None),
        (["decompose", "--family", "cut", "--n", "4", "--alpha", "-0.5"], None),
        (["learn", "pac", "--family", "coverage", "--n", "8", "--epsilon", "nan"], None),
        (["learn", "pac", "--family", "coverage", "--n", "8", "--epsilon", "0"], None),
        (["learn", "pac", "--family", "coverage", "--n", "70", "--epsilon", "0.5"], None),
        (["decompose", "--family", "cut", "--n", "0", "--alpha", "0.5"], None),
        (["learn", "pac", "--family", "coverage", "--n", "8", "--epsilon", "0.5",
          "--samples", "0"], None),
        (["hardness", "lpn", "--trials", "0"], None),
        (["verify", "variance", "--seeds", "0"], None),
        (["verify", "variance", "--n", "3"], None),
        (["verify", "correlation", "--smax", "1"], None),
        (["verify", "embedding", "--k", "0"], None),
        (["hardness", "lpn", "--n", "70", "--k", "2"], None),
        (["decompose", "--file", "SPEC", "--alpha", "0.5"],
         {"family": "truth_table", "n": 2, "values": [0.0, float("nan"), 0.5, 1.0]}),
        (["decompose", "--file", "SPEC", "--alpha", "0.5"],
         {"family": "truth_table", "n": 1, "values": [0.0, float("inf")]}),
        (["decompose", "--file", "SPEC", "--alpha", "0.5"],
         {"family": "budget_additive", "n": 2, "weights": [0.5, float("nan")], "budget": 1.0}),
        (["decompose", "--file", "SPEC", "--alpha", "0.5"],
         {"family": "budget_additive", "n": 2, "weights": [0.5, 0.5], "budget": float("inf")}),
        (["decompose", "--file", "SPEC", "--alpha", "0.5"],
         {"family": "concave_profile", "n": 2, "profile": [0.0, float("nan"), 1.0]}),
        (["hardness", "correlation", "--smax", "1"], None),
        (["hardness", "correlation", "--smax", "-4"], None),
        (["hardness", "lpn", "--k", "0", "--n", "8"], None),
        (["hardness", "lpn", "--k", "9", "--n", "8"], None),
        (["learn", "pac", "--family", "coverage", "--n", "8", "--epsilon", "0.5",
          "--degree", "-1"], None),
        (["learn", "agnostic-l2", "--family", "coverage", "--n", "8", "--epsilon", "0.5",
          "--degree", "-2"], None),
    ],
)
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, argv, spec):
    if spec is not None:
        path = write_family(tmp_path, "spec.json", spec)
        argv = [path if a == "SPEC" else a for a in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err


# sha256 of the report files of `decompose --n 12 --alpha 0.25`, as written
# before leaf certification became one strided pass over the parent table
GOLDEN_DECOMPOSE_N12 = {
    "coverage": (
        "edae1af24e43279d52aa2d9bd572e47a563e91115302abca65ff92af3c602c78",
        "f6a653ffb90b8d1199859332b07f3c7af45e247a127324463eb15f4d7610e780",
        "3e5a054e90180f7bce75a1130334523e7f4d6dfba0f5e904048428ebcc373bec",
    ),
    "cut": (
        "82ccd4094d587a8c15fa27e7b0481ff8684478fbed19c9769169f3d185e2815a",
        "0b2a8577ce364a78082376ed3bbd634bab84b3e82fa3e8330c7ffe4f8785e980",
        "1713f1296a4c7b56e0def5b7dcf2ca957aca3b0218daba53a42f874039179405",
    ),
    "budget_additive": (
        "116a260e048e9e4e24c0b725f9527147593594316e50d9ae04812996d6cc2510",
        "2660ccaf5e84b43d0a2e79de99d967af39ef61272ba0039df1de49fcfcf9ee88",
        "e28411d904d0d1a67a4f2e8269678e2b7c86d21ea9975deb44055570eebb53ff",
    ),
    "matroid_rank_partition": (
        "e691bed9c2269931a268aab311367d5d9cca04b677c5c1d33cbb66b3e5678773",
        "12f7e8708866507368ceb24bfe39808daeabca31da7df5cea2823a92c7f1c76d",
        "ef19fc26dc11becdd2eb6b958ffa9623beedb303edf0218ee4fd5fd9f27c76ef",
    ),
    "concave_profile": (
        "bfefd0d6bad261b90cc1c9cdbf2317a8ca217a44f68ea2e34bc5ced516d78f61",
        "45ed873ad59092aff9a4d4886d47d6c3191a65ee8b883541d9505338abd3759d",
        "a1e317b70d0c4e4557a0d80ddcd368144caf294ba36b4501b1e8b63fea95b8e8",
    ),
}


# the same at --alpha 0.05, written before the decomposition grew level by
# level; its leaves hold from 1 to 1024 points, so the leaf means cross
# numpy's 8- and 128-element pairwise-summation blocks
GOLDEN_DECOMPOSE_N12_A005 = {
    "coverage": (
        "ffd78e1377cde11323a0afdcf9a4399ae0f64a26eae168dfd49b064c5fd35f86",
        "bf81c6c669d13950bacb2f2dc50e76252ccd93532250f054cedc62da08867164",
        "cf69762e16d6428ceb49b08582843ea96f0f120602b1ad621616bb99f46ab376",
    ),
    "cut": (
        "f19a85d02d7f9b91e758ee8127741157995867a42e5c2b2c51691276b853c31f",
        "52da62a3827c3a206c63020c698490030c1696551c0ee5a0e05050194b1ce41c",
        "ce85aafad9c6f912617a9a8053a1d0a39a33bdda7727df23932194f9644ee564",
    ),
    "budget_additive": (
        "b2e0b699d8e9f136b45ccff477eb0f1370b3e84861f9ce220ed796cfc88858e5",
        "9b01e59feb7341d9ddf0142170e2be860b868c0443a47d7a4cdc2f525cc9d490",
        "90457980e92c04cf455205013fe8c5c87cc95fd2c8ed78bb7fad29ca6cbe0484",
    ),
    "matroid_rank_partition": (
        "efa0b8e63fac8e6cd75e12f2aa5a0d800e0e25ae9df98e13039107d9e0de2c90",
        "d165000d0c54266f2f47bdfb6831c4e398a8035c5fb8f93efeab77feceadbbeb",
        "0e96d58517bf334d0bc52b44e08944742f634b509216d38f4ff278e313b269d5",
    ),
    "concave_profile": (
        "542fdfb1dd6f604cb33c9cbd702630f267bc01526783efbf3e60f01202c99031",
        "f09f87ecb728cb95817ad8ca657f6dfd40550eababa377597a21fe8806ca06a3",
        "c81311c82bc5e1a3176f2602f5370a46e6d4be3e846e10a4fea8c1f58a6d3d4b",
    ),
}


def _decompose_hashes(out: Path, family: str, alpha: str) -> tuple[str, ...]:
    assert run(["decompose", "--family", family, "--n", "12", "--alpha", alpha,
                "--out", str(out)]) == 0
    tree = json.loads((out / "tree.json").read_text())
    assert json.loads((out / "report.json").read_text())["tree"] == tree
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "tree.json", "rank.csv")
    )


@pytest.mark.parametrize("family", sorted(GOLDEN_DECOMPOSE_N12))
def test_decompose_reports_match_golden_hashes(tmp_path, family):
    assert _decompose_hashes(tmp_path / family, family, "0.25") == GOLDEN_DECOMPOSE_N12[family]


@pytest.mark.parametrize("family", sorted(GOLDEN_DECOMPOSE_N12_A005))
def test_decompose_reports_match_golden_hashes_alpha_005(tmp_path, family):
    assert (_decompose_hashes(tmp_path / family, family, "0.05")
            == GOLDEN_DECOMPOSE_N12_A005[family])


def test_pruning_truncation_mismatch_is_a_failing_row(monkeypatch):
    from submodtree import cli, dtree

    tree = dtree.random_tree(6, seed=1)
    assert all(r["pass"] for r in cli._pruning_rows_for_tree("t", tree))
    monkeypatch.setattr(cli.dtree, "exact_distance", lambda *args: -1.0)
    rows = cli._pruning_rows_for_tree("t", tree)
    failed = [r for r in rows if not r["pass"]]
    assert [r["instance"] for r in failed] == [f"t-truncate-d{dtree.tree_depth(tree) // 2}"]
