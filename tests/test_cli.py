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
    ],
)
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, argv, spec):
    if spec is not None:
        path = write_family(tmp_path, "spec.json", spec)
        argv = [path if a == "SPEC" else a for a in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def test_pruning_truncation_mismatch_is_a_failing_row(monkeypatch):
    from submodtree import cli, dtree

    tree = dtree.random_tree(6, seed=1)
    assert all(r["pass"] for r in cli._pruning_rows_for_tree("t", tree))
    monkeypatch.setattr(cli.dtree, "exact_distance", lambda *args: -1.0)
    rows = cli._pruning_rows_for_tree("t", tree)
    failed = [r for r in rows if not r["pass"]]
    assert [r["instance"] for r in failed] == [f"t-truncate-d{dtree.tree_depth(tree) // 2}"]
