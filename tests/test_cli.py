import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import submodtree
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


def test_learn_competitor_respects_cap(tmp_path, capsys):
    # above the cap the competitor's exact distance cannot be computed: the
    # flag is refused before learning starts, not ignored
    out = tmp_path / "learn"
    code = run(
        ["learn", "agnostic-l2", "--family", "cut", "--n", "30", "--epsilon", "0.5", "--L", "1",
         "--competitor", "/nonexistent/spec.json", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--competitor" in err
    assert not out.exists()


def test_rank_rows_write_the_bound_they_check(tmp_path):
    # 2 / alpha at alpha = 1/49 as a float is 98.00000000000001; the rank is
    # checked against 98, so the row writes 98, not its ceiling 99
    out = tmp_path / "out"
    code = run(
        ["decompose", "--family", "cut", "--n", "4", "--seed", "0",
         "--alpha", "0.02040816326530612", "--out", str(out)]
    )
    assert code == 0
    _, lhs, rhs, margin, ok = (out / "rank.csv").read_text().splitlines()[1].split(",")
    assert (int(rhs), int(margin), ok) == (98, 98 - int(lhs), "true")


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
    assert run(["hardness", "embed", "--file", path, "--out", str(out)]) == 0
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


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_spectrum_finishes_its_report_when_stdout_closes_early(tmp_path, unbuffered):
    # `spectrum ... --out D | head -c 100`: the CSV (1.9 MB) is longer than
    # a pipe holds, so the reader closes stdout while it is written
    env = {**os.environ, "PYTHONPATH": str(Path(submodtree.__file__).parents[1]),
           "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "submodtree.cli", "spectrum", "--family", "budget_additive",
            "--n", "16", "--seed", "1", "--out"]
    subprocess.run(argv + [str(tmp_path / "full")], env=env, stdout=subprocess.DEVNULL, check=True)
    proc = subprocess.Popen(argv + [str(tmp_path / "cut")], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"mask,coefficient\n0,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b"error: [Errno 32] Broken pipe\n"  # one line, nothing at exit
    assert _csv_hashes(tmp_path / "cut") == _csv_hashes(tmp_path / "full")


def test_spectrum_to_a_pipe_closed_before_the_first_byte(tmp_path):
    # the short CSV waits in stdout's buffer; its flush fails, and the
    # interpreter's flush at exit must not fail again
    env = {**os.environ, "PYTHONPATH": str(Path(submodtree.__file__).parents[1])}
    argv = [sys.executable, "-m", "submodtree.cli", "spectrum", "--family", "cut", "--n", "5",
            "--out"]
    subprocess.run(argv + [str(tmp_path / "full")], env=env, stdout=subprocess.DEVNULL, check=True)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(argv + [str(tmp_path / "cut")], env=env, stdout=write,
                              stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"error: [Errno 32] Broken pipe\n")
    assert _csv_hashes(tmp_path / "cut") == _csv_hashes(tmp_path / "full")


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
def test_reports_are_byte_identical_across_reruns(tmp_path, capsys, argv):
    # the third run is `python -m submodtree.cli` in a fresh interpreter,
    # whose import of the module freezes the collector's heap
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    assert run(argv + ["--out", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert run(argv + ["--out", str(out2)]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(submodtree.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "submodtree.cli", *argv, "--out", str(out3)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout1
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1
    for out in (out2, out3):
        assert sorted(p.name for p in out.iterdir()) == files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out / name).read_bytes(), name


def test_only_the_cli_module_freezes_the_heap():
    env = {**os.environ, "PYTHONPATH": str(Path(submodtree.__file__).parents[1])}
    for module, frozen in (("submodtree", False), ("submodtree.cli", True)):
        proc = subprocess.run([sys.executable, "-c", f"import gc, {module}; print(gc.get_freeze_count())"],
                              env=env, capture_output=True, text=True, check=True)
        assert (int(proc.stdout) > 0) == frozen, module


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
        (["hardness", "lpn", "--gamma", "nan"], None),
        (["hardness", "lpn", "--gamma", "inf"], None),
        (["learn", "pac", "--family", "coverage", "--n", "8", "--epsilon", "0.5",
          "--degree", "-1"], None),
        (["learn", "agnostic-l2", "--family", "coverage", "--n", "8", "--epsilon", "0.5",
          "--degree", "-2"], None),
        (["hardness", "embed", "--k", "30"], None),
        (["verify", "embedding", "--k", "22"], None),
        (["learn", "pac", "--family", "coverage", "--n", "21", "--seed", "0", "--epsilon", "0.5",
          "--gamma", "0.001", "--degree", "21", "--samples", "64"], None),
        (["hardness", "lpn", "--n", "21", "--k", "21", "--trials", "1", "--samples", "64"], None),
        (["spectrum", "--file", "SPEC"],
         {"family": "coverage", "n": True, "universe_size": 1, "sets": [[1]]}),
        (["spectrum", "--file", "SPEC"], {"family": "cut", "n": 3, "edges": [[1.5, 2]]}),
        (["spectrum", "--file", "SPEC"], {"family": "cut", "n": 3, "edges": [[True, 2]]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "coverage", "n": 2, "universe_size": 2.7, "sets": [[1], [2]]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "coverage", "n": 2, "universe_size": True, "sets": [[1], [1]]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "coverage", "n": 2, "universe_size": 2, "sets": [[1], [1.5]]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "coverage", "n": 2, "universe_size": 2, "sets": [[True], [2]]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "matroid_rank_partition", "n": 2, "blocks": [[1, 2]], "caps": [1.9]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "matroid_rank_partition", "n": 2, "blocks": [[1, 2]], "caps": [True]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "matroid_rank_partition", "n": 2, "blocks": [[True, 2]], "caps": [1]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "matroid_rank_partition", "n": 2, "blocks": [[0, 1, 2]], "caps": [1]}),
        (["SUBMODTREE_ENUM_CAP=abc", "decompose", "--family", "cut", "--n", "6", "--seed", "1",
          "--alpha", "0.25"], None),
        *[
            # the right number of values, but nested: a table has one axis
            (argv, {"family": "truth_table", "n": 2, "values": [[0.0, 0.5], [0.5, 1.0]]})
            for argv in (
                ["spectrum", "--file", "SPEC"],
                ["decompose", "--file", "SPEC", "--alpha", "0.5"],
                ["learn", "pac", "--file", "SPEC", "--epsilon", "0.5", "--exact"],
            )
        ],
        # 102,091 candidates times the default 65,536 samples: above the work limit
        (["hardness", "lpn", "--n", "40", "--k", "4"], None),
        # caps and universe sizes must fit int64
        (["spectrum", "--file", "SPEC"],
         {"family": "matroid_rank_partition", "n": 3, "blocks": [[1, 2, 3]], "caps": [2**63]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "matroid_rank_partition", "n": 3, "blocks": [[1, 2, 3]], "caps": [10**309]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "coverage", "n": 2, "universe_size": 2**63, "sets": [[1], [2]]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "coverage", "n": 2, "universe_size": 10**309, "sets": [[1], [2]]}),
        (["spectrum", "--file", "SPEC"],
         {"family": "budget_additive", "n": 2, "weights": [0.5, 0.5], "budget": 10**309}),
        # the family is named in messages: an unknown one is rejected first
        (["spectrum", "--file", "SPEC"], {"family": "a\nb", "n": 100}),
        # a negative seed is rejected where it enters, naming the flag
        *[
            (argv, None)
            for argv in (
                ["decompose", "--family", "cut", "--n", "4", "--seed", "-1", "--alpha", "0.5"],
                ["spectrum", "--family", "cut", "--n", "4", "--seed", "-1"],
                ["learn", "pac", "--family", "cut", "--n", "4", "--seed", "-1", "--epsilon", "0.5"],
                ["learn", "agnostic-l2", "--family", "cut", "--n", "4", "--seed", "-1",
                 "--epsilon", "0.5", "--L", "1"],
            )
        ],
        # values whose rank bound 2/alpha, 1/epsilon^2 or default bucket
        # count (theta^-4) leaves the float range
        (["decompose", "--family", "cut", "--n", "4", "--alpha", "1e-320"], None),
        (["learn", "pac", "--family", "cut", "--n", "4", "--epsilon", "1e-200", "--samples", "10"],
         None),
        (["learn", "agnostic-l2", "--family", "cut", "--n", "4", "--epsilon", "1e-100", "--L", "1"],
         None),
        # a default of about 9e8 samples per bucket estimate: above the work limit
        (["learn", "agnostic-l2", "--family", "cut", "--n", "30", "--epsilon", "0.2", "--L", "1"],
         None),
        # epsilon^2 underflows to 0, or 2L + 1 overflows: the threshold is 0
        (["learn", "agnostic-l2", "--family", "cut", "--n", "6", "--epsilon", "1e-200", "--L", "1"],
         None),
        (["learn", "agnostic-l2", "--family", "cut", "--n", "6", "--epsilon", "0.5", "--L", "1e308"],
         None),
    ],
)
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, monkeypatch, argv, spec):
    if spec is not None:
        path = write_family(tmp_path, "spec.json", spec)
        argv = [path if a == "SPEC" else a for a in argv]
    env = []
    while "=" in argv[0]:  # leading NAME=value items set the environment
        env.append(argv[0].split("=", 1))
        monkeypatch.setenv(*env[-1])
        argv = argv[1:]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    for name, value in env:  # the line names the variable and its value
        assert f"{name} must be a positive integer, got {value!r}" in err, err
    if "--seed" in argv and argv[argv.index("--seed") + 1] == "-1":
        assert "argument --seed: must be >= 0, got '-1'" in err, err


@pytest.mark.parametrize("command", [["spectrum"], ["decompose", "--alpha", "0.5"]])
def test_a_refused_allocation_exits_1_with_one_line(tmp_path, capsys, monkeypatch, command):
    # with the cap raised, the table of 2^50 values (8 PiB) is refused at
    # once: no memory is touched, and the error is one line, not a traceback
    monkeypatch.setenv("SUBMODTREE_ENUM_CAP", "62")
    out = tmp_path / "out"
    argv = [command[0], "--family", "cut", "--n", "50", "--seed", "1", *command[1:], "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: Unable to allocate"), err
    assert not out.exists()


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


# sha256 of every CSV of `verify all --n 8 --seeds 3`, and of `verify pairwise
# --n 10 --seeds 20`, as written under CPython 3.11 while the suites and the
# budget_additive generator still summed floats with the built-in `sum`.
# CPython 3.12 made `sum` of floats compensated, which moves the last digits
# of such sums; every float sum behind a report is now a sequential
# left-to-right reduction, which gives the 3.11 bits on every Python version
# (test_golden_reports_do_not_depend_on_a_compensated_sum).
GOLDEN_VERIFY_ALL_N8 = {
    "correlation.csv": "b0b75dcfec05603c4a718c8353f9db95a80d11e2bc3d71a531e18b252f0c538d",
    "embedding.csv": "f6276b834180e8d313242f0e78e4a3bdf8f0f39a630b4d2cefc4adef6a4b5228",
    "pairwise.csv": "7a78e78df027784c196cfbe5834a9bdcb77456514cd4761156ed325397119a08",
    "parseval.csv": "67c36b180bf1854cd2f2e1caf2f5ebdafa3cd19b06bc0fc42d71bdd485127e1b",
    "pruning.csv": "a9cf0ecf8bbec86a6691c53fe9feabb84d53cb70e35ace8ff4a1fe46b4ac9932",
    "rank.csv": "e12161f4acad96a7c5fc75f64e55e8b0a45c633a6b589b409dc20bc6ccbc1107",
    "variance.csv": "0c908fc52a7ca7ab158700b35a7576eee15032635ebf8e741ac335bdcd440be3",
}
GOLDEN_PAIRWISE_N10 = "3af231dd22f0cd1ac0dfa17ac83400c852d2df88cac6c8d32bbd324a2dd7c17c"


def _csv_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_verify_all_reports_match_golden_hashes(tmp_path, capsys):
    assert run(["verify", "all", "--n", "8", "--seeds", "3", "--out", str(tmp_path)]) == 0
    assert _csv_hashes(tmp_path) == GOLDEN_VERIFY_ALL_N8
    assert "pairwise: empirical best constant 2\n" in capsys.readouterr().out


def test_verify_pairwise_report_matches_golden_hash(tmp_path, capsys):
    assert run(["verify", "pairwise", "--n", "10", "--seeds", "20", "--out", str(tmp_path)]) == 0
    assert _csv_hashes(tmp_path) == {"pairwise.csv": GOLDEN_PAIRWISE_N10}
    assert capsys.readouterr().out.startswith("pairwise: empirical best constant 2\n")


# sha256 of the spectrum and learner reports, as written while a spectrum was
# still a dict from mask to coefficient; the last three hypotheses have more
# than one entry, and the agnostic one on cut gains mask 0 only in the
# unit-range map.  The two `hardness lpn` runs and the sampled `learn pac` at
# n = 21 (above the butterfly's n <= 20, so every coefficient is estimated on
# its own; 11 entries) were added while each learner still read its data
# through its own code.
GOLDEN_SPECTRUM_AND_LEARN = [
    (["spectrum", "--family", "budget_additive", "--n", "12", "--seed", "0"],
     {"spectrum.csv": "a700c38d40a373ac3e89a0896b8bb2ef3812e1c4c803e71530227ecfb984767a"}),
    (["spectrum", "--family", "cut", "--n", "2", "--edges", "1-2"],
     {"spectrum.csv": "16f6d88d2720f1644586ccff186e57e5fbf4787b2ba703e3a640161f0889d005"}),
    (["learn", "pac", "--family", "coverage", "--n", "10", "--seed", "1", "--epsilon", "0.5",
      "--gamma", "0.1", "--degree", "3", "--exact"],
     {"hypothesis.csv": "4bac04ad7029225f7030413ced48ffae044748ac1cd103d6217be60d92ae3608",
      "run.json": "01e6b10d96d9a98e9012c364812020ce25dfd2941c6791d957a2d033dd075655"}),
    (["learn", "agnostic-l2", "--family", "coverage", "--n", "12", "--seed", "0",
      "--epsilon", "0.35", "--L", "1", "--bucket-samples", "3000", "--coeff-samples", "3000"],
     {"hypothesis.csv": "c07ce0eed8e8d89203301d21a347ce672afe524ca5c889db36e9e0bc4ae22b02",
      "run.json": "746bb026c50e8c53cfaca8339a611e9a5c31b04ceb4151d38a9d859f7f043276"}),
    (["learn", "pac", "--family", "coverage", "--n", "10", "--seed", "1", "--epsilon", "0.5",
      "--gamma", "0.02", "--degree", "2", "--exact"],
     {"hypothesis.csv": "e90eae8d567c8cf1c02ecf52d4859078c9bdbc96d6e31fc33ac3f7ea74cbf110",
      "run.json": "451559f6ecf25ae44e4a7497e1346b6fea94149fe189765b1aff1b79a69f67c5"}),
    (["learn", "pac", "--family", "cut", "--n", "8", "--seed", "1", "--epsilon", "0.5",
      "--gamma", "0.1", "--degree", "2", "--samples", "4096"],
     {"hypothesis.csv": "e80554b2a96f91441561a4941b4af52d7805aa90bf2c9a9cf81a7dfddc6c59b8",
      "run.json": "c2ce96480c5ad2916627d7125475600db3030f2ae760198e1e96f35eea80c7b7"}),
    (["learn", "agnostic-l2", "--family", "cut", "--n", "6", "--seed", "0", "--epsilon", "0.2",
      "--L", "0.5", "--bucket-samples", "2000", "--coeff-samples", "2000"],
     {"hypothesis.csv": "c08c6005ab3d5cbdb8baaca8bbe0ec20550bb8354f1dcc3430a0f731e078b153",
      "run.json": "5aeceb829164fc1f7be49782d5325f6d5a69aee2e0201349d511d7488d4b3874"}),
    (["hardness", "lpn", "--n", "12", "--k", "2", "--eta", "0.1", "--trials", "6",
      "--samples", "4096"],
     {"lpn.json": "8b976ff17feebc53d2bc86d362932bc654f77bb85d1fb2cb4593f752f5d9c813"}),
    (["hardness", "lpn", "--n", "10", "--k", "3", "--eta", "0.2", "--trials", "4",
      "--samples", "2048", "--gamma", "0.3"],
     {"lpn.json": "d697e02960da7b512a0682414a4bfaf5618a158160c361f2aa9dc7d588886a70"}),
    (["learn", "pac", "--family", "cut", "--n", "21", "--edges", "1-2,3-4,2-3",
      "--epsilon", "0.5", "--gamma", "0.2", "--degree", "2", "--samples", "2048", "--seed", "1"],
     {"hypothesis.csv": "f092baaf2d3c2f63aaacdb194a36397c2c539b6779fbd34b02d511924cf6c915",
      "run.json": "3512e79765336b557fe6bdb33469788bd685a9bbd9bff9b10921a7a0e4030170"}),
    # the learner beyond the enumeration cap: coverage with one and with two
    # uint64 words of owned elements (70 at n = 40), budget-additive with 14
    # and with 34 coordinates above its prefix table
    (["learn", "agnostic-l2", "--family", "coverage", "--n", "30", "--seed", "27",
      "--epsilon", "0.35", "--L", "1", "--bucket-samples", "2000", "--coeff-samples", "2000"],
     {"hypothesis.csv": "0525e2bb7d4d786ff99ac4635a6737e0ebd89c61ee1c63ba9dec1066c433bb50",
      "run.json": "cc2d5d66441ee54efc41cd160bbd29276df2f0481e1fc74261e91aa339bc9656"}),
    (["learn", "agnostic-l2", "--family", "coverage", "--n", "40", "--seed", "0",
      "--epsilon", "0.35", "--L", "1", "--bucket-samples", "2000", "--coeff-samples", "2000"],
     {"hypothesis.csv": "5229fdf762c9b49c0ce1a172cf270ff91a4a23003cd69fccdd8543a44ebb4e03",
      "run.json": "a7bc0d0b33badbbccc53586f47d770ba03c5a186b2aff3297e315bf2e11b881d"}),
    (["learn", "agnostic-l2", "--family", "budget_additive", "--n", "30", "--seed", "12",
      "--epsilon", "0.35", "--L", "1", "--bucket-samples", "2000", "--coeff-samples", "2000"],
     {"hypothesis.csv": "a12c6c9ed297d5fb4061f5904c4c3a4aeafbb3e5e374edf18a7a12eba75394ac",
      "run.json": "6acdcb502bde3a43605f2297f1dd86f5ffc811220a99ec4f74d1c0573ec93131"}),
    (["learn", "agnostic-l2", "--family", "budget_additive", "--n", "50", "--seed", "0",
      "--epsilon", "0.35", "--L", "1", "--bucket-samples", "2000", "--coeff-samples", "2000"],
     {"hypothesis.csv": "02595d00fb9dcb8b3c2ba920b52b0945f178cc503a575291838f4a48743284f0",
      "run.json": "bd37121f7b25d2424f3408edd19e60535bd559791cb9c85254761506ce828016"}),
]


@pytest.mark.parametrize("argv,hashes", GOLDEN_SPECTRUM_AND_LEARN)
def test_spectrum_and_learn_reports_match_golden_hashes(tmp_path, capsys, argv, hashes):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert _csv_hashes(tmp_path) == hashes


_builtin_sum = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """The built-in `sum` of CPython >= 3.12: Neumaier-compensated when it
    adds floats; sums of ints and of anything else go to the original."""
    items = list(iterable)
    kinds = {type(v) for v in [start, *items]}
    if float not in kinds or not kinds <= {int, float}:
        return _builtin_sum(items, start)
    total, comp = float(start), 0.0
    for v in map(float, items):
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_golden_reports_do_not_depend_on_a_compensated_sum(tmp_path, monkeypatch):
    assert _compensated_sum([0.1] * 10) == 1.0  # left to right: 0.9999999999999999
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    for family in sorted(GOLDEN_DECOMPOSE_N12):
        assert (_decompose_hashes(tmp_path / f"{family}-a025", family, "0.25")
                == GOLDEN_DECOMPOSE_N12[family])
        assert (_decompose_hashes(tmp_path / f"{family}-a005", family, "0.05")
                == GOLDEN_DECOMPOSE_N12_A005[family])
    assert run(["verify", "all", "--n", "8", "--seeds", "3", "--out", str(tmp_path / "all")]) == 0
    assert _csv_hashes(tmp_path / "all") == GOLDEN_VERIFY_ALL_N8
    assert run(["verify", "pairwise", "--n", "10", "--seeds", "20",
                "--out", str(tmp_path / "pairwise")]) == 0
    assert _csv_hashes(tmp_path / "pairwise") == {"pairwise.csv": GOLDEN_PAIRWISE_N10}
    for k, (argv, hashes) in enumerate(GOLDEN_SPECTRUM_AND_LEARN):
        assert run(argv + ["--out", str(tmp_path / f"learn{k}")]) == 0
        assert _csv_hashes(tmp_path / f"learn{k}") == hashes, argv


def test_decompose_renders_report_text_only_for_out(tmp_path, monkeypatch):
    from submodtree import dtree
    from submodtree.decompose import DecompositionReport

    rendered, reports = [], []
    to_json_chunks = dtree.to_json_chunks
    report_chunks = DecompositionReport.to_json_chunks

    def spy(tree, indent=0):
        if not indent:  # the text of tree.json; report.json embeds it at indent 1
            rendered.append(tree)
        return to_json_chunks(tree, indent)

    def report_spy(report, tree, **extra):
        reports.append(report)
        return report_chunks(report, tree, **extra)

    monkeypatch.setattr(dtree, "to_json_chunks", spy)
    monkeypatch.setattr(DecompositionReport, "to_json_chunks", report_spy)
    argv = ["decompose", "--family", "matroid_rank_partition", "--n", "8", "--alpha", "0.25"]
    assert run(argv) == 0
    assert rendered == [] and reports == []
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert len(rendered) == 1 and len(reports) == 1


def test_decompose_constantizes_leaves_only_for_out(tmp_path, monkeypatch):
    from submodtree import decompose

    constantized = []
    constantize_leaves = decompose.constantize_leaves

    def spy(report):
        constantized.append(report)
        return constantize_leaves(report)

    monkeypatch.setattr(decompose, "constantize_leaves", spy)
    argv = ["decompose", "--family", "matroid_rank_partition", "--n", "8", "--alpha", "0.25"]
    assert run(argv) == 0
    assert constantized == []
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert len(constantized) == 1


def test_pruning_truncation_mismatch_is_a_failing_row(monkeypatch):
    from submodtree import cli, dtree

    tree = dtree.random_tree(6, seed=1)
    dists = cli._pruning_distributions(tree.n)
    assert all(r["pass"] for r in cli._pruning_rows_for_tree("t", tree, dists))
    monkeypatch.setattr(cli.dtree, "exact_distance", lambda *args: -1.0)
    rows = cli._pruning_rows_for_tree("t", tree, dists)
    failed = [r for r in rows if not r["pass"]]
    assert [r["instance"] for r in failed] == [f"t-truncate-d{dtree.tree_depth(tree) // 2}"]


def test_pruning_builds_each_trees_leaf_profile_once(monkeypatch):
    # the profile does not depend on the distribution: six distributions
    # per tree read one profile
    from submodtree import cli, dtree

    profiled = []
    leaf_profile = dtree.leaf_profile

    def spy(tree):
        profiled.append(tree)
        return leaf_profile(tree)

    monkeypatch.setattr(dtree, "leaf_profile", spy)
    rows = cli.suite_pruning(8, 3)
    trees = 3 + 3 * 5  # random trees, then three decompositions per family
    assert len(profiled) == trees
    assert all(r["pass"] for r in rows)
