"""Wall time, peak RSS, report bytes and stdout of `submodtree decompose`
or `submodtree spectrum` at large n.

    python3 bench/decompose_sizes.py --out FILE [--command spectrum]
        [--parent DIR] [--ns 20 22 24] [--families coverage cut ...] [--repeat R]

Run from the repository root.  For every generated family (or each one of
``--families``) and n, each side runs
`decompose --family F --n N --seed 1 --alpha 0.1 --out DIR` (or
`spectrum --family F --n N --seed 1 --out DIR`) R times (default 1), each in
a fresh process, with the program imported from that side's ``src/``: this
checkout, and the checkout at ``--parent`` when given.  Within a row the
sides take turns, one run each per repetition, and which side runs first
alternates from repetition to repetition and from row to row.  A run
records the time of `cli.main` (interpreter start and imports excluded),
the process's peak RSS (VmHWM) and the sha256 of every report file and of
stdout, which goes to a file; every run of a row, on either side, must give
the same report and stdout bytes.  Per side, a row keeps each run's
``wall_s`` and ``peak_rss_mb`` and their quartiles (``q1``, ``median``,
``q3``).  Results are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("coverage", "cut", "budget_additive", "matroid_rank_partition", "concave_profile")
SEED, ALPHA = "1", "0.1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child(result: str, out: str, args: list[str]) -> int:
    """Runs in the measured process: one CLI call, then one JSON file."""
    from submodtree import cli

    start = time.perf_counter()
    rc = cli.main(args + ["--out", out])
    wall = time.perf_counter() - start
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    Path(result).write_text(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mb": hwm / 1024}))
    return 0


def sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def run_side(src: Path, args: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUBMODTREE_ENUM_CAP"}
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out, stdout = tmp / "out", tmp / "stdout"
        with open(stdout, "wb") as fh:
            subprocess.run(
                [sys.executable, __file__, "--child", str(tmp / "result.json"), str(out), *args],
                env=env, stdout=fh, check=True,
            )
        result = json.loads((tmp / "result.json").read_text())
        result["sha256"] = {p.name: sha256(p) for p in sorted(out.iterdir())}
        result["sha256"]["stdout"] = sha256(stdout)
    return result


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return child(sys.argv[2], sys.argv[3], sys.argv[4:])
    parser = argparse.ArgumentParser(description=" ".join(__doc__.split("\n\n")[0].split()))
    parser.add_argument("--out", required=True)
    parser.add_argument("--command", choices=("decompose", "spectrum"), default="decompose")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--ns", type=int, nargs="+", default=[20, 22, 24])
    parser.add_argument("--families", nargs="+", choices=FAMILIES, default=list(FAMILIES))
    parser.add_argument("--repeat", type=at_least_one, default=1, metavar="R")
    opts = parser.parse_args()
    sides = {"change": ROOT / "src"}
    if opts.parent is not None:
        sides["parent"] = opts.parent.resolve() / "src"
    rows = []
    for family in opts.families:
        for n in opts.ns:
            args = [opts.command, "--family", family, "--n", str(n), "--seed", SEED]
            if opts.command == "decompose":
                args += ["--alpha", ALPHA]
            runs = {name: [] for name in sides}
            for r in range(opts.repeat):
                names = list(sides)
                if (len(rows) + r) % 2:
                    names.reverse()
                for name in names:
                    runs[name].append(run_side(sides[name], args))
            hashes = [run.pop("sha256") for name in sides for run in runs[name]]
            row = {"family": family, "n": n, "args": " ".join(args)}
            for name in sides:
                row[name] = {"rc": [run["rc"] for run in runs[name]]}
                for metric in ("wall_s", "peak_rss_mb"):
                    values = [run[metric] for run in runs[name]]
                    row[name][metric] = {"runs": values, **quartiles(values)}
            row["report_bytes_equal"] = all(h == hashes[0] for h in hashes)
            row["sha256"] = hashes[0]
            rows.append(row)
            print(json.dumps({k: v for k, v in row.items() if k != "sha256"}), flush=True)
    result = {
        "what": " ".join(__doc__.split("\n\n")[0].split()),
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "rows": rows,
    }
    Path(opts.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(row["report_bytes_equal"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
