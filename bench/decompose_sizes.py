"""Wall time, peak RSS and report bytes of `submodtree decompose` at large n.

    python3 bench/decompose_sizes.py --out FILE [--parent DIR] [--ns 20 22 24]
        [--families coverage cut ...]

Run from the repository root.  For every generated family (or each one of
``--families``) and n, each side runs
`decompose --family F --n N --seed 1 --alpha 0.1 --out DIR` once in a
fresh process, with the program imported from that side's ``src/``: this
checkout, and the checkout at ``--parent`` when given.  The sides alternate
which runs first from row to row.  A run records the time of `cli.main`
(interpreter start and imports excluded), the process's peak RSS (VmHWM)
and the sha256 of every report file; with ``--parent`` the report bytes of
the two sides must be equal.  Results are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("coverage", "cut", "budget_additive", "matroid_rank_partition", "concave_profile")
SEED, ALPHA = "1", "0.1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child(out: str, args: list[str]) -> int:
    """Runs in the measured process: one CLI call, then one JSON line."""
    from submodtree import cli

    start = time.perf_counter()
    rc = cli.main(args + ["--out", out])
    wall = time.perf_counter() - start
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mb": hwm / 1024}))
    return 0


def run_side(src: Path, args: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUBMODTREE_ENUM_CAP"}
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", out, *args],
            env=env, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["sha256"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).iterdir())
        }
    return result


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return child(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--ns", type=int, nargs="+", default=[20, 22, 24])
    parser.add_argument("--families", nargs="+", choices=FAMILIES, default=list(FAMILIES))
    opts = parser.parse_args()
    sides = {"change": ROOT / "src"}
    if opts.parent is not None:
        sides["parent"] = opts.parent.resolve() / "src"
    rows = []
    for family in opts.families:
        for n in opts.ns:
            args = ["decompose", "--family", family, "--n", str(n),
                    "--seed", SEED, "--alpha", ALPHA]
            names = list(sides)
            if len(rows) % 2:
                names.reverse()
            row = {"family": family, "n": n, "args": " ".join(args)}
            for name in names:
                row[name] = run_side(sides[name], args)
            hashes = [row[name].pop("sha256") for name in sides]
            row["report_bytes_equal"] = all(h == hashes[0] for h in hashes)
            row["sha256"] = hashes[0]
            rows.append(row)
            print(json.dumps({k: v for k, v in row.items() if k != "sha256"}), flush=True)
    result = {
        "what": __doc__.split("\n")[0],
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "rows": rows,
    }
    Path(opts.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(row["report_bytes_equal"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
