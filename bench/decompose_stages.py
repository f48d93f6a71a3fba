"""In-process stage times and peaks of `submodtree decompose` or `spectrum`, one run per side and seed.

    python3 bench/decompose_stages.py [--command spectrum] [--parent DIR]
        [--out FILE] [--kinds decompose-matroid-n16 ...] [--seeds S ...]

Run from the repository root.  For every job kind of the command (default:
for `decompose` the deep-tree workload's,
``perfbench/workloads.WORKLOADS["deep-tree"]``, and for `spectrum` the
big-cube workload's spectrum kinds) and every seed (default: that kind's
seeds in ``perfbench/pool.json``), each side runs
`decompose ... --out DIR` (or `spectrum ... --out DIR`) once with the kind's
arguments, in a fresh process
with the program imported from that side's ``src/``: this checkout, and the
checkout at ``--parent`` when given.  The sides alternate which runs first
from row to row.  A run prints, in seconds, the self time of each stage:
the time spent in its functions, and in reading the chunks they return,
less the time of the other stages they call, so that the stages are
disjoint and sum to no more than ``total``.  The stages of `decompose`:

- ``check``: the input's submodularity check (`decompose._check_submodular`);
- ``grow``: the level-by-level growth (`decompose._grow`);
- ``gather``: the rest of `decompose._build`: the input's table and the trees;
- ``certify``: `decompose._certify`;
- ``distance``: `dtree.exact_distance`, less its ``windows``;
- ``windows``: `dtree._cube_values`, the tree's values for the distance:
  filled a window at a time where the distance reads the tree in windows,
  the whole table at once where it makes the tree's table;
- ``constantize``: `decompose.constantize_leaves`;
- ``tree_json``: `dtree.to_json_chunks` (`to_json_text` on a side without
  it), both calls: the one for tree.json and the one that renders the tree
  inside report.json;
- ``report_json``: `DecompositionReport.to_json_chunks` (or `to_json_text`),
  less the tree inside it;
- ``writes``: `cli._write`, less the chunks it reads from the writers;
- ``total``: `cli.main`, interpreter start and imports excluded.

The stages of `spectrum`:

- ``table``: the input's table, in a fresh array (`funcs.fresh_table`);
- ``butterfly``: the transform in place (`fourier._fwht_in_place`);
- ``coefficients``: the division and rounding to zero
  (`fourier._to_coefficients`);
- ``csv``: the scan for nonzero coefficients and the rows' bytes
  (`fourier._dense_csv_chunks`);
- ``writes``: `cli._stream`, less the chunks it reads;
- ``total``, as above.

Beside each stage's time, ``peak_mb`` holds the process's VmHWM read from
``/proc/self/status`` when the stage last returned (at the end for
``total``): the high-water RSS up to the end of that stage.  Each run also
records the sha256 of every report file; with ``--parent`` the report bytes
of the two sides must be equal.  Results are written to FILE as JSON when
given.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# stage -> module, then the names it wraps: the first one the side defines
STAGES = {
    "check": ("decompose", "_check_submodular"),
    "grow": ("decompose", "_grow"),
    "gather": ("decompose", "_build"),
    "certify": ("decompose", "_certify"),
    "distance": ("dtree", "exact_distance"),
    "windows": ("dtree", "_cube_values"),
    "constantize": ("decompose", "constantize_leaves"),
    "tree_json": ("dtree", "to_json_chunks", "to_json_text"),
    "report_json": ("decompose", "DecompositionReport.to_json_chunks", "DecompositionReport.to_json_text"),
    "writes": ("cli", "_write"),
}
SPECTRUM_STAGES = {
    "table": ("funcs", "fresh_table"),
    "butterfly": ("fourier", "_fwht_in_place"),
    "coefficients": ("fourier", "_to_coefficients"),
    "csv": ("fourier", "_dense_csv_chunks"),
    "writes": ("cli", "_stream"),
}
STAGES_OF = {"decompose": STAGES, "spectrum": SPECTRUM_STAGES}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def peak_mb() -> float:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def child(out: str, args: list[str]) -> dict:
    """Runs in the measured process: one CLI call with its stages timed."""
    from submodtree import cli, decompose, dtree, fourier, funcs

    modules = {"cli": cli, "decompose": decompose, "dtree": dtree, "fourier": fourier, "funcs": funcs}
    stages = STAGES_OF[args[0]]
    spent = dict.fromkeys(stages, 0.0)
    peaks = dict.fromkeys(stages, 0.0)
    running = []  # the stages entered and not yet left, innermost last

    def within(stage, step):
        """step() timed as ``stage``, its time taken off the enclosing stage."""
        running.append(stage)
        start = time.perf_counter()
        try:
            return step()
        finally:
            took = time.perf_counter() - start
            running.pop()
            spent[stage] += took
            if running:
                spent[running[-1]] -= took
            peaks[stage] = peak_mb()

    def chunks(stage, lazy):
        """The items of a lazy result, each produced within ``stage``."""
        while True:
            try:
                yield within(stage, lambda: next(lazy))
            except StopIteration:
                return

    def timed(stage, fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            result = within(stage, lambda: fn(*a, **kw))
            return chunks(stage, result) if isinstance(result, Iterator) else result

        return wrapper

    for stage, (module, *paths) in stages.items():
        for path in paths:
            owner, *rest = path.split(".")
            holder = modules[module]
            if rest:
                holder, owner = getattr(holder, owner), rest[0]
            if hasattr(holder, owner):
                setattr(holder, owner, timed(stage, getattr(holder, owner)))
                break
    start = time.perf_counter()
    # stdout goes to /dev/null, as in the benchmark's jobs
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main(args + ["--out", out])
    spent["total"] = time.perf_counter() - start
    peaks["total"] = peak_mb()
    sha = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out).iterdir())}
    return {"rc": rc, "stages_s": spent, "peak_mb": peaks, "sha256": sha}


def run_side(src: Path, args: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUBMODTREE_ENUM_CAP"}
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", out, *args],
            env=env, capture_output=True, text=True, check=True,
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], sys.argv[3:])))
        return 0
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import KINDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out")
    parser.add_argument("--command", choices=sorted(STAGES_OF), default="decompose")
    parser.add_argument("--kinds", nargs="+", choices=sorted(KINDS))
    parser.add_argument("--seeds", nargs="+", type=int)
    opts = parser.parse_args()
    if opts.kinds is None:
        workload = "deep-tree" if opts.command == "decompose" else "big-cube"
        opts.kinds = [kind for kind in WORKLOADS[workload] if KINDS[kind].command == opts.command]
    if any(KINDS[kind].command != opts.command for kind in opts.kinds):
        sys.exit(f"--kinds must be {opts.command} kinds")
    pool = json.loads((ROOT / "perfbench" / "pool.json").read_text())
    sides = {"change": ROOT / "src"}
    if opts.parent is not None:
        sides["parent"] = opts.parent.resolve() / "src"
    result = {
        "what": __doc__.split("\n")[0],
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "rows": [],
    }
    equal = True
    for kind in opts.kinds:
        seeds = opts.seeds or [seed for seed, _ in pool[kind]["seeds"]]
        for seed in seeds:
            row = {"kind": kind, "seed": seed}
            order = list(sides) if len(result["rows"]) % 2 else list(sides)[::-1]
            for name in order:
                row[name] = run_side(sides[name], KINDS[kind].argv(seed))
                stages, peaks = (json.dumps(row[name][key]) for key in ("stages_s", "peak_mb"))
                print(kind, seed, name, stages, peaks, flush=True)
            equal = equal and len({json.dumps(row[name]["sha256"]) for name in sides}) == 1
            result["rows"].append(row)
    result["reports_equal"] = equal
    if opts.out:
        Path(opts.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
