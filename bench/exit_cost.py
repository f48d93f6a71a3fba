"""Where a benchmark job's process spends its time: imports, work and exit.

    python3 bench/exit_cost.py [--parent DIR] [--out FILE] [--seed S] [--reps R]

Run from the repository root.  For every workload of
``perfbench/workloads.py`` (all of its job kinds, and the corpus
`verify-corpus` job), the jobs of workload seed S (default 0) run R times
(default 7) per side, each in a fresh process pinned to one CPU, with the
BLAS and OpenMP thread counts set to 1: this checkout, and the checkout at
``--parent`` when given, with the program imported from that side's
``src/``.  The sides alternate which runs first from run to run.  A job
runs as ``perfbench/job.py`` runs it (`cli.main` with ``--out``, or the
suites of `job.verify_corpus`), and each run records, in seconds on the
monotonic clock:

- ``setup_s``: process start until `submodtree.cli` is imported;
- ``work_s``: the call of `cli.main` (or of the suites);
- ``exit_s``: from that call's return until the process has exited, as the
  parent process sees it: interpreter finalization and its collections;

and the collections of each generation the collector ran during the work
(``collections``).  Per job and side, the medians of the three times are
given; with ``--parent``, the difference of the sides' medians, and whether
their report bytes (sha256 over names and contents) are equal.  Results are
written to FILE as JSON when given.
"""

from __future__ import annotations

import argparse
import gc
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
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
TIMES = ("setup_s", "work_s", "exit_s")


def child(meta: str, out: str, args: list[str]) -> int:
    """Runs in the measured process: one job, its work timed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import job  # imports submodtree.cli from PYTHONPATH

    before = [s["collections"] for s in gc.get_stats()]
    start = time.monotonic_ns()
    if args[0] == "verify-corpus":
        rc = job.verify_corpus(out, *map(int, args[1:]))
    else:
        rc = job.cli.main(args + ["--out", out])
    returned = time.monotonic_ns()
    collections = [s["collections"] - b for s, b in zip(gc.get_stats(), before)]
    with open(meta, "w") as fh:
        json.dump({"ready_ns": job.READY_NS, "start_ns": start, "returned_ns": returned,
                   "rc": rc, "collections": collections}, fh)
    return rc


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(src: Path, args: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUBMODTREE_ENUM_CAP"}
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        meta, out, log = Path(tmp, "meta.json"), Path(tmp, "out"), Path(tmp, "stderr.txt")
        with log.open("wb") as err:
            spawn = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable, __file__, "--child", str(meta), str(out), *args],
                                    stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
            rc = proc.wait()
            done = time.monotonic_ns()
        if rc != 0:
            raise RuntimeError(f"{args}: exit code {rc}: {log.read_text(errors='replace')[-500:]}")
        m = json.loads(meta.read_text())
        return {
            "setup_s": (m["ready_ns"] - spawn) / 1e9,
            "work_s": (m["returned_ns"] - m["start_ns"]) / 1e9,
            "exit_s": (done - m["returned_ns"]) / 1e9,
            "collections": m["collections"],
            "sha256": digest(out),
        }


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return child(sys.argv[2], sys.argv[3], sys.argv[4:])
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, jobs_for

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=7)
    opts = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the job processes inherit it
    sides = {"change": ROOT / "src"}
    if opts.parent is not None:
        sides["parent"] = opts.parent.resolve() / "src"
    result = {
        "what": __doc__.split("\n")[0],
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
                   "one CPU per run",
        "seed": opts.seed,
        "reps": opts.reps,
        "jobs": [],
    }
    equal = True
    turn = 0
    for workload in WORKLOADS:
        for job in jobs_for(workload, opts.seed):
            runs = {name: [] for name in sides}
            for _ in range(opts.reps):
                order = list(sides) if turn % 2 else list(sides)[::-1]
                turn += 1
                for name in order:
                    runs[name].append(run_once(sides[name], job.args))
            row = {"workload": workload, "job": job.name}
            for name, side_runs in runs.items():
                row[name] = {t: statistics.median(r[t] for r in side_runs) for t in TIMES}
                row[name]["collections"] = sorted({tuple(r["collections"]) for r in side_runs})
                row[name]["runs"] = [{t: r[t] for t in TIMES} for r in side_runs]
            if "parent" in sides:
                row["change_minus_parent_s"] = {t: row["change"][t] - row["parent"][t] for t in TIMES}
                row["reports_equal"] = len({r["sha256"] for rs in runs.values() for r in rs}) == 1
                equal = equal and row["reports_equal"]
            result["jobs"].append(row)
            print(workload, job.name, json.dumps({name: {t: round(row[name][t], 4) for t in TIMES}
                                                  for name in sides}), flush=True)
    if "parent" in sides:
        result["reports_equal"] = equal
    if opts.out:
        Path(opts.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
