"""Seconds of each suite of the corpus benchmark job, of the corpus build and of the rank suite's stages.

    python3 bench/corpus_stages.py --seed S [--parent DIR] [--out FILE]

Run from the repository root.  The corpus workload's job
(`perfbench/job.py verify-corpus`) runs `verify all` with the corpus seeds
shifted by the workload seed; this script runs the same suites in-process,
with the same n, seeds, smax and k as ``perfbench/workloads.CORPUS`` at
workload seed S, in a fresh process per side with the BLAS and OpenMP
thread counts set to 1: this checkout, and the checkout at ``--parent``
when given, the parent first at an even seed and second at an odd one.
Each side prints, in seconds, every suite's time (``suite_s``), the corpus
build (``corpus_build_s``) and the stages of ``cli.suite_rank``
(``rank_stages_s``), and in MB the process's VmHWM after each suite
(``hwm_mb``):

- ``corpus_build_s``: per suite, the time the variance, Parseval, pairwise
  and rank suites spend generating the corpus: `funcs.generate_random`,
  `funcs.instantiate` and `ValueOracle.table`.  A checkout with
  `funcs.corpus_tables` spends it all in the first of them; one that
  generates the corpus per suite spends it in each, and there the rank
  suite's tables are made inside its ``build`` stage;
- ``build``: the decompositions, certification excluded
  (`decompose.build_lipschitz_grid` where a checkout builds every alpha at
  once, `build_lipschitz_trees` where it builds one alpha at a time, or
  `build_lipschitz_tree` where it builds one tree at a time);
- ``certify``: `decompose._certify`;
- ``distance``: the exact l1 distances (`dtree.exact_distances`, or
  `exact_distance`).

With ``--parent`` the sides' report rows must be equal (sha256 of the CSVs).
The result is written to FILE as JSON when given.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = {
    "build": [("decompose", "build_lipschitz_grid"), ("decompose", "build_lipschitz_trees"),
              ("decompose", "build_lipschitz_tree")],
    "certify": [("decompose", "_certify")],
    "distance": [("dtree", "exact_distances"), ("dtree", "exact_distance")],
}
CORPUS_BUILD = [("funcs", "generate_random"), ("funcs", "instantiate"), ("funcs", "ValueOracle.table")]
CORPUS_SUITES = ("variance", "parseval", "pairwise", "rank")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def child(seed: int) -> dict:
    """Runs in the measured process: the suites, timed, and their rows' hash."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import CORPUS

    from submodtree import cli, decompose, dtree, funcs

    modules = {"decompose": decompose, "dtree": dtree, "funcs": funcs}
    spent = {stage: 0.0 for stage in STAGES}
    building = {name: 0.0 for name in CORPUS_SUITES}
    running = [None]  # the suite that runs

    def timed(fn, add, suites):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if running[0] not in suites:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                add(time.perf_counter() - start)

        return wrapper

    def patch(module, path, add, suites):
        owner = modules[module]
        *cls_path, name = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if hasattr(owner, name):
            setattr(owner, name, timed(getattr(owner, name), add, suites))

    for stage, targets in STAGES.items():
        for module, name in targets:
            patch(module, name, lambda s, stage=stage: spent.__setitem__(stage, spent[stage] + s),
                  ("rank",))
    for module, name in CORPUS_BUILD:
        patch(module, name, lambda s: building.__setitem__(running[0], building[running[0]] + s),
              CORPUS_SUITES)

    n, count = CORPUS["n"], CORPUS["seeds"]
    ns, seeds = tuple(range(4, min(n, 10) + 1)), range(count * seed, count * seed + count)
    suites = {
        "variance": lambda: cli.suite_variance(ns, seeds),
        "parseval": lambda: cli.suite_parseval(ns, seeds),
        "pairwise": lambda: cli.suite_pairwise(ns, seeds)[0],
        "rank": lambda: cli.suite_rank(ns, seeds),
        "pruning": lambda: cli.suite_pruning(n, count),
        "correlation": lambda: cli.suite_correlation(CORPUS["smax"]),
        "embedding": lambda: cli.suite_embedding(CORPUS["k"]),
    }
    seconds, hwm, digest = {}, {}, hashlib.sha256()
    for name, run in suites.items():
        running[0] = name
        start = time.perf_counter()
        rows = run()
        seconds[name] = time.perf_counter() - start
        running[0] = None
        hwm[name] = vm_hwm_mb()
        digest.update(cli._rows_to_csv(rows).encode())
    # certification runs inside the builds: the build stage is what is left
    spent["build"] -= spent["certify"]
    return {"suite_s": seconds, "corpus_build_s": building, "rank_stages_s": spent,
            "hwm_mb": hwm, "sha256": digest.hexdigest()}


def run_side(src: Path, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUBMODTREE_ENUM_CAP"}
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(seed)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(int(sys.argv[2]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--out")
    opts = parser.parse_args()
    sides = {"change": ROOT / "src"}
    if opts.parent is not None:
        sides["parent"] = opts.parent.resolve() / "src"
        if opts.seed % 2 == 0:
            sides = dict(reversed(sides.items()))
    result = {
        "what": __doc__.split("\n")[0],
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "seed": opts.seed,
    }
    for name, src in sides.items():
        result[name] = run_side(src, opts.seed)
        print(name, json.dumps(result[name]), flush=True)
    hashes = {result[name].pop("sha256") for name in sides}
    result["rows_equal"] = len(hashes) == 1
    if opts.out:
        Path(opts.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if result["rows_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
