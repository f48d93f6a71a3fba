"""Per-family evaluator costs: sampled batches, whole tables, the corpus and KM bucket estimates.

    python3 bench/evaluators.py --out FILE [--parent DIR] [--families coverage cut ...]

Run from the repository root.  Each measurement runs in a fresh process with
the program imported from one side's ``src/``: this checkout, and the
checkout at ``--parent`` when given; the sides alternate which runs first
from row to row.  For every generated family (instance seed 1) it records:

- ``eval_ns_per_point`` at n = 30 and n = 62: `eval_many` on batches of
  6000 uniform points (the learner's bucket and coefficient sample size),
  BATCHES batches per pass, the median of REPEATS passes, in ns per point;
- ``table_s`` and ``peak_rss_mb`` at n = 19 and n = 24: one `table()` call
  after `instantiate`, and the process's VmHWM after it;
- ``corpus_s``: `instantiate` plus `table()` over the verify corpus
  (`funcs.iter_corpus`'s instances, n = 4..10, seeds 0..19), the median of
  REPEATS passes; the specs are generated outside the timed region;
- ``km_bucket_us`` (coverage and budget_additive only): one
  `learn._bucket_weight_estimate` at n = 30 and m = 6000, the estimate of
  `km_search`'s bucket search, per prefix length k in KM_KS (pattern
  2^(k-1), the child that sets coordinate k), BATCHES estimates per pass with
  their own seeds, the median of REPEATS passes, in us per estimate.

With ``--parent`` every row also checks that the two sides' values are
equal bit for bit (sha256 of the evaluated points, the tables, the corpus
tables and the estimates).  Results are written to FILE as JSON.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("coverage", "cut", "budget_additive", "matroid_rank_partition", "concave_profile")
SEED = 1
BATCH, BATCHES, REPEATS = 6000, 50, 5
EVAL_NS, TABLE_NS = (30, 62), (19, 24)
KM_FAMILIES, KM_N, KM_KS = ("coverage", "budget_additive"), 30, (1, 15, 29)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def child(kind: str, family: str, n: int) -> dict:
    """Runs in the measured process and returns one JSON-able result."""
    import numpy as np

    from submodtree import funcs, learn

    digest = hashlib.sha256()
    if kind == "eval":
        f = funcs.instantiate(funcs.generate_random(family, n, SEED))
        rng = np.random.default_rng(n)
        batches = [rng.integers(0, 1 << n, size=BATCH, dtype=np.int64) for _ in range(BATCHES)]
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            values = [f.eval_many(xs) for xs in batches]
            times.append(time.perf_counter() - start)
        for v in values:
            digest.update(v.tobytes())
        return {"eval_ns_per_point": statistics.median(times) / (BATCH * BATCHES) * 1e9,
                "sha256": digest.hexdigest()}
    if kind == "km":
        f = funcs.instantiate(funcs.generate_random(family, n, SEED))
        per_k = {}
        for k in KM_KS:
            times = []
            for _ in range(REPEATS):
                rngs = [np.random.default_rng((SEED, k, j)) for j in range(BATCHES)]
                start = time.perf_counter()
                estimates = [learn._bucket_weight_estimate(f, k, 1 << (k - 1), BATCH, r) for r in rngs]
                times.append(time.perf_counter() - start)
            per_k[str(k)] = statistics.median(times) / BATCHES * 1e6
            digest.update(np.array(estimates).tobytes())
        return {"km_bucket_us": per_k, "sha256": digest.hexdigest()}
    if kind == "table":
        start = time.perf_counter()
        table = funcs.instantiate(funcs.generate_random(family, n, SEED)).table()
        wall = time.perf_counter() - start
        peak = peak_rss_mb()  # before hashing, which reads the table in place
        digest.update(memoryview(table))
        return {"table_s": wall, "peak_rss_mb": peak, "sha256": digest.hexdigest()}
    specs = [funcs.generate_random(family, n, seed) for n in range(4, 11) for seed in range(20)]
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        tables = [funcs.instantiate(spec).table() for spec in specs]
        times.append(time.perf_counter() - start)
    for t in tables:
        digest.update(t.tobytes())
    return {"corpus_s": statistics.median(times), "sha256": digest.hexdigest()}


def run_side(src: Path, kind: str, family: str, n: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUBMODTREE_ENUM_CAP"}
    env["PYTHONPATH"] = str(src)
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, "--child", kind, family, str(n)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--families", nargs="+", choices=FAMILIES, default=list(FAMILIES))
    opts = parser.parse_args()
    sides = {"change": ROOT / "src"}
    if opts.parent is not None:
        sides["parent"] = opts.parent.resolve() / "src"
    plan = [("eval", n) for n in EVAL_NS] + [("table", n) for n in TABLE_NS] + [("corpus", 10)]
    rows = []
    for family in opts.families:
        for kind, n in plan + [("km", KM_N)] * (family in KM_FAMILIES):
            names = list(sides)
            if len(rows) % 2:
                names.reverse()
            row = {"family": family, "kind": kind, "n": n}
            for name in names:
                row[name] = run_side(sides[name], kind, family, n)
            hashes = [row[name].pop("sha256") for name in sides]
            row["values_equal"] = all(h == hashes[0] for h in hashes)
            rows.append(row)
            print(json.dumps(row), flush=True)
    result = {
        "what": __doc__.split("\n")[0],
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "rows": rows,
    }
    Path(opts.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(row["values_equal"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
