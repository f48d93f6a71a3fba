"""Measure the benchmark on several seeds and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py [WORKLOAD ...]

Runs ``run.py`` once per workload and seed (0-9) with tracing off, then
twice with tracing on for seeds 0 and 1; the count metrics of the two
traced runs must be equal.  For each end-to-end metric it records the ten
values, their median and quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median.  Per seed it records the character of
every job, and per traced seed the per-layer metrics.  Workloads not named
keep their previous entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "BASELINE.json"
SEEDS = 10
TRACED_SEEDS = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NOTES = [
    "Measured with perfbench/baseline.py on the machine described under env.",
    "Times are seconds at the reference probe speed (see perfbench/run.py); "
    "raw_setup_s and raw_wall_s are unscaled, and speed is the scale factor.",
    "Out of scope here, because both need changes under src/: the in-program "
    "--trace flag of ROADMAP item 1 (spans here are recorded from perfbench/ only) "
    "and the witness-carrying LeafCertificate.",
]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail: "))[len("detail: "):])
    env = next(ln for ln in lines if ln.startswith("env: "))[len("env: "):]
    return result, detail, env


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def measure(workload: str) -> tuple[dict, dict]:
    values: dict[str, list[float]] = {}
    character = {}
    env = None
    for seed in range(SEEDS):
        result, detail, env = run(workload, seed, 0)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in detail["end_to_end"].items():
            values.setdefault(name, []).append(v)
        character[seed] = detail["jobs"]
        print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    per_layer = {}
    for seed in range(TRACED_SEEDS):
        first, second = ({name: m["value"] for name, m in run(workload, seed, 1)[0]["metrics"].items()}
                         for _ in range(2))
        for name, unit in ((m["name"], m["unit"]) for m in SPEC["per_layer"]):
            if unit == "count" and first[name] != second[name]:
                raise SystemExit(f"{workload} seed {seed}: {name} differs between traced runs")
        per_layer[seed] = first
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
    entry = {
        "why": why,
        "end_to_end": {name: stats(v) for name, v in values.items()},
        "character_by_seed": character,
        "per_layer_by_seed": per_layer,
    }
    return entry, json.loads(env)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    baseline = json.loads(OUT.read_text()) if OUT.exists() else {"workloads": {}}
    for workload in args.workloads or [w["name"] for w in SPEC["workloads"]]:
        entry, env = measure(workload)
        baseline["workloads"][workload] = entry
        baseline.update(env=env, run_seconds=SPEC["run_seconds"], notes=NOTES)
        OUT.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f}", flush=True)


if __name__ == "__main__":
    main()
