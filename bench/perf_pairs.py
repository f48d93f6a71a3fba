"""Paired `perfbench/run.py` runs of a parent checkout and this checkout.

    python3 bench/perf_pairs.py --parent DIR --out FILE [--change DIR]
        [--seeds 120 121 ...]

Run from the repository root.  ``--change`` defaults to this checkout; a
copy of it keeps the measured code fixed while this one is edited.  For
every workload and seed, the benchmark runs once in each checkout
(`perfbench/run.py --workload W --seed S --seconds T --trace 0`, from that
checkout's root, so each side imports its own ``src/``), with the run
length T that ``BENCHMARK.json`` sets.  The side that runs first alternates from pair to
pair.  Each run's end-to-end metrics, the time of each command it ran
(decompose_s, spectrum_s, verify_s and learn_s, as the benchmark prints them)
and its failure count are kept; per workload and metric the summary gives
each side's median and quartiles, the relative change of the medians and the
pairs the change won (ties count for neither).  FILE is rewritten after every
run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("big-cube", "deep-tree", "corpus", "sampled")
COMMANDS = ("decompose_s", "spectrum_s", "verify_s", "learn_s")
METRICS = ("wall_s", "setup_s", "peak_rss_mb", *COMMANDS)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    row = {key: result[key] for key in ("correct", "attempted", "failed")}
    row.update({name: m["value"] for name, m in result["metrics"].items()})
    detail = next(line for line in lines if line.startswith("detail:"))
    extra = json.loads(detail.removeprefix("detail:"))["end_to_end"]
    row.update({name: v for name, v in extra.items() if name in COMMANDS})
    return row


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for metric in METRICS:
        pairs = {}
        for run in runs:
            if metric in run and not math.isnan(run[metric]):
                pairs.setdefault(run["seed"], {})[run["side"]] = run[metric]
        both = [p for p in pairs.values() if len(p) == 2]
        if len(both) < 2:
            continue
        parent = quartiles([p["parent"] for p in both])
        change = quartiles([p["change"] for p in both])
        summary[metric] = {
            "parent": parent,
            "change": change,
            "change_vs_parent": change["median"] / parent["median"] - 1,
            "change_wins": f"{sum(p['change'] < p['parent'] for p in both)}/{len(both)}",
        }
    summary["failed"] = sum(run["failed"] for run in runs)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(120, 130)))
    opts = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sides = {"parent": opts.parent.resolve(), "change": opts.change.resolve()}
    result = {
        "what": "perfbench/run.py --seconds %g --trace 0, parent checkout vs this checkout, "
                "alternating which side runs first in each pair; times scaled by the harness "
                "to its reference CPU speed" % seconds,
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "seeds": opts.seeds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs: list[dict] = []
        result["workloads"][workload] = {"summary": {}, "runs": runs}
        for k, seed in enumerate(opts.seeds):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                row = {"seed": seed, "side": side, **run_once(sides[side], workload, seed, seconds)}
                runs.append(row)
                print(workload, json.dumps(row), flush=True)
                result["workloads"][workload]["summary"] = summarize(runs)
                Path(opts.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
