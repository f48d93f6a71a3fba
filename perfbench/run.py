"""Benchmark of the submodtree CLI: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Load is closed-loop with one client: the jobs of a workload (see
``workloads.py``) run one after another, each in a fresh process, and a
repetition is one pass over them.  The workload seed picks the instances.

``--trace 0`` runs at least two repetitions, and more while the next one is
expected to end within ``--seconds``, and reports medians over them:
  setup_s      process start until `submodtree.cli` is imported (median
               over every job process of the run)
  wall_s       all jobs of one repetition, set-up excluded
  peak_rss_mb  largest peak RSS of any job process
It also prints decompose_s, spectrum_s, verify_s and learn_s (the jobs of
one command) and failed_share.

Times are seconds at a reference machine speed.  The CPU speed of a shared
virtual machine drifts by tens of percent over seconds to minutes, so the
benchmark pins itself and its jobs to one CPU, times a fixed probe task
(``probe``) right before and after each job, and scales the job's times by
sqrt(PROBE_REF_S / mean of the two probe times).  The square root is there
because on the reference machine the probe slowed about twice as much as
the jobs did; the full ratio over-corrected.  The raw times are printed too.

``--trace 1`` runs one untraced repetition and two traced ones, and reports
per-layer self times and counts (see ``tracer.py``).  Counts must be equal
in both traced repetitions; trace.overhead_s is traced minus untraced wall.

Every job is checked outside the timed region: exit code 0, the gates in
``gates.py`` on the first repetition, and report bytes (sha256) equal to the
first repetition's.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_REPS = 2
TRACED_REPS = 2
COMMANDS = ("decompose", "spectrum", "verify", "learn")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SUITES = ("variance", "parseval", "pairwise", "rank", "pruning", "correlation", "embedding")
LAYER_TIMES = [
    "funcs.table", "funcs.eval_many", "funcs.check", "funcs.restrict",
    "decompose.build", "decompose.certify", "decompose.constantize",
    "dtree.exact_distance", "dtree.truncation",
    "fourier.fwht", "fourier.from_dense", "fourier.to_csv", "fourier.pairwise", "fourier.parity_signs",
    "learn.km_search", "hardness.embed", "hardness.correlation", "cube.probability_vector",
    *[f"cli.suite_{s}" for s in SUITES], "cli.self",
]
LAYER_COUNTS = [
    "funcs.table_points", "funcs.eval_points", "funcs.check_calls", "funcs.restrict_calls",
    "funcs.queries", "decompose.leaves", "fourier.transform_calls", "learn.buckets_examined",
    "cli.report_bytes",
]
LAYER_RATIOS = ["decompose.leaf_yield", "learn.bucket_yield"]
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    **{name: "ratio" for name in LAYER_RATIOS},
    "trace.overhead_s": "s",
}
CALL_COUNTS = {
    "funcs.check_calls": "funcs.check",
    "funcs.restrict_calls": "funcs.restrict",
    "fourier.transform_calls": "fourier.transform",
}
ROOT_SPANS = ("cli.main", "cli.verify_all")  # self time is the CLI's own work
# probe time on a shared 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4) at its fast state
PROBE_REF_S = 0.010


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUBMODTREE_ENUM_CAP", None)  # it changes which code paths run
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    git_sha = "not a git checkout"
    if (ROOT / ".git").exists():
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                    if ln.startswith("model name")), cpu)
    return {
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def digest(out: Path) -> tuple[str, int]:
    """sha256 over the report files (names and bytes), and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data)
    return h.hexdigest(), size


class Run:
    """All repetitions of one workload in one benchmark invocation."""

    def __init__(self, workload: str, seed: int) -> None:
        import gates

        self.gates = gates.GATES
        self.jobs = workloads.jobs_for(workload, seed)
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.env = child_env()
        self.first: dict[int, str] = {}  # job index -> digest of repetition 0
        self.character: dict[int, dict] = {}
        self.reps: list[list[dict]] = []
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # job processes inherit it
        self.probe_data = np.random.default_rng(0).random(1 << 17)

    def probe(self) -> float:
        """Median of three timings of a fixed interpreter-and-numpy task."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            acc = 0
            for i in range(150_000):
                acc += i * i
            np.sort(self.probe_data)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def rep(self, traced: bool) -> list[dict]:
        rep_dir = self.dir / f"rep{len(self.reps)}"
        rep_dir.mkdir(parents=True)
        results = [self.job(i, job, rep_dir, traced) for i, job in enumerate(self.jobs)]
        self.reps.append(results)
        return results

    def job(self, i: int, job, rep_dir: Path, traced: bool) -> dict:
        out, meta, log = rep_dir / f"{i}-out", rep_dir / f"{i}-meta.json", rep_dir / f"{i}-stderr.txt"
        trace = rep_dir / f"{i}-trace.json"
        cmd = [sys.executable, str(BENCH / "job.py"), str(meta), str(trace) if traced else "-", str(out), *job.args]
        before = self.probe()
        with log.open("wb") as err:
            spawn = time.monotonic_ns()
            rc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT).wait()
            done = time.monotonic_ns()
        speed = math.sqrt(PROBE_REF_S / statistics.mean([before, self.probe()]))
        result = {"job": job, "traced": traced, "speed": speed, "failure": None}
        if rc != 0 or not meta.exists():
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            result["failure"] = f"exit code {rc}: {tail[0]}"
            return result
        meta_obj = json.loads(meta.read_text())
        ready = meta_obj["ready_ns"]
        result.update(raw_setup_s=(ready - spawn) / 1e9, raw_job_s=(done - ready) / 1e9)
        result.update(setup_s=result["raw_setup_s"] * speed, job_s=result["raw_job_s"] * speed)
        result["rss_mb"] = meta_obj["peak_rss_mb"]
        result["sha256"], result["report_bytes"] = digest(out)
        if i not in self.first:
            self.first[i] = result["sha256"]
            try:
                result["failure"], self.character[i] = self.gates[job.command](out, job)
            except (OSError, ValueError, KeyError) as e:
                result["failure"] = f"unreadable report: {e!r}"
        elif result["sha256"] != self.first[i]:
            result["failure"] = "report bytes differ from the first repetition"
        shutil.rmtree(out, ignore_errors=True)
        if traced and result["failure"] is None:
            import tracer

            trace_obj = json.loads(trace.read_text())
            self_s, calls = tracer.summarize(trace_obj)
            result["self_s"] = {name: secs * speed for name, secs in self_s.items()}
            result["calls"] = calls
            result["counts"] = Counter(trace_obj["counts"])
        return result

    def failures(self) -> list[str]:
        return [f"{r['job'].name}: {r['failure']}" for rep in self.reps for r in rep if r["failure"]]

    def attempted(self) -> int:
        return sum(len(rep) for rep in self.reps)


def rep_wall(results: list[dict], command: str | None = None, key: str = "job_s") -> float:
    return sum(r[key] for r in results if command in (None, r["job"].command))


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The gated metrics, and the printed-only ones, over untraced repetitions."""
    untraced = [rep for rep in run.reps if not rep[0]["traced"]]
    reps = [rep for rep in untraced if all(r["failure"] is None for r in rep)]
    ok = [r for rep in untraced for r in rep if r["failure"] is None]
    extra = {"failed_share": len(run.failures()) / run.attempted()}
    if not reps:
        return {}, extra
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "wall_s": statistics.median(rep_wall(rep) for rep in reps),
        "peak_rss_mb": max(r["rss_mb"] for r in ok),
    }
    extra.update({
        f"{c}_s": statistics.median(rep_wall(rep, c) for rep in reps)
        for c in COMMANDS
        if any(job.command == c for job in run.jobs)
    })
    extra.update(
        raw_setup_s=statistics.median(r["raw_setup_s"] for r in ok),
        raw_wall_s=statistics.median(rep_wall(rep, key="raw_job_s") for rep in reps),
        speed=statistics.median(r["speed"] for r in ok),
    )
    return metrics, extra


def layer_metrics(results: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, and per-job counts."""
    self_s: Counter = Counter()
    counts: Counter = Counter()
    per_job = {}
    for r in results:
        job_counts = Counter(r["counts"])
        job_counts.update({f"calls:{name}": n for name, n in r["calls"].items()})
        job_counts["cli.report_bytes"] = r["report_bytes"]
        per_job[r["job"].name] = job_counts
        counts.update(job_counts)
        self_s.update(r["self_s"])
    metrics = {f"{name}_s": self_s[name] for name in LAYER_TIMES}
    metrics["cli.self_s"] = sum(self_s[root] for root in ROOT_SPANS)
    for metric, span in CALL_COUNTS.items():
        counts[metric] = counts[f"calls:{span}"]
    metrics.update({name: counts[name] for name in LAYER_COUNTS})
    metrics["decompose.leaf_yield"] = counts["decompose.leaves"] / max(counts["funcs.restrict_calls"], 1)
    metrics["learn.bucket_yield"] = counts["learn.buckets_retained"] / max(counts["learn.buckets_examined"], 1)
    return metrics, {"self_s": dict(self_s), "per_job": per_job}


def layer_report(run: Run, untraced: list[dict], traced: list[list[dict]]) -> dict:
    """Per-layer metrics of the traced repetitions; a job whose counts differ
    between them is marked failed."""
    if run.failures():
        return {}
    per_rep = [layer_metrics(rep) for rep in traced]
    for i, job in enumerate(run.jobs):
        first, other = per_rep[0][1]["per_job"][job.name], per_rep[1][1]["per_job"][job.name]
        if first != other:
            diff = sorted(k for k in first.keys() | other.keys() if first[k] != other[k])
            traced[-1][i]["failure"] = f"counts differ between traced repetitions: {diff}"
            print(f"FAILED {job.name}: {traced[-1][i]['failure']}")
    for span, secs in sorted(per_rep[0][1]["self_s"].items()):
        calls = sum(c[f"calls:{span}"] for c in per_rep[0][1]["per_job"].values())
        print(f"span {span}: self {secs:.6f} s, {calls} calls")
    metrics = {
        name: per_rep[0][0][name] if name in LAYER_COUNTS else statistics.median(m[name] for m, _ in per_rep)
        for name in PER_LAYER
        if name in per_rep[0][0]
    }
    metrics["trace.overhead_s"] = statistics.median(rep_wall(rep) for rep in traced) - rep_wall(untraced)
    for name, value in metrics.items():
        print(f"per-layer {name}: {value:.6g} {PER_LAYER[name]}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "submodtree" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 1
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed)
    print("env:", json.dumps(environment(), sort_keys=True))
    print("jobs:", " ".join(job.name for job in run.jobs))
    if args.trace:
        untraced = run.rep(traced=False)
        traced = [run.rep(traced=True) for _ in range(TRACED_REPS)]
    else:
        start = time.monotonic()
        while len(run.reps) < MIN_REPS or (time.monotonic() - start) * (1 + 1 / len(run.reps)) <= args.seconds:
            run.rep(traced=False)

    for i, job in enumerate(run.jobs):
        done = [rep[i] for rep in run.reps if "job_s" in rep[i] and not rep[i]["traced"]]
        median = statistics.median(r["job_s"] for r in done) if done else float("nan")
        rss = max((r["rss_mb"] for r in done), default=float("nan"))
        print(f"job {job.name}: median {median:.3f} s over {len(done)}, "
              f"rss {rss:.1f} MB, character {json.dumps(run.character.get(i))}")
    for failure in run.failures():
        print("FAILED", failure)

    metrics, extra = end_to_end(run)
    for name, value in {**metrics, **extra}.items():
        unit = END_TO_END.get(name, "s" if name.endswith("_s") else "ratio")
        print(f"end-to-end {name}: {value:.6g} {unit}")
    print("detail:", json.dumps({
        "end_to_end": extra,
        "jobs": {job.name: {"pool_character": job.pool_character, "character": run.character.get(i)}
                 for i, job in enumerate(run.jobs)},
    }))
    if args.trace:
        result_metrics, units = layer_report(run, untraced, traced), PER_LAYER
    else:
        result_metrics, units = metrics, END_TO_END

    failed = len(run.failures())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted(),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
