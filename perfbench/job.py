"""One benchmark job, in a fresh process, as a user runs the CLI.

    python3 perfbench/job.py META TRACE OUT ARGS...

The exit code is the CLI's.  META receives {"ready_ns", "rc", "peak_rss_mb"}
as JSON: ready_ns is the monotonic clock once the interpreter, numpy and the
package are imported; peak_rss_mb is the process's high-water RSS (VmHWM,
since rusage would also count the parent's RSS inherited at fork).  TRACE is
"-" for an untraced job, else the file that receives the spans.  OUT is the
report directory.  ARGS are `submodtree` arguments, or
"verify-corpus BASE N SEEDS SMAX K" for `verify all` with shifted seeds.
"""

from __future__ import annotations

import json
import sys
import time

from submodtree import cli

READY_NS = time.monotonic_ns()


def verify_corpus(out: str, base: int, n: int, seeds: int, smax: int, k: int) -> int:
    """`submodtree verify all --n N --seeds SEEDS --smax SMAX --k K --out OUT`,
    except that the seeded suites run on corpus seeds BASE .. BASE+SEEDS-1.

    Mirrors `cli.cmd_verify`, whose corpus seeds always start at 0.  Rows are
    checked by the benchmark, so the exit code is always 0.
    """
    ns = tuple(range(4, min(n, 10) + 1))
    corpus_seeds = range(base, base + seeds)
    outputs = {
        "variance": cli.suite_variance(ns, corpus_seeds),
        "parseval": cli.suite_parseval(ns, corpus_seeds),
        "pairwise": cli.suite_pairwise(ns, corpus_seeds)[0],
        "rank": cli.suite_rank(ns, corpus_seeds),
        "pruning": cli.suite_pruning(n, seeds),
        "correlation": cli.suite_correlation(smax),
        "embedding": cli.suite_embedding(k),
    }
    for name, rows in outputs.items():
        cli._write(out, f"{name}.csv", cli._rows_to_csv(rows))
    return 0


def main(argv: list[str]) -> int:
    meta_path, trace_path, out, *args = argv
    recorder = None
    if trace_path != "-":
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    if args[0] == "verify-corpus":
        run = lambda: verify_corpus(out, *map(int, args[1:]))  # noqa: E731
        if recorder:
            run = recorder.wrap("cli.verify_all", run)
        rc = run()
    else:
        rc = cli.main(args + ["--out", out])
    if recorder:
        recorder.write(trace_path)
    with open("/proc/self/status") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(meta_path, "w") as fh:
        json.dump({"ready_ns": READY_NS, "rc": rc, "peak_rss_mb": hwm_kb / 1024}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
