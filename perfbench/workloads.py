"""The benchmark's workloads: which CLI jobs run, on which instances.

A job kind is one CLI invocation shape (command, family, dimension, flags).
Its instances come from ``pool.json``: instance seeds whose *character* (the
property that sets the job's cost, such as leaf count or cut edges) lies in
a fixed band, so that a change of workload seed changes the inputs but not
the amount of work.  ``pool.py`` rebuilds that file from ``KINDS``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_PATH = Path(__file__).with_name("pool.json")

LEARN_FLAGS = ("--epsilon", "0.35", "--L", "1", "--bucket-samples", "6000", "--coeff-samples", "6000")


@dataclass(frozen=True)
class Kind:
    command: str  # decompose | spectrum | learn
    family: str
    n: int
    flags: tuple[str, ...]
    character: str | None  # leaves | edges | buckets; None accepts every seed
    band: tuple[int, int] = (0, 0)
    pool_size: int = 16

    def argv(self, seed: int) -> list[str]:
        head = [self.command] + (["agnostic-l2"] if self.command == "learn" else [])
        return head + ["--family", self.family, "--n", str(self.n), "--seed", str(seed), *self.flags]


KINDS = {
    "decompose-coverage-n19": Kind("decompose", "coverage", 19, ("--alpha", "0.1"), "leaves", (380, 520)),
    "decompose-cut-n17": Kind("decompose", "cut", 17, ("--alpha", "0.25"), "edges", (64, 72)),
    "spectrum-budget_additive-n19": Kind("spectrum", "budget_additive", 19, (), None),
    "decompose-matroid-n16": Kind(
        "decompose", "matroid_rank_partition", 16, ("--alpha", "0.05"), "leaves", (20400, 22600), 10
    ),
    "decompose-budget_additive-n16": Kind(
        "decompose", "budget_additive", 16, ("--alpha", "0.05"), "leaves", (7300, 8100), 6
    ),
    "learn-coverage-n30": Kind("learn", "coverage", 30, LEARN_FLAGS, "buckets", (88, 116), 4),
    "learn-budget_additive-n30": Kind("learn", "budget_additive", 30, LEARN_FLAGS, "buckets", (88, 116), 4),
}

# workload -> job kinds, one instance each; "corpus" is the verify job
WORKLOADS = {
    "big-cube": ["decompose-coverage-n19", "decompose-cut-n17", "spectrum-budget_additive-n19"],
    "deep-tree": ["decompose-matroid-n16", "decompose-budget_additive-n16"],
    "corpus": [],
    "sampled": ["learn-coverage-n30", "learn-budget_additive-n30"],
}

# verify all --n 10 --seeds 20 --smax 16 --k 6, with the corpus shifted by seed
CORPUS = {"n": 10, "seeds": 20, "smax": 16, "k": 6}


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    args: list[str]  # job.py arguments after the output directory
    family: str | None = None
    n: int | None = None
    instance_seed: int | None = None
    pool_character: int | None = None  # as recorded in pool.json


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The jobs of one repetition; the same seed always gives the same jobs."""
    if workload == "corpus":
        base = CORPUS["seeds"] * seed
        args = ["verify-corpus", str(base)] + [str(CORPUS[k]) for k in ("n", "seeds", "smax", "k")]
        return [Job(f"verify-all-seeds{base}-{base + CORPUS['seeds'] - 1}", "verify", args)]
    pool = json.loads(POOL_PATH.read_text())
    jobs = []
    for kind_name in WORKLOADS[workload]:
        s, character = random.Random(f"{workload}/{kind_name}/{seed}").choice(pool[kind_name]["seeds"])
        kind = KINDS[kind_name]
        jobs.append(Job(f"{kind_name}-s{s}", kind.command, kind.argv(s), kind.family, kind.n, s, character))
    return jobs
