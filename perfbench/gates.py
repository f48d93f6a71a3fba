"""Correctness gates for the benchmark's jobs, run outside the timed region.

Each gate reads a job's report files and returns a failure message (None
when the job is correct) plus the job's character counts.  Reference values
come from numpy evaluators written here, independent of the package's
oracles; only the instance parameters come from `funcs.generate_random`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from submodtree import funcs

TOL = 1e-9
HELD_OUT = 20_000


def fwht(values: np.ndarray) -> np.ndarray:
    """out[S] = sum_x (-1)^{|x & S|} values[x]."""
    a = np.array(values, dtype=float)
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2, h)
        lo = v[:, 0, :].copy()
        v[:, 0, :] += v[:, 1, :]
        v[:, 1, :] = lo - v[:, 1, :]
        h *= 2
    return a


def reference_values(spec: funcs.FamilySpec, xs: np.ndarray) -> np.ndarray:
    """The normalized family function at packed points xs."""
    p = spec.params
    if spec.family == "budget_additive":
        total = np.zeros(xs.shape)
        for i, w in enumerate(p["weights"]):
            total += w * ((xs >> i) & 1)
        return np.minimum(total, p["budget"]) / p["budget"]
    if spec.family == "coverage":
        covered = np.zeros(xs.shape, dtype=np.int64)
        for i, elements in enumerate(p["sets"]):
            mask = sum(1 << (e - 1) for e in elements)
            covered |= np.where((xs >> i) & 1 == 1, mask, 0)
        return np.bitwise_count(covered) / p["universe_size"]
    raise ValueError(f"no reference evaluator for {spec.family}")


def read_spectrum(path: Path) -> tuple[np.ndarray, np.ndarray]:
    body = path.read_text().split("\n", 1)[1]
    data = np.fromstring(body.replace("\n", ","), sep=",")
    return data[0::2].astype(np.int64), data[1::2]


def check_decompose(out: Path, job) -> tuple[str | None, dict]:
    report = json.loads((out / "report.json").read_text())
    certs = report["leaf_certificates"]
    character = {"leaves": len(certs), "rank": report["rank"]}
    if not all(v is True for c in certs for v in c.values()):
        return "a leaf certificate is not true", character
    if report["rank_bound_ok"] is not True:
        return "rank bound violated", character
    if not report["max_l1_error"] <= TOL:
        return f"max_l1_error {report['max_l1_error']} > {TOL}", character
    return None, character


def check_spectrum(out: Path, job) -> tuple[str | None, dict]:
    masks, coeffs = read_spectrum(out / "spectrum.csv")
    spec = funcs.generate_random(job.family, job.n, job.instance_seed)
    dense = np.zeros(1 << spec.n)
    dense[masks] = coeffs
    err = float(np.max(np.abs(fwht(dense) - reference_values(spec, np.arange(1 << spec.n)))))
    character = {"support": int(masks.size)}
    if not err <= TOL:
        return f"spectrum synthesizes to the table only within {err}", character
    return None, character


def check_learn(out: Path, job) -> tuple[str | None, dict]:
    """l2 error on a held-out sample is within std(f) + epsilon, the agnostic
    bound against the best constant competitor (spectral norm <= 1 <= L)."""
    run = json.loads((out / "run.json").read_text())
    masks, coeffs = read_spectrum(out / "hypothesis.csv")
    spec = funcs.generate_random(job.family, job.n, job.instance_seed)
    rng = np.random.default_rng((0x4E1D, job.instance_seed))
    xs = rng.integers(0, 1 << spec.n, size=HELD_OUT, dtype=np.int64)
    h = np.zeros(HELD_OUT)
    for s, c in zip(masks, coeffs):
        h += c * (1.0 - 2.0 * (np.bitwise_count(xs & s) & 1))
    f = reference_values(spec, xs)
    err = math.sqrt(float(np.mean((f - h) ** 2)))
    bound = float(np.std(f)) + run["epsilon"]
    character = {"queries": run["queries"], "support": int(masks.size)}
    if not err <= bound:
        return f"held-out l2 error {err} exceeds std(f) + epsilon = {bound}", character
    return None, character


def check_verify(out: Path, job) -> tuple[str | None, dict]:
    rows = failed = 0
    for path in sorted(out.glob("*.csv")):
        with path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                rows += 1
                failed += row["pass"] != "true"
    character = {"rows": rows}
    if rows == 0 or failed:
        return f"{failed} of {rows} verify rows fail", character
    return None, character


GATES = {
    "decompose": check_decompose,
    "spectrum": check_spectrum,
    "learn": check_learn,
    "verify": check_verify,
}
