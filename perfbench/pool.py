"""Rebuild pool.json: per job kind, the first instance seeds in its band.

The character of an instance is the property that sets its job's cost:
leaves of the Lipschitz tree for ``decompose``, edges for a cut, KM buckets
examined for ``learn``.  Seeds are scanned from 0 upwards and kept while the
character lies in the kind's band, until the pool is full.

Run from the repository root (slow: it runs every candidate in process):

    python3 perfbench/pool.py [KIND ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from submodtree import decompose, dtree, funcs, learn  # noqa: E402

from workloads import KINDS, POOL_PATH, Kind  # noqa: E402


def character(kind: Kind, seed: int) -> int:
    spec = funcs.generate_random(kind.family, kind.n, seed)
    if kind.character == "edges":
        return len(spec.params["edges"])
    f = funcs.instantiate(spec)
    opts = dict(zip(kind.flags[::2], kind.flags[1::2]))
    if kind.character == "leaves":
        report = decompose.build_lipschitz_tree(f, float(opts["--alpha"]), check=False, certify=False)
        return dtree.tree_size(report.tree)
    if kind.character == "buckets":
        hyp = learn.agnostic_l2_learn(
            f,
            float(opts["--epsilon"]),
            float(opts["--L"]),
            seed=seed,
            unit_range=True,
            bucket_samples=int(opts["--bucket-samples"]),
            coeff_samples=int(opts["--coeff-samples"]),
        )
        return hyp.info["buckets_examined"]
    raise ValueError(f"unknown character {kind.character!r}")


def build(kind: Kind) -> dict:
    if kind.character is None:
        return {"character": None, "band": None, "seeds": [[s, None] for s in range(kind.pool_size)]}
    lo, hi = kind.band
    seeds = []
    seed = 0
    while len(seeds) < kind.pool_size:
        c = character(kind, seed)
        if lo <= c <= hi:
            seeds.append([seed, c])
        print(f"  seed {seed}: {kind.character} {c}{'  kept' if lo <= c <= hi else ''}", flush=True)
        seed += 1
    return {"character": kind.character, "band": [lo, hi], "seeds": seeds}


def main(names: list[str]) -> None:
    pool = json.loads(POOL_PATH.read_text()) if POOL_PATH.exists() else {}
    pool = {name: entry for name, entry in pool.items() if name in KINDS}
    for name in names or list(KINDS):
        print(name, flush=True)
        pool[name] = build(KINDS[name])
        POOL_PATH.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
