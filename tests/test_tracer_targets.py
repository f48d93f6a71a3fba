"""The traced benchmark run (`perfbench/run.py --trace 1`) patches, by name,
the functions listed in `perfbench/tracer.py`; a rename here must fail these
tests, not the traced run.  The tracer is loaded read-only and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from submodtree import funcs, learn

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _load_tracer()


@pytest.mark.parametrize("module,path,span", tracer.TARGETS)
def test_every_target_resolves_as_install_looks_it_up(module, path, span):
    owner = importlib.import_module(f"submodtree.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    assert callable(raw.__func__ if isinstance(raw, staticmethod) else raw), span


def test_km_search_hook_counts_the_support():
    rec = tracer.Recorder()
    _, after = tracer._hooks(rec)["learn.km_search"]
    f = funcs.ValueOracle.from_table([(-1.0) ** (x & 1) for x in range(16)])
    hyp = learn.km_search(f, 0.5, seed=0, bucket_samples=256, coeff_samples=1024)
    after((f, 0.5), hyp, None)
    assert rec.counts["learn.buckets_retained"] == hyp.spectrum.masks.size == 1
    assert rec.counts["learn.buckets_examined"] == hyp.info["buckets_examined"]
