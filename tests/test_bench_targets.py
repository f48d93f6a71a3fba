"""The stage scripts `bench/decompose_stages.py` and `bench/corpus_stages.py`
wrap functions by name and skip a name that is not there, so a renamed
function would make its stage read 0; a rename must fail these tests
instead.  The scripts are loaded read-only; nothing is wrapped.
`bench/exit_cost.py` calls `cli.main` and `perfbench/job.py`'s
`verify_corpus` by name, so one small job of each kind runs through it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


decompose_stages, corpus_stages, exit_cost = map(_load, ("decompose_stages", "corpus_stages", "exit_cost"))


def resolves(module: str, path: str) -> bool:
    """Whether ``submodtree.module`` defines the dotted ``path`` as a
    callable, as the scripts look it up."""
    owner = importlib.import_module(f"submodtree.{module}")
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


@pytest.mark.parametrize("stage", decompose_stages.STAGES)
def test_every_decompose_stage_wraps_a_function(stage):
    module, *paths = decompose_stages.STAGES[stage]
    assert any(resolves(module, path) for path in paths)


@pytest.mark.parametrize("stage", corpus_stages.STAGES)
def test_every_rank_stage_wraps_a_function(stage):
    assert any(resolves(module, path) for module, path in corpus_stages.STAGES[stage])


@pytest.mark.parametrize("module,path", corpus_stages.CORPUS_BUILD)
def test_every_corpus_build_target_is_a_function(module, path):
    assert resolves(module, path)


@pytest.mark.parametrize("args", [
    ["decompose", "--family", "cut", "--n", "5", "--alpha", "0.5"],
    ["verify-corpus", "0", "4", "1", "2", "1"],
])
def test_exit_cost_times_a_job(args):
    run = exit_cost.run_once(BENCH.parent / "src", args)
    assert all(run[t] > 0 for t in exit_cost.TIMES)
    assert len(run["collections"]) == 3
