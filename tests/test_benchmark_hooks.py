"""The benchmark's hooks into heronet still fit the package.

perfbench/ wraps heronet functions by (module, attribute) name and counts
a stage's pairs from the argument at a fixed position.  Renaming such a
function or reordering its parameters would break the benchmark without
failing any test of the package, so these tests read the hooks, without
changing them, and check each one against heronet; the argument positions
that the tracer's counters read are checked the same way.  The pair
counters are also run on a tiny stage call: a stage that reached its
per-batch callee by any other name than the one the benchmark wraps would
count no pairs.
"""

import importlib
import inspect
import shutil
import sys
from pathlib import Path

import pytest

from heronet import pipeline

from helpers import tiny_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import tracer  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.path.remove(str(PERFBENCH))


def _heronet(module):
    return importlib.import_module(f"heronet.{module}")


@pytest.mark.parametrize("module, attr", tracer.LAYERS,
                         ids=[f"{m}.{a}" for m, a in tracer.LAYERS])
def test_traced_layer_resolves(module, attr):
    target = _heronet(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("tag", sorted(workloads.STAGES))
def test_pair_counter_reads_the_named_parameter(tag):
    stage = workloads.STAGES[tag]
    assert callable(getattr(_heronet("pipeline"), stage.entry))
    module, name, arg = stage.hook
    callee = getattr(_heronet(module), name)
    if arg is not None:
        pos, key = arg
        assert list(inspect.signature(callee).parameters)[pos] == key


# (module, function, position, parameter) of every argument a tracer
# counter reads by position; model.encode_mean_pool's reads its result only
_COUNTED_ARGS = [
    ("retrieval", "retrieve_top_m_batch", 2, "queries"),
    ("model", "sample_batch", 2, "hidden"),
    ("rerank", "dedupe_candidates", 0, "candidates"),
]


def test_counted_arguments_cover_the_tracer_counters():
    listed = {f"{module}.{name}" for module, name, _, _ in _COUNTED_ARGS}
    assert set(tracer._COUNTERS) - {"model.encode_mean_pool"} == listed


@pytest.mark.parametrize("module, name, pos, key", _COUNTED_ARGS,
                         ids=[f"{m}.{n}" for m, n, _, _ in _COUNTED_ARGS])
def test_tracer_counter_reads_the_named_parameter(module, name, pos, key):
    callee = getattr(_heronet(module), name)
    assert list(inspect.signature(callee).parameters)[pos] == key


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A tiny run directory holding every checkpoint up to adversarial."""
    out = tmp_path_factory.mktemp("hooks")
    cfg = tiny_config()
    for run in (pipeline.stage_gen_data, pipeline.stage_warmup,
                pipeline.stage_retrieval, pipeline.stage_adversarial):
        run(cfg, out)
    return out


@pytest.mark.parametrize("tag", sorted(workloads.STAGES))
def test_pair_counter_counts_every_pair(tag, chain, tmp_path, monkeypatch):
    stage = workloads.STAGES[tag]
    module, name, _ = stage.hook
    owner = _heronet(module)
    # registered first, so the counter's rebinding is undone afterwards
    monkeypatch.setattr(owner, name, getattr(owner, name))
    counter = workloads._PairCounter(stage.hook)
    cfg = tiny_config()
    out = tmp_path / "run"
    shutil.copytree(chain, out)
    getattr(pipeline, stage.entry)(cfg, out)
    assert counter.pairs == getattr(cfg, stage.epochs) * cfg.n_train
