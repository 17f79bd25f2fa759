"""The benchmark's hooks into heronet still fit the package.

perfbench/ wraps heronet functions by (module, attribute) name and counts
a stage's pairs from the argument at a fixed position.  Renaming such a
function or reordering its parameters would break the benchmark without
failing any test of the package, so these tests read the hooks, without
changing them, and check each one against heronet.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

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
