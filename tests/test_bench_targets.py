"""The benchmark tracer's wrap targets must exist in the package.

``perfbench/tracing.py`` wraps package functions by (owner, attribute)
name; a renamed target breaks only traced benchmark runs.  This loads the
tracer from its file, without writing bytecode next to it, and checks
each name.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from msturm import maineq

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
        spec.loader.exec_module(module)
    return module._targets()


def test_every_target_resolves(targets):
    assert targets
    for owner, attr, name, hook in targets:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
        assert hook is None or callable(hook), name


@pytest.mark.parametrize("attr", ["w_blocks_from_model", "wprime_blocks_from_model"])
def test_block_methods_keep_the_model_x_signature(targets, attr):
    assert (maineq.MainAssembly, attr) in {(owner, a) for owner, a, _, _ in targets}
    assert list(inspect.signature(getattr(maineq.MainAssembly, attr)).parameters) == [
        "self", "model", "x"
    ]
