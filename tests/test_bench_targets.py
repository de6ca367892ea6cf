"""The benchmark tracer's wrap targets must exist in the package.

``perfbench/tracing.py`` wraps package functions by (owner, attribute)
name; a renamed target breaks only traced benchmark runs, and a target
the solver no longer calls reads 0 s there.  This loads the tracer from
its file, without writing bytecode next to it, checks each name and
checks that the main-equation solver enters the block target for every
chunk of nodes.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from msturm import maineq, reconstruct

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


def test_block_span_is_entered_for_every_chunk(targets, sec6_data, monkeypatch):
    # the tracer's maineq.blocks_s sums the spans of this target; a solver
    # that stopped calling it would read 0 s without an error
    (owner, attr), = {(o, a) for o, a, name, _ in targets if name == "maineq.w_blocks"}
    seen = []

    def grid_spy(*args, **kwargs):
        seen.append((args, kwargs))
        return maineq.solve_on_grid(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconstruct, "solve_on_grid", grid_spy)
        reconstruct.solve_inverse(sec6_data, reconstruct.InverseOptions(n_grid=300))
    (args, kwargs), = seen
    blocks, chunks = [], []
    wrapped, solve = getattr(owner, attr), np.linalg.solve

    def blocks_spy(self, model, x):
        blocks.append(np.size(x))
        return wrapped(self, model, x)

    def solve_spy(a, b):
        chunks.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(owner, attr, blocks_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    psi = maineq.solve_on_grid(*args, **kwargs)
    assert chunks and sum(chunks) == psi.collocation_nodes
    # every solved chunk assembled its blocks through the traced target
    assert blocks[: len(chunks)] == chunks
