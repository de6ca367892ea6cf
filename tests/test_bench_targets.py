"""The benchmark tracer's wrap targets must exist in the package.

``perfbench/tracing.py`` wraps package functions by (owner, attribute)
name; a renamed target breaks only traced benchmark runs, and a target
the solver no longer calls reads 0 s there.  The same holds for the
result fields the tracer's hooks read.  This loads the tracer from its
file, without writing bytecode next to it, checks each name, runs each
result hook on a real output of its target and checks that the
main-equation solver enters the block target for every chunk of nodes.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from msturm import forward, maineq, reconstruct

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def targets(tracing):
    return tracing._targets()


def test_every_target_resolves(targets):
    assert targets
    for owner, attr, name, hook in targets:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
        assert hook is None or callable(hook), name


def test_every_result_hook_reads_a_real_output(tracing, targets, m2_problem, sec6_data):
    # a hook that reads a renamed result field would fail only in a traced run
    hooked = [(owner, attr, name, hook) for owner, attr, name, hook in targets if hook]
    seen = {}  # first (args, kwargs, output) of each target function
    with pytest.MonkeyPatch.context() as mp:
        for owner, attr, _, _ in hooked:
            def spy(*args, _fn=getattr(owner, attr), **kwargs):
                out = _fn(*args, **kwargs)
                seen.setdefault(_fn, (args, kwargs, out))
                return out

            mp.setattr(owner, attr, spy)
        records = forward.find_eigenvalues(m2_problem, 2)
        forward.weight_matrix(m2_problem, records[0], gap=records[1].lam - records[0].lam)
        reconstruct.solve_inverse(sec6_data, reconstruct.InverseOptions(n_grid=300))
    for owner, attr, name, hook in hooked:
        # graph's names are the same functions as reconstruct's
        args, kwargs, out = seen[getattr(owner, attr)]
        span = tracing.Span(0, name, 0.0, 0.0, None, 0)
        hook(span, args, kwargs, out)
        assert span.attrs, name
        json.dumps(span.attrs, default=tracing._jsonable)  # as Tracer.dump writes them


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
