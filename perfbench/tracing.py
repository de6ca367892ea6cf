"""Spans recorded around the public calls into each msturm layer.

The traced run wraps public functions from outside the package: the
wrappers are installed on the module (or class) attribute that the
caller looks up, and removed again when the traced block ends.  Nothing
inside the package is changed.  Spans are kept in memory; ``Tracer.dump``
writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from msturm import forward, graph, maineq, reconstruct
from msturm.core import DEFAULT_TOL


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), float("nan"), parent, self.run_id, attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(s, args, kwargs, out)
                return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap the layer entry points for the duration of the block."""
        saved = []
        for owner, attr, name, hook in _targets():
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, hook))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """Duration minus the time covered by child spans (run serially)."""
        return span.seconds - sum(c.seconds for c in self.children(span))

    def descendants(self, span: Span) -> list[Span]:
        out, todo = [], [span.id]
        while todo:
            pid = todo.pop()
            kids = [s for s in self.spans if s.parent == pid]
            out.extend(kids)
            todo.extend(k.id for k in kids)
        return out

    def dump(self, path, meta: dict):
        rows = []
        for s in self.spans:
            row = asdict(s)
            row["seconds"] = s.seconds
            row["self_seconds"] = self.self_seconds(s)
            rows.append(row)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh, indent=1, default=_jsonable)


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    raise TypeError(type(v).__name__)


# ----------------------------------------------------------------------
# what gets wrapped, and what each wrapper records
# ----------------------------------------------------------------------

def _record_engine(s, args, kwargs, out):
    s.attrs["engine"] = kwargs.get("engine", "rk4")


def _record_weight(s, args, kwargs, out):
    _record_engine(s, args, kwargs, out)
    tol = kwargs.get("tol", DEFAULT_TOL)
    # sc_terminal integrates the S and C solutions at every contour node
    s.attrs["lams_computed"] = 2 * tol.contour_points


def _record_psi(s, args, kwargs, out):
    asm = out.assembly
    K, d = asm.n_unknowns, asm.dim
    n = K * d
    nodes = int(out.x.size)
    src = np.unique(np.concatenate([asm.pair_u0, asm.pair_u1])).size
    s.attrs.update(
        unknowns=K,
        block_dim=d,
        pairs=int(asm.pair_u0.size),
        nodes=nodes,
        residual_max=float(out.residual_max),
        # d_kernel_diag(x, lams[src], lams): one diagonal entry per (node, src, unknown, d)
        kernel_entries_computed=nodes * src * K * d,
        # two complex LU factorisations plus d-column solves per node
        lapack_flops_computed=nodes * 2 * (8.0 / 3.0 * n**3 + 8.0 * n**2 * d),
    )


def _record_blocks(s, args, kwargs, out):
    s.attrs["bytes_computed"] = int(out.nbytes)


def _record_inverse(s, args, kwargs, out):
    s.attrs["stage_seconds"] = dict(out.diagnostics.stage_seconds)
    s.attrs["projector"] = out.problem.projector.matrix


def _targets():
    """(owner, attribute, span name, result hook) for every wrapped call.

    ``solve_on_grid``, ``build_groups`` and ``solve_inverse`` are wrapped
    where ``reconstruct`` and ``graph`` look them up.
    """
    return [
        (forward, "find_eigenvalues", "forward.find_eigenvalues", _record_engine),
        (forward, "weight_matrix", "forward.weight_matrix", _record_weight),
        (reconstruct, "solve_on_grid", "maineq.solve_on_grid", _record_psi),
        (graph, "solve_on_grid", "maineq.solve_on_grid", _record_psi),
        (reconstruct, "build_groups", "maineq.build_groups", None),
        (graph, "build_groups", "maineq.build_groups", None),
        (maineq.MainAssembly, "w_blocks_from_model", "maineq.w_blocks", _record_blocks),
        (maineq.MainAssembly, "wprime_blocks_from_model", "maineq.wprime_blocks", _record_blocks),
        (reconstruct, "solve_inverse", "reconstruct.solve_inverse", _record_inverse),
        (graph, "solve_inverse", "reconstruct.solve_inverse", _record_inverse),
        (graph, "extract_local_data", "graph.extract_local_data", None),
        (graph, "derive_star_models", "graph.derive_star_models", None),
        (graph, "solve_local_inverse", "graph.solve_local_inverse", None),
        (graph, "solve_star_matrix", "graph.solve_star_matrix", None),
    ]


# ----------------------------------------------------------------------
# per-layer metrics of one traced operation
# ----------------------------------------------------------------------

_FIT_STAGES = ("estimate-p", "collapse", "asymptotics", "collapse-model")
_BUILD_STAGES = ("model", "model-data")


def layer_metrics(tracer: Tracer, op: Span, t_true: np.ndarray | None) -> dict[str, float]:
    """Per-layer figures for one traced operation span."""
    spans = tracer.descendants(op)

    def total(name, engine=None):
        return sum(
            s.seconds for s in spans
            if s.name == name and (engine is None or s.attrs.get("engine") == engine)
        )

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name)

    def attr_max(name, key):
        return max((s.attrs[key] for s in spans if s.name == name), default=0)

    inverses = [s for s in spans if s.name == "reconstruct.solve_inverse"]

    def stages(names):
        return sum(s.attrs["stage_seconds"].get(n, 0.0) for s in inverses for n in names)

    t_err = 0.0
    if t_true is not None:
        for s in inverses:
            t_err = max(t_err, float(np.linalg.norm(np.asarray(s.attrs["projector"]) - t_true, 2)))

    blocks = total("maineq.w_blocks") + total("maineq.wprime_blocks")
    solve = total("maineq.solve_on_grid")
    # every span under the operation comes from a layer wrapper
    covered = sum(c.seconds for c in tracer.children(op))
    return {
        "forward.search_s": total("forward.find_eigenvalues"),
        "forward.weights_s": total("forward.weight_matrix"),
        "forward.rk4_s": total("forward.find_eigenvalues", "rk4") + total("forward.weight_matrix", "rk4"),
        "forward.weight_calls": count("forward.weight_matrix"),
        "forward.weight_lams": attr_sum("forward.weight_matrix", "lams_computed"),
        "maineq.solve_s": solve,
        "maineq.blocks_s": blocks,
        "maineq.other_s": solve - blocks,
        "maineq.grouping_s": total("maineq.build_groups"),
        "maineq.unknowns": attr_max("maineq.solve_on_grid", "unknowns"),
        "maineq.block_dim": attr_max("maineq.solve_on_grid", "block_dim"),
        "maineq.pairs": attr_max("maineq.solve_on_grid", "pairs"),
        "maineq.nodes": attr_sum("maineq.solve_on_grid", "nodes"),
        "maineq.kernel_entries": attr_sum("maineq.solve_on_grid", "kernel_entries_computed"),
        "maineq.lapack_flops": attr_sum("maineq.solve_on_grid", "lapack_flops_computed"),
        "maineq.block_bytes": max(
            attr_max("maineq.w_blocks", "bytes_computed"),
            attr_max("maineq.wprime_blocks", "bytes_computed"),
        ),
        "maineq.residual_max": attr_max("maineq.solve_on_grid", "residual_max"),
        "model.fit_s": stages(_FIT_STAGES),
        "model.build_s": stages(_BUILD_STAGES),
        "model.t_err": t_err,
        "reconstruct.inverse_s": total("reconstruct.solve_inverse"),
        "reconstruct.epsilon_s": stages(("epsilon",)),
        "reconstruct.stabilize_s": stages(("stabilize",)),
        "reconstruct.recover_s": stages(("recover",)),
        "reconstruct.diagnostics_s": stages(("diagnostics",)),
        "core.validate_s": stages(("validate", "shift")),
        "graph.models_s": total("graph.derive_star_models"),
        "graph.local_s": total("graph.solve_local_inverse"),
        "graph.matrix_s": total("graph.solve_star_matrix"),
        "trace.coverage": covered / op.seconds,
    }

