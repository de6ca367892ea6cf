"""Command-line interface and file formats.

Problems and spectral data travel as self-describing JSON documents with
complex numbers as [re, im] pairs and matrices as nested row-major
lists; reconstructed potential curves are emitted as CSV.  Subcommands:

  forward       problem file -> spectral-data file + eigenvalue table
  inverse       spectral-data file -> problem file + report + q(x) CSV
  roundtrip     forward then inverse, with pass/fail comparison
  example-sec6  built-in perturbed-star example: closed form vs pipeline
  graph-local   star-graph edge recovery from diagonal weight data

Exit code 0 on success; failures print a stage-tagged message and exit 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .core import (
    BoundaryCoefficient,
    MSturmError,
    PotentialGrid,
    Problem,
    Projector,
    SpectralData,
    SpectralDatum,
    StageError,
    matnorm,
    validate_problem,
)

__all__ = [
    "problem_to_dict",
    "problem_from_dict",
    "spectral_data_to_dict",
    "spectral_data_from_dict",
    "save_problem",
    "load_problem",
    "save_spectral_data",
    "load_spectral_data",
    "main",
]

PROBLEM_FORMAT = "msturm-problem"
SPECTRAL_FORMAT = "msturm-spectral-data"


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _mat_to_json(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def _mat_from_json(rows, what: str) -> np.ndarray:
    try:
        return np.asarray(
            [[complex(c[0], c[1]) for c in row] for row in rows], dtype=complex
        )
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed matrix in {what}: {exc}") from exc


def _fields(obj, what: str, *names: str) -> list:
    """The named fields of the JSON object ``obj``, in order.

    A value that is not an object, or an object without one of the
    fields, raises :class:`ValueError` naming it, so a malformed document
    ends in one error line.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = [n for n in names if n not in obj]
    if missing:
        raise ValueError(f"{what} missing field {missing[0]!r}")
    return [obj[n] for n in names]


def _typed(kind, value, what: str):
    """``kind(value)`` of a JSON array (``list``), integer (``int``) or number (``float``).

    Another value raises :class:`ValueError`; so does a boolean, which
    Python reads as an integer.
    """
    name, accepted = {list: ("array", list), int: ("integer", int), float: ("number", (int, float))}[kind]
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ValueError(f"{what} is not a JSON {name}")
    return kind(value)


def problem_to_dict(problem: Problem) -> dict:
    return {
        "format": PROBLEM_FORMAT,
        "version": 1,
        "m": problem.m,
        "n_grid": problem.n_grid,
        "projector": {
            "p": problem.projector.p,
            "matrix": _mat_to_json(problem.projector.matrix),
        },
        "boundary": _mat_to_json(problem.boundary.matrix),
        "potential": [_mat_to_json(s) for s in problem.potential.samples],
    }


def problem_from_dict(doc: dict) -> Problem:
    _fields(doc, "problem document")
    if doc.get("format") != PROBLEM_FORMAT:
        raise ValueError(f"not a problem document (format = {doc.get('format')!r})")
    potential, projector, boundary = _fields(
        doc, "problem document", "potential", "projector", "boundary"
    )
    matrix, p = _fields(projector, "projector", "matrix", "p")
    samples = np.stack([
        _mat_from_json(s, f"potential sample {i}")
        for i, s in enumerate(_typed(list, potential, "potential"))
    ])
    return Problem(
        PotentialGrid(samples),
        Projector(_mat_from_json(matrix, "projector"), _typed(int, p, "projector p")),
        BoundaryCoefficient(_mat_from_json(boundary, "boundary")),
    )


def spectral_data_to_dict(data: SpectralData) -> dict:
    return {
        "format": SPECTRAL_FORMAT,
        "version": 1,
        "dim": data.dim,
        "m_slots": data.m_slots,
        "n_bands": data.n_bands,
        "data": [
            {"n": n + 1, "k": k + 1, "lambda": lam, "alpha": _mat_to_json(data.alpha[n, k])}
            for n, band in enumerate(data.lam.tolist()) for k, lam in enumerate(band)
        ],
    }


def spectral_data_from_dict(doc: dict) -> SpectralData:
    _fields(doc, "spectral-data document")
    if doc.get("format") != SPECTRAL_FORMAT:
        raise ValueError(f"not a spectral-data document (format = {doc.get('format')!r})")
    n_bands, entries = _fields(doc, "spectral-data document", "n_bands", "data")
    datums = []
    for i, entry in enumerate(_typed(list, entries, "data")):
        n, k, lam, alpha = _fields(entry, f"spectral datum {i}", "n", "k", "lambda", "alpha")
        datums.append(SpectralDatum(
            _typed(int, n, f"n of spectral datum {i}"),
            _typed(int, k, f"k of spectral datum {i}"),
            _typed(float, lam, f"lambda of spectral datum {i}"),
            _mat_from_json(alpha, f"alpha entry {i}"),
        ))
    return SpectralData(tuple(datums), _typed(int, n_bands, "n_bands"))


def save_problem(problem: Problem, path: str):
    with open(path, "w") as f:
        json.dump(problem_to_dict(problem), f)


def load_problem(path: str) -> Problem:
    with open(path) as f:
        return problem_from_dict(json.load(f))


def save_spectral_data(data: SpectralData, path: str):
    with open(path, "w") as f:
        json.dump(spectral_data_to_dict(data), f)


def load_spectral_data(path: str) -> SpectralData:
    with open(path) as f:
        return spectral_data_from_dict(json.load(f))


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

def _eigen_table(data: SpectralData) -> str:
    lines = ["  n | " + " | ".join(f"lambda_n{k}" for k in range(1, data.m_slots + 1))]
    for n, band in enumerate(data.lam, start=1):
        lines.append(f"{n:3d} | " + " | ".join(f"{v:.6f}" for v in band))
    return "\n".join(lines)


def _detect_rank_one_structure(problem: Problem):
    """If Q = q(x) T and H = h T, return (q grid, h); else None.  T must be nonzero."""
    t = problem.projector.matrix
    trace_t = float(np.real(np.trace(t)))
    q = np.real(np.einsum("xij,ji->x", problem.potential.samples, t)) / trace_t
    resid = problem.potential.samples - q[:, None, None] * t
    if np.max(np.abs(resid)) > 1e-6 * (1.0 + np.max(np.abs(q))):
        return None
    h = float(np.real(np.trace(t @ problem.boundary.matrix @ t))) / trace_t
    if matnorm(problem.boundary.matrix - h * t) > 1e-8 * (1.0 + abs(h)):
        return None
    return q, h


def _write_q_csv(problem: Problem, path: str):
    structure = _detect_rank_one_structure(problem)
    m = problem.m
    header = ["x"]
    if structure is not None:
        header.append("q")
    for i in range(m):
        for j in range(m):
            header += [f"Q{i + 1}{j + 1}_re", f"Q{i + 1}{j + 1}_im"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        x = problem.x
        q = problem.potential.samples
        for ix in range(x.size):
            row = [f"{x[ix]:.10g}"]
            if structure is not None:
                row.append(f"{structure[0][ix]:.10g}")
            for i in range(m):
                for j in range(m):
                    row += [f"{q[ix, i, j].real:.10g}", f"{q[ix, i, j].imag:.10g}"]
            w.writerow(row)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _require_valid(problem: Problem, what: str) -> Problem:
    """``problem``, or :class:`ValueError` listing every hypothesis it violates."""
    report = validate_problem(problem)
    if report:
        raise ValueError(f"{what} is invalid: " + "; ".join(report))
    return problem


def cmd_forward(args) -> int:
    from .forward import spectral_data

    problem = _require_valid(load_problem(args.problem), "problem")
    data = spectral_data(problem, args.bands)
    out = args.output or "forward"
    save_spectral_data(data, f"{out}.spectral.json")
    print(_eigen_table(data))
    print(f"wrote {out}.spectral.json")
    return 0


def cmd_inverse(args) -> int:
    from .reconstruct import InverseOptions, solve_inverse

    data = load_spectral_data(args.data)
    if args.bands < data.n_bands:
        data = data.truncate(args.bands)
    result = solve_inverse(data, InverseOptions(n_grid=args.grid))
    _require_valid(result.problem, "recovered problem")
    out = args.output or "inverse"
    save_problem(result.problem, f"{out}.problem.json")
    _write_q_csv(result.problem, f"{out}.q.csv")
    d = result.diagnostics
    print(f"recovered problem: m = {result.problem.m}, p = {d.p}, shift = {d.shift}")
    print(f"main-equation residual: {d.residual_max:.3e} ({d.collocation_nodes} collocation nodes)")
    print(f"decay diagnostic Lambda: {d.lam_xi:.6f}")
    stab = d.stabilize_info
    state = "applied" if stab["applied"] else "not applied, the series is already smooth"
    print(f"stabilizer: degree {stab['degree']}, {state}")
    structure = _detect_rank_one_structure(result.problem)
    if structure is not None:
        print(f"rank-one structure detected: Q = q(x) T, H = h T with h = {structure[1]:.6f}")
    for w in d.warnings:
        print(f"warning: {w}")
    print(f"wrote {out}.problem.json and {out}.q.csv")
    return 0


def cmd_roundtrip(args) -> int:
    from .forward import spectral_data
    from .reconstruct import InverseOptions, solve_inverse

    if args.problem == "synthetic":
        problem = _synthetic_problem(args.seed)
        print(f"synthetic problem (seed = {args.seed})")
    else:
        problem = load_problem(args.problem)
    _require_valid(problem, "problem")
    data = spectral_data(problem, args.bands)
    result = solve_inverse(data, InverseOptions(n_grid=args.grid))
    back = spectral_data(result.problem, args.bands)

    dlam = float(np.max(np.abs(data.lam - back.lam)))
    scale = np.maximum(np.linalg.norm(data.alpha, 2, axis=(-2, -1)), 1e-30)
    da = float(np.max(np.linalg.norm(data.alpha - back.alpha, 2, axis=(-2, -1)) / scale))
    q = problem.potential.samples
    dq, qnorm = (
        float(np.sqrt(np.trapezoid(np.sum(np.abs(a) ** 2, axis=(1, 2)), problem.x)))
        for a in (result.problem.potential.samples - q, q)
    )
    dh = matnorm(result.problem.boundary.matrix - problem.boundary.matrix)

    print(_eigen_table(back))
    ok_lam = dlam <= args.tol_spec
    ok_alpha = da <= args.tol_alpha
    print(f"max |dlambda| = {dlam:.3e}  [{'PASS' if ok_lam else 'FAIL'}] (tol {args.tol_spec})")
    print(f"max rel |dalpha| = {da:.3e}  [{'PASS' if ok_alpha else 'FAIL'}] (tol {args.tol_alpha})")
    if qnorm > 0.0:
        print(f"relative L2 potential error = {dq / qnorm * 100:.3f}%")
    else:
        print(f"L2 potential error = {dq:.3e} (the potential is zero)")
    print(f"boundary coefficient error = {dh:.3e}")
    return 0 if ok_lam and ok_alpha else 1


def _synthetic_problem(seed: int | None) -> Problem:
    rng = np.random.default_rng(seed or 0)
    amps = rng.uniform(-0.4, 0.4, size=2)
    pot = PotentialGrid.diagonal([lambda x, a=amps[0]: a * np.sin(x), np.zeros(1001)], 1000)
    return Problem(pot, Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))


def cmd_example_sec6(args) -> int:
    from .reconstruct import InverseOptions, sec6_closed_form, sec6_spectral_data, solve_inverse

    a = args.a
    data = sec6_spectral_data(a, args.bands)
    result = solve_inverse(data, InverseOptions(n_grid=args.grid))
    x = result.problem.x
    cf = sec6_closed_form(a, x)
    i0 = result.psi.slot_index[(1, 1, 0)]
    i1 = result.psi.slot_index[(1, 1, 1)]
    d_s110 = float(np.max(np.abs(result.psi.values[:, i0] - cf.s110)))
    d_s111 = float(np.max(np.abs(result.psi.values[:, i1] - cf.s111)))
    d_eps0 = float(np.max(np.abs(result.epsilon.eps0 - cf.eps0)))
    t = np.full((3, 3), 1.0 / 3.0)
    h_pipe = float(np.real(np.trace(t @ result.problem.boundary.matrix @ t)))
    print(f"a = {a}, bands = {args.bands}")
    print(f"sup |S110 pipeline - closed form| = {d_s110:.3e}")
    print(f"sup |S111 pipeline - closed form| = {d_s111:.3e}")
    print(f"sup |eps0 pipeline - closed form| = {d_eps0:.3e}")
    print(f"h closed form = {cf.h:.6f}, h pipeline = {h_pipe:.6f}")
    if args.output:
        save_problem(result.problem, f"{args.output}.problem.json")
        _write_q_csv(result.problem, f"{args.output}.q.csv")
        print(f"wrote {args.output}.problem.json and {args.output}.q.csv")
    return 0


def cmd_graph_local(args) -> int:
    from .graph import derive_star_models, extract_local_data, solve_local_inverse
    from .reconstruct import InverseOptions

    data = load_spectral_data(args.data)
    if args.bands < data.n_bands:
        data = data.truncate(args.bands)
    m = data.m_slots
    if args.edge is not None and not 1 <= args.edge <= m - 1:
        raise ValueError(f"--edge must lie in 1..{m - 1}, got {args.edge}")
    locals_ = [extract_local_data(data, i) for i in range(1, m)]
    model_set = derive_star_models(locals_)
    edges = list(range(1, m)) if args.edge is None else [args.edge]
    out = args.output or "graph-local"
    opts = InverseOptions(n_grid=args.grid)
    for i in edges:
        result = solve_local_inverse(i, locals_[i - 1], model_set.edge_model(i), opts)
        path = f"{out}.edge{i}.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["x", "q"])
            for xv, qv in zip(result.x, result.q):
                w.writerow([f"{xv:.10g}", f"{qv:.10g}"])
        print(
            f"edge {i}: model level c = {model_set.c[i - 1]:+.6f}, "
            f"residual {result.result.diagnostics.residual_max:.2e}, wrote {path}"
        )
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _positive(kind):
    """Argparse type: a number of ``kind`` that must be positive."""

    def parse(text: str):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _add_common(sp, grid=True):
    sp.add_argument("--bands", type=_positive(int), default=15, help="band truncation depth")
    if grid:
        sp.add_argument("--grid", type=_positive(int), default=1000,
                        help="potential grid intervals")
    sp.add_argument("--output", default=None, help="output path prefix")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msturm",
        description="Forward and inverse spectral solver for matrix Sturm-Liouville problems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("forward", help="spectral data of a problem file")
    sp.add_argument("--problem", required=True)
    _add_common(sp, grid=False)
    sp.set_defaults(fn=cmd_forward)

    sp = sub.add_parser("inverse", help="recover a problem from spectral data")
    sp.add_argument("--data", required=True)
    _add_common(sp)
    sp.set_defaults(fn=cmd_inverse)

    sp = sub.add_parser("roundtrip", help="forward then inverse, with comparison")
    sp.add_argument("--problem", required=True,
                    help="problem file, or 'synthetic' for a seeded built-in")
    _add_common(sp)
    sp.add_argument("--tol-spec", dest="tol_spec", type=_positive(float), default=1e-3)
    sp.add_argument("--tol-alpha", dest="tol_alpha", type=_positive(float), default=1e-2)
    sp.add_argument("--seed", type=int, default=None, help="seed for synthetic inputs")
    sp.set_defaults(fn=cmd_roundtrip)

    sp = sub.add_parser("example-sec6", help="built-in perturbed-star example")
    sp.add_argument("--a", type=float, required=True, help="perturbed square root in [0,1), != 1/2")
    _add_common(sp)
    sp.set_defaults(fn=cmd_example_sec6)

    sp = sub.add_parser("graph-local", help="star-graph edgewise recovery")
    sp.add_argument("--data", required=True)
    sp.add_argument("--edge", type=int, default=None, help="edge index (default: all local edges)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_graph_local)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return 1
    except (MSturmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
