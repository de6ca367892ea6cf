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
from dataclasses import dataclass

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
)

__all__ = [
    "RunConfig",
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


@dataclass
class RunConfig:
    """Resolved command options."""

    bands: int = 15
    grid: int = 1000
    tol_spec: float = 1e-3
    tol_alpha: float = 1e-2
    output: str | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.bands <= 0 or self.grid <= 0:
            raise ValueError("bands and grid must be positive")
        if self.tol_spec <= 0 or self.tol_alpha <= 0:
            raise ValueError("tolerances must be positive")


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


def problem_to_dict(problem: Problem) -> dict:
    return {
        "format": PROBLEM_FORMAT,
        "version": 1,
        "m": problem.m,
        "n_grid": problem.n_grid,
        "shift": problem.shift,
        "projector": {
            "p": problem.projector.p,
            "matrix": _mat_to_json(problem.projector.matrix),
        },
        "boundary": _mat_to_json(problem.boundary.matrix),
        "potential": [_mat_to_json(s) for s in problem.potential.samples],
    }


def problem_from_dict(doc: dict) -> Problem:
    if doc.get("format") != PROBLEM_FORMAT:
        raise ValueError(f"not a problem document (format = {doc.get('format')!r})")
    samples = np.stack(
        [_mat_from_json(s, f"potential sample {i}") for i, s in enumerate(doc["potential"])]
    )
    return Problem(
        PotentialGrid(samples),
        Projector(_mat_from_json(doc["projector"]["matrix"], "projector"), int(doc["projector"]["p"])),
        BoundaryCoefficient(_mat_from_json(doc["boundary"], "boundary")),
        shift=float(doc.get("shift", 0.0)),
    )


def spectral_data_to_dict(data: SpectralData) -> dict:
    return {
        "format": SPECTRAL_FORMAT,
        "version": 1,
        "dim": data.dim,
        "m_slots": data.m_slots,
        "n_bands": data.n_bands,
        "data": [
            {"n": d.n, "k": d.k, "lambda": float(d.lam), "alpha": _mat_to_json(d.alpha)}
            for d in data.data
        ],
    }


def spectral_data_from_dict(doc: dict) -> SpectralData:
    if doc.get("format") != SPECTRAL_FORMAT:
        raise ValueError(f"not a spectral-data document (format = {doc.get('format')!r})")
    datums = []
    for i, entry in enumerate(doc["data"]):
        try:
            datums.append(
                SpectralDatum(
                    int(entry["n"]),
                    int(entry["k"]),
                    float(entry["lambda"]),
                    _mat_from_json(entry["alpha"], f"alpha entry {i}"),
                )
            )
        except KeyError as exc:
            raise ValueError(f"spectral datum {i} missing field {exc}") from exc
    return SpectralData(tuple(datums), int(doc["n_bands"]))


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
    grid = data.lambda_grid()
    for n in range(1, data.n_bands + 1):
        row = " | ".join(f"{grid[n - 1, k]:.6f}" for k in range(data.m_slots))
        lines.append(f"{n:3d} | {row}")
    return "\n".join(lines)


def _detect_rank_one_structure(problem: Problem):
    """If Q = q(x) T and H = h T, return (q grid, h); else None."""
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

def cmd_forward(args) -> int:
    from .forward import spectral_data

    problem = load_problem(args.problem)
    data = spectral_data(problem, args.bands)
    out = args.output or "forward"
    save_spectral_data(data, f"{out}.spectral.json")
    print(_eigen_table(data))
    print(f"wrote {out}.spectral.json")
    return 0


def _inverse_options(cfg: RunConfig):
    from .reconstruct import InverseOptions

    return InverseOptions(n_grid=cfg.grid)


def cmd_inverse(args) -> int:
    from .reconstruct import solve_inverse

    data = load_spectral_data(args.data)
    cfg = RunConfig(bands=args.bands, grid=args.grid, tol_spec=args.tol_spec,
                    tol_alpha=args.tol_alpha, output=args.output)
    if args.bands and args.bands < data.n_bands:
        data = data.truncate(args.bands)
    result = solve_inverse(data, _inverse_options(cfg))
    out = args.output or "inverse"
    save_problem(result.problem, f"{out}.problem.json")
    _write_q_csv(result.problem, f"{out}.q.csv")
    d = result.diagnostics
    print(f"recovered problem: m = {result.problem.m}, p = {d.p}, shift = {d.shift}")
    print(f"main-equation residual: {d.residual_max:.3e}")
    print(f"decay diagnostic Lambda: {d.lam_xi:.6f}")
    structure = _detect_rank_one_structure(result.problem)
    if structure is not None:
        print(f"rank-one structure detected: Q = q(x) T, H = h T with h = {structure[1]:.6f}")
    for w in d.warnings:
        print(f"warning: {w}")
    print(f"wrote {out}.problem.json and {out}.q.csv")
    return 0


def cmd_roundtrip(args) -> int:
    from .forward import spectral_data
    from .reconstruct import solve_inverse

    if args.problem == "synthetic":
        problem = _synthetic_problem(args.seed)
        print(f"synthetic problem (seed = {args.seed})")
    else:
        problem = load_problem(args.problem)
    cfg = RunConfig(bands=args.bands, grid=args.grid, tol_spec=args.tol_spec,
                    tol_alpha=args.tol_alpha, output=args.output, seed=args.seed)
    data = spectral_data(problem, args.bands)
    result = solve_inverse(data, _inverse_options(cfg))
    back = spectral_data(result.problem, args.bands)

    lam_in = data.lambda_grid()
    lam_out = back.lambda_grid()
    dlam = float(np.max(np.abs(lam_in - lam_out)))
    da = 0.0
    for d_in in data.data:
        d_out = back.entry(d_in.n, d_in.k)
        scale = max(matnorm(d_in.alpha), 1e-30)
        da = max(da, matnorm(d_in.alpha - d_out.alpha) / scale)
    x = problem.x
    dq = result.problem.potential.samples - problem.potential.samples
    qnorm = np.sqrt(np.trapezoid(np.sum(np.abs(problem.potential.samples) ** 2, axis=(1, 2)), x))
    dq_rel = float(np.sqrt(np.trapezoid(np.sum(np.abs(dq) ** 2, axis=(1, 2)), x)) / max(qnorm, 1e-30))
    dh = matnorm(result.problem.boundary.matrix - problem.boundary.matrix)

    print(_eigen_table(back))
    ok_lam = dlam <= cfg.tol_spec
    ok_alpha = da <= cfg.tol_alpha
    print(f"max |dlambda| = {dlam:.3e}  [{'PASS' if ok_lam else 'FAIL'}] (tol {cfg.tol_spec})")
    print(f"max rel |dalpha| = {da:.3e}  [{'PASS' if ok_alpha else 'FAIL'}] (tol {cfg.tol_alpha})")
    print(f"relative L2 potential error = {dq_rel * 100:.3f}%")
    print(f"boundary coefficient error = {dh:.3e}")
    return 0 if ok_lam and ok_alpha else 1


def _synthetic_problem(seed: int | None) -> Problem:
    rng = np.random.default_rng(seed or 0)
    amps = rng.uniform(-0.4, 0.4, size=2)
    pot = PotentialGrid.diagonal(
        [lambda x, a=amps[0]: a * np.sin(x), lambda x, a=amps[1]: a * np.sin(2 * x) * 0.0],
        1000,
    )
    return Problem(pot, Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))


def cmd_example_sec6(args) -> int:
    from .reconstruct import sec6_closed_form, sec6_spectral_data, solve_inverse

    a = args.a
    data = sec6_spectral_data(a, args.bands)
    result = solve_inverse(data, _inverse_options(RunConfig(bands=args.bands, grid=args.grid)))
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

    data = load_spectral_data(args.data)
    if args.bands and args.bands < data.n_bands:
        data = data.truncate(args.bands)
    m = data.m_slots
    locals_ = [extract_local_data(data, i) for i in range(1, m)]
    model_set = derive_star_models(locals_, data.n_bands)
    edges = [args.edge] if args.edge else list(range(1, m))
    out = args.output or "graph-local"
    opts = _inverse_options(RunConfig(bands=args.bands or data.n_bands, grid=args.grid))
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
            f"residual {result.residual_max:.2e}, wrote {path}"
        )
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _add_common(sp, bands=15):
    sp.add_argument("--bands", type=int, default=bands, help="band truncation depth")
    sp.add_argument("--grid", type=int, default=1000, help="potential grid intervals")
    sp.add_argument("--tol-spec", dest="tol_spec", type=float, default=1e-3)
    sp.add_argument("--tol-alpha", dest="tol_alpha", type=float, default=1e-2)
    sp.add_argument("--output", default=None, help="output path prefix")
    sp.add_argument("--seed", type=int, default=None, help="seed for synthetic inputs")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msturm",
        description="Forward and inverse spectral solver for matrix Sturm-Liouville problems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("forward", help="spectral data of a problem file")
    sp.add_argument("--problem", required=True)
    _add_common(sp)
    sp.set_defaults(fn=cmd_forward)

    sp = sub.add_parser("inverse", help="recover a problem from spectral data")
    sp.add_argument("--data", required=True)
    _add_common(sp)
    sp.set_defaults(fn=cmd_inverse)

    sp = sub.add_parser("roundtrip", help="forward then inverse, with comparison")
    sp.add_argument("--problem", required=True,
                    help="problem file, or 'synthetic' for a seeded built-in")
    _add_common(sp)
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
