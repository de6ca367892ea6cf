"""Seeded inputs, timed operations and accuracy checks of the benchmark.

Each workload has four parts:

* ``make_inputs(rng, size)`` draws one input instance from the seeded
  generator.  Only these arrays reach the program.
* ``setup(inputs, size)`` builds what the timed operation needs (timed
  as set-up).
* ``run(state, size)`` is the timed operation.  It calls the package
  through module attributes, so the traced run's wrappers see the calls.
* ``check(inputs, state, out, size, perturb)`` compares the output with
  ground truth at the acceptance criteria's stated accuracy and returns
  the named errors and the list of missed limits.  ``perturb`` shifts the
  reference by that relative amount; the smoke test uses it to show that
  a wrong reference is caught.

The seeds move the inputs only inside a narrow band (amplitude and
frequency within +-2 %), while the unitary rotation of the general case
is drawn freely: the solver is covariant under it, so accuracy figures
stay comparable from seed to seed while the inputs still change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from msturm import core, forward, graph, reconstruct
from msturm.reconstruct import InverseOptions


@dataclass(frozen=True)
class Size:
    bands: int
    grid: int


# acceptance-criterion limits (criteria 1, 5 and 8)
DRHO_MAX = 1e-6
ALPHA_REL_MAX = 1e-4
Q_REL_MAX = 0.05
H_ABS_MAX = 1e-2
PATH_ABS_MAX = 1e-4
# criterion 7: Hermitian, positive semidefinite weights
WEIGHT_HERM_REL = 1e-10


def _jitter(rng, n=1, width=0.02):
    return 1.0 + width * rng.uniform(-1.0, 1.0, n)


def rel_l2(got, ref, x):
    """Relative L2 error over x of matrix- or scalar-valued samples."""
    d = np.abs(np.asarray(got) - np.asarray(ref)) ** 2
    r = np.abs(np.asarray(ref)) ** 2
    if d.ndim > 1:
        d = d.reshape(d.shape[0], -1).sum(axis=1)
        r = r.reshape(r.shape[0], -1).sum(axis=1)
    return float(np.sqrt(np.trapezoid(d, x) / np.trapezoid(r, x)))


def _count_ok(data, m, bands):
    return len(data.data) == m * bands


# ----------------------------------------------------------------------
# the seeded star: edge 1 = a sin(kx), edges 2 and 3 zero
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StarInputs:
    a: float
    k: float
    edges: np.ndarray  # (3, grid + 1)


def star_inputs(rng, size: Size) -> StarInputs:
    a = 0.3 * float(_jitter(rng)[0])
    k = float(_jitter(rng)[0])
    x = np.linspace(0.0, np.pi, size.grid + 1)
    edges = np.zeros((3, size.grid + 1))
    edges[0] = a * np.sin(k * x)
    return StarInputs(a, k, edges)


def build_problem(problem):
    report = core.validate_problem(problem)
    if report:
        raise core.MSturmError("invalid generated problem: " + "; ".join(report))
    return problem


def star_problem(inputs: StarInputs):
    return build_problem(graph.graph_to_matrix(graph.StarGraphProblem(inputs.edges)))


def check_star_forward(data, bands, perturb=0.0):
    """Criterion 1 on the exact antisymmetric edge-2/3 modes, criterion 7 weights.

    For every band n the mode e2 - e3 has lam = n^2 and
    alpha = (n^2 / pi) (e2 - e3)(e2 - e3)^T, whatever edge 1 carries.
    """
    errs, missed = {}, []
    if not _count_ok(data, 3, bands):
        missed.append(f"eigenvalue count {len(data.data)} != {3 * bands}")
    v = np.array([0.0, 1.0, -1.0])
    lam_err = drho = alpha_err = 0.0
    herm = psd = 0.0
    for n in range(1, bands + 1):
        exact = n * n * (1.0 + perturb)
        band = [d for d in data.data if d.n == n]
        best = min(band, key=lambda d: abs(d.lam - exact))
        lam_err = max(lam_err, abs(best.lam - exact))
        drho = max(drho, abs(np.sqrt(best.lam) - np.sqrt(exact)))
        ref = (exact / np.pi) * np.outer(v, v)
        alpha_err = max(alpha_err, np.linalg.norm(best.alpha - ref, 2) / np.linalg.norm(ref, 2))
    for d in data.data:
        scale = max(np.linalg.norm(d.alpha, 2), 1.0)
        herm = max(herm, np.linalg.norm(d.alpha - d.alpha.conj().T, 2) / scale)
        psd = max(psd, -np.min(np.linalg.eigvalsh(d.alpha)) / scale)
    if drho > DRHO_MAX:
        missed.append(f"max|drho| {drho:.2e} > {DRHO_MAX}")
    if alpha_err > ALPHA_REL_MAX:
        missed.append(f"max rel dalpha {alpha_err:.2e} > {ALPHA_REL_MAX}")
    if herm > WEIGHT_HERM_REL or psd > WEIGHT_HERM_REL:
        missed.append(f"weights not Hermitian PSD (herm {herm:.1e}, neg eig {psd:.1e})")
    errs.update(lam_err=float(lam_err), alpha_err=float(alpha_err))
    return errs, missed


# ----------------------------------------------------------------------
# forward-star
# ----------------------------------------------------------------------

class ForwardStar:
    name = "forward-star"
    size = Size(bands=6, grid=360)
    primary = ("alpha_err", "lam_err")  # (rel_err, abs_err)

    make_inputs = staticmethod(star_inputs)

    @staticmethod
    def setup(inputs, size):
        return star_problem(inputs)

    @staticmethod
    def run(problem, size):
        return forward.spectral_data(problem, size.bands, engine="rk4")

    @staticmethod
    def check(inputs, problem, data, size, perturb=0.0):
        return check_star_forward(data, size.bands, perturb)

    @staticmethod
    def true_projector(inputs):
        return None


# ----------------------------------------------------------------------
# graph-star
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GraphOut:
    edge: object    # LocalEdgeResult
    matrix: object  # ReconstructionResult


class GraphStar:
    name = "graph-star"
    size = Size(bands=6, grid=360)
    primary = ("q_err", "path_err")

    make_inputs = staticmethod(star_inputs)

    @staticmethod
    def setup(inputs, size):
        problem = star_problem(inputs)
        return forward.spectral_data(problem, size.bands, engine="rk4")

    @staticmethod
    def run(data, size):
        opts = InverseOptions(n_grid=size.grid)
        locals_ = [graph.extract_local_data(data, i) for i in (1, 2)]
        models = graph.derive_star_models(locals_)
        edge = graph.solve_local_inverse(1, locals_[0], models.edge_model(1), opts)
        matrix = graph.solve_star_matrix(data, models, opts)
        return GraphOut(edge, matrix)

    @staticmethod
    def check(inputs, data, out, size, perturb=0.0):
        """Criterion 8: edge-1 recovery and scalar/matrix path agreement."""
        x = out.edge.x
        qtrue = (1.0 + perturb) * inputs.a * np.sin(inputs.k * x)
        q_err = rel_l2(out.edge.q, qtrue, x)
        q11 = np.real(out.matrix.problem.potential.samples[:, 0, 0])
        path_err = float(np.max(np.abs(q11 - out.edge.q)))
        missed = []
        if q_err > Q_REL_MAX:
            missed.append(f"edge-1 relative L2 error {q_err:.3e} > {Q_REL_MAX}")
        if path_err > PATH_ABS_MAX:
            missed.append(f"path agreement {path_err:.2e} > {PATH_ABS_MAX}")
        return {"q_err": q_err, "path_err": path_err}, missed

    @staticmethod
    def true_projector(inputs):
        return np.full((3, 3), 1.0 / 3.0)


# ----------------------------------------------------------------------
# roundtrip-general
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralInputs:
    q: np.ndarray  # (grid + 1, 2, 2) complex Hermitian
    t: np.ndarray  # rank-one projector, not a coordinate one
    h: np.ndarray  # 0.3 T


def haar_unitary(rng, m):
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    qmat, r = np.linalg.qr(z)
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def general_inputs(rng, size: Size) -> GeneralInputs:
    """Coupled complex-Hermitian Q, rotated rank-one T, H = 0.3 T (m = 2).

    In the unrotated frame Q0(x) = sin x A + sin 2x B with A, B that do
    not commute, so no constant basis decouples the channels; the whole
    problem is then rotated by a seeded unitary.
    """
    u = haar_unitary(rng, 2)
    j = _jitter(rng, 3)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    x = np.linspace(0.0, np.pi, size.grid + 1)
    q0 = np.zeros((size.grid + 1, 2, 2), dtype=complex)
    q0[:, 0, 0] = 0.5 * j[0] * np.sin(x)
    q0[:, 1, 1] = 0.3 * j[1] * np.sin(2.0 * x)
    q0[:, 0, 1] = 0.2 * j[2] * phase * np.sin(x)
    q0[:, 1, 0] = np.conj(q0[:, 0, 1])
    q = u @ q0 @ u.conj().T
    q = 0.5 * (q + q.conj().transpose(0, 2, 1))
    t = u @ np.diag([1.0, 0.0]) @ u.conj().T
    t = 0.5 * (t + t.conj().T)
    return GeneralInputs(q, t, 0.3 * t)


class RoundtripGeneral:
    name = "roundtrip-general"
    size = Size(bands=10, grid=300)
    primary = ("q_err", "h_err")

    make_inputs = staticmethod(general_inputs)

    @staticmethod
    def setup(inputs, size):
        return build_problem(
            core.Problem(
                core.PotentialGrid(inputs.q),
                core.Projector(inputs.t, 1),
                core.BoundaryCoefficient(inputs.h),
            )
        )

    @staticmethod
    def run(problem, size):
        data = forward.spectral_data(problem, size.bands, engine="rk4")
        result = reconstruct.solve_inverse(data, InverseOptions(n_grid=size.grid))
        return data, result

    @staticmethod
    def check(inputs, problem, out, size, perturb=0.0):
        """Criterion 5: eigenvalue count, potential and boundary recovery."""
        data, result = out
        missed = []
        if not _count_ok(data, 2, size.bands):
            missed.append(f"eigenvalue count {len(data.data)} != {2 * size.bands}")
        q_ref = (1.0 + perturb) * inputs.q
        q_err = rel_l2(result.problem.potential.samples, q_ref, problem.x)
        h_err = float(np.linalg.norm(result.problem.boundary.matrix - (1.0 + perturb) * inputs.h, 2))
        if q_err > Q_REL_MAX:
            missed.append(f"relative L2 potential error {q_err:.3e} > {Q_REL_MAX}")
        if h_err > H_ABS_MAX:
            missed.append(f"|dH| {h_err:.2e} > {H_ABS_MAX}")
        return {"q_err": q_err, "h_err": h_err}, missed

    @staticmethod
    def true_projector(inputs):
        return inputs.t


WORKLOADS = {w.name: w for w in (ForwardStar, GraphStar, RoundtripGeneral)}
