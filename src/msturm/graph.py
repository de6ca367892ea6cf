"""Star-graph adapter: edge potentials to matrix problems and back.

A star of m edges of length pi with continuity and Kirchhoff matching at
the internal vertex and Dirichlet conditions at the boundary vertices is
the matrix problem with diagonal potential diag(q_1..q_m), H = 0 and the
rank-one averaging projector T with all entries 1/m.  The inverse
direction works edgewise: for each edge i the eigenvalues together with
the (i, i) diagonal entries of the weight matrices feed a scalar version
of the main linear system, which recovers q_i.

The comparison problem for the scalar systems must be a star with
constant edge potentials whose half potential integrals match the data
asymptotics; it is derived here from the drift coefficients and the
diagonal limit matrices alone, i.e. from exactly the data the local
problems use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._closed import ConstantModel
from .core import (
    DEFAULT_TOL,
    BoundaryCoefficient,
    DimensionError,
    PotentialGrid,
    Problem,
    Projector,
    SpectralData,
    SpectralDatum,
    ToleranceConfig,
    canonicalize_multiplets,
)
from .maineq import build_groups, solve_on_grid
from .model import collapse_weights, fit_drifts, _class_partition, _fit_window, _limit_fit
from .reconstruct import (
    EpsilonTrace,
    InverseOptions,
    ReconstructionResult,
    epsilon_series,
    solve_inverse,
    stabilize_epsilon,
)

__all__ = [
    "StarGraphProblem",
    "ScalarLocalData",
    "ScalarEdgeModel",
    "StarModelSet",
    "LocalEdgeResult",
    "graph_to_matrix",
    "extract_local_data",
    "derive_star_models",
    "solve_local_inverse",
    "solve_star_matrix",
]


@dataclass(frozen=True)
class StarGraphProblem:
    """Scalar edge potentials sampled on the shared grid."""

    edges: np.ndarray  # (m, n_grid + 1) real samples

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        if e.ndim != 2 or e.shape[0] < 2:
            raise DimensionError("edges must be (m >= 2, n_grid + 1) real samples")
        object.__setattr__(self, "edges", e)

    @classmethod
    def from_callables(cls, funcs, n_grid: int = 1000) -> "StarGraphProblem":
        x = np.linspace(0.0, np.pi, n_grid + 1)
        return cls(np.stack([np.asarray([f(xi) for xi in x]) for f in funcs]))

    @property
    def m(self) -> int:
        return self.edges.shape[0]


def graph_to_matrix(g: StarGraphProblem) -> Problem:
    """Matrix form: diagonal potential, H = 0, averaging projector."""
    m = g.m
    n_grid = g.edges.shape[1] - 1
    samples = np.zeros((n_grid + 1, m, m), dtype=complex)
    idx = np.arange(m)
    samples[:, idx, idx] = g.edges.T
    return Problem(
        PotentialGrid(samples),
        Projector.star(m),
        BoundaryCoefficient.zero(m),
    )


@dataclass(frozen=True)
class ScalarLocalData:
    """Eigenvalues plus one diagonal weight sequence, as 1x1 spectral data."""

    edge: int
    data: SpectralData

    @property
    def m_slots(self) -> int:
        return self.data.m_slots


def extract_local_data(data: SpectralData, edge: int) -> ScalarLocalData:
    """Diagonal slice of matrix spectral data for one edge (1-based)."""
    i = edge - 1
    datums = []
    for d in data.data:
        w = complex(d.alpha[i, i])
        if w.real < -1e-10 * (1.0 + abs(w)):
            raise DimensionError(f"negative diagonal weight at (n, k) = ({d.n}, {d.k})")
        datums.append(SpectralDatum(d.n, d.k, d.lam, np.array([[w.real]], dtype=complex)))
    return ScalarLocalData(edge, SpectralData(tuple(datums), data.n_bands))


@dataclass(frozen=True)
class ScalarEdgeModel:
    """Comparison data for one edge: constant level c and model diagonals."""

    edge: int
    c: float
    data: SpectralData  # 1x1 weights of the comparison star, same bands


@dataclass(frozen=True)
class StarModelSet:
    """Comparison star with constant edge potentials and its spectral data."""

    c: np.ndarray
    problem: Problem
    data: SpectralData

    def edge_model(self, edge: int) -> ScalarEdgeModel:
        local = extract_local_data(self.data, edge)
        return ScalarEdgeModel(edge, float(self.c[edge - 1]), local.data)


def derive_star_models(
    locals_: list[ScalarLocalData],
    n_bands: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> StarModelSet:
    """Build the matched comparison star from edge data for i = 1..m-1.

    The drift coefficients give the mean potential level through the
    rank-one block (z_1 equals the average of the half integrals); the
    per-edge diagonal limits combine with the drifts to the diagonal
    entries of the weighted limit matrix, from which the individual half
    integrals omega_i follow by inverting the star block structure:

        Theta_ii = omega_i (1 - 2/m) + 2 z_1 / m,
        sum_i omega_i = m z_1.

    The comparison star has constant edges c_i = 2 omega_i / pi; its
    spectral data is computed from closed-form traces.
    """
    from .forward import spectral_data as fwd_spectral_data

    if not locals_:
        raise DimensionError("need local data for edges 1..m-1")
    m = locals_[0].m_slots
    if m < 3:
        raise DimensionError("the block inversion needs m >= 3 edges")
    if len(locals_) < m - 1:
        raise DimensionError(f"need {m - 1} edge data sets, got {len(locals_)}")
    nb = n_bands or locals_[0].data.n_bands
    p = 1  # averaging projector has rank one

    z = fit_drifts(locals_[0].data.truncate(nb), p)
    classes = _class_partition(z, p, tol.z_group)
    omega = np.empty(m)
    for loc in locals_[: m - 1]:
        data = canonicalize_multiplets(loc.data.truncate(nb), tol)
        weights = collapse_weights(data, p, tol)
        window = _fit_window(nb)
        ns = np.asarray(window, dtype=float)
        theta_ii = 0.0
        for cls in classes:
            sums = []
            for n in window:
                acc = 0.0
                for k in cls:
                    acc += float(np.real(weights.alpha_prime[(n, k + 1)][0, 0]))
                sums.append(acc)
            sigma = (ns - 0.5) if cls[0] < p else ns
            vals = np.asarray(sums) * np.pi / (2.0 * sigma**2)
            a_ii, _ = _limit_fit(ns, vals[:, None])
            theta_ii += z[cls[0]] * float(np.real(a_ii[0]))
        omega[loc.edge - 1] = (theta_ii - 2.0 * z[0] / m) / (1.0 - 2.0 / m)
    omega[m - 1] = m * z[0] - float(np.sum(omega[: m - 1]))

    c = 2.0 * omega / np.pi
    n_grid = 1000
    star = StarGraphProblem(np.repeat(c[:, None], n_grid + 1, axis=1))
    problem = graph_to_matrix(star)
    data = fwd_spectral_data(problem, nb, engine="constant", tol=tol)
    return StarModelSet(c, problem, data)


@dataclass
class LocalEdgeResult:
    """Recovered scalar potential for one edge."""

    edge: int
    x: np.ndarray
    q: np.ndarray
    epsilon: EpsilonTrace
    residual_max: float


def solve_local_inverse(
    edge: int,
    local: ScalarLocalData,
    model: ScalarEdgeModel,
    options: InverseOptions | None = None,
) -> LocalEdgeResult:
    """Recover one edge potential from its scalar local data.

    Runs the scalar (1x1) specialisation of the grouped main system
    against the supplied comparison data and applies the correction
    series to the constant comparison level.
    """
    opts = options or InverseOptions()
    tol = opts.tol
    if edge != local.edge or edge != model.edge:
        raise DimensionError("edge index mismatch between data and model")
    p = 1
    data_l = canonicalize_multiplets(local.data, tol)
    data_m = canonicalize_multiplets(model.data.truncate(data_l.n_bands), tol)
    weights_l = collapse_weights(data_l, p, tol)
    weights_m = collapse_weights(data_m, p, tol)
    groups = build_groups(data_l, data_m, p, tol)
    cm = ConstantModel(np.array([[model.c]], dtype=complex))
    x = np.linspace(0.0, np.pi, opts.n_grid + 1)
    psi = solve_on_grid(groups, weights_l, weights_m, cm, x, tol=tol, chunk=opts.x_chunk)
    epsilon = epsilon_series(psi, cm, weights_l, weights_m)
    eps_used = epsilon
    if opts.stabilize:
        eps_used, _ = stabilize_epsilon(epsilon, data_l.n_bands, opts.stabilize_max_degree)
    q = model.c + np.real(eps_used.eps[:, 0, 0])
    return LocalEdgeResult(edge, x, q, epsilon, psi.residual_max)


def solve_star_matrix(
    data: SpectralData,
    model_set: StarModelSet,
    options: InverseOptions | None = None,
) -> ReconstructionResult:
    """Full-matrix fallback: run the matrix pipeline against the star model.

    Needs complete weight matrices.  Useful for the last edge (whose
    diagonal data the local problems do not use) and as a cross-check of
    the scalar path: with the shared diagonal comparison star, the
    diagonal of the recovered potential matches the edgewise results
    within the truncation accuracy.
    """
    opts = replace(
        options or InverseOptions(),
        model_override=model_set.problem,
        model_data_override=model_set.data,
    )
    return solve_inverse(data, opts)
