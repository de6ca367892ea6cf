"""Star-graph adapter: edge potentials to matrix problems and back.

A star of m edges of length pi with continuity and Kirchhoff matching at
the internal vertex and Dirichlet conditions at the boundary vertices is
the matrix problem with diagonal potential diag(q_1..q_m), H = 0 and the
rank-one averaging projector T with all entries 1/m.  The inverse
direction works edgewise: for each edge i the eigenvalues together with
the (i, i) diagonal entries of the weight matrices are 1x1 data, and
``solve_inverse`` recovers q_i from them through the scalar version of
the main linear system.

The comparison problem for the scalar systems must be a star with
constant edge potentials whose half potential integrals match the data
asymptotics.  Its levels come from the same asymptotic fit as the matrix
pipeline's model, run on each edge's 1x1 data, i.e. on exactly the data
the local problems use.  Its eigenvalues are the roots of the star's
secular equation, one bracket each, and its weights come from the
closed-form Gram matrices of the constant engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BoundaryCoefficient,
    DimensionError,
    PotentialGrid,
    Problem,
    Projector,
    ReconstructionError,
    SpectralData,
    canonicalize_multiplets,
)
from ._closed import ConstantModel
from .forward import _ConstantEngine, _records, _weighted_data
# not called here (edges run through solve_inverse); profiling wrappers patch these names
from .maineq import build_groups, solve_on_grid  # noqa: F401
from .model import MIN_BANDS, collapse_weights, estimate_z_A_Theta
from .reconstruct import InverseOptions, ReconstructionResult, solve_inverse

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


def extract_local_data(data: SpectralData, edge: int) -> ScalarLocalData:
    """Diagonal slice of matrix spectral data for one edge (1-based)."""
    if not 1 <= edge <= data.dim:
        raise DimensionError(f"edge {edge} outside 1..{data.dim}")
    w = data.alpha[:, :, edge - 1, edge - 1]
    negative = np.argwhere(w.real < -1e-10 * (1.0 + np.abs(w)))
    if negative.size:
        n, k = negative[0] + 1
        raise DimensionError(f"negative diagonal weight at (n, k) = ({n}, {k})")
    return ScalarLocalData(edge, SpectralData.from_arrays(data.lam, w.real[..., None, None]))


@dataclass(frozen=True)
class ScalarEdgeModel:
    """Comparison data for one edge: constant level c and model diagonals."""

    edge: int
    c: float
    data: SpectralData  # 1x1 weights of the comparison star, same bands

    @property
    def problem(self) -> Problem:
        """The edge's 1x1 comparison problem: level c, T = 0 and H = 0.

        With a zero projector the recovered boundary coefficient is 0.
        """
        return Problem(
            PotentialGrid.constant([[self.c]], 1),
            Projector(np.zeros((1, 1)), 0),
            BoundaryCoefficient.zero(1),
        )


@dataclass(frozen=True)
class StarModelSet:
    """Comparison star with constant edge potentials and its spectral data."""

    c: np.ndarray
    problem: Problem
    data: SpectralData

    def edge_model(self, edge: int) -> ScalarEdgeModel:
        local = extract_local_data(self.data, edge)
        return ScalarEdgeModel(edge, float(self.c[edge - 1]), local.data)


def derive_star_models(locals_: list[ScalarLocalData]) -> StarModelSet:
    """Build the matched comparison star from edge data for i = 1..m-1.

    :func:`~msturm.model.estimate_z_A_Theta` on the canonicalised 1x1 data
    of edge i gives the drifts and the diagonal entry Theta_ii of the
    weighted limit matrix.  The first drift is the mean potential level of
    the rank-one block (z_1 equals the average of the half integrals), and
    the individual half integrals omega_i follow by inverting the star
    block structure:

        Theta_ii = omega_i (1 - 2/m) + 2 z_1 / m,
        sum_i omega_i = m z_1.

    The comparison star has constant edges c_i = 2 omega_i / pi, on the
    smallest grid: its eigenvalues solve its secular equation
    (:func:`_star_eigenvalues`) and its weights come from the closed-form
    constant engine, and both read only the constant levels.
    Data with fewer than ``MIN_BANDS`` bands raise
    :class:`ReconstructionError` before any fit, as the inverse does.
    """
    if not locals_:
        raise DimensionError("need local data for edges 1..m-1")
    m = locals_[0].data.m_slots
    if m < 3:
        raise DimensionError("the block inversion needs m >= 3 edges")
    if len(locals_) < m - 1:
        raise DimensionError(f"need {m - 1} edge data sets, got {len(locals_)}")
    nb = locals_[0].data.n_bands
    if nb < MIN_BANDS:
        raise ReconstructionError(f"the inverse needs at least {MIN_BANDS} bands, got {nb}")
    p = 1  # averaging projector has rank one

    omega = np.empty(m)
    for loc in locals_[: m - 1]:
        data = canonicalize_multiplets(loc.data.truncate(nb))
        summary = estimate_z_A_Theta(data, collapse_weights(data, p), p)
        z1 = summary.z[0]  # the edges share their eigenvalues, hence the drifts
        omega[loc.edge - 1] = (float(np.real(summary.theta[0, 0])) - 2.0 * z1 / m) / (1.0 - 2.0 / m)
    omega[m - 1] = m * z1 - float(np.sum(omega[: m - 1]))

    c = 2.0 * omega / np.pi
    problem = graph_to_matrix(StarGraphProblem(np.repeat(c[:, None], 2, axis=1)))
    eng = _ConstantEngine(problem)
    records = _records(_star_eigenvalues(eng.model, m * nb), m)
    return StarModelSet(c, problem, _weighted_data(problem, eng, records))


def _star_eigenvalues(model: ConstantModel, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues, sorted, of the star with edge levels ``model.d``.

    det V(S(pi, lam)) is proportional to chi = F prod_i s_i with F = sum_i
    s_i' / s_i, (s, s') the traces at pi.  F is positive below min c and, by
    Lagrange's identity, strictly decreasing between its poles c_i + k^2,
    k >= 1.  So one eigenvalue lies below the first pole, one between any
    two consecutive pole values, and a pole value shared by mu edges is an
    eigenvalue of multiplicity mu - 1.  All brackets take Illinois steps on
    arctan(F / scale) together, down to rounding.  F is read only inside a
    bracket: chi vanishes at a shared pole too.
    """
    d = model.d
    # poles up to k = n + ceil(sqrt(max c - min c)) hold the lowest count = m n
    k = np.arange(1, count // d.size + int(np.ceil(np.sqrt(d[-1] - d[0]))) + 1)
    values, mult = np.unique(d[:, None] + k**2, return_counts=True)
    x = np.stack([np.concatenate([d[:1], values[:-1]]), values])  # bracket ends lo, hi
    gx = np.outer([0.5 * np.pi, -0.5 * np.pi], np.ones(values.size))  # limits at poles; F > 0 at min c
    scale = np.maximum(1.0, x[1]) / (x[1] - x[0])  # F / scale is of order 1 in every bracket

    def g(lams, i):
        s, sp = (t[0] for t in model.traces(np.pi, lams))
        return np.arctan(np.sum(sp / s, -1) / scale[i])

    last = np.full(values.size, -1)  # end moved last: 0 lo, 1 hi
    while np.any(open_ := x[1] - x[0] > 4.0 * np.spacing(1.0 + np.abs(x[1]))):
        i = np.nonzero(open_)[0]
        lo, hi = x[:, i]
        p = lo - gx[0, i] * (hi - lo) / (gx[1, i] - gx[0, i])
        p = np.clip(p, np.nextafter(lo, hi), np.nextafter(hi, lo))
        gp = g(p, i)
        end = (gp <= 0.0).astype(int)  # 1: the root lies in (lo, p], so p becomes hi
        gx[1 - end, i] *= np.where(last[i] == end, 0.5, 1.0)  # Illinois: halve an end kept twice
        x[end, i], gx[end, i], last[i] = p, gp, end
    return np.sort(np.concatenate([x.mean(0), np.repeat(values, mult - 1)]))[:count]


@dataclass
class LocalEdgeResult:
    """Recovered scalar potential for one edge, q = Re Q[:, 0, 0] of ``result``."""

    edge: int
    x: np.ndarray
    q: np.ndarray
    result: ReconstructionResult


def solve_local_inverse(
    edge: int,
    local: ScalarLocalData,
    model: ScalarEdgeModel,
    options: InverseOptions | None = None,
) -> LocalEdgeResult:
    """Recover one edge potential from its scalar local data.

    Runs :func:`~msturm.reconstruct.solve_inverse` on the 1x1 data against
    the edge's comparison problem and data, the scalar (1x1)
    specialisation of the grouped main system.  Failures are re-raised as
    :class:`StageError` tagged with the stage name.
    """
    opts = options or InverseOptions()
    if edge != local.edge or edge != model.edge:
        raise DimensionError("edge index mismatch between data and model")
    result = solve_inverse(local.data, replace(opts, model_override=(model.problem, model.data)))
    q = np.real(result.problem.potential.samples[:, 0, 0])
    return LocalEdgeResult(edge, result.psi.x, q, result)


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
    opts = replace(options or InverseOptions(), model_override=(model_set.problem, model_set.data))
    return solve_inverse(data, opts)
