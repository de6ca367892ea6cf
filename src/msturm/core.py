"""Shared domain types for the matrix Sturm-Liouville toolkit.

Everything in this package revolves around the self-adjoint eigenvalue
problem

    -Y'' + Q(x) Y = lam Y,   x in (0, pi),
    Y(0) = 0,
    V(Y) := T (Y'(pi) - H Y(pi)) - (I - T) Y(pi) = 0,

where Q(x) is an m x m Hermitian matrix potential, T is an orthogonal
projector and H = T H T is Hermitian.  This module holds the container
types (problems, potential grids, spectral data), their invariant checks,
the shared tolerance configuration and the exception taxonomy.  All
containers are immutable after construction and safe to share between
threads; the numerics live in the sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "MSturmError",
    "DimensionError",
    "IntegrationOverflowError",
    "AtEigenvalueError",
    "ContourClashError",
    "BracketExhaustionError",
    "InconclusiveRankError",
    "NoisyDataError",
    "GroupingError",
    "GroupingInconsistencyError",
    "MainEquationError",
    "ReconstructionError",
    "StageError",
    "Projector",
    "PotentialGrid",
    "BoundaryCoefficient",
    "Problem",
    "SpectralDatum",
    "SpectralData",
    "validate_problem",
    "validate_spectral_data",
    "canonicalize_multiplets",
    "shift_spectrum",
    "hermitian_part",
    "matnorm",
]


# ----------------------------------------------------------------------
# tolerances
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used across the toolkit.

    The defaults target the standard desk scale: grids of ~1000 nodes on
    [0, pi] and spectral data truncated to a few tens of bands.  Every
    public operation accepts an instance of this class, so single
    tolerances can be tightened or relaxed without touching call sites.
    """

    herm: float = 1e-12              # Hermiticity of T and H
    herm_potential: float = 1e-10    # Hermiticity of potential samples
    projector: float = 1e-12         # ||T^2 - T|| and rank consistency
    psd: float = 1e-10               # relative floor for weight-matrix eigenvalues
    root: float = 1e-10              # eigenvalue refinement, in sqrt(lam) units
    mult_rel: float = 1e-6           # multiplet grouping: |dlam| <= mult_rel*(1+|lam|)
    z_group: float = 1e-3            # equality classes of the drift coefficients
    solve_rel: float = 1e-9          # relative residual of the truncated linear system
    fit_residual: float = 0.25       # max residual of the projector limit fit
    shift_margin: float = 0.25       # extra offset when shifting a spectrum
    # residue contour of forward.weight_matrix, the oracle for the weights;
    # spectral_data takes its weights from eigenfunction norms instead
    contour_radius: float = 0.1      # cap on the residue contour radius
    contour_points: int = 64         # trapezoid nodes per residue contour
    cond_mask: float = 1e6           # condition cutoff for the direct-potential formula
    herm_defect_max: float = 1e-4    # Hermiticity defect that aborts a reconstruction


DEFAULT_TOL = ToleranceConfig()


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------

class MSturmError(Exception):
    """Base class for toolkit errors."""


class DimensionError(MSturmError):
    """Structurally inconsistent shapes (distinct from invariant violations)."""


class IntegrationOverflowError(MSturmError):
    """Non-finite values produced while integrating the matrix equation."""


class AtEigenvalueError(MSturmError):
    """Weyl matrix requested at (or numerically at) an eigenvalue."""


class ContourClashError(MSturmError):
    """Residue contour overlaps a neighbouring eigenvalue."""

    def __init__(self, msg: str, suggested_radius: float | None = None):
        super().__init__(msg)
        self.suggested_radius = suggested_radius


class BracketExhaustionError(MSturmError):
    """Fewer roots located than the band structure requires."""

    def __init__(self, msg: str, band: int | None = None, found: int | None = None):
        super().__init__(msg)
        self.band = band
        self.found = found


class InconclusiveRankError(MSturmError):
    """Half-integer/integer classification of the data was ambiguous."""


class NoisyDataError(MSturmError):
    """Asymptotic limit fit residual exceeded its tolerance."""

    def __init__(self, msg: str, residual: float | None = None):
        super().__init__(msg)
        self.residual = residual


class GroupingError(MSturmError):
    """No admissible split index for the square-root collections."""


class GroupingInconsistencyError(MSturmError):
    """A data/model pair straddles two collections (must never happen)."""


class MainEquationError(MSturmError):
    """Truncated linear system failed to solve within tolerance."""


class ReconstructionError(MSturmError):
    """Recovered coefficients failed a consistency check."""


class StageError(MSturmError):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


# ----------------------------------------------------------------------
# small matrix helpers
# ----------------------------------------------------------------------

def matnorm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(a, 2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex, copy=True)
    a.flags.writeable = False
    return a


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Projector:
    """Orthogonal projector T together with its rank p.

    The complement ``I - T`` is available as :attr:`perp`.  Invariants
    (Hermitian, idempotent, 1 <= p < m) are checked by
    :func:`validate_problem`, not by the constructor, so that degenerate
    projectors can still be built and reported.
    """

    matrix: np.ndarray
    p: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(_as_square(self.matrix, "projector")))

    @classmethod
    def from_matrix(cls, matrix) -> "Projector":
        matrix = _as_square(matrix, "projector")
        p = int(round(float(np.trace(matrix).real)))
        return cls(matrix, p)

    @classmethod
    def star(cls, m: int) -> "Projector":
        """Rank-one averaging projector with all entries 1/m."""
        return cls(np.full((m, m), 1.0 / m, dtype=complex), 1)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def perp(self) -> np.ndarray:
        return np.eye(self.m, dtype=complex) - self.matrix

    def range_basis(self) -> np.ndarray:
        """Orthonormal columns spanning range(T)."""
        w, u = np.linalg.eigh(hermitian_part(self.matrix))
        return u[:, w > 0.5]

    def perp_basis(self) -> np.ndarray:
        w, u = np.linalg.eigh(hermitian_part(self.matrix))
        return u[:, w <= 0.5]


@dataclass(frozen=True)
class PotentialGrid:
    """Matrix potential sampled on the uniform grid x_i = i*pi/n_grid."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise DimensionError(f"potential samples must be (n_grid+1, m, m), got {s.shape}")
        if s.shape[0] < 2:
            raise DimensionError("potential grid needs at least two nodes")
        object.__setattr__(self, "samples", _freeze(s))

    @classmethod
    def zeros(cls, m: int, n_grid: int = 1000) -> "PotentialGrid":
        return cls(np.zeros((n_grid + 1, m, m), dtype=complex))

    @classmethod
    def constant(cls, matrix, n_grid: int = 1000) -> "PotentialGrid":
        matrix = _as_square(matrix, "potential")
        return cls(np.broadcast_to(matrix, (n_grid + 1, *matrix.shape)))

    @classmethod
    def from_callable(cls, f, m: int, n_grid: int = 1000) -> "PotentialGrid":
        """Sample ``f(x) -> (m, m) array`` on the uniform grid."""
        x = np.linspace(0.0, np.pi, n_grid + 1)
        samples = np.stack([np.asarray(f(xi), dtype=complex).reshape(m, m) for xi in x])
        return cls(samples)

    @classmethod
    def diagonal(cls, entries, n_grid: int = 1000) -> "PotentialGrid":
        """Diagonal potential from per-channel callables or sample vectors."""
        x = np.linspace(0.0, np.pi, n_grid + 1)
        cols = []
        for e in entries:
            cols.append(np.asarray([e(xi) for xi in x]) if callable(e) else np.asarray(e))
        cols = np.stack(cols, axis=1)
        if cols.shape[0] != n_grid + 1:
            raise DimensionError("diagonal entry sample count does not match the grid")
        m = cols.shape[1]
        samples = np.zeros((n_grid + 1, m, m), dtype=complex)
        idx = np.arange(m)
        samples[:, idx, idx] = cols
        return cls(samples)

    @property
    def n_grid(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def m(self) -> int:
        return self.samples.shape[1]

    @property
    def h(self) -> float:
        return np.pi / self.n_grid

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.n_grid + 1)

    def is_constant(self, atol: float = 1e-13) -> bool:
        return bool(np.all(np.abs(self.samples - self.samples[0]) <= atol))


@dataclass(frozen=True)
class BoundaryCoefficient:
    """Hermitian coupling matrix H with H = T H T."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(_as_square(self.matrix, "boundary coefficient")))

    @classmethod
    def zero(cls, m: int) -> "BoundaryCoefficient":
        return cls(np.zeros((m, m), dtype=complex))

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Problem:
    """Full boundary value problem (Q, T, H) plus the recorded spectrum shift.

    ``shift`` is the amount previously added to the spectrum (and hence to
    the potential, as shift*I) to make all eigenvalues nonnegative; it is
    kept so results can be mapped back to the original problem.
    """

    potential: PotentialGrid
    projector: Projector
    boundary: BoundaryCoefficient
    shift: float = 0.0

    def __post_init__(self):
        m = self.potential.m
        if self.projector.m != m or self.boundary.m != m:
            raise DimensionError(
                f"inconsistent dimensions: potential m={m}, projector m={self.projector.m}, "
                f"boundary m={self.boundary.m}"
            )

    @property
    def m(self) -> int:
        return self.potential.m

    @property
    def n_grid(self) -> int:
        return self.potential.n_grid

    @property
    def x(self) -> np.ndarray:
        return self.potential.x


@dataclass(frozen=True)
class SpectralDatum:
    """One indexed eigenvalue/weight pair."""

    n: int
    k: int
    lam: float
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _freeze(_as_square(self.alpha, "weight matrix")))

    @property
    def rho(self) -> float:
        return float(np.sqrt(self.lam))


@dataclass(frozen=True)
class SpectralData:
    """Indexed collection {lam_nk, alpha_nk} for n = 1..n_bands, k = 1..m.

    Multiple eigenvalues appear repeatedly, each slot carrying the same
    weight matrix.  The matrix dimension of the weights (``dim``) is
    independent of the slot count per band (``m_slots``): star-graph
    reductions use scalar (1 x 1) weights with the full slot structure.
    """

    data: tuple[SpectralDatum, ...]
    n_bands: int

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        if not self.data:
            raise DimensionError("spectral data must be nonempty")
        dims = {d.alpha.shape[0] for d in self.data}
        if len(dims) != 1:
            raise DimensionError(f"inconsistent weight dimensions: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.data[0].alpha.shape[0]

    @property
    def m_slots(self) -> int:
        return max(d.k for d in self.data)

    def entry(self, n: int, k: int) -> SpectralDatum:
        for d in self.data:
            if d.n == n and d.k == k:
                return d
        raise KeyError((n, k))

    def lambda_grid(self) -> np.ndarray:
        """Eigenvalues as an (n_bands, m_slots) array."""
        out = np.full((self.n_bands, self.m_slots), np.nan)
        for d in self.data:
            out[d.n - 1, d.k - 1] = d.lam
        return out

    def truncate(self, n_bands: int) -> "SpectralData":
        if n_bands > self.n_bands:
            raise DimensionError(f"cannot extend data from {self.n_bands} to {n_bands} bands")
        kept = tuple(d for d in self.data if d.n <= n_bands)
        return SpectralData(kept, n_bands)

    def min_lambda(self) -> float:
        return min(d.lam for d in self.data)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def validate_problem(problem: Problem, tol: ToleranceConfig = DEFAULT_TOL) -> list[str]:
    """Check all structural hypotheses of a problem.

    Returns a list of human-readable violations; the problem is valid iff
    the list is empty.  Dimension mismatches raise
    :class:`DimensionError` at construction time instead, so they can
    never reach this point.
    """
    report: list[str] = []
    t = problem.projector.matrix
    m = problem.m
    p = problem.projector.p

    if matnorm(t - t.conj().T) > tol.herm:
        report.append("projector not Hermitian")
    if matnorm(t @ t - t) > tol.projector:
        report.append("projector not idempotent")
    rank = int(np.sum(np.linalg.eigvalsh(hermitian_part(t)) > 0.5))
    if rank != p:
        report.append(f"projector rank {rank} does not match p = {p}")
    if not 1 <= p < m:
        report.append(f"p < m required (and p >= 1): got p = {p}, m = {m}")
    tperp = problem.projector.perp
    if matnorm(tperp @ tperp - tperp) > tol.projector:
        report.append("complement projector not idempotent")

    q = problem.potential.samples
    defect = np.max(np.abs(q - q.conj().transpose(0, 2, 1)))
    if defect > tol.herm_potential:
        report.append(f"potential samples not Hermitian (defect {defect:.2e})")

    h = problem.boundary.matrix
    if matnorm(h - h.conj().T) > tol.herm:
        report.append("boundary coefficient not Hermitian")
    if matnorm(h - t @ h @ t) > tol.herm:
        report.append("H = THT violated")

    return report


def validate_spectral_data(data: SpectralData, tol: ToleranceConfig = DEFAULT_TOL) -> list[str]:
    """Check ordering, Hermiticity/PSD of the weights and the equal-lambda rule."""
    report: list[str] = []
    prev = None
    for d in sorted(data.data, key=lambda d: (d.n, d.k)):
        if prev is not None and d.lam < prev - tol.mult_rel * (1.0 + abs(prev)):
            report.append(f"lambda not nondecreasing at (n, k) = ({d.n}, {d.k})")
        prev = d.lam
        a = d.alpha
        na = matnorm(a)
        if matnorm(a - a.conj().T) > max(tol.psd * na, 1e-14):
            report.append(f"alpha({d.n},{d.k}) not Hermitian")
        if na > 0 and np.min(np.linalg.eigvalsh(hermitian_part(a))) < -tol.psd * na:
            report.append(f"alpha({d.n},{d.k}) not positive semidefinite")
    for group in _multiplet_groups(data, tol):
        first = group[0]
        for other in group[1:]:
            if matnorm(other.alpha - first.alpha) > 1e-8 * (1.0 + matnorm(first.alpha)):
                report.append(
                    f"equal eigenvalues with unequal weights at ({first.n},{first.k}) vs ({other.n},{other.k})"
                )
    return report


def _multiplet_groups(data: SpectralData, tol: ToleranceConfig) -> list[list[SpectralDatum]]:
    entries = sorted(data.data, key=lambda d: (d.lam, d.n, d.k))
    groups: list[list[SpectralDatum]] = []
    for d in entries:
        if groups and abs(d.lam - groups[-1][0].lam) <= tol.mult_rel * (1.0 + abs(groups[-1][0].lam)):
            groups[-1].append(d)
        else:
            groups.append([d])
    for g in groups:
        g.sort(key=lambda d: (d.n, d.k))
    return groups


def canonicalize_multiplets(data: SpectralData, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralData:
    """Rewrite numerically coincident eigenvalues to share identical floats.

    Grouping throughout the inverse pipeline keys on exact equality of
    eigenvalues; this pass makes every multiplet carry the first member's
    lambda and weight so that ties are structural rather than approximate.
    """
    replaced = {}
    for group in _multiplet_groups(data, tol):
        first = group[0]
        for d in group:
            replaced[(d.n, d.k)] = SpectralDatum(d.n, d.k, first.lam, first.alpha)
    out = tuple(replaced[(d.n, d.k)] for d in data.data)
    return SpectralData(out, data.n_bands)


# ----------------------------------------------------------------------
# spectrum shift
# ----------------------------------------------------------------------

def shift_spectrum(
    data: SpectralData,
    margin: float | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[SpectralData, float]:
    """Translate the spectrum so every eigenvalue is nonnegative.

    Returns ``(shifted_data, shift)`` with ``shift = -min(lam) + margin``
    when the minimum is negative and 0 otherwise (a strict no-op).  The
    weights are untouched.  A potential recovered from the shifted data
    corresponds to Q + shift*I; subtract shift*I to undo.
    """
    if margin is None:
        margin = tol.shift_margin
    lam_min = data.min_lambda()
    if lam_min >= 0.0:
        return data, 0.0
    shift = -lam_min + margin
    moved = tuple(
        SpectralDatum(d.n, d.k, d.lam + shift, d.alpha) for d in data.data
    )
    return SpectralData(moved, data.n_bands), shift
