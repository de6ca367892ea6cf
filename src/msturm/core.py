"""Shared domain types for the matrix Sturm-Liouville toolkit.

Everything in this package revolves around the self-adjoint eigenvalue
problem

    -Y'' + Q(x) Y = lam Y,   x in (0, pi),
    Y(0) = 0,
    V(Y) := T (Y'(pi) - H Y(pi)) - (I - T) Y(pi) = 0,

where Q(x) is an m x m Hermitian matrix potential, T is an orthogonal
projector and H = T H T is Hermitian.  This module holds the container
types (problems, potential grids, spectral data), their invariant checks,
the fixed numerical tolerances and the exception taxonomy.  All
containers are immutable after construction and safe to share between
threads; the numerics live in the sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    "multiplet_runs",
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

    The values target the standard desk scale: grids of ~1000 nodes on
    [0, pi] and spectral data truncated to a few tens of bands.  They are
    fixed: each function reads the value it needs from :data:`DEFAULT_TOL`
    of its own module when it is called, and none takes a tolerance
    argument.
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


def _real_if_zero_imag(a):
    a = np.asarray(a)
    return a.real if np.iscomplexobj(a) and not np.any(a.imag) else a


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
    """Full boundary value problem (Q, T, H)."""

    potential: PotentialGrid
    projector: Projector
    boundary: BoundaryCoefficient

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


@dataclass(frozen=True, init=False, eq=False)
class SpectralData:
    """Indexed collection {lam_nk, alpha_nk} for n = 1..n_bands, k = 1..m.

    Stored only as the read-only slot arrays ``lam`` (n_bands, m_slots)
    and ``alpha`` (n_bands, m_slots, dim, dim), entry [n - 1, k - 1] for
    slot (n, k).  Multiple eigenvalues fill several slots with the same
    weight.  ``dim`` is independent of ``m_slots``: star-graph reductions
    use 1 x 1 weights with the full slot structure.  The constructor
    takes datums in any order and raises :class:`DimensionError` at the
    first missing, repeated or out-of-range slot; :attr:`data` builds the
    datums when first read.  Equality is identity.
    """

    lam: np.ndarray
    alpha: np.ndarray

    def __init__(self, data, n_bands: int):
        by_slot = {}
        for d in data:
            slot = (int(d.n), int(d.k))
            if not (1 <= slot[0] <= n_bands and slot[1] >= 1):
                raise DimensionError(f"slot (n, k) = {slot} outside {n_bands} bands")
            if slot in by_slot:
                raise DimensionError(f"slot (n, k) = {slot} repeated")
            by_slot[slot] = d
        dims = {d.alpha.shape[0] for d in by_slot.values()}
        if len(dims) != 1:
            raise DimensionError(f"spectral data need one weight dimension, got {sorted(dims)}")
        m = max(k for _, k in by_slot)
        slots = [(n, k) for n in range(1, n_bands + 1) for k in range(1, m + 1)]
        missing = next((s for s in slots if s not in by_slot), None)
        if missing:
            raise DimensionError(f"slot (n, k) = {missing} missing")
        self._store(np.reshape([by_slot[s].lam for s in slots], (n_bands, m)),
                    np.reshape([by_slot[s].alpha for s in slots], (n_bands, m, *dims, *dims)))

    @classmethod
    def from_arrays(cls, lam, alpha) -> "SpectralData":
        """Data whose slot (n, k) holds lam[n - 1, k - 1] and alpha[n - 1, k - 1]."""
        data = cls.__new__(cls)
        data._store(lam, alpha)
        return data

    def _store(self, lam, alpha):
        lam, alpha = np.array(lam, dtype=float), np.array(alpha, dtype=complex)
        if lam.ndim != 2 or not lam.size or alpha.shape != lam.shape + alpha.shape[-1:] * 2:
            raise DimensionError(f"slot arrays of shapes {lam.shape} and {alpha.shape} "
                                 "are not (n_bands, m_slots) and (n_bands, m_slots, d, d)")
        for name, a in (("lam", lam), ("alpha", alpha)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @cached_property
    def data(self) -> tuple[SpectralDatum, ...]:
        return tuple(SpectralDatum(n + 1, k + 1, v, self.alpha[n, k])
                     for n, band in enumerate(self.lam.tolist()) for k, v in enumerate(band))

    @property
    def n_bands(self) -> int:
        return self.lam.shape[0]

    @property
    def m_slots(self) -> int:
        return self.lam.shape[1]

    @property
    def dim(self) -> int:
        return self.alpha.shape[-1]

    def entry(self, n: int, k: int) -> SpectralDatum:
        if not (1 <= n <= self.n_bands and 1 <= k <= self.m_slots):
            raise KeyError((n, k))
        return SpectralDatum(n, k, float(self.lam[n - 1, k - 1]), self.alpha[n - 1, k - 1])

    def truncate(self, n_bands: int) -> "SpectralData":
        """The first ``n_bands`` bands; ``self`` when that is all of them."""
        if not 1 <= n_bands <= self.n_bands:
            raise DimensionError(f"cannot truncate {self.n_bands} bands to {n_bands}")
        if n_bands == self.n_bands:
            return self
        return SpectralData.from_arrays(self.lam[:n_bands], self.alpha[:n_bands])

    def min_lambda(self) -> float:
        return float(self.lam.min())

    def shifted(self, shift: float) -> "SpectralData":
        """The same data with every eigenvalue moved by ``shift``; ``self`` for a zero shift."""
        if shift == 0.0:
            return self
        return SpectralData.from_arrays(self.lam + shift, self.alpha)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def validate_problem(problem: Problem) -> list[str]:
    """Check all structural hypotheses of a problem.

    Returns a list of human-readable violations; the problem is valid iff
    the list is empty.  Non-finite coefficients are reported alone, field
    by field, since the other checks cannot run on them.  Dimension
    mismatches raise :class:`DimensionError` at construction time
    instead, so they can never reach this point.
    """
    t = problem.projector.matrix
    q = problem.potential.samples
    h = problem.boundary.matrix
    fields = (("potential", q), ("projector", t), ("boundary coefficient", h))
    if not all(np.isfinite(a).all() for _, a in fields):
        return [f"{name} has {np.sum(~np.isfinite(a))} non-finite entries" for name, a in fields
                if not np.isfinite(a).all()]
    report: list[str] = []
    m = problem.m
    p = problem.projector.p

    if matnorm(t - t.conj().T) > DEFAULT_TOL.herm:
        report.append("projector not Hermitian")
    if matnorm(t @ t - t) > DEFAULT_TOL.projector:
        report.append("projector not idempotent")
    rank = int(np.sum(np.linalg.eigvalsh(hermitian_part(t)) > 0.5))
    if rank != p:
        report.append(f"projector rank {rank} does not match p = {p}")
    if not 1 <= p < m:
        report.append(f"p < m required (and p >= 1): got p = {p}, m = {m}")

    defect = np.max(np.abs(q - q.conj().transpose(0, 2, 1)))
    if defect > DEFAULT_TOL.herm_potential:
        report.append(f"potential samples not Hermitian (defect {defect:.2e})")

    if matnorm(h - h.conj().T) > DEFAULT_TOL.herm:
        report.append("boundary coefficient not Hermitian")
    if matnorm(h - t @ h @ t) > DEFAULT_TOL.herm:
        report.append("H = THT violated")

    return report


def validate_spectral_data(data: SpectralData) -> list[str]:
    """Check ordering, Hermiticity/PSD of the weights and the equal-lambda rule.

    Non-finite eigenvalues or weights are reported alone, slot by slot,
    since the other checks cannot run on them.
    """
    lam = data.lam.ravel()
    a = data.alpha.reshape(lam.size, data.dim, data.dim)
    slots = [(n, k) for n in range(1, data.n_bands + 1) for k in range(1, data.m_slots + 1)]
    finite = {"lambda": np.isfinite(lam), "alpha": np.isfinite(a).all(axis=(1, 2))}
    report = [f"{name}({n},{k}) not finite" for i, (n, k) in enumerate(slots)
              for name, ok in finite.items() if not ok[i]]
    if report:
        return report
    na = np.linalg.norm(a, 2, axis=(1, 2))
    falls = np.r_[False, lam[1:] < lam[:-1] - DEFAULT_TOL.mult_rel * (1.0 + np.abs(lam[:-1]))]
    floor = DEFAULT_TOL.psd * na
    skew = np.linalg.norm(a - a.conj().swapaxes(1, 2), 2, axis=(1, 2)) > np.maximum(floor, 1e-14)
    negative = (na > 0) & (np.linalg.eigvalsh(hermitian_part(a))[:, 0] < -floor)
    for (n, k), fell, skewed, indefinite in zip(slots, falls, skew, negative):
        if fell:
            report.append(f"lambda not nondecreasing at (n, k) = ({n}, {k})")
        if skewed:
            report.append(f"alpha({n},{k}) not Hermitian")
        if indefinite:
            report.append(f"alpha({n},{k}) not positive semidefinite")
    first = _multiplet_first(data)
    other = np.nonzero(first != np.arange(lam.size))[0]
    ref = a[first[other]]
    gap = np.linalg.norm(a[other] - ref, 2, axis=(1, 2))
    for o in other[gap > 1e-8 * (1.0 + np.linalg.norm(ref, 2, axis=(1, 2)))]:
        (n0, k0), (n, k) = slots[first[o]], slots[o]
        report.append(f"equal eigenvalues with unequal weights at ({n0},{k0}) vs ({n},{k})")
    return report


def multiplet_runs(values) -> list[list[int]]:
    """Index runs of the multiplets in the nondecreasing sequence ``values``.

    A value joins the current multiplet when it lies within
    ``DEFAULT_TOL.mult_rel`` (1 + |first|) of the multiplet's first
    member.  The anchor never moves, so no chain of small steps merges
    values further apart than the threshold.
    """
    rel = DEFAULT_TOL.mult_rel
    runs: list[list[int]] = []
    for i, v in enumerate(values):
        if runs and abs(v - values[runs[-1][0]]) <= rel * (1.0 + abs(values[runs[-1][0]])):
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def _multiplet_first(data: SpectralData) -> np.ndarray:
    """Per slot of ``data.lam.ravel()``, the flat slot of its multiplet's lowest (n, k) member."""
    lam = data.lam.ravel()
    order = np.argsort(lam, kind="stable")
    runs = multiplet_runs(lam[order].tolist())  # runs of consecutive positions in order
    lowest = np.minimum.reduceat(order, [run[0] for run in runs])
    first = np.empty_like(order)
    first[order] = np.repeat(lowest, [len(run) for run in runs])
    return first


def canonicalize_multiplets(data: SpectralData) -> SpectralData:
    """Rewrite numerically coincident eigenvalues to share identical floats.

    Grouping throughout the inverse pipeline keys on exact equality of
    eigenvalues; this pass makes every multiplet carry the first member's
    lambda and weight so that ties are structural rather than approximate.
    """
    first = np.unravel_index(_multiplet_first(data).reshape(data.lam.shape), data.lam.shape)
    return SpectralData.from_arrays(data.lam[first], data.alpha[first])


# ----------------------------------------------------------------------
# spectrum shift
# ----------------------------------------------------------------------

def shift_spectrum(data: SpectralData, lam_min: float | None = None) -> tuple[SpectralData, float]:
    """Translate the spectrum so every eigenvalue is nonnegative.

    Returns ``(shifted_data, shift)`` with
    ``shift = -min(lam) + DEFAULT_TOL.shift_margin`` when the minimum is
    negative and 0 otherwise (a strict no-op).  The weights are untouched.
    A potential recovered from the shifted data corresponds to
    Q + shift*I; subtract shift*I to undo.  ``lam_min``
    lowers the minimum the shift must clear: pass the lowest eigenvalue of
    comparison data that is moved by the same shift.
    """
    lowest = data.min_lambda() if lam_min is None else min(lam_min, data.min_lambda())
    if lowest >= 0.0:
        return data, 0.0
    shift = -lowest + DEFAULT_TOL.shift_margin
    return data.shifted(shift), shift
