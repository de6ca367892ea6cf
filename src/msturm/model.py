"""Asymptotic analysis of spectral data and model problem construction.

The inverse pipeline starts from the large-band behaviour of the data:
the square roots of the eigenvalues cluster on half-integers (p slots)
and integers (m - p slots), with drifts z_k/(pi n); the per-band weight
sums converge to multiples of the projector and its complement.  This
module extracts p, T, the drift coefficients z_k, the limit matrices of
the grouped weight sums and their weighted combination Theta, and builds
the constant-potential comparison problem ((2/pi) Theta, T, 0) whose
spectral data is then available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._closed import ConstantModel
from .core import (
    DEFAULT_TOL,
    BoundaryCoefficient,
    InconclusiveRankError,
    NoisyDataError,
    PotentialGrid,
    Problem,
    Projector,
    SpectralData,
    SpectralDatum,
    ToleranceConfig,
    hermitian_part,
    matnorm,
    multiplet_runs,
)
from .forward import SolutionTrace

__all__ = [
    "CollapsedWeights",
    "AsymptoticSummary",
    "collapse_weights",
    "estimate_p",
    "estimate_T",
    "fit_drifts",
    "estimate_z_A_Theta",
    "build_model",
    "model_solution",
    "model_spectral_data",
    "forward_asymptotics",
]


# ----------------------------------------------------------------------
# collapsed weights
# ----------------------------------------------------------------------

@dataclass
class CollapsedWeights:
    """Weight matrices with duplicates zeroed, plus their band sums.

    Within every multiplicity group only the lexicographically first
    (n, k) keeps its weight; the rest are zero.  ``alpha_I`` and
    ``alpha_II`` are the per-band sums over slots k <= p and k > p.
    """

    p: int
    alpha_prime: dict[tuple[int, int], np.ndarray]
    alpha_I: dict[int, np.ndarray]
    alpha_II: dict[int, np.ndarray]

    @property
    def bands(self) -> list[int]:
        return sorted(self.alpha_I.keys())


def collapse_weights(
    data: SpectralData, p: int, tol: ToleranceConfig = DEFAULT_TOL
) -> CollapsedWeights:
    """Zero duplicate weights so each multiplicity group contributes once."""
    from .core import _multiplet_groups  # shared grouping rule

    dim = data.dim
    zero = np.zeros((dim, dim), dtype=complex)
    alpha_prime: dict[tuple[int, int], np.ndarray] = {}
    for group in _multiplet_groups(data, tol):
        alpha_prime[(group[0].n, group[0].k)] = group[0].alpha
        for d in group[1:]:
            alpha_prime[(d.n, d.k)] = zero
    alpha_i: dict[int, np.ndarray] = {}
    alpha_ii: dict[int, np.ndarray] = {}
    for d in data.data:
        tgt = alpha_i if d.k <= p else alpha_ii
        tgt[d.n] = tgt.get(d.n, zero) + alpha_prime[(d.n, d.k)]
    for n in range(1, data.n_bands + 1):
        alpha_i.setdefault(n, zero)
        alpha_ii.setdefault(n, zero)
    return CollapsedWeights(p, alpha_prime, alpha_i, alpha_ii)


# ----------------------------------------------------------------------
# asymptotic summary
# ----------------------------------------------------------------------

@dataclass
class AsymptoticSummary:
    """Limits extracted from the band asymptotics of the data."""

    p: int
    t_est: np.ndarray                      # rounded orthogonal projector
    z: np.ndarray                          # drift coefficients, length m_slots
    a_mats: dict[int, np.ndarray]          # class representative s -> limit matrix
    theta: np.ndarray                      # sum of z_s * A^(s)
    s_set: list[int]
    fit_residual: float = 0.0
    warnings: list[str] = field(default_factory=list)

    @property
    def m(self) -> int:
        return self.t_est.shape[0]


def _fit_window(n_bands: int) -> list[int]:
    width = max(3, int(np.ceil(n_bands / 2)))
    return list(range(n_bands - width + 1, n_bands + 1))


def _limit_fit(ns: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Weighted least squares of value(n) = limit + c/n (+ c2/n^2).

    ``values`` may be scalar (len(ns),) or matrix (len(ns), m, m) samples;
    later bands get linearly growing weights since their model error
    shrinks like 1/n.  The quadratic term joins once the window is wide
    enough: smooth coefficients leave O(1/n^2) remainders that would
    otherwise bias the extrapolated limit.
    """
    w = ns.astype(float)
    cols = [np.ones_like(w), 1.0 / w]
    if len(ns) >= 6:
        cols.append(1.0 / w**2)
    design = np.stack(cols, axis=1) * w[:, None]
    flat = values.reshape(len(ns), -1) * w[:, None]
    coef, *_ = np.linalg.lstsq(design, flat, rcond=None)
    limit = coef[0].reshape(values.shape[1:])
    fitted = (design @ coef) / w[:, None]
    resid = float(np.max(np.abs(flat / w[:, None] - fitted)))
    return limit, resid


# the fewest bands the inverse takes: the slot vote needs them, and so does
# the stabilizer, whose degree, at least 6, stays at or below 2 n_bands - 4
MIN_BANDS = 5


def estimate_p(data: SpectralData, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Count the slots whose sqrt(lam) cluster on half-integers.

    Majority vote over the last ceil(n_bands/2) bands; a vote margin
    below 2/3 for any slot raises :class:`InconclusiveRankError`.
    """
    if data.n_bands < MIN_BANDS:
        raise InconclusiveRankError(f"need at least {MIN_BANDS} bands to classify the slots")
    lam = data.lambda_grid()
    window = _fit_window(data.n_bands)
    rho = np.sqrt(np.maximum(lam[[n - 1 for n in window], :], 0.0))
    dist_half = np.abs(rho - (np.floor(rho) + 0.5))
    dist_int = np.abs(rho - np.round(rho))
    votes_half = np.sum(dist_half < dist_int, axis=0)
    total = len(window)
    classified = []
    for k in range(lam.shape[1]):
        frac = max(votes_half[k], total - votes_half[k]) / total
        if frac < 2.0 / 3.0:
            raise InconclusiveRankError(
                f"slot {k + 1}: half/integer vote margin {frac:.2f} below 2/3"
            )
        classified.append(votes_half[k] > total - votes_half[k])
    p = int(np.sum(classified))
    if any(classified[p:]) or not all(classified[:p]):
        raise InconclusiveRankError(
            f"half-integer slots {np.nonzero(classified)[0] + 1} are not a leading block"
        )
    # p outside 1 <= p < m is reported by the projector validation downstream;
    # the classification itself is still well defined
    return p


def estimate_T(
    weights: CollapsedWeights,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Recover the projector from the limit of the leading weight sums.

    Fits pi/(2 (n-1/2)^2) alpha_n^I = T + O(1/n) over the trailing bands,
    then rounds the Hermitian fit to the nearest orthogonal projector by
    snapping eigenvalues to {0, 1}.
    """
    bands = weights.bands
    window = _fit_window(len(bands))
    ns = np.asarray(window, dtype=float)
    vals = np.stack(
        [np.pi / (2.0 * (n - 0.5) ** 2) * weights.alpha_I[n] for n in window]
    )
    fit, resid = _limit_fit(ns, vals)
    if resid > tol.fit_residual:
        raise NoisyDataError(
            f"projector limit fit residual {resid:.3g} exceeds {tol.fit_residual}",
            residual=resid,
        )
    w, u = np.linalg.eigh(hermitian_part(fit))
    snapped = (w > 0.5).astype(float)
    return u @ np.diag(snapped) @ u.conj().T


def fit_drifts(data: SpectralData, p: int) -> np.ndarray:
    """Per-slot drift coefficients z_k from 1/n-extrapolated limit fits."""
    lam = data.lambda_grid()
    window = _fit_window(data.n_bands)
    ns = np.asarray(window, dtype=float)
    rho = np.sqrt(np.maximum(lam[[n - 1 for n in window], :], 0.0))
    z = np.empty(lam.shape[1])
    for k in range(lam.shape[1]):
        centers = ns - 0.5 if k < p else ns
        vals = (rho[:, k] - centers) * np.pi * centers
        zk, _ = _limit_fit(ns, vals[:, None])
        z[k] = float(np.real(zk[0]))
    return z


def _class_partition(z: np.ndarray, p: int, tol_z: float) -> list[list[int]]:
    """Equality classes of consecutive drifts within each cluster range."""
    classes: list[list[int]] = []
    for lo, hi in ((0, p), (p, len(z))):
        for k in range(lo, hi):
            if k == lo or abs(z[k] - z[classes[-1][0]]) > tol_z:
                classes.append([k])
            else:
                classes[-1].append(k)
    return classes


def estimate_z_A_Theta(
    data: SpectralData,
    weights: CollapsedWeights,
    p: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AsymptoticSummary:
    """Drift coefficients, per-class limit matrices and their combination.

    z_k comes from a 1/n-extrapolated fit of the displayed limits; the
    classes collect slots with equal z (within ``tol.z_group``); each
    class limit matrix A^(s) is fitted from the normalised class sums and
    Theta = sum_s z_s A^(s).  The summary also records whether the class
    structure is stable under doubling/halving the grouping tolerance.
    """
    window = _fit_window(data.n_bands)
    ns = np.asarray(window, dtype=float)
    z = fit_drifts(data, p)

    warnings_: list[str] = []
    classes = _class_partition(z, p, tol.z_group)
    for factor in (0.5, 2.0):
        if _class_partition(z, p, tol.z_group * factor) != classes:
            warnings_.append(
                f"drift equality classes change under tol_z x {factor}; grouping is marginal"
            )

    dim = data.dim
    a_mats: dict[int, np.ndarray] = {}
    s_set: list[int] = []
    resid_max = 0.0
    for cls in classes:
        s = cls[0] + 1  # 1-based representative slot
        s_set.append(s)
        sums = {}
        for n in window:
            acc = np.zeros((dim, dim), dtype=complex)
            for k in cls:
                acc = acc + weights.alpha_prime[(n, k + 1)]
            sums[n] = acc
        sigma = (ns - 0.5) if cls[0] < p else ns
        vals = np.stack([np.pi / (2.0 * sig**2) * sums[n] for n, sig in zip(window, sigma)])
        a_fit, resid = _limit_fit(ns, vals)
        a_mats[s] = a_fit
        resid_max = max(resid_max, resid)

    theta = np.zeros((dim, dim), dtype=complex)
    for s in s_set:
        theta = theta + z[s - 1] * a_mats[s]
    theta = hermitian_part(theta)

    t_est = estimate_T(weights, tol)
    return AsymptoticSummary(
        p=p,
        t_est=t_est,
        z=z,
        a_mats=a_mats,
        theta=theta,
        s_set=s_set,
        fit_residual=resid_max,
        warnings=warnings_,
    )


# ----------------------------------------------------------------------
# model problem
# ----------------------------------------------------------------------

def build_model(
    summary: AsymptoticSummary,
    n_grid: int = 1000,
    shift: float = 0.0,
) -> Problem:
    """Constant-potential comparison problem ((2/pi) Theta, T, 0).

    Theta is compressed onto the block structure T . T + T_perp . T_perp
    it satisfies analytically, which removes fit noise that would break
    the commutation [Q_model, T] = 0 used by the closed-form solver.
    """
    t = summary.t_est
    tperp = np.eye(summary.m) - t
    theta = t @ summary.theta @ t + tperp @ summary.theta @ tperp
    q = PotentialGrid.constant(hermitian_part(2.0 / np.pi * theta), n_grid)
    return Problem(
        q,
        Projector(t, summary.p),
        BoundaryCoefficient(np.zeros_like(t)),
        shift=shift,
    )


def model_solution(problem: Problem, lam: complex) -> SolutionTrace:
    """Closed-form trace S(., lam) of a constant-potential problem."""
    if not problem.potential.is_constant():
        raise ValueError("model_solution requires a constant potential")
    cm = ConstantModel(problem.potential.samples[0])
    x = problem.x
    y, yp = (cm.recompose(t[:, 0]) for t in cm.traces(x, [lam]))
    return SolutionTrace(lam, x, y, yp)


def model_spectral_data(
    problem: Problem,
    n_max: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SpectralData:
    """Exact spectral data of a model problem, in closed form.

    Requires a constant potential commuting with T and H = 0; the problem
    then splits over range(T) (Y'(pi) = 0 type, sigma_n = n - 1/2) and
    range(I - T) (Y(pi) = 0 type, sigma_n = n), with eigenvalues
    sigma_n^2 + c_j for the potential eigenvalues c_j on each block and
    weights (2/pi) sigma_n^2 P_j on the corresponding spectral projectors.
    The eigenvalues of both blocks are ordered together and take (n, k)
    from their global index, m per band, as in
    :func:`~msturm.forward.find_eigenvalues`; so blocks shifted far apart
    interleave across bands.  Eigenvalues within ``tol.mult_rel`` (1 + |lam|)
    of each other form one multiplet that carries the first member's
    lambda and the sum of the members' weights.
    """
    if not problem.potential.is_constant():
        raise ValueError("model data in closed form requires a constant potential")
    q = problem.potential.samples[0]
    t = problem.projector.matrix
    if matnorm(problem.boundary.matrix) > 1e-12:
        raise ValueError("model data in closed form requires H = 0")
    if matnorm(q @ t - t @ q) > 1e-10 * (1.0 + matnorm(q)):
        raise ValueError("model potential must commute with the projector")

    def block_modes(basis: np.ndarray):
        a = basis.conj().T @ q @ basis
        w, vec = np.linalg.eigh(hermitian_part(a))
        modes = []
        for j, c in enumerate(w):
            if modes and abs(c - modes[-1][0]) <= 1e-10 * (1.0 + abs(modes[-1][0])):
                modes[-1][1].append(j)
            else:
                modes.append([float(c), [j]])
        out = []
        for c, idx in modes:
            cols = basis @ vec[:, idx]
            out.append((c, cols @ cols.conj().T, len(idx)))
        return out

    # (n - half)^2 is sigma_n^2 of the block
    modes = [(0.5, *mode) for mode in block_modes(problem.projector.range_basis())]
    modes += [(0.0, *mode) for mode in block_modes(problem.projector.perp_basis())]
    levels = [c for _, c, _, _ in modes]
    # the m n_max lowest eigenvalues lie at or below n_max^2 + max c, and
    # band n_top + 1 of either block lies above that
    n_top = int(np.ceil(np.sqrt(n_max**2 + max(levels) - min(levels))))
    eigen = []
    for n in range(1, n_top + 1):
        for half, c, proj, mult in modes:
            sig2 = (n - half) ** 2
            eigen.append((sig2 + c, 2.0 / np.pi * sig2 * proj, mult))
    eigen.sort(key=lambda e: e[0])

    slots = []
    for run in multiplet_runs([e[0] for e in eigen], tol):
        # the multiplet carries its first member's lambda and the summed weight
        lam0, alpha, _ = eigen[run[0]]
        alpha = sum((eigen[i][1] for i in run[1:]), alpha)
        slots += [(lam0, alpha)] * sum(eigen[i][2] for i in run)
    m = problem.m
    datums = [
        SpectralDatum(r // m + 1, r % m + 1, lam0, alpha)
        for r, (lam0, alpha) in enumerate(slots[: m * n_max])
    ]
    return SpectralData(tuple(datums), n_max)


# ----------------------------------------------------------------------
# forward-direction asymptotics (validation)
# ----------------------------------------------------------------------

def forward_asymptotics(
    problem: Problem,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> AsymptoticSummary:
    """Asymptotic quantities computed directly from problem coefficients.

    Omega is half the potential integral (trapezoid on the grid); the
    drifts are the eigenvalues of T (Omega - H) T and of
    T_perp Omega T_perp restricted to the respective ranges, and
    Theta = T (Omega - H) T + T_perp Omega T_perp.  The class limit
    matrices are represented by the spectral projectors of the
    restrictions, which reproduce Theta exactly through the weighted sum.
    """
    x = problem.x
    omega = 0.5 * np.trapezoid(problem.potential.samples, x, axis=0)
    t = problem.projector.matrix
    tperp = problem.projector.perp
    hmat = problem.boundary.matrix
    p = problem.projector.p
    theta = hermitian_part(t @ (omega - hmat) @ t + tperp @ omega @ tperp)

    def restricted(basis: np.ndarray, mat: np.ndarray):
        a = basis.conj().T @ mat @ basis
        w, vec = np.linalg.eigh(hermitian_part(a))
        return w, [basis @ vec[:, [j]] for j in range(len(w))]

    z_i, vecs_i = restricted(problem.projector.range_basis(), t @ (omega - hmat) @ t)
    z_ii, vecs_ii = restricted(problem.projector.perp_basis(), tperp @ omega @ tperp)
    z = np.concatenate([z_i, z_ii])

    classes = _class_partition(z, p, tol.z_group)
    a_mats: dict[int, np.ndarray] = {}
    s_set = []
    allvecs = vecs_i + vecs_ii
    for cls in classes:
        s = cls[0] + 1
        s_set.append(s)
        proj = np.zeros((problem.m, problem.m), dtype=complex)
        for k in cls:
            v = allvecs[k]
            proj = proj + v @ v.conj().T
        a_mats[s] = proj
    return AsymptoticSummary(
        p=p,
        t_est=np.asarray(t, dtype=complex),
        z=z,
        a_mats=a_mats,
        theta=theta,
        s_set=s_set,
    )
