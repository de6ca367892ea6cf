"""Potential and boundary-coefficient recovery from solved sequence data.

Once the truncated main system has produced the values S(x, lam) for all
grouped spectral parameters, the correction series

    eps0(x) = sum S(x, lam_nk0) a'_nk0 S_model(x, lam_nk0)^dag
            -     S(x, lam_nk1) a'_nk1 S_model(x, lam_nk1)^dag

and eps = -2 eps0' recover the coefficients through Q = Q_model + eps and
H = H_model - T eps0(pi) T.  The derivative is taken term-wise using the
solved S' values, never by finite differences.  This module also hosts
the end-to-end inverse pipeline and the closed-form two-unknown example
used as an oracle throughout the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from ._closed import ConstantModel, pair_integral, sins
from .core import (
    DEFAULT_TOL,
    BoundaryCoefficient,
    PotentialGrid,
    Problem,
    Projector,
    ReconstructionError,
    SpectralData,
    SpectralDatum,
    StageError,
    ToleranceConfig,
    canonicalize_multiplets,
    hermitian_part,
    matnorm,
    shift_spectrum,
    validate_spectral_data,
)
from .maineq import (
    PsiGrid,
    _rotate,
    build_groups,
    diagnostics_xi,
    solve_on_grid,
)
from .model import (
    MIN_BANDS,
    CollapsedWeights,
    build_model,
    collapse_weights,
    estimate_p,
    estimate_z_A_Theta,
    model_spectral_data,
)

__all__ = [
    "EpsilonTrace",
    "InverseOptions",
    "ReconstructionDiagnostics",
    "ReconstructionResult",
    "epsilon_series",
    "stabilize_epsilon",
    "recover_QH",
    "solve_inverse",
    "Sec6ClosedForm",
    "sec6_closed_form",
    "sec6_spectral_data",
]


# ----------------------------------------------------------------------
# epsilon series
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonTrace:
    """Correction series eps0 and eps = -2 eps0' on the grid."""

    x: np.ndarray
    eps0: np.ndarray  # (Nx, d, d)
    eps: np.ndarray   # (Nx, d, d)

    @property
    def eps0_end(self) -> np.ndarray:
        return self.eps0[-1]


def epsilon_series(psi: PsiGrid, model: ConstantModel) -> EpsilonTrace:
    """Assemble eps0 and its term-wise derivative from the solved values.

    The pair coefficients are the row coefficients of ``psi.assembly``,
    the system the values were solved from: pairs whose two sides
    coincide exactly (equal spectral value and collapsed weight) cancel
    identically and are already folded out; the remaining truncation
    follows the supplied bands.  In the eigenbasis of ``model``
    (C = U diag(c) U^dag) each model trace is diagonal, so with the solved
    values S~_r and row coefficients B~_r in that basis

        eps0 = U (sum_r S~_r B~_r diag(s_r)) U^dag,

    and its derivative adds S~'_r and s'_r: one product per row, a sum
    over the rows, rotated back once.  The eigenbasis values are the ones
    the solver kept; values given only in the original basis are rotated in.
    """
    asm = psi.assembly
    rows, d, n = asm.rows, asm.dim, psi.x.size
    eigen = psi._eigen or [_rotate(model.udag, a) for a in (psi.values, psi.derivs)]
    # S~_r B~_r for every row: vec(S~ B~) = vec(S~) (I kron B~), one product per row
    kron = np.eye(d)[:, None, :, None] * asm._coef_in(model)[rows, None, :, None, :]
    kron = kron.reshape(rows.size, d * d, d * d)
    g, gp = (
        (np.take(a, rows, axis=1).reshape(n, -1, d * d).swapaxes(0, 1) @ kron).reshape(-1, n, d, d)
        for a in eigen
    )
    s, sp = model.traces(psi.x, asm.lams[rows])  # (Nx, R, d)
    eps0 = _rotate(model.u, np.einsum("rxij,xrj->xij", g, s))
    deps0 = _rotate(model.u, np.einsum("rxij,xrj->xij", gp, s) + np.einsum("rxij,xrj->xij", g, sp))
    return EpsilonTrace(psi.x, eps0, -2.0 * deps0)


def stabilize_epsilon(epsilon: EpsilonTrace, n_bands: int) -> tuple[EpsilonTrace, dict]:
    """Project the truncated correction onto its smooth part.

    With data cut at N bands the term-wise series carries oscillatory
    truncation residue at and above the cut frequency ~2N, including
    O(1)-height layers at the interval ends where every term vanishes
    structurally.  Every entry gets one Chebyshev least-squares fit on the
    trimmed interior, of degree ``min(max(6, N // 2), top)`` with the top
    degree ``min(32, 2N - 4)``: the degree follows the band count, so the
    fit keeps more of the potential as N grows and stays well below the
    residue.  The trimmed end zones are filled by a quadratic continuation
    of the fit over a window of at least 3 interior nodes (never by free
    polynomial extrapolation).  A series that a fit at the top degree
    reproduces to 1e-6 of its size is already smooth and is returned
    untouched, so finitely-perturbed data keeps its exact
    term-wise values end to end; ``interior_residual`` is that fit's
    largest L2 residual.  Both degrees are capped at half the interior
    nodes: on a coarse grid a fit with more nearly interpolates, and its
    zero residual would pass the gate; an interior of fewer than 3 nodes
    raises :class:`ReconstructionError`.  ``eps0`` is kept as computed;
    only ``eps`` is replaced.
    """
    x = epsilon.x
    cut = 1.5 * np.pi / (2 * n_bands + 1)
    mask = (x >= cut) & (x <= np.pi - cut)
    n_inner = int(mask.sum())
    if n_inner < 3:
        raise ReconstructionError(
            f"n_grid = {x.size - 1} leaves {n_inner} grid nodes between the end zones "
            f"at {n_bands} bands; the stabilizer needs at least 3"
        )
    lo, hi = float(x[mask][0]), float(x[mask][-1])
    t_all = (2.0 * x - (lo + hi)) / (hi - lo)
    t_fit = t_all[mask]
    n, d = epsilon.eps.shape[:2]
    y_fit = epsilon.eps.reshape(n, d * d)[mask]
    # a degree near 2 n_bands could track the residue oscillations themselves
    top = min(32, 2 * n_bands - 4, n_inner // 2)
    degree = min(top, max(6, n_bands // 2))
    c_top = _cheb.chebfit(t_fit, y_fit, top)
    resid = np.trapezoid(np.abs(y_fit.T - _cheb.chebval(t_fit, c_top)) ** 2, x[mask], axis=-1)
    interior_resid = float(np.sqrt(np.max(resid)))
    applied = interior_resid > 1e-6 * max(1.0, float(np.max(np.abs(epsilon.eps))))
    info = {"degree": degree, "interior_residual": interior_resid, "applied": applied}
    if not applied:
        # the series is already smooth; substitution would only add bias
        return epsilon, info
    vals = _cheb.chebval(np.clip(t_all, -1.0, 1.0), _cheb.chebfit(t_fit, y_fit, degree))
    # fill the trimmed zones by low-order extrapolation of the smoothed
    # values over a wide adjacent window, which holds at least the 3
    # interior nodes nearest the zone even on a coarse grid; the fit's own
    # high-degree tail must never be evaluated outside its domain
    window = max(0.5, 3.0 * cut)
    inner = np.flatnonzero(mask)
    for zone, anchor, inside, nearest in (
        (x < lo, lo, x <= lo + window, inner[:3]),
        (x > hi, hi, x >= hi - window, inner[-3:]),
    ):
        if not np.any(zone):
            continue
        sel = inside & ~zone
        sel[nearest] = True
        coef2 = np.polyfit(x[sel] - anchor, vals[:, sel].T, 2)
        vals[:, zone] = np.polyval(coef2, (x[zone] - anchor)[:, None]).T
    return EpsilonTrace(x, epsilon.eps0, hermitian_part(vals.T.reshape(n, d, d))), info


# ----------------------------------------------------------------------
# coefficient recovery
# ----------------------------------------------------------------------

def recover_QH(
    model_problem: Problem,
    raw: EpsilonTrace,
    used: EpsilonTrace,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[Problem, float, float]:
    """Q = Q_model + eps and H = H_model - T eps0(pi) T, symmetrised.

    ``used`` is the correction applied (the stabilized series); ``raw`` is
    the term-wise series it came from.  Returns the recovered problem and
    the Hermiticity defects of the raw potential Q_model + eps and of the
    raw H_model - T eps0(pi) T.  The stabilizer returns a Hermitian
    series, so the defects are measured on ``raw``: a potential defect
    above ``tol.herm_defect_max`` signals that the truncation was too
    small and raises :class:`ReconstructionError`.  The recorded spectrum
    shift of the model problem is undone on the returned potential.
    """
    q_model = model_problem.potential.samples
    q_raw = q_model + raw.eps
    herm_q = float(np.max(np.abs(q_raw - q_raw.conj().transpose(0, 2, 1))))
    if herm_q > tol.herm_defect_max:
        raise ReconstructionError(
            f"recovered potential has Hermiticity defect {herm_q:.3e}; "
            "increase the band truncation"
        )
    t = model_problem.projector.matrix
    h_raw = model_problem.boundary.matrix - t @ raw.eps0_end @ t
    herm_h = float(matnorm(h_raw - h_raw.conj().T))
    q = hermitian_part(q_model + used.eps) - model_problem.shift * np.eye(model_problem.m)
    # the stabilizer keeps eps0, so H comes from the raw end value
    h = t @ hermitian_part(h_raw) @ t
    problem = Problem(
        PotentialGrid(q),
        model_problem.projector,
        BoundaryCoefficient(h),
        shift=0.0,
    )
    return problem, herm_q, herm_h


# ----------------------------------------------------------------------
# end-to-end pipeline
# ----------------------------------------------------------------------

@dataclass
class InverseOptions:
    """Knobs for the inverse pipeline.

    ``model_override`` replaces the comparison model built from the data
    asymptotics by a given (problem, spectral data) pair; the problem must
    have a constant potential.
    """

    n_grid: int = 1000
    tol: ToleranceConfig = DEFAULT_TOL
    model_override: tuple[Problem, SpectralData] | None = None


@dataclass
class ReconstructionDiagnostics:
    """Everything worth inspecting after a reconstruction."""

    p: int
    shift: float
    z: np.ndarray
    theta: np.ndarray
    residual_max: float
    collocation_nodes: int
    cheb_tail: float
    xi: np.ndarray
    lam_xi: float
    herm_defect_q: float
    herm_defect_h: float
    warnings: list[str]
    stage_seconds: dict[str, float]
    stabilize_info: dict = field(default_factory=dict)


@dataclass
class ReconstructionResult:
    problem: Problem
    epsilon: EpsilonTrace
    diagnostics: ReconstructionDiagnostics
    epsilon_used: EpsilonTrace = field(repr=False, default=None)
    model_problem: Problem = field(repr=False, default=None)
    model_data: SpectralData = field(repr=False, default=None)
    psi: PsiGrid = field(repr=False, default=None)
    data: SpectralData = field(repr=False, default=None)


class _StageRunner:
    """Runs named pipeline stages, timing each and tagging its failures.

    A failure inside a stage is re-raised as :class:`StageError` carrying
    the stage name; ``seconds`` maps every completed stage to its wall time.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def __call__(self, name: str, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except StageError:
            raise
        except Exception as exc:  # noqa: BLE001 - tag and re-raise
            raise StageError(name, exc) from exc
        self.seconds[name] = time.perf_counter() - t0
        return out


def _inverse_core(
    stage: _StageRunner,
    data_l: SpectralData,
    data_m: SpectralData,
    weights_l: CollapsedWeights,
    model: ConstantModel,
    p: int,
    n_grid: int,
    tol: ToleranceConfig,
) -> tuple[PsiGrid, EpsilonTrace, EpsilonTrace, dict]:
    """Main equation and correction series for a data pair, as stages.

    Runs ``collapse-model``, ``grouping``, ``main-equation``, ``epsilon``
    and ``stabilize`` against the constant comparison ``model`` on a grid
    of ``n_grid`` intervals.  Returns the solved values, the raw
    correction series, the stabilized one and the stabilizer report.
    Fewer than ``MIN_BANDS`` bands raise :class:`ReconstructionError`.
    """
    if data_l.n_bands < MIN_BANDS:
        raise ReconstructionError(
            f"the inverse needs at least {MIN_BANDS} bands, got {data_l.n_bands}"
        )
    # build_groups and solve_on_grid resolve through this module, where profilers patch them
    weights_m = stage("collapse-model", lambda: collapse_weights(data_m, p, tol))
    groups = stage("grouping", lambda: build_groups(data_l, data_m, p, tol))
    x = np.linspace(0.0, np.pi, n_grid + 1)
    psi = stage(
        "main-equation", lambda: solve_on_grid(groups, weights_l, weights_m, model, x, tol=tol)
    )
    epsilon = stage("epsilon", lambda: epsilon_series(psi, model))
    eps_used, stab_info = stage(
        "stabilize", lambda: stabilize_epsilon(epsilon, data_l.n_bands)
    )
    return psi, epsilon, eps_used, stab_info


def solve_inverse(data: SpectralData, options: InverseOptions | None = None) -> ReconstructionResult:
    """Recover (Q, T, H) from spectral data.

    Orchestrates the full constructive pipeline: validate and canonicalise
    the data, shift the spectrum if needed, extract the asymptotic
    quantities and build the model problem, compute the model data in
    closed form, group the square roots, solve the truncated system on
    the grid (values and derivatives), assemble the correction series and
    recover the coefficients.  Failures are re-raised as
    :class:`StageError` tagged with the stage name.
    """
    opts = options or InverseOptions()
    tol = opts.tol
    stage = _StageRunner()

    def _validate():
        report = validate_spectral_data(data, tol)
        if report:
            raise ReconstructionError("invalid spectral data: " + "; ".join(report))
        return canonicalize_multiplets(data, tol)

    data_c = stage("validate", _validate)
    override = opts.model_override
    # an override's data moves with the data, so the shift must clear both
    floor = None if override is None else override[1].min_lambda()
    (data_s, shift) = stage("shift", lambda: shift_spectrum(data_c, tol=tol, lam_min=floor))
    p = stage("estimate-p", lambda: estimate_p(data_s, tol))
    weights_l = stage("collapse", lambda: collapse_weights(data_s, p, tol))
    summary = stage("asymptotics", lambda: estimate_z_A_Theta(data_s, weights_l, p, tol))

    def _model():
        if override is None:
            return build_model(summary, n_grid=opts.n_grid, shift=shift)
        given = override[0]
        if not given.potential.is_constant():
            raise ReconstructionError("the model override must have a constant potential")
        level = given.potential.samples[0] + shift * np.eye(given.m)
        return Problem(
            PotentialGrid.constant(level, opts.n_grid),
            given.projector,
            given.boundary,
            shift=given.shift + shift,
        )

    model_problem = stage("model", _model)

    def _model_data():
        if override is not None:
            return override[1].truncate(data_s.n_bands).shifted(shift)
        return model_spectral_data(model_problem, data_s.n_bands, tol)

    model_data = stage("model-data", _model_data)
    cm = ConstantModel(model_problem.potential.samples[0])
    psi, epsilon, eps_used, stab_info = _inverse_core(
        stage, data_s, model_data, weights_l, cm, p, opts.n_grid, tol
    )
    recovered, herm_q, herm_h = stage(
        "recover", lambda: recover_QH(model_problem, epsilon, eps_used, tol)
    )
    xi = stage("diagnostics", lambda: diagnostics_xi(psi.assembly, summary.z, tol))

    diag = ReconstructionDiagnostics(
        p=p,
        shift=shift,
        z=summary.z,
        theta=summary.theta,
        residual_max=psi.residual_max,
        collocation_nodes=psi.collocation_nodes,
        cheb_tail=psi.cheb_tail,
        xi=xi.xi,
        lam_xi=xi.lam,
        herm_defect_q=herm_q,
        herm_defect_h=herm_h,
        warnings=list(summary.warnings),
        stage_seconds=stage.seconds,
        stabilize_info=stab_info,
    )
    return ReconstructionResult(
        problem=recovered,
        epsilon=epsilon,
        diagnostics=diag,
        epsilon_used=eps_used,
        model_problem=model_problem,
        model_data=model_data,
        psi=psi,
        data=data_s,
    )


# ----------------------------------------------------------------------
# the two-unknown worked example (closed form)
# ----------------------------------------------------------------------

def sec6_spectral_data(a: float, n_bands: int = 15) -> SpectralData:
    """Spectral data of the rank-one perturbed star model (m = 3).

    Identical to the zero-potential star data except that the lowest
    eigenvalue is moved to a^2 (a in [0, 1), a != 1/2); all weight
    matrices are unchanged.
    """
    _check_a(a)
    t = np.full((3, 3), 1.0 / 3.0)
    tp = np.eye(3) - t
    datums = []
    for n in range(1, n_bands + 1):
        lam1 = a * a if n == 1 else (n - 0.5) ** 2
        datums.append(SpectralDatum(n, 1, lam1, 2.0 / np.pi * (n - 0.5) ** 2 * t))
        alpha2 = 2.0 / np.pi * n**2 * tp
        datums.append(SpectralDatum(n, 2, float(n * n), alpha2))
        datums.append(SpectralDatum(n, 3, float(n * n), alpha2))
    return SpectralData(tuple(datums), n_bands)


def _check_a(a: float):
    if not (0.0 <= a < 1.0) or a == 0.5:
        raise ValueError("a must lie in [0, 1) with a != 1/2")


@dataclass(frozen=True)
class Sec6ClosedForm:
    """Closed-form system coefficients, solution and correction series."""

    x: np.ndarray
    f11: np.ndarray
    f12: np.ndarray
    f22: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    s110: np.ndarray   # (Nx, 3, 3)
    s111: np.ndarray
    eps0: np.ndarray   # (Nx, 3, 3)

    @property
    def h(self) -> float:
        """Recovered boundary scalar: H = h T = -T eps0(pi) T on range(T)."""
        t = np.full((3, 3), 1.0 / 3.0)
        # for A = s T, trace(T A T) = s; the recovery negates it
        return -float(np.real(np.trace(t @ self.eps0[-1] @ t)))


def sec6_closed_form(a: float, x) -> Sec6ClosedForm:
    """Evaluate the explicit two-unknown solution of the worked example.

    All sine quotients go through the series-stable kernel primitives, so
    a = 0 and frequencies near coincidence are handled without special
    cases.
    """
    _check_a(a)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.full((3, 3), 1.0 / 3.0)
    tp = np.eye(3) - t
    sa = np.real(sins(a, x))
    s_half = 2.0 * np.sin(0.5 * x)
    f11 = 1.0 + np.real(pair_integral(a, a, x)) / (2.0 * np.pi)
    f22 = 1.0 - np.real(pair_integral(0.5, 0.5, x)) / (2.0 * np.pi)
    f12 = np.real(pair_integral(a, 0.5, x)) / (2.0 * np.pi)
    d0 = f11 * f22 + f12**2
    d1 = f22 * sa + f12 * s_half
    d2 = f11 * s_half - f12 * sa
    s110 = (d1 / d0)[:, None, None] * t + sa[:, None, None] * tp
    s111 = (d2 / d0)[:, None, None] * t + s_half[:, None, None] * tp
    eps0 = ((d1 * sa - d2 * s_half) / (2.0 * np.pi * d0))[:, None, None] * t
    return Sec6ClosedForm(x, f11, f12, f22, d0, d1, d2, s110, s111, eps0)
