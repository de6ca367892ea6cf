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
from .maineq import MainAssembly, PsiGrid, build_groups, diagnostics_xi, solve_on_grid
from .model import (
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
    "recover_Q_direct",
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


def epsilon_series(
    psi: PsiGrid,
    model: ConstantModel,
    weights_l: CollapsedWeights,
    weights_m: CollapsedWeights,
) -> EpsilonTrace:
    """Assemble eps0 and its term-wise derivative from the solved values.

    Pairs whose two sides coincide exactly (equal spectral value and
    collapsed weight) cancel identically and are skipped; the remaining
    truncation follows the supplied bands.
    """
    if psi.derivs is None:
        raise ReconstructionError("solved derivatives missing; run the solver with derivatives")
    asm = MainAssembly(psi.groups, weights_l, weights_m)
    x, rows, coef = psi.x, asm.rows, asm.row_coef
    sdag = model.s(x, asm.lams[rows]).conj().transpose(0, 1, 3, 2)    # (Nx, R, d, d)
    spdag = model.sp(x, asm.lams[rows]).conj().transpose(0, 1, 3, 2)
    v, vp = psi.values[:, rows], psi.derivs[:, rows]
    eps0 = np.einsum("xrij,rjk,xrkl->xil", v, coef, sdag, optimize=True)
    deps0 = np.einsum("xrij,rjk,xrkl->xil", vp, coef, sdag, optimize=True) + np.einsum(
        "xrij,rjk,xrkl->xil", v, coef, spdag, optimize=True
    )
    return EpsilonTrace(x, eps0, -2.0 * deps0)


def stabilize_epsilon(
    epsilon: EpsilonTrace,
    n_bands: int,
    max_degree: int = 32,
) -> tuple[EpsilonTrace, dict]:
    """Project the truncated correction onto its smooth part.

    With data cut at N bands the term-wise series carries oscillatory
    truncation residue at and above the cut frequency ~2N, including
    O(1)-height layers at the interval ends where every term vanishes
    structurally.  Entrywise adaptive Chebyshev least squares on the
    trimmed interior rejects that residue; the trimmed end zones are
    filled by tangent continuation of the fit (never by free polynomial
    extrapolation).  A series the fit reproduces essentially exactly is
    returned untouched, so finitely-perturbed data keeps its exact
    term-wise values end to end.  ``eps0`` is kept as computed; only
    ``eps`` is replaced.
    """
    x = epsilon.x
    cut = 1.5 * np.pi / (2 * n_bands + 1)
    mask = (x >= cut) & (x <= np.pi - cut)
    lo, hi = float(x[mask][0]), float(x[mask][-1])
    t_all = (2.0 * x - (lo + hi)) / (hi - lo)
    t_fit = t_all[mask]
    d = epsilon.eps.shape[1]
    out = np.empty_like(epsilon.eps)
    degrees = np.zeros((d, d), dtype=int)
    residuals = np.zeros((d, d))
    # a polynomial of degree >= 2 n_bands could start tracking the residue
    # oscillations themselves; stay safely below that resolution
    max_degree = min(max_degree, 2 * n_bands - 4)
    scale = float(np.max(np.abs(epsilon.eps)))
    for i in range(d):
        for j in range(d):
            y = epsilon.eps[:, i, j]
            best, prev = None, None
            for deg in range(6, max_degree + 1, 4):
                coef = _cheb.chebfit(t_fit, y[mask], deg)
                resid = float(
                    np.sqrt(np.trapezoid(np.abs(y[mask] - _cheb.chebval(t_fit, coef)) ** 2, x[mask]))
                )
                if prev is not None and resid > 0.8 * prev:
                    break
                best, prev = coef, resid
                degrees[i, j] = deg
            residuals[i, j] = prev
            vals = _cheb.chebval(np.clip(t_all, -1.0, 1.0), best)
            # fill the trimmed zones by low-order extrapolation of the
            # smoothed values over a wide adjacent window; the fit's own
            # high-degree tail must never be evaluated outside its domain
            window = max(0.5, 3.0 * cut)
            left = x < lo
            right = x > hi
            for zone, anchor, inside in ((left, lo, x <= lo + window), (right, hi, x >= hi - window)):
                if not np.any(zone):
                    continue
                sel = inside & ~zone
                coef2 = np.polyfit(x[sel] - anchor, vals[sel], 2)
                vals[zone] = np.polyval(coef2, x[zone] - anchor)
            out[:, i, j] = vals
    interior_resid = float(np.max(residuals))
    info = {"degrees": degrees, "interior_residual": interior_resid}
    if interior_resid <= 1e-6 * max(1.0, scale):
        # the series is already smooth; substitution would only add bias
        info["applied"] = False
        return epsilon, info
    info["applied"] = True
    return EpsilonTrace(x, epsilon.eps0, hermitian_part(out)), info


# ----------------------------------------------------------------------
# coefficient recovery
# ----------------------------------------------------------------------

def recover_QH(
    model_problem: Problem,
    epsilon: EpsilonTrace,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Problem:
    """Q = Q_model + eps and H = H_model - T eps0(pi) T, symmetrised.

    The recorded spectrum shift of the model problem is undone on the
    returned potential.  A Hermiticity defect of the raw potential above
    ``tol.herm_defect_max`` signals that the truncation was too small and
    raises :class:`ReconstructionError`.
    """
    q_raw = model_problem.potential.samples + epsilon.eps
    defect = float(np.max(np.abs(q_raw - q_raw.conj().transpose(0, 2, 1))))
    if defect > tol.herm_defect_max:
        raise ReconstructionError(
            f"recovered potential has Hermiticity defect {defect:.3e}; "
            "increase the band truncation"
        )
    m = model_problem.m
    q = hermitian_part(q_raw) - model_problem.shift * np.eye(m)
    t = model_problem.projector.matrix
    h_raw = model_problem.boundary.matrix - t @ epsilon.eps0_end @ t
    h = t @ hermitian_part(h_raw) @ t
    return Problem(
        PotentialGrid(q),
        model_problem.projector,
        BoundaryCoefficient(h),
        shift=0.0,
    )


def recover_Q_direct(
    values: np.ndarray,
    lam: float,
    x: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagnostic potential via Q = S'' S^{-1} + lam I on well-conditioned nodes.

    ``values`` holds one solved S(x, lam) on the grid; the second
    derivative is taken by central differences.  Conditioning is measured
    against the global scale of the trace (largest singular value over
    the whole grid), so both anisotropic near-singularity and isolated
    zero crossings of det S are masked; grid ends are always masked.
    This is a cross-check, not the primary reconstruction path.
    """
    v = np.asarray(values)
    nx, d, _ = v.shape
    h = x[1] - x[0]
    q = np.full_like(v, np.nan)
    mask = np.zeros(nx, dtype=bool)
    spp = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    sv = np.linalg.svd(v, compute_uv=False)
    scale = float(np.max(sv))
    for i in range(1, nx - 1):
        if sv[i, -1] <= scale / tol.cond_mask:
            continue
        q[i] = spp[i - 1] @ np.linalg.inv(v[i]) + lam * np.eye(d)
        mask[i] = True
    return q, mask


# ----------------------------------------------------------------------
# end-to-end pipeline
# ----------------------------------------------------------------------

@dataclass
class InverseOptions:
    """Knobs for the inverse pipeline.

    ``stabilize`` controls whether the recovered potential uses the
    smooth projection of the correction series (recommended for data
    truncated at a finite band count; an exact no-op for data that only
    perturbs finitely many entries of the model data).
    """

    n_grid: int = 1000
    tol: ToleranceConfig = DEFAULT_TOL
    model_override: Problem | None = None
    model_data_override: SpectralData | None = None
    x_chunk: int | None = None
    stabilize: bool = True
    stabilize_max_degree: int = 32


@dataclass
class ReconstructionDiagnostics:
    """Everything worth inspecting after a reconstruction."""

    p: int
    shift: float
    z: np.ndarray
    theta: np.ndarray
    residual_max: float
    xi: np.ndarray
    lam_xi: float
    herm_defect_q: float
    herm_defect_h: float
    warnings: list[str]
    stage_seconds: dict[str, float]
    stabilized: bool = False
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
    timings: dict[str, float] = {}

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except StageError:
            raise
        except Exception as exc:  # noqa: BLE001 - tag and re-raise
            raise StageError(name, exc) from exc
        timings[name] = time.perf_counter() - t0
        return out

    def _validate():
        report = validate_spectral_data(data, tol)
        if report:
            raise ReconstructionError("invalid spectral data: " + "; ".join(report))
        return canonicalize_multiplets(data, tol)

    data_c = stage("validate", _validate)
    (data_s, shift) = stage("shift", lambda: shift_spectrum(data_c, tol=tol))
    p = stage("estimate-p", lambda: estimate_p(data_s, tol))
    weights_l = stage("collapse", lambda: collapse_weights(data_s, p, tol))
    summary = stage("asymptotics", lambda: estimate_z_A_Theta(data_s, weights_l, p, tol))

    def _model():
        if opts.model_override is not None:
            override = opts.model_override
            if override.n_grid != opts.n_grid:
                if not override.potential.is_constant():
                    raise ReconstructionError(
                        "model override grid does not match n_grid and is not constant"
                    )
                override = Problem(
                    PotentialGrid.constant(override.potential.samples[0], opts.n_grid),
                    override.projector,
                    override.boundary,
                    shift=override.shift,
                )
            return override
        return build_model(summary, n_grid=opts.n_grid, shift=shift)

    model_problem = stage("model", _model)

    def _model_data():
        if opts.model_data_override is not None:
            return opts.model_data_override.truncate(data_s.n_bands)
        try:
            return model_spectral_data(model_problem, data_s.n_bands, tol)
        except ValueError:
            from .forward import spectral_data as fwd_spectral_data

            return fwd_spectral_data(model_problem, data_s.n_bands, engine="constant", tol=tol)

    model_data = stage("model-data", _model_data)
    weights_m = stage("collapse-model", lambda: collapse_weights(model_data, p, tol))
    groups = stage("grouping", lambda: build_groups(data_s, model_data, p, tol))
    cm = ConstantModel(model_problem.potential.samples[0])
    x = np.linspace(0.0, np.pi, opts.n_grid + 1)
    psi = stage(
        "main-equation",
        lambda: solve_on_grid(
            groups, weights_l, weights_m, cm, x, tol=tol, chunk=opts.x_chunk
        ),
    )
    epsilon = stage("epsilon", lambda: epsilon_series(psi, cm, weights_l, weights_m))
    if opts.stabilize:
        eps_used, stab_info = stage(
            "stabilize",
            lambda: stabilize_epsilon(epsilon, data_s.n_bands, opts.stabilize_max_degree),
        )
    else:
        eps_used, stab_info = epsilon, {}
    recovered = stage("recover", lambda: recover_QH(model_problem, eps_used, tol))
    xi = stage("diagnostics", lambda: diagnostics_xi(data_s, model_data, p, z=summary.z, tol=tol))

    q_raw = model_problem.potential.samples + epsilon.eps
    herm_q = float(np.max(np.abs(q_raw - q_raw.conj().transpose(0, 2, 1))))
    h_raw = model_problem.boundary.matrix - model_problem.projector.matrix @ epsilon.eps0_end @ model_problem.projector.matrix
    herm_h = float(matnorm(h_raw - h_raw.conj().T))
    diag = ReconstructionDiagnostics(
        p=p,
        shift=shift,
        z=summary.z,
        theta=summary.theta,
        residual_max=psi.residual_max,
        xi=xi.xi,
        lam_xi=xi.lam,
        herm_defect_q=herm_q,
        herm_defect_h=herm_h,
        warnings=list(summary.warnings),
        stage_seconds=timings,
        stabilized=opts.stabilize,
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
