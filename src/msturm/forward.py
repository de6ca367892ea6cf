"""Forward spectral solver.

Given a problem (Q, T, H) this module integrates the matrix equation,
evaluates the boundary form and the characteristic determinant, locates
eigenvalues with multiplicities, and computes the Weyl matrix together
with the weight matrices (negative residues of the Weyl matrix).

The integrator is a classical fourth-order Runge-Kutta scheme on the
first-order system for (Y, Y'), vectorised over batches of spectral
parameters.  The eigenvalue search counts eigenvalues by the phase of a
unitary matrix built from S(pi, lam) and the boundary condition, brackets
each one in a dense scan, and refines all brackets together, one batched
sweep per step; the count sets the multiplicities.  The weights come
from eigenfunction norms: the inverse Gram matrix of the eigenfunctions
over one stored sweep.  The residue contour of the paper's definition
stays only in ``weight_matrix``, as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._closed import ConstantModel, pair_integral
from .core import (
    DEFAULT_TOL,
    AtEigenvalueError,
    BracketExhaustionError,
    ContourClashError,
    IntegrationOverflowError,
    Problem,
    SpectralData,
    SpectralDatum,
    ToleranceConfig,
    hermitian_part,
    matnorm,
)

__all__ = [
    "SolutionTrace",
    "EigenRecord",
    "WeylSample",
    "integrate",
    "boundary_form",
    "characteristic",
    "find_eigenvalues",
    "weyl_matrix",
    "weight_matrix",
    "spectral_data",
    "self_wronskian_defect",
]


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionTrace:
    """Matrix solution (Y, Y') of -Y'' + QY = lam Y sampled on the grid."""

    lam: complex
    x: np.ndarray
    y: np.ndarray   # (n_grid+1, m, m)
    yp: np.ndarray  # (n_grid+1, m, m)

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def y_end(self) -> np.ndarray:
        return self.y[-1]

    @property
    def yp_end(self) -> np.ndarray:
        return self.yp[-1]


@dataclass(frozen=True)
class EigenRecord:
    """One located eigenvalue with its band/slot bookkeeping."""

    lam: float
    multiplicity: int
    band: int
    slots: tuple[int, ...]


@dataclass(frozen=True)
class WeylSample:
    """Weyl matrix M(lam) at one regular point."""

    lam: complex
    m_matrix: np.ndarray


# ----------------------------------------------------------------------
# batched RK4 sweep
# ----------------------------------------------------------------------

def _rk4_sweep(q, h, lams, y0, p0, store=False):
    """Integrate Y'' = (Q - lam) Y for a batch of lam values.

    q : (n+1, m, m) node samples of Q (linearly interpolated);
    lams : (L,); y0, p0 : (m, m) or (L, m, m).
    Returns terminal (y, yp) or, with ``store``, full (n+1, L, m, m)
    arrays.  The batch is carried as one (m, L*m) state, column block l
    holding Y(lam_l), so each ``Q @ Y`` is a single matrix product.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    L, n, m = lams.shape[0], q.shape[0] - 1, q.shape[1]
    lam = np.repeat(lams, m)
    qmid = 0.5 * (q[:-1] + q[1:])
    y, yp = (
        np.broadcast_to(np.asarray(a, dtype=complex), (L, m, m)).transpose(1, 0, 2).reshape(m, L * m)
        for a in (y0, p0)
    )
    if store:
        ys, ps = np.empty((2, n + 1, m, L * m), dtype=complex)
        ys[0], ps[0] = y, yp
    hh = 0.5 * h
    h6 = h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            qi, qm, qn_ = q[i], qmid[i], q[i + 1]
            k1p = qi @ y - lam * y
            y2 = y + hh * yp
            p2 = yp + hh * k1p
            k2p = qm @ y2 - lam * y2
            y3 = y + hh * p2
            p3 = yp + hh * k2p
            k3p = qm @ y3 - lam * y3
            y4 = y + h * p3
            p4 = yp + h * k3p
            k4p = qn_ @ y4 - lam * y4
            y = y + h6 * (yp + 2.0 * p2 + 2.0 * p3 + p4)
            yp = yp + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            if store:
                ys[i + 1], ps[i + 1] = y, yp
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(yp))):
        raise IntegrationOverflowError(
            "non-finite values while integrating; |lam| too large for this grid"
        )
    if not store:
        ys, ps = y, yp
    # (..., m, L*m) -> (..., L, m, m)
    return tuple(np.moveaxis(a.reshape(*a.shape[:-1], L, m), -2, -3) for a in (ys, ps))


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n+1 equispaced nodes.

    An odd n closes with Simpson's 3/8 rule on the last three intervals,
    so the rule is fourth order on every grid (n = 1: trapezoid).
    """
    if n == 1:
        return np.full(2, 0.5 * h)
    k = n - 3 if n % 2 else n
    w = np.zeros(n + 1)
    w[0:k:2] += h / 3.0
    w[1:k:2] += 4.0 * h / 3.0
    w[2:k + 1:2] += h / 3.0
    if n % 2:
        w[k:] += 3.0 * h / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return w


class _Rk4Engine:
    """Trace provider backed by the gridded potential."""

    def __init__(self, problem: Problem):
        self.q = np.asarray(problem.potential.samples)
        self.h = problem.potential.h
        self.m = problem.m

    def s_terminal(self, lams):
        m = self.m
        return _rk4_sweep(self.q, self.h, lams, np.zeros((m, m)), np.eye(m))

    def sc_terminal(self, lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        L, m = lams.shape[0], self.m
        eye, zero = np.broadcast_to(np.eye(m), (L, m, m)), np.zeros((L, m, m))
        y, yp = _rk4_sweep(
            self.q, self.h, np.concatenate([lams, lams]),
            np.concatenate([zero, eye]), np.concatenate([eye, zero]),
        )
        return y[:L], yp[:L], y[L:], yp[L:]

    def s_gram(self, lams):
        """S(pi), S'(pi) and G = int_0^pi S^dag S dx from one stored sweep."""
        m = self.m
        ys, ps = _rk4_sweep(self.q, self.h, lams, np.zeros((m, m)), np.eye(m), store=True)
        w = _simpson_weights(ys.shape[0] - 1, self.h)
        # one eigenvalue at a time keeps the temporaries at one trajectory
        gram = np.stack([np.einsum("x,xji,xjk->ik", w, y.conj(), y) for y in ys.swapaxes(0, 1)])
        return ys[-1], ps[-1], gram


class _ConstantEngine:
    """Trace provider using closed forms; requires a constant potential."""

    def __init__(self, problem: Problem):
        if not problem.potential.is_constant():
            raise ValueError("constant-trace engine requires a constant potential")
        self.model = ConstantModel(problem.potential.samples[0])
        self.m = problem.m

    def s_terminal(self, lams):
        return self.model.s(np.pi, lams)[0], self.model.sp(np.pi, lams)[0]

    def sc_terminal(self, lams):
        s, sp = self.s_terminal(lams)
        # the cosine-type solution of a constant potential is dS/dx itself
        return s, sp, sp, self.model.cp(np.pi, lams)[0]

    def s_gram(self, lams):
        """S(pi), S'(pi) and the exact G = int_0^pi S^dag S dx for real lams."""
        sig = self.model.sigma(lams)
        return (*self.s_terminal(lams), self.model._recompose(pair_integral(sig, sig, np.pi)))


def _make_engine(problem: Problem, engine: str):
    if engine == "rk4":
        return _Rk4Engine(problem)
    if engine == "constant":
        return _ConstantEngine(problem)
    if engine == "auto":
        if problem.potential.is_constant():
            return _ConstantEngine(problem)
        return _Rk4Engine(problem)
    raise ValueError(f"unknown engine {engine!r}")


# ----------------------------------------------------------------------
# public trace operations
# ----------------------------------------------------------------------

def integrate(problem: Problem, lam: complex, init=None) -> SolutionTrace:
    """Integrate the matrix equation at one spectral parameter.

    ``init`` selects the initial data: ``None`` or ``"S"`` for
    (Y(0), Y'(0)) = (0, I), ``"C"`` for (I, 0), or an explicit pair of
    m x m matrices.
    """
    m = problem.m
    if init is None or init == "S":
        y0, p0 = np.zeros((m, m)), np.eye(m)
    elif init == "C":
        y0, p0 = np.eye(m), np.zeros((m, m))
    else:
        y0, p0 = (np.asarray(a, dtype=complex) for a in init)
    ys, ps = _rk4_sweep(
        problem.potential.samples, problem.potential.h, [lam], y0, p0, store=True
    )
    return SolutionTrace(lam, problem.x, ys[:, 0], ps[:, 0])


def self_wronskian_defect(trace: SolutionTrace) -> float:
    """max_x || S^dag S' - (S')^dag S ||, conserved (== 0) for real lam."""
    w = trace.y.conj().transpose(0, 2, 1) @ trace.yp - trace.yp.conj().transpose(0, 2, 1) @ trace.y
    return float(np.max(np.abs(w)))


def _boundary_form_mats(problem: Problem, y_end, yp_end):
    t, hmat = problem.projector.matrix, problem.boundary.matrix
    return t @ (yp_end - hmat @ y_end) - problem.projector.perp @ y_end


def boundary_form(problem: Problem, trace: SolutionTrace) -> np.ndarray:
    """V(Y) = T (Y'(pi) - H Y(pi)) - (I - T) Y(pi)."""
    return _boundary_form_mats(problem, trace.y_end, trace.yp_end)


def characteristic(problem: Problem, lam: complex, engine: str = "rk4") -> complex:
    """det V(S(., lam)); its zeros are exactly the eigenvalues."""
    y, yp = _make_engine(problem, engine).s_terminal([lam])
    return complex(np.linalg.det(_boundary_form_mats(problem, y, yp))[0])


# ----------------------------------------------------------------------
# eigenvalue search
# ----------------------------------------------------------------------
#
# For real lam the pair (X, X') = (S(pi), S'(pi)) spans a Lagrangian
# plane, so U = (X - iX')(X + iX')^{-1} is unitary; so is the image
# U_b = (T - iB)(T + iB)^{-1}, B = I - T + H, of the boundary plane.
# W = U_b^{-1} U is unitary, dim ker(W - I) is the multiplicity of lam,
# and the eigenphases of W increase with lam (matrix oscillation theory,
# Atkinson 1964, ch. 10).  Eigenvalues are therefore the upward crossings
# of phase 0 (mod 2 pi), and counting them needs only the eigenvalues of
# W at the two ends of an interval.

_TWO_PI = 2.0 * np.pi
_PHASE_SLACK = 1e-9  # rounding allowance on a phase advance of zero
_UNITARY_DEFECT = 1e-6


def _lambda_floor(problem: Problem) -> float:
    qmax = float(max(matnorm(s) for s in problem.potential.samples[:: max(1, problem.n_grid // 20)]))
    hnorm = matnorm(problem.boundary.matrix)
    return -(qmax + (1.0 + hnorm) ** 2 + 1.0)


def _right_divide(a, c):
    """a c^{-1} for stacks of square matrices."""
    return np.linalg.solve(c.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _w_eigvals(problem: Problem, lams, engine) -> np.ndarray:
    """Eigenvalues (L, m) of W = U_b^{-1} U at each lam."""
    t = problem.projector.matrix
    b = problem.projector.perp + problem.boundary.matrix
    y, yp = engine.s_terminal(lams)
    # an orthonormal basis of the plane spanned by (X, X') gives the same U
    # and keeps X + iX' well conditioned where the solution grows unevenly
    basis = np.linalg.qr(np.concatenate([y, yp], axis=-2))[0]
    y, yp = basis[..., : problem.m, :], basis[..., problem.m:, :]
    u = _right_divide(y - 1j * yp, y + 1j * yp)
    return np.linalg.eigvals(_right_divide(t + 1j * b, t - 1j * b) @ u)


def _crossings(wa, wb):
    """Eigenvalue count in (a, b] and the advance of arg det W from a to b.

    Exact while the advance stays below 2 pi: every eigenphase crossing
    0 (mod 2 pi) upwards loses 2 pi from the sum of the reduced phases.
    """
    x = np.sum(np.mod(np.angle(wb), _TWO_PI), -1) - np.sum(np.mod(np.angle(wa), _TWO_PI), -1)
    adv = np.mod(x + _PHASE_SLACK, _TWO_PI) - _PHASE_SLACK
    return np.rint((adv - x) / _TWO_PI).astype(int), adv


def _nearest_phase(w) -> np.ndarray:
    """Signed eigenphase of W nearest 0, per lam."""
    ang = np.angle(w)
    return np.take_along_axis(ang, np.argmin(np.abs(ang), -1)[..., None], -1)[..., 0]


def _scan_samples(problem: Problem, n_max: int, engine):
    """Scan samples, the eigenvalues of W there and the count N at each.

    128 samples per unit rho, more once m (n_max + 0.45) exceeds 48, so
    that a free problem advances arg det W by at most 3 pi / 4 per cell
    (each eigenphase turns at most 2 pi rho per unit rho).
    """
    lam_floor = _lambda_floor(problem)
    n_neg = min(800, max(40, int(np.ceil(abs(lam_floor) / 0.02))))
    lam_neg = np.linspace(lam_floor, 0.0, n_neg, endpoint=False)
    rho_max = n_max + 0.45
    drho = 1.0 / max(128, int(np.ceil(8.0 * problem.m * rho_max / 3.0)))
    rho = np.arange(0.0, rho_max + drho, drho)
    lams = np.concatenate([lam_neg, rho**2])
    w = _w_eigvals(problem, lams, engine)
    cnt, adv = _crossings(w[:-1], w[1:])
    defect = float(np.max(np.abs(np.abs(w) - 1.0)))
    if defect > _UNITARY_DEFECT or np.any(adv >= np.pi):
        raise BracketExhaustionError(
            f"boundary phase is not a unitary monotone count (unitarity defect {defect:.2e}, "
            f"largest cell advance {float(np.max(adv)):.2f} rad); the problem is not self-adjoint "
            "or the sweep lost the oscillating solutions"
        )
    return lams, w, np.concatenate([[0], np.cumsum(cnt)])


def find_eigenvalues(
    problem: Problem,
    n_max: int,
    *,
    engine: str = "rk4",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[EigenRecord]:
    """Locate the first n_max bands of eigenvalues, with multiplicities.

    Eigenvalue r is bracketed by the scan cell where the count N first
    reaches r.  Every refinement step integrates one proposal per open
    bracket in one batch, and the count at the proposal decides which end
    moves, so brackets stay valid.  A bracket holding one crossing takes
    an Illinois step on the signed phase nearest 0, any other the
    midpoint.  Roots within ``tol.mult_rel`` (1 + |lam|) form one
    multiplet.  Exactly m eigenvalues per band are returned (counted with
    multiplicity), assigned to slots in nondecreasing order.  Raises
    :class:`BracketExhaustionError` when the scan counts fewer than
    m n_max eigenvalues or the problem is not self-adjoint.
    """
    eng = _make_engine(problem, engine)
    m = problem.m
    need = m * n_max
    lams, w, counts = _scan_samples(problem, n_max, eng)
    if counts[-1] < need:
        short_band = int(counts[-1]) // m + 1
        raise BracketExhaustionError(
            f"located {counts[-1]} eigenvalues, expected {need}",
            band=short_band,
            found=int(counts[-1]) - (short_band - 1) * m,
        )

    r = np.arange(1, need + 1)
    cell = np.searchsorted(counts, r)
    lo, hi = lams[cell - 1], lams[cell]
    nlo, nhi = counts[cell - 1], counts[cell]
    wlo = w[cell - 1]
    flo, fhi = _nearest_phase(wlo), _nearest_phase(w[cell])
    width_tol = tol.root * np.maximum(1.0, 2.0 * np.sqrt(np.abs(hi)))
    side = np.zeros(need, dtype=int)  # end moved last: +1 hi, -1 lo
    widths = [np.full(need, np.inf)] * 2  # bracket widths one and two steps back
    while np.any(open_ := (width := hi - lo) > width_tol):
        i = np.nonzero(open_)[0]
        mid = 0.5 * (lo[i] + hi[i])
        # Illinois only while it at least halves the bracket every two steps
        illinois = (nhi[i] - nlo[i] == 1) & (flo[i] <= 0.0) & (fhi[i] >= 0.0) & (fhi[i] > flo[i])
        illinois &= width[i] <= 0.5 * widths[0][i]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(illinois, lo[i] - flo[i] * width[i] / (fhi[i] - flo[i]), mid)
        # half a tolerance clear of both ends, so a root at an end closes its bracket
        p = np.clip(p, lo[i] + 0.5 * width_tol[i], hi[i] - 0.5 * width_tol[i])
        uniq, inv = np.unique(p, return_inverse=True)
        wp = _w_eigvals(problem, uniq, eng)[inv]
        np_ = nlo[i] + _crossings(wlo[i], wp)[0]
        fp = _nearest_phase(wp)
        up = np_ >= r[i]  # root in (lo, p]: p becomes hi
        flo[i] = np.where(up & (side[i] == 1), 0.5 * flo[i], flo[i])
        fhi[i] = np.where(~up & (side[i] == -1), 0.5 * fhi[i], fhi[i])
        for a, b, v in ((hi, lo, p), (nhi, nlo, np_), (fhi, flo, fp)):
            a[i] = np.where(up, v, a[i])
            b[i] = np.where(up, b[i], v)
        wlo[i] = np.where(up[:, None], wlo[i], wp)
        side[i] = np.where(up, 1, -1)
        widths = [widths[1], width]
    roots = np.sort(0.5 * (lo + hi))

    # roots within the multiplet threshold form one multiplet
    merged: list[tuple[float, int]] = []
    for lam0 in roots:
        if merged and abs(lam0 - merged[-1][0]) <= tol.mult_rel * (1.0 + abs(merged[-1][0])):
            prev_lam, prev_cnt = merged[-1]
            merged[-1] = (float(prev_lam * prev_cnt + lam0) / (prev_cnt + 1), prev_cnt + 1)
        else:
            merged.append((float(lam0), 1))
    flat = [lam0 for lam0, mu in merged for _ in range(mu)]

    records: list[EigenRecord] = []
    pos = 0
    while pos < need:
        lam0 = flat[pos]
        end = pos
        while end < need and flat[end] == lam0:
            end += 1
        for band in range(pos // m, (end - 1) // m + 1):
            s0 = max(pos, band * m)
            s1 = min(end, (band + 1) * m)
            slots = tuple(range(s0 - band * m + 1, s1 - band * m + 1))
            records.append(EigenRecord(lam0, len(slots), band + 1, slots))
        pos = end
    return records


# ----------------------------------------------------------------------
# Weyl matrix and weight matrices
# ----------------------------------------------------------------------

def weyl_matrix(
    problem: Problem,
    lam: complex,
    *,
    engine: str = "rk4",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> WeylSample:
    """M(lam) = -V(S)^{-1} V(C); requires lam away from the spectrum."""
    eng = _make_engine(problem, engine)
    s, sp, c, cp = eng.sc_terminal([lam])
    vs = _boundary_form_mats(problem, s[0], sp[0])
    vc = _boundary_form_mats(problem, c[0], cp[0])
    sv = np.linalg.svd(vs, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise AtEigenvalueError(f"V(S) is singular at lam = {lam}; move away from the spectrum")
    return WeylSample(lam, -np.linalg.solve(vs, vc))


def weight_matrix(
    problem: Problem,
    record: EigenRecord | float,
    *,
    gap: float | None = None,
    radius: float | None = None,
    engine: str = "rk4",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Weight matrix as minus the residue of M at an eigenvalue.

    Computed by trapezoid quadrature of M over a circle around the
    eigenvalue; the radius defaults to min(contour cap, gap/3) where
    ``gap`` is the distance to the nearest distinct eigenvalue.
    """
    lam0 = record.lam if isinstance(record, EigenRecord) else float(record)
    if radius is None:
        if gap is None:
            raise ValueError("either gap or radius must be supplied")
        radius = min(tol.contour_radius, gap / 3.0)
    if gap is not None and gap < 2.0 * radius:
        raise ContourClashError(
            f"contour of radius {radius} around {lam0} reaches a neighbour at distance {gap}",
            suggested_radius=gap / 3.0,
        )
    eng = _make_engine(problem, engine)
    nq = tol.contour_points
    theta = 2.0 * np.pi * np.arange(nq) / nq
    zs = lam0 + radius * np.exp(1j * theta)
    s, sp, c, cp = eng.sc_terminal(zs)
    vs = _boundary_form_mats(problem, s, sp)
    vc = _boundary_form_mats(problem, c, cp)
    mm = -np.linalg.solve(vs, vc)
    alpha = -(radius / nq) * np.einsum("l,lij->ij", np.exp(1j * theta), mm)
    return hermitian_part(alpha)


def spectral_data(
    problem: Problem,
    n_max: int,
    *,
    engine: str = "rk4",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SpectralData:
    """Eigenvalues and weight matrices for bands 1..n_max.

    For a self-adjoint problem the residue of M at an eigenvalue of total
    multiplicity k is alpha = C (C^dag G C)^{-1} C^dag, where C (m x k) is
    an orthonormal basis of ker V(S(pi, lam)) and G = int_0^pi S^dag S dx:
    the inverse Gram matrix of the eigenfunctions S C.  All distinct
    eigenvalues share one sweep, and repeated eigenvalues share one
    weight matrix.
    """
    records = find_eigenvalues(problem, n_max, engine=engine, tol=tol)
    mult: dict[float, int] = {}
    for rec in records:
        mult[rec.lam] = mult.get(rec.lam, 0) + rec.multiplicity
    distinct = sorted(mult)
    y, yp, gram = _make_engine(problem, engine).s_gram(distinct)
    vh = np.linalg.svd(_boundary_form_mats(problem, y, yp))[2]
    alphas: dict[float, np.ndarray] = {}
    for i, lam0 in enumerate(distinct):
        ch = vh[i, -mult[lam0]:]
        c = ch.conj().T
        alphas[lam0] = hermitian_part(c @ np.linalg.solve(ch @ gram[i] @ c, ch))
    datums = []
    for rec in sorted(records, key=lambda r: (r.band, r.slots[0])):
        for k in rec.slots:
            datums.append(SpectralDatum(rec.band, k, rec.lam, alphas[rec.lam]))
    return SpectralData(tuple(datums), n_max)
