"""Forward spectral solver.

Given a problem (Q, T, H) this module integrates the matrix equation,
evaluates the boundary form and the characteristic determinant, locates
eigenvalues with multiplicities, and computes the Weyl matrix together
with the weight matrices (negative residues of the Weyl matrix).

The integrator is a classical fourth-order Runge-Kutta scheme on the
first-order system for (Y, Y'), vectorised over batches of spectral
parameters; the eigenvalue search combines dense sampling, safeguarded
bisection/secant refinement for simple roots, and winding-number counts
with power-sum localisation for clustered or multiple roots.  The
weights come from eigenfunction norms: the inverse Gram matrix of the
eigenfunctions over one stored sweep.  The residue contour of the
paper's definition stays only in ``weight_matrix``, as an oracle.
"""

from __future__ import annotations

import warnings
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


def _detv_batch(problem: Problem, lams, engine) -> np.ndarray:
    y, yp = engine.s_terminal(lams)
    return np.linalg.det(_boundary_form_mats(problem, y, yp))


def characteristic(problem: Problem, lam: complex, engine: str = "rk4") -> complex:
    """det V(S(., lam)); its zeros are exactly the eigenvalues."""
    return complex(_detv_batch(problem, [lam], _make_engine(problem, engine))[0])


# ----------------------------------------------------------------------
# eigenvalue search
# ----------------------------------------------------------------------

def _lambda_floor(problem: Problem) -> float:
    qmax = float(max(matnorm(s) for s in problem.potential.samples[:: max(1, problem.n_grid // 20)]))
    hnorm = matnorm(problem.boundary.matrix)
    return -(qmax + (1.0 + hnorm) ** 2 + 1.0)


def _scan_samples(problem: Problem, n_max: int, engine):
    lam_floor = _lambda_floor(problem)
    n_neg = min(800, max(40, int(np.ceil(abs(lam_floor) / 0.02))))
    lam_neg = np.linspace(lam_floor, 0.0, n_neg, endpoint=False)
    drho = 1.0 / 128.0
    rho = np.arange(0.0, n_max + 0.45 + drho, drho)
    lams = np.concatenate([lam_neg, rho**2])
    dets = _detv_batch(problem, lams, engine)
    dmax = np.max(np.abs(dets))
    if dmax > 0 and np.max(np.abs(dets.imag)) > 1e-6 * dmax:
        warnings.warn("characteristic function has a sizable imaginary part; problem may not be self-adjoint")
    return lams, dets.real


def _refine_brackets(problem, engine, lo, hi, flo, fhi, tol: ToleranceConfig):
    """Safeguarded bisection + secant on det V over many brackets at once."""
    lo = lo.copy()
    hi = hi.copy()
    flo = flo.copy()
    fhi = fhi.copy()
    width_tol = tol.root * np.maximum(1.0, 2.0 * np.sqrt(np.abs(hi)))
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        fm = _detv_batch(problem, mid, engine).real
        left = flo * fm <= 0.0
        hi = np.where(left, mid, hi)
        fhi = np.where(left, fm, fhi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    x_prev, f_prev = lo.copy(), flo.copy()
    x_cur, f_cur = hi.copy(), fhi.copy()
    for _ in range(6):
        if np.all(hi - lo <= width_tol):
            break
        denom = f_cur - f_prev
        bad = np.abs(denom) < 1e-300
        step = np.where(bad, 0.0, f_cur * (x_cur - x_prev) / np.where(bad, 1.0, denom))
        x_new = x_cur - step
        inside = (x_new > lo) & (x_new < hi)
        x_new = np.where(inside, x_new, 0.5 * (lo + hi))
        f_new = _detv_batch(problem, x_new, engine).real
        left = flo * f_new <= 0.0
        hi = np.where(left, x_new, hi)
        fhi = np.where(left, f_new, fhi)
        lo = np.where(left, lo, x_new)
        flo = np.where(left, flo, f_new)
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
    return 0.5 * (lo + hi)


def _winding_clusters(problem, engine, centers, radii, tol: ToleranceConfig, max_pts=512):
    """Count and localise zeros inside circles via the argument principle.

    Returns a list (one item per circle) of lists of (root, multiplicity).
    Power sums of the enclosed zeros are obtained from contour sums of
    lam^k d(log det V); elementary symmetric functions then recover the
    individual zeros, so exact double roots come out at their centroid
    with quadrature-level accuracy.
    """
    out = []
    for c, r in zip(centers, radii):
        npts = 64
        while True:
            theta = 2.0 * np.pi * np.arange(npts + 1) / npts
            zs = c + r * np.exp(1j * theta)
            d = _detv_batch(problem, zs, engine)
            if np.min(np.abs(d)) == 0.0:
                r *= 1.17
                continue
            dphi = np.angle(d[1:] / d[:-1])
            if np.max(np.abs(dphi)) < 0.8 * np.pi or npts >= max_pts:
                break
            npts *= 2
        mu = int(round(float(np.sum(dphi) / (2.0 * np.pi))))
        if mu <= 0:
            out.append([])
            continue
        dlog = np.log(np.abs(d[1:]) / np.abs(d[:-1])) + 1j * dphi
        pows = []
        for k in (1, 2, 3):
            zk = zs**k
            pows.append(np.sum(0.5 * (zk[:-1] + zk[1:]) * dlog) / (2j * np.pi))
        mu = min(mu, 3)
        e1 = pows[0]
        e2 = (e1 * pows[0] - pows[1]) / 2.0
        e3 = (e2 * pows[0] - e1 * pows[1] + pows[2]) / 3.0
        coeffs = [1.0, -e1, e2, -e3][: mu + 1]
        roots = np.roots(coeffs)
        noise = float(np.max(np.abs(roots.imag))) + 1e-12 * (1.0 + abs(c))
        re = np.sort(roots.real)
        split_tol = max(20.0 * noise, tol.mult_rel * (1.0 + abs(c)))
        merged: list[list[float]] = []
        for v in re:
            if merged and v - merged[-1][-1] <= split_tol:
                merged[-1].append(v)
            else:
                merged.append([v])
        out.append([(float(np.mean(g)), len(g)) for g in merged])
    return out


def _polish_extrema(problem, engine, lams, tol: ToleranceConfig) -> np.ndarray:
    """Sharpen even-multiplicity roots by iterating the parabola vertex.

    Near a double zero the computed determinant is an analytic function
    with a genuine extremum at the centroid of its zero pair, so vertex
    iteration localises it to roundoff level, removing the contour
    quadrature bias of the winding step.
    """
    lam = np.asarray(lams, dtype=float).copy()
    step = 1e-3 * (1.0 + np.abs(lam))
    step_floor = 1e-6 * (1.0 + np.abs(lam))
    for _ in range(4):
        trip = np.concatenate([lam - step, lam, lam + step])
        d = _detv_batch(problem, trip, engine).real
        nl = lam.size
        dm, d0, dp = d[:nl], d[nl: 2 * nl], d[2 * nl:]
        denom = dp - 2.0 * d0 + dm
        bad = np.abs(denom) < 1e-300
        shift = np.where(bad, 0.0, (dp - dm) / (2.0 * np.where(bad, 1.0, denom)) * step)
        shift = np.clip(shift, -step, step)
        lam = lam - shift
        step = np.maximum(step / 6.0, step_floor)
    return lam


def _rank_deficiency(problem, engine, lams, tol: ToleranceConfig) -> np.ndarray:
    y, yp = engine.s_terminal(np.asarray(lams, dtype=complex))
    sv = np.linalg.svd(_boundary_form_mats(problem, y, yp), compute_uv=False)
    smax = sv[:, :1]
    return np.sum(sv <= tol.rank_rel * np.maximum(smax, 1e-300), axis=1)


def find_eigenvalues(
    problem: Problem,
    n_max: int,
    *,
    engine: str = "rk4",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[EigenRecord]:
    """Locate the first n_max bands of eigenvalues, with multiplicities.

    Exactly m eigenvalues per band are returned (counted with
    multiplicity), assigned to slots in nondecreasing order.  Raises
    :class:`BracketExhaustionError` when the search cannot account for a
    full band.
    """
    eng = _make_engine(problem, engine)
    m = problem.m
    lams, d = _scan_samples(problem, n_max, eng)

    sign_change = d[:-1] * d[1:] < 0.0
    idx = np.nonzero(sign_change)[0]
    roots: list[tuple[float, int]] = []
    if idx.size:
        refined = _refine_brackets(problem, eng, lams[idx], lams[idx + 1], d[idx], d[idx + 1], tol)
        roots.extend((float(r), 1) for r in refined)

    absd = np.abs(d)
    cand = []
    for i in range(1, len(d) - 1):
        if sign_change[i - 1] or sign_change[i]:
            continue
        if absd[i] == 0.0 or (absd[i] < absd[i - 1] and absd[i] < absd[i + 1]):
            window = absd[max(0, i - 6): i + 7]
            scale = float(np.max(window))
            x3 = lams[i - 1: i + 2]
            y3 = d[i - 1: i + 2]
            c = np.polyfit(x3 - lams[i], y3, 2)
            vertex = lams[i] - c[1] / (2.0 * c[0]) if c[0] != 0 else lams[i]
            vval = np.polyval(c, vertex - lams[i])
            if scale == 0.0 or abs(vval) <= 0.05 * scale or vval * y3[0] < 0:
                cand.append(
                    (float(np.clip(vertex, x3[0], x3[-1])), float(lams[i + 1] - lams[i]))
                )
    cluster_roots: list[tuple[float, int]] = []
    if cand:
        cpos = np.asarray([c for c, _ in cand])
        anchors = np.asarray([r for r, _ in roots]) if roots else np.empty(0)
        centers, radii = [], []
        for cv, spacing in cand:
            r = max(3.0 * spacing, 1e-6)
            others = np.concatenate([anchors, cpos[np.abs(cpos - cv) > 1e-12]])
            if others.size:
                r = min(r, 0.45 * float(np.min(np.abs(others - cv))) + 1e-12)
            if r > 1e-9:
                centers.append(cv)
                radii.append(r)
        for found in _winding_clusters(problem, eng, centers, radii, tol):
            cluster_roots.extend(found)
    if cluster_roots:
        # winding localisation is quadrature-limited; polish both kinds of
        # roots it produced: even-multiplicity ones by vertex iteration,
        # split simple pairs by ordinary bracketed refinement
        multi = np.asarray([lam0 for lam0, cnt in cluster_roots if cnt >= 2])
        if multi.size:
            polished = _polish_extrema(problem, eng, multi, tol)
            it = iter(polished)
            cluster_roots = [
                (float(next(it)), cnt) if cnt >= 2 else (lam0, cnt)
                for lam0, cnt in cluster_roots
            ]
        singles = np.asarray([lam0 for lam0, cnt in cluster_roots if cnt == 1])
        if singles.size:
            anchors = np.asarray(
                [r for r, _ in roots] + [lam0 for lam0, cnt in cluster_roots if cnt >= 2]
            )
            guard = np.full(singles.shape, np.inf)
            for i, lam0 in enumerate(singles):
                others = np.concatenate([anchors, singles[np.arange(singles.size) != i]])
                if others.size:
                    guard[i] = np.min(np.abs(others - lam0))
            width = np.minimum(np.where(np.isfinite(guard), guard / 2.5, 0.01), 0.05)
            lo, hi = singles - width, singles + width
            flo = _detv_batch(problem, lo, eng).real
            fhi = _detv_batch(problem, hi, eng).real
            ok = flo * fhi < 0.0
            if np.any(ok):
                refined = _refine_brackets(
                    problem, eng, lo[ok], hi[ok], flo[ok], fhi[ok], tol
                )
                it2 = iter(refined)
                fixed = {i: float(next(it2)) for i in np.nonzero(ok)[0]}
                pos = 0
                for idx, (lam0, cnt) in enumerate(cluster_roots):
                    if cnt == 1:
                        if pos in fixed:
                            cluster_roots[idx] = (fixed[pos], 1)
                        pos += 1
        roots.extend(cluster_roots)

    # merge numerically coincident locations
    roots.sort()
    merged: list[tuple[float, int]] = []
    for lam0, cnt in roots:
        if merged and abs(lam0 - merged[-1][0]) <= tol.mult_rel * (1.0 + abs(merged[-1][0])):
            prev_lam, prev_cnt = merged[-1]
            w = prev_cnt + cnt
            merged[-1] = ((prev_lam * prev_cnt + lam0 * cnt) / w, w)
        else:
            merged.append((lam0, cnt))

    if not merged:
        raise BracketExhaustionError("no eigenvalues located", band=1, found=0)

    # geometric multiplicities, cross-checked against the analytic counts
    lam_arr = np.asarray([v for v, _ in merged])
    gmult = _rank_deficiency(problem, eng, lam_arr, tol)
    counted = np.asarray([c for _, c in merged])
    mult = gmult.copy()
    need = m * n_max
    if int(np.sum(mult)) < need <= int(np.sum(np.maximum(mult, counted))):
        mult = np.maximum(mult, counted)
    if np.any(gmult != counted):
        warnings.warn(
            "geometric and argument-principle multiplicities disagree at "
            f"{lam_arr[gmult != counted]}; using the reconciled counts"
        )

    flat: list[float] = []
    for lam0, mu in zip(lam_arr, mult):
        flat.extend([float(lam0)] * int(mu))
    if len(flat) < need:
        short_band = len(flat) // m + 1
        raise BracketExhaustionError(
            f"located {len(flat)} eigenvalues, expected {need}",
            band=short_band,
            found=len(flat) - (short_band - 1) * m,
        )
    flat = flat[:need]

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
