"""Forward spectral solver.

Given a problem (Q, T, H) this module integrates the matrix equation,
evaluates the boundary form and the characteristic determinant, locates
eigenvalues with multiplicities, and computes the Weyl matrix together
with the weight matrices (negative residues of the Weyl matrix).

The integrator is a classical fourth-order Runge-Kutta scheme on the
first-order system for (Y, Y'), vectorised over batches of spectral
parameters.  One RK4 step over a grid cell is a linear map that is
exactly quadratic in lam, so the product of k consecutive cell maps is
exactly a polynomial of degree 2k.  An engine composes these products
once, and a terminal sweep is one matrix product per k cells, applied
to the powers lam^j z of the state; a stored sweep keeps the per-cell
maps, as it needs every grid node.  A real potential keeps the
arithmetic real for real lam and real initial data.  The
eigenvalue search counts eigenvalues by the phase of a
unitary matrix built from S(pi, lam) and the boundary condition, brackets
each one in a dense scan, and refines all brackets together, one batched
sweep per step; the count sets the multiplicities.  The weights come
from eigenfunction norms: the inverse Gram matrix of the eigenfunctions
over one stored sweep.  The residue contour of the paper's definition
stays only in ``weight_matrix``, as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    _real_if_zero_imag,
    hermitian_part,
    matnorm,
    multiplet_runs,
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
# RK4 step maps and the batched sweep
# ----------------------------------------------------------------------
#
# On z = (Y, Y') the equation is z' = A(x) z with A = A0 - lam E, where
# A0 = [[0, I], [Q, 0]] and E = [[0, 0], [I, 0]].  One RK4 step over a
# cell is the linear map z -> P(lam) z, a sum of products of at most four
# slope matrices.  E^2 = 0, so every term of degree 3 or more in lam holds
# two adjacent factors E and vanishes: P(lam) = P0 + lam P1 + lam^2 P2.
# The product of k cells is then exactly C_0 + lam C_1 + ... + lam^2k C_2k,
# and a sweep applies it as one product [C_0 | ... | C_2k] @ [z; ...; lam^2k z].

_STEP_DEGREE = 4  # degree carried while the four stages are expanded


def _step_maps(q, h):
    """Coefficients (n, 5, 2m, 2m) in lam of the RK4 step map of every cell.

    q : (n+1, m, m) node samples of Q, linearly interpolated, so the two
    midpoint stages use the node average.  Coefficients 3 and 4 come out
    exactly zero; they are carried only so that this can be checked.
    """
    n, m = q.shape[0] - 1, q.shape[1]
    eye = np.eye(2 * m)

    def slope(qs):
        a0 = np.zeros((n, 2 * m, 2 * m), dtype=q.dtype)
        a0[:, :m, m:] = np.eye(m)
        a0[:, m:, :m] = qs
        return a0

    def times(a0, poly):
        """(A0 - lam E) poly, truncated at the carried degree."""
        out = a0[:, None] @ poly
        # E X is the top block row of X moved down
        out[:, 1:, m:] -= poly[:, :-1, :m]
        return out

    def affine(c, poly):
        """I + c poly, in place."""
        poly *= c
        poly[:, 0] += eye
        return poly

    am = slope(0.5 * (q[:-1] + q[1:]))
    k = np.zeros((n, _STEP_DEGREE + 1, 2 * m, 2 * m), dtype=q.dtype)
    k[:, 0] = slope(q[:-1])
    k[:, 1, m:, :m] = -np.eye(m)
    acc = k.copy()  # k1 + 2 k2 + 2 k3 + k4
    for a0, c, wgt in ((am, 0.5 * h, 2.0), (am, 0.5 * h, 2.0), (slope(q[1:]), h, 1.0)):
        k = times(a0, affine(c, k))
        acc += wgt * k
    return affine(h / 6.0, acc)


def _step_stack(q, h):
    """Step maps of every cell in the wide layout (n, 2m, 3 * 2m): [P0 | P1 | P2].

    Real when Q has identically zero imaginary part.
    """
    coef = _step_maps(_real_if_zero_imag(q), h)[:, :3]
    n, w = coef.shape[0], coef.shape[2]
    return np.ascontiguousarray(coef.transpose(0, 2, 1, 3)).reshape(n, w, 3 * w)


_CELLS = 4  # grid cells per composed step map; a power of two
# state columns (lam values times m) per pass of a terminal sweep: the
# stacked powers hold 2k + 1 copies of the state, and passes keep them small
_PASS_COLUMNS = 1024


def _compose(steps):
    """Step maps of _CELLS consecutive cells, (ceil(n / k), 2m, (2k + 1) 2m).

    steps : per-cell wide stack from :func:`_step_stack`.  The product of
    k cell maps, each quadratic in lam, is exactly a polynomial of degree
    2k.  It is built by pairwise doubling: two neighbouring products of
    degree d multiply into one of degree 2d, every pair at once.  The
    tail is padded with identity cells.
    """
    w = steps.shape[1]
    pad = np.zeros((-steps.shape[0] % _CELLS, w, 3 * w), dtype=steps.dtype)
    pad[:, :, :w] = np.eye(w)
    wide = np.concatenate([steps, pad])
    for _ in range(_CELLS.bit_length() - 1):
        d = wide.shape[2] // w
        # the later map A acts last; its coefficients stacked as rows, times
        # the earlier map's wide row [B_0 | ...], give every block A_a B_b
        later = wide[1::2].reshape(-1, w, d, w).transpose(0, 2, 1, 3).reshape(-1, d * w, w)
        prod = (later @ wide[0::2]).reshape(-1, d, w, d, w)
        # (A B)(lam) = sum_j lam^j sum_{a+b=j} A_a B_b
        wide = np.zeros((prod.shape[0], w, 2 * d - 1, w), dtype=steps.dtype)
        for a in range(d):
            wide[:, :, a: a + d] += prod[:, a]
        wide = wide.reshape(-1, w, (2 * d - 1) * w)
    return wide


def _rk4_sweep(steps, lams, y0, p0, store=False):
    """Integrate Y'' = (Q - lam) Y for a batch of lam values.

    steps : (n, 2m, (2k + 1) 2m) wide step maps [C_0 | ... | C_2k], each
    covering k cells, from :func:`_step_stack` (k = 1) or :func:`_compose`;
    lams : (L,); y0, p0 : (m, m) or (L, m, m).  Returns terminal (y, yp)
    or, with ``store``, full (n+1, L, m, m) arrays at every grid node,
    which needs per-cell maps.  The batch is carried as one (2m, L*m)
    state z = (Y; Y'), column block l holding lam_l, so a step stacks
    lam^j z for j = 0..2k and applies the map as one product.  A terminal
    sweep of a large batch runs in passes of at most _PASS_COLUMNS state
    columns.  The arithmetic, and so the result, is real when the steps,
    the lams and the initial data all have zero imaginary part.
    """
    n, w = steps.shape[:2]
    m, terms = w // 2, steps.shape[2] // w
    if store and terms != 3:
        raise ValueError("a stored sweep needs per-cell step maps; composed maps skip grid nodes")
    lams, y0, p0 = (_real_if_zero_imag(a) for a in (np.atleast_1d(lams), y0, p0))
    L, per_pass = lams.shape[0], max(1, _PASS_COLUMNS // m)
    if not store and L > per_pass:
        y0, p0 = (np.broadcast_to(a, (L, m, m)) for a in (y0, p0))
        parts = [
            _rk4_sweep(steps, *(a[i: i + per_pass] for a in (lams, y0, p0)))
            for i in range(0, L, per_pass)
        ]
        return tuple(np.concatenate(a) for a in zip(*parts))
    dtype = np.result_type(steps, lams, y0, p0, float)
    steps = steps.astype(dtype, copy=False)
    lam = np.repeat(lams, m).astype(dtype)
    z = np.concatenate([np.broadcast_to(a, (L, m, m)) for a in (y0, p0)], axis=1)
    z = z.transpose(1, 0, 2).reshape(w, L * m).astype(dtype)
    zz = np.empty((terms, w, L * m), dtype=dtype)
    if store:
        zs = np.empty((n + 1, w, L * m), dtype=dtype)
        zs[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        # lam^j, j = 0..2k, per column of z
        powers = np.ones((terms, 1, L * m), dtype=dtype)
        powers[1:, 0] = np.cumprod(np.broadcast_to(lam, (terms - 1, L * m)), axis=0)
        for i in range(n):
            np.multiply(powers, z, out=zz)
            z = np.matmul(steps[i], zz.reshape(terms * w, L * m), out=zs[i + 1] if store else z)
    if not np.all(np.isfinite(z)):
        raise IntegrationOverflowError(
            "non-finite values while integrating; |lam| too large for this grid"
        )
    if store:
        z = zs
    # (..., 2m, L*m) -> (..., L, m, m) for Y and for Y'
    return tuple(
        np.moveaxis(a.reshape(*a.shape[:-1], L, m), -2, -3)
        for a in (z[..., :m, :], z[..., m:, :])
    )


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
    """Trace provider backed by the gridded potential.

    The RK4 step maps are built by the first sweep that needs them, and
    every later sweep of the engine reuses them: the per-cell maps
    (``steps``) for the stored sweep of ``s_gram``, their k-cell products
    (``composed``) for the terminal values of ``s_terminal`` and
    ``sc_terminal``.
    """

    def __init__(self, problem: Problem):
        self.q = problem.potential.samples
        self.h = problem.potential.h
        self.m = problem.m

    @cached_property
    def steps(self):
        return _step_stack(self.q, self.h)

    @cached_property
    def composed(self):
        return _compose(self.steps)

    def s_terminal(self, lams):
        m = self.m
        return _rk4_sweep(self.composed, lams, np.zeros((m, m)), np.eye(m))

    def sc_terminal(self, lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        L, m = lams.shape[0], self.m
        eye, zero = np.broadcast_to(np.eye(m), (L, m, m)), np.zeros((L, m, m))
        y, yp = _rk4_sweep(
            self.composed, np.concatenate([lams, lams]),
            np.concatenate([zero, eye]), np.concatenate([eye, zero]),
        )
        return y[:L], yp[:L], y[L:], yp[L:]

    def s_gram(self, lams):
        """S(pi), S'(pi) and G = int_0^pi S^dag S dx from one stored sweep."""
        m = self.m
        ys, ps = _rk4_sweep(self.steps, lams, np.zeros((m, m)), np.eye(m), store=True)
        w = _simpson_weights(ys.shape[0] - 1, self.h)
        gram = np.einsum("x,xlji,xljk->lik", w, ys.conj(), ys)
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
    steps = _step_stack(problem.potential.samples, problem.potential.h)
    ys, ps = _rk4_sweep(steps, [lam], y0, p0, store=True)
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


def _right_divide(a, c):
    """a c^{-1} for stacks of square matrices."""
    return np.linalg.solve(c.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _boundary_image_inv(problem: Problem) -> np.ndarray:
    """U_b^{-1} = (T + iB)(T - iB)^{-1}, B = I - T + H."""
    t = problem.projector.matrix
    b = problem.projector.perp + problem.boundary.matrix
    return _right_divide(t + 1j * b, t - 1j * b)


def _w_eigvals(ub_inv, lams, engine) -> np.ndarray:
    """Eigenvalues (L, m) of W = U_b^{-1} U at each lam."""
    y, yp = engine.s_terminal(lams)
    # an orthonormal basis of the plane spanned by (X, X') gives the same U
    # and keeps X + iX' well conditioned where the solution grows unevenly
    basis = np.linalg.qr(np.concatenate([y, yp], axis=-2))[0]
    y, yp = basis[..., : engine.m, :], basis[..., engine.m:, :]
    u = _right_divide(y - 1j * yp, y + 1j * yp)
    return np.linalg.eigvals(ub_inv @ u)


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

    The scan runs up to rho = n_max + 0.45 at 128 samples per unit rho,
    more once m rho exceeds 48, so that a free problem advances arg det W
    by at most 3 pi / 4 per cell (each eigenphase turns at most 2 pi rho
    per unit rho).  While it counts fewer than m n_max eigenvalues, its
    top doubles in rho, with the step recomputed for the new top, up to
    sqrt((n_max + 0.45)^2 + max |eig Q| + |H|).
    """
    qmax = float(np.max(np.linalg.norm(problem.potential.samples, 2, axis=(1, 2))))
    hnorm = matnorm(problem.boundary.matrix)
    # a lower bound on the spectrum: max |Q(x)| over every sample, plus room for H
    lam_floor = -(qmax + (1.0 + hnorm) ** 2 + 1.0)
    n_neg = min(800, max(40, int(np.ceil(abs(lam_floor) / 0.02))))
    lams = np.linspace(lam_floor, 0.0, n_neg, endpoint=False)
    top = n_max + 0.45
    bound = np.sqrt(top**2 + qmax + hnorm)
    w = np.empty((0, problem.m), dtype=complex)
    ub_inv = _boundary_image_inv(problem)
    while True:
        drho = 1.0 / max(128, int(np.ceil(8.0 * problem.m * top / 3.0)))
        start = np.sqrt(lams[-1]) + drho if w.size else 0.0
        lams = np.concatenate([lams, np.arange(start, top + drho, drho) ** 2])
        w = np.concatenate([w, _w_eigvals(ub_inv, lams[w.shape[0]:], engine)])
        counts = _scan_counts(w)
        if counts[-1] >= problem.m * n_max or top >= bound:
            return lams, w, counts
        top = min(2.0 * top, bound)


def _scan_counts(w) -> np.ndarray:
    """Count N at each scan sample; raises unless W is unitary with cell advances below pi."""
    cnt, adv = _crossings(w[:-1], w[1:])
    defect = float(np.max(np.abs(np.abs(w) - 1.0)))
    if defect > _UNITARY_DEFECT or np.any(adv >= np.pi):
        raise BracketExhaustionError(
            f"boundary phase is not a unitary monotone count (unitarity defect {defect:.2e}, "
            f"largest cell advance {float(np.max(adv)):.2f} rad); the problem is not self-adjoint "
            "or the sweep lost the oscillating solutions"
        )
    return np.concatenate([[0], np.cumsum(cnt)])


def find_eigenvalues(
    problem: Problem,
    n_max: int,
    *,
    engine: str = "rk4",
    tol: ToleranceConfig = DEFAULT_TOL,
    _traces=None,
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
    ``_traces`` is an engine already built for ``problem``, which
    :func:`spectral_data` passes so that its two halves share one.
    """
    eng = _traces or _make_engine(problem, engine)
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
    ub_inv = _boundary_image_inv(problem)
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
        wp = _w_eigvals(ub_inv, uniq, eng)[inv]
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

    # roots within the multiplet threshold form one multiplet, at their mean
    records: list[EigenRecord] = []
    for run in multiplet_runs(roots, tol):
        lam0 = float(np.mean(roots[run]))
        pos, end = run[0], run[-1] + 1
        for band in range(pos // m, (end - 1) // m + 1):
            s0 = max(pos, band * m)
            s1 = min(end, (band + 1) * m)
            slots = tuple(range(s0 - band * m + 1, s1 - band * m + 1))
            records.append(EigenRecord(lam0, len(slots), band + 1, slots))
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
    eng = _make_engine(problem, engine)
    records = find_eigenvalues(problem, n_max, engine=engine, tol=tol, _traces=eng)
    mult: dict[float, int] = {}
    for rec in records:
        mult[rec.lam] = mult.get(rec.lam, 0) + rec.multiplicity
    distinct = sorted(mult)
    y, yp, gram = eng.s_gram(distinct)
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
