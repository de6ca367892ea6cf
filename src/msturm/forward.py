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
arithmetic real for real lam and real initial data.  The eigenvalue
search counts eigenvalues by the phase of a unitary matrix built from
S(pi, lam) and the boundary condition.  A scan uniform in lam, whose
fast cells are bisected, brackets each eigenvalue; a count taken along
x, which cannot miss a fast turn in lam, finds the cells that hide one.
All brackets are refined together, one batched sweep per step; the
count sets the multiplicities.  The weights come from eigenfunction norms: the inverse
Gram matrix of the eigenfunctions over one stored sweep.  The residue
contour of the paper's definition stays only in ``weight_matrix``, as an
oracle.
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

_STEP_DEGREE = 2  # degree of every stage product; higher terms vanish


def _step_maps(q, h):
    """Coefficients (n, 3, 2m, 2m) in lam of the RK4 step map of every cell.

    q : (n+1, m, m) node samples of Q, linearly interpolated, so the two
    midpoint stages use the node average.  Each stage is truncated at
    degree 2, which drops only terms that are exactly zero (E^2 = 0).
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
    coef = _step_maps(_real_if_zero_imag(q), h)
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


def _rk4_sweep(steps, lams, y0, p0, store=False, per_map=False):
    """Integrate Y'' = (Q - lam) Y for a batch of lam values.

    steps : (n, 2m, (2k + 1) 2m) wide step maps [C_0 | ... | C_2k], each
    covering k cells, from :func:`_step_stack` (k = 1) or :func:`_compose`;
    lams : (L,); y0, p0 : (m, m) or (L, m, m).  Returns terminal (y, yp)
    or, with ``store``, full (n+1, L, m, m) arrays at every grid node,
    which needs per-cell maps (with ``per_map`` too: after every map, so
    every k-th node).  The batch is carried as one (2m, L*m)
    state z = (Y; Y'), column block l holding lam_l, so a step stacks
    lam^j z for j = 0..2k and applies the map as one product.  A terminal
    sweep of a large batch runs in passes of at most _PASS_COLUMNS state
    columns.  The arithmetic, and so the result, is real when the steps,
    the lams and the initial data all have zero imaginary part.
    """
    n, w = steps.shape[:2]
    m, terms = w // 2, steps.shape[2] // w
    if store and not per_map and terms != 3:
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

    def s_path(self, lams, max_step):
        """S and S' at nodes of [0, pi], (nodes, L, m, m) each, from one stored sweep.

        The nodes are those of the composed maps if they lie at most
        ``max_step`` apart, else every grid node.
        """
        m = self.m
        cells = self.steps.shape[0] // self.composed.shape[0]
        maps = self.composed if cells * self.h <= max_step else self.steps
        return _rk4_sweep(maps, lams, np.zeros((m, m)), np.eye(m), store=True, per_map=True)

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
        return tuple(self.model.recompose(t[0]) for t in self.model.traces(np.pi, lams))

    def s_path(self, lams, max_step):
        """S and S' at nodes of [0, pi] at most ``max_step`` apart, (nodes, L, m, m) each."""
        x = np.linspace(0.0, np.pi, int(np.ceil(np.pi / max_step)) + 1)
        return tuple(self.model.recompose(t) for t in self.model.traces(x, lams))

    def sc_terminal(self, lams):
        lams = np.atleast_1d(np.asarray(lams))
        s, sp = (t[0] for t in self.model.traces(np.pi, lams))
        mu = lams[:, None] - self.model.d
        s, sp, cp = (self.model.recompose(dg) for dg in (s, sp, -mu * s))
        # the cosine-type solution of a constant potential is dS/dx itself,
        # so C' = S'' = (C - lam) S
        return s, sp, sp, cp

    def s_gram(self, lams):
        """S(pi), S'(pi) and the exact G = int_0^pi S^dag S dx for real lams."""
        sig = self.model.sigma(lams)
        gram = _real_if_zero_imag(pair_integral(sig, sig, np.pi))
        return (*self.s_terminal(lams), self.model.recompose(gram))


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
_PHASE_SLACK = 1e-6  # rounding allowance on a phase advance of zero (see _crossings)
_UNITARY_DEFECT = 1e-6
_PATH_STEP_MAX = 0.75 * np.pi  # largest summed eigenphase move per x step trusted


def _right_divide(a, c):
    """a c^{-1} for stacks of square matrices."""
    return np.linalg.solve(c.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _boundary_image_inv(problem: Problem, kappa=1.0) -> np.ndarray:
    """U_b^{-1} = (T + iB)(T - iB)^{-1}, B = I - T + H / kappa.

    kappa > 0, a scalar or one per lam, gives the boundary plane in the
    coordinates (kappa Y, Y'); kappa = 1 is the plane itself.
    """
    t = problem.projector.matrix
    b = problem.projector.perp + problem.boundary.matrix / np.asarray(kappa)[..., None, None]
    return _right_divide(t + 1j * b, t - 1j * b)


def _plane_frame(y, yp):
    """X - iX' and X + iX' for an orthonormal basis (X, X') of the plane spanned by (y, yp).

    U = (X - iX')(X + iX')^{-1} does not depend on the basis; an
    orthonormal one keeps X + iX' well conditioned (it is unitary) where
    the solution grows unevenly.
    """
    m = y.shape[-1]
    basis = np.linalg.qr(np.concatenate([y, yp], axis=-2))[0]
    y, yp = basis[..., :m, :], basis[..., m:, :]
    return y - 1j * yp, y + 1j * yp


def _w_eigvals(ub_inv, lams, engine) -> np.ndarray:
    """Eigenvalues (L, m) of W = U_b^{-1} U at each lam."""
    return np.linalg.eigvals(ub_inv @ _right_divide(*_plane_frame(*engine.s_terminal(lams))))


def _path_counts(problem: Problem, lams, engine, qmax: float):
    """Net upward crossings of phase 0 by the eigenphases of W(x, lam), x in (0, pi].

    W(x, lam) is built from S(x, lam) as W is from S(pi, lam).  Its
    Dirichlet-channel eigenphases leave 0 upwards at x = 0 for every lam,
    so by homotopy in (x, lam) the count N of eigenvalues in (a, b] is
    P(b) - P(a); nothing aliases in lam.  A crossing is an intersection
    of the plane (S, S') with the boundary plane, so the planes may be
    taken in the coordinates (kappa S, S'): with kappa^2 = max(1, |lam| +
    max |Q|), no eigenphase turns faster than 2 kappa per unit x, and
    nodes pi / (4 m kappa) apart move the summed eigenphases by at most
    pi / 2 per step.  Along one stored sweep, arg det W is followed
    continuously from node to node, exact while it moves by less than pi
    per step; every upward crossing of 0 puts 2 pi between that and the
    sum of the reduced eigenphases, which are needed only at the two ends.
    The largest move per step is returned with the counts.
    """
    lams = np.asarray(lams, dtype=float)
    kappa = np.sqrt(np.maximum(1.0, np.abs(lams) + qmax))
    y, yp = engine.s_path(lams, np.pi / (4.0 * engine.m * np.max(kappa)))
    minus, plus = _plane_frame(kappa[:, None, None] * y[1:], yp[1:])
    # arg det W = arg det U_b^{-1} + arg det(X - iX') - arg det(X + iX')
    step = np.diff(np.angle(np.linalg.det(minus)) - np.angle(np.linalg.det(plus)), axis=0)
    step = np.mod(step + np.pi, _TWO_PI) - np.pi
    ends = _boundary_image_inv(problem, kappa) @ _right_divide(minus[[0, -1]], plus[[0, -1]])
    reduced = np.sum(np.mod(np.angle(np.linalg.eigvals(ends)), _TWO_PI), -1)
    counts = np.rint((step.sum(0) - reduced[1] + reduced[0]) / _TWO_PI).astype(int)
    return counts, np.max(np.abs(step), 0)


def _crossings(wa, wb):
    """Eigenvalue count in (a, b] and the advance of arg det W from a to b.

    Exact while the advance stays below 2 pi: every eigenphase crossing
    0 (mod 2 pi) upwards loses 2 pi from the sum of the reduced phases.
    A step back by less than _PHASE_SLACK is rounding, not a turn: a
    channel that grows like e^(pi sqrt(50)) across [0, pi] puts about
    1e-7 rad of noise on the phase of W.
    """
    x = np.sum(np.mod(np.angle(wb), _TWO_PI), -1) - np.sum(np.mod(np.angle(wa), _TWO_PI), -1)
    adv = np.mod(x + _PHASE_SLACK, _TWO_PI) - _PHASE_SLACK
    return np.rint((adv - x) / _TWO_PI).astype(int), adv


def _nearest_phase(w) -> np.ndarray:
    """Signed eigenphase of W nearest 0, per lam."""
    ang = np.angle(w)
    return np.take_along_axis(ang, np.argmin(np.abs(ang), -1)[..., None], -1)[..., 0]


def _width_tol(tol: ToleranceConfig, lam) -> np.ndarray:
    """Bracket width at which a root counts as found: ``tol.root`` in rho units."""
    return tol.root * np.maximum(1.0, 2.0 * np.sqrt(np.abs(lam)))


def _unitary_defect(w) -> float:
    return float(np.max(np.abs(np.abs(w) - 1.0)))


def _scan_samples(problem: Problem, n_max: int, engine, tol: ToleranceConfig = DEFAULT_TOL):
    """Scan samples, the eigenvalues of W there and the count N at each.

    Below 0 the samples are 0.02 apart, from a floor below the spectrum.
    From 0 they are uniform in lam up to top^2, top = n_max + 0.45 in rho,
    with the step min(top / 64, 3 / (4m)).  On a free problem arg det W
    turns by at most about m pi per unit lam above lam = 1 (1.6 m pi
    below), so a cell there advances it by about 3 pi / 4 at most.  Cells
    that advance by more than pi / 2 are halved (:func:`_halve_fast_cells`).
    While the scan counts fewer than m n_max eigenvalues, its top doubles,
    with the step recomputed for the new top, up to
    sqrt((n_max + 0.45)^2 + max |eig Q| + |H|).  The count is then checked
    against one that cannot alias, and the cells that hide a whole
    eigenphase turn are halved (:func:`_halve_aliased_cells`).
    :func:`_scan_counts` raises unless W is unitary and every cell
    advances by less than pi.
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
        step = min(top / 64.0, 0.75 / problem.m)
        start = lams[-1] + step if w.size else 0.0
        lams = np.concatenate([lams, np.arange(start, top**2 + step, step)])
        w = np.concatenate([w, _w_eigvals(ub_inv, lams[w.shape[0]:], engine)])
        lams, w = _halve_fast_cells(lams, w, ub_inv, engine, tol)
        counts = _scan_counts(w)
        if counts[-1] >= problem.m * n_max or top >= bound:
            break
        top = min(2.0 * top, bound)
    lams, w = _halve_aliased_cells(problem, lams, w, ub_inv, engine, tol, qmax)
    lams, w = _halve_fast_cells(lams, w, ub_inv, engine, tol)
    return lams, w, _scan_counts(w)


def _halve_fast_cells(lams, w, ub_inv, engine, tol: ToleranceConfig):
    """Halve every cell whose advance of arg det W exceeds pi / 2.

    One batched sweep over the new midpoints per round, until no cell is
    that fast or the fast ones are narrower than the refinement's bracket
    tolerance.  A W that is not unitary is left as it is, for
    :func:`_scan_counts` to refuse.
    """
    while _unitary_defect(w) <= _UNITARY_DEFECT:
        fast = _crossings(w[:-1], w[1:])[1] > 0.5 * np.pi
        fast = np.nonzero(fast & (np.diff(lams) > _width_tol(tol, lams[1:])))[0]
        if not fast.size:
            break
        mid = 0.5 * (lams[fast] + lams[fast + 1])
        lams = np.insert(lams, fast + 1, mid)
        w = np.insert(w, fast + 1, _w_eigvals(ub_inv, mid, engine), axis=0)
    return lams, w


def _halve_aliased_cells(problem: Problem, lams, w, ub_inv, engine, tol: ToleranceConfig, qmax):
    """Find and halve the scan cells in which an eigenphase of W turns by 2 pi or more.

    The scan reads such a turn as no turn.  Its count is checked against
    :func:`_path_counts` at the two ends of the scan.  Where they differ,
    the path count is probed at samples between them, and every cell
    across which the difference jumps is halved, until the two counts
    agree on every probed cell; each round is one batched sweep of each
    kind.  Since the eigenphases of W increase with lam, a cell that
    does not alias has no part that aliases.  Raises
    :class:`BracketExhaustionError` when such a cell reaches the bracket
    tolerance.  Where the grid is too coarse for the path count at the
    ends of the scan, nothing is checked.
    """
    path = np.full(lams.size, np.nan)
    path[[0, -1]], adv = _path_counts(problem, lams[[0, -1]], engine, qmax)
    if np.any(adv >= _PATH_STEP_MAX):
        return lams, w
    while True:
        known = np.nonzero(~np.isnan(path))[0]
        counts = np.concatenate([[0], np.cumsum(_crossings(w[:-1], w[1:])[0])])
        missed = path[known] - path[0] - counts[known]
        jump = np.nonzero(missed[1:] != missed[:-1])[0]
        if not jump.size:
            return lams, w
        a, b = known[jump], known[jump + 1]
        probe, cell = (a + b)[b > a + 1] // 2, a[b == a + 1]
        narrow = np.diff(lams)[cell] <= _width_tol(tol, lams[cell + 1])
        mid = 0.5 * (lams[cell] + lams[cell + 1])
        new, adv = _path_counts(problem, np.concatenate([lams[probe], mid]), engine, qmax)
        if np.any(narrow) or np.any(adv >= _PATH_STEP_MAX):
            raise BracketExhaustionError(
                f"the scan counts {counts[-1]} eigenvalues up to lam = {lams[-1]:.6g}, a sweep in "
                f"x counts {int(path[-1] - path[0])}; an eigenphase of W turns by 2 pi within "
                f"a cell the scan cannot halve, at lam = {lams[a[0]]:.6g}"
            )
        path[probe] = new[: probe.size]
        if cell.size:
            lams = np.insert(lams, cell + 1, mid)
            w = np.insert(w, cell + 1, _w_eigvals(ub_inv, mid, engine), axis=0)
            path = np.insert(path, cell + 1, new[probe.size:])


def _scan_counts(w) -> np.ndarray:
    """Count N at each scan sample; raises unless W is unitary with cell advances below pi."""
    cnt, adv = _crossings(w[:-1], w[1:])
    defect = _unitary_defect(w)
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
    m n_max eigenvalues, cannot halve a cell that hides an eigenvalue, or
    the problem is not self-adjoint.
    ``_traces`` is an engine already built for ``problem``, which
    :func:`spectral_data` passes so that its two halves share one.
    """
    eng = _traces or _make_engine(problem, engine)
    m = problem.m
    need = m * n_max
    lams, w, counts = _scan_samples(problem, n_max, eng, tol)
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
    width_tol = _width_tol(tol, hi)
    side = np.zeros(need, dtype=int)  # end moved last: +1 hi, -1 lo
    widths = [np.full(need, np.inf)] * 3  # bracket widths three, two and one steps back
    while np.any(open_ := (width := hi - lo) > width_tol):
        i = np.nonzero(open_)[0]
        mid = 0.5 * (lo[i] + hi[i])
        # Illinois only while it at least halves the bracket every three steps
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
        widths = [widths[1], widths[2], width]
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
