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
once and lays their coefficients out for the sweep once.  A sweep builds
P(lam) for its batch as matrix products of the powers lam^j with the
coefficients.  A terminal sweep of a small batch builds every map's
P(lam) at once and multiplies neighbouring maps pairwise, level by
level, in ceil(log2 n) batched products; a larger batch steps map by
map, one batched product each.  A stored sweep steps map by map and
keeps every state; at every grid node, the cell maps step the span
starts of a stored sweep of the composed maps through every span at
once.  The arithmetic is real: complex maps or lam run in the
real form [[Re, -Im], [Im, Re]], and a real potential keeps the result
real for real lam and real initial data.  The eigenvalue search counts
eigenvalues by the phase of a unitary matrix W built from S(pi, lam)
and the boundary condition, in the coordinates (kappa S, S') with
kappa ~ sqrt(lam), where its phases turn nearly uniformly in
rho = sqrt(lam).  A scan uniform in lam up to lam = 1 and uniform in rho
above, whose fast cells are bisected, brackets each eigenvalue; a count
taken along x, which cannot miss a fast turn in lam, finds the cells
that hide one.  All brackets are refined together, one batched sweep
per step; the count sets the multiplicities.  The weights come from
eigenfunction norms: the inverse Gram matrix of the eigenfunctions over
one stored sweep, one batched solve per multiplicity.  The residue
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
# and a sweep forms it for every lam at once as [1, lam, ..., lam^2k] times
# the coefficients [C_0; ...; C_2k], each flattened to one row.

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
_TREE_MAX = 1 << 15  # largest L W^3 whose terminal sweep runs as a product tree
_TREE_CHUNK = 1 << 20  # bytes of the map stack of one chunk of a product tree
# bytes of the temporary maps of one chunk in _times and in the fill of the
# nodes inside the spans; larger blocks raise the peak memory of a forward solve
_BLOCK_CHUNK = 1 << 18


def _times(later, earlier):
    """Wide products (later earlier)(lam), map by map.

    later : (n, w, a w) and earlier : (n, w, b w), wide maps [A_0 | ...]
    and [B_0 | ...] of degrees a - 1 and b - 1; the product has degree
    a + b - 2.  (A B)(lam) = sum_j lam^j sum_{i+k=j} A_i B_k, so the later map's wide
    row times the block Toeplitz matrix whose block (i, j) is B_(j-i)
    gives the product's wide row: one batched product per chunk of maps
    whose Toeplitz matrices stay within _BLOCK_CHUNK bytes.
    """
    n, w = earlier.shape[:2]
    a, b = later.shape[2] // w, earlier.shape[2] // w
    dtype = np.result_type(later, earlier)
    out = np.empty((n, w, (a + b - 1) * w), dtype=dtype)
    size = max(1, _BLOCK_CHUNK // (dtype.itemsize * a * w * (a + b - 1) * w))
    for s in range(0, n, size):
        toeplitz = np.zeros((min(size, n - s), a, w, a + b - 1, w), dtype=dtype)
        for i in range(a):
            toeplitz[:, i, :, i: i + b] = earlier[s: s + size].reshape(-1, w, b, w)
        np.matmul(later[s: s + size], toeplitz.reshape(-1, a * w, (a + b - 1) * w), out=out[s: s + size])
    return out


def _compose(steps):
    """Step maps of _CELLS consecutive cells, (ceil(n / _CELLS), 2m, (2 _CELLS + 1) 2m).

    steps : per-cell wide stack from :func:`_step_stack`, padded with
    identity cells to a whole number of _CELLS.  The product of k cell
    maps is exactly a polynomial of degree 2k in lam; pairwise doubling
    builds it, every neighbouring pair at once.
    """
    w = steps.shape[1]
    pad = np.zeros((-steps.shape[0] % _CELLS, w, 3 * w), dtype=steps.dtype)
    pad[:, :, :w] = np.eye(w)
    maps = np.concatenate([steps, pad])
    for _ in range(_CELLS.bit_length() - 1):
        maps = _times(maps[1::2], maps[0::2])
    return maps


class _SweepMaps:
    """Wide maps [C_0 | ... | C_(t-1)] laid out for :func:`_rk4_sweep`.

    A sweep builds P(lam) = sum_j lam^j C_j for every map and every lam of
    its batch from the powers (L, t) and a layout (t, n W W) whose row j
    holds C_j of every map, flattened.  ``real`` lays out the maps as
    they are (real maps: W = 2m).  ``real_forms`` lays out the real forms
    (2W x 2W) of every C_j, for real lams under complex maps.  ``paired``
    lays out those and then the real forms of every i C_j, so
    [Re lam^j | Im lam^j] times it is the real form of P(lam) for complex
    lams.  Each layout is built on first use.
    """

    def __init__(self, wide):
        n, w = wide.shape[:2]
        self.n, self.m, self.terms = n, w // 2, wide.shape[2] // w
        self.is_complex = np.iscomplexobj(wide)
        self._blocks = wide.reshape(n, w, self.terms, w).transpose(2, 0, 1, 3)  # (t, n, W, W)

    @cached_property
    def real(self):
        return np.ascontiguousarray(self._blocks).reshape(self.terms, -1)

    @cached_property
    def real_forms(self):
        return self._real_forms(1)

    @cached_property
    def paired(self):
        return self._real_forms(2)

    def _real_forms(self, halves):
        c = self._blocks
        t, n, w = c.shape[:3]
        out = np.empty((halves, t, n, 2 * w, 2 * w))
        # [[Re, -Im], [Im, Re]], the map acting on (Re z; Im z), of C_j and
        # then of i C_j = -Im C_j + i Re C_j
        for half, (re, im) in zip(out, ((c.real, c.imag), (-c.imag, c.real))):
            half[..., :w, :w] = half[..., w:, w:] = re
            half[..., :w, w:], half[..., w:, :w] = -im, im
        return out.reshape(halves * t, -1)


def _tree_product(powers, coef, z):
    """P_n(lam) ... P_1(lam) z for every lam of the batch, by a pairwise product tree.

    powers : (L, t); coef : (t, n, W^2), so powers @ coef gives every
    P_i(lam); z : (L, W, c).  Level by level, neighbouring maps multiply,
    later @ earlier, every pair of the batch in one product; on a level
    with an odd number of maps the earliest is applied to the state
    first.  That is ceil(log2 n) batched products in place of n, the
    up-sweep of a parallel prefix (Blelloch 1990).  The batch runs in
    chunks whose map stack (l, n, W, W) stays within _TREE_CHUNK bytes.
    """
    L, w = z.shape[:2]
    n = coef.shape[1]
    coef = coef.reshape(coef.shape[0], -1)
    size = max(1, _TREE_CHUNK // (8 * n * w * w))
    out = np.empty_like(z)
    for s in range(0, L, size):
        p = (powers[s: s + size] @ coef).reshape(-1, n, w, w)
        zc = z[s: s + size]
        while p.shape[1] > 1:
            if p.shape[1] % 2:
                zc, p = p[:, 0] @ zc, p[:, 1:]
            p = p[:, 1::2] @ p[:, 0::2]
        out[s: s + size] = p[:, 0] @ zc
    return out


def _rk4_sweep(steps, lams, y0, p0, store=False, per_map=False):
    """Integrate Y'' = (Q - lam) Y for a batch of lam values.

    steps : (n, 2m, (2k + 1) 2m) wide step maps [C_0 | ... | C_2k], each
    covering k cells, from :func:`_step_stack` (k = 1) or :func:`_compose`,
    or the same laid out as :class:`_SweepMaps`; lams : (L,); y0, p0 :
    (m, m) or (L, m, m).  Returns terminal (y, yp) or, with ``store``,
    full (n+1, L, m, m) arrays at every grid node, which needs per-cell
    maps (with ``per_map`` too: after every map, so every k-th node).
    The batch is carried as one (L, W, c) state z = (Y; Y').  Every
    P(lam) comes from one matrix product of the powers lam^j with the
    coefficients.  A stored sweep applies the maps one by one, each as
    one batched product.  A terminal sweep multiplies them out by
    :func:`_tree_product` where L W^3 <= _TREE_MAX; on a larger batch
    the tree's W^3 products per lam and map cost more than the loop's
    two NumPy calls per map, and it keeps the loop.  Complex maps or
    lams run in the real form (W = 4m, the state as (Re z; Im z));
    complex initial data under real maps and lams run as c = 2m real
    columns (Re z | Im z).  The arithmetic is always real, and so is the
    result when the steps, the lams and the initial data all have zero
    imaginary part.
    """
    maps = steps if isinstance(steps, _SweepMaps) else _SweepMaps(steps)
    m, n = maps.m, maps.n
    if store and not per_map and maps.terms != 3:
        raise ValueError("a stored sweep needs per-cell step maps; composed maps skip grid nodes")
    lams, y0, p0 = (_real_if_zero_imag(a) for a in (np.atleast_1d(lams), y0, p0))
    L = lams.shape[0]
    z = np.concatenate([np.broadcast_to(a, (L, m, m)) for a in (y0, p0)], axis=1)
    real_form = maps.is_complex or np.iscomplexobj(lams)
    split_cols = not real_form and np.iscomplexobj(z)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.vander(lams, maps.terms, increasing=True)
        if np.iscomplexobj(lams):
            powers, coef = np.concatenate([powers.real, powers.imag], axis=1), maps.paired
        else:
            coef = maps.real_forms if real_form else maps.real
        if real_form or split_cols:
            z = np.concatenate([z.real, z.imag], axis=1 if real_form else 2)
        z = z.astype(float, copy=False)
        w = z.shape[1]
        coef = coef.reshape(coef.shape[0], n, w * w)
        if not store and L * w**3 <= _TREE_MAX:
            z = _tree_product(powers, coef, z)
        else:
            if store:
                zs = np.empty((n + 1, *z.shape))
                zs[0] = z
            for i in range(n):
                z = np.matmul((powers @ coef[:, i]).reshape(L, w, w), z, out=zs[i + 1] if store else None)
    _finite(z)
    if store:
        z = zs
    if split_cols:
        z = z[..., :m] + 1j * z[..., m:]
    return _split(z, m)


def _split(z, m):
    """(Y, Y') of states z = (Y; Y') on axis -2; 4m rows there are the real form (Re z; Im z)."""
    if z.shape[-2] > 2 * m:
        z = z[..., :2 * m, :] + 1j * z[..., 2 * m:, :]
    return z[..., :m, :], z[..., m:, :]


def _finite(z):
    """Raise :class:`IntegrationOverflowError` where z holds a non-finite value."""
    if not np.all(np.isfinite(z)):
        raise IntegrationOverflowError(
            "non-finite values while integrating; |lam| too large for this grid"
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

    The RK4 step maps are built and laid out by the first sweep that
    needs them and reused by every later one.  Every sweep steps the
    k-cell products (``composed``); where ``s_path`` or ``s_gram`` needs
    every grid node, :meth:`_every_node` fills it from the cell maps.
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

    @cached_property
    def _composed_maps(self):
        return _SweepMaps(self.composed)

    @cached_property
    def _inner_maps(self):
        """Each span's first k - 1 cell maps by position, for real lams (past the grid: the last cell)."""
        n = self.steps.shape[0]
        cells = np.minimum(np.arange(_CELLS - 1)[:, None] + np.arange(0, n, _CELLS), n - 1)
        maps = _SweepMaps(self.steps[cells.ravel()])
        return (maps.real_forms if maps.is_complex else maps.real).reshape(3, _CELLS - 1, -1)

    def _every_node(self, lams):
        """States (S; S') at every grid node for real lams, (L, W, N, m); W = 4m: the real form (Re; Im).

        The stored sweep of :meth:`s_path` gives the states at the span
        starts, nodes 0, k, 2k, ...  Each steps through its span's first
        k - 1 cell maps, all spans and lams at once: per node position, one
        GEMM for a chunk of lams (maps within _BLOCK_CHUNK bytes) and one
        batched product.  Nodes past n lie in the padded tail.
        """
        m, n, k = self.m, self.steps.shape[0], _CELLS
        ys, ps = self.s_path(lams, k * self.h)
        rows = (ys.real, ps.real, ys.imag, ps.imag) if np.iscomplexobj(ys) else (ys, ps)
        spans, L, w = ys.shape[0] - 1, ys.shape[1], len(rows) * m
        nodes = np.empty((L, w, spans * k + 1, m))
        for i in range(len(rows)):
            nodes[:, i * m: (i + 1) * m, ::k] = rows[i].transpose(1, 2, 0, 3)
        del ys, ps, rows  # the stored sweep, freed before the fill
        coef = self._inner_maps
        powers = np.vander(np.atleast_1d(lams), 3, increasing=True)
        size = max(1, _BLOCK_CHUNK // (8 * coef.shape[2]))
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, L, size):
                for r in range(1, k):
                    p = (powers[s: s + size] @ coef[:, r - 1]).reshape(-1, spans, w, w)
                    z = nodes[s: s + size, :, r - 1: spans * k: k].swapaxes(1, 2)
                    np.matmul(p, z, out=nodes[s: s + size, :, r::k].swapaxes(1, 2))
        _finite(nodes[:, :, :n + 1])
        return nodes

    def s_terminal(self, lams):
        m = self.m
        return _rk4_sweep(self._composed_maps, lams, np.zeros((m, m)), np.eye(m))

    def sc_terminal(self, lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        L, m = lams.shape[0], self.m
        eye, zero = np.broadcast_to(np.eye(m), (L, m, m)), np.zeros((L, m, m))
        y, yp = _rk4_sweep(
            self._composed_maps, np.concatenate([lams, lams]),
            np.concatenate([zero, eye]), np.concatenate([eye, zero]),
        )
        return y[:L], yp[:L], y[L:], yp[L:]

    def s_path(self, lams, max_step):
        """S and S' at nodes of [0, pi], (nodes, L, m, m) each, for real lams.

        The nodes of the composed maps' stored sweep if they lie at most
        ``max_step`` apart, else every grid node (:meth:`_every_node`).
        """
        m, n = self.m, self.steps.shape[0]
        if _CELLS * self.h > max_step:
            return _split(self._every_node(lams)[:, :, :n + 1].transpose(2, 0, 1, 3), m)
        return _rk4_sweep(self._composed_maps, lams, np.zeros((m, m)), np.eye(m), store=True, per_map=True)

    def s_gram(self, lams):
        """S(pi), S'(pi) and G = int_0^pi S^dag S dx for real lams, from :meth:`_every_node`.

        With Y (N m, m) holding row i of node x at N i + x and the Simpson
        weights tiled alike (0 past node n), G = Y^dag W Y; in the real
        form Y = A + iB, G = A^T W A + B^T W B + i (A^T W B - B^T W A).
        """
        m, n = self.m, self.steps.shape[0]
        z = self._every_node(lams)
        wts = np.pad(_simpson_weights(n, self.h), (0, z.shape[2] - n - 1))
        a, *b = (z[:, i: i + m].reshape(z.shape[0], -1, m) for i in range(0, z.shape[1], 2 * m))
        wa, *wb = (np.multiply(y.swapaxes(1, 2), np.tile(wts, m), order="C") for y in (a, *b))
        gram = wa @ a
        if b:
            gram = gram + wb[0] @ b[0] + 1j * (wa @ b[0] - wb[0] @ a)
        return (*_split(z[:, :, n], m), gram)


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
# W at the two ends of an interval.  The same holds with both planes
# taken in the coordinates (kappa X, X'), kappa > 0 (Pryce 1993, the
# scaled Pruefer transform); the search builds W there, see _Frame.

_TWO_PI = 2.0 * np.pi
_PHASE_SLACK = 1e-6  # rounding allowance on a phase advance of zero (see _crossings)
_UNITARY_DEFECT = 1e-6
_PATH_STEP_MAX = 0.75 * np.pi  # largest summed eigenphase move per x step trusted


def _right_divide(a, c):
    """a c^{-1} for stacks of square matrices."""
    return np.linalg.solve(c.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _boundary_eig(problem: Problem):
    """V and h with H = V diag(h) V^dag, V (m, p) orthonormal on range T, and I - T."""
    basis = problem.projector.range_basis()
    h, r = np.linalg.eigh(basis.conj().T @ problem.boundary.matrix @ basis)
    return basis @ r, h, problem.projector.perp


def _boundary_image_inv(eig, kappa) -> np.ndarray:
    """U_b^{-1} = (T + iB)(T - iB)^{-1}, B = I - T + H / kappa, from :func:`_boundary_eig`.

    kappa > 0, one per lam, gives the boundary plane in the coordinates
    (kappa Y, Y').  Since H = THT, on range T the pair is I +- iH / kappa
    and on its complement +-iI, so U_b^{-1} = V diag((kappa + ih) /
    (kappa - ih)) V^dag - (I - T).
    """
    v, h, perp = eig
    kappa = np.asarray(kappa)[..., None]
    return (v * ((kappa + 1j * h) / (kappa - 1j * h))[..., None, :]) @ v.conj().T - perp


def _kappa(lams, qmax: float) -> np.ndarray:
    """kappa = sqrt(max(1, lam) + qmax), the scale of the coordinates (kappa Y, Y').

    Constant up to lam = 1, so there W turns only as lam moves it; above,
    kappa grows like rho = sqrt(lam).  A kappa that fell as lam rose, such
    as sqrt(|lam| + qmax) below 0, would turn the frozen eigenphases of
    the evanescent range backwards.
    """
    return np.sqrt(np.maximum(1.0, lams) + qmax)


def _plane_frame(y, yp, kappa):
    """X - iX' and X + iX' for an orthonormal basis (X, X') of the plane spanned by (kappa y, yp).

    kappa holds one scale per lam, the second-last axis of y and yp.
    U = (X - iX')(X + iX')^{-1} does not depend on the basis; an
    orthonormal one keeps X + iX' well conditioned (it is unitary) where
    the solution grows unevenly.
    """
    m = y.shape[-1]
    basis = np.linalg.qr(np.concatenate([kappa[:, None, None] * y, yp], axis=-2))[0]
    y, yp = basis[..., :m, :], basis[..., m:, :]
    return y - 1j * yp, y + 1j * yp


def _w_matrix(eig, kappa, minus, plus) -> np.ndarray:
    """W = U_b^{-1} U in the coordinates (kappa Y, Y'), from :func:`_plane_frame`'s pair."""
    return _boundary_image_inv(eig, kappa) @ _right_divide(minus, plus)


@dataclass(frozen=True)
class _Frame:
    """What the search needs to build W: qmax = max_x ||Q(x)||_2 and :func:`_boundary_eig`.

    W is built in the coordinates (kappa S, S'), kappa = :func:`_kappa`.
    The plane (S, S')(pi, lam) meets the boundary plane at the same lam
    in any coordinates, so eigenvalues and multiplicities do not depend
    on kappa; nor does an eigenphase at 0, so every crossing of 0 stays
    upward while kappa follows lam.  In these coordinates the eigenphases
    turn nearly uniformly in rho = sqrt(lam), which is what lets the scan
    step uniformly in rho.
    """

    qmax: float
    boundary: tuple

    @classmethod
    def of(cls, problem: Problem) -> "_Frame":
        # Q(x) is Hermitian: its 2-norm is its largest |eigenvalue|
        qmax = np.max(np.abs(np.linalg.eigvalsh(problem.potential.samples)))
        return cls(float(qmax), _boundary_eig(problem))


def _w_eigvals(frame: _Frame, lams, engine) -> np.ndarray:
    """Eigenvalues (L, m) of W at each lam, in the frame's coordinates."""
    lams = np.asarray(lams, dtype=float)
    kappa = _kappa(lams, frame.qmax)
    y, yp = engine.s_terminal(lams)
    return np.linalg.eigvals(_w_matrix(frame.boundary, kappa, *_plane_frame(y, yp, kappa)))


def _path_counts(frame: _Frame, lams, engine):
    """Net upward crossings of phase 0 by the eigenphases of W(x, lam), x in (0, pi].

    W(x, lam) is built from S(x, lam) as W is from S(pi, lam), in the
    same coordinates (kappa S, S') of ``frame``.  Its Dirichlet-channel eigenphases
    leave 0 upwards at x = 0 for every lam, so by homotopy in (x, lam)
    the count N of eigenvalues in (a, b] is P(b) - P(a); nothing aliases
    in lam.  No eigenphase turns faster than 2 max(kappa, |lam - Q| / kappa)
    <= 2 s per unit x, s = max(kappa, (|lam| + max |Q|) / kappa), and
    nodes pi / (4 m s) apart move the summed eigenphases by at most pi / 2
    per step.  Along one stored sweep, arg det W is followed continuously
    from node to node, exact while it moves by less than pi per step;
    every upward crossing of 0 puts 2 pi between that and the sum of the
    reduced eigenphases, which are needed only at the two ends.  The
    largest move per step is returned with the counts.
    """
    lams = np.asarray(lams, dtype=float)
    kappa = _kappa(lams, frame.qmax)
    speed = np.maximum(kappa, (np.abs(lams) + frame.qmax) / kappa)
    y, yp = engine.s_path(lams, np.pi / (4.0 * engine.m * np.max(speed)))
    minus, plus = _plane_frame(y[1:], yp[1:], kappa)
    # arg det W = arg det U_b^{-1} + arg det(X - iX') - arg det(X + iX')
    step = np.diff(np.angle(np.linalg.det(minus)) - np.angle(np.linalg.det(plus)), axis=0)
    step = np.mod(step + np.pi, _TWO_PI) - np.pi
    ends = _w_matrix(frame.boundary, kappa, minus[[0, -1]], plus[[0, -1]])
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


def _width_tol(lam) -> np.ndarray:
    """Bracket width at which a root counts as found: ``DEFAULT_TOL.root`` in rho units."""
    return DEFAULT_TOL.root * np.maximum(1.0, 2.0 * np.sqrt(np.abs(lam)))


def _unitary_defect(w) -> float:
    return float(np.max(np.abs(np.abs(w) - 1.0)))


def _scan_samples(problem: Problem, n_max: int, engine, frame: _Frame | None = None):
    """Scan samples, the eigenvalues of W there and the count N at each.

    W is built in the coordinates (kappa S, S') of ``frame`` (by default
    the problem's :class:`_Frame`), where its eigenphases turn nearly
    uniformly in rho = sqrt(lam).  With c = 1 / (4m), the samples are c
    apart in lam from a floor below the spectrum up to lam = 1, and c / 2
    apart in rho from rho = 1 up to top = n_max + 0.45.  Cells that
    advance arg det W by more than pi / 2 are halved
    (:func:`_halve_fast_cells`).  While the scan counts fewer than
    m n_max eigenvalues, its top doubles, up to
    sqrt((n_max + 0.45)^2 + max |eig Q| + |H|).  The count is then checked
    against one that cannot alias, and the cells that hide a whole
    eigenphase turn are halved (:func:`_halve_aliased_cells`).
    :func:`_scan_counts` raises unless W is unitary and every cell
    advances by less than pi.
    """
    frame = frame or _Frame.of(problem)
    hnorm = matnorm(problem.boundary.matrix)
    # a lower bound on the spectrum: max |Q(x)| over every sample, plus room for H
    lam_floor = -(frame.qmax + (1.0 + hnorm) ** 2 + 1.0)
    step = 0.25 / problem.m  # c, in lam; c / 2 in rho
    lams = np.arange(lam_floor, 1.0, step)
    top = n_max + 0.45
    bound = np.sqrt(top**2 + frame.qmax + hnorm)
    w = np.empty((0, problem.m), dtype=complex)
    rho, drho = 1.0, 0.5 * step
    while True:
        rhos = np.arange(rho, top + drho, drho)
        rho = rhos[-1] + drho
        lams = np.concatenate([lams, rhos**2])
        w = np.concatenate([w, _w_eigvals(frame, lams[w.shape[0]:], engine)])
        lams, w = _halve_fast_cells(lams, w, frame, engine)
        counts = _scan_counts(w)
        if counts[-1] >= problem.m * n_max or rhos[-1] >= bound:
            break
        top = min(2.0 * top, bound)
    lams, w = _halve_aliased_cells(frame, lams, w, engine)
    lams, w = _halve_fast_cells(lams, w, frame, engine)
    return lams, w, _scan_counts(w)


def _halve_fast_cells(lams, w, frame: _Frame, engine):
    """Halve every cell whose advance of arg det W exceeds pi / 2.

    One batched sweep over the new midpoints per round, until no cell is
    that fast or the fast ones are narrower than the refinement's bracket
    tolerance.  A W that is not unitary is left as it is, for
    :func:`_scan_counts` to refuse.
    """
    while _unitary_defect(w) <= _UNITARY_DEFECT:
        fast = _crossings(w[:-1], w[1:])[1] > 0.5 * np.pi
        fast = np.nonzero(fast & (np.diff(lams) > _width_tol(lams[1:])))[0]
        if not fast.size:
            break
        mid = 0.5 * (lams[fast] + lams[fast + 1])
        lams = np.insert(lams, fast + 1, mid)
        w = np.insert(w, fast + 1, _w_eigvals(frame, mid, engine), axis=0)
    return lams, w


def _halve_aliased_cells(frame: _Frame, lams, w, engine):
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
    path[[0, -1]], adv = _path_counts(frame, lams[[0, -1]], engine)
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
        narrow = np.diff(lams)[cell] <= _width_tol(lams[cell + 1])
        mid = 0.5 * (lams[cell] + lams[cell + 1])
        probed = np.concatenate([lams[probe], mid])
        new, adv = _path_counts(frame, probed, engine)
        if np.any(narrow) or np.any(adv >= _PATH_STEP_MAX):
            raise BracketExhaustionError(
                f"the scan counts {counts[-1]} eigenvalues up to lam = {lams[-1]:.6g}, a sweep in "
                f"x counts {int(path[-1] - path[0])}; an eigenphase of W turns by 2 pi within "
                f"a cell the scan cannot halve, at lam = {lams[a[0]]:.6g}"
            )
        path[probe] = new[: probe.size]
        if cell.size:
            lams = np.insert(lams, cell + 1, mid)
            w = np.insert(w, cell + 1, _w_eigvals(frame, mid, engine), axis=0)
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
    _traces=None,
) -> list[EigenRecord]:
    """Locate the first n_max bands of eigenvalues, with multiplicities.

    Eigenvalue r is bracketed by the scan cell where the count N first
    reaches r (see :func:`_scan_samples`).  Every refinement step
    integrates one proposal per open bracket in one batch, and the count
    at the proposal decides which end moves, so brackets stay valid.  A
    bracket holding one crossing takes an Illinois step on the signed
    phase nearest 0 of W in the scan's coordinates, in lam below lam = 1
    and in rho above, where that phase is nearly linear in rho; any other
    bracket takes the midpoint.  Roots within ``DEFAULT_TOL.mult_rel``
    (1 + |lam|) form one multiplet.  Exactly m eigenvalues per band are
    returned (counted with multiplicity), assigned to slots in
    nondecreasing order.  Raises
    :class:`BracketExhaustionError` when the scan counts fewer than
    m n_max eigenvalues, cannot halve a cell that hides an eigenvalue, or
    the problem is not self-adjoint.
    ``_traces`` is an engine already built for ``problem``, which
    :func:`spectral_data` passes so that its two halves share one.
    """
    eng = _traces or _make_engine(problem, engine)
    m = problem.m
    need = m * n_max
    frame = _Frame.of(problem)
    lams, w, counts = _scan_samples(problem, n_max, eng, frame)
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
    width_tol = _width_tol(hi)
    side = np.zeros(need, dtype=int)  # end moved last: +1 hi, -1 lo
    widths = [np.full(need, np.inf)] * 3  # bracket widths three, two and one steps back
    while np.any(open_ := (width := hi - lo) > width_tol):
        i = np.nonzero(open_)[0]
        mid = 0.5 * (lo[i] + hi[i])
        # Illinois only while it at least halves the bracket every three steps
        illinois = (nhi[i] - nlo[i] == 1) & (flo[i] <= 0.0) & (fhi[i] >= 0.0) & (fhi[i] > flo[i])
        illinois &= width[i] <= 0.5 * widths[0][i]
        # the secant runs in rho above lam = 1, where the phase of W is nearly linear in rho
        in_rho = lo[i] >= 1.0
        u_lo, u_hi = (np.where(in_rho, np.sqrt(np.abs(e[i])), e[i]) for e in (lo, hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            sec = u_lo - flo[i] * (u_hi - u_lo) / (fhi[i] - flo[i])
            p = np.where(illinois, np.where(in_rho, sec * sec, sec), mid)
        # half a tolerance clear of both ends, so a root at an end closes its bracket
        p = np.clip(p, lo[i] + 0.5 * width_tol[i], hi[i] - 0.5 * width_tol[i])
        uniq, inv = np.unique(p, return_inverse=True)
        wp = _w_eigvals(frame, uniq, eng)[inv]
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
    return _records(np.sort(0.5 * (lo + hi)), m)


def _records(roots, m: int) -> list[EigenRecord]:
    """Records of sorted roots, m slots per band; roots within the multiplet threshold form one."""
    records: list[EigenRecord] = []
    for run in multiplet_runs(roots):
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
        radius = min(DEFAULT_TOL.contour_radius, gap / 3.0)
    if gap is not None and gap < 2.0 * radius:
        raise ContourClashError(
            f"contour of radius {radius} around {lam0} reaches a neighbour at distance {gap}",
            suggested_radius=gap / 3.0,
        )
    eng = _make_engine(problem, engine)
    nq = DEFAULT_TOL.contour_points
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
    return _weighted_data(problem, eng, find_eigenvalues(problem, n_max, engine=engine, _traces=eng))


def _weighted_data(problem: Problem, eng, records) -> SpectralData:
    """Spectral data of ``records``, whole bands in slot order, weighted as in :func:`spectral_data`."""
    lam = np.repeat([rec.lam for rec in records], [rec.multiplicity for rec in records])
    distinct, which, mult = np.unique(lam, return_inverse=True, return_counts=True)
    y, yp, gram = eng.s_gram(distinct)
    vh = np.linalg.svd(_boundary_form_mats(problem, y, yp))[2]
    m = problem.m
    alphas = np.empty((distinct.size, m, m), dtype=complex)
    for k in np.unique(mult):
        i = mult == k
        ch = vh[i, -k:]
        c = ch.conj().swapaxes(-1, -2)
        alphas[i] = hermitian_part(c @ np.linalg.solve(ch @ gram[i] @ c, ch))
    return SpectralData.from_arrays(lam.reshape(-1, m), alphas[which].reshape(-1, m, m, m))
