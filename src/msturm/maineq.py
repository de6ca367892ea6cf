"""Grouped square roots, pair kernels and the truncated main linear system.

The inverse method rewrites the nonlinear reconstruction as a linear
relation psi_model(x) = psi(x) (I + R_model(x)) for the sequence of
fundamental-solution values S(x, lam) over both data sets (s = 0 for the
problem being recovered, s = 1 for the model).  The square roots of the
eigenvalues are partitioned into finite collections: one head collection
for the irregular low bands, then per-band half-integer and integer
clusters.  Unknowns are keyed by distinct square roots, which enforces
the tie rule of the sequence space structurally.

This module provides the grouping, the operator blocks built from the
pair kernels

    D(x, lam_a, lam_b) = int_0^x S(t, lam_a)^dag S(t, lam_b) dt,

and the solver of the truncated system used by the reconstruction
pipeline.  Everything is carried in the eigenbasis of the constant
comparison model C = U diag(c) U^dag, where every trace is diagonal,
S(x, lam) = U diag(s) U^dag with s_j = sin(sigma_j x)/sigma_j and
sigma_j = sqrt(lam - c_j), real for real lam.  A block U^dag B_r D U is
then the rotated row coefficient B~_r = U^dag B_r U with its columns
scaled by the diagonal kernel k_rt, and Lagrange's identity
(lam_a - lam_b) D = S_a^dag S_b' - S_a'^dag S_b gives k_rt from the
diagonals of each unknown; D is evaluated pair by pair only where lam_a
and lam_b nearly coincide.  I + R(x) and the solution are entire in x,
so the system is solved at nested Chebyshev-Lobatto nodes, doubled until
the Chebyshev tail of the node values falls below 1e-13, and carried to
the grid by barycentric interpolation; the residual at grid points
between the nodes guards the interpolant, and a grid no larger than the
next node set is solved node by node.  R'(x) has rank d, so one solve per
node with 2d right-hand-side columns gives S and S', in float64 for real
models; the grid values are rotated back to the original basis once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct

from ._closed import ConstantModel, pair_integral
from .core import (
    DEFAULT_TOL,
    DimensionError,
    GroupingError,
    GroupingInconsistencyError,
    MainEquationError,
    SpectralData,
    ToleranceConfig,
    _real_if_zero_imag,
)
from .model import CollapsedWeights

__all__ = [
    "Group",
    "PsiGrid",
    "XiDiagnostics",
    "build_groups",
    "solve_on_grid",
    "diagnostics_xi",
]


# ----------------------------------------------------------------------
# groups
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Group:
    """Finite collection of eigenvalue square roots sharing an asymptotic center.

    ``entries`` lists (n, k, s, rho) with s = 0 for problem data and
    s = 1 for model data; ``center`` is 0 for the head collection and the
    half-integer/integer cluster center otherwise.
    """

    index: int
    entries: tuple[tuple[int, int, int, float], ...]
    center: float

    def distinct_rhos(self) -> list[float]:
        seen: list[float] = []
        for _, _, _, rho in self.entries:
            if rho not in seen:
                seen.append(rho)
        return sorted(seen)


def _rho_grid(data: SpectralData) -> np.ndarray:
    lam = data.lambda_grid()
    if np.any(lam < -1e-12):
        raise GroupingError("negative eigenvalues present; shift the spectrum first")
    return np.sqrt(np.maximum(lam, 0.0))


def build_groups(
    data_l: SpectralData,
    data_m: SpectralData,
    p: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[Group]:
    """Partition all square roots from both data sets into collections.

    The head collection holds every band up to the smallest split index
    n0 >= 1 past which all square roots sit within 1/4 of their
    asymptotic centers (for both data sets); band n0 + j then contributes
    a half-integer cluster (slots k <= p) and an integer cluster.  Raises
    :class:`GroupingError` when no split index <= n_bands - 2 works.
    """
    if data_l.n_bands != data_m.n_bands:
        raise DimensionError("problem and model data must be truncated to the same bands")
    if data_l.m_slots != data_m.m_slots:
        raise DimensionError("problem and model data disagree on slots per band")
    nb = data_l.n_bands
    m_slots = data_l.m_slots
    rho = np.stack([_rho_grid(data_l), _rho_grid(data_m)])  # (2, nb, m)
    centers = np.empty(m_slots)

    def conforms(n: int) -> bool:
        centers[:p] = n - 0.5
        centers[p:] = float(n)
        return bool(np.all(np.abs(rho[:, n - 1, :] - centers) <= 0.25 + 1e-12))

    for n0 in range(1, nb - 1):
        if not all(conforms(n) for n in range(n0 + 1, nb + 1)):
            continue
        groups = _assemble_groups(rho, n0, nb, m_slots, p)
        seen: dict[float, int] = {}
        ok = True
        for g in groups:
            for r in g.distinct_rhos():
                if r in seen and seen[r] != g.index:
                    ok = False
                    break
                seen[r] = g.index
            if not ok:
                break
        if ok:
            return groups
    raise GroupingError(
        f"no split index <= {nb - 2} keeps the clusters disjoint; data too irregular"
    )


def _assemble_groups(rho, n0, nb, m_slots, p) -> list[Group]:
    groups = []
    head = []
    for n in range(1, n0 + 1):
        for k in range(1, m_slots + 1):
            for s in (0, 1):
                head.append((n, k, s, float(rho[s, n - 1, k - 1])))
    groups.append(Group(1, tuple(head), 0.0))
    gi = 2
    for j in range(1, nb - n0 + 1):
        n = n0 + j
        half = tuple(
            (n, k, s, float(rho[s, n - 1, k - 1])) for k in range(1, p + 1) for s in (0, 1)
        )
        intg = tuple(
            (n, k, s, float(rho[s, n - 1, k - 1]))
            for k in range(p + 1, m_slots + 1)
            for s in (0, 1)
        )
        # degenerate slot layouts (p = 0 or p = m) leave one cluster empty;
        # empty collections are dropped and the numbering stays sequential
        for entries, center in ((half, n - 0.5), (intg, float(n))):
            if entries:
                groups.append(Group(gi, entries, center))
                gi += 1
    return groups


# ----------------------------------------------------------------------
# assembly of the truncated system
# ----------------------------------------------------------------------

# kernel pairs with |lam_r - lam_t| < _NEAR_GAP (1 + sqrt(lam_r)) are not
# taken from Lagrange's identity: its quotient cancels there
_NEAR_GAP = 1e-2


def _diag_rows(s: np.ndarray) -> np.ndarray:
    """(n, K, d) eigenbasis diagonals -> (n, d, K d) row layout of [diag(s_1) ... diag(s_K)]."""
    n, K, d = s.shape
    return (np.eye(d)[None, :, None, :] * s[:, None]).reshape(n, d, K * d)


def _rotate(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """u a u^dag for a stack (..., d, d), as one flat product with u kron conj(u)."""
    d = u.shape[0]
    return (a.reshape(-1, d * d) @ np.kron(u, u.conj()).T).reshape(a.shape)


class MainAssembly:
    """Unknown indexing and pair bookkeeping for the truncated system.

    A pair (n, k) adds a0 D(x, lam_u0, .) to the operator row of its
    problem-side unknown u0 and subtracts a1 D(x, lam_u1, .) from the row
    of its model-side unknown u1.  Since the kernel row depends only on
    its unknown, the pairs are folded into one coefficient per row,

        B_u = sum_{u0 = u} a0 - sum_{u1 = u} a1,

    kept for every unknown in ``coef`` (zero on rows without pairs);
    ``rows`` lists the rows with pairs, ascending.  The groups and
    collapsed weights the assembly was built from stay attached, so the
    correction series and the decay diagnostics read the same objects.

    The blocks are built in the eigenbasis of the comparison model: the
    row coefficients are rotated once per model (B~_u = U^dag B_u U), and
    every block is B~_r with its columns scaled by a diagonal.
    """

    def __init__(
        self,
        groups: list[Group],
        weights_l: CollapsedWeights,
        weights_m: CollapsedWeights,
    ):
        self.groups, self.weights_l, self.weights_m = groups, weights_l, weights_m
        self.unknowns = [(g.index, rho) for g in groups for rho in g.distinct_rhos()]
        index = {rho: u for u, (_, rho) in enumerate(self.unknowns)}
        self.slot_index = {(n, k, s): index[rho] for g in groups for n, k, s, rho in g.entries}
        self.lams = np.asarray([rho for _, rho in self.unknowns]) ** 2
        self.group_of = np.asarray([gi for gi, _ in self.unknowns])

        pairs = list(dict.fromkeys((n, k) for g in groups for n, k, _, _ in g.entries))
        u = np.asarray([[self.slot_index.get((n, k, s), -1) for s in (0, 1)] for n, k in pairs])
        side_group = np.where(u >= 0, self.group_of[u], -1)  # -1: the side is missing
        bad = np.flatnonzero(side_group[:, 0] != side_group[:, 1])
        if bad.size:
            raise GroupingInconsistencyError(
                f"pair (n, k) = {pairs[bad[0]]} has its two sides in groups "
                f"{side_group[bad[0]].tolist()}"
            )
        a0 = np.asarray([weights_l.alpha_prime[key] for key in pairs], dtype=complex)
        a1 = np.asarray([weights_m.alpha_prime[key] for key in pairs], dtype=complex)
        # exactly cancelling and all-zero pairs contribute nothing
        keep = ~((u[:, 0] == u[:, 1]) & np.all(a0 == a1, axis=(1, 2)))
        keep &= np.any(a0, axis=(1, 2)) | np.any(a1, axis=(1, 2))
        self.dim = d = a0.shape[-1]
        self.pair_u0, self.pair_u1 = u[keep, 0], u[keep, 1]
        coef = np.zeros((self.n_unknowns, d, d), dtype=complex)
        np.add.at(coef, self.pair_u0, a0[keep])
        np.subtract.at(coef, self.pair_u1, a1[keep])
        self.coef = _real_if_zero_imag(coef)
        self.rows = np.unique(np.concatenate([self.pair_u0, self.pair_u1]))
        gap = self.lams[:, None] - self.lams
        near = np.abs(gap) < _NEAR_GAP * (1.0 + np.sqrt(self.lams))[:, None]
        # 1 / (lam_r - lam_t) along the d columns of each block, 0 on near pairs
        inv_gap = np.divide(1.0, gap, out=np.zeros_like(gap), where=~near)
        self._inv_gap = np.repeat(inv_gap, d, axis=1)[:, None, :]  # (K, 1, K d)
        self._near = np.nonzero(near & np.any(self.coef, axis=(1, 2))[:, None])
        self._basis: tuple | None = None    # (model, B~) for the last model
        self._traces_at: tuple | None = None  # (model, x, s, s') for the last nodes

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns)

    def _coef_in(self, model: ConstantModel) -> np.ndarray:
        """Row coefficients in the model eigenbasis, B~_u = U^dag B_u U, kept per model."""
        if self._basis is None or self._basis[0] is not model:
            self._basis = (model, _real_if_zero_imag(model.udag @ self.coef @ model.u))
        return self._basis[1]

    def _traces(self, model: ConstantModel, x: np.ndarray):
        """Eigenbasis traces (s, s') of every unknown at ``x``, each (Nx, K, d).

        The last evaluation is kept, so the blocks, the right-hand side and
        the derivative terms of one chunk of nodes share it.
        """
        last = self._traces_at
        if last is None or last[0] is not model or not np.array_equal(last[1], x):
            last = self._traces_at = (model, x.copy(), *model.traces(x, self.lams))
        return last[2], last[3]

    def w_blocks_from_model(self, model: ConstantModel, x) -> np.ndarray:
        """Operator blocks (Nx, K, K, d, d) in the model eigenbasis.

        The block of rows r and columns t is U^dag B_r D(x, lam_r, lam_t) U =
        B~_r diag(k_rt).  By Lagrange's identity
        (lam_r - lam_t) k_rt = s_r s'_t - s'_r s_t, so the blocks are one
        product of [B~_r diag(s_r), B~_r diag(s'_r)] with
        [diag(s'_t); -diag(s_t)], scaled by 1 / (lam_r - lam_t).  Where the
        gap is under 1e-2 (1 + sqrt(lam_r)), ties included, that quotient
        cancels and ``pair_integral`` gives k_rt instead.  The result is a
        view of the flat (Nx, K d, K d) product, which ``flatten`` returns
        uncopied.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s, sp = self._traces(model, x)
        b = self._coef_in(model)
        nx, K, d = s.shape
        left = np.concatenate([b * s[:, :, None, :], b * sp[:, :, None, :]], axis=-1)
        flat = left.reshape(nx, K * d, 2 * d) @ np.concatenate(
            [_diag_rows(sp), -_diag_rows(s)], axis=1
        )
        flat.reshape(nx, K, d, K * d)[...] *= self._inv_gap
        w = flat.reshape(nx, K, d, K, d).swapaxes(2, 3)
        r, t = self._near
        sig = model.sigma(self.lams)
        w[:, r, t] = b[r] * pair_integral(sig[r], sig[t], x[:, None, None]).real[:, :, None, :]
        return w

    def wprime_blocks_from_model(self, model: ConstantModel, x) -> np.ndarray:
        """d/dx of the operator blocks in the model eigenbasis, B~_r diag(s_r s_t).

        One product of B~_r diag(s_r) with [diag(s_1) ... diag(s_K)].
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s, _ = self._traces(model, x)
        nx, K, d = s.shape
        left = (self._coef_in(model) * s[:, :, None, :]).reshape(nx, K * d, d)
        return (left @ _diag_rows(s)).reshape(nx, K, d, K, d).swapaxes(2, 3)

    def flatten(self, w: np.ndarray) -> np.ndarray:
        """(..., A, B, d, d) block layout -> (..., A d, B d) matrices."""
        a, b, d = w.shape[-4], w.shape[-3], w.shape[-1]
        return np.ascontiguousarray(
            np.moveaxis(w, -3, -2).reshape(*w.shape[:-4], a * d, b * d)
        )


# ----------------------------------------------------------------------
# grid pipeline
# ----------------------------------------------------------------------

@dataclass
class PsiGrid:
    """Solved S(x, lam) and S'(x, lam) for every unknown of ``assembly``.

    The unknowns, their spectral values and the slot map are read from
    the assembly the system was built with.  ``collocation_nodes`` counts
    the points at which the truncated system was solved (the Chebyshev
    nodes, or every grid node on the full-grid route); ``cheb_tail`` is
    the relative Chebyshev tail the node doubling stopped at (NaN when no
    Chebyshev nodes were solved).  ``values`` and ``derivs`` are in the
    original basis; the solver also keeps them in the eigenbasis of the
    model it solved against, where the correction series reads them.
    """

    x: np.ndarray
    values: np.ndarray                 # (Nx, K, d, d)
    derivs: np.ndarray                 # (Nx, K, d, d)
    assembly: MainAssembly = field(repr=False)
    residual_max: float
    collocation_nodes: int = 0
    cheb_tail: float = float("nan")
    _eigen: list | None = field(default=None, repr=False, compare=False)

    @property
    def lams(self) -> np.ndarray:
        return self.assembly.lams

    @property
    def slot_index(self) -> dict[tuple[int, int, int], int]:
        return self.assembly.slot_index

    def slot_values(self, n: int, k: int, s: int) -> np.ndarray:
        return self.values[:, self.slot_index[(n, k, s)]]


# Chebyshev-Lobatto collocation: first M (M + 1 nodes), the relative size of
# the coefficient tail that stops the doubling, and the off-node probes
_CHEB_START = 16
_CHEB_TAIL = 1e-13
_OFF_NODE_PROBES = 8


def _flat(a: np.ndarray) -> np.ndarray:
    """(n, K, d, d) solved blocks -> (n, d, K d) row layout of the system."""
    return a.transpose(0, 2, 1, 3).reshape(a.shape[0], a.shape[2], -1)


def _rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest per-node ||lhs - rhs|| / ||rhs|| over (n, d, K d) stacks."""
    resid = np.linalg.norm(lhs - rhs, axis=(1, 2))
    return float(np.max(resid / np.maximum(np.linalg.norm(rhs, axis=(1, 2)), 1e-300)))


def _identity_plus_r(asm: MainAssembly, model: ConstantModel, xs: np.ndarray) -> np.ndarray:
    big = asm.flatten(asm.w_blocks_from_model(model, xs))
    idx = np.arange(big.shape[-1])
    big[:, idx, idx] += 1.0
    return big


def _solve_nodes(asm: MainAssembly, model: ConstantModel, xs: np.ndarray):
    """Solve the truncated system at the nodes ``xs`` (batched), in the model eigenbasis.

    There psi = [diag(s_1) ... diag(s_K)] and R' = A psi has rank d
    (A_r = B~_r diag(s_r)), so the differentiated system
    phi' (I + R) + phi R' = psi' gives phi' = psi' (I + R)^{-1} - (phi A) phi,
    phi = psi (I + R)^{-1}.  Each chunk of nodes evaluates the traces once
    and is one LAPACK solve with [psi, psi'] (2d columns) as its
    right-hand side, in float64 when the model and the coefficients are
    real.  Returns ``[values, derivs]`` in the eigenbasis and the largest
    relative residual of the values system.
    """
    K, d = asm.n_unknowns, asm.dim
    coef = asm._coef_in(model)
    chunk = max(8, min(256, int(4e7 / max((K * d) ** 2, 1))))
    parts = [np.empty((xs.size, K, d, d), dtype=coef.dtype) for _ in range(2)]
    resid_max = 0.0
    for lo in range(0, xs.size, chunk):
        sl = slice(lo, min(lo + chunk, xs.size))
        big = _identity_plus_r(asm, model, xs[sl])
        s, sp = asm._traces(model, xs[sl])              # (nc, K, d), shared with the blocks
        psi = _diag_rows(s)
        rhs = np.concatenate([psi, _diag_rows(sp)], axis=1).astype(big.dtype, copy=False)
        try:
            sol_t = np.linalg.solve(big.transpose(0, 2, 1), rhs.transpose(0, 2, 1))
        except np.linalg.LinAlgError as exc:
            raise MainEquationError(f"factorisation failed in nodes {sl}: {exc}") from exc
        sol = sol_t.reshape(-1, K, d, 2 * d).swapaxes(-1, -2)  # (nc, K, 2d, d)
        vals, flat = sol[:, :, :d], _flat(sol[:, :, :d])
        phi_a = flat @ (coef * s[:, :, None, :]).reshape(-1, K * d, d)
        parts[0][sl] = vals
        parts[1][sl] = sol[:, :, d:] - phi_a[:, None] @ vals
        resid_max = max(resid_max, _rel_residual(flat @ big, psi))
    return parts, resid_max


def _lobatto_nodes(a: float, b: float, m: int) -> np.ndarray:
    """The m + 1 Chebyshev-Lobatto points of [a, b], from b down to a."""
    nodes = a + 0.5 * (b - a) * (1.0 + np.cos(np.pi * np.arange(m + 1) / m))
    nodes[0], nodes[-1] = b, a
    return nodes


def _cheb_tail(values: np.ndarray) -> float:
    """Top eighth of the Chebyshev coefficients of Lobatto node values, relative.

    The coefficients come from a DCT-I along the node axis; the result is
    the largest of the top eighth over the largest of all.
    """
    m = values.shape[0] - 1
    c = np.abs(dct(values.reshape(m + 1, -1).view(float), type=1, axis=0))
    c[[0, m]] *= 0.5
    return float(np.max(c[m - m // 8:]) / max(np.max(c), 1e-300))


def _lobatto_interp(nodes: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of node values ``v`` (node axis first, real or complex) to ``x``."""
    w = (-1.0) ** np.arange(nodes.size)
    w[[0, -1]] *= 0.5
    diff = x[:, None] - nodes
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        c = w / diff
    on_node = np.any(hit, axis=1)
    c[on_node] = hit[on_node]
    c /= np.sum(c, axis=1, keepdims=True)
    # real weights act on the real and imaginary parts in one real product
    return (c @ v.reshape(nodes.size, -1).view(float)).view(v.dtype).reshape(x.shape + v.shape[1:])


def solve_on_grid(
    groups: list[Group],
    weights_l: CollapsedWeights,
    weights_m: CollapsedWeights,
    model: ConstantModel,
    x,
    *,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PsiGrid:
    """Solve the truncated system on the grid ``x`` by Chebyshev collocation.

    The system is solved at the M + 1 Chebyshev-Lobatto nodes of
    [min x, max x] and the values and derivatives are interpolated to
    ``x`` (barycentric formula).  M starts at 16 and doubles, each step
    solving only the M new nodes, until the top eighth of the Chebyshev
    coefficients of the node values (a DCT-I) is at most 1e-13 of the
    largest.  If the doubled node set would be as large as the grid, every
    grid node is solved instead.  The interpolated values and derivatives
    are then substituted into the system at 8 grid points
    between the nodes.  ``residual_max``, the largest relative residual at
    the nodes and at those points, raises :class:`MainEquationError` above
    ``tol.solve_rel``.  The system is solved in the eigenbasis of
    ``model``; the grid values are rotated back to the original basis once.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    asm = MainAssembly(groups, weights_l, weights_m)
    a, b = float(np.min(x)), float(np.max(x))
    m, tail, parts = _CHEB_START, float("nan"), None
    while m + 1 < x.size:
        nodes = _lobatto_nodes(a, b, m)
        if parts is None:
            parts, resid_max = _solve_nodes(asm, model, nodes)
        else:
            new, resid = _solve_nodes(asm, model, nodes[1::2])
            resid_max = max(resid_max, resid)
            # the new nodes sit between the old ones
            gaps = np.arange(1, m // 2 + 1)
            parts = [np.insert(old, gaps, nw, axis=0) for old, nw in zip(parts, new)]
        tail = _cheb_tail(parts[0])
        if tail <= _CHEB_TAIL:
            parts = [_lobatto_interp(nodes, x, v) for v in parts]
            probes = np.rint(np.linspace(0, x.size - 1, _OFF_NODE_PROBES + 2)[1:-1]).astype(int)
            off = _off_node_residual(asm, model, x[probes], [v[probes] for v in parts])
            resid_max = max(resid_max, off)
            break
        m *= 2
    else:  # the next node set would be as large as the grid
        nodes = x
        parts, resid_max = _solve_nodes(asm, model, x)
    if resid_max > tol.solve_rel:
        raise MainEquationError(
            f"max relative residual {resid_max:.3e} above {tol.solve_rel}"
        )
    values, derivs = (_rotate(model.u, v) for v in parts)
    return PsiGrid(x, values, derivs, asm, resid_max, nodes.size, tail, parts)


def _off_node_residual(asm: MainAssembly, model: ConstantModel, xs: np.ndarray, parts) -> float:
    """Largest relative residual of interpolated eigenbasis values and derivatives at ``xs``."""
    big = _identity_plus_r(asm, model, xs)
    s, sp = asm._traces(model, xs)
    resid = _rel_residual(_flat(parts[0]) @ big, _diag_rows(s))
    wp = asm.flatten(asm.wprime_blocks_from_model(model, xs))
    lhs = _flat(parts[1]) @ big + _flat(parts[0]) @ wp
    return max(resid, _rel_residual(lhs, _diag_rows(sp)))


# ----------------------------------------------------------------------
# decay diagnostics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class XiDiagnostics:
    """Per-group data/model discrepancy weights and their l2 aggregate."""

    xi: np.ndarray
    lam: float
    groups: list[Group]


def diagnostics_xi(
    asm: MainAssembly,
    z: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> XiDiagnostics:
    """Group discrepancy weights xi_k and Lambda = sqrt(sum (k xi_k)^2).

    Reads the groups, both collapsed weights and p from the assembly of
    the main system; ``z`` holds the drift coefficients of the problem
    data (one per slot).  Each collection is partitioned by the drift
    equality classes; xi_k sums the per-pair square-root gaps inside each
    sub-collection plus the scaled collapsed-weight discrepancies of the
    sub-collections and of the whole collection.
    """
    from .model import _class_partition

    wl, wm, groups, dim = asm.weights_l, asm.weights_m, asm.groups, asm.dim
    z = np.asarray(z, dtype=float)
    cls_of = np.empty(z.size, dtype=int)
    for ci, cls in enumerate(_class_partition(z, wl.p, tol.z_group)):
        cls_of[cls] = ci

    xi = np.zeros(len(groups))
    for g in groups:
        pairs = sorted({(n, k) for n, k, _, _ in g.entries})
        rho = {(n, k, s): r for n, k, s, r in g.entries}
        if g.index == 1:
            parts = [pairs]
        else:
            parts = {}
            for n, k in pairs:
                parts.setdefault(cls_of[k - 1], []).append((n, k))
            parts = list(parts.values())
        total = 0.0
        asum = np.zeros((dim, dim), complex)
        amsum = np.zeros((dim, dim), complex)
        for part in parts:
            psum = np.zeros((dim, dim), complex)
            pmsum = np.zeros((dim, dim), complex)
            for n, k in part:
                total += abs(rho[(n, k, 0)] - rho[(n, k, 1)])
                psum = psum + wl.alpha_prime[(n, k)]
                pmsum = pmsum + wm.alpha_prime[(n, k)]
            total += np.linalg.norm(psum - pmsum, 2) / g.index**3
            asum = asum + psum
            amsum = amsum + pmsum
        total += np.linalg.norm(asum - amsum, 2) / g.index**2
        xi[g.index - 1] = total
    ks = np.arange(1, len(groups) + 1)
    lam_val = float(np.sqrt(np.sum((ks * xi) ** 2)))
    return XiDiagnostics(xi, lam_val, groups)
