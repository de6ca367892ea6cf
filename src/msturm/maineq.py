"""Grouped square roots, pair kernels and the truncated main linear system.

The inverse method rewrites the nonlinear reconstruction as a linear
relation psi_model(x) = psi(x) (I + R_model(x)) for the sequence of
fundamental-solution values S(x, lam) over both data sets (s = 0 for the
problem being recovered, s = 1 for the model).  The square roots of the
eigenvalues are partitioned into finite collections: one head collection
for the irregular low bands, then per-band half-integer and integer
clusters.  Unknowns are keyed by distinct square roots, which enforces
the tie rule of the sequence space structurally.

This module provides the grouping, the kernel tables

    D(x, lam_a, lam_b) = int_0^x S(t, lam_a)^dag S(t, lam_b) dt,

the assembled truncated operator at a single grid node (test surface)
and the batched solver over the whole grid used by the reconstruction
pipeline, including the term-wise differentiated system that yields
S'(x, lam) from the same factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson

from ._closed import ConstantModel
from .core import (
    DEFAULT_TOL,
    DimensionError,
    GroupingError,
    GroupingInconsistencyError,
    MainEquationError,
    SpectralData,
    ToleranceConfig,
)
from .model import CollapsedWeights

__all__ = [
    "Group",
    "GroupFunction",
    "KernelTable",
    "TruncatedMainEquation",
    "PsiGrid",
    "XiDiagnostics",
    "build_groups",
    "assemble",
    "solve_main",
    "solve_on_grid",
    "diagnostics_xi",
    "operator_identity_defect",
    "operator_matrix",
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


@dataclass
class GroupFunction:
    """Matrix-valued function on a group, constant on tied square roots."""

    group: Group
    values: dict[float, np.ndarray]

    def __call__(self, rho: float) -> np.ndarray:
        return self.values[rho]

    def norm(self) -> float:
        """max of the sup norm and the sup difference quotient."""
        rhos = list(self.values.keys())
        vals = [self.values[r] for r in rhos]
        out = max(float(np.linalg.norm(v, 2)) for v in vals)
        for i in range(len(rhos)):
            for j in range(i + 1, len(rhos)):
                gap = abs(rhos[i] - rhos[j])
                if gap > 0:
                    out = max(out, float(np.linalg.norm(vals[i] - vals[j], 2)) / gap)
        return out


def b_norm(funcs: list[GroupFunction]) -> float:
    """Weighted sup norm over groups: sup_n (n * ||f_n||)."""
    return max(gf.group.index * gf.norm() for gf in funcs)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    # scipy's cumulative_simpson casts complex input to real; split the parts
    if np.iscomplexobj(y):
        return cumulative_simpson(y.real, x=x, axis=axis, initial=0.0) + 1j * cumulative_simpson(
            y.imag, x=x, axis=axis, initial=0.0
        )
    return cumulative_simpson(y, x=x, axis=axis, initial=0.0)


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
# kernel tables
# ----------------------------------------------------------------------

@dataclass
class KernelTable:
    """Pair kernels D(x, lam_a, lam_b) tabulated on x nodes.

    ``table[ix, a, b]`` holds D(x_ix, lams[a], lams[b]); ``s_values`` and
    ``sp_values`` keep the traces the kernels were built from (needed for
    the right-hand side of the assembled system).
    """

    x: np.ndarray
    lams: np.ndarray
    table: np.ndarray
    s_values: np.ndarray | None = None
    sp_values: np.ndarray | None = None

    @classmethod
    def from_model(cls, model: ConstantModel, x, lams) -> "KernelTable":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lams = np.asarray(lams, dtype=float)
        table = model.d_kernel(x, lams, lams)
        return cls(x, lams, table, model.s(x, lams), model.sp(x, lams))

    @classmethod
    def from_traces(cls, x, lams, s_values, sp_values=None) -> "KernelTable":
        """Cumulative Simpson quadrature of S^dag(t, a) S(t, b) on the grid."""
        x = np.asarray(x, dtype=float)
        s = np.asarray(s_values)
        integrand = np.einsum("xaji,xbjk->xabik", s.conj(), s, optimize=True)
        table = _cumulative_simpson(integrand, x)
        return cls(x, np.asarray(lams, dtype=float), table, s, sp_values)

    def index_of(self, lam: float) -> int:
        i = int(np.argmin(np.abs(self.lams - lam)))
        if abs(self.lams[i] - lam) > 1e-9 * (1.0 + abs(lam)):
            raise KeyError(f"kernel table does not cover lam = {lam}")
        return i

    def x_index(self, x: float) -> int:
        i = int(np.argmin(np.abs(self.x - x)))
        if abs(self.x[i] - x) > 1e-9:
            raise KeyError(f"kernel table does not cover x = {x}")
        return i

    def symmetry_defect(self) -> float:
        swapped = self.table.conj().transpose(0, 2, 1, 4, 3)
        return float(np.max(np.abs(self.table - swapped)))


# ----------------------------------------------------------------------
# assembly shared by the single-node surface and the grid pipeline
# ----------------------------------------------------------------------

class MainAssembly:
    """Unknown indexing and pair bookkeeping for the truncated system.

    A pair (n, k) adds a0 D(x, lam_u0, .) to the operator row of its
    problem-side unknown u0 and subtracts a1 D(x, lam_u1, .) from the row
    of its model-side unknown u1.  Since the kernel row depends only on
    its unknown, the pairs are folded into one coefficient per row,

        B_u = sum_{u0 = u} a0 - sum_{u1 = u} a1,

    kept for the rows that carry pairs (``rows``, ascending) in
    ``row_coef``; every block assembler is one contraction of those
    coefficients with the kernel rows.
    """

    def __init__(
        self,
        groups: list[Group],
        weights_l: CollapsedWeights,
        weights_m: CollapsedWeights,
    ):
        self.groups = groups
        self.unknowns: list[tuple[int, float]] = []
        self.index: dict[float, int] = {}
        self.slot_index: dict[tuple[int, int, int], int] = {}
        for g in groups:
            for rho in g.distinct_rhos():
                self.index[rho] = len(self.unknowns)
                self.unknowns.append((g.index, rho))
        for g in groups:
            for n, k, s, rho in g.entries:
                self.slot_index[(n, k, s)] = self.index[rho]
        self.rhos = np.asarray([rho for _, rho in self.unknowns])
        self.lams = self.rhos**2
        self.group_of = np.asarray([gi for gi, _ in self.unknowns])

        pair_u0, pair_u1, pair_a0, pair_a1 = [], [], [], []
        slot_groups: dict[tuple[int, int], tuple[int, int]] = {}
        for g in groups:
            for n, k, s, _ in g.entries:
                key = (n, k)
                prev = slot_groups.get(key)
                if prev is not None and prev[s] is not None and prev[s] != g.index:
                    raise GroupingInconsistencyError(
                        f"pair (n, k) = {key} straddles groups {prev[s]} and {g.index}"
                    )
                cur = list(prev) if prev else [None, None]
                cur[s] = g.index
                slot_groups[key] = tuple(cur)
        for key, (g0, g1) in sorted(slot_groups.items()):
            if g0 != g1:
                raise GroupingInconsistencyError(
                    f"pair (n, k) = {key} has its two sides in groups {g0} and {g1}"
                )
        seen_pairs = set()
        for g in groups:
            for n, k, _, _ in g.entries:
                if (n, k) in seen_pairs:
                    continue
                seen_pairs.add((n, k))
                u0 = self.slot_index[(n, k, 0)]
                u1 = self.slot_index[(n, k, 1)]
                a0 = weights_l.alpha_prime[(n, k)]
                a1 = weights_m.alpha_prime[(n, k)]
                if u0 == u1 and np.array_equal(a0, a1):
                    continue  # exactly cancelling contribution
                if not np.any(a0) and not np.any(a1):
                    continue
                pair_u0.append(u0)
                pair_u1.append(u1)
                pair_a0.append(a0)
                pair_a1.append(a1)
        self.dim = d = weights_l.alpha_prime[next(iter(weights_l.alpha_prime))].shape[0]
        self.pair_u0 = np.asarray(pair_u0, dtype=int)
        self.pair_u1 = np.asarray(pair_u1, dtype=int)
        coef = np.zeros((self.n_unknowns, d, d), dtype=complex)
        np.add.at(coef, self.pair_u0, np.asarray(pair_a0, dtype=complex).reshape(-1, d, d))
        np.subtract.at(coef, self.pair_u1, np.asarray(pair_a1, dtype=complex).reshape(-1, d, d))
        self.rows = np.unique(np.concatenate([self.pair_u0, self.pair_u1]))
        self.row_coef = coef[self.rows]

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns)

    def _scatter(self, row_blocks: np.ndarray) -> np.ndarray:
        """(..., R, K, d, d) blocks of ``rows`` -> (..., K, K, d, d), zero elsewhere."""
        w = np.zeros(
            row_blocks.shape[:-4] + (self.n_unknowns,) + row_blocks.shape[-3:], dtype=complex
        )
        w[..., self.rows, :, :, :] = row_blocks
        return w

    def w_blocks_from_model(self, model: ConstantModel, x) -> np.ndarray:
        """Operator blocks (Nx, K, K, d, d) from closed-form kernels."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        fd = model.d_kernel_diag(x, self.lams[self.rows], self.lams)  # (Nx, R, K, dm)
        return self._scatter(
            np.einsum(
                "rij,xrtj,jk->xrtik", self.row_coef @ model.u, fd, model.udag, optimize=True
            )
        )

    def wprime_blocks_from_model(self, model: ConstantModel, x) -> np.ndarray:
        """d/dx of the operator blocks: kernel derivative is S^dag(a) S(b)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ss = model.s_diag(x, self.lams[self.rows])  # (Nx, R, dm)
        sa = model.s_diag(x, self.lams)             # (Nx, K, dm)
        return self._scatter(
            np.einsum(
                "rij,xrj,xtj,jk->xrtik",
                self.row_coef @ model.u, ss, sa, model.udag, optimize=True,
            )
        )

    def w_blocks_from_table(self, kernels: KernelTable, ix: int) -> np.ndarray:
        """Operator blocks (K, K, d, d) at one tabulated node."""
        row = [kernels.index_of(lam) for lam in self.lams[self.rows]]
        col = [kernels.index_of(lam) for lam in self.lams]
        rows_table = kernels.table[ix][np.ix_(row, col)]  # (R, K, d, d)
        return self._scatter(np.einsum("rij,rtjk->rtik", self.row_coef, rows_table))

    def flatten(self, w: np.ndarray) -> np.ndarray:
        """(..., A, B, d, d) block layout -> (..., A d, B d) matrices."""
        a, b, d = w.shape[-4], w.shape[-3], w.shape[-1]
        return np.ascontiguousarray(
            np.moveaxis(w, -3, -2).reshape(*w.shape[:-4], a * d, b * d)
        )


# ----------------------------------------------------------------------
# single-node surface
# ----------------------------------------------------------------------

@dataclass
class TruncatedMainEquation:
    """Dense representation of psi (I + R_model(x)) = psi_model at one x."""

    x: float
    groups: list[Group]
    unknowns: list[tuple[int, float]]
    matrix: np.ndarray                       # (K d, K d), identity included
    blocks: dict[tuple[int, int], np.ndarray]
    rhs: list[GroupFunction]
    truncation: int
    assembly: MainAssembly = field(repr=False, default=None)


def assemble(
    x: float,
    groups: list[Group],
    weights_l: CollapsedWeights,
    weights_m: CollapsedWeights,
    kernels: KernelTable,
) -> TruncatedMainEquation:
    """Assemble the truncated system at one tabulated grid node.

    The kernel table must cover every grouped spectral value; its traces
    provide the right-hand side values S_model(x, rho^2).
    """
    asm = MainAssembly(groups, weights_l, weights_m)
    ix = kernels.x_index(x)
    w = asm.w_blocks_from_table(kernels, ix)
    K, d = asm.n_unknowns, asm.dim
    mat = asm.flatten(w) + np.eye(K * d)
    if kernels.s_values is None:
        raise DimensionError("kernel table carries no traces for the right-hand side")
    rhs = []
    for g in groups:
        vals = {}
        for rho in g.distinct_rhos():
            vals[rho] = kernels.s_values[ix, kernels.index_of(rho * rho)]
        rhs.append(GroupFunction(g, vals))
    blocks: dict[tuple[int, int], np.ndarray] = {}
    starts = {}
    for u, (gi, _) in enumerate(asm.unknowns):
        starts.setdefault(gi, u)
    counts = {gi: sum(1 for g2, _ in asm.unknowns if g2 == gi) for gi, _ in asm.unknowns}
    for gk in counts:
        for gn in counts:
            sub = w[
                starts[gk]: starts[gk] + counts[gk],
                starts[gn]: starts[gn] + counts[gn],
            ]
            if np.any(sub):
                blocks[(gk, gn)] = asm.flatten(sub)
    return TruncatedMainEquation(
        float(kernels.x[ix]), groups, asm.unknowns, mat, blocks, rhs, len(groups), asm
    )


def solve_main(
    eq: TruncatedMainEquation,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[GroupFunction]:
    """Solve the assembled system for all S(x, rho^2) values.

    The unknown row block acts by right multiplication, so the dense
    factorisation runs on the transposed matrix.  The relative residual
    in the weighted group norm must stay below ``tol.solve_rel``.
    """
    asm = eq.assembly
    K, d = asm.n_unknowns, asm.dim
    rhs_vals = np.stack(
        [eq.rhs[_group_pos(eq.groups, gi)].values[rho] for gi, rho in eq.unknowns]
    )
    rhs_t = rhs_vals.transpose(0, 2, 1).reshape(K * d, d)
    try:
        sol_t = np.linalg.solve(eq.matrix.T, rhs_t)
    except np.linalg.LinAlgError as exc:
        raise MainEquationError(
            f"factorisation failed at x = {eq.x}: {exc}",
            condition=float(np.linalg.cond(eq.matrix)),
        ) from exc
    values = sol_t.reshape(K, d, d).transpose(0, 2, 1)
    out = []
    for g in eq.groups:
        vals = {rho: values[asm.index[rho]] for rho in g.distinct_rhos()}
        out.append(GroupFunction(g, vals))
    flat = values.transpose(1, 0, 2).reshape(d, K * d)
    resid_flat = flat @ eq.matrix - rhs_vals.transpose(1, 0, 2).reshape(d, K * d)
    resid_vals = resid_flat.reshape(d, K, d).transpose(1, 0, 2)
    resid_funcs = [
        GroupFunction(g, {rho: resid_vals[asm.index[rho]] for rho in g.distinct_rhos()})
        for g in eq.groups
    ]
    rhs_norm = b_norm(eq.rhs)
    if rhs_norm > 0 and b_norm(resid_funcs) > tol.solve_rel * rhs_norm:
        raise MainEquationError(
            f"residual {b_norm(resid_funcs):.3e} above tolerance at x = {eq.x}",
            condition=float(np.linalg.cond(eq.matrix)),
        )
    return out


def _group_pos(groups: list[Group], gi: int) -> int:
    for i, g in enumerate(groups):
        if g.index == gi:
            return i
    raise KeyError(gi)


# ----------------------------------------------------------------------
# grid pipeline
# ----------------------------------------------------------------------

@dataclass
class PsiGrid:
    """Solved S(x, lam) (and derivatives) for every grouped spectral value."""

    x: np.ndarray
    rhos: np.ndarray
    lams: np.ndarray
    values: np.ndarray                 # (Nx, K, d, d)
    derivs: np.ndarray | None          # (Nx, K, d, d)
    slot_index: dict[tuple[int, int, int], int]
    groups: list[Group]
    residual_max: float
    assembly: MainAssembly = field(repr=False, default=None)

    def slot_values(self, n: int, k: int, s: int) -> np.ndarray:
        return self.values[:, self.slot_index[(n, k, s)]]


def solve_on_grid(
    groups: list[Group],
    weights_l: CollapsedWeights,
    weights_m: CollapsedWeights,
    model: ConstantModel,
    x,
    *,
    tol: ToleranceConfig = DEFAULT_TOL,
    with_derivatives: bool = True,
    chunk: int | None = None,
) -> PsiGrid:
    """Solve the truncated system at every grid node (batched).

    Per-node systems are independent; nodes are processed in chunks with
    one LAPACK factorisation per node.  With ``with_derivatives`` the
    term-wise differentiated system (same matrix, new right-hand side) is
    solved as well, yielding S'(x, lam) without finite differences.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    asm = MainAssembly(groups, weights_l, weights_m)
    K, d = asm.n_unknowns, asm.dim
    if chunk is None:
        chunk = max(8, min(256, int(4e7 / max((K * d) ** 2, 1))))
    values = np.empty((x.size, K, d, d), dtype=complex)
    derivs = np.empty_like(values) if with_derivatives else None
    resid_max = 0.0
    for lo in range(0, x.size, chunk):
        sl = slice(lo, min(lo + chunk, x.size))
        xs = x[sl]
        big = asm.flatten(asm.w_blocks_from_model(model, xs))
        idx = np.arange(K * d)
        big[:, idx, idx] += 1.0
        psi = model.s(xs, asm.lams)                      # (nc, K, d, d)
        rhs_t = psi.transpose(0, 1, 3, 2).reshape(-1, K * d, d)
        big_t = big.transpose(0, 2, 1)
        try:
            sol_t = np.linalg.solve(big_t, rhs_t)
        except np.linalg.LinAlgError as exc:
            raise MainEquationError(f"factorisation failed in nodes {sl}: {exc}") from exc
        vals = sol_t.reshape(-1, K, d, d).transpose(0, 1, 3, 2)
        values[sl] = vals
        flat = vals.transpose(0, 2, 1, 3).reshape(-1, d, K * d)
        psi_flat = psi.transpose(0, 2, 1, 3).reshape(-1, d, K * d)
        resid = np.linalg.norm((flat @ big - psi_flat), axis=(1, 2))
        scale = np.linalg.norm(psi_flat, axis=(1, 2))
        resid_max = max(resid_max, float(np.max(resid / np.maximum(scale, 1e-300))))
        if with_derivatives:
            psip = model.sp(xs, asm.lams)
            wp = asm.flatten(asm.wprime_blocks_from_model(model, xs))
            rhsp_flat = psip.transpose(0, 2, 1, 3).reshape(-1, d, K * d) - flat @ wp
            rhsp_t = rhsp_flat.reshape(-1, d, K, d).transpose(0, 2, 3, 1).reshape(-1, K * d, d)
            solp_t = np.linalg.solve(big_t, rhsp_t)
            derivs[sl] = solp_t.reshape(-1, K, d, d).transpose(0, 1, 3, 2)
    if resid_max > tol.solve_rel:
        raise MainEquationError(
            f"max relative residual {resid_max:.3e} above {tol.solve_rel}"
        )
    return PsiGrid(
        x, asm.rhos, asm.lams, values, derivs, dict(asm.slot_index), groups, resid_max, asm
    )


def operator_matrix(
    assembly: MainAssembly, model: ConstantModel, x: float
) -> np.ndarray:
    """Flattened model-side operator R(x) (identity not included)."""
    return assembly.flatten(assembly.w_blocks_from_model(model, [x]))[0]


def operator_identity_defect(
    psi: PsiGrid,
    model: ConstantModel,
    x_values,
) -> np.ndarray:
    """|| (I - R(x)) (I + R_model(x)) - I || at selected grid nodes.

    The problem-side operator R uses kernels integrated from the solved
    S values by cumulative Simpson quadrature on the grid; truncation of
    both operators matches the grouped data.
    """
    asm = psi.assembly
    ixs = [int(np.argmin(np.abs(psi.x - xv))) for xv in np.atleast_1d(x_values)]
    integrand = np.einsum(
        "xaji,xtjk->xatik", psi.values[:, asm.rows].conj(), psi.values, optimize=True
    )
    tables = _cumulative_simpson(integrand, psi.x)[ixs]  # (n, R, K, d, d)
    w_prob = asm.flatten(asm._scatter(np.einsum("rij,xrtjk->xrtik", asm.row_coef, tables)))
    w_model = asm.flatten(asm.w_blocks_from_model(model, psi.x[ixs]))
    eye = np.eye(w_model.shape[-1])
    return np.linalg.norm((eye - w_prob) @ (eye + w_model) - eye, 2, axis=(1, 2))


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
    data_l: SpectralData,
    data_m: SpectralData,
    p: int,
    *,
    z: np.ndarray | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> XiDiagnostics:
    """Group discrepancy weights xi_k and Lambda = sqrt(sum (k xi_k)^2).

    Each collection is partitioned by the drift equality classes; xi_k
    sums the per-pair square-root gaps inside each sub-collection plus the
    scaled collapsed-weight discrepancies of the sub-collections and of
    the whole collection.
    """
    from .model import collapse_weights, fit_drifts

    groups = build_groups(data_l, data_m, p, tol)
    if z is None:
        z = fit_drifts(data_l, p)
    m_slots = data_l.m_slots
    cls_of = np.empty(m_slots, dtype=int)
    from .model import _class_partition

    for ci, cls in enumerate(_class_partition(np.asarray(z, dtype=float), p, tol.z_group)):
        for k in cls:
            cls_of[k] = ci
    wl = collapse_weights(data_l, p, tol)
    wm = collapse_weights(data_m, p, tol)
    dim = data_l.dim

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
