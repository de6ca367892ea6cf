"""Test-only oracles for the main equation and the recovery.

The closed-form pair kernel of a constant model evaluated pair by pair
and its dense original-basis traces, tabulated pair kernels (closed form
or cumulative Simpson quadrature of solution traces), operator blocks
assembled from such a table, the dense operator expanded from the
package's factored rows, the main equation solved densely as two systems
(values, then derivatives), the dense model-side operator at one node,
the operator identity defect, the correction series as three products in
the original basis and the direct potential formula
Q = S'' S^{-1} + lam I, and the Gram matrix of S over one stored sweep
of the per-cell RK4 maps.  They check the package's
closed-form assembly, solver and correction series independently and are
not used by it.  The package builds its operator in the eigenbasis of the
comparison model, as factored rows W with R = Lblk W; ``dense_blocks``
expands them and the oracles that pair them with original-basis traces
rotate them back with ``blocks_in_original_basis``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from msturm import forward
from msturm._closed import ConstantModel, pair_integral
from msturm.core import Problem
from msturm.maineq import MainAssembly, PsiGrid


def d_kernel_diag(model: ConstantModel, x, lams_a, lams_b) -> np.ndarray:
    """Eigenbasis diagonal of ``d_kernel``, shape (Nx, A, B, m)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sa = model.sigma(lams_a)
    sb = model.sigma(lams_b)
    return pair_integral(sa[None, :, None, :], sb[None, None, :, :], x[:, None, None, None])


def d_kernel(model: ConstantModel, x, lams_a, lams_b) -> np.ndarray:
    """D(x, lam_a, lam_b) = int_0^x S^dag(t, lam_a) S(t, lam_b) dt, pair by pair.

    Shapes: x (Nx,), lams_a (A,), lams_b (B,) -> (Nx, A, B, m, m).
    Real spectral parameters are assumed on the first slot (the
    conjugation in the integrand is then plain transposition in the
    eigenbasis).
    """
    return model.recompose(d_kernel_diag(model, x, lams_a, lams_b))


def dense_traces(model: ConstantModel, x, lams):
    """S(x, lam) and S'(x, lam) in the original basis, (Nx, L, m, m) each."""
    return tuple(model.recompose(t) for t in model.traces(x, lams))


def _cumulative_simpson(y: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    # scipy's cumulative_simpson casts complex input to real; split the parts
    if np.iscomplexobj(y):
        return cumulative_simpson(y.real, x=x, axis=axis, initial=0.0) + 1j * cumulative_simpson(
            y.imag, x=x, axis=axis, initial=0.0
        )
    return cumulative_simpson(y, x=x, axis=axis, initial=0.0)


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
        table = d_kernel(model, x, lams, lams)
        return cls(x, lams, table, *dense_traces(model, x, lams))

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


def blocks_in_original_basis(model: ConstantModel, w: np.ndarray) -> np.ndarray:
    """Eigenbasis blocks (..., d, d) of the package -> U w U^dag, the original basis."""
    return model.u @ w @ model.udag


def w_blocks_from_table(assembly: MainAssembly, kernels: KernelTable, ix: int) -> np.ndarray:
    """Operator blocks (K, K, d, d) at one tabulated node."""
    col = [kernels.index_of(lam) for lam in assembly.lams]
    return np.einsum("rij,rtjk->rtik", assembly.coef, kernels.table[ix][np.ix_(col, col)])


def flatten(w: np.ndarray) -> np.ndarray:
    """(..., A, B, d, d) block layout -> (..., A d, B d) matrices."""
    a, b, d = w.shape[-4], w.shape[-3], w.shape[-1]
    return np.ascontiguousarray(np.moveaxis(w, -3, -2).reshape(*w.shape[:-4], a * d, b * d))


def dense_blocks(assembly: MainAssembly, model: ConstantModel, w: np.ndarray) -> np.ndarray:
    """Factored rows (Nx, P, K, d) -> eigenbasis blocks (Nx, K, K, d, d) of Lblk W.

    Block (r, t) sums outer(left[p], w[p, t]) over the terms p of row r.
    """
    f = assembly.row_factors(model)
    owner = (f.u[:, None] == np.arange(assembly.n_unknowns)).astype(float)  # (P, K)
    return np.einsum("pr,pi,xptj->xrtij", owner, f.left, w)


def identity_plus_r(assembly: MainAssembly, model: ConstantModel, xs) -> np.ndarray:
    """The dense eigenbasis matrices I + R(x) at the nodes ``xs``, (n, K d, K d)."""
    big = flatten(dense_blocks(assembly, model, assembly.w_blocks_from_model(model, xs)))
    return big + np.eye(big.shape[-1])


def operator_matrix(assembly: MainAssembly, model: ConstantModel, x: float) -> np.ndarray:
    """Flattened model-side operator R(x) in the original basis (identity not included)."""
    w = dense_blocks(assembly, model, assembly.w_blocks_from_model(model, [x]))
    return flatten(blocks_in_original_basis(model, w))[0]


def solve_nodes_two_systems(assembly: MainAssembly, model: ConstantModel, xs):
    """Values and derivatives at the nodes ``xs``, each from its own dense solve.

    R is assembled from the row coefficients and the pair-by-pair kernel
    (``w_blocks_from_table``), R' from the coefficients and the traces,
    without the package's row factors.  The values solve
    phi (I + R) = psi, and the term-wise differentiated system
    phi' (I + R) = psi' - phi R' is solved again with the same matrix: two
    complex128 factorisations of order K d per node, in the original
    basis.  Returns (values, derivs), each (n, K, d, d).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    K, d = assembly.n_unknowns, assembly.dim

    def rows(a):  # (n, K, d, d) -> (n, d, K d)
        return a.transpose(0, 2, 1, 3).reshape(xs.size, d, K * d).astype(complex)

    table = KernelTable.from_model(model, xs, assembly.lams)
    s, sp = table.s_values, table.sp_values
    w = np.stack([w_blocks_from_table(assembly, table, ix) for ix in range(xs.size)])
    wp = np.einsum("rij,xrkj,xtkl->xrtil", assembly.coef, s.conj(), s)
    big = flatten(w).astype(complex) + np.eye(K * d)
    big_t = big.transpose(0, 2, 1)
    vals = np.linalg.solve(big_t, rows(s).transpose(0, 2, 1)).transpose(0, 2, 1)
    rhs = rows(sp) - vals @ flatten(wp)
    derivs = np.linalg.solve(big_t, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
    return tuple(a.reshape(xs.size, d, K, d).transpose(0, 2, 1, 3) for a in (vals, derivs))


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
    integrand = np.einsum("xaji,xtjk->xatik", psi.values.conj(), psi.values, optimize=True)
    tables = _cumulative_simpson(integrand, psi.x)[ixs]  # (n, K, K, d, d)
    w_prob = flatten(np.einsum("rij,xrtjk->xrtik", asm.coef, tables))
    w_eigen = dense_blocks(asm, model, asm.w_blocks_from_model(model, psi.x[ixs]))
    w_model = flatten(blocks_in_original_basis(model, w_eigen))
    eye = np.eye(w_model.shape[-1])
    return np.linalg.norm((eye - w_prob) @ (eye + w_model) - eye, 2, axis=(1, 2))


def epsilon_series_three_products(psi: PsiGrid, model: ConstantModel):
    """eps0 and eps = -2 eps0' from original-basis values and traces, (Nx, d, d) each.

    eps0 = sum_r S_r B_r S_model,r^dag over the rows of the assembly, and
    its derivative term by term, as three ``einsum`` products.
    """
    asm = psi.assembly
    x, rows, coef = psi.x, asm.rows, asm.coef[asm.rows]
    sdag, spdag = (a.conj().transpose(0, 1, 3, 2) for a in dense_traces(model, x, asm.lams[rows]))
    v, vp = psi.values[:, rows], psi.derivs[:, rows]
    eps0 = np.einsum("xrij,rjk,xrkl->xil", v, coef, sdag, optimize=True)
    deps0 = np.einsum("xrij,rjk,xrkl->xil", vp, coef, sdag, optimize=True) + np.einsum(
        "xrij,rjk,xrkl->xil", v, coef, spdag, optimize=True
    )
    return eps0, -2.0 * deps0


def recover_Q_direct(
    values: np.ndarray,
    lam: float,
    x: np.ndarray,
    cond_mask: float = 1e6,
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
        if sv[i, -1] <= scale / cond_mask:
            continue
        q[i] = spp[i - 1] @ np.linalg.inv(v[i]) + lam * np.eye(d)
        mask[i] = True
    return q, mask



def gram_per_cell(problem: Problem, lams):
    """S(pi), S'(pi) and G = int_0^pi S^dag S dx from a stored sweep of the per-cell RK4 maps.

    Every grid node comes from the sweep itself (no composed maps, no
    prefix maps); G is the composite Simpson rule on all n + 1 nodes,
    formed as B^dag B with node x scaled by sqrt(w_x).
    """
    m, h = problem.m, problem.potential.h
    steps = forward._step_stack(problem.potential.samples, h)
    ys, ps = forward._rk4_sweep(steps, lams, np.zeros((m, m)), np.eye(m), store=True)
    root_w = np.sqrt(forward._simpson_weights(ys.shape[0] - 1, h))
    b = (ys.transpose(1, 0, 2, 3) * root_w[:, None, None]).reshape(ys.shape[1], -1, m)
    return ys[-1], ps[-1], b.conj().transpose(0, 2, 1) @ b
