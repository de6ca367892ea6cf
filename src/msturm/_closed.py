"""Stable closed-form building blocks for constant-coefficient problems.

The model problems produced by the inverse pipeline always have a constant
Hermitian potential, so their fundamental solutions, derivatives and the
pair kernel

    D(x, lam_a, lam_b) = int_0^x S(t, lam_a)^dag S(t, lam_b) dt

have exact expressions in the eigenbasis of the potential.  Everything
here is written so the removable singularities (coincident frequencies,
frequencies near zero) are evaluated by series instead of by cancelling
differences; all functions accept complex spectral parameters as needed
for residue contours.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DimensionError, hermitian_part

__all__ = ["sins", "hfun", "hprime", "pair_integral", "ConstantModel"]


def sins(w, x):
    """sin(w x)/w, entire in w**2; w may be complex, shapes broadcast."""
    w = np.asarray(w, dtype=complex)
    x = np.asarray(x, dtype=float)
    return x * np.sinc(w * x / np.pi)


def hfun(w, x):
    """sin(sqrt(w) x)/sqrt(w) as an entire function of w."""
    return sins(np.sqrt(np.asarray(w, dtype=complex)), x)


# Taylor coefficients of h(w) = x * sum_k (-w x^2)^k / (2k+1)! in u = w x^2,
# and of h'(w) = x^3 * sum_k (k+1) (-u)^k / (2k+3)!.
_KMAX = 12
_H_COEF = np.array([(-1.0) ** k / float(math.factorial(2 * k + 1)) for k in range(_KMAX)])
_HP_COEF = np.array(
    [(-1.0) ** (k + 1) * (k + 1) / float(math.factorial(2 * k + 3)) for k in range(_KMAX)]
)


def _poly_eval(coef, u):
    out = np.zeros_like(u)
    for c in coef[::-1]:
        out = out * u + c
    return out


def hprime(w, x):
    """d/dw of hfun(w, x); series where |w x^2| < 0.5, closed form elsewhere.

    Each branch is evaluated only on its own mask and written into one
    output array, so no entry pays for the branch it does not use.
    """
    w = np.asarray(w, dtype=complex)
    x = np.asarray(x, dtype=float)
    w, x = np.broadcast_arrays(w, x)
    u = w * x * x
    small = np.abs(u) < 0.5
    far = ~small
    out = np.empty(u.shape, dtype=complex)
    wf, xf = w[far], x[far]
    s = np.sqrt(wf)
    out[far] = (xf * np.cos(s * xf) - sins(s, xf)) / (2.0 * wf)
    out[small] = x[small] ** 3 * _poly_eval(_HP_COEF, u[small])
    return out


def pair_integral(u, v, x):
    """int_0^x sin(u t) sin(v t) / (u v) dt, entire and even in u and v.

    Evaluated through the divided difference of ``hfun`` at (u-v)^2 and
    (u+v)^2; where those arguments nearly coincide (u v close to 0) the
    difference quotient is replaced by a Simpson evaluation of the
    integral of ``hprime``, which keeps full accuracy without
    cancellation.  Each branch is evaluated only on its own mask and
    written into one output array.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    x = np.asarray(x, dtype=float)
    u, v, x = np.broadcast_arrays(u, v, x)
    w1 = (u - v) ** 2
    w2 = (u + v) ** 2
    delta = w1 - w2  # = -4 u v
    scale = 1.0 + np.maximum(np.abs(w1), np.abs(w2))
    near = np.abs(delta) < 2e-3 * scale
    far = ~near
    out = np.empty(w1.shape, dtype=complex)
    xf = x[far]
    out[far] = (hfun(w1[far], xf) - hfun(w2[far], xf)) / delta[far]
    w1n, w2n, xn = w1[near], w2[near], x[near]
    wm = 0.5 * (w1n + w2n)
    out[near] = (hprime(w1n, xn) + 4.0 * hprime(wm, xn) + hprime(w2n, xn)) / 6.0
    return -2.0 * out


class ConstantModel:
    """Closed-form traces for a constant Hermitian potential C.

    With C = U diag(d) U^dag the fundamental solution satisfying
    S(0) = 0, S'(0) = I is S(x, lam) = U diag(sin(s_j x)/s_j) U^dag with
    s_j = sqrt(lam - d_j); the cosine-type solution (C(0) = I, C'(0) = 0)
    and the pair kernel follow the same pattern.  All evaluators are
    vectorised over a 1-D grid ``x`` and 1-D arrays of spectral
    parameters.
    """

    def __init__(self, c_matrix):
        c = np.asarray(c_matrix, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DimensionError(f"constant potential must be square, got {c.shape}")
        self.c = c
        self.d, self.u = np.linalg.eigh(hermitian_part(c))
        self.udag = self.u.conj().T
        self.m = c.shape[0]

    # frequencies ------------------------------------------------------
    def sigma(self, lams) -> np.ndarray:
        """sqrt(lam - d_j), shape (L, m)."""
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        return np.sqrt(lams[:, None] - self.d[None, :])

    def _recompose(self, diag):
        # diag: (..., m) -> (..., m, m) via U diag U^dag
        return np.einsum("ij,...j,jk->...ik", self.u, diag, self.udag, optimize=True)

    # traces -----------------------------------------------------------
    def s(self, x, lams) -> np.ndarray:
        """S(x, lam): shape (Nx, L, m, m) for 1-D x and lams."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sig = self.sigma(lams)
        diag = sins(sig[None, :, :], x[:, None, None])
        return self._recompose(diag)

    def sp(self, x, lams) -> np.ndarray:
        """dS/dx (x, lam)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sig = self.sigma(lams)
        diag = np.cos(sig[None, :, :] * x[:, None, None])
        return self._recompose(diag)

    def cos_trace(self, x, lams) -> np.ndarray:
        """Solution with C(0) = I, C'(0) = 0."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sig = self.sigma(lams)
        diag = np.cos(sig[None, :, :] * x[:, None, None])
        return self._recompose(diag)

    def cos_trace_deriv(self, x, lams) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sig = self.sigma(lams)
        xs = x[:, None, None]
        diag = -(sig[None, :, :] ** 2) * sins(sig[None, :, :], xs)
        return self._recompose(diag)

    # kernels ----------------------------------------------------------
    def d_kernel(self, x, lams_a, lams_b) -> np.ndarray:
        """D(x, lam_a, lam_b) = int_0^x S^dag(t, lam_a) S(t, lam_b) dt.

        Shapes: x (Nx,), lams_a (A,), lams_b (B,) -> (Nx, A, B, m, m).
        Real spectral parameters are assumed on the first slot (the
        conjugation in the integrand is then plain transposition in the
        eigenbasis).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sa = self.sigma(lams_a)  # (A, m)
        sb = self.sigma(lams_b)  # (B, m)
        diag = pair_integral(
            sa[None, :, None, :], sb[None, None, :, :], x[:, None, None, None]
        )  # (Nx, A, B, m)
        return self._recompose(diag)

    def d_kernel_diag(self, x, lams_a, lams_b) -> np.ndarray:
        """Eigenbasis diagonal of d_kernel, shape (Nx, A, B, m)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sa = self.sigma(lams_a)
        sb = self.sigma(lams_b)
        return pair_integral(sa[None, :, None, :], sb[None, None, :, :], x[:, None, None, None])

    def s_diag(self, x, lams) -> np.ndarray:
        """Eigenbasis diagonal of S, shape (Nx, L, m)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sig = self.sigma(lams)
        return sins(sig[None, :, :], x[:, None, None])

    def sp_diag(self, x, lams) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sig = self.sigma(lams)
        return np.cos(sig[None, :, :] * x[:, None, None])
