"""Stable closed-form building blocks for constant-coefficient problems.

The model problems produced by the inverse pipeline always have a constant
Hermitian potential, so their fundamental solutions and derivatives have
exact expressions in the eigenbasis of the potential.  For real lam_a and
lam_b the pair kernel

    D(x, lam_a, lam_b) = int_0^x S(t, lam_a)^dag S(t, lam_b) dt

follows from them by Lagrange's identity; ``pair_integral`` gives its
eigenbasis diagonal where lam_a and lam_b nearly coincide and that
identity cancels.  Removable singularities (coincident frequencies,
frequencies near zero) are evaluated by series instead of by cancelling
differences.  The arithmetic follows the input: ``sins``, ``hfun``,
``hprime`` and ``pair_integral`` work in complex arithmetic for complex
arguments and in float64 for real ones (real frequencies, whose squares
(u - v)^2 and (u + v)^2 are real and non-negative), and
``ConstantModel.traces`` is complex for a complex array of spectral
parameters and float64 for real ones.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DimensionError, _real_if_zero_imag, hermitian_part

__all__ = ["sins", "hfun", "hprime", "pair_integral", "ConstantModel"]


def sins(w, x):
    """sin(w x)/w, entire in w**2; w may be complex, shapes broadcast."""
    x = np.asarray(x, dtype=float)
    return x * np.sinc(np.asarray(w) * x / np.pi)


def hfun(w, x):
    """sin(sqrt(w) x)/sqrt(w) as an entire function of w; a real w must be >= 0."""
    return sins(np.sqrt(np.asarray(w)), x)


# Taylor coefficients of h'(w) = x^3 * sum_k (k+1) (-u)^k / (2k+3)! in u = w x^2.
_KMAX = 12
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
    output array, so no entry pays for the branch it does not use.  A
    real w must be >= 0.
    """
    x = np.asarray(x, dtype=float)
    w, x = np.broadcast_arrays(np.asarray(w), x)
    u = w * x * x
    small = np.abs(u) < 0.5
    far = ~small
    out = np.empty(u.shape, dtype=np.result_type(u, 1.0))
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
    written into one output array.  Real u and v are evaluated in float64,
    complex ones in complex arithmetic.
    """
    x = np.asarray(x, dtype=float)
    u, v, x = np.broadcast_arrays(np.asarray(u), np.asarray(v), x)
    w1 = (u - v) ** 2
    w2 = (u + v) ** 2
    delta = w1 - w2  # = -4 u v
    scale = 1.0 + np.maximum(np.abs(w1), np.abs(w2))
    near = np.abs(delta) < 2e-3 * scale
    far = ~near
    out = np.empty(w1.shape, dtype=np.result_type(w1, 1.0))
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
    s_j = sqrt(lam - d_j), and S' = U diag(cos(s_j x)) U^dag.  ``traces``
    evaluates both diagonals, float64 for real lam and complex for a
    complex array of lam (the constant engine's Weyl and contour sweeps);
    ``recompose`` turns diagonals into matrices.
    """

    def __init__(self, c_matrix):
        c = np.asarray(c_matrix, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DimensionError(f"constant potential must be square, got {c.shape}")
        self.c = c
        self.d, self.u = np.linalg.eigh(hermitian_part(_real_if_zero_imag(c)))
        self.udag = self.u.conj().T
        self.m = c.shape[0]

    def sigma(self, lams) -> np.ndarray:
        """sqrt(lam - d_j), complex, shape (L, m)."""
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        return np.sqrt(lams[:, None] - self.d[None, :])

    def traces(self, x, lams):
        """Eigenbasis diagonals (s, s') of S and S' at (x, lams), each (Nx, L, m).

        For real lams sigma^2 = lam - d_j is real and both are float64:
        sin and cos above a level, sinh and cosh below it, and s = x on
        it.  A complex array of lams takes sigma = sqrt(lam - d_j) in
        complex arithmetic.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lams = np.atleast_1d(np.asarray(lams))
        if np.iscomplexobj(lams):
            sig = self.sigma(lams)[None, :, :]
            return sins(sig, x[:, None, None]), np.cos(sig * x[:, None, None])
        mu = np.asarray(lams, dtype=float)[:, None] - self.d  # sigma^2, (L, m)
        sig = np.sqrt(np.abs(mu))
        arg = x[:, None, None] * sig
        s, sp = np.sin(arg) / np.where(mu == 0.0, 1.0, sig), np.cos(arg)
        s[:, mu == 0.0] = x[:, None]
        below = mu < 0.0
        if np.any(below):
            s[:, below], sp[:, below] = np.sinh(arg[:, below]) / sig[below], np.cosh(arg[:, below])
        return s, sp

    def recompose(self, diag) -> np.ndarray:
        """U diag(.) U^dag for a stack of diagonals (..., m) -> (..., m, m)."""
        return (self.u * diag[..., None, :]) @ self.udag
