"""Checks of the stable closed-form primitives against plain quadrature."""

import numpy as np
import pytest
from scipy.integrate import quad

from msturm._closed import _HP_COEF, ConstantModel, _poly_eval, hfun, hprime, pair_integral, sins
from msturm.core import BoundaryCoefficient, PotentialGrid, Problem, Projector
from msturm.forward import _ConstantEngine
from oracles import d_kernel, dense_traces


def _brute_pair(u, v, x):
    if u == 0 and v == 0:
        return x**3 / 3.0
    if u == 0:
        return quad(lambda t: t * np.sin(v * t) / v, 0, x, limit=200)[0]
    if v == 0:
        return quad(lambda t: np.sin(u * t) * t / u, 0, x, limit=200)[0]
    return quad(lambda t: np.sin(u * t) * np.sin(v * t) / (u * v), 0, x, limit=200)[0]


@pytest.mark.parametrize(
    "u,v",
    [
        (0.3, 0.3),
        (0.3, 0.5),
        (0.0, 2.0),
        (1e-7, 3.0),
        (1e-4, 1e-4),
        (5.0, 0.007),
        (9.5, 9.5),
        (10.0, 15.5),
    ],
)
def test_pair_integral_against_quadrature(u, v):
    for x in (0.7, np.pi):
        got = complex(pair_integral(u, v, x))
        assert got.imag == pytest.approx(0.0, abs=1e-14)
        assert got.real == pytest.approx(_brute_pair(u, v, x), abs=2e-11)


def test_pair_integral_vanishes_at_zero():
    u = np.array([0.0, 0.3, 2.0, 1e-6])
    assert np.all(pair_integral(u, u, 0.0) == 0.0)


def test_pair_integral_coincident_closed_form():
    # int_0^x sin(a t)^2 / a^2 dt = (x - sin(2 a x) / (2 a)) / (2 a^2)
    a, x = 0.3, np.linspace(0.1, np.pi, 9)
    ref = (x - np.sin(2 * a * x) / (2 * a)) / (2 * a * a)
    np.testing.assert_allclose(np.real(pair_integral(a, a, x)), ref, atol=1e-13)


def test_pair_integral_cross_closed_form():
    a, b = 0.3, 0.5
    x = np.pi
    ref = (np.sin((a - b) * x) / (a - b) - np.sin((a + b) * x) / (a + b)) / (2 * a * b)
    assert complex(pair_integral(a, b, x)).real == pytest.approx(ref, abs=1e-13)


def test_hprime_is_derivative_of_hfun():
    for w in [0.01, 0.5, 4.0, 100.0, -2.0 + 0.3j]:
        dw = 1e-6 * (1 + abs(w))
        fd = (hfun(w + dw, 2.1) - hfun(w - dw, 2.1)) / (2 * dw)
        assert complex(hprime(w, 2.1)) == pytest.approx(complex(fd), rel=1e-6)


def test_sins_handles_zero():
    assert complex(sins(0.0, 1.3)) == pytest.approx(1.3)
    assert complex(sins(2.0, 1.3)) == pytest.approx(np.sin(2.6) / 2.0)


class TestConstantModel:
    def test_zero_potential_scalar_forms(self):
        cm = ConstantModel(np.zeros((3, 3)))
        lams = np.array([0.09, 0.25, 4.0])
        x = np.linspace(0, np.pi, 7)
        rho = np.sqrt(lams)
        ref = np.sin(rho[None, :] * x[:, None]) / rho[None, :]
        got, gotp = dense_traces(cm, x, lams)
        np.testing.assert_allclose(got, ref[:, :, None, None] * np.eye(3), atol=1e-14)
        refp = np.cos(rho[None, :] * x[:, None])
        np.testing.assert_allclose(gotp, refp[:, :, None, None] * np.eye(3), atol=1e-14)

    @staticmethod
    def _complex_traces(cm, x, lams):
        """S, S' and C' recomposed in complex arithmetic throughout."""
        u = cm.u.astype(complex)
        x = np.atleast_1d(np.asarray(x, dtype=float))[:, None, None]
        sig = cm.sigma(lams)[None]
        sd = sins(sig, x)
        diags = (sd, np.cos(sig * x), -(sig**2) * sd)
        return [np.einsum("ij,xlj,jk->xlik", u, dg, u.conj().T) for dg in diags]

    @staticmethod
    def _model_traces(cm, x, lams):
        """S, S' and C' = U diag(-(lam - d) s) U^dag from ``traces``."""
        s, sp = cm.traces(x, lams)
        mu = np.asarray(lams)[:, None] - cm.d
        return [cm.recompose(dg) for dg in (s, sp, -mu * s)]

    def test_real_c_and_real_lam_give_float64_traces(self):
        # levels -0.85 and 1.65: lam = -3 and 0.5 lie below one or both
        cm = ConstantModel(np.array([[1.5, 0.6], [0.6, -0.7]]))
        assert cm.u.dtype == np.float64
        lams, x = np.array([-3.0, 0.5, 1.65, 4.0, 30.0]), np.linspace(0.0, np.pi, 9)
        got = self._model_traces(cm, x, lams)
        for g, r in zip(got, self._complex_traces(cm, x, lams)):
            assert g.dtype == np.float64
            assert np.max(np.abs(g - r)) <= 1e-15 * np.max(np.abs(r))

    @pytest.mark.parametrize("hermitian", ["real", "complex"])
    def test_complex_traces_stay_complex(self, hermitian):
        c = np.array([[1.5, 0.6], [0.6, -0.7]], dtype=complex)
        lams = np.array([0.5 + 0.3j, 4.0 - 1.0j])
        if hermitian == "complex":
            c[0, 1], c[1, 0] = 0.6j, -0.6j
            lams = np.concatenate([lams, [-3.0, 0.5, 4.0]])
        cm, x = ConstantModel(c), np.linspace(0.0, np.pi, 5)
        got = self._model_traces(cm, x, lams)
        for g in got:
            assert g.dtype == np.complex128
        np.testing.assert_allclose(got[0], self._complex_traces(cm, x, lams)[0], rtol=1e-14)

    @pytest.mark.parametrize("where", ["below", "on", "above", "complex"])
    def test_constant_engine_evaluates_traces_once(self, monkeypatch, where):
        c = np.array([[1.5, 0.6], [0.6, -0.7]])
        problem = Problem(
            PotentialGrid.constant(c, 50), Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2)
        )
        eng = _ConstantEngine(problem)
        level = eng.model.d[1]
        lams = {
            "below": np.array([-3.0, level - 0.5]),
            "on": np.array([level, eng.model.d[0]]),
            "above": np.array([level + 0.5, 30.0]),
            "complex": np.array([level + 0.3j, 4.0 - 1.0j, -3.0 + 0.0j]),
        }[where]
        calls, traces = [], ConstantModel.traces

        def spy(self, x, lams):
            calls.append(np.size(x))
            return traces(self, x, lams)

        monkeypatch.setattr(ConstantModel, "traces", spy)
        max_step = np.pi / 8
        x = np.linspace(0.0, np.pi, 9)
        ref_s, ref_sp, ref_cp = self._complex_traces(eng.model, x, lams)
        ends = [r[-1] for r in (ref_s, ref_sp, ref_sp, ref_cp)]
        for call, ref in (
            (lambda: eng.s_terminal(lams), ends[:2]),
            (lambda: eng.s_path(lams, max_step), [ref_s, ref_sp]),
            (lambda: eng.sc_terminal(lams), ends),
        ):
            calls.clear()
            got = call()
            assert len(calls) == 1
            for g, r in zip(got, ref, strict=True):
                assert g.shape == r.shape
                assert np.max(np.abs(g - r)) <= 1e-15 * np.max(np.abs(r))

    def test_kernel_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        cm = ConstantModel(0.2 * (a + a.conj().T))
        lams = np.array([0.3, 1.0, 2.2])
        x = np.array([0.5, np.pi])
        d = d_kernel(cm, x, lams, lams)
        np.testing.assert_allclose(d, d.conj().transpose(0, 2, 1, 4, 3), atol=1e-12)

    def test_kernel_matches_trace_quadrature(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        cm = ConstantModel(0.3 * (a + a.conj().T))
        lams = np.array([0.4, 1.7])
        x = np.linspace(0, np.pi, 4001)
        s = dense_traces(cm, x, lams)[0]
        integrand = np.einsum("xaji,xbjk->xabik", s.conj(), s)
        from scipy.integrate import simpson

        ref = np.stack(
            [simpson(integrand[..., i, j], x=x, axis=0) for i in range(2) for j in range(2)],
            axis=-1,
        ).reshape(2, 2, 2, 2)
        got = d_kernel(cm, np.array([np.pi]), lams, lams)[0]
        np.testing.assert_allclose(got, ref, atol=5e-12)


# Unmasked reference forms: both branches evaluated on every entry and
# selected with np.where.  The masked primitives must agree bitwise.

def _hprime_unmasked(w, x):
    w = np.asarray(w, dtype=complex)
    x = np.asarray(x, dtype=float)
    w, x = np.broadcast_arrays(w, x)
    u = w * x * x
    small = np.abs(u) < 0.5
    w_safe = np.where(small, 1.0, w)
    s = np.sqrt(w_safe)
    closed = (x * np.cos(s * x) - sins(s, x)) / (2.0 * w_safe)
    series = x**3 * _poly_eval(_HP_COEF, u)
    return np.where(small, series, closed)


def _pair_integral_unmasked(u, v, x):
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    x = np.asarray(x, dtype=float)
    u, v, x = np.broadcast_arrays(u, v, x)
    w1 = (u - v) ** 2
    w2 = (u + v) ** 2
    delta = w1 - w2  # = -4 u v
    scale = 1.0 + np.maximum(np.abs(w1), np.abs(w2))
    near = np.abs(delta) < 2e-3 * scale
    delta_safe = np.where(near, 1.0, delta)
    dd_far = (hfun(w1, x) - hfun(w2, x)) / delta_safe
    wm = 0.5 * (w1 + w2)
    dd_near = (
        _hprime_unmasked(w1, x) + 4.0 * _hprime_unmasked(wm, x) + _hprime_unmasked(w2, x)
    ) / 6.0
    return -2.0 * np.where(near, dd_near, dd_far)


def _frequencies():
    rng = np.random.default_rng(11)
    # sqrt(lam - d_j) for d_j = 0.8: lam < d_j gives imaginary frequencies
    lams = np.concatenate([[0.0, 0.8, 0.8 + 1e-9, 0.05, 0.3], rng.uniform(-2.0, 120.0, 40)])
    return np.concatenate([[0.0, 1e-7, 1e-4], np.sqrt(lams - 0.8 + 0j)])


_X = np.concatenate([[0.0, 1e-3, 0.05], np.linspace(0.1, np.pi, 12)])


@pytest.mark.parametrize(
    "u,v,x",
    [
        # 0-d scalars: near (u = 0, v = 0, both), far, small |w x^2|, x = 0
        (0.0, 2.0, 1.3),
        (2.0, 0.0, 1.3),
        (0.0, 0.0, np.pi),
        (1e-7, 3.0, 0.7),
        (0.3, 0.5, np.pi),
        (0.3, 0.3, 0.0),
        (1j * 0.7, 0.4, 2.0),
        # scalar frequencies over a grid, as in the worked example's closed form
        (0.3, 0.3, _X),
        (0.0, 0.5, _X),
        # the (Nx, A, B, m) layout of oracles.d_kernel_diag
        (
            _frequencies()[None, :, None, None],
            _frequencies()[None, None, :, None],
            _X[:, None, None, None],
        ),
        (_frequencies()[:, None], _frequencies()[None, :], 0.0),
    ],
)
def test_masked_kernel_matches_unmasked_bitwise(u, v, x):
    got = pair_integral(u, v, x)
    ref = _pair_integral_unmasked(u, v, x)
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref)
    assert np.array_equal(pair_integral(v, u, x), got)


def test_masked_hprime_matches_unmasked_bitwise():
    f = _frequencies()
    w = np.concatenate([f**2, (2 * f) ** 2, [-3.0 + 0.5j, 1e-12]])
    for wv, xv in ((w[:, None], _X[None, :]), (w, 0.0), (0.01, 2.1), (40.0, 2.1), (0.0, 0.0)):
        got = hprime(wv, xv)
        ref = _hprime_unmasked(wv, xv)
        assert np.shape(got) == np.shape(ref)
        assert np.array_equal(got, ref)
