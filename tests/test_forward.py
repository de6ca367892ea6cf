import warnings

import numpy as np
import pytest

from msturm.core import (
    DEFAULT_TOL,
    AtEigenvalueError,
    BoundaryCoefficient,
    BracketExhaustionError,
    ContourClashError,
    IntegrationOverflowError,
    PotentialGrid,
    Problem,
    Projector,
    validate_problem,
)
from msturm import forward
from msturm.forward import SolutionTrace


def scalar_rk4(q_func, lam, n_grid):
    """Independent scalar integrator for oracle comparisons."""
    h = np.pi / n_grid
    y, yp = 0.0, 1.0
    ys = [y]
    for i in range(n_grid):
        x = i * h

        def f(x, y, yp):
            return yp, (q_func(x) - lam) * y

        k1y, k1p = f(x, y, yp)
        k2y, k2p = f(x + h / 2, y + h / 2 * k1y, yp + h / 2 * k1p)
        k3y, k3p = f(x + h / 2, y + h / 2 * k2y, yp + h / 2 * k2p)
        k4y, k4p = f(x + h, y + h * k3y, yp + h * k3p)
        y += h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        yp += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        ys.append(y)
    return np.asarray(ys)


def batched_rk4_sweep(q, h, lams, y0, p0, store=False):
    """The batched-matmul RK4 sweep, kept as the reference for ``_rk4_sweep``.

    The state is an (L, m, m) stack and ``Q @ Y`` a batched matmul; the
    package carries the same state as one (m, L*m) array.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    L = lams.shape[0]
    lam = lams.reshape(L, 1, 1)
    m = q.shape[1]
    qmid = 0.5 * (q[:-1] + q[1:])
    y = np.broadcast_to(np.asarray(y0, dtype=complex), (L, m, m)).copy()
    yp = np.broadcast_to(np.asarray(p0, dtype=complex), (L, m, m)).copy()
    n = q.shape[0] - 1
    ys = [y]
    ps = [yp]
    hh = 0.5 * h
    h6 = h / 6.0
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
        ys.append(y)
        ps.append(yp)
    if store:
        return np.stack(ys), np.stack(ps)
    return y, yp


def star_q(n_grid):
    """Star-graph potential diag(0.3 sin x, 0, 0), real-valued."""
    x = np.linspace(0.0, np.pi, n_grid + 1)
    q = np.zeros((n_grid + 1, 3, 3), dtype=complex)
    q[:, 0, 0] = 0.3 * np.sin(x)
    return q


def coupled_q(n_grid, u=np.eye(2)):
    """sin x A + sin 2x B with complex Hermitian A, B that do not commute."""
    x = np.linspace(0.0, np.pi, n_grid + 1)
    a = np.array([[0.5, 0.2j], [-0.2j, -0.1]])
    b = np.array([[0.1, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]])
    q = np.sin(x)[:, None, None] * a + np.sin(2.0 * x)[:, None, None] * b
    return u @ q @ u.conj().T


def general_problem(n_grid):
    """The paper's general case: coupled complex Q, rotated rank-one T, H = 0.3 T."""
    th = 0.7
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]) * np.array([1.0, np.exp(0.4j)])
    t = u @ np.diag([1.0, 0.0]) @ u.conj().T
    t = 0.5 * (t + t.conj().T)
    return Problem(PotentialGrid(coupled_q(n_grid, u)), Projector(t, 1), BoundaryCoefficient(0.3 * t))


class TestRk4Sweep:
    @pytest.mark.parametrize("store", [False, True])
    @pytest.mark.parametrize("L", [1, 7, 128])
    @pytest.mark.parametrize("per_lam_init", [False, True])
    @pytest.mark.parametrize("potential", ["star", "coupled"])
    def test_matches_batched_sweep(self, store, L, per_lam_init, potential):
        n_grid = 200
        q = star_q(n_grid) if potential == "star" else coupled_q(n_grid)
        m = q.shape[1]
        lams = np.linspace(-5.0, 60.0, L)
        if per_lam_init:
            rng = np.random.default_rng(L)
            y0 = rng.standard_normal((L, m, m)) + 1j * rng.standard_normal((L, m, m))
            p0 = rng.standard_normal((L, m, m))
        else:
            y0, p0 = np.zeros((m, m)), np.eye(m)
        h = np.pi / n_grid
        got = forward._rk4_sweep(forward._step_stack(q, h), lams, y0, p0, store=store)
        ref = batched_rk4_sweep(q, h, lams, y0, p0, store=store)
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            # the same RK4 scheme, summed as precomputed step maps: the two
            # differ only by rounding, relative to each lam's largest entry
            scale = np.max(np.abs(r), axis=(0, 2, 3) if store else (1, 2), keepdims=True)
            assert np.max(np.abs(g - r) / scale) < 1e3 * np.finfo(float).eps

    @pytest.mark.parametrize("potential", ["star", "coupled"])
    def test_step_map_is_quadratic_in_lambda(self, potential):
        # E^2 = 0 kills every term of degree 3 and 4, exactly
        q = star_q(50) if potential == "star" else coupled_q(50)
        coef = forward._step_maps(q, np.pi / 50)
        assert coef.shape == (50, 5, 2 * q.shape[1], 2 * q.shape[1])
        assert np.all(coef[:, 3:] == 0.0)
        assert np.any(coef[:, 2] != 0.0)

    @pytest.mark.parametrize("lam", [-30.0, 2.3, 150.0])
    def test_step_maps_against_scalar_integrator(self, lam):
        # each channel of a diagonal Q is the scalar problem of the
        # independent per-step integrator; products of the step maps give it
        n_grid = 400
        x = np.linspace(0.0, np.pi, n_grid + 1)
        qs = [np.sin(x), 0.5 * np.cos(3.0 * x)]
        q = np.zeros((n_grid + 1, 2, 2))
        q[:, 0, 0], q[:, 1, 1] = qs
        coef = forward._step_maps(q, np.pi / n_grid)[:, :3]
        steps = coef[:, 0] + lam * coef[:, 1] + lam**2 * coef[:, 2]
        z = np.concatenate([np.zeros((2, 2)), np.eye(2)])
        ys = [z[:2]]
        for p in steps:
            z = p @ z
            ys.append(z[:2])
        ys = np.array(ys)
        for j in range(2):
            ref = scalar_rk4(lambda t: np.interp(t, x, qs[j]), lam, n_grid)
            assert np.max(np.abs(ys[:, j, j] - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.all(ys[:, 1 - j, j] == 0.0)

    @pytest.mark.parametrize("store", [False, True])
    def test_real_path_equals_complex_path(self, store):
        # a real Q runs in float64; the same steps in complex arithmetic agree
        q = star_q(200)
        steps = forward._step_stack(q, np.pi / 200)
        assert steps.dtype == np.float64
        lams = np.linspace(-5.0, 60.0, 16)
        y0, p0 = np.zeros((3, 3)), np.eye(3)
        real = forward._rk4_sweep(steps, lams, y0, p0, store=store)
        cplx = forward._rk4_sweep(steps.astype(complex), lams, y0, p0, store=store)
        for a, b in zip(real, cplx):
            assert a.dtype == np.float64 and b.dtype == np.complex128
            scale = np.max(np.abs(b), axis=(0, 2, 3) if store else (1, 2), keepdims=True)
            assert np.max(np.abs(a - b) / scale) <= 1e3 * np.finfo(float).eps

    @pytest.mark.parametrize("n_grid", [201, 203])
    @pytest.mark.parametrize("potential", ["star", "coupled"])
    def test_composed_maps_match_batched_sweep(self, n_grid, potential):
        # the cell count is not a multiple of the composed step, so the last
        # composed map carries identity cells
        if potential == "star":
            prob = Problem(PotentialGrid(star_q(n_grid)), Projector.star(3), BoundaryCoefficient.zero(3))
        else:
            prob = general_problem(n_grid)
        q, h, m = prob.potential.samples, prob.potential.h, prob.m
        eng = forward._Rk4Engine(prob)
        assert n_grid % forward._CELLS != 0
        assert eng.composed.shape == (-(-n_grid // forward._CELLS), 2 * m, (2 * forward._CELLS + 1) * 2 * m)
        # from the scan floor up past the largest lam the suite reaches
        # (about 239), plus the deepest lam it integrates (weyl_matrix at
        # -1600); then a dense run up to 60, as in test_matches_batched_sweep,
        # long enough for more than one pass of the sweep.  Dense sampling up
        # to 240 meets lams where every entry of Y(pi) is small, and there the
        # rounding relative to the largest entry reaches the bound on the
        # per-cell maps as well as on the composed ones.
        floor = forward._scan_samples(prob, 2, eng)[0][0]
        lams = np.concatenate([[-1600.0], np.linspace(floor, 240.0, 41), np.linspace(floor, 60.0, 700)])
        assert lams.size * m > forward._PASS_COLUMNS
        L = lams.size
        eye, zero = np.broadcast_to(np.eye(m), (L, m, m)), np.zeros((L, m, m))
        rng = np.random.default_rng(n_grid)
        y0 = rng.standard_normal((L, m, m)) + 1j * rng.standard_normal((L, m, m))
        p0 = rng.standard_normal((L, m, m))
        zs = lams + 0.5j  # contour-like points off the real axis
        cases = [
            (eng.s_terminal(lams), batched_rk4_sweep(q, h, lams, zero, eye)),
            (eng.sc_terminal(zs), batched_rk4_sweep(q, h, zs, zero, eye) + batched_rk4_sweep(q, h, zs, eye, zero)),
            (forward._rk4_sweep(eng.composed, lams, y0, p0), batched_rk4_sweep(q, h, lams, y0, p0)),
        ]
        for got, ref in cases:
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g.shape == r.shape
                scale = np.max(np.abs(r), axis=(1, 2), keepdims=True)
                assert np.max(np.abs(g - r) / scale) < 1e3 * np.finfo(float).eps

    def test_composed_maps_stay_real_for_real_q(self):
        prob = Problem(PotentialGrid(star_q(201)), Projector.star(3), BoundaryCoefficient.zero(3))
        eng = forward._Rk4Engine(prob)
        assert eng.steps.dtype == np.float64 and eng.composed.dtype == np.float64
        y, yp = eng.s_terminal(np.linspace(-3.0, 240.0, 9))
        assert y.dtype == np.float64 and yp.dtype == np.float64
        assert all(a.dtype == np.complex128 for a in eng.sc_terminal([2.0 + 0.5j]))

    def test_stored_sweep_refuses_composed_maps(self):
        # composed maps step k cells at a time; a stored sweep would miss
        # the grid nodes between them and the Gram quadrature with them
        q = star_q(200)
        composed = forward._compose(forward._step_stack(q, np.pi / 200))
        with pytest.raises(ValueError, match="per-cell"):
            forward._rk4_sweep(composed, [1.0], np.zeros((3, 3)), np.eye(3), store=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 999])
    def test_simpson_weights_exact_on_cubics(self, n):
        x = np.linspace(0.0, np.pi, n + 1)
        w = forward._simpson_weights(n, np.pi / n)
        assert w.sum() == pytest.approx(np.pi, rel=1e-14)
        if n > 1:
            assert w @ x**3 == pytest.approx(np.pi**4 / 4, rel=1e-13)


class TestIntegrate:
    def test_zero_potential_closed_form(self):
        # fine grid so the phase error stays below 1e-10 up to rho = 10
        prob = Problem(PotentialGrid.zeros(3, 4000), Projector.star(3), BoundaryCoefficient.zero(3))
        for rho in (2.0, 10.0):
            tr = forward.integrate(prob, rho**2)
            ref = np.sin(rho * tr.x) / rho
            assert np.max(np.abs(tr.y - ref[:, None, None] * np.eye(3))) < 1e-10

    def test_constant_shift_identity(self):
        c = 0.7
        prob = Problem(
            PotentialGrid.constant(c * np.eye(2), 1000),
            Projector(np.diag([1.0, 0.0]), 1),
            BoundaryCoefficient.zero(2),
        )
        lam = 3.0
        sig = np.sqrt(lam - c)
        tr = forward.integrate(prob, lam)
        ref = np.sin(sig * tr.x) / sig
        assert np.max(np.abs(tr.y - ref[:, None, None] * np.eye(2))) < 1e-9

    def test_diagonal_against_independent_scalar_integrator(self):
        pot = PotentialGrid.diagonal([np.sin, lambda x: 0.0], 1000)
        prob = Problem(pot, Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        lam = 2.3
        tr = forward.integrate(prob, lam)
        # the oracle integrates the same piecewise-linear representation at
        # 10x resolution, isolating integrator error from sampling error
        xs = pot.x
        qs = np.real(pot.samples[:, 0, 0])
        q_lin = lambda x: np.interp(x, xs, qs)
        oracle = scalar_rk4(q_lin, lam, 10000)
        got = np.real(tr.y[:, 0, 0])
        assert np.max(np.abs(got - oracle[::10])) < 1e-8
        assert np.max(np.abs(tr.y[:, 0, 1])) == 0.0  # diagonality preserved
        # against the exact potential the sampling bias dominates, O(h^2)
        assert np.max(np.abs(got - scalar_rk4(np.sin, lam, 10000)[::10])) < 2e-6

    def test_overflow_raises(self):
        prob = Problem(PotentialGrid.zeros(2, 200), Projector(np.diag([1.0, 0.0]), 1),
                       BoundaryCoefficient.zero(2))
        with pytest.raises(IntegrationOverflowError):
            forward.integrate(prob, -4.0e6)

    def test_overflow_raises_in_complex_arithmetic(self):
        # a complex Q keeps the sweep complex; the guard is the same
        with pytest.raises(IntegrationOverflowError):
            forward.integrate(general_problem(200), -4.0e6)
        with pytest.raises(IntegrationOverflowError):
            forward.weyl_matrix(general_problem(200), -4.0e6 + 1.0j)

    def test_self_wronskian_conservation(self, star_model, m2_problem):
        for prob, lam in ((star_model, 7.3), (m2_problem, 2.1), (m2_problem, 19.0)):
            tr = forward.integrate(prob, lam)
            assert forward.self_wronskian_defect(tr) < 1e-8


class TestBoundaryForm:
    def test_star_closed_form(self, star_model):
        rho = 2.0
        tr = forward.integrate(star_model, rho**2)
        v = forward.boundary_form(star_model, tr)
        t = star_model.projector.matrix
        ref = np.cos(rho * np.pi) * t - np.sin(rho * np.pi) / rho * star_model.projector.perp
        np.testing.assert_allclose(v, ref, atol=1e-9)

    def test_terminal_identity(self, star_model):
        m = 3
        x = star_model.x
        y = np.zeros((x.size, m, m), dtype=complex)
        yp = np.broadcast_to(np.eye(m), (x.size, m, m)).copy()
        trace = SolutionTrace(0.0, x, y, yp)
        np.testing.assert_allclose(
            forward.boundary_form(star_model, trace), star_model.projector.matrix, atol=1e-15
        )


class TestCharacteristic:
    def test_star_closed_form_on_grid(self, star_model):
        for rho in (0.3, 0.77, 1.31, 2.6):
            det = forward.characteristic(star_model, rho**2)
            ref = np.cos(rho * np.pi) * np.sin(rho * np.pi) ** 2 / rho**2
            assert complex(det).real == pytest.approx(ref, abs=2e-8)
            assert abs(complex(det).imag) <= 1e-9 * (1 + abs(ref))

    def test_nonzero_between_eigenvalues(self, star_model):
        assert abs(forward.characteristic(star_model, 0.6)) > 1e-3


class TestFindEigenvalues:
    def test_star_model_bands(self, star_model):
        recs = forward.find_eigenvalues(star_model, 3)
        by_band = {}
        for r in recs:
            by_band.setdefault(r.band, []).append(r)
        for n in (1, 2, 3):
            half = [r for r in by_band[n] if 1 in r.slots]
            dbl = [r for r in by_band[n] if 2 in r.slots]
            assert half[0].multiplicity == 1
            assert half[0].lam == pytest.approx((n - 0.5) ** 2, abs=1e-7)
            assert dbl[0].multiplicity == 2 and dbl[0].slots == (2, 3)
            assert dbl[0].lam == pytest.approx(n**2, abs=2e-7)

    def test_constant_shift_moves_spectrum(self):
        base = Problem(PotentialGrid.zeros(2, 500), Projector(np.diag([1.0, 0.0]), 1),
                       BoundaryCoefficient.zero(2))
        c = 0.4
        shifted = Problem(PotentialGrid.constant(c * np.eye(2), 500),
                          Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        r0 = forward.find_eigenvalues(base, 3)
        r1 = forward.find_eigenvalues(shifted, 3)
        for a, b in zip(r0, r1):
            assert b.lam - a.lam == pytest.approx(c, abs=1e-7)

    def test_decoupled_channels_against_scalar_oracles(self):
        prob = Problem(PotentialGrid.zeros(2, 1000), Projector(np.diag([1.0, 0.0]), 1),
                       BoundaryCoefficient.zero(2))
        recs = forward.find_eigenvalues(prob, 3)
        # channel 1: y'(pi) = 0 -> zeros of cos(rho pi); channel 2: Dirichlet -> sin(rho pi)/rho
        want = sorted([(n - 0.5) ** 2 for n in (1, 2, 3)] + [float(n**2) for n in (1, 2, 3)])
        got = sorted(r.lam for r in recs)
        np.testing.assert_allclose(got, want, atol=1e-7)
        assert all(r.multiplicity == 1 for r in recs)


def random_general_problem(seed, m, n_grid):
    """Coupled complex-Hermitian Q, a rotated rank-one T and H = T H T."""
    rng = np.random.default_rng(seed)

    def herm(scale):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        return scale * (a + a.conj().T) / 2.0

    x = np.linspace(0.0, np.pi, n_grid + 1)[:, None, None]
    q = np.sin(x) * herm(0.4) + np.cos(2.0 * x) * herm(0.3)
    z = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
    t = z @ z.conj().T / np.vdot(z, z).real
    t = 0.5 * (t + t.conj().T)
    return Problem(PotentialGrid(q), Projector(t, 1), BoundaryCoefficient(t @ herm(0.5) @ t))


def near_double_problem(qs, t, n_grid=600):
    return Problem(PotentialGrid.diagonal(qs, n_grid), Projector(np.diag(t), 1),
                   BoundaryCoefficient.zero(len(t)))


def narrow_well_problem():
    """m = 2, T = diag(1, 0), H = 0, grid 1000; channel 1 holds the narrow
    well -100 exp(-((x - 3 pi / 8) / 0.05)^2)."""
    well = lambda x: -100.0 * np.exp(-(((x - 0.375 * np.pi) / 0.05) ** 2))
    pot = PotentialGrid.diagonal([well, lambda x: 0.0], 1000)
    return Problem(pot, Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2)), well


def narrow_well_ground_state():
    """Finite-difference ground state of channel 1: y(0) = 0, y'(pi) = 0."""
    from scipy.linalg import eigh_tridiagonal

    _, well = narrow_well_problem()
    n = 4000
    h = np.pi / n
    d = 2.0 / h**2 + well(np.linspace(h, np.pi, n))
    d[-1] -= 1.0 / h**2  # the Neumann end
    off = -np.ones(n - 1) / h**2
    return float(eigh_tridiagonal(d, off, select="i", select_range=(0, 0))[0][0])


class TestSearchGuarantees:
    def test_scan_floor_lies_below_a_narrow_well(self):
        # the well falls between every 50th sample, so a floor from a
        # strided maximum (-10.5) lies above the ground state (-14.72)
        prob, _ = narrow_well_problem()
        ground = narrow_well_ground_state()
        assert ground == pytest.approx(-14.72, abs=0.01)
        lams = forward._scan_samples(prob, 2, forward._make_engine(prob, "rk4"))[0]
        assert lams[0] < ground

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the whole 2 pi eigenphase turn of the ground state falls inside one "
        "negative-lam scan cell, so the count never sees it (ROADMAP item 3)",
    )
    def test_narrow_well_ground_state_found(self):
        prob, _ = narrow_well_problem()
        lowest = min(r.lam for r in forward.find_eigenvalues(prob, 2))
        assert lowest == pytest.approx(narrow_well_ground_state(), abs=0.05)

    def test_non_self_adjoint_raises(self):
        # a non-Hermitian Q makes W non-unitary (defect ~0.28)
        prob = Problem(PotentialGrid.constant(np.diag([0.05j, -0.05j]), 200),
                       Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        with pytest.raises(BracketExhaustionError, match="self-adjoint"):
            forward.find_eigenvalues(prob, 3)

    def test_near_double_probe_against_channel_oracles(self):
        # ROADMAP item 4(a): splits of ~1e-5 between channels 2 and 3; the
        # channels decouple, so m = 2 problems give each eigenvalue of the pair
        eps = 1e-5
        q1 = lambda x: 0.3 * np.sin(x)
        q2 = lambda x: 0.2 * np.cos(x)
        q3 = lambda x: (0.2 + eps) * np.cos(x) + eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recs = forward.find_eigenvalues(near_double_problem([q1, q2, q3], [1.0, 0.0, 0.0]), 6)
            oracle_a = forward.find_eigenvalues(near_double_problem([q1, q2], [1.0, 0.0]), 6)
            oracle_b = forward.find_eigenvalues(near_double_problem([q1, q3], [1.0, 0.0]), 6)
        resolved = merged = 0
        for n in range(1, 7):
            # slot 2 of each m = 2 band is its Dirichlet channel
            a, b = ([r.lam for r in o if r.band == n and r.slots == (2,)][0]
                    for o in (oracle_a, oracle_b))
            split, floor = abs(b - a), DEFAULT_TOL.mult_rel * (1.0 + a)
            pair = [r for r in recs if r.band == n and r.slots != (1,)]
            if split > 1.2 * floor:
                assert [r.multiplicity for r in pair] == [1, 1]
                np.testing.assert_allclose([r.lam for r in pair], sorted([a, b]), rtol=0, atol=1e-8)
                resolved += 1
            elif split < 0.8 * floor:
                assert [(r.multiplicity, r.slots) for r in pair] == [(2, (2, 3))]
                assert pair[0].lam == pytest.approx(0.5 * (a + b), abs=1e-8)
                merged += 1
        assert resolved >= 2 and merged >= 3

    @pytest.mark.parametrize("engine", ["rk4", "constant"])
    def test_scan_top_extends_to_the_count(self, engine):
        # constant Q = diag(10, -2.5), T = diag(1, 0): a Neumann channel at
        # 10 + (n - 1/2)^2 and a Dirichlet channel at -2.5 + n^2; the sixth
        # eigenvalue, 13.5, lies above the first scan top 3.45^2
        prob = Problem(PotentialGrid.constant(np.diag([10.0, -2.5]), 400),
                       Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        n = np.arange(1.0, 7.0)
        ref = np.sort(np.concatenate([10.0 + (n - 0.5) ** 2, -2.5 + n**2]))[:6]
        data = forward.spectral_data(prob, 3, engine=engine)
        lams = np.array([d.lam for d in data.data])
        assert np.all(np.abs(lams - ref) <= 1e-6 * (1.0 + np.abs(ref)))
        for i, d in enumerate(data.data):
            gap = min(abs(d.lam - o.lam) for j, o in enumerate(data.data) if j != i)
            oracle = forward.weight_matrix(prob, d.lam, gap=gap, engine=engine)
            assert np.linalg.norm(d.alpha - oracle, 2) / np.linalg.norm(oracle, 2) <= 1e-5

    @pytest.mark.parametrize("case", ["star", 0, 1, 2, 3, 4])
    def test_multiplicity_is_kernel_dimension(self, case, star_model):
        # independent oracle: V(S(pi, lam)) has exactly `multiplicity`
        # singular values below 1e-6 sigma_max at every returned eigenvalue
        if case == "star":
            prob, n_max = star_model, 3
        else:
            prob, n_max = random_general_problem(case, 2 + case % 2, 200), 4
            assert validate_problem(prob) == []
        recs = forward.find_eigenvalues(prob, n_max)
        if case == "star":
            assert sum(r.multiplicity == 2 for r in recs) == 3
        for rec in recs:
            v = forward.boundary_form(prob, forward.integrate(prob, rec.lam))
            sv = np.linalg.svd(v, compute_uv=False)
            assert int(np.sum(sv < 1e-6 * sv[0])) == rec.multiplicity, (rec, sv)


class TestWeylMatrix:
    def test_scalar_closed_form(self):
        prob = Problem(PotentialGrid.zeros(1, 1000), Projector(np.eye(1), 1),
                       BoundaryCoefficient.zero(1))
        lam = 0.17
        rho = np.sqrt(lam)
        got = forward.weyl_matrix(prob, lam).m_matrix[0, 0]
        assert got == pytest.approx(rho * np.tan(rho * np.pi), abs=1e-9)

    def test_hermitian_for_real_lambda(self, m2_problem):
        for lam in (0.1, 0.8, 2.0, 5.5):
            m = forward.weyl_matrix(m2_problem, lam).m_matrix
            assert np.linalg.norm(m - m.conj().T, 2) < 1e-6

    def test_large_negative_asymptote(self, m2_problem):
        devs = []
        for tau in (10.0, 20.0, 40.0):
            m = forward.weyl_matrix(m2_problem, -(tau**2)).m_matrix
            devs.append(np.linalg.norm(m / tau + np.eye(2), 2))
        assert devs[0] < 2.0 / 10 and devs[2] < 2.0 / 40
        assert devs[2] < devs[1] < devs[0]

    def test_weyl_solution_satisfies_boundary_condition(self, star_model):
        lam = 0.6
        sample = forward.weyl_matrix(star_model, lam)
        s = forward.integrate(star_model, lam, "S")
        c = forward.integrate(star_model, lam, "C")
        phi_end = c.y_end + s.y_end @ sample.m_matrix
        phip_end = c.yp_end + s.yp_end @ sample.m_matrix
        trace = SolutionTrace(lam, star_model.x[-1:], phi_end[None], phip_end[None])
        v = forward.boundary_form(star_model, trace)
        assert np.linalg.norm(v, 2) < 1e-8 * max(1.0, np.linalg.norm(sample.m_matrix, 2))

    def test_at_eigenvalue_error(self, star_model):
        with pytest.raises(AtEigenvalueError):
            forward.weyl_matrix(star_model, 0.25)


class TestWeightMatrix:
    def test_star_simple_weight(self, star_model):
        alpha = forward.weight_matrix(star_model, 0.25, gap=0.75)
        ref = 2 / np.pi * 0.25 * star_model.projector.matrix
        assert np.linalg.norm(alpha - ref, 2) / np.linalg.norm(ref, 2) < 1e-6

    def test_star_double_weight(self, star_model):
        alpha = forward.weight_matrix(star_model, 1.0, gap=0.75)
        ref = 2 / np.pi * star_model.projector.perp
        assert np.linalg.norm(alpha - ref, 2) / np.linalg.norm(ref, 2) < 1e-6

    def test_scalar_residue_oracle(self):
        # residue of rho tan(rho pi) at lam = (n - 1/2)^2 is -2 (n - 1/2)^2 / pi
        prob = Problem(PotentialGrid.zeros(1, 1000), Projector(np.eye(1), 1),
                       BoundaryCoefficient.zero(1))
        for n in (1, 2):
            lam = (n - 0.5) ** 2
            alpha = forward.weight_matrix(prob, lam, gap=2 * n - 1.0)
            assert alpha[0, 0].real == pytest.approx(2 * (n - 0.5) ** 2 / np.pi, rel=1e-8)

    def test_radius_halving_invariance(self, star_model):
        a1 = forward.weight_matrix(star_model, 2.25, radius=0.1)
        a2 = forward.weight_matrix(star_model, 2.25, radius=0.05)
        assert np.linalg.norm(a1 - a2, 2) < 1e-6

    def test_contour_clash(self, star_model):
        with pytest.raises(ContourClashError) as err:
            forward.weight_matrix(star_model, 2.25, gap=0.1, radius=0.09)
        assert err.value.suggested_radius == pytest.approx(0.1 / 3)


class TestSpectralData:
    def test_star_model_first_bands(self, star_model):
        data = forward.spectral_data(star_model, 2)
        t = star_model.projector.matrix
        tp = star_model.projector.perp
        for n in (1, 2):
            assert data.entry(n, 1).lam == pytest.approx((n - 0.5) ** 2, abs=1e-7)
            assert data.entry(n, 2).lam == pytest.approx(n**2, abs=2e-7)
            np.testing.assert_allclose(
                data.entry(n, 1).alpha, 2 / np.pi * (n - 0.5) ** 2 * t, atol=1e-6
            )
            np.testing.assert_allclose(data.entry(n, 2).alpha, 2 / np.pi * n**2 * tp, atol=1e-6)

    def test_block_diagonal_weights(self, m2_data):
        # decoupled channels: each weight lives in its own diagonal block,
        # and the Dirichlet channel weights equal the scalar residues exactly
        for n in (1, 2, 3):
            a1 = m2_data.entry(n, 1).alpha
            a2 = m2_data.entry(n, 2).alpha
            assert abs(a1[1, 1]) < 1e-8 and abs(a1[0, 1]) < 1e-8
            assert abs(a2[0, 0]) < 1e-8 and abs(a2[0, 1]) < 1e-8
            assert a2[1, 1].real == pytest.approx(2 * n**2 / np.pi, rel=1e-6)

    @pytest.mark.parametrize("case", ["star-double", "general", "near-double", "odd-grid"])
    def test_weights_match_residue_oracle(self, case, star_model):
        # alpha = C (C^dag G C)^{-1} C^dag against alpha = -Res M on a contour
        if case == "star-double":
            prob, n_max = star_model, 1
        elif case == "general":
            prob, n_max = general_problem(300), 6
        elif case == "near-double":
            # ROADMAP item 4(a) probe: splits of ~1e-4 between channels 2 and 3
            eps = 1e-4
            pot = PotentialGrid.diagonal(
                [lambda x: 0.3 * np.sin(x), lambda x: 0.2 * np.cos(x),
                 lambda x: (0.2 + eps) * np.cos(x) + eps], 600)
            prob, n_max = Problem(pot, Projector(np.diag([1.0, 0.0, 0.0]), 1),
                                  BoundaryCoefficient.zero(3)), 6
        else:
            prob, n_max = general_problem(999), 4
        data = forward.spectral_data(prob, n_max)
        alphas = {d.lam: d.alpha for d in data.data}
        lams = sorted(alphas)
        if case == "star-double":
            assert any(r.multiplicity == 2 for r in forward.find_eigenvalues(prob, n_max))
        if case == "near-double":
            assert len(lams) == 3 * n_max
        for i, lam in enumerate(lams):
            gap = min(np.diff(lams)[max(i - 1, 0): i + 1]) if len(lams) > 1 else 0.5
            ref = forward.weight_matrix(prob, lam, gap=float(gap))
            assert np.linalg.norm(alphas[lam] - ref, 2) / np.linalg.norm(ref, 2) <= 1e-5

    def test_no_contour_sweeps(self, m2_problem, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spectral_data integrated a residue contour")

        monkeypatch.setattr(forward._Rk4Engine, "sc_terminal", refuse)
        monkeypatch.setattr(forward, "weight_matrix", refuse)
        assert len(forward.spectral_data(m2_problem, 2).data) == 4

    def test_equal_lambda_equal_alpha(self, star_model):
        data = forward.spectral_data(star_model, 2)
        for n in (1, 2):
            assert data.entry(n, 2).lam == data.entry(n, 3).lam
            assert np.array_equal(data.entry(n, 2).alpha, data.entry(n, 3).alpha)

    def test_leading_weight_sum_trend(self, m2_data, m2_problem):
        # || pi / (2 (n-1/2)^2) alpha_n^I - T || shrinks as n grows
        t = m2_problem.projector.matrix
        devs = []
        for n in range(5, 13):
            a = m2_data.entry(n, 1).alpha
            devs.append(np.linalg.norm(np.pi / (2 * (n - 0.5) ** 2) * a - t, 2))
        assert devs[-1] < devs[0]
        assert np.polyfit(range(len(devs)), devs, 1)[0] < 0
