import numpy as np
import pytest

from msturm.core import (
    BoundaryCoefficient,
    InconclusiveRankError,
    NoisyDataError,
    PotentialGrid,
    Problem,
    Projector,
    SpectralData,
    SpectralDatum,
)
from msturm import forward, model

STAR_T = np.full((3, 3), 1.0 / 3.0)
STAR_TP = np.eye(3) - STAR_T


def synthetic_data(rho_of, alpha_of, n_bands, m_slots):
    datums = []
    for n in range(1, n_bands + 1):
        for k in range(1, m_slots + 1):
            rho = rho_of(n, k)
            datums.append(SpectralDatum(n, k, rho**2, alpha_of(n, k)))
    return SpectralData(tuple(datums), n_bands)


class TestCollapseWeights:
    def test_sec6_duplicates_zeroed(self, sec6_data):
        w = model.collapse_weights(sec6_data, 1)
        assert w.alpha.shape == (15, 3, 3, 3)
        for n in range(1, 16):
            assert np.any(w.alpha[n - 1, 1])
            assert not np.any(w.alpha[n - 1, 2])
        np.testing.assert_allclose(w.alpha[1, :1].sum(axis=0), 2 / np.pi * 1.5**2 * STAR_T, atol=1e-14)
        np.testing.assert_allclose(w.alpha[1, 1:].sum(axis=0), 2 / np.pi * 4 * STAR_TP, atol=1e-14)

    def test_all_simple_keeps_everything(self):
        data = synthetic_data(
            lambda n, k: n - 0.5 + 0.1 * k, lambda n, k: np.eye(2) * n * k, 3, 2
        )
        w = model.collapse_weights(data, 1)
        assert w.alpha.shape == (3, 2, 2, 2)
        for val in w.alpha.reshape(-1, 2, 2):
            assert np.any(val)

    def test_triple_eigenvalue(self):
        alpha = np.eye(3)
        data = synthetic_data(lambda n, k: float(n), lambda n, k: alpha, 2, 3)
        w = model.collapse_weights(data, 1)
        for n in (1, 2):
            assert np.any(w.alpha[n - 1, 0])
            assert not np.any(w.alpha[n - 1, 1])
            assert not np.any(w.alpha[n - 1, 2])

    def test_triple_eigenvalue_across_bands(self):
        # m = 2: slots (1, 2), (2, 1) and (2, 2) hold one triple eigenvalue
        rho = {(1, 1): 0.5, (1, 2): 1.0, (2, 1): 1.0, (2, 2): 1.0, (3, 1): 2.5, (3, 2): 3.0}
        data = synthetic_data(lambda n, k: rho[(n, k)], lambda n, k: np.eye(2) * rho[(n, k)], 3, 2)
        w = model.collapse_weights(data, 1)
        kept = {(n + 1, k + 1) for n, k in zip(*np.nonzero(np.any(w.alpha, axis=(2, 3))))}
        assert kept == {(1, 1), (1, 2), (3, 1), (3, 2)}
        np.testing.assert_array_equal(w.alpha[0, 1], np.eye(2))


class TestEstimateP:
    def test_sec6(self, sec6_data):
        assert model.estimate_p(sec6_data) == 1

    def test_exact_split(self):
        data = synthetic_data(
            lambda n, k: (n - 0.5) if k == 1 else float(n),
            lambda n, k: np.eye(2),
            8,
            2,
        )
        assert model.estimate_p(data) == 1

    def test_drifting_half_integers(self):
        # both slots stay nearer half-integers than integers
        data = synthetic_data(
            lambda n, k: n - 0.5 + 0.3 / n * (1 if k == 2 else -1),
            lambda n, k: np.eye(2),
            8,
            2,
        )
        assert model.estimate_p(data) == 2

    def test_needs_five_bands(self):
        data = synthetic_data(lambda n, k: n - 0.5, lambda n, k: np.eye(1), 4, 1)
        with pytest.raises(InconclusiveRankError):
            model.estimate_p(data)

    def test_ambiguous_votes(self):
        # slot alternates between the two clusters band by band
        data = synthetic_data(
            lambda n, k: (n - 0.5) if n % 2 else float(n),
            lambda n, k: np.eye(1),
            8,
            1,
        )
        with pytest.raises(InconclusiveRankError):
            model.estimate_p(data)


class TestEstimateT:
    def test_sec6_star_projector(self, sec6_data):
        w = model.collapse_weights(sec6_data, 1)
        t = model.estimate_T(w)
        assert np.max(np.abs(t - STAR_T)) < 1e-8

    def test_exact_model_data(self):
        t = np.diag([1.0, 0.0])
        data = synthetic_data(
            lambda n, k: (n - 0.5) if k == 1 else float(n),
            lambda n, k: 2 * (n - 0.5) ** 2 / np.pi * t if k == 1 else 2 * n**2 / np.pi * (np.eye(2) - t),
            8,
            2,
        )
        w = model.collapse_weights(data, 1)
        np.testing.assert_allclose(model.estimate_T(w), t, atol=1e-12)

    def test_perturbed_weights_round_to_projector(self):
        t = np.diag([1.0, 0.0])
        data = synthetic_data(
            lambda n, k: (n - 0.5) if k == 1 else float(n),
            lambda n, k: (
                2 * (n - 0.5) ** 2 / np.pi * t * (1 + 0.1 / n)
                if k == 1
                else 2 * n**2 / np.pi * (np.eye(2) - t)
            ),
            10,
            2,
        )
        w = model.collapse_weights(data, 1)
        got = model.estimate_T(w)
        np.testing.assert_allclose(got, t, atol=1e-12)
        # rounding is idempotent: feeding the projector-limit data back is stable
        assert np.allclose(got @ got, got, atol=1e-13)

    def test_noisy_data_error(self):
        rng = np.random.default_rng(0)
        data = synthetic_data(
            lambda n, k: (n - 0.5) if k == 1 else float(n),
            lambda n, k: 2 * n**2 / np.pi * np.diag(rng.uniform(0, 1, 2)),
            8,
            2,
        )
        w = model.collapse_weights(data, 1)
        with pytest.raises(NoisyDataError):
            model.estimate_T(w)


class TestEstimateZATheta:
    def test_sec6_all_zero(self, sec6_data):
        w = model.collapse_weights(sec6_data, 1)
        s = model.estimate_z_A_Theta(sec6_data, w, 1)
        np.testing.assert_allclose(s.z, 0.0, atol=1e-12)
        np.testing.assert_allclose(s.theta, 0.0, atol=1e-12)
        assert s.s_set == [1, 2]
        np.testing.assert_allclose(s.a_mats[1], STAR_T, atol=1e-10)
        np.testing.assert_allclose(s.a_mats[2], STAR_TP, atol=1e-10)

    def test_exact_drift_recovered(self):
        z = 0.37
        data = synthetic_data(
            lambda n, k: n - 0.5 + z / (np.pi * (n - 0.5)),
            lambda n, k: 2 * (n - 0.5) ** 2 / np.pi * np.eye(1),
            10,
            1,
        )
        # direct limit inversion: the fit reproduces the planted coefficient
        w = model.collapse_weights(data, 1)
        got = model.fit_drifts(data, 1)
        assert got[0] == pytest.approx(z, abs=1e-6)

    def test_constant_potential_dual_route(self):
        # data generated from Q = c I; oracle = direct evaluation of the
        # defining restrictions (forward_asymptotics)
        c = 0.22
        t = Projector(np.diag([1.0, 0.0]), 1)
        prob = Problem(PotentialGrid.constant(c * np.eye(2), 200), t, BoundaryCoefficient.zero(2))
        data = model.model_spectral_data(prob, 12)
        w = model.collapse_weights(data, 1)
        s = model.estimate_z_A_Theta(data, w, 1)
        direct = model.forward_asymptotics(prob)
        np.testing.assert_allclose(s.z, direct.z, atol=1e-4)
        np.testing.assert_allclose(s.theta, direct.theta, atol=1e-4)
        np.testing.assert_allclose(direct.z, np.pi * c / 2 * np.ones(2), atol=1e-12)
        np.testing.assert_allclose(direct.theta, np.pi * c / 2 * np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("fixture", ["sec6_data", "m2_data"])
    def test_one_fit_matches_a_per_slot_and_per_class_loop(self, request, fixture):
        data = request.getfixturevalue(fixture)
        p = model.estimate_p(data)
        w = model.collapse_weights(data, p)
        s = model.estimate_z_A_Theta(data, w, p)
        window = model._fit_window(data.n_bands)
        ns = np.asarray(window, dtype=float)
        rho = np.sqrt(data.lam[window - 1])
        z_ref = []
        for k in range(data.m_slots):
            centers = ns - 0.5 if k < p else ns
            z_ref.append(model._limit_fit(ns, (rho[:, k] - centers) * np.pi * centers)[0])
        np.testing.assert_allclose(s.z, z_ref, rtol=0, atol=1e-15)
        a_ref, theta_ref, resid_ref = {}, 0.0, 0.0
        for cls in model._class_partition(s.z, p, 1e-3):
            sigma = ns - 0.5 if cls[0] < p else ns
            vals = np.stack([
                np.pi / (2.0 * sig**2) * sum(w.alpha[n - 1, k] for k in cls)
                for n, sig in zip(window, sigma)
            ])
            a_ref[cls[0] + 1], resid = model._limit_fit(ns, vals)
            resid_ref = max(resid_ref, resid)
            theta_ref = theta_ref + s.z[cls[0]] * a_ref[cls[0] + 1]
        assert len(a_ref) >= 2
        assert s.s_set == list(a_ref)
        for key, ref in a_ref.items():
            np.testing.assert_allclose(s.a_mats[key], ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(s.theta, 0.5 * (theta_ref + theta_ref.conj().T), rtol=0, atol=1e-15)
        assert s.fit_residual == pytest.approx(resid_ref, rel=0, abs=1e-15)

    def test_marginal_grouping_warns(self):
        # the two trailing-cluster drifts sit tol_z apart, so halving or
        # doubling the grouping tolerance changes the class structure
        dz = 1.1e-3
        def rho_of(n, k):
            if k == 1:
                return n - 0.5
            return n + (0.0 if k == 2 else dz) / (np.pi * n)

        def alpha_of(n, k):
            e = np.zeros((3, 3))
            e[k - 1, k - 1] = 1.0
            return (2 * (n - 0.5) ** 2 / np.pi if k == 1 else 2 * n**2 / np.pi) * e

        data = synthetic_data(rho_of, alpha_of, 10, 3)
        w = model.collapse_weights(data, 1)
        s = model.estimate_z_A_Theta(data, w, 1)
        assert s.warnings


class TestBuildModel:
    def test_sec6_model(self, sec6_data):
        w = model.collapse_weights(sec6_data, 1)
        s = model.estimate_z_A_Theta(sec6_data, w, 1)
        prob = model.build_model(s, n_grid=100)
        assert np.max(np.abs(prob.potential.samples)) < 1e-12
        assert np.max(np.abs(prob.boundary.matrix)) == 0.0
        np.testing.assert_allclose(prob.projector.matrix, STAR_T, atol=1e-8)

    def test_constant_theta_scaling(self):
        s = model.AsymptoticSummary(
            p=1,
            t_est=STAR_T,
            z=np.zeros(3),
            a_mats={},
            theta=0.4 * STAR_T,
            s_set=[1],
        )
        prob = model.build_model(s, n_grid=10)
        np.testing.assert_allclose(
            prob.potential.samples[0], 2 * 0.4 / np.pi * STAR_T, atol=1e-14
        )

    def test_theta_consistency_roundtrip(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3))
        theta = STAR_T @ (a + a.T) @ STAR_T + STAR_TP @ (a + a.T) @ STAR_TP
        s = model.AsymptoticSummary(
            p=1, t_est=STAR_T, z=np.zeros(3), a_mats={}, theta=theta, s_set=[1]
        )
        prob = model.build_model(s, n_grid=40)
        back = model.forward_asymptotics(prob)
        np.testing.assert_allclose(back.theta, theta, atol=1e-12)


class TestModelSolution:
    def test_zero_theta(self, star_model):
        tr = model.model_solution(star_model, 4.0)
        ref = np.sin(2 * tr.x) / 2
        np.testing.assert_allclose(tr.y, ref[:, None, None] * np.eye(3), atol=1e-13)

    def test_block_formula(self):
        c = 0.5
        prob = Problem(
            PotentialGrid.constant(c * STAR_T, 50), Projector.star(3), BoundaryCoefficient.zero(3)
        )
        lam = 2.0
        tr = model.model_solution(prob, lam)
        sig_t = np.sqrt(lam - c)
        sig_p = np.sqrt(lam)
        ref = (
            np.sin(sig_t * tr.x)[:, None, None] / sig_t * STAR_T
            + np.sin(sig_p * tr.x)[:, None, None] / sig_p * STAR_TP
        )
        np.testing.assert_allclose(tr.y, ref, atol=1e-12)

    def test_random_hermitian_against_rk4(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c = 0.3 * (a + a.conj().T) / 2
        prob = Problem(PotentialGrid.constant(c, 1000), Projector.star(3), BoundaryCoefficient.zero(3))
        for lam in (0.4, 2.7):
            cf = model.model_solution(prob, lam)
            rk = forward.integrate(prob, lam)
            assert np.max(np.abs(cf.y - rk.y)) < 1e-9


class TestModelSpectralData:
    def test_matches_generic_finder_on_commuting_model(self):
        # the second model's blocks interleave across bands: its first band
        # holds 0.15 and 2.15 from range(T) and one of the two slots of the
        # double eigenvalue 3 from range(I - T); the other opens band 2
        for q in (0.3 * STAR_T - 0.1 * STAR_TP, -0.1 * STAR_T + 2.0 * STAR_TP):
            prob = Problem(
                PotentialGrid.constant(q, 800), Projector.star(3), BoundaryCoefficient.zero(3)
            )
            closed = model.model_spectral_data(prob, 3)
            found = forward.spectral_data(prob, 3, engine="rk4")
            for n in range(1, 4):
                for k in range(1, 4):
                    assert closed.entry(n, k).lam == pytest.approx(found.entry(n, k).lam, abs=3e-7)
                    assert (
                        np.linalg.norm(closed.entry(n, k).alpha - found.entry(n, k).alpha, 2) < 1e-6
                    )

    def test_requires_commutation(self):
        q = np.diag([0.3, 0.0, 0.0])
        prob = Problem(PotentialGrid.constant(q, 50), Projector.star(3), BoundaryCoefficient.zero(3))
        with pytest.raises(ValueError):
            model.model_spectral_data(prob, 3)


class TestForwardAsymptotics:
    def test_zero_problem(self, star_model):
        s = model.forward_asymptotics(star_model)
        np.testing.assert_allclose(s.z, 0.0, atol=1e-14)
        np.testing.assert_allclose(s.theta, 0.0, atol=1e-14)

    def test_boundary_coupling_only(self):
        c = 0.4
        t = np.diag([1.0, 0.0])
        prob = Problem(PotentialGrid.zeros(2, 60), Projector(t, 1), BoundaryCoefficient(c * t))
        s = model.forward_asymptotics(prob)
        assert s.z[0] == pytest.approx(-c, abs=1e-14)
        assert s.z[1] == pytest.approx(0.0, abs=1e-14)

    def test_theta_identity_through_class_projectors(self, m2_problem):
        s = model.forward_asymptotics(m2_problem)
        total = sum(s.z[si - 1] * s.a_mats[si] for si in s.s_set)
        np.testing.assert_allclose(total, s.theta, atol=1e-12)

    def test_drift_matches_measured_spectrum(self, sec6_result):
        # fitted eigenvalue drift of the recovered problem tracks the
        # directly computed coefficient
        prob = sec6_result.problem
        s = model.forward_asymptotics(prob)
        recs = forward.find_eigenvalues(prob, 10)
        rho1 = np.asarray(
            sorted(np.sqrt(r.lam) for r in recs if r.slots[0] == 1)
        )
        ns = np.arange(1, 11)
        drift = (rho1 - (ns - 0.5)) * np.pi * (ns - 0.5)
        fit = np.polyfit(1.0 / ns[4:], drift[4:], 1)[1]
        assert fit == pytest.approx(s.z[0], abs=2e-3)


def test_band_drift_square_summable_trend(m2_data):
    # with a matched model the weighted square-root gaps taper off:
    # the tail of sum (n drho_n)^2 over the last bands is a small fraction
    p = model.estimate_p(m2_data)
    w = model.collapse_weights(m2_data, p)
    s = model.estimate_z_A_Theta(m2_data, w, p)
    mp = model.build_model(s, n_grid=50)
    md = model.model_spectral_data(mp, m2_data.n_bands)
    rho_l = np.sqrt(m2_data.lam)
    rho_m = np.sqrt(md.lam)
    ns = np.arange(1, m2_data.n_bands + 1)[:, None]
    terms = np.sum((ns * (rho_l - rho_m)) ** 2, axis=1)
    assert np.sum(terms[9:]) < 0.1 * np.sum(terms)
