import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from msturm._closed import ConstantModel
from msturm.core import (
    BoundaryCoefficient,
    PotentialGrid,
    Problem,
    Projector,
    ReconstructionError,
    SpectralData,
    SpectralDatum,
    StageError,
)
from msturm import forward, graph, maineq, model, reconstruct
from msturm.maineq import build_groups, solve_on_grid
from msturm.model import collapse_weights, model_spectral_data
from msturm.reconstruct import (
    EpsilonTrace,
    InverseOptions,
    epsilon_series,
    recover_QH,
    sec6_closed_form,
    sec6_spectral_data,
    solve_inverse,
    stabilize_epsilon,
)
from oracles import dense_traces, recover_Q_direct


STAR_T = np.full((3, 3), 1.0 / 3.0)


def q_error(got: Problem, ref: Problem, interior=False) -> float:
    """Relative L2 error of Q, on (0.3, pi - 0.3) if ``interior``."""
    x = ref.x
    sel = (x > 0.3) & (x < np.pi - 0.3) if interior else np.ones(x.size, bool)
    dq = np.sum(np.abs(got.potential.samples - ref.potential.samples) ** 2, axis=(1, 2))
    norm = np.sum(np.abs(ref.potential.samples) ** 2, axis=(1, 2))
    return float(np.sqrt(np.trapezoid(dq[sel], x[sel]) / np.trapezoid(norm[sel], x[sel])))


class TestEpsilonSeries:
    def test_identical_data_vanishes(self, star_model):
        md = model_spectral_data(star_model, 6)
        wl = collapse_weights(md, 1)
        groups = build_groups(md, md, 1)
        cm = ConstantModel(np.zeros((3, 3)))
        x = np.linspace(0, np.pi, 101)
        psi = solve_on_grid(groups, wl, wl, cm, x)
        eps = epsilon_series(psi, cm)
        assert np.max(np.abs(eps.eps0)) == 0.0
        assert np.max(np.abs(eps.eps)) == 0.0

    def test_sec6_closed_form(self, sec6_result):
        cf = sec6_closed_form(0.3, sec6_result.epsilon.x)
        assert np.max(np.abs(sec6_result.epsilon.eps0 - cf.eps0)) < 1e-6

    def test_termwise_derivative_matches_finite_differences(self, sec6_result):
        eps = sec6_result.epsilon
        x = eps.x
        fd = np.gradient(eps.eps0, x, axis=0)
        inner = slice(50, len(x) - 50)
        assert np.max(np.abs(-2 * fd[inner] - eps.eps[inner])) < 1e-4

    def test_eps0_starts_at_zero(self, sec6_result):
        assert np.max(np.abs(sec6_result.epsilon.eps0[0])) == 0.0


class TestStabilize:
    def test_noop_on_smooth_series(self, sec6_result):
        stab, info = stabilize_epsilon(sec6_result.epsilon, 15)
        assert np.max(np.abs(stab.eps - sec6_result.epsilon.eps)) < 1e-8

    def test_removes_planted_truncation_residue(self):
        # residue shaped like a real truncation tail: several modes at and
        # above the cut frequency with 1/n amplitudes
        x = np.linspace(0, np.pi, 801)
        smooth = 0.4 * np.sin(x) - 0.1
        junk = sum(
            (0.6 / n) * np.cos(2 * n * x + 0.3 * n) for n in range(15, 22)
        ) * np.minimum(1, 31 * np.minimum(x, np.pi - x) / np.pi)
        eps = (smooth + junk)[:, None, None] * np.eye(1)
        trace = EpsilonTrace(x, np.zeros_like(eps), eps)
        stab, _ = stabilize_epsilon(trace, 15)
        inner = (x > 0.35) & (x < np.pi - 0.35)
        assert np.max(np.abs(stab.eps[inner, 0, 0] - smooth[inner])) < 0.25 * np.max(np.abs(junk))
        assert np.max(np.abs(stab.eps[:, 0, 0] - smooth)) < np.max(np.abs(junk))


    @pytest.mark.parametrize("n_bands, degree", [(5, 6), (6, 6), (12, 6), (15, 7), (30, 15)])
    def test_degree_follows_band_count(self, n_bands, degree):
        # one degree for every entry: max(6, N // 2), below the top degree 2N - 4
        x = np.linspace(0, np.pi, 1001)
        junk = sum((0.3 / n) * np.cos(2 * n * x + 0.3 * n) for n in range(n_bands, n_bands + 6))
        eps = np.empty((x.size, 2, 2), complex)
        eps[:, 0, 0] = 0.3 + 0.1 * x + junk
        eps[:, 1, 1] = np.sin(5 * x) * np.exp(-x) + junk
        eps[:, 0, 1] = (0.2 + 0.1j) * np.cos(3 * x) + 1e-3 * junk
        eps[:, 1, 0] = np.conj(eps[:, 0, 1])
        _, info = stabilize_epsilon(EpsilonTrace(x, np.zeros_like(eps), eps), n_bands)
        assert info["degree"] == degree and info["applied"]

    @pytest.mark.parametrize("grid", [1, 2, 3])
    def test_fewer_than_three_interior_nodes_refused(self, sec6_data, capfd, grid):
        # 15 bands trim 0.15 from each end: grid 3 keeps 2 nodes, which a
        # degree-1 fit interpolates, so its residual gate would pass on zero
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(StageError) as err:
                solve_inverse(sec6_data, InverseOptions(n_grid=grid))
        assert not seen
        assert err.value.stage == "stabilize"
        assert isinstance(err.value.cause, ReconstructionError)
        for part in (f"n_grid = {grid}", f"leaves {grid - 1} grid nodes", "at 15 bands"):
            assert part in str(err.value)
        assert "DLASCL" not in "".join(capfd.readouterr())

    def test_three_interior_nodes_suffice(self, sec6_data):
        result = solve_inverse(sec6_data, InverseOptions(n_grid=4))
        assert result.problem.potential.samples.shape[0] == 5


class TestRecoverQH:
    def test_zero_epsilon_returns_model(self, star_model):
        x = star_model.x
        z = np.zeros((x.size, 3, 3), dtype=complex)
        eps = EpsilonTrace(x, z, z)
        rec, _, _ = recover_QH(star_model, eps, eps)
        assert np.max(np.abs(rec.potential.samples)) == 0.0
        assert np.max(np.abs(rec.boundary.matrix)) == 0.0

    def test_sec6_boundary_scalar(self, sec6_result):
        h = float(np.real(np.trace(STAR_T @ sec6_result.problem.boundary.matrix @ STAR_T)))
        assert abs(h + 0.361838) < 5e-3

    def test_hermiticity_guard(self, star_model):
        x = star_model.x
        eps = np.zeros((x.size, 3, 3), dtype=complex)
        eps[:, 0, 1] = 1e-3  # blatantly non-Hermitian
        trace = EpsilonTrace(x, np.zeros_like(eps), eps)
        with pytest.raises(ReconstructionError):
            recover_QH(star_model, trace, trace)

    def test_hermiticity_abort_reads_the_raw_series(self, m2_data, monkeypatch):
        # an anti-Hermitian term in the raw series must abort even where the
        # stabilizer applies and returns a Hermitian series
        raw_series, stabilize = reconstruct.epsilon_series, reconstruct.stabilize_epsilon
        applied = []

        def skewed(psi, cm):
            eps = raw_series(psi, cm)
            return EpsilonTrace(eps.x, eps.eps0, eps.eps + 1e-3j * np.eye(eps.eps.shape[1]))

        def spy(eps, n_bands):
            out = stabilize(eps, n_bands)
            applied.append(out[1]["applied"])
            return out

        monkeypatch.setattr(reconstruct, "epsilon_series", skewed)
        monkeypatch.setattr(reconstruct, "stabilize_epsilon", spy)
        with pytest.raises(StageError) as err:
            solve_inverse(m2_data, InverseOptions(n_grid=300))
        assert err.value.stage == "recover"
        assert isinstance(err.value.cause, ReconstructionError)
        assert applied == [True]

    def test_recovered_h_exactly_compatible(self, sec6_result):
        h = sec6_result.problem.boundary.matrix
        t = sec6_result.problem.projector.matrix
        assert np.array_equal(h, h.conj().T)
        np.testing.assert_allclose(t @ h @ t, h, atol=1e-15)


class TestRecoverQDirect:
    def test_model_solution_recovers_zero(self, star_model):
        x = star_model.x
        cm = ConstantModel(np.zeros((3, 3)))
        lam = 2.25
        values = dense_traces(cm, x, [lam])[0][:, 0]
        q, mask = recover_Q_direct(values, lam, x)
        assert mask[1:-1].any()
        assert np.max(np.abs(q[mask])) < 1e-3

    def test_sec6_consistency_with_series_route(self, sec6_result):
        psi = sec6_result.psi
        i110 = psi.slot_index[(1, 1, 0)]
        lam = psi.lams[i110]
        q, mask = recover_Q_direct(psi.values[:, i110], lam, psi.x)
        ref = sec6_result.problem.potential.samples
        sel = mask.copy()
        sel[:5] = False  # S vanishes linearly at the left end
        assert np.max(np.abs(q[sel] - ref[sel])) < 1e-3

    def test_singular_nodes_masked(self, star_model):
        x = star_model.x
        cm = ConstantModel(np.zeros((3, 3)))
        # sin(2x)/2 I vanishes at the interior node x = pi/2 exactly
        values = dense_traces(cm, x, [4.0])[0][:, 0]
        q, mask = recover_Q_direct(values, 4.0, x)
        mid = x.size // 2
        assert not mask[mid]
        assert mask[mid - 10] and mask[mid + 10]


class TestSolveInverse:
    def test_model_data_fixed_point(self, star_model):
        data = model_spectral_data(star_model, 8)
        res = solve_inverse(data, InverseOptions(n_grid=400))
        assert np.max(np.abs(res.problem.potential.samples)) < 1e-8
        assert np.max(np.abs(res.problem.boundary.matrix)) < 1e-8
        assert res.diagnostics.lam_xi < 1e-12

    def test_overlapping_model_blocks_round_trip(self):
        # Q = diag(0.3 sin x, 2): the comparison model's range(I - T) block
        # sits 2 above its range(T) block, so their eigenvalues interleave
        # across bands and the closed form must order them globally
        pot = PotentialGrid.diagonal([lambda x: 0.3 * np.sin(x), lambda x: 2.0], 400)
        prob = Problem(pot, Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        res = solve_inverse(forward.spectral_data(prob, 15), InverseOptions(n_grid=400))
        x = prob.x
        dq = np.sum(np.abs(res.problem.potential.samples - pot.samples) ** 2, axis=(1, 2))
        ref = np.sum(np.abs(pot.samples) ** 2, axis=(1, 2))
        assert np.sqrt(np.trapezoid(dq, x) / np.trapezoid(ref, x)) <= 0.05
        assert np.linalg.norm(res.problem.boundary.matrix, 2) <= 1e-2

    def test_general_case_round_trip(self):
        # coupled complex Q, rotated rank-one T, H = 0.3 T at 15 bands and
        # grid 1000; bounds: measured 2.003e-3 and 2.076e-3, plus 5 %
        from test_forward import general_problem

        prob = general_problem(1000)
        res = solve_inverse(forward.spectral_data(prob, 15), InverseOptions(n_grid=1000))
        rel = q_error(res.problem, prob, interior=True)
        dh = np.linalg.norm(res.problem.boundary.matrix - prob.boundary.matrix, 2)
        assert rel <= 2.1e-3 and dh <= 2.2e-3, (rel, dh)

    def test_general_case_converges_in_the_band_count(self):
        # the stabilizer's degree follows N, so the interior error falls
        # with the bands; bounds: measured 1.955e-3, 9.848e-4, 6.567e-4
        # and 3.972e-4, plus 5 %.  The data come from grid 4000: from grid
        # 1000 the RK4 error of the top bands spoils 25 bands.  About 2 s.
        from test_forward import general_problem

        data = forward.spectral_data(general_problem(4000), 25)
        prob = general_problem(1000)
        errs = [
            q_error(solve_inverse(data.truncate(n), InverseOptions(n_grid=1000)).problem, prob, interior=True)
            for n in (12, 15, 20, 25)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:])), errs
        assert all(e <= b for e, b in zip(errs, (2.053e-3, 1.034e-3, 6.895e-4, 4.170e-4))), errs

    def test_coarse_grid_still_stabilized(self):
        # 19 interior nodes: a fit of the top degree 26 would interpolate
        # them, its zero residual would pass the smooth gate and leave the
        # truncation residue in Q (relative error 0.12)
        from test_forward import general_problem

        data = forward.spectral_data(general_problem(600), 15)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.RankWarning)
            res = solve_inverse(data, InverseOptions(n_grid=20))
        assert res.diagnostics.stabilize_info["applied"]
        assert q_error(res.problem, general_problem(20)) <= 0.05

    def test_end_fill_takes_three_nodes_on_a_coarse_grid(self):
        # at grid 12 the fixed end window holds only 2 interior nodes, too
        # few for the quadratic continuation (NumPy warned of a rank-deficient fit)
        from test_forward import general_problem

        data = forward.spectral_data(general_problem(600), 15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_inverse(data, InverseOptions(n_grid=12))
        assert res.diagnostics.stabilize_info["applied"]
        assert np.all(np.isfinite(res.problem.potential.samples))

    @given(
        theta=st.floats(0.0, np.pi),
        phi=st.floats(0.0, 2.0 * np.pi),
        amps=st.tuples(st.floats(0.1, 0.6), st.floats(0.1, 0.6)),
        coupling=st.floats(0.0, 0.3),
        h=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=8, deadline=None, derandomize=True, database=None,
              phases=[Phase.generate])
    @pytest.mark.xfail(strict=True, reason=(
        "5 of the 8 drawn cases miss criterion 5 at 10 bands, the worst with a Q error "
        "of 0.179 (theta 0.281, phi 0.450, amplitudes 0.244 and 0.396, coupling 0.202, "
        "h -0.251): inside the fitted interval its raw series is off by up to 0.13 "
        "within 0.6 of pi, and the error falls with more bands"))
    def test_general_round_trip_property(self, theta, phi, amps, coupling, h):
        # criterion 5 on random general cases: rotated rank-one T, coupled
        # complex Q, H = h T; 10 bands, grid 300.  Generation stops at the
        # first failing case; shrinking it would take a minute
        u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        u = u * np.array([1.0, np.exp(1j * phi)])
        x = np.linspace(0.0, np.pi, 301)
        q0 = np.zeros((x.size, 2, 2), complex)
        q0[:, 0, 0] = amps[0] * np.sin(x)
        q0[:, 1, 1] = amps[1] * np.sin(2.0 * x)
        q0[:, 0, 1] = q0[:, 1, 0] = coupling * np.sin(x)
        t = u @ np.diag([1.0, 0.0]) @ u.conj().T
        t = 0.5 * (t + t.conj().T)
        prob = Problem(PotentialGrid(u @ q0 @ u.conj().T), Projector(t, 1), BoundaryCoefficient(h * t))
        res = solve_inverse(forward.spectral_data(prob, 10), InverseOptions(n_grid=300))
        dh = np.linalg.norm(res.problem.boundary.matrix - prob.boundary.matrix, 2)
        assert q_error(res.problem, prob) <= 0.05 and dh <= 1e-2

    def test_non_constant_model_override_refused(self, star_model):
        data = model_spectral_data(star_model, 8)
        bumped = PotentialGrid.diagonal([np.sin, lambda x: 0.0, lambda x: 0.0], 50)
        override = Problem(bumped, star_model.projector, star_model.boundary)
        with pytest.raises(StageError) as err:
            solve_inverse(data, InverseOptions(n_grid=50, model_override=(override, data)))
        assert err.value.stage == "model"

    def test_stage_error_carries_stage_name(self):
        datums = (
            SpectralDatum(1, 1, 4.0, np.eye(2)),
            SpectralDatum(1, 2, 1.0, np.eye(2)),
        )
        bad = SpectralData(datums, 1)
        with pytest.raises(StageError) as err:
            solve_inverse(bad)
        assert err.value.stage == "validate"

    def test_stage_names(self, sec6_result):
        # profiling and run reports sum stage_seconds by these names
        assert list(sec6_result.diagnostics.stage_seconds) == [
            "validate", "shift", "estimate-p", "collapse", "asymptotics", "model",
            "model-data", "collapse-model", "grouping", "main-equation", "epsilon",
            "stabilize", "recover", "diagnostics",
        ]

    def test_sec6_spectral_fidelity(self, sec6_result, sec6_data):
        # forward data of the recovered problem reproduces the input
        back = forward.spectral_data(sec6_result.problem, 4)
        for n in range(1, 5):
            for k in (1, 2, 3):
                assert back.entry(n, k).lam == pytest.approx(
                    sec6_data.entry(n, k).lam, abs=1e-3
                )
                a_in = sec6_data.entry(n, k).alpha
                a_out = back.entry(n, k).alpha
                assert np.linalg.norm(a_out - a_in, 2) <= 1e-2 * np.linalg.norm(a_in, 2)

    def test_characteristic_vanishes_at_recovered_eigenvalues(self, sec6_result):
        # the roots sit at the nominal values to 1e-6; the determinant value
        # at the nominal point scales with its local slope
        import scipy.optimize as so

        prob = sec6_result.problem
        for lam in (0.09, 2.25):
            assert abs(forward.characteristic(prob, lam)) < 1e-4
            root = so.brentq(
                lambda l: np.real(forward.characteristic(prob, l)),
                lam - 0.02, lam + 0.02, xtol=1e-12,
            )
            assert abs(root - lam) < 1e-6


class TestSec6ClosedForm:
    def test_x_zero_identities(self):
        cf = sec6_closed_form(0.3, np.array([0.0]))
        assert cf.f11[0] == pytest.approx(1.0)
        assert cf.f22[0] == pytest.approx(1.0)
        assert cf.f12[0] == pytest.approx(0.0)
        assert cf.d0[0] == pytest.approx(1.0)
        assert np.max(np.abs(cf.eps0[0])) == 0.0

    def test_h_value(self):
        cf = sec6_closed_form(0.3, np.linspace(0, np.pi, 2001))
        assert abs(cf.h + 0.361838) < 5e-6

    def test_a_validation(self):
        for bad in (0.5, 1.0, -0.1):
            with pytest.raises(ValueError):
                sec6_closed_form(bad, np.array([0.1]))
            with pytest.raises(ValueError):
                sec6_spectral_data(bad)

    def test_a_zero_is_regular(self):
        cf = sec6_closed_form(0.0, np.array([0.0, 1.0, np.pi]))
        assert np.all(np.isfinite(cf.s110))
        # sin(a x)/a -> x as a -> 0
        assert cf.s110[1, 1, 0] == pytest.approx(cf.s110[1, 0, 1])

    def test_midpoint_matches_pipeline(self, sec6_result):
        cf = sec6_closed_form(0.3, sec6_result.psi.x)
        i110 = sec6_result.psi.slot_index[(1, 1, 0)]
        assert np.max(np.abs(sec6_result.psi.values[:, i110] - cf.s110)) < 1e-8


def test_sec6_data_matches_displayed_values():
    data = sec6_spectral_data(0.3, 2)
    assert data.entry(1, 1).lam == pytest.approx(0.09)
    assert data.entry(1, 2).lam == 1.0 and data.entry(1, 3).lam == 1.0
    np.testing.assert_allclose(data.entry(1, 1).alpha, STAR_T / (2 * np.pi), atol=1e-15)
    np.testing.assert_allclose(
        data.entry(2, 2).alpha, 8 / np.pi * (np.eye(3) - STAR_T), atol=1e-15
    )


def test_one_assembly_per_inverse(sec6_data, star_data, monkeypatch):
    """The main system is grouped, collapsed and assembled once per inverse."""
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    build, collapse = maineq.build_groups, model.collapse_weights
    monkeypatch.setattr(maineq.MainAssembly, "__init__", counted("assembly", maineq.MainAssembly.__init__))
    for mod in (maineq, reconstruct, graph):
        monkeypatch.setattr(mod, "build_groups", counted("groups", build))
    for mod in (model, reconstruct, graph):
        monkeypatch.setattr(mod, "collapse_weights", counted("collapse", collapse))
    opts = InverseOptions(n_grid=300)
    solve_inverse(sec6_data, opts)
    assert calls == {"assembly": 1, "groups": 1, "collapse": 2}

    locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
    mset = graph.derive_star_models(locals_)
    calls.clear()
    graph.solve_local_inverse(1, locals_[0], mset.edge_model(1), opts)
    assert calls == {"assembly": 1, "groups": 1, "collapse": 2}
