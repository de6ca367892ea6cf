from dataclasses import replace

import numpy as np
import pytest

from msturm._closed import ConstantModel
from msturm.core import (
    DEFAULT_TOL,
    DimensionError,
    ReconstructionError,
    SpectralData,
    SpectralDatum,
    StageError,
    validate_problem,
)
from msturm import core, forward, graph
from msturm.model import model_spectral_data
from msturm.reconstruct import InverseOptions, solve_inverse
from oracles import d_kernel


class TestGraphToMatrix:
    def test_zero_star_equals_reference_model(self, star_model):
        g = graph.StarGraphProblem(np.zeros((3, 1001)))
        prob = graph.graph_to_matrix(g)
        np.testing.assert_array_equal(prob.projector.matrix, star_model.projector.matrix)
        np.testing.assert_array_equal(prob.boundary.matrix, star_model.boundary.matrix)
        np.testing.assert_array_equal(prob.potential.samples, star_model.potential.samples)

    def test_equal_edges_give_scalar_multiple_of_identity(self):
        g = graph.StarGraphProblem.from_callables([np.sin, np.sin], 50)
        prob = graph.graph_to_matrix(g)
        q = prob.potential.samples
        np.testing.assert_allclose(q, q[:, 0, 0][:, None, None] * np.eye(2), atol=1e-15)

    def test_result_is_valid(self, star_problem):
        assert validate_problem(graph.graph_to_matrix(star_problem)) == []


class TestLocalData:
    def test_extract_diagonal(self, star_data):
        local = graph.extract_local_data(star_data, 1)
        assert local.data.dim == 1
        assert local.data.m_slots == 3
        for d in local.data.data:
            assert d.alpha[0, 0].real >= -1e-10

    @pytest.mark.parametrize("edge", [0, -1, 4])
    def test_edge_out_of_range_rejected(self, star_data, edge):
        with pytest.raises(DimensionError, match=f"edge {edge} outside 1..3"):
            graph.extract_local_data(star_data, edge)

    def test_negative_diagonal_rejected(self, star_data):
        from msturm.core import SpectralData, SpectralDatum

        bad = SpectralData(
            tuple(
                SpectralDatum(d.n, d.k, d.lam, -d.alpha) for d in star_data.data
            ),
            star_data.n_bands,
        )
        with pytest.raises(DimensionError):
            graph.extract_local_data(bad, 1)


class TestDiagonalityPropagation:
    def test_traces_and_kernels_stay_diagonal(self, star_problem):
        prob = graph.graph_to_matrix(star_problem)
        tr = forward.integrate(prob, 1.7)
        off = tr.y - np.eye(3) * np.einsum("xii->xi", tr.y)[:, :, None] * np.eye(3)
        offd = tr.y.copy()
        offd[:, np.arange(3), np.arange(3)] = 0.0
        assert np.max(np.abs(offd)) < 1e-10
        cm = ConstantModel(np.diag([0.2, 0.0, -0.1]))
        d = d_kernel(cm, np.array([1.0, np.pi]), np.array([0.3]), np.array([1.2]))
        offk = d.copy()
        offk[..., np.arange(3), np.arange(3)] = 0.0
        assert np.max(np.abs(offk)) < 1e-14


class TestDeriveStarModels:
    def test_zero_star_gives_zero_levels(self, star_model):
        data = model_spectral_data(star_model, 8)
        locals_ = [graph.extract_local_data(data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        np.testing.assert_allclose(mset.c, 0.0, atol=1e-10)

    def test_levels_match_half_integrals(self, star_data):
        locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        # true half integrals: omega = (0.3, 0, 0) -> c = 2 omega / pi
        want = 2.0 / np.pi * np.array([0.3, 0.0, 0.0])
        np.testing.assert_allclose(mset.c, want, atol=2e-2)

    def test_needs_enough_edges(self, star_data):
        locals_ = [graph.extract_local_data(star_data, 1)]
        with pytest.raises(DimensionError):
            graph.derive_star_models(locals_)


def _locals_of(edges, n_bands, n_grid):
    """Edge 1 and 2 local data of the star with sampled edges, from RK4 spectral data."""
    data = forward.spectral_data(graph.graph_to_matrix(graph.StarGraphProblem(edges)), n_bands)
    return [graph.extract_local_data(data, i) for i in (1, 2)]


def _seeded_star_locals(seed):
    """Local data of the seeded graph-star bench star: a sin(kx), 0, 0 on grid 360, 6 bands."""
    rng = np.random.default_rng(seed)
    a = 0.3 * float(1.0 + 0.02 * rng.uniform(-1.0, 1.0, 1)[0])
    k = float(1.0 + 0.02 * rng.uniform(-1.0, 1.0, 1)[0])
    edges = np.zeros((3, 361))
    edges[0] = a * np.sin(k * np.linspace(0.0, np.pi, 361))
    return _locals_of(edges, 6, 360)


def _assert_matches_search(mset):
    """The secular spectrum against the phase search of the constant engine."""
    ref = forward.spectral_data(mset.problem, mset.data.n_bands, engine="constant")
    assert np.all(np.abs(mset.data.lam - ref.lam) <= 1e-10 * (1.0 + np.abs(ref.lam)))
    err = np.linalg.norm(mset.data.alpha - ref.alpha, axis=(-2, -1))
    assert np.all(err <= 1e-9 * np.linalg.norm(ref.alpha, axis=(-2, -1)))


def _star_spectrum(levels, count):
    return graph._star_eigenvalues(ConstantModel(np.diag(levels)), count)


class TestStarEigenvalues:
    """The comparison star's spectrum from its secular equation sum_i s_i' / s_i = 0."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_stars_match_the_phase_search(self, seed):
        _assert_matches_search(graph.derive_star_models(_seeded_star_locals(seed)))

    def test_negative_levels_match_the_phase_search(self):
        # the star of test_negative_spectrum_round_trip: c_1 < 0, so the
        # lowest eigenvalues lie below the other edges' levels (sinh branch)
        x = np.linspace(0.0, np.pi, 401)
        edges = np.stack([-1.5 + 0.3 * np.sin(x), 0.0 * x, 0.0 * x])
        mset = graph.derive_star_models(_locals_of(edges, 10, 400))
        assert mset.c[0] < mset.data.lam[0, 0] < min(mset.c[1:])
        _assert_matches_search(mset)

    def test_zero_star_is_exact(self):
        n = np.arange(1.0, 7.0)
        lam = _star_spectrum([0.0, 0.0, 0.0], 18)
        # (n - 1/2)^2 to rounding, n^2 (the shared pole) exactly and twice
        assert np.all(np.abs(lam[0::3] - (n - 0.5) ** 2) <= 1e-15 * (1.0 + n**2))
        np.testing.assert_array_equal(lam[1::3], n**2)
        np.testing.assert_array_equal(lam[2::3], n**2)
        records = forward._records(lam, 3)
        assert [(r.lam, r.multiplicity) for r in records[1::2]] == [(v**2, 2) for v in n]

    def test_root_next_to_a_shared_pole(self):
        # edges 2 and 3 share the pole 1: chi vanishes there, and the root
        # between it and the next pole 1.2 must not collapse onto it
        lam = _star_spectrum([0.2, 0.0, 0.0, -0.3], 8)
        assert list(lam).count(1.0) == 1
        inside = lam[(lam > 1.0) & (lam < 1.2)]
        assert inside.size == 1
        sig = np.sqrt(inside[0] - np.array([0.2, 0.0, 0.0, -0.3]))
        assert abs(np.sum(sig / np.tan(sig * np.pi))) < 1e-12  # F = sum sigma cot(sigma pi)
        np.testing.assert_allclose(inside[0], 1.14548, atol=1e-5)

    def test_five_edge_star_matches_the_phase_search(self):
        c = np.array([0.1, -0.2, 0.3, 0.05, -0.4])
        problem = graph.graph_to_matrix(graph.StarGraphProblem(np.repeat(c[:, None], 2, axis=1)))
        ref = forward.spectral_data(problem, 6, engine="constant").lam.ravel()
        lam = _star_spectrum(c, 30)
        assert np.all(np.abs(lam - ref) <= 1e-10 * (1.0 + np.abs(ref)))

    def test_no_phase_search(self, star_data, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the comparison star ran the phase search")

        monkeypatch.setattr(forward, "find_eigenvalues", refuse)
        monkeypatch.setattr(forward, "_w_eigvals", refuse)
        mset = graph.derive_star_models([graph.extract_local_data(star_data, i) for i in (1, 2)])
        assert mset.data.n_bands == star_data.n_bands


class TestSolveLocalInverse:
    def test_zero_edges_recover_zero(self, star_model):
        data = model_spectral_data(star_model, 8)
        locals_ = [graph.extract_local_data(data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        res = graph.solve_local_inverse(1, locals_[0], mset.edge_model(1),
                                        InverseOptions(n_grid=200))
        # the comparison star's eigenvalues solve its secular equation to
        # rounding, so the recovery floor is roundoff (1.8e-14 measured)
        assert np.max(np.abs(res.q)) < 2e-13

    def test_bumped_edge_recovered(self, star_problem, star_data):
        locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        res = graph.solve_local_inverse(1, locals_[0], mset.edge_model(1),
                                        InverseOptions(n_grid=600))
        qtrue = 0.3 * np.sin(res.x)
        num = np.sqrt(np.trapezoid((res.q - qtrue) ** 2, res.x))
        den = np.sqrt(np.trapezoid(qtrue**2, res.x))
        assert num / den < 0.08  # 10-band truncation; the 15-band gate is in acceptance

    def test_edge_index_mismatch(self, star_data):
        locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        with pytest.raises(DimensionError):
            graph.solve_local_inverse(2, locals_[0], mset.edge_model(2))

    def test_four_bands_rejected_before_the_solve(self, star_data):
        # 2 n_bands - 4 = 4 leaves the stabilizer no degree to fit; the
        # comparison star comes from the full data, which derive_star_models takes
        mset = graph.derive_star_models(
            [graph.extract_local_data(star_data, i) for i in (1, 2)]
        )
        data = star_data.truncate(4)
        locals_ = [graph.extract_local_data(data, i) for i in (1, 2)]
        opts = InverseOptions(n_grid=300)
        with pytest.raises(ReconstructionError, match="at least 5 bands, got 4"):
            graph.solve_local_inverse(1, locals_[0], mset.edge_model(1), opts)
        # the matrix data stop at the same check, not in the rank estimate
        with pytest.raises(ReconstructionError, match="at least 5 bands, got 4"):
            graph.solve_star_matrix(data, mset, opts)

    @pytest.mark.parametrize("n_bands", [1, 2, 4])
    def test_star_models_need_the_inverse_band_floor(self, star_data, n_bands):
        # below it the level fit wraps its window (2 bands) or indexes past
        # the data (1 band); at 4 it returns levels the inverse would refuse
        data = star_data.truncate(n_bands)
        locals_ = [graph.extract_local_data(data, i) for i in (1, 2)]
        with pytest.raises(ReconstructionError, match=f"at least 5 bands, got {n_bands}$"):
            graph.derive_star_models(locals_)

    def test_decreasing_eigenvalues_rejected_at_validate(self, star_data):
        locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        d = list(locals_[0].data.data)
        lo, hi = d[0], d[1]
        # (1, 1) takes the larger eigenvalue of (1, 2) and (1, 2) the smaller
        d[0] = SpectralDatum(lo.n, lo.k, hi.lam, hi.alpha)
        d[1] = SpectralDatum(hi.n, hi.k, lo.lam, lo.alpha)
        local = graph.ScalarLocalData(1, SpectralData(tuple(d), star_data.n_bands))
        with pytest.raises(StageError) as err:
            graph.solve_local_inverse(1, local, mset.edge_model(1), InverseOptions(n_grid=100))
        assert err.value.stage == "validate"
        assert "not nondecreasing" in str(err.value.cause)

    def test_runs_solve_inverse_once(self, star_data, monkeypatch):
        locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return solve_inverse(*args, **kwargs)

        monkeypatch.setattr(graph, "solve_inverse", spy)
        res = graph.solve_local_inverse(1, locals_[0], mset.edge_model(1),
                                        InverseOptions(n_grid=100))
        assert len(calls) == 1 and calls[0][0] is locals_[0].data
        assert res.result.diagnostics.p == 1
        assert not np.any(res.result.problem.boundary.matrix)  # T = 0 leaves H = 0
        np.testing.assert_array_equal(res.q, res.result.problem.potential.samples[:, 0, 0].real)

    def test_ungroupable_data_tagged_with_stage(self):
        # local square roots n - 0.15 sit 0.35 off their half-integer centers
        def ladder(shift):
            rho = np.arange(1, 7) - shift
            return SpectralData(
                tuple(
                    SpectralDatum(n, 1, r**2, np.array([[2 * r**2 / np.pi]]))
                    for n, r in enumerate(rho, start=1)
                ),
                6,
            )

        local = graph.ScalarLocalData(1, ladder(0.15))
        model = graph.ScalarEdgeModel(1, 0.0, ladder(0.5))
        with pytest.raises(StageError) as err:
            graph.solve_local_inverse(1, local, model, InverseOptions(n_grid=50))
        assert err.value.stage == "grouping"

    def test_stage_names(self, star_data):
        locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        res = graph.solve_local_inverse(1, locals_[0], mset.edge_model(1),
                                        InverseOptions(n_grid=100))
        # the edge runs solve_inverse's stages
        assert list(res.result.diagnostics.stage_seconds) == [
            "validate", "shift", "estimate-p", "collapse", "asymptotics", "model",
            "model-data", "collapse-model", "grouping", "main-equation", "epsilon",
            "stabilize", "recover", "diagnostics",
        ]

    def test_scalar_path_matches_matrix_diagonal(self, star_data):
        # for diagonal problems the scalar systems are exactly the diagonal
        # of the matrix system; the two recoveries agree to solver scale
        locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        opts = InverseOptions(n_grid=400)
        scalar = graph.solve_local_inverse(1, locals_[0], mset.edge_model(1), opts)
        matrix = graph.solve_star_matrix(star_data, mset, opts)
        q11 = np.real(matrix.problem.potential.samples[:, 0, 0])
        assert np.max(np.abs(q11 - scalar.q)) < 1e-4

    @pytest.mark.parametrize("margin", [DEFAULT_TOL.shift_margin, 0.01])
    def test_negative_spectrum_round_trip(self, margin, monkeypatch):
        # q_1 = -1.5 + 0.3 sin x puts the lowest eigenvalue at -0.56 and the
        # comparison star's at -0.60; both paths shift data and comparison
        # data together and undo the shift on the recovered potential.  At
        # the small margin a shift cleared only the data's minimum would
        # leave the comparison star's below zero.
        g = graph.StarGraphProblem.from_callables(
            [lambda x: -1.5 + 0.3 * np.sin(x), lambda x: 0.0, lambda x: 0.0], 400
        )
        data = forward.spectral_data(graph.graph_to_matrix(g), 10)
        assert data.min_lambda() < 0.0
        locals_ = [graph.extract_local_data(data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        assert mset.data.min_lambda() < data.min_lambda() - 0.01
        monkeypatch.setattr(core, "DEFAULT_TOL", replace(DEFAULT_TOL, shift_margin=margin))
        opts = InverseOptions(n_grid=400)
        edge = graph.solve_local_inverse(1, locals_[0], mset.edge_model(1), opts)
        matrix = graph.solve_star_matrix(data, mset, opts)
        assert matrix.diagnostics.shift > 0.0
        # criterion 8 bounds
        qtrue = -1.5 + 0.3 * np.sin(edge.x)
        num = np.sqrt(np.trapezoid((edge.q - qtrue) ** 2, edge.x))
        den = np.sqrt(np.trapezoid(qtrue**2, edge.x))
        assert num / den <= 0.05
        q11 = np.real(matrix.problem.potential.samples[:, 0, 0])
        assert np.max(np.abs(q11 - edge.q)) <= 1e-4
