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
from msturm import forward, graph
from msturm.model import model_spectral_data
from msturm.reconstruct import InverseOptions
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


class TestSolveLocalInverse:
    def test_zero_edges_recover_zero(self, star_model):
        data = model_spectral_data(star_model, 8)
        locals_ = [graph.extract_local_data(data, i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        res = graph.solve_local_inverse(1, locals_[0], mset.edge_model(1),
                                        InverseOptions(n_grid=200))
        # derived model data comes from the root finder, so the recovery
        # floor is set by its eigenvalue accuracy rather than roundoff
        assert np.max(np.abs(res.q)) < 1e-5

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
        # 2 n_bands - 4 = 4 leaves the stabilizer no degree to fit
        locals_ = [graph.extract_local_data(star_data.truncate(4), i) for i in (1, 2)]
        mset = graph.derive_star_models(locals_)
        with pytest.raises(ReconstructionError, match="at least 5 bands, got 4"):
            graph.solve_local_inverse(1, locals_[0], mset.edge_model(1), InverseOptions(n_grid=300))

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
        assert list(res.stage_seconds) == [
            "validate", "model-data", "shift", "collapse", "collapse-model", "grouping",
            "main-equation", "epsilon", "stabilize",
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
    def test_negative_spectrum_round_trip(self, margin):
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
        opts = InverseOptions(n_grid=400, tol=replace(DEFAULT_TOL, shift_margin=margin))
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
