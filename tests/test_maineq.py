from dataclasses import replace

import numpy as np
import pytest

from msturm._closed import ConstantModel, pair_integral
from msturm.core import (
    DEFAULT_TOL,
    GroupingError,
    MainEquationError,
    SpectralData,
    SpectralDatum,
)
from msturm import forward, graph, maineq, model, reconstruct
from msturm.maineq import MainAssembly, build_groups, solve_on_grid
from msturm.model import collapse_weights
from msturm.reconstruct import (
    InverseOptions,
    epsilon_series,
    sec6_closed_form,
    sec6_spectral_data,
    solve_inverse,
)
from oracles import (
    KernelTable,
    blocks_in_original_basis,
    d_kernel,
    dense_blocks,
    dense_traces,
    epsilon_series_three_products,
    flatten,
    identity_plus_r,
    operator_identity_defect,
    operator_matrix,
    solve_nodes_two_systems,
    w_blocks_from_table,
)


STAR_T = np.full((3, 3), 1.0 / 3.0)


def scalar_perturbed_data(a=0.3, n_bands=8):
    """Scalar Dirichlet/Neumann-type sequence with one moved eigenvalue.

    Models the half-integer ladder lam_n = (n - 1/2)^2 with unit-type
    weights, lowest value moved to a^2: a one-parameter scalar analogue
    of the worked example.
    """
    datums = []
    for n in range(1, n_bands + 1):
        lam = a * a if n == 1 else (n - 0.5) ** 2
        datums.append(SpectralDatum(n, 1, lam, np.array([[2 * (n - 0.5) ** 2 / np.pi]])))
    return SpectralData(tuple(datums), n_bands)


def scalar_model_data(n_bands=8):
    datums = [
        SpectralDatum(n, 1, (n - 0.5) ** 2, np.array([[2 * (n - 0.5) ** 2 / np.pi]]))
        for n in range(1, n_bands + 1)
    ]
    return SpectralData(tuple(datums), n_bands)


class TestBuildGroups:
    def test_sec6_grouping(self, sec6_data):
        md = sec6_model_data()
        groups = build_groups(sec6_data, md, 1)
        assert len(groups) == 1 + 2 * 14
        assert groups[0].distinct_rhos() == [0.3, 0.5, 1.0]
        assert groups[1].distinct_rhos() == [1.5]
        assert groups[2].distinct_rhos() == [2.0]
        assert groups[1].center == 1.5 and groups[2].center == 2.0

    def test_identical_data_pairs(self):
        md = scalar_model_data()
        groups = build_groups(md, md, 1)
        for g in groups:
            for n, k, s, rho in g.entries:
                # the paired entry with the other s sits in the same group
                assert any(e[:2] == (n, k) and e[2] == 1 - s for e in g.entries)

    def test_exact_model_clusters(self):
        t = np.diag([1.0, 0.0])
        datums = []
        for n in range(1, 7):
            datums.append(SpectralDatum(n, 1, (n - 0.5) ** 2, 2 * (n - 0.5) ** 2 / np.pi * t))
            datums.append(SpectralDatum(n, 2, float(n * n), 2 * n**2 / np.pi * (np.eye(2) - t)))
        data = SpectralData(tuple(datums), 6)
        groups = build_groups(data, data, 1)
        for j in range(1, 6):
            assert groups[2 * j - 1].distinct_rhos() == [j + 0.5]
            assert groups[2 * j].distinct_rhos() == [float(j + 1)]

    def test_irregular_data_fails(self):
        datums = [
            SpectralDatum(n, 1, (n - 0.15) ** 2, np.array([[1.0]])) for n in range(1, 7)
        ]
        data = SpectralData(tuple(datums), 6)
        with pytest.raises(GroupingError):
            build_groups(data, scalar_model_data(6), 1)


def sec6_model_data(n_bands=15):
    tp = np.eye(3) - STAR_T
    datums = []
    for n in range(1, n_bands + 1):
        datums.append(SpectralDatum(n, 1, (n - 0.5) ** 2, 2 / np.pi * (n - 0.5) ** 2 * STAR_T))
        a2 = 2 / np.pi * n**2 * tp
        datums.append(SpectralDatum(n, 2, float(n * n), a2))
        datums.append(SpectralDatum(n, 3, float(n * n), a2))
    return SpectralData(tuple(datums), n_bands)


class TestKernelTable:
    def test_model_kernels_match_trace_quadrature(self):
        cm = ConstantModel(0.2 * STAR_T)
        lams = np.array([0.09, 0.25, 1.0, 2.25])
        x = np.linspace(0.0, np.pi, 1001)
        closed = KernelTable.from_model(cm, x, lams)
        traced = KernelTable.from_traces(x, lams, dense_traces(cm, x, lams)[0])
        assert np.max(np.abs(closed.table - traced.table)) < 1e-9

    def test_sec6_coincident_kernel_value(self):
        a = 0.3
        cm = ConstantModel(np.zeros((3, 3)))
        x = np.linspace(0, np.pi, 11)
        table = KernelTable.from_model(cm, x, np.array([a * a]))
        ref = (x - np.sin(2 * a * x) / (2 * a)) / (2 * a * a)
        np.testing.assert_allclose(
            table.table[:, 0, 0], ref[:, None, None] * np.eye(3), atol=1e-12
        )

    def test_sec6_cross_kernel_at_pi(self):
        # quadrature route must hit the displayed closed form to 1e-7
        a = 0.3
        cm = ConstantModel(np.zeros((3, 3)))
        x = np.linspace(0, np.pi, 1001)
        lams = np.array([a * a, 0.25])
        table = KernelTable.from_traces(x, lams, dense_traces(cm, x, lams)[0])
        ref = (np.sin((a - 0.5) * np.pi) / (a - 0.5) - np.sin((a + 0.5) * np.pi) / (a + 0.5)) / a
        got = table.table[-1, 0, 1]
        np.testing.assert_allclose(got, ref * np.eye(3), atol=1e-7)

    def test_zero_at_origin_and_symmetry(self):
        cm = ConstantModel(0.1 * np.eye(2))
        x = np.linspace(0, np.pi, 101)
        lams = np.array([0.3, 1.7, 4.0])
        table = KernelTable.from_model(cm, x, lams)
        assert np.max(np.abs(table.table[0])) == 0.0
        assert table.symmetry_defect() < 1e-8
        # diagonal kernels are PSD: they are integrals of S^dag S
        for il in range(3):
            w = np.linalg.eigvalsh(table.table[-1, il, il])
            assert np.min(w) > -1e-12


class TestAssemble:
    def test_identical_data_gives_empty_operator(self):
        md = scalar_model_data()
        groups = build_groups(md, md, 1)
        wl = collapse_weights(md, 1)
        cm = ConstantModel(np.zeros((1, 1)))
        xv = np.linspace(0, np.pi, 41)[20]
        w = operator_matrix(MainAssembly(groups, wl, wl), cm, xv)
        assert not np.any(w)
        eye = np.eye(w.shape[0])
        np.testing.assert_allclose(w + eye, eye, atol=1e-15)
        psi = solve_on_grid(groups, wl, wl, cm, [xv])
        np.testing.assert_allclose(psi.values[0], dense_traces(cm, xv, psi.lams)[0][0], atol=1e-14)

    def test_sec6_collapses_to_displayed_system(self, sec6_data):
        md = sec6_model_data()
        groups = build_groups(sec6_data, md, 1)
        wl = collapse_weights(sec6_data, 1)
        wm = collapse_weights(md, 1)
        cm = ConstantModel(np.zeros((3, 3)))
        xv = 1.3
        asm = MainAssembly(groups, wl, wm)
        w = operator_matrix(asm, cm, xv)
        # only the head collection couples, into every group
        head_rows = np.repeat(asm.group_of == 1, asm.dim)
        assert not np.any(w[~head_rows])
        a = 0.3
        f11 = 1 + float(np.real(pair_integral(a, a, xv))) / (2 * np.pi)
        f12 = float(np.real(pair_integral(a, 0.5, xv))) / (2 * np.pi)
        f22 = 1 - float(np.real(pair_integral(0.5, 0.5, xv))) / (2 * np.pi)
        head = w[np.ix_(head_rows, head_rows)]
        # unknown order in the head collection: rho = 0.3, 0.5, 1.0
        np.testing.assert_allclose(head[0:3, 0:3], (f11 - 1) * STAR_T, atol=1e-12)
        np.testing.assert_allclose(head[0:3, 3:6], f12 * STAR_T, atol=1e-12)
        np.testing.assert_allclose(head[3:6, 3:6], (f22 - 1) * STAR_T, atol=1e-12)
        np.testing.assert_allclose(head[3:6, 0:3], -f12 * STAR_T, atol=1e-12)

    def test_scalar_hand_assembled_entries(self):
        data = scalar_perturbed_data(0.3, 6)
        md = scalar_model_data(6)
        groups = build_groups(data, md, 1)
        wl = collapse_weights(data, 1)
        wm = collapse_weights(md, 1)
        cm = ConstantModel(np.zeros((1, 1)))
        xv = 2.0
        asm = MainAssembly(groups, wl, wm)
        w = operator_matrix(asm, cm, xv)
        big = w + np.eye(w.shape[0])
        # direct expansion of the defining sum for the head collection:
        # only the (1, 1) pair survives, with alpha' = 1/(2 pi) both sides
        alpha = 2 * 0.25 / np.pi
        for rho_t in (0.3, 0.5, 1.5, 2.5):
            col = [u for u, (gi, r) in enumerate(asm.unknowns) if r == rho_t][0]
            d03 = alpha * float(np.real(pair_integral(0.3, rho_t, xv)))
            d05 = alpha * float(np.real(pair_integral(0.5, rho_t, xv)))
            assert big[0, col] == pytest.approx(d03 + (1.0 if rho_t == 0.3 else 0.0), abs=1e-12)
            assert big[1, col] == pytest.approx(-d05 + (1.0 if rho_t == 0.5 else 0.0), abs=1e-12)


class TestSolveMain:
    def test_sec6_matches_closed_form(self, sec6_data):
        md = sec6_model_data()
        groups = build_groups(sec6_data, md, 1)
        wl = collapse_weights(sec6_data, 1)
        wm = collapse_weights(md, 1)
        cm = ConstantModel(np.zeros((3, 3)))
        for xv in (0.9, 2.2, np.pi):
            psi = solve_on_grid(groups, wl, wm, cm, [xv])
            cf = sec6_closed_form(0.3, xv)
            np.testing.assert_allclose(psi.slot_values(1, 1, 0)[0], cf.s110[0], atol=1e-8)
            np.testing.assert_allclose(psi.slot_values(1, 1, 1)[0], cf.s111[0], atol=1e-8)

    def test_substitution_oracle(self):
        # solve on a grid, then substitute back into the defining relation
        # with independently integrated kernels
        data = scalar_perturbed_data(0.35, 7)
        md = scalar_model_data(7)
        groups = build_groups(data, md, 1)
        wl = collapse_weights(data, 1)
        wm = collapse_weights(md, 1)
        cm = ConstantModel(np.zeros((1, 1)))
        x = np.linspace(0, np.pi, 801)
        psi = solve_on_grid(groups, wl, wm, cm, x)
        kern = KernelTable.from_traces(x, psi.lams, dense_traces(cm, x, psi.lams)[0])
        rng = np.random.default_rng(1)
        for ix in rng.integers(1, 800, size=10):
            w = w_blocks_from_table(psi.assembly, kern, int(ix))
            big = flatten(w) + np.eye(psi.lams.size)
            lhs = psi.values[ix, :, 0, 0] @ big
            rhs = dense_traces(cm, x[ix], psi.lams)[0][0, :, 0, 0]
            assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_straddling_pair_rejected(self):
        from msturm.core import GroupingInconsistencyError

        md = scalar_model_data(4)
        wl = collapse_weights(md, 1)
        bad = [
            maineq.Group(1, ((1, 1, 0, 0.5),), 0.0),
            maineq.Group(2, ((1, 1, 1, 0.6),), 0.5),
        ]
        with pytest.raises(GroupingInconsistencyError):
            maineq.MainAssembly(bad, wl, wl)
        # a pair with no model side
        with pytest.raises(GroupingInconsistencyError, match=r"groups \[1, -1\]"):
            maineq.MainAssembly(bad[:1], wl, wl)

    @staticmethod
    def _scalar_system():
        data = scalar_perturbed_data(0.3, 6)
        md = scalar_model_data(6)
        groups = build_groups(data, md, 1)
        wl = collapse_weights(data, 1)
        wm = collapse_weights(md, 1)
        return groups, wl, wm, ConstantModel(np.zeros((1, 1))), np.linspace(0, np.pi, 11)

    def test_factorisation_failure_raises(self, monkeypatch):
        system = self._scalar_system()

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(MainEquationError, match="factorisation failed"):
            solve_on_grid(*system)

    def test_singular_real_system_raises(self, monkeypatch):
        # LAPACK itself rejects a real I + W Lblk with a zero row
        system = self._scalar_system()
        solve = np.linalg.solve

        def singular(a, b):
            assert a.dtype == np.float64
            a = a.copy()
            a[:, :, 0] = 0.0  # a holds the transposed matrices
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(MainEquationError, match="factorisation failed"):
            solve_on_grid(*system)

    def test_residual_gate_raises(self, monkeypatch):
        system = self._scalar_system()
        achieved = solve_on_grid(*system).residual_max
        assert 0.0 < achieved <= DEFAULT_TOL.solve_rel
        monkeypatch.setattr(maineq, "DEFAULT_TOL", replace(DEFAULT_TOL, solve_rel=0.5 * achieved))
        with pytest.raises(MainEquationError, match="residual"):
            solve_on_grid(*system)


@pytest.fixture(scope="module")
def collocation_runs(sec6_data, m2_data, star_data):
    """Main-equation inputs and results of five pipelines at grid 300.

    Maps each case to (solve_on_grid arguments, solved PsiGrid, pipeline
    result).
    """
    from test_forward import general_problem

    runs = {}

    def run(name, pipeline):
        seen = []

        def spy(*args, **kwargs):
            seen.append((args, solve_on_grid(*args, **kwargs)))
            return seen[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reconstruct, "solve_on_grid", spy)
            result = pipeline()
        runs[name] = seen[0] + (result,)

    opts = InverseOptions(n_grid=300)
    locals_ = [graph.extract_local_data(star_data, i) for i in (1, 2)]
    mset = graph.derive_star_models(locals_)
    run("star-matrix", lambda: graph.solve_star_matrix(star_data, mset, opts))
    run("edge", lambda: graph.solve_local_inverse(1, locals_[0], mset.edge_model(1), opts))
    run("m2-round-trip", lambda: solve_inverse(m2_data, opts))
    run("general", lambda: solve_inverse(forward.spectral_data(general_problem(300), 10), opts))
    run("worked-example", lambda: solve_inverse(sec6_data, opts))
    return runs


COLLOCATION_CASES = ["star-matrix", "edge", "m2-round-trip", "general", "worked-example"]


class TestCollocation:
    @pytest.mark.parametrize("case", COLLOCATION_CASES)
    def test_eps_matches_full_grid_oracle(self, collocation_runs, case):
        (_, _, _, cm, x), psi, _ = collocation_runs[case]
        assert psi.collocation_nodes < x.size
        asm = psi.assembly
        parts, _ = maineq._solve_nodes(asm, cm, x)
        full = maineq.PsiGrid(x, parts, cm, asm, 0.0)
        eps = epsilon_series(psi).eps
        ref = epsilon_series(full).eps
        assert np.max(np.abs(eps - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", COLLOCATION_CASES)
    def test_one_solve_matches_the_two_system_oracle(self, collocation_runs, case):
        (_, _, _, cm, x), psi, _ = collocation_runs[case]
        xs = x[::15]
        got, _ = maineq._solve_nodes(psi.assembly, cm, xs)
        ref = solve_nodes_two_systems(psi.assembly, cm, xs)
        for g, r in zip(got, ref):
            # eigenbasis values: float64 unless the model or the coefficients are complex
            assert g.dtype == (np.complex128 if case == "general" else np.float64)
            g = blocks_in_original_basis(cm, g.swapaxes(1, 2))
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    @pytest.mark.parametrize(
        "case, dtype",
        [("star-matrix", np.float64), ("edge", np.float64), ("general", np.complex128)],
    )
    def test_one_solve_per_chunk(self, collocation_runs, monkeypatch, case, dtype):
        args, _, _ = collocation_runs[case]
        blocks, solve = MainAssembly.w_blocks_from_model, np.linalg.solve
        chunks, calls = [], []

        def blocks_spy(self, model, xs):
            chunks.append(xs.size)
            return blocks(self, model, xs)

        def solve_spy(a, b):
            calls.append((a.dtype, b.dtype, a.shape[0], a.shape[-1], b.shape[-1]))
            return solve(a, b)

        monkeypatch.setattr(MainAssembly, "w_blocks_from_model", blocks_spy)
        monkeypatch.setattr(np.linalg, "solve", solve_spy)
        psi = solve_on_grid(*args)
        asm = psi.assembly
        order = asm.row_factors(args[3]).u.size
        # the last blocks are the off-node check's, which solves nothing
        assert chunks[-1] == maineq._OFF_NODE_PROBES
        assert [n for _, _, n, _, _ in calls] == chunks[:-1]
        assert sum(chunks[:-1]) == psi.collocation_nodes
        for a, b, _, n, cols in calls:
            assert a == b == dtype
            assert n == order < asm.n_unknowns * asm.dim
            assert cols == 2 * asm.dim

    @pytest.mark.parametrize(
        "case, unknowns, order", [("star-matrix", 60, 60), ("edge", 60, 50), ("general", 40, 40)]
    )
    def test_system_order_is_the_rank_of_the_rows(self, collocation_runs, case, unknowns, order):
        # every row coefficient has rank 1 here, order K (d = 3 and 2), except
        # on the d = 1 edge, where the pairs of 10 rows cancel to rounding
        (_, _, _, cm, _), psi, _ = collocation_runs[case]
        f = psi.assembly.row_factors(cm)
        assert psi.assembly.n_unknowns == unknowns
        assert f.u.size == order
        assert f.left.shape == f.right.shape == (order, psi.assembly.dim)

    @pytest.mark.parametrize("case", COLLOCATION_CASES)
    def test_health_values_reported(self, collocation_runs, case):
        _, psi, result = collocation_runs[case]
        record = getattr(result, "result", result).diagnostics
        assert psi.cheb_tail <= maineq._CHEB_TAIL
        assert record.collocation_nodes == psi.collocation_nodes
        assert record.cheb_tail == psi.cheb_tail
        assert record.residual_max == psi.residual_max <= DEFAULT_TOL.solve_rel

    def test_node_count_grows_with_the_bands(self):
        x = np.linspace(0, np.pi, 1001)
        counts = []
        for n_bands in range(6, 16):
            data, md = _drifting_scalar_data(n_bands), scalar_model_data(n_bands)
            psi = solve_on_grid(build_groups(data, md, 1), collapse_weights(data, 1),
                                collapse_weights(md, 1), ConstantModel(np.zeros((1, 1))), x)
            counts.append(psi.collocation_nodes)
        assert np.all(np.diff(counts) >= 0) and counts[-1] > counts[0], counts

    def test_off_node_check_catches_a_coarse_interpolant(self, collocation_runs, monkeypatch):
        # a tail threshold of 1 stops the doubling at M = 16; the node
        # residuals stay at rounding level, only the off-node check sees it
        args, _, _ = collocation_runs["m2-round-trip"]
        monkeypatch.setattr(maineq, "_CHEB_TAIL", 1.0)
        with pytest.raises(MainEquationError, match="residual"):
            solve_on_grid(*args)
        monkeypatch.setattr(maineq, "DEFAULT_TOL", replace(DEFAULT_TOL, solve_rel=np.inf))
        loose = solve_on_grid(*args)
        assert loose.collocation_nodes == 17
        assert loose.residual_max > DEFAULT_TOL.solve_rel


    def test_off_node_residual_checks_values_and_derivatives(self, collocation_runs):
        (_, _, _, cm, x), psi, _ = collocation_runs["m2-round-trip"]
        asm, xs = psi.assembly, x[[37, 150]]
        parts, _ = maineq._solve_nodes(asm, cm, xs)
        assert maineq._off_node_residual(asm, cm, xs, parts) <= 1e-12
        for i in (0, 1):
            bent = list(parts)
            bent[i] = bent[i] * (1.0 + 1e-6)
            assert maineq._off_node_residual(asm, cm, xs, bent) > DEFAULT_TOL.solve_rel


# a d = 1 edge, the d = 3 real star and the d = 2 complex general case
EIGENBASIS_CASES = ["edge", "star-matrix", "general"]


class TestEigenbasis:
    @pytest.mark.parametrize("case", EIGENBASIS_CASES)
    def test_blocks_match_the_rotated_pair_oracle(self, collocation_runs, case):
        (_, _, _, cm, x), psi, _ = collocation_runs[case]
        asm, xs = psi.assembly, x[[1, 40, 150, 299]]
        table = KernelTable.from_model(cm, xs, asm.lams)
        s = table.s_values
        ref = {
            "w": np.stack([w_blocks_from_table(asm, table, ix) for ix in range(xs.size)]),
            "wp": np.einsum("rij,xrkj,xtkl->xrtil", asm.coef, s.conj(), s),
        }
        got = {"w": asm.w_blocks_from_model(cm, xs), "wp": asm.wprime_blocks_from_model(cm, xs)}
        got = {key: dense_blocks(asm, cm, val) for key, val in got.items()}
        for key, val in ref.items():
            val = _in_eigenbasis(cm, val)
            assert got[key].shape == val.shape, key
            err = np.max(np.abs(got[key] - val))
            assert err <= 1e-12 * np.max(np.abs(val)), (key, err)

    @pytest.mark.parametrize("case", COLLOCATION_CASES)
    def test_eps_matches_the_three_product_oracle(self, collocation_runs, case):
        (_, _, _, cm, _), psi, _ = collocation_runs[case]
        eps = epsilon_series(psi)
        for got, ref in zip((eps.eps0, eps.eps), epsilon_series_three_products(psi, cm)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", COLLOCATION_CASES)
    def test_original_basis_is_rotated_on_first_read(self, collocation_runs, case):
        (_, _, _, cm, _), psi, _ = collocation_runs[case]
        for name, rows in zip(("values", "derivs"), psi.rows):
            ref = blocks_in_original_basis(cm, rows.swapaxes(1, 2))
            got = getattr(psi, name)
            assert got.shape == (psi.x.size, psi.assembly.n_unknowns) + 2 * (psi.assembly.dim,)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), name
            assert getattr(psi, name) is got, name

    def test_inverse_makes_no_original_basis_rotation(self, m2_data, monkeypatch):
        solve = reconstruct.solve_on_grid

        def refuse(u, a):
            raise AssertionError("the solver rotated its values to the original basis")

        def solve_refusing(*args, **kwargs):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(maineq, "_rotate", refuse)
                return solve(*args, **kwargs)

        monkeypatch.setattr(reconstruct, "solve_on_grid", solve_refusing)
        result = solve_inverse(m2_data, InverseOptions(n_grid=300))
        # the pipeline never read the original-basis copy either
        assert "values" not in vars(result.psi) and "derivs" not in vars(result.psi)

    @pytest.mark.parametrize("case", ["star-matrix", "general"])
    def test_traces_evaluated_once_per_chunk(self, collocation_runs, monkeypatch, case):
        (_, _, _, cm, x), psi, _ = collocation_runs[case]
        traces, solve = ConstantModel.traces, np.linalg.solve
        calls, chunks = [], []

        def count(self, xs, lams):
            calls.append(xs.size)
            return traces(self, xs, lams)

        def recompose(self, diag):
            raise AssertionError("an original-basis trace was recomposed")

        def solve_spy(a, b):
            chunks.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(ConstantModel, "traces", count)
        monkeypatch.setattr(ConstantModel, "recompose", recompose)
        monkeypatch.setattr(np.linalg, "solve", solve_spy)
        old = psi.assembly
        asm = MainAssembly(old.groups, old.weights_l, old.weights_m)
        maineq._solve_nodes(asm, cm, x)
        assert len(chunks) > 1
        assert calls == chunks
        calls.clear()
        epsilon_series(psi)
        assert calls == [x.size]


def _xi(data, md, p=1):
    """Decay diagnostics of a data pair, read from its main-system assembly."""
    asm = MainAssembly(build_groups(data, md, p), collapse_weights(data, p), collapse_weights(md, p))
    return maineq.diagnostics_xi(asm, model.fit_drifts(data, p))


class TestDiagnosticsXi:
    def test_identical_data(self):
        md = scalar_model_data()
        xd = _xi(md, md)
        assert np.all(xd.xi == 0.0) and xd.lam == 0.0

    def test_sec6_values(self, sec6_data):
        xd = _xi(sec6_data, sec6_model_data())
        assert xd.xi[0] == pytest.approx(0.2, abs=1e-12)
        assert np.max(np.abs(xd.xi[1:])) < 1e-12
        assert xd.lam == pytest.approx(0.2, abs=1e-12)

    def test_gap_homogeneity(self):
        # halving the single square-root gap halves Lambda
        xd_wide = _xi(sec6_spectral_data(0.3), sec6_model_data())
        xd_narrow = _xi(sec6_spectral_data(0.4), sec6_model_data())
        assert xd_narrow.lam == pytest.approx(0.5 * xd_wide.lam, rel=1e-9)


class TestOperatorProperties:
    def test_identity_defect_small(self, sec6_result):
        cm = ConstantModel(sec6_result.model_problem.potential.samples[0])
        defects = operator_identity_defect(
            sec6_result.psi, cm, np.linspace(0.3, np.pi, 5)
        )
        assert np.max(defects) < 1e-7

    def test_operator_norm_tracks_lambda_diagnostic(self):
        norms, lams_diag = [], []
        for a in (0.2, 0.3, 0.4):
            data = sec6_spectral_data(a, 10)
            md = sec6_model_data(10)
            groups = build_groups(data, md, 1)
            wl = collapse_weights(data, 1)
            wm = collapse_weights(md, 1)
            asm = maineq.MainAssembly(groups, wl, wm)
            cm = ConstantModel(np.zeros((3, 3)))
            w = operator_matrix(asm, cm, np.pi / 2)
            norms.append(np.linalg.norm(w, 2))
            lams_diag.append(maineq.diagnostics_xi(asm, model.fit_drifts(data, 1)).lam)
        ratios = np.asarray(norms) / np.asarray(lams_diag)
        assert np.max(ratios) < 10 * np.min(ratios)

    def test_truncation_convergence_trend(self):
        # solutions drift less between deeper truncations
        diffs = []
        for nb_lo, nb_hi in ((6, 10), (10, 14)):
            lo = _solve_scalar_at(nb_lo)
            hi = _solve_scalar_at(nb_hi)
            diffs.append(np.max(np.abs(lo - hi)))
        assert 0.0 < diffs[1] < diffs[0]


def _drifting_scalar_data(n_bands):
    """Every band drifts off the model ladder, so truncation matters."""
    datums = []
    for n in range(1, n_bands + 1):
        rho = n - 0.5 + 0.2 / (np.pi * (n - 0.5)) ** 2
        datums.append(SpectralDatum(n, 1, rho**2, np.array([[2 * rho**2 / np.pi]])))
    return SpectralData(tuple(datums), n_bands)


def _solve_scalar_at(n_bands):
    data = _drifting_scalar_data(n_bands)
    md = scalar_model_data(n_bands)
    groups = build_groups(data, md, 1)
    wl = collapse_weights(data, 1)
    wm = collapse_weights(md, 1)
    cm = ConstantModel(np.zeros((1, 1)))
    x = np.linspace(0, np.pi, 201)
    psi = solve_on_grid(groups, wl, wm, cm, x)
    return psi.values[:, psi.slot_index[(1, 1, 0)], 0, 0]


# ----------------------------------------------------------------------
# row-coefficient assembly against a per-pair reference
# ----------------------------------------------------------------------

def _pairs(asm, wl, wm):
    """Every (u0, u1, a0, a1), cancelling pairs included."""
    return [
        (asm.slot_index[(n, k, 0)], asm.slot_index[(n, k, 1)], wl.alpha[n - 1, k - 1],
         wm.alpha[n - 1, k - 1])
        for n, k in sorted({(n, k) for n, k, _ in asm.slot_index})
    ]


def _weights(alpha):
    """Collapsed weights from {(n, k): matrix}; slots not listed weigh zero."""
    n_bands, m_slots = np.max(list(alpha), axis=0)
    arr = np.zeros((n_bands, m_slots, *next(iter(alpha.values())).shape), dtype=complex)
    for (n, k), a in alpha.items():
        arr[n - 1, k - 1] = a
    return model.CollapsedWeights(1, arr)


def _psd(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a @ a.conj().T


def _shared_unknown_case():
    """One head group in which unknowns recur across pairs.

    rho = 0.4 is the problem side of two pairs, 0.5 the model side of
    two, 0.6 sits on both sides of different pairs; (2, 2) cancels
    exactly and (3, 1) shares one unknown with unequal weights.
    """
    sides = {
        (1, 1): (0.4, 0.5), (1, 2): (0.4, 0.6), (2, 1): (0.6, 0.5),
        (2, 2): (1.1, 1.1), (3, 1): (1.3, 1.3),
    }
    entries = tuple((n, k, s, r[s]) for (n, k), r in sides.items() for s in (0, 1))
    rng = np.random.default_rng(7)
    al = {key: _psd(rng) for key in sides}
    am = {key: _psd(rng) for key in sides}
    am[(2, 2)] = al[(2, 2)].copy()
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cm = ConstantModel(0.4 * (a + a.conj().T))
    return [maineq.Group(1, entries, 0.0)], _weights(al), _weights(am), cm


def _zero_pair_case():
    md = scalar_model_data(6)
    wl = collapse_weights(md, 1)
    return build_groups(md, md, 1), wl, wl, ConstantModel(np.array([[0.3]]))


def _in_eigenbasis(cm, w):
    """Original-basis blocks (..., d, d) -> U^dag w U, the basis of the package's blocks."""
    return cm.udag @ w @ cm.u


def _close(got, ref):
    # relative to the largest reference entry; an all-zero reference must be matched exactly
    assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "case,n_pairs", [(_shared_unknown_case, 4), (_zero_pair_case, 0)], ids=["shared", "zero-pairs"]
)
def test_row_assembly_matches_pair_loop(case, n_pairs):
    from msturm.reconstruct import epsilon_series

    groups, wl, wm, cm = case()
    asm = maineq.MainAssembly(groups, wl, wm)
    assert asm.pair_u0.size == n_pairs
    K, d = asm.n_unknowns, asm.dim
    x = np.linspace(0.0, np.pi, 9)
    kern = d_kernel(cm, x, asm.lams, asm.lams)  # (Nx, K, K, d, d)
    s, sp = dense_traces(cm, x, asm.lams)
    sdag, spdag = s.conj().transpose(0, 1, 3, 2), sp.conj().transpose(0, 1, 3, 2)
    rng = np.random.default_rng(3)
    values = rng.normal(size=s.shape) + 1j * rng.normal(size=s.shape)
    derivs = rng.normal(size=s.shape) + 1j * rng.normal(size=s.shape)

    w = np.zeros((x.size, K, K, d, d), complex)
    wp = np.zeros_like(w)
    eps0 = np.zeros((x.size, d, d), complex)
    deps0 = np.zeros_like(eps0)
    for u0, u1, a0, a1 in _pairs(asm, wl, wm):
        for u, a, sign in ((u0, a0, 1.0), (u1, a1, -1.0)):
            w[:, u] += sign * a @ kern[:, u]
            wp[:, u] += sign * a @ (sdag[:, u, None] @ s)
            eps0 += sign * values[:, u] @ a @ sdag[:, u]
            deps0 += sign * (derivs[:, u] @ a @ sdag[:, u] + values[:, u] @ a @ spdag[:, u])

    # tabulated kernels in another order, with one value the assembly does not use
    lams_t = np.concatenate([asm.lams[::-1], [7.3]])
    table = KernelTable.from_model(cm, x, lams_t)
    # the solver's layout: eigenbasis rows (Nx, d, K, d)
    rows = [_in_eigenbasis(cm, v).swapaxes(1, 2) for v in (values, derivs)]
    psi = maineq.PsiGrid(x, rows, cm, asm, 0.0)
    eps = epsilon_series(psi)

    got = {
        "w": dense_blocks(asm, cm, asm.w_blocks_from_model(cm, x)),
        "wp": dense_blocks(asm, cm, asm.wprime_blocks_from_model(cm, x)),
        "table": w_blocks_from_table(asm, table, 5),
        "eps0": eps.eps0,
        "eps": eps.eps,
    }
    # the package's blocks are in the model eigenbasis: (I_K x U)^dag w (I_K x U)
    ref = {"w": _in_eigenbasis(cm, w), "wp": _in_eigenbasis(cm, wp), "table": w[5],
           "eps0": eps0, "eps": -2.0 * deps0}
    for key, val in got.items():
        assert val.shape == ref[key].shape, key
        _close(val, ref[key])


# ----------------------------------------------------------------------
# blocks from Lagrange's identity against the pair-by-pair kernel
# ----------------------------------------------------------------------

def _kernel_case():
    """One head group whose spectral values reach every branch of the blocks.

    The model is a rotated complex-Hermitian C with levels 1.5 and 6, so
    lam = 0.5, 3 and 4 lie below one or both levels (imaginary sigma).
    Gaps from 1e-12 to 1 relative sit around lam = 0.5 and lam = 9; pair
    (1, 1) ties its two sides with unequal weights, and pair (9, 1)
    cancels exactly, so its unknown carries no pair (R < K).
    """
    sides = {
        (1, 1): (9.0, 9.0),
        (2, 1): (9.0 * (1 + 1e-12), 9.0 * (1 + 1e-6)),
        (3, 1): (9.0 * (1 + 1e-3), 9.0 * (1 + 3e-2)),
        (4, 1): (9.0 * 1.3, 18.0),
        (5, 1): (0.5, 0.5 * (1 + 1e-12)),
        (6, 1): (0.5 * (1 + 1e-8), 0.5 * (1 + 1e-4)),
        (7, 1): (0.5 * (1 + 1e-2), 1.0),
        (8, 1): (3.0, 4.0),
        (9, 1): (2.9, 2.9),
    }
    entries = tuple(
        (n, k, s, float(np.sqrt(lam[s]))) for (n, k), lam in sides.items() for s in (0, 1)
    )
    rng = np.random.default_rng(11)
    al = {key: _psd(rng) for key in sides}
    am = {key: _psd(rng) for key in sides}
    am[(9, 1)] = al[(9, 1)].copy()
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    cm = ConstantModel(v @ np.diag([1.5, 6.0]) @ v.conj().T)
    return MainAssembly([maineq.Group(1, entries, 0.0)], _weights(al), _weights(am)), cm


def test_blocks_match_the_pair_kernel_at_every_node():
    asm, cm = _kernel_case()
    assert asm.rows.size < asm.n_unknowns
    assert np.any(np.real(cm.sigma(asm.lams)) == 0.0)
    x = np.linspace(0.0, np.pi, 13)
    table = KernelTable.from_model(cm, x, asm.lams)
    s = table.s_values
    ref = {
        "w": np.stack([w_blocks_from_table(asm, table, ix) for ix in range(x.size)]),
        "wp": np.einsum("rij,xrkj,xtkl->xrtil", asm.coef, s.conj(), s),
    }
    ref = {key: _in_eigenbasis(cm, val) for key, val in ref.items()}
    got = {"w": asm.w_blocks_from_model(cm, x), "wp": asm.wprime_blocks_from_model(cm, x)}
    got = {key: dense_blocks(asm, cm, val) for key, val in got.items()}
    for key in ref:
        assert got[key].shape == ref[key].shape, key
        err = np.max(np.abs(got[key] - ref[key]))
        assert err <= 1e-12 * np.max(np.abs(ref[key])), (key, err)


# ----------------------------------------------------------------------
# the order-P solve against the dense two-system oracle
# ----------------------------------------------------------------------

def _reduced_solve_case():
    """One head group whose row coefficients have rank 2, 1 and 0.

    Pair (1, 1) ties its two sides with unequal full-rank weights, so the
    row of rho = 0.4 has rank 2.  Pair (2, 1) cancels exactly, so the row
    of rho = 1.1 is all zero.  The weights of pair (3, 1) differ by a
    rank-one term, so the row of rho = 1.3 keeps one singular value about
    1e-6 of the largest, as near-cancelling pairs do on the star graph's
    edge.  Pairs (4, 1) and (5, 1) carry rank-one weights on distinct
    sides.
    """
    sides = {
        (1, 1): (0.4, 0.4), (2, 1): (1.1, 1.1), (3, 1): (1.3, 1.3),
        (4, 1): (0.7, 0.9), (5, 1): (1.7, 2.0),
    }
    entries = tuple((n, k, s, r[s]) for (n, k), r in sides.items() for s in (0, 1))
    rng = np.random.default_rng(5)
    al = {key: _psd(rng) for key in sides}
    am = {key: _psd(rng) for key in sides}
    am[(2, 1)] = al[(2, 1)].copy()
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    am[(3, 1)] = al[(3, 1)] + 1e-6 * np.outer(v, v.conj())
    for key in ((4, 1), (5, 1)):
        for alpha in (al, am):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            alpha[key] = np.outer(v, v.conj())
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cm = ConstantModel(0.3 * (a + a.conj().T))
    return MainAssembly([maineq.Group(1, entries, 0.0)], _weights(al), _weights(am)), cm


def test_reduced_solve_matches_the_dense_oracle():
    asm, cm = _reduced_solve_case()
    # unknowns rho = 0.4, 0.7, 0.9, 1.1, 1.3, 1.7, 2.0
    assert np.bincount(asm.row_factors(cm).u, minlength=asm.n_unknowns).tolist() == [
        2, 1, 1, 0, 1, 1, 1
    ]
    sv = np.linalg.svd(asm.coef, compute_uv=False)
    assert 1e-7 < sv[4, 0] / np.max(sv) < 1e-5
    xs = np.linspace(0.05, np.pi, 9)
    got, resid = maineq._solve_nodes(asm, cm, xs)
    assert resid <= 1e-13
    for g, r in zip(got, solve_nodes_two_systems(asm, cm, xs)):
        g = blocks_in_original_basis(cm, g.swapaxes(1, 2))
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    # the residual of the factored system is that of the full one, phi (I + R) = psi
    # and phi' (I + R) + phi R' = psi', here of values off by 1e-6
    bent = [a * (1.0 + 1e-6) for a in got]
    big = identity_plus_r(asm, cm, xs)
    r_prime = flatten(dense_blocks(asm, cm, asm.wprime_blocks_from_model(cm, xs)))
    vals, derivs = (a.reshape(xs.size, asm.dim, -1) for a in bent)
    s, sp = (maineq._diag_rows(t) for t in cm.traces(xs, asm.lams))
    dense = max(maineq._rel_residual(vals @ big, s),
                maineq._rel_residual(derivs @ big + vals @ r_prime, sp))
    assert dense > 1e-8
    assert maineq._off_node_residual(asm, cm, xs, bent) == pytest.approx(dense, rel=1e-6)
