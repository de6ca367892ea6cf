import numpy as np
import pytest

from msturm._closed import ConstantModel, pair_integral
from msturm.core import (
    GroupingError,
    SpectralData,
    SpectralDatum,
)
from msturm import maineq, model
from msturm.maineq import KernelTable, assemble, build_groups, solve_main, solve_on_grid
from msturm.model import collapse_weights
from msturm.reconstruct import sec6_closed_form, sec6_spectral_data


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
        traced = KernelTable.from_traces(x, lams, cm.s(x, lams))
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
        table = KernelTable.from_traces(x, lams, cm.s(x, lams))
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
        x = np.linspace(0, np.pi, 41)
        kern = KernelTable.from_model(cm, x, np.asarray([d.lam for d in md.data]))
        eq = assemble(x[20], groups, wl, wl, kern)
        assert eq.blocks == {}
        np.testing.assert_allclose(eq.matrix, np.eye(eq.matrix.shape[0]), atol=1e-15)
        psi = solve_main(eq)
        for got, want in zip(psi, eq.rhs):
            for rho in got.values:
                np.testing.assert_allclose(got.values[rho], want.values[rho], atol=1e-14)

    def test_sec6_collapses_to_displayed_system(self, sec6_data):
        md = sec6_model_data()
        groups = build_groups(sec6_data, md, 1)
        wl = collapse_weights(sec6_data, 1)
        wm = collapse_weights(md, 1)
        cm = ConstantModel(np.zeros((3, 3)))
        lams = np.unique(np.asarray([r**2 for g in groups for r in g.distinct_rhos()]))
        xv = 1.3
        kern = KernelTable.from_model(cm, np.asarray([xv]), lams)
        eq = assemble(xv, groups, wl, wm, kern)
        # only the head collection couples, into every group
        assert all(key[0] == 1 for key in eq.blocks)
        a = 0.3
        f11 = 1 + float(np.real(pair_integral(a, a, xv))) / (2 * np.pi)
        f12 = float(np.real(pair_integral(a, 0.5, xv))) / (2 * np.pi)
        f22 = 1 - float(np.real(pair_integral(0.5, 0.5, xv))) / (2 * np.pi)
        head = eq.blocks[(1, 1)]
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
        lams = np.unique(np.asarray([r**2 for g in groups for r in g.distinct_rhos()]))
        xv = 2.0
        kern = KernelTable.from_model(cm, np.asarray([xv]), lams)
        eq = assemble(xv, groups, wl, wm, kern)
        # direct expansion of the defining sum for the head collection:
        # only the (1, 1) pair survives, with alpha' = 1/(2 pi) both sides
        alpha = 2 * 0.25 / np.pi
        for rho_t in (0.3, 0.5, 1.5, 2.5):
            col = [u for u, (gi, r) in enumerate(eq.unknowns) if r == rho_t][0]
            d03 = alpha * float(np.real(pair_integral(0.3, rho_t, xv)))
            d05 = alpha * float(np.real(pair_integral(0.5, rho_t, xv)))
            assert eq.matrix[0, col] == pytest.approx(d03 + (1.0 if rho_t == 0.3 else 0.0), abs=1e-12)
            assert eq.matrix[1, col] == pytest.approx(-d05 + (1.0 if rho_t == 0.5 else 0.0), abs=1e-12)


class TestSolveMain:
    def test_sec6_matches_closed_form(self, sec6_data):
        md = sec6_model_data()
        groups = build_groups(sec6_data, md, 1)
        wl = collapse_weights(sec6_data, 1)
        wm = collapse_weights(md, 1)
        cm = ConstantModel(np.zeros((3, 3)))
        lams = np.unique(np.asarray([r**2 for g in groups for r in g.distinct_rhos()]))
        for xv in (0.9, 2.2, np.pi):
            kern = KernelTable.from_model(cm, np.asarray([xv]), lams)
            eq = assemble(xv, groups, wl, wm, kern)
            psi = solve_main(eq)
            cf = sec6_closed_form(0.3, xv)
            np.testing.assert_allclose(psi[0].values[0.3], cf.s110[0], atol=1e-8)
            np.testing.assert_allclose(psi[0].values[0.5], cf.s111[0], atol=1e-8)

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
        psi = solve_on_grid(groups, wl, wm, cm, x, with_derivatives=False)
        kern = KernelTable.from_traces(x, psi.lams, cm.s(x, psi.lams))
        rng = np.random.default_rng(1)
        for ix in rng.integers(1, 800, size=10):
            w = psi.assembly.w_blocks_from_table(kern, int(ix))
            big = psi.assembly.flatten(w) + np.eye(psi.lams.size)
            lhs = psi.values[ix, :, 0, 0] @ big
            rhs = cm.s(x[ix], psi.lams)[0, :, 0, 0]
            assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_group_function_norm(self):
        g = maineq.Group(2, ((1, 1, 0, 1.4), (1, 1, 1, 1.5)), 1.5)
        f = maineq.GroupFunction(g, {1.4: np.eye(2), 1.5: 2.0 * np.eye(2)})
        # sup value = 2, difference quotient = 1 / 0.1 = 10
        assert f.norm() == pytest.approx(10.0)

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

    def test_singular_system_reports_condition(self):
        from msturm.core import MainEquationError

        md = scalar_model_data(6)
        groups = build_groups(md, md, 1)
        wl = collapse_weights(md, 1)
        cm = ConstantModel(np.zeros((1, 1)))
        x = np.linspace(0, np.pi, 11)
        kern = KernelTable.from_model(cm, x, np.asarray([d.lam for d in md.data]))
        eq = assemble(x[5], groups, wl, wl, kern)
        eq.matrix[:] = 0.0  # force a defective factorisation
        with pytest.raises(MainEquationError):
            solve_main(eq)


class TestDiagnosticsXi:
    def test_identical_data(self):
        md = scalar_model_data()
        xd = maineq.diagnostics_xi(md, md, 1)
        assert np.all(xd.xi == 0.0) and xd.lam == 0.0

    def test_sec6_values(self, sec6_data):
        xd = maineq.diagnostics_xi(sec6_data, sec6_model_data(), 1)
        assert xd.xi[0] == pytest.approx(0.2, abs=1e-12)
        assert np.max(np.abs(xd.xi[1:])) < 1e-12
        assert xd.lam == pytest.approx(0.2, abs=1e-12)

    def test_gap_homogeneity(self):
        # halving the single square-root gap halves Lambda
        xd_wide = maineq.diagnostics_xi(sec6_spectral_data(0.3), sec6_model_data(), 1)
        xd_narrow = maineq.diagnostics_xi(sec6_spectral_data(0.4), sec6_model_data(), 1)
        assert xd_narrow.lam == pytest.approx(0.5 * xd_wide.lam, rel=1e-9)


class TestOperatorProperties:
    def test_identity_defect_small(self, sec6_result):
        cm = ConstantModel(sec6_result.model_problem.potential.samples[0])
        defects = maineq.operator_identity_defect(
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
            w = maineq.operator_matrix(asm, cm, np.pi / 2)
            norms.append(np.linalg.norm(w, 2))
            lams_diag.append(maineq.diagnostics_xi(data, md, 1).lam)
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
    psi = solve_on_grid(groups, wl, wm, cm, x, with_derivatives=False)
    return psi.values[:, psi.slot_index[(1, 1, 0)], 0, 0]


# ----------------------------------------------------------------------
# row-coefficient assembly against a per-pair reference
# ----------------------------------------------------------------------

def _pairs(asm, wl, wm):
    """Every (u0, u1, a0, a1), cancelling pairs included."""
    return [
        (asm.slot_index[(n, k, 0)], asm.slot_index[(n, k, 1)], wl.alpha_prime[(n, k)],
         wm.alpha_prime[(n, k)])
        for n, k in wl.alpha_prime
    ]


def _weights(alpha):
    return model.CollapsedWeights(1, alpha, {}, {}, [])


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

    def psd():
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return a @ a.conj().T

    al = {key: psd() for key in sides}
    am = {key: psd() for key in sides}
    am[(2, 2)] = al[(2, 2)].copy()
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cm = ConstantModel(0.4 * (a + a.conj().T))
    return [maineq.Group(1, entries, 0.0)], _weights(al), _weights(am), cm


def _zero_pair_case():
    md = scalar_model_data(6)
    wl = collapse_weights(md, 1)
    return build_groups(md, md, 1), wl, wl, ConstantModel(np.array([[0.3]]))


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
    kern = cm.d_kernel(x, asm.lams, asm.lams)  # (Nx, K, K, d, d)
    s = cm.s(x, asm.lams)
    sdag = s.conj().transpose(0, 1, 3, 2)
    spdag = cm.sp(x, asm.lams).conj().transpose(0, 1, 3, 2)
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
    psi = maineq.PsiGrid(x, asm.rhos, asm.lams, values, derivs, asm.slot_index, groups, 0.0, asm)
    eps = epsilon_series(psi, cm, wl, wm)

    got = {
        "w": asm.w_blocks_from_model(cm, x),
        "wp": asm.wprime_blocks_from_model(cm, x),
        "table": asm.w_blocks_from_table(table, 5),
        "eps0": eps.eps0,
        "eps": eps.eps,
    }
    ref = {"w": w, "wp": wp, "table": w[5], "eps0": eps0, "eps": -2.0 * deps0}
    for key, val in got.items():
        assert val.shape == ref[key].shape, key
        _close(val, ref[key])
