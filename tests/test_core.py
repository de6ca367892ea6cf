import importlib
import inspect
import pkgutil
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msturm
from msturm import cli, core, graph
from msturm.core import (
    DEFAULT_TOL,
    BoundaryCoefficient,
    DimensionError,
    PotentialGrid,
    Problem,
    Projector,
    SpectralData,
    SpectralDatum,
    canonicalize_multiplets,
    multiplet_runs,
    shift_spectrum,
    validate_problem,
    validate_spectral_data,
)
from msturm.reconstruct import InverseOptions


def _toy_data(lams, alphas=None):
    datums = []
    for i, lam in enumerate(lams):
        alpha = np.eye(1) if alphas is None else alphas[i]
        datums.append(SpectralDatum(i + 1, 1, lam, alpha))
    return SpectralData(tuple(datums), len(lams))


class TestValidateProblem:
    def test_star_model_is_valid(self, star_model):
        assert validate_problem(star_model) == []

    def test_full_projector_rejected(self):
        prob = Problem(
            PotentialGrid.zeros(2, 10),
            Projector(np.eye(2), 2),
            BoundaryCoefficient.zero(2),
        )
        report = validate_problem(prob)
        assert any("p < m" in v for v in report)

    def test_boundary_coefficient_outside_range_of_projector(self):
        # H equal to the complement projector is annihilated by T on both sides
        t = np.diag([1.0, 0.0])
        prob = Problem(
            PotentialGrid.zeros(2, 10),
            Projector(t, 1),
            BoundaryCoefficient(np.diag([0.0, 1.0])),
        )
        report = validate_problem(prob)
        assert any("THT" in v for v in report)

    def test_non_hermitian_potential_reported(self):
        samples = np.zeros((11, 2, 2), dtype=complex)
        samples[:, 0, 1] = 1.0
        prob = Problem(
            PotentialGrid(samples), Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2)
        )
        assert any("Hermitian" in v for v in validate_problem(prob))

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(DimensionError):
            Problem(
                PotentialGrid.zeros(3, 10),
                Projector(np.diag([1.0, 0.0]), 1),
                BoundaryCoefficient.zero(3),
            )

    def test_validation_is_deterministic(self, star_model):
        assert validate_problem(star_model) == validate_problem(star_model)

    @pytest.mark.parametrize("field", ["potential", "projector", "boundary coefficient"])
    def test_non_finite_entry_reported(self, field):
        # a NaN sample passes every norm check, and a NaN in T or H makes
        # the norm itself fail to converge; each is reported by field alone
        q = np.zeros((11, 2, 2), dtype=complex)
        t = np.diag([1.0, 0.0]).astype(complex)
        h = np.zeros((2, 2), dtype=complex)
        {"potential": q[4], "projector": t, "boundary coefficient": h}[field][0, 0] = np.nan
        prob = Problem(PotentialGrid(q), Projector(t, 1), BoundaryCoefficient(h))
        assert validate_problem(prob) == [f"{field} has 1 non-finite entries"]

    def test_non_idempotent_projector_reported_once(self):
        # (I - T)^2 - (I - T) = T^2 - T, so the complement has nothing to add
        prob = Problem(
            PotentialGrid.zeros(2, 10), Projector(np.diag([0.7, 0.0]), 1), BoundaryCoefficient.zero(2)
        )
        assert [v for v in validate_problem(prob) if "idempotent" in v] == ["projector not idempotent"]


class TestShiftSpectrum:
    def test_nonnegative_data_is_untouched(self):
        data = _toy_data([0.25, 1.0, 2.25])
        shifted, shift = shift_spectrum(data)
        assert shift == 0.0
        assert shifted is data

    def test_margin_zero_translation(self, monkeypatch):
        data = _toy_data([-1.0, 0.5, 2.0])
        monkeypatch.setattr(core, "DEFAULT_TOL", replace(DEFAULT_TOL, shift_margin=0.0))
        shifted, shift = shift_spectrum(data)
        assert shift == 1.0
        assert [d.lam for d in shifted.data] == [0.0, 1.5, 3.0]

    def test_default_margin(self, monkeypatch):
        # direct formula: max(0, -min lam) + margin
        data = _toy_data([-1.0, 0.5])
        monkeypatch.setattr(core, "DEFAULT_TOL", replace(DEFAULT_TOL, shift_margin=0.25))
        shifted, shift = shift_spectrum(data)
        assert shift == pytest.approx(1.25)
        assert min(d.lam for d in shifted.data) == pytest.approx(0.25)

    @given(
        lams=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
        ),
        margin=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_properties(self, lams, margin):
        data = _toy_data(sorted(lams))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "DEFAULT_TOL", replace(DEFAULT_TOL, shift_margin=margin))
            shifted, shift = shift_spectrum(data)
            again, shift2 = shift_spectrum(shifted)
        assert min(d.lam for d in shifted.data) >= 0.0
        for before, after in zip(data.data, shifted.data):
            assert after.alpha is before.alpha or np.array_equal(after.alpha, before.alpha)
        if shift == 0.0:
            assert again is shifted and shift2 == 0.0


class TestSpectralDataInvariants:
    def test_ordering_violation_detected(self):
        data = _toy_data([2.0, 1.0])
        assert any("nondecreasing" in v for v in validate_spectral_data(data))

    def test_psd_violation_detected(self):
        data = _toy_data([1.0, 2.0], alphas=[np.eye(1), -np.eye(1)])
        assert any("semidefinite" in v for v in validate_spectral_data(data))

    def test_equal_lambda_unequal_alpha_detected(self):
        datums = (
            SpectralDatum(1, 1, 1.0, np.eye(2)),
            SpectralDatum(1, 2, 1.0, 2 * np.eye(2)),
        )
        data = SpectralData(datums, 1)
        assert any("unequal weights" in v for v in validate_spectral_data(data))

    def test_report_matches_the_per_datum_checks(self):
        # every fault once, in a shuffled order; the report lists them
        # datum by datum in (n, k) order, then the multiplets
        skew = np.array([[1.0, 1.0], [0.0, 1.0]])
        datums = (
            SpectralDatum(2, 1, 3.0, np.eye(2)),
            SpectralDatum(1, 2, 2.0, 2.0 * np.eye(2)),
            SpectralDatum(1, 1, 2.0, np.eye(2)),
            SpectralDatum(3, 1, 2.5, -np.eye(2)),
            SpectralDatum(2, 2, 4.0, skew),
            SpectralDatum(3, 2, 5.0, np.zeros((2, 2))),
        )
        data = SpectralData(datums, 3)

        def per_datum(data, tol=DEFAULT_TOL):
            report, prev = [], None
            for d in sorted(data.data, key=lambda d: (d.n, d.k)):
                if prev is not None and d.lam < prev - tol.mult_rel * (1.0 + abs(prev)):
                    report.append(f"lambda not nondecreasing at (n, k) = ({d.n}, {d.k})")
                prev = d.lam
                a, na = d.alpha, np.linalg.norm(d.alpha, 2)
                if np.linalg.norm(a - a.conj().T, 2) > max(tol.psd * na, 1e-14):
                    report.append(f"alpha({d.n},{d.k}) not Hermitian")
                if na > 0 and np.min(np.linalg.eigvalsh(0.5 * (a + a.conj().T))) < -tol.psd * na:
                    report.append(f"alpha({d.n},{d.k}) not positive semidefinite")
            ordered = sorted(data.data, key=lambda d: (d.lam, d.n, d.k))
            for lam in sorted({d.lam for d in ordered}):
                group = sorted((d for d in ordered if d.lam == lam), key=lambda d: (d.n, d.k))
                for o in group[1:]:
                    f = group[0]
                    if np.linalg.norm(o.alpha - f.alpha, 2) > 1e-8 * (1.0 + np.linalg.norm(f.alpha, 2)):
                        report.append(
                            f"equal eigenvalues with unequal weights at ({f.n},{f.k}) vs ({o.n},{o.k})"
                        )
            return report

        report = validate_spectral_data(data)
        assert report == per_datum(data)
        assert len(report) == 4

    @pytest.mark.parametrize("where, bad", [("lam", np.nan), ("alpha", np.inf)])
    def test_non_finite_datum_reported(self, where, bad):
        lams, alphas = [1.0, 2.0, 3.0], [np.eye(2)] * 3
        if where == "lam":
            lams[1] = bad
        else:
            alphas[1] = np.array([[bad, 0.0], [0.0, 1.0]])
        name = "lambda" if where == "lam" else "alpha"
        assert validate_spectral_data(_toy_data(lams, alphas)) == [f"{name}(2,1) not finite"]

    @pytest.mark.parametrize(
        "slots,n_bands,message",
        [
            ([(1, 1), (1, 2), (2, 2)], 2, "(2, 1) missing"),
            ([(1, 1), (1, 2), (2, 1), (1, 2)], 2, "(1, 2) repeated"),
            ([(1, 1), (1, 2), (2, 1), (2, 2)], 1, "(2, 1) outside 1 bands"),
            ([(0, 1), (1, 1)], 1, "(0, 1) outside"),
            ([(1, 0), (1, 1)], 1, "(1, 0) outside"),
        ],
        ids=["missing", "repeated", "band-beyond-n_bands", "band-zero", "slot-zero"],
    )
    def test_incomplete_slot_layout_rejected(self, slots, n_bands, message):
        datums = tuple(SpectralDatum(n, k, float(n * n), np.eye(2)) for n, k in slots)
        with pytest.raises(DimensionError, match=re.escape(message)):
            SpectralData(datums, n_bands)

    @pytest.mark.parametrize("sizes, message", [((1, 2), "[1, 2]"), ((), "[]")], ids=["mixed", "none"])
    def test_weight_sizes_other_than_one_rejected(self, sizes, message):
        datums = tuple(SpectralDatum(1, k + 1, 1.0, np.eye(d)) for k, d in enumerate(sizes))
        with pytest.raises(DimensionError, match=re.escape(f"one weight dimension, got {message}")):
            SpectralData(datums, 1)

    def test_canonicalize_shares_floats(self):
        datums = (
            SpectralDatum(1, 1, 1.0, np.eye(2)),
            SpectralDatum(1, 2, 1.0 + 1e-9, np.eye(2) + 1e-9),
        )
        data = canonicalize_multiplets(SpectralData(datums, 1))
        assert data.data[0].lam == data.data[1].lam
        assert np.array_equal(data.data[0].alpha, data.data[1].alpha)

    def test_multiplets_anchor_at_their_first_member(self):
        # a running-mean anchor chains these into one multiplet 1.3e-6 wide,
        # above the mult_rel = 1e-6 threshold
        lams = [0.0, 0.9e-6, 1.3e-6]
        assert multiplet_runs(lams) == [[0, 1], [2]]
        datums = tuple(SpectralDatum(1, k + 1, lam, np.eye(3)) for k, lam in enumerate(lams))
        data = canonicalize_multiplets(SpectralData(datums, 1))
        assert [d.lam for d in data.data] == [0.0, 0.0, 1.3e-6]


class TestSlotLayout:
    """Slot (n, k) of the data sits at [n - 1, k - 1] of ``lam`` and ``alpha``."""

    @staticmethod
    def shuffled():
        rng = np.random.default_rng(7)
        slots = [(n, k) for n in range(1, 4) for k in range(1, 3)]
        lam = {s: float(s[0] ** 2 + s[1]) for s in slots}
        lam[(2, 2)] = lam[(2, 1)] + 1e-9  # a multiplet for the canonicaliser
        datums = tuple(
            SpectralDatum(n, k, lam[n, k], (n + 0.1 * k) * np.eye(2))
            for n, k in (slots[i] for i in rng.permutation(len(slots)))
        )
        return SpectralData(datums, 3)

    @staticmethod
    def assert_agrees(data):
        for d in data.data:
            assert data.lam[d.n - 1, d.k - 1] == d.lam
            assert np.array_equal(data.alpha[d.n - 1, d.k - 1], d.alpha)

    def test_arrays_in_slot_order(self):
        data = self.shuffled()
        assert data.lam.shape == (3, 2) and data.alpha.shape == (3, 2, 2, 2)
        assert (data.m_slots, data.dim) == (2, 2)
        self.assert_agrees(data)
        assert data.lam[0].tolist() == [2.0, 3.0]

    def test_arrays_are_read_only(self):
        data = self.shuffled()
        with pytest.raises(ValueError, match="read-only"):
            data.lam[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            data.alpha[0, 0] = 0.0

    def test_from_arrays_gives_the_same_datums(self):
        data = self.shuffled()
        back = SpectralData.from_arrays(data.lam, data.alpha)
        assert back.n_bands == data.n_bands
        ordered = sorted(data.data, key=lambda d: (d.n, d.k))
        assert [(d.n, d.k, d.lam) for d in back.data] == [(d.n, d.k, d.lam) for d in ordered]
        for d, o in zip(back.data, ordered):
            assert np.array_equal(d.alpha, o.alpha)

    def test_derived_data_keep_arrays_and_datums_in_agreement(self):
        data = self.shuffled()
        for derived in (data.truncate(2), data.shifted(0.5), canonicalize_multiplets(data)):
            self.assert_agrees(derived)
        assert np.array_equal(data.truncate(2).lam, data.lam[:2])
        assert np.array_equal(data.shifted(0.5).lam, data.lam + 0.5)
        canon = canonicalize_multiplets(data)
        assert canon.lam[1, 1] == canon.lam[1, 0] == data.lam[1, 0]
        assert np.array_equal(canon.alpha[1, 1], data.alpha[1, 0])

    def test_identity_derivations_return_the_data(self):
        data = self.shuffled()
        assert data.shifted(0.0) is data
        assert data.truncate(data.n_bands) is data

    @pytest.mark.parametrize("n_bands", [0, -1, 4])
    def test_truncate_out_of_range_rejected(self, n_bands):
        with pytest.raises(DimensionError, match="cannot truncate"):
            self.shuffled().truncate(n_bands)

    def test_datums_built_once_in_slot_order(self):
        data = self.shuffled()
        assert data.data is data.data
        assert [(d.n, d.k) for d in data.data] == [(n, k) for n in (1, 2, 3) for k in (1, 2)]

    @pytest.mark.parametrize("n, k", [(0, 1), (-1, 1), (4, 1), (1, 0), (1, -1), (1, 3)])
    def test_entry_out_of_range(self, n, k):
        with pytest.raises(KeyError) as err:
            self.shuffled().entry(n, k)
        assert err.value.args == ((n, k),)

    @pytest.mark.parametrize(
        "lam_shape, alpha_shape",
        [((1, 2), (1, 3, 1, 1)), ((1, 2), (2, 2, 2, 2)), ((2,), (2, 1, 1)),
         ((0, 2), (0, 2, 1, 1)), ((1, 2), (1, 2, 2, 3)), ((1, 2), (1, 2))],
        ids=["slots", "bands", "one-dimensional", "empty", "non-square", "scalar-weights"],
    )
    def test_from_arrays_rejects_mismatched_shapes(self, lam_shape, alpha_shape):
        with pytest.raises(DimensionError, match="slot arrays of shapes"):
            SpectralData.from_arrays(np.ones(lam_shape), np.ones(alpha_shape))

    def test_equality_is_identity(self):
        a, b = self.shuffled(), self.shuffled()
        assert a == a
        assert (a == b) is False
        assert len({a, b, a}) == 2

    def test_array_path_builds_no_datum(self, monkeypatch):
        data = self.shuffled()

        def refuse(datum):
            raise AssertionError(f"datum ({datum.n}, {datum.k}) built")

        monkeypatch.setattr(SpectralDatum, "__post_init__", refuse)
        made = SpectralData.from_arrays(data.lam, data.alpha)
        canon = canonicalize_multiplets(made.truncate(2).shifted(0.5))
        local = graph.extract_local_data(canon, 1)
        doc = cli.spectral_data_to_dict(made)
        assert local.data.lam.shape == (2, 2)
        assert [(e["n"], e["k"], e["lambda"]) for e in doc["data"]] == [
            (n, k, data.lam[n - 1, k - 1]) for n in (1, 2, 3) for k in (1, 2)
        ]


def test_projector_helpers():
    t = Projector.star(3)
    assert t.p == 1 and t.m == 3
    basis = t.range_basis()
    assert basis.shape == (3, 1)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(1), atol=1e-14)
    np.testing.assert_allclose(t.matrix @ basis, basis, atol=1e-14)


def test_potential_grid_shapes():
    with pytest.raises(DimensionError):
        PotentialGrid(np.zeros((5, 2, 3)))
    grid = PotentialGrid.diagonal([lambda x: np.sin(x), [0.0] * 11], 10)
    assert grid.m == 2 and grid.n_grid == 10
    assert grid.x[0] == 0.0 and grid.x[-1] == pytest.approx(np.pi)


def _public_callables():
    """Every callable named in the ``__all__`` of an msturm module, with its public methods."""
    for info in pkgutil.iter_modules(msturm.__path__):
        module = importlib.import_module(f"msturm.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if callable(member) and not attr.startswith("_"):
                        yield f"{info.name}.{name}.{attr}", member


def _parameters(fn) -> set[str]:
    try:
        return set(inspect.signature(fn).parameters)
    except ValueError:  # an error class with the builtin constructor takes a message only
        return set()


def test_tolerances_are_not_parameters():
    # every tolerance is read from DEFAULT_TOL where it is used
    assert [name for name, fn in _public_callables() if "tol" in _parameters(fn)] == []
    assert "tol" not in {f.name for f in fields(InverseOptions)}
