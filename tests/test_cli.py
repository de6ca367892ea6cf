import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msturm import cli, forward, graph
from msturm.core import (
    BoundaryCoefficient,
    PotentialGrid,
    Problem,
    Projector,
    SpectralData,
    SpectralDatum,
)

def star_problem_file(tmp_path, n_grid=400):
    prob = Problem(
        PotentialGrid.zeros(3, n_grid), Projector.star(3), BoundaryCoefficient.zero(3)
    )
    path = tmp_path / "model.problem.json"
    cli.save_problem(prob, str(path))
    return prob, path


def run_on_document(tmp_path, capsys, command, doc):
    """Run ``command`` on the JSON document ``doc``; return its stderr lines.

    The command must exit 1 and write no output file.
    """
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = "--data" if command == "inverse" else "--problem"
    rc = cli.main([command, flag, str(path), "--output", str(tmp_path / "out")])
    assert rc == 1
    assert not list(tmp_path.glob("out.*"))
    return capsys.readouterr().err.splitlines()


class TestSerialization:
    def test_problem_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pot = PotentialGrid(np.stack([0.5 * (a + a.conj().T)] * 6))
        prob = Problem(pot, Projector(np.diag([1.0, 0.0]), 1),
                       BoundaryCoefficient(np.diag([0.3, 0.0])))
        path = tmp_path / "p.json"
        cli.save_problem(prob, str(path))
        back = cli.load_problem(str(path))
        np.testing.assert_array_equal(back.potential.samples, prob.potential.samples)
        np.testing.assert_array_equal(back.projector.matrix, prob.projector.matrix)
        np.testing.assert_array_equal(back.boundary.matrix, prob.boundary.matrix)
        assert back.projector.p == prob.projector.p

    def test_spectral_data_document_lists_every_slot_in_order(self, star_data):
        doc = cli.spectral_data_to_dict(star_data)
        assert [(e["n"], e["k"], e["lambda"]) for e in doc["data"]] == [
            (d.n, d.k, d.lam) for d in star_data.data
        ]
        assert [e["alpha"] for e in doc["data"]] == [cli._mat_to_json(d.alpha) for d in star_data.data]
        back = cli.spectral_data_from_dict(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(back.lam, star_data.lam)
        np.testing.assert_array_equal(back.alpha, star_data.alpha)

    @given(
        lam=st.floats(min_value=0, max_value=100, allow_nan=False),
        re=st.floats(min_value=-5, max_value=5, allow_nan=False),
        im=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_spectral_data_round_trip_exact(self, lam, re, im, tmp_path_factory):
        alpha = np.array([[1.0, re + 1j * im], [re - 1j * im, 2.0]])
        data = SpectralData((SpectralDatum(1, 1, lam, alpha),), 1)
        doc = cli.spectral_data_to_dict(data)
        back = cli.spectral_data_from_dict(json.loads(json.dumps(doc)))
        assert back.data[0].lam == lam
        np.testing.assert_array_equal(back.data[0].alpha, alpha)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            cli.problem_from_dict({"format": "something-else"})
        with pytest.raises(ValueError, match="format"):
            cli.spectral_data_from_dict({"format": "nope"})

    def test_malformed_matrix_identified(self):
        doc = {
            "format": cli.SPECTRAL_FORMAT,
            "n_bands": 1,
            "data": [{"n": 1, "k": 1, "lambda": 1.0, "alpha": [[1.0]]}],
        }
        with pytest.raises(ValueError, match="alpha entry 0"):
            cli.spectral_data_from_dict(doc)


class TestCommands:
    def test_forward_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, path = star_problem_file(tmp_path)
        rc = cli.main(["forward", "--problem", str(path), "--bands", "2", "--output",
                       str(tmp_path / "fwd")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 | 0.250000" in out
        assert (tmp_path / "fwd.spectral.json").exists()

    def test_inverse_reports_rank_one_structure(self, tmp_path, capsys):
        from msturm.reconstruct import sec6_spectral_data

        data = sec6_spectral_data(0.3, 8)
        path = tmp_path / "d.json"
        cli.save_spectral_data(data, str(path))
        rc = cli.main(["inverse", "--data", str(path), "--grid", "400",
                       "--output", str(tmp_path / "inv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "h = -0.36" in out
        # the worked example's series is exact, so the stabilizer keeps it
        assert "stabilizer: degree 6, not applied, the series is already smooth" in out
        csv_head = (tmp_path / "inv.q.csv").read_text().splitlines()
        assert csv_head[0].startswith("x,q,Q11_re")
        problem = cli.load_problem(str(tmp_path / "inv.problem.json"))
        assert problem.m == 3

    def test_inverse_of_data_with_a_missing_slot(self, tmp_path, capsys):
        from msturm.reconstruct import sec6_spectral_data

        doc = cli.spectral_data_to_dict(sec6_spectral_data(0.3, 10))
        doc["data"] = [e for e in doc["data"] if (e["n"], e["k"]) != (7, 2)]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["inverse", "--data", str(path), "--grid", "200",
                       "--output", str(tmp_path / "inv")])
        assert rc == 1
        assert "slot (n, k) = (7, 2) missing" in capsys.readouterr().err
        assert not list(tmp_path.glob("inv.*"))

    def test_inverse_of_data_without_projector_range(self, tmp_path, capsys):
        # zero potential with T = 0: p = 0, so the recovered T has no range
        from msturm.model import model_spectral_data

        prob = Problem(PotentialGrid.zeros(2, 200), Projector(np.zeros((2, 2)), 0),
                       BoundaryCoefficient.zero(2))
        path = tmp_path / "d.json"
        cli.save_spectral_data(model_spectral_data(prob, 8), str(path))
        rc = cli.main(["inverse", "--data", str(path), "--bands", "8", "--grid", "200",
                       "--output", str(tmp_path / "inv")])
        err = capsys.readouterr().err
        # the recovered problem fails validate_problem: report it, write nothing
        assert rc == 1
        assert "recovered problem is invalid" in err and "got p = 0" in err
        assert not (tmp_path / "inv.problem.json").exists()
        assert not (tmp_path / "inv.q.csv").exists()

    def test_roundtrip_model_passes(self, tmp_path, capsys):
        _, path = star_problem_file(tmp_path)
        rc = cli.main(["roundtrip", "--problem", str(path), "--bands", "6",
                       "--grid", "400", "--output", str(tmp_path / "rt")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 2 and "FAIL" not in out

    # the recovered potential lives on --grid; the error is taken on the input's grid
    @pytest.mark.parametrize("source", ["grid-300-file", "synthetic-at-grid-200"])
    def test_roundtrip_on_a_grid_other_than_the_problem_grid(self, tmp_path, capsys, source):
        if source == "synthetic-at-grid-200":
            argv = ["roundtrip", "--problem", "synthetic", "--grid", "200"]
        else:
            prob = Problem(PotentialGrid.diagonal([lambda x: 0.3 * np.sin(x), np.zeros(301)], 300),
                           Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
            path = tmp_path / "g300.problem.json"
            cli.save_problem(prob, str(path))
            argv = ["roundtrip", "--problem", str(path)]
        cli.main(argv)
        captured = capsys.readouterr()
        assert "error:" not in captured.err
        line = next(s for s in captured.out.splitlines() if s.startswith("relative L2 potential error = "))
        assert 0.0 < float(line.split()[-1].rstrip("%")) < 100.0

    def test_example_sec6_rejects_half(self, capsys):
        rc = cli.main(["example-sec6", "--a", "0.5"])
        assert rc == 1
        assert "a must lie in" in capsys.readouterr().err

    def test_example_sec6_small_a(self, tmp_path, capsys):
        rc = cli.main(["example-sec6", "--a", "0.1", "--bands", "6", "--grid", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        for line in out.splitlines():
            if "closed form" in line and "sup" in line:
                assert float(line.split("=")[-1]) < 1e-6

    def test_example_sec6_coarse_grid_reported(self, capsys):
        rc = cli.main(["example-sec6", "--a", "0.3", "--bands", "15", "--grid", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error in stage 'stabilize'" in err
        assert "n_grid = 2 leaves 1 grid nodes" in err

    def test_graph_local_command(self, tmp_path, capsys, star_data):
        path = tmp_path / "star.json"
        cli.save_spectral_data(star_data, str(path))
        rc = cli.main(["graph-local", "--data", str(path), "--edge", "1",
                       "--grid", "400", "--output", str(tmp_path / "gl")])
        out = capsys.readouterr().out
        assert rc == 0
        lines = (tmp_path / "gl.edge1.csv").read_text().splitlines()
        assert lines[0] == "x,q"
        x, q = np.loadtxt(lines[1:], delimiter=",", unpack=True)
        assert np.max(np.abs(q - 0.3 * np.sin(x))) < 0.1

    @pytest.mark.parametrize("edge", ["0", "3"])
    def test_graph_local_edge_out_of_range(self, tmp_path, capsys, star_data, edge):
        # the 3-edge star has local edges 1 and 2 only
        path = tmp_path / "star.json"
        cli.save_spectral_data(star_data, str(path))
        rc = cli.main(["graph-local", "--data", str(path), "--edge", edge,
                       "--grid", "300", "--output", str(tmp_path / "gl")])
        assert rc == 1
        assert f"--edge must lie in 1..2, got {edge}" in capsys.readouterr().err
        assert not list(tmp_path.glob("gl.edge*.csv"))

    @pytest.mark.parametrize("command", ["forward", "inverse"])
    def test_nonpositive_bands_rejected(self, tmp_path, capsys, command):
        _, path = star_problem_file(tmp_path)
        flag = "--problem" if command == "forward" else "--data"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, str(path), "--bands", "0"])
        assert exc.value.code == 2
        assert "--bands" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol-spec", "--tol-alpha"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_tolerance_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["roundtrip", "--problem", "synthetic", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be positive and finite, got {value}" in capsys.readouterr().err

    # a malformed document ends in one error line, not a traceback
    def test_problem_without_boundary(self, tmp_path, capsys):
        _, path = star_problem_file(tmp_path, n_grid=20)
        doc = json.loads(path.read_text())
        del doc["boundary"]
        assert run_on_document(tmp_path, capsys, "forward", doc) == [
            "error: problem document missing field 'boundary'"
        ]

    def test_spectral_data_without_n_bands(self, tmp_path, capsys, star_data):
        doc = cli.spectral_data_to_dict(star_data.truncate(1))
        del doc["n_bands"]
        assert run_on_document(tmp_path, capsys, "inverse", doc) == [
            "error: spectral-data document missing field 'n_bands'"
        ]

    def test_document_that_is_not_an_object(self, tmp_path, capsys):
        assert run_on_document(tmp_path, capsys, "inverse", [1, 2]) == [
            "error: spectral-data document is not a JSON object"
        ]

    def test_wrongly_typed_potential(self, tmp_path, capsys):
        _, path = star_problem_file(tmp_path, n_grid=20)
        doc = json.loads(path.read_text())
        doc["potential"] = 5
        assert run_on_document(tmp_path, capsys, "forward", doc) == [
            "error: potential is not a JSON array"
        ]

    def test_wrongly_typed_data(self, tmp_path, capsys, star_data):
        doc = cli.spectral_data_to_dict(star_data.truncate(1))
        doc["data"] = 5
        assert run_on_document(tmp_path, capsys, "inverse", doc) == [
            "error: data is not a JSON array"
        ]

    # an integer field holding a fraction or a boolean, or a number field
    # holding a boolean, is refused rather than truncated
    @pytest.mark.parametrize("field, value, error", [
        ("n", 1.7, "n of spectral datum 0 is not a JSON integer"),
        ("k", True, "k of spectral datum 0 is not a JSON integer"),
        ("n_bands", 5.9, "n_bands is not a JSON integer"),
        ("lambda", True, "lambda of spectral datum 0 is not a JSON number"),
        ("p", 1.9, "projector p is not a JSON integer"),
    ])
    def test_wrongly_typed_number(self, tmp_path, capsys, star_data, field, value, error):
        if field == "p":
            doc = cli.problem_to_dict(
                Problem(PotentialGrid.zeros(3, 20), Projector.star(3), BoundaryCoefficient.zero(3))
            )
            doc["projector"]["p"] = value
        else:
            doc = cli.spectral_data_to_dict(star_data.truncate(1))
            (doc if field == "n_bands" else doc["data"][0])[field] = value
        command = "forward" if field == "p" else "inverse"
        assert run_on_document(tmp_path, capsys, command, doc) == [f"error: {error}"]

    # an invalid problem is reported before any solve, and nothing is written
    @pytest.mark.parametrize("command", ["forward", "roundtrip"])
    @pytest.mark.parametrize("q01, t, p, fault", [
        (0.5, [1.0, 0.0], 1, "potential samples not Hermitian"),
        (0.0, [1.0, 0.0], 2, "projector rank 1 does not match p = 2"),
        (0.0, [0.7, 0.0], 1, "projector not idempotent"),
    ], ids=["non-hermitian-Q", "rank-mismatch", "non-projector"])
    def test_invalid_problem_refused(self, tmp_path, capsys, command, q01, t, p, fault):
        samples = np.zeros((21, 2, 2), dtype=complex)
        samples[:, 0, 1] = q01
        prob = Problem(PotentialGrid(samples), Projector(np.diag(t), p), BoundaryCoefficient.zero(2))
        err = run_on_document(tmp_path, capsys, command, cli.problem_to_dict(prob))
        assert len(err) == 1 and err[0].startswith("error: problem is invalid: ")
        assert fault in err[0]

    def test_roundtrip_of_a_zero_potential_reports_the_absolute_error(self, tmp_path, capsys):
        prob = Problem(PotentialGrid.zeros(2, 300), Projector(np.diag([1.0, 0.0]), 1),
                       BoundaryCoefficient.zero(2))
        path = tmp_path / "zero.problem.json"
        cli.save_problem(prob, str(path))
        rc = cli.main(["roundtrip", "--problem", str(path), "--bands", "8", "--grid", "300"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "relative L2 potential error" not in out
        line = next(s for s in out.splitlines() if s.startswith("L2 potential error = "))
        assert line.endswith("(the potential is zero)")
        assert float(line.split()[4]) < 1e-2

    def test_missing_file_is_reported(self, tmp_path, capsys):
        rc = cli.main(["forward", "--problem", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err
