"""Acceptance suite.

Each test prints one PASS/FAIL line for its criterion at the pinned
tolerance.  The heavy computations are shared through module-scoped
fixtures that also record their wall-clock time, so the runtime budgets
are checked against the actual runs.
"""

import time

import numpy as np
import pytest

from msturm._closed import ConstantModel
from msturm.core import BoundaryCoefficient, PotentialGrid, Problem, Projector
from msturm import forward, graph
from msturm.reconstruct import (
    InverseOptions,
    sec6_closed_form,
    sec6_spectral_data,
    solve_inverse,
)
from oracles import KernelTable, operator_identity_defect

STAR_T = np.full((3, 3), 1.0 / 3.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ----------------------------------------------------------------------
# shared, timed computations
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def star_forward_run():
    prob = Problem(PotentialGrid.zeros(3, 1000), Projector.star(3), BoundaryCoefficient.zero(3))
    t0 = time.perf_counter()
    data = forward.spectral_data(prob, 10, engine="rk4")
    return prob, data, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sec6_run():
    data = sec6_spectral_data(0.3, 15)
    t0 = time.perf_counter()
    result = solve_inverse(data)
    return data, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def roundtrip_run():
    pot = PotentialGrid.diagonal([lambda x: 0.5 * np.sin(x), lambda x: 0.0], 1000)
    prob = Problem(pot, Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
    t0 = time.perf_counter()
    data = forward.spectral_data(prob, 15)
    result = solve_inverse(data)
    return prob, data, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def star_graph_run():
    g = graph.StarGraphProblem.from_callables(
        [lambda x: 0.3 * np.sin(x), lambda x: 0.0, lambda x: 0.0], 1000
    )
    prob = graph.graph_to_matrix(g)
    data = forward.spectral_data(prob, 15)
    locals_ = [graph.extract_local_data(data, i) for i in (1, 2)]
    model_set = graph.derive_star_models(locals_)
    edge = graph.solve_local_inverse(1, locals_[0], model_set.edge_model(1))
    matrix = graph.solve_star_matrix(data, model_set)
    return g, data, edge, matrix


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_1_forward_model_spectrum(star_forward_run):
    """Forward solve of the zero-potential star problem, bands 1..10."""
    prob, data, elapsed = star_forward_run
    drho = 0.0
    dalpha = 0.0
    for n in range(1, 11):
        drho = max(drho, abs(np.sqrt(data.entry(n, 1).lam) - (n - 0.5)))
        drho = max(drho, abs(np.sqrt(data.entry(n, 2).lam) - n))
        assert data.entry(n, 2).lam == data.entry(n, 3).lam
        ref = 2 / np.pi * (n - 0.5) ** 2 * STAR_T
        dalpha = max(
            dalpha,
            np.linalg.norm(data.entry(n, 1).alpha - ref, 2) / np.linalg.norm(ref, 2),
        )
    ok = drho <= 1e-6 and dalpha <= 1e-4 and elapsed <= 30.0
    report(
        "criterion 1 (forward model spectrum)",
        ok,
        f"max|drho| = {drho:.2e} (<= 1e-6), max rel dalpha = {dalpha:.2e} (<= 1e-4), "
        f"runtime {elapsed:.1f}s (<= 30s)",
    )


def test_criterion_2_inverse_boundary_scalar(sec6_run):
    """Reconstruction from the perturbed data, a = 0.3, bands 1..15."""
    _, result, elapsed = sec6_run
    h = float(np.real(np.trace(STAR_T @ result.problem.boundary.matrix @ STAR_T)))
    dh = abs(h + 0.361838)
    hmat = result.problem.boundary.matrix
    structured = np.linalg.norm(hmat - h * STAR_T, 2)
    ok = dh <= 5e-3 and structured <= 1e-8 and elapsed <= 120.0
    report(
        "criterion 2 (inverse boundary coefficient)",
        ok,
        f"h = {h:.6f}, |h + 0.361838| = {dh:.2e} (<= 5e-3), "
        f"||H - hT|| = {structured:.1e}, runtime {elapsed:.1f}s (<= 120s)",
    )


def test_criterion_3_verification_table(sec6_run):
    """Forward eigenvalues of the recovered problem against the table.

    The seventh band value follows the defining rule (n - 1/2)^2 = 42.25;
    see the decisions ledger for the provenance of this entry.
    """
    _, result, _ = sec6_run
    table = [0.090000, 2.250000, 6.250000, 12.250000, 20.250000, 30.250000, 42.250000]
    recs = forward.find_eigenvalues(result.problem, 7)
    got = sorted(r.lam for r in recs if r.slots[0] == 1)
    diffs = [abs(g - t) for g, t in zip(got, table)]
    ok = len(got) == 7 and max(diffs) <= 1e-3
    report(
        "criterion 3 (verification table)",
        ok,
        "lambda_n1 = " + ", ".join(f"{g:.6f}" for g in got) + f"; max diff {max(diffs):.2e} (<= 1e-3)",
    )


@pytest.mark.parametrize("a", [0.1, 0.3, 0.7])
def test_criterion_4_closed_form_equivalence(a):
    """Truncated system solution against the explicit two-unknown solution."""
    data = sec6_spectral_data(a, 15)
    result = solve_inverse(data, InverseOptions(n_grid=99))
    x = result.psi.x
    assert x.size == 100
    cf = sec6_closed_form(a, x)
    i110 = result.psi.slot_index[(1, 1, 0)]
    i111 = result.psi.slot_index[(1, 1, 1)]
    d110 = float(np.max(np.abs(result.psi.values[:, i110] - cf.s110)))
    d111 = float(np.max(np.abs(result.psi.values[:, i111] - cf.s111)))
    deps = float(np.max(np.abs(result.epsilon.eps0 - cf.eps0)))
    ok = d110 <= 1e-6 and d111 <= 1e-6 and deps <= 1e-6
    report(
        f"criterion 4 (closed-form equivalence, a = {a})",
        ok,
        f"sup|dS110| = {d110:.1e}, sup|dS111| = {d111:.1e}, sup|deps0| = {deps:.1e} (all <= 1e-6)",
    )


def test_criterion_5_round_trip(roundtrip_run):
    """Forward then inverse on two decoupled channels, bands 1..15."""
    prob, data, result, elapsed = roundtrip_run
    x = prob.x
    dq = result.problem.potential.samples - prob.potential.samples
    num = np.sqrt(np.trapezoid(np.sum(np.abs(dq) ** 2, axis=(1, 2)), x))
    den = np.sqrt(np.trapezoid(np.sum(np.abs(prob.potential.samples) ** 2, axis=(1, 2)), x))
    rel = float(num / den)
    dh = float(np.linalg.norm(result.problem.boundary.matrix - prob.boundary.matrix, 2))
    ok = rel <= 0.05 and dh <= 1e-2 and elapsed <= 180.0
    report(
        "criterion 5 (round trip)",
        ok,
        f"relative L2 potential error {rel * 100:.2f}% (<= 5%), |dH| = {dh:.2e} (<= 1e-2), "
        f"runtime {elapsed:.1f}s (<= 180s)",
    )


def test_criterion_6_operator_identity(sec6_run):
    """(I - R)(I + R_model) = I at truncation, sampled over the interval."""
    _, result, _ = sec6_run
    cm = ConstantModel(result.model_problem.potential.samples[0])
    xs = np.linspace(0.1, np.pi, 10)
    defects = operator_identity_defect(result.psi, cm, xs)
    ok = float(np.max(defects)) <= 1e-7
    report(
        "criterion 6 (operator identity)",
        ok,
        f"max defect over 10 nodes = {np.max(defects):.2e} (<= 1e-7)",
    )


def test_criterion_7_invariant_suite(star_forward_run, sec6_run, roundtrip_run):
    """Hermitian PSD weights, kernel symmetry, Wronskian, eps0(0), H structure."""
    _, star_data, _ = star_forward_run
    _, sec6_result, _ = sec6_run
    m2_prob, m2_data, m2_result, _ = roundtrip_run
    checks = []

    for data in (star_data, m2_data):
        for d in data.data:
            a = d.alpha
            na = np.linalg.norm(a, 2)
            checks.append(("weight Hermitian", np.linalg.norm(a - a.conj().T, 2) <= 1e-10 * max(na, 1)))
            checks.append(("weight PSD", np.min(np.linalg.eigvalsh(a)) >= -1e-10 * max(na, 1)))

    cm = ConstantModel(sec6_result.model_problem.potential.samples[0])
    lams = np.unique(sec6_result.psi.lams)
    table = KernelTable.from_model(cm, np.linspace(0, np.pi, 51), lams)
    checks.append(("kernel symmetry", table.symmetry_defect() <= 1e-8))

    for prob, lam in ((m2_prob, 3.3), (m2_prob, 17.0), (sec6_result.problem, 2.0)):
        tr = forward.integrate(prob, lam)
        checks.append(("self-Wronskian", forward.self_wronskian_defect(tr) <= 1e-8))

    for res in (sec6_result, m2_result):
        checks.append(("eps0(0) = 0", float(np.max(np.abs(res.epsilon.eps0[0]))) == 0.0))
        h = res.problem.boundary.matrix
        t = res.problem.projector.matrix
        checks.append(("H Hermitian", bool(np.array_equal(h, h.conj().T))))
        checks.append(("H = THT", float(np.linalg.norm(h - t @ h @ t, 2)) <= 1e-14))

    failed = [name for name, ok in checks if not ok]
    report(
        "criterion 7 (invariant suite)",
        not failed,
        f"{len(checks)} checks" + (f"; failed: {failed}" if failed else ", all hold"),
    )


def test_criterion_8_graph_adapter(star_graph_run):
    """Edgewise recovery on the star graph and path agreement."""
    g, data, edge, matrix = star_graph_run
    qtrue = 0.3 * np.sin(edge.x)
    num = np.sqrt(np.trapezoid((edge.q - qtrue) ** 2, edge.x))
    den = np.sqrt(np.trapezoid(qtrue**2, edge.x))
    rel = float(num / den)
    q11 = np.real(matrix.problem.potential.samples[:, 0, 0])
    agree = float(np.max(np.abs(q11 - edge.q)))
    ok = rel <= 0.05 and agree <= 1e-4
    report(
        "criterion 8 (graph adapter)",
        ok,
        f"edge-1 relative L2 error {rel * 100:.2f}% (<= 5%), "
        f"scalar/matrix path agreement {agree:.1e} (<= 1e-4)",
    )
