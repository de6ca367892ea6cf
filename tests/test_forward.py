import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    multiplet_runs,
    validate_problem,
)
from msturm import forward, graph
from msturm.forward import SolutionTrace
from oracles import gram_per_cell


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


def rk4_step_polynomial(q, h):
    """RK4 step map of every cell as a polynomial in lam, (n, 5, 2m, 2m), untruncated.

    The slope is A0 - lam E on z = (Y, Y'); stage s is a polynomial of
    degree s, multiplied out term by term, so the map has degree 4.
    """
    n, m = q.shape[0] - 1, q.shape[1]
    w = 2 * m

    def slope(qs):
        a = np.zeros((n, 2, w, w), dtype=q.dtype)
        a[:, 0, :m, m:] = np.eye(m)
        a[:, 0, m:, :m] = qs
        a[:, 1, m:, :m] = -np.eye(m)
        return a

    def product(a, b):
        out = np.zeros((n, a.shape[1] + b.shape[1] - 1, w, w), dtype=q.dtype)
        for i in range(a.shape[1]):
            for j in range(b.shape[1]):
                out[:, i + j] += a[:, i] @ b[:, j]
        return out

    def affine(c, k):
        """I + c k."""
        out = c * k
        out[:, 0] += np.eye(w)
        return out

    def padded(k):
        return np.concatenate([k, np.zeros((n, 5 - k.shape[1], w, w), dtype=k.dtype)], axis=1)

    am = slope(0.5 * (q[:-1] + q[1:]))
    k1 = slope(q[:-1])
    k2 = product(am, affine(0.5 * h, k1))
    k3 = product(am, affine(0.5 * h, k2))
    k4 = product(slope(q[1:]), affine(h, k3))
    return affine(h / 6.0, padded(k1) + 2.0 * padded(k2) + 2.0 * padded(k3) + k4)


def sweep_batch(batch, size, w, n_maps, per_lam=1):
    """Indices into ``size`` lams for one batch kind of a terminal sweep of width w over n_maps maps.

    "loop": all of them, a batch too large for the product tree; "tree":
    the largest batch the tree takes, spread evenly, whose sweep spans
    more than one block of maps; "one": the first.  per_lam counts the lams
    the sweep carries per lam given (2 in sc_terminal).
    """
    tree_max = forward._TREE_MAX // w**3
    if batch == "loop":
        assert size * per_lam > tree_max
        return np.arange(size)
    if batch == "one":
        return np.arange(1)
    count = tree_max // per_lam
    assert n_maps > forward._BLOCK_CHUNK // (8 * count * per_lam * w * w)
    return np.linspace(0, size - 1, count).round().astype(int)


def batch_params(*axes):
    """Every combination of ``axes`` with each batch kind of :func:`sweep_batch`.

    The "loop" batch takes the plain id of its combination; the others
    add their kind to it.
    """
    params = []
    for combo in itertools.product(*axes):
        base = "-".join(map(str, combo))
        for batch in ("loop", "tree", "one"):
            params.append(pytest.param(*combo, batch, id=base if batch == "loop" else f"{base}-{batch}"))
    return params


def spy_tree(monkeypatch, n_maps):
    """Record the batch size of every sweep of n_maps maps that runs as product trees.

    A sweep multiplies out its blocks of maps in order, one tree each;
    a new sweep starts once the blocks so far cover n_maps maps.
    """
    sweeps, left = [], 0
    tree = forward._tree

    def counted(p, z):
        nonlocal left
        if not left:
            sweeps.append(z.shape[0])
            left = n_maps
        assert z.shape[0] == sweeps[-1] and 0 < p.shape[1] <= left
        left -= p.shape[1]
        return tree(p, z)

    monkeypatch.setattr(forward, "_tree", counted)
    return sweeps


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

    @pytest.mark.parametrize(
        "potential, lam_kind, init, batch",
        batch_params(["star", "coupled"], ["real", "complex"], ["real", "complex"]),
    )
    def test_every_arithmetic_form_matches_batched_sweep(self, potential, lam_kind, init, batch, monkeypatch):
        # real maps (star) or complex ones (coupled), real or complex lams,
        # real or complex initial data; a batch the loop takes, the largest
        # one the product tree takes (over more than one of its chunks), and
        # one lam; against the oracle and against the same lams in two
        # halves.  201 cells make an odd number of composed maps, the last
        # one padded with identity cells
        n_grid = 201
        q = star_q(n_grid) if potential == "star" else coupled_q(n_grid)
        h, m, size = np.pi / n_grid, q.shape[1], 600
        maps = forward._compose(forward._step_stack(q, h))
        assert maps.dtype == (np.float64 if potential == "star" else np.complex128)
        assert maps.shape[0] % 2 == 1 and n_grid % forward._CELLS != 0
        width = (4 if potential == "coupled" or lam_kind == "complex" else 2) * m
        pick = sweep_batch(batch, size, width, maps.shape[0])
        lams = (np.linspace(-5.0, 60.0, size) + (0.5j if lam_kind == "complex" else 0.0))[pick]
        rng = np.random.default_rng(size)
        y0, p0 = rng.standard_normal((2, size, m, m))[:, pick]
        if init == "complex":
            y0 = y0 + 1j * rng.standard_normal((size, m, m))[pick]
        trees = spy_tree(monkeypatch, maps.shape[0])
        got = forward._rk4_sweep(maps, lams, y0, p0)
        assert trees == ([] if batch == "loop" else [lams.size])
        L = lams.size
        parts = (slice(0, L // 2), slice(L // 2, L)) if L > 1 else (slice(0, 1),)
        halves = [forward._rk4_sweep(maps, lams[s], y0[s], p0[s]) for s in parts]
        ref = batched_rk4_sweep(q, h, lams, y0, p0)
        real = potential == "star" and lam_kind == init == "real"
        for g, half, r in zip(got, zip(*halves), ref):
            assert g.dtype == (np.float64 if real else np.complex128)
            scale = np.max(np.abs(r), axis=(1, 2), keepdims=True)
            for other in (r, np.concatenate(half)):
                assert np.max(np.abs(g - other) / scale) < 1e3 * np.finfo(float).eps

    @pytest.mark.parametrize("potential", ["star", "coupled"])
    def test_step_map_is_quadratic_in_lambda(self, potential):
        # the full expansion has degree 4; E^2 = 0 kills every term of
        # degree 3 and 4 exactly, so the package's degree-2 maps are the
        # first three coefficients, bitwise
        q = star_q(50) if potential == "star" else coupled_q(50)
        full = rk4_step_polynomial(q, np.pi / 50)
        assert full.shape == (50, 5, 2 * q.shape[1], 2 * q.shape[1])
        assert np.all(full[:, 3:] == 0.0)
        assert np.any(full[:, 2] != 0.0)
        coef = forward._step_maps(q, np.pi / 50)
        assert np.array_equal(coef, full[:, :3])

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

    @pytest.mark.parametrize("potential, n_grid, batch", batch_params(["star", "coupled"], [201, 203]))
    def test_composed_maps_match_batched_sweep(self, n_grid, potential, batch, monkeypatch):
        # the cell count is not a multiple of the composed step, so the last
        # composed map carries identity cells, and the number of composed
        # maps is odd.  Each batch kind runs as in
        # test_every_arithmetic_form_matches_batched_sweep
        if potential == "star":
            prob = Problem(PotentialGrid(star_q(n_grid)), Projector.star(3), BoundaryCoefficient.zero(3))
        else:
            prob = general_problem(n_grid)
        q, h, m = prob.potential.samples, prob.potential.h, prob.m
        eng = forward._Rk4Engine(prob)
        assert n_grid % forward._CELLS != 0
        assert eng.composed.shape == (-(-n_grid // forward._CELLS), 2 * m, (2 * forward._CELLS + 1) * 2 * m)
        n_maps = eng.composed.shape[0]
        assert n_maps % 2 == 1
        # from the scan floor up past the largest lam the suite reaches
        # (about 239), plus the deepest lam it integrates (weyl_matrix at
        # -1600); then a dense run up to 60, as in test_matches_batched_sweep.
        # Dense sampling up to 240 meets lams where every entry of Y(pi) is
        # small, and there the rounding relative to the largest entry reaches
        # the bound on the per-cell maps as well as on the composed ones.
        floor = forward._scan_samples(prob, 2, eng)[0][0]
        base = np.concatenate([[-1600.0], np.linspace(floor, 240.0, 41), np.linspace(floor, 60.0, 700)])
        rng = np.random.default_rng(n_grid)
        y0 = rng.standard_normal((base.size, m, m)) + 1j * rng.standard_normal((base.size, m, m))
        p0 = rng.standard_normal((base.size, m, m))
        width = (2 if potential == "star" else 4) * m
        pick = sweep_batch(batch, base.size, width, n_maps)
        lams = base[pick]
        # contour-like points off the real axis, S and C in one batch
        zs = base[sweep_batch(batch, base.size, 4 * m, n_maps, per_lam=2)] + 0.5j

        def s_ref(lams):
            return batched_rk4_sweep(q, h, lams, np.zeros((m, m)), np.eye(m))

        trees = spy_tree(monkeypatch, n_maps)
        cases = [
            (eng.s_terminal(lams), s_ref(lams)),
            (eng.sc_terminal(zs), s_ref(zs) + batched_rk4_sweep(q, h, zs, np.eye(m), np.zeros((m, m)))),
            (forward._rk4_sweep(eng.composed, lams, y0[pick], p0[pick]),
             batched_rk4_sweep(q, h, lams, y0[pick], p0[pick])),
        ]
        assert trees == ([] if batch == "loop" else [lams.size, 2 * zs.size, lams.size])
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

    @pytest.mark.parametrize("per_block", [1, 4])
    @pytest.mark.parametrize("kind", ["tree", "loop", "stored", "complex"])
    @pytest.mark.parametrize("potential", ["star", "coupled"])
    def test_sweep_does_not_depend_on_block_size(self, potential, kind, per_block, monkeypatch):
        # blocks of one map each, and of 4 maps, which leave a last block of
        # 3 of the 51 composed maps; a stored sweep keeps every 4th grid node
        # and the last one, which ends the padded last map
        n_grid = 201
        q = star_q(n_grid) if potential == "star" else coupled_q(n_grid)
        h, m = np.pi / n_grid, q.shape[1]
        maps = forward._compose(forward._step_stack(q, h))
        n_maps = maps.shape[0]
        assert n_maps % 4 == 3
        w = (4 if potential == "coupled" or kind == "complex" else 2) * m
        L = forward._TREE_MAX // w**3 + 1 if kind == "loop" else 5
        lams = np.linspace(-5.0, 60.0, L) + (0.5j if kind == "complex" else 0.0)
        rng = np.random.default_rng(L)
        y0, p0 = rng.standard_normal((2, L, m, m))
        monkeypatch.setattr(forward, "_BLOCK_CHUNK", 8 * L * w * w * per_block)
        trees = spy_tree(monkeypatch, n_maps)
        store = kind == "stored"
        got = forward._rk4_sweep(maps, lams, y0, p0, store=store)
        assert trees == ([L] if kind in ("tree", "complex") else [])
        ref = batched_rk4_sweep(q, h, lams, y0, p0, store=store)
        if store:
            nodes = np.minimum(forward._CELLS * np.arange(n_maps + 1), n_grid)
            ref = tuple(r[nodes] for r in ref)
        for g, r in zip(got, ref, strict=True):
            assert g.shape == r.shape
            scale = np.max(np.abs(r), axis=(0, 2, 3) if store else (1, 2), keepdims=True)
            assert np.max(np.abs(g - r) / scale) < 1e3 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 999])
    def test_simpson_weights_exact_on_cubics(self, n):
        x = np.linspace(0.0, np.pi, n + 1)
        w = forward._simpson_weights(n, np.pi / n)
        assert w.sum() == pytest.approx(np.pi, rel=1e-14)
        if n > 1:
            assert w @ x**3 == pytest.approx(np.pi**4 / 4, rel=1e-13)

    @pytest.mark.parametrize("n_grid", [200, 201])
    @pytest.mark.parametrize("potential", ["star", "general"])
    def test_gram_matches_per_cell_sweep(self, n_grid, potential):
        # s_gram sweeps the composed maps and fills the nodes inside every
        # span from its prefix maps; the oracle steps every cell.  201 cells
        # leave a padded last span whose tail nodes must be dropped
        if potential == "star":
            prob = Problem(PotentialGrid(star_q(n_grid)), Projector.star(3), BoundaryCoefficient.zero(3))
        else:
            prob = general_problem(n_grid)
        lams = np.concatenate([[-20.0], np.linspace(-3.0, 60.0, 17)])
        got = forward._Rk4Engine(prob).s_gram(lams)
        ref = gram_per_cell(prob, lams)
        assert got[2].dtype == (np.float64 if potential == "star" else np.complex128)
        for g, r in zip(got, ref):
            assert g.shape == r.shape == (lams.size, prob.m, prob.m)
            scale = np.max(np.abs(r), axis=(1, 2), keepdims=True)
            assert np.max(np.abs(g - r) / scale) < 1e3 * np.finfo(float).eps

    @pytest.mark.parametrize("n_grid", [200, 201])
    @pytest.mark.parametrize("potential", ["star", "general"])
    def test_every_node_path_matches_batched_sweep(self, n_grid, potential):
        # nodes closer than the composed maps' spacing: s_path steps the
        # span starts of their stored sweep through the cell maps; the oracle
        # steps every cell.  201 cells leave a padded last span
        if potential == "star":
            prob = Problem(PotentialGrid(star_q(n_grid)), Projector.star(3), BoundaryCoefficient.zero(3))
        else:
            prob = general_problem(n_grid)
        q, h, m = prob.potential.samples, prob.potential.h, prob.m
        lams = np.concatenate([[-20.0], np.linspace(-3.0, 60.0, 17)])
        got = forward._Rk4Engine(prob).s_path(lams, h)
        ref = batched_rk4_sweep(q, h, lams, np.zeros((m, m)), np.eye(m), store=True)
        for g, r in zip(got, ref, strict=True):
            assert g.shape == r.shape == (n_grid + 1, lams.size, m, m)
            assert g.dtype == (np.float64 if potential == "star" else np.complex128)
            scale = np.max(np.abs(r), axis=(0, 2, 3), keepdims=True)
            assert np.max(np.abs(g - r) / scale) < 1e3 * np.finfo(float).eps

    @pytest.mark.parametrize("potential", ["star", "general"])
    def test_gram_and_path_run_one_stored_sweep_of_the_composed_maps(self, potential, monkeypatch):
        if potential == "star":
            prob = Problem(PotentialGrid(star_q(201)), Projector.star(3), BoundaryCoefficient.zero(3))
        else:
            prob = general_problem(201)
        eng = forward._Rk4Engine(prob)
        sweeps, rk4_sweep = [], forward._rk4_sweep

        def spy(steps, lams, y0, p0, store=False):
            sweeps.append((steps is eng._composed_maps, store))
            return rk4_sweep(steps, lams, y0, p0, store)

        monkeypatch.setattr(forward, "_rk4_sweep", spy)
        lams = np.linspace(-3.0, 60.0, 5)
        # the Gram nodes, every node of a path, and the composed maps' nodes
        for call in (lambda: eng.s_gram(lams), lambda: eng.s_path(lams, eng.h),
                     lambda: eng.s_path(lams, forward._CELLS * eng.h)):
            sweeps.clear()
            call()
            assert sweeps == [(True, True)]

    def test_every_node_fill_raises_on_a_non_finite_inner_node(self):
        # a cell map planted with inf reaches node 1 only through the fill;
        # the stored sweep of the composed maps stays finite
        eng = forward._Rk4Engine(general_problem(200))
        coef = eng._inner_maps.copy()
        coef[0, 0, 0] = np.inf
        eng._inner_maps = coef
        assert np.all(np.isfinite(eng.s_terminal([2.0])[0]))
        for call in (lambda: eng.s_gram([2.0]), lambda: eng.s_path([2.0], eng.h)):
            with pytest.raises(IntegrationOverflowError):
                call()


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


def two_channel_fd_eigenvalues(q_func, k, n=4000):
    """Lowest k finite-difference eigenvalues for m = 2, T = diag(1, 0), H = 0.

    Y(0) = 0; at pi, channel 1 has y' = 0 and channel 2 has y = 0.
    q_func(x) gives the real symmetric (len(x), 2, 2) potential.  The
    unknowns interleave the channels node by node, so the matrix is
    banded; the Neumann node carries half weight and is symmetrised, so
    the scheme is second order throughout.
    """
    from scipy.linalg import eig_banded

    h = np.pi / n
    q = q_func(np.linspace(h, np.pi, n))
    size = 2 * n - 1  # y2(pi) = 0 is not an unknown
    band = np.zeros((3, size))  # lower form: band[d, i] = A[i + d, i]
    band[0] = (2.0 / h**2 + np.stack([q[:, 0, 0], q[:, 1, 1]], axis=1)).reshape(-1)[:size]
    band[1, 0:-1:2] = q[:-1, 1, 0]
    band[2, :-2] = -1.0 / h**2
    band[2, -3] = -np.sqrt(2.0) / h**2
    return eig_banded(band, lower=True, select="i", select_range=(0, k - 1), eigvals_only=True)


def rotated_diag(diag):
    """R diag(diag) R^T, R the rotation by 0.6."""
    r = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
    return r @ np.diag(diag) @ r.T


def coupled_well_q(x, depth=20.0, width=0.3, shift=0.0):
    """A -depth well in channel 1, coupled by 0.3 cos x to 0.5 sin x, plus shift I."""
    q = np.zeros((len(x), 2, 2))
    q[:, 0, 0] = shift - depth * np.exp(-(((x - 0.375 * np.pi) / width) ** 2))
    q[:, 1, 1] = shift + 0.5 * np.sin(x)
    q[:, 0, 1] = q[:, 1, 0] = 0.3 * np.cos(x)
    return q


@st.composite
def commuting_constant_problems(draw):
    """(q, t, r): Q = r diag(q) r^T, T = r diag(t) r^T with t a 0/1 vector.

    With probability one half the last channel repeats the first, so that
    every band holds an exact double.
    """
    m = draw(st.sampled_from([2, 3]))
    q = draw(st.lists(st.floats(-30.0, 30.0), min_size=m, max_size=m))
    t = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m))
    if draw(st.booleans()):
        q[-1], t[-1] = q[0], t[0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(q), np.array(t), np.linalg.qr(rng.standard_normal((m, m)))[0]


def multiplet_pattern(records):
    """Per slot, in (band, slot) order: the eigenvalue and its total multiplicity."""
    total = {}
    for r in records:
        total[r.lam] = total.get(r.lam, 0) + r.multiplicity
    slots = sorted((r.band, k, r.lam) for r in records for k in r.slots)
    return np.array([lam for *_, lam in slots]), [total[lam] for *_, lam in slots]


class TestSearchGuarantees:
    def test_scan_floor_lies_below_a_narrow_well(self):
        # the well falls between every 50th sample, so a floor from a
        # strided maximum (-10.5) lies above the ground state (-14.72)
        prob, _ = narrow_well_problem()
        ground = narrow_well_ground_state()
        assert ground == pytest.approx(-14.72, abs=0.01)
        lams = forward._scan_samples(prob, 2, forward._make_engine(prob, "rk4"))[0]
        assert lams[0] < ground

    def test_narrow_well_ground_state_found(self):
        # the whole 2 pi eigenphase turn of the ground state falls inside
        # one negative-lam scan cell; the count along x finds the cell.
        # Measured against the oracle: 2.4e-3
        prob, _ = narrow_well_problem()
        lowest = min(r.lam for r in forward.find_eigenvalues(prob, 2))
        assert lowest == pytest.approx(narrow_well_ground_state(), abs=1e-2)

    def test_unresolvable_aliased_cell_raises(self, monkeypatch):
        # a bracket tolerance wider than the scan cells leaves the cell
        # that hides the ground state unhalvable: refuse, do not drop it
        prob, _ = narrow_well_problem()
        monkeypatch.setattr(forward, "DEFAULT_TOL", replace(DEFAULT_TOL, root=1e-2))
        with pytest.raises(BracketExhaustionError, match="cannot halve"):
            forward.find_eigenvalues(prob, 2)

    @pytest.mark.parametrize("depth, width, shift, tol", [
        (60.0, 0.3, 0.0, 1.2e-3),
        (40.0, 0.15, 0.0, 1e-3),
        (20.0, 0.3, 9.5, 2.5e-4),
    ])
    def test_deep_coupled_wells_keep_their_bound_states(self, depth, width, shift, tol):
        # a whole eigenphase turn inside one scan cell: (60, 0.3) was refused
        # by a scan uniform in rho; (40, 0.15) lost its ground state, -13.42,
        # with no error; shifted by 9.5, the ground state of the test well
        # sits at 0.35, where cells uniform in lam are 8x wider than cells
        # uniform in rho.  Measured against the oracle: 5.6e-4, 4.9e-4, 1.1e-4
        q = lambda x: coupled_well_q(x, depth, width, shift)
        prob = Problem(PotentialGrid(q(np.linspace(0.0, np.pi, 1001))),
                       Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        recs = forward.find_eigenvalues(prob, 4)
        assert [r.multiplicity for r in recs] == [1] * 8
        ref = two_channel_fd_eigenvalues(q, 8)
        np.testing.assert_allclose([r.lam for r in recs], ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("engine, tol", [("constant", 2.5e-3), ("rk4", 1.2e-2)])
    def test_growing_channel_phase_noise_is_not_a_turn(self, engine, tol):
        # constant Q = R diag(100, -12.5) R^T: a channel grows like e^(10 pi)
        # across [0, pi] and leaves ~1e-3 rad of rounding noise on W's phase.
        # A scan uniform in rho has cells of 3e-4 near lam = 0, where the
        # noise outruns the true advance and a backward step reads as a
        # whole turn (6.28 rad), so it raised.  The noise also bounds the
        # accuracy: measured against the oracle, 1.2e-3 (constant) and
        # 8.8e-3 (rk4, grid 400); the oracle's own error is 1.7e-4.  Where
        # in that noise a bracket closes depends on where the refinement
        # probes
        q = rotated_diag([100.0, -12.5])
        prob = Problem(PotentialGrid.constant(q, 400), Projector(np.diag([1.0, 0.0]), 1),
                       BoundaryCoefficient.zero(2))
        recs = forward.find_eigenvalues(prob, 4, engine=engine)
        assert [r.multiplicity for r in recs] == [1] * 8
        ref = two_channel_fd_eigenvalues(lambda x: np.broadcast_to(q, (len(x), 2, 2)), 8)
        np.testing.assert_allclose([r.lam for r in recs], ref, rtol=0, atol=tol)

    def test_rounding_step_back_is_not_a_crossing(self):
        # constant Q = R diag(50, -6.25) R^T: a channel grows like
        # e^(pi sqrt(50)) and puts ~1e-7 rad of noise on W's phase.  A
        # refinement probe whose phase steps back by that much must not
        # count a crossing; with a 1e-9 rad allowance it did, and the third
        # root closed 1.2e-7 (1 + |lam|) off.  Measured now: <= 4.0e-9.
        # det V(S) = cos^2(0.6) sin(s pi)/s + sin^2(0.6) cos(s pi) tanh(k pi)/k
        # with s^2 = lam + 6.25, k^2 = 50 - lam, divided by cosh(k pi)
        from scipy.optimize import brentq

        def char(lam):
            s, k = np.sqrt(lam + 6.25), np.sqrt(complex(50.0 - lam))
            return (np.cos(0.6) ** 2 * np.sin(s * np.pi) / s
                    + np.sin(0.6) ** 2 * np.cos(s * np.pi) * np.tanh(k * np.pi) / k).real

        prob = Problem(PotentialGrid.constant(rotated_diag([50.0, -6.25]), 400),
                       Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        lams = np.array([r.lam for r in forward.find_eigenvalues(prob, 4, engine="constant")])
        exact = np.array([brentq(char, lam - 1e-3, lam + 1e-3, xtol=1e-15) for lam in lams])
        assert np.all(np.abs(lams - exact) <= 1e-8 * (1.0 + np.abs(exact)))

    def test_scan_does_not_bisect_a_non_unitary_phase(self, monkeypatch):
        # constant Q = R diag(200, -25) R^T: the sweep loses the oscillating
        # solutions and W is far from unitary, so its phase has no turn to
        # resolve; halving its cells would run to the width floor everywhere
        prob = Problem(PotentialGrid.constant(rotated_diag([200.0, -25.0]), 400),
                       Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        calls = []
        w_eigvals = forward._w_eigvals

        def once(ub_inv, lams, engine):
            assert not calls, "the scan bisected a W that is not unitary"
            calls.append(len(lams))
            return w_eigvals(ub_inv, lams, engine)

        monkeypatch.setattr(forward, "_w_eigvals", once)
        with pytest.raises(BracketExhaustionError, match="unitarity defect"):
            forward.find_eigenvalues(prob, 4)

    def test_scan_cells_advance_at_most_a_quarter_turn(self):
        # cells are 1 / (4m) in lam up to lam = 1 and 1 / (8m) in rho above.
        # On the free problem at 30 bands none needs halving (they advance by
        # at most 1.21 rad below lam = 1 and pi / 4 above); the coupled
        # well's ground state turns by 2 pi within a few of them near -9.15,
        # and those are halved
        free = Problem(PotentialGrid.zeros(2, 200), Projector(np.diag([1.0, 0.0]), 1),
                       BoundaryCoefficient.zero(2))
        well = Problem(PotentialGrid(coupled_well_q(np.linspace(0.0, np.pi, 1001))),
                       Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        scans = [forward._scan_samples(prob, bands, forward._make_engine(prob, engine))
                 for prob, bands, engine in ((free, 30, "constant"), (well, 4, "rk4"))]
        for lams, w, _ in scans:
            width = np.diff(lams)
            slow = forward._crossings(w[:-1], w[1:])[1] <= 0.5 * np.pi
            assert np.all(slow | (width <= forward._width_tol(lams[1:])))
        lams = scans[0][0]
        np.testing.assert_allclose(np.diff(lams[lams <= 1.0]), 1.0 / 8.0, rtol=1e-12)
        np.testing.assert_allclose(np.diff(np.sqrt(lams[lams >= 1.0])), 1.0 / 16.0, rtol=1e-9)
        lams = scans[1][0]
        width = np.diff(lams[lams <= 1.0])
        assert np.max(width) <= (1.0 / 8.0) * (1.0 + 1e-12) and np.any(width < 0.99 / 8.0)

    def test_coupled_well_ground_state_found(self):
        # the ground state's eigenphase turns by 6.2 rad within one 0.02 cell,
        # which a scan without bisection refused; measured against the
        # oracle, the eigenvalues are within 1.1e-4
        prob = Problem(PotentialGrid(coupled_well_q(np.linspace(0.0, np.pi, 1001))),
                       Projector(np.diag([1.0, 0.0]), 1), BoundaryCoefficient.zero(2))
        recs = forward.find_eigenvalues(prob, 4)
        assert [r.multiplicity for r in recs] == [1] * 8
        ref = two_channel_fd_eigenvalues(coupled_well_q, 8)
        assert ref[0] == pytest.approx(-9.1531, abs=1e-4)
        np.testing.assert_allclose([r.lam for r in recs], ref, rtol=0, atol=2.5e-4)

    def test_scan_work_is_pinned(self, monkeypatch):
        # a seeded 3-edge star at 6 bands and grid 360: 943 samples when
        # the scan was uniform in rho with W built from (S, S'), 530 when it
        # was uniform in lam, 172 now that W is built from (kappa S, S'),
        # and one count along x at the two ends of the scan
        rng = np.random.default_rng(7)
        a, k = 0.3 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)), 1.0 + 0.02 * rng.uniform(-1.0, 1.0)
        edges = np.zeros((3, 361))
        edges[0] = a * np.sin(k * np.linspace(0.0, np.pi, 361))
        prob = graph.graph_to_matrix(graph.StarGraphProblem(edges))
        sizes = []
        w_eigvals = forward._w_eigvals

        def counted(ub_inv, lams, engine):
            sizes.append(len(lams))
            return w_eigvals(ub_inv, lams, engine)

        path_sizes = []
        path_counts = forward._path_counts

        def counted_path(frame, lams, engine):
            path_sizes.append(len(lams))
            return path_counts(frame, lams, engine)

        monkeypatch.setattr(forward, "_w_eigvals", counted)
        monkeypatch.setattr(forward, "_path_counts", counted_path)
        lams, _, counts = forward._scan_samples(prob, 6, forward._make_engine(prob, "rk4"))
        assert counts[-1] >= 18
        assert sum(sizes) == lams.size <= 190
        assert path_sizes == [2]
        top = 6.45  # the first scan top counts every eigenvalue asked for
        assert lams[-1] < (top + 0.01) ** 2
        step = 1.0 / (4.0 * 3)  # in lam up to lam = 1, half of it in rho above
        assert np.max(np.diff(lams[lams <= 1.0])) <= step * (1.0 + 1e-12)
        assert np.max(np.diff(np.sqrt(lams[lams >= 1.0]))) <= 0.5 * step * (1.0 + 1e-9)

    def test_general_case_search_work_at_25_bands(self, monkeypatch):
        # the general case at 25 bands, grid 400: the search took 2227 W
        # samples when the scan was uniform in lam with W built from
        # (S, S'); 605 now
        sizes = []
        w_eigvals = forward._w_eigvals

        def counted(frame, lams, engine):
            sizes.append(len(lams))
            return w_eigvals(frame, lams, engine)

        monkeypatch.setattr(forward, "_w_eigvals", counted)
        recs = forward.find_eigenvalues(general_problem(400), 25)
        assert sum(r.multiplicity for r in recs) == 50
        assert sum(sizes) <= 2227 // 3

    def test_refinement_work_is_pinned(self, monkeypatch):
        # the same star: the 18 brackets close in 6 batched sweeps.  Its wide
        # scan cells leave one bracket end fixed for a few Illinois steps; a
        # guard that bisects unless the bracket halved in two steps takes 10
        rng = np.random.default_rng(7)
        a, k = 0.3 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)), 1.0 + 0.02 * rng.uniform(-1.0, 1.0)
        edges = np.zeros((3, 361))
        edges[0] = a * np.sin(k * np.linspace(0.0, np.pi, 361))
        prob = graph.graph_to_matrix(graph.StarGraphProblem(edges))
        sizes = []
        w_eigvals = forward._w_eigvals

        def counted(ub_inv, lams, engine):
            sizes.append(len(lams))
            return w_eigvals(ub_inv, lams, engine)

        monkeypatch.setattr(forward, "_w_eigvals", counted)
        recs = forward.find_eigenvalues(prob, 6)
        assert sum(r.multiplicity for r in recs) == 18
        assert sizes[0] > 18 and len(sizes) - 1 <= 6

    @given(commuting_constant_problems())
    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    def test_count_matches_closed_form(self, problem):
        # T and Q share the eigenbasis r: channel j has q_j + (n - 1/2)^2
        # when t_j = 1 (y' = 0 at pi) and q_j + n^2 when t_j = 0
        q, t, r = problem
        m, n_max = len(q), 3
        need = m * n_max
        n = np.arange(1, need + m + 1)
        exact = [(qj + (n - 0.5) ** 2 if tj else qj + n**2, j) for j, (qj, tj) in enumerate(zip(q, t))]
        values = np.concatenate([v for v, _ in exact])
        channel = np.concatenate([np.full(n.size, j) for _, j in exact])
        order = np.argsort(values, kind="stable")[: need + m]
        values, channel = values[order], channel[order]
        # two channels closer than the multiplet threshold, unless one repeats the other
        same = (q[channel[1:]] == q[channel[:-1]]) & (t[channel[1:]] == t[channel[:-1]])
        close = np.diff(values) <= 2.0 * DEFAULT_TOL.mult_rel * (1.0 + np.abs(values[1:]))
        assume(not np.any(close & ~same))
        # a multiplet that the last band cuts is returned only up to the cut
        ref = values[:need]
        ref_mult = [len(run) for run in multiplet_runs(ref) for _ in run]
        prob = Problem(PotentialGrid.constant(r @ np.diag(q) @ r.T, 200),
                       Projector(r @ np.diag(t) @ r.T, int(t.sum())), BoundaryCoefficient.zero(m))
        lams, mult = multiplet_pattern(forward.find_eigenvalues(prob, n_max, engine="constant"))
        assert np.all(np.abs(lams - ref) <= 1e-8 * (1.0 + np.abs(ref)))
        assert mult == ref_mult
        lams, mult = multiplet_pattern(forward.find_eigenvalues(prob, n_max, engine="rk4"))
        assert lams.size == need and mult == ref_mult
        # the count along x, with no scan, at every gap wider than the rk4 error
        qmax = float(np.max(np.abs(q)))
        gap = np.nonzero(np.diff(values) > 0.05)[0]
        probe = np.concatenate([[-qmax - 2.0], 0.5 * (values[gap] + values[gap + 1])])
        for engine in ("constant", "rk4"):
            path, adv = forward._path_counts(forward._Frame.of(prob), probe, forward._make_engine(prob, engine))
            assert np.all(adv < forward._PATH_STEP_MAX)
            assert list(path[1:] - path[0]) == list(gap + 1)

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

    def test_frame_qmax_is_the_largest_two_norm(self):
        # Q(x) is Hermitian, so its largest |eigenvalue| is its 2-norm
        prob = general_problem(300)
        norms = np.linalg.norm(prob.potential.samples, 2, axis=(1, 2))
        assert forward._Frame.of(prob).qmax == pytest.approx(np.max(norms), rel=1e-14)

    @pytest.mark.parametrize("case", ["general", "m4p2"])
    def test_boundary_image_closed_form(self, case):
        # U_b^{-1} = (T + iB)(T - iB)^{-1}, B = I - T + H / kappa, solved directly
        if case == "general":
            prob = general_problem(100)
        else:
            rng = np.random.default_rng(4)
            m = 4
            u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
            t = u[:, :2] @ u[:, :2].conj().T
            t = 0.5 * (t + t.conj().T)
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            h = t @ (a + a.conj().T) @ t
            h = 0.5 * (h + h.conj().T)
            prob = Problem(PotentialGrid.zeros(m, 100), Projector(t, 2), BoundaryCoefficient(h))
            assert validate_problem(prob) == []
        t = prob.projector.matrix
        assert np.linalg.norm(prob.boundary.matrix, 2) > 0.1
        kappa = np.array([0.3, 1.0, 2.5, 40.0])
        b = prob.projector.perp + prob.boundary.matrix / kappa[:, None, None]
        ref = np.linalg.solve((t - 1j * b).swapaxes(-1, -2), (t + 1j * b).swapaxes(-1, -2)).swapaxes(-1, -2)
        got = forward._boundary_image_inv(forward._boundary_eig(prob), kappa)
        assert np.max(np.abs(got - ref)) <= 1e-14


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
