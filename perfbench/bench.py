"""Measurement loop shared by ``run.py`` and the smoke test."""

from __future__ import annotations

import contextlib
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tracing import Tracer, layer_metrics

INSTANCES = 3
SETUP_REPEAT_SECONDS = 1.5
SETUP_REPEAT_MAX = 10000

# a metric with no successful operation behind it reads as the worst value
NO_RESULT = sys.float_info.max


def _setup(wl, inputs, size):
    """Set an instance up repeatedly (cheap set-ups get a steadier median)."""
    times, spent = [], 0.0
    while not times or (spent < SETUP_REPEAT_SECONDS and len(times) < SETUP_REPEAT_MAX):
        t0 = time.perf_counter()
        state = wl.setup(inputs, size)
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return state, times


def _attempt(wl, inputs, state, size, perturb, tracer=None):
    """One timed operation, traced when a tracer is given.

    Returns (seconds, errors or None, missed limits, operation span or None).
    """
    op = None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.patched())
            op = stack.enter_context(tracer.span("op", workload=wl.name))
        t0 = time.perf_counter()
        try:
            out = wl.run(state, size)
        except Exception as exc:  # noqa: BLE001 - a raised error is a failed operation
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return dt, None, [f"raised {type(exc).__name__}: {exc}"], op
        dt = time.perf_counter() - t0
    errs, missed = wl.check(inputs, state, out, size, perturb)
    return dt, errs, missed, op


def run_benchmark(wl, size, seed, seconds, trace, perturb=0.0):
    """Set up, run the closed loop for ``seconds`` and summarise.

    Returns (result, report lines, tracer or None); ``result`` holds
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (plain values).
    """
    rng = np.random.default_rng(seed)
    inputs = [wl.make_inputs(rng, size) for _ in range(INSTANCES)]
    states, setup_times = [], []
    for inp in inputs:
        state, times = _setup(wl, inp, size)
        states.append(state)
        setup_times.extend(times)

    tracer = Tracer() if trace else None
    walls, traced_walls, layer_rows, checks, report = [], [], [], [], []
    failed = attempted = 0
    t_start = time.perf_counter()
    i = 0
    # with tracing, each instance runs untraced and then traced
    per_instance = 2 if trace else 1
    while i < per_instance * INSTANCES or time.perf_counter() - t_start < seconds:
        inst = (i // per_instance) % INSTANCES
        traced = trace and i % 2 == 1
        if traced:
            tracer.run_id = i
        dt, errs, missed, op = _attempt(
            wl, inputs[inst], states[inst], size, perturb, tracer if traced else None
        )
        if traced:
            traced_walls.append(dt)
            layer_rows.append(layer_metrics(tracer, op, wl.true_projector(inputs[inst])))
        else:
            walls.append(dt)
        attempted += 1
        if errs is not None:
            checks.append(errs)
        if missed:
            failed += 1
            report.append(f"FAILED {wl.name} instance {inst}: " + "; ".join(missed))
        i += 1

    for name in sorted({k for c in checks for k in c}):
        vals = [c[name] for c in checks if name in c]
        report.append(f"{wl.name} {name} = {statistics.median(vals):.4e} (median of {len(vals)})")
    report.append(
        f"{wl.name}: {attempted} operations, {failed} failed; wall median of {len(walls)}"
        f" = {statistics.median(walls):.3f} s, set-up median of {len(setup_times)}"
    )
    report.append(f"{wl.name} operation seconds: " + " ".join(f"{w:.3f}" for w in walls))

    if trace:
        metrics = {
            k: float(statistics.median(row[k] for row in layer_rows)) for k in layer_rows[0]
        }
        metrics["trace.overhead_s"] = float(
            statistics.median(traced_walls) - statistics.median(walls)
        )
    else:
        rel_name, abs_name = wl.primary

        def med(name):
            vals = [c[name] for c in checks]
            return float(statistics.median(vals)) if vals else NO_RESULT

        metrics = {
            "wall_s": float(statistics.median(walls)),
            "setup_s": float(statistics.median(setup_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rel_err": med(rel_name),
            "abs_err": med(abs_name),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report, tracer
