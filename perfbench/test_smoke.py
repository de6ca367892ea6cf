"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Size  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the smallest sizes at which each workload still meets its stated accuracy
TINY = {
    "forward-star": Size(bands=5, grid=240),
    "graph-star": Size(bands=5, grid=200),
    "roundtrip-general": Size(bands=10, grid=200),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def runs(request):
    """Untraced, traced and perturbed-reference runs of one workload."""
    saved = bench.INSTANCES
    bench.INSTANCES = 1
    try:
        wl, size = WORKLOADS[request.param], TINY[request.param]
        plain = bench.run_benchmark(wl, size, 3, 0.0, False)[0]
        traced = bench.run_benchmark(wl, size, 3, 0.0, True)[0]
        perturbed = bench.run_benchmark(wl, size, 3, 0.0, False, perturb=0.5)[0]
    finally:
        bench.INSTANCES = saved
    return plain, traced, perturbed


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_every_metric_emitted_with_unit(runs):
    plain, traced, _ = runs
    for result, trace, kind in ((plain, False, "end_to_end"), (traced, True, "per_layer")):
        out = run.emitted(result, trace)
        assert out["failed"] == 0 and out["correct"] and out["attempted"] >= 1
        got = {k: m["unit"] for k, m in out["metrics"].items()}
        assert got == _declared(kind)
        assert all(isinstance(m["value"], float) for m in out["metrics"].values())


def test_perturbed_reference_counts_failures(runs):
    plain, _, perturbed = runs
    assert perturbed["failed"] > plain["failed"]
    assert perturbed["failed"] == perturbed["attempted"]


def test_layer_spans_cover_the_operation(runs):
    _, traced, _ = runs
    assert traced["metrics"]["trace.coverage"] >= 0.9


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert tr.self_seconds(outer) == pytest.approx(outer.seconds - inner.seconds)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "forward-star", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
