"""Benchmark of the msturm forward and inverse solvers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload forward-star --seed 1 --seconds 20 --trace 0

One process, one caller, one solve at a time (a closed loop with a single
client), BLAS limited to one thread.  The run draws a few input instances
from ``--seed``, sets each one up (timed as ``setup_s``), then repeats
the timed operation over the instances until ``--seconds`` have passed
and every instance ran at least once.  Every output is checked against
ground truth at the acceptance criteria's stated accuracy; a raised error
or a missed limit counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate, the traced ones record spans around the public calls into each
layer (see ``tracing.py``), the spans are written to
``perfbench/out/``, and the JSON object carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rel_err": "1",
    "abs_err": "1",
}

# computed from array sizes or call counts, not measured
COMPUTED = {
    "forward.weight_lams": "count-computed",
    "maineq.kernel_entries": "count-computed",
    "maineq.lapack_flops": "flop-computed",
    "maineq.block_bytes": "B-computed",
}


def layer_unit(name: str) -> str:
    if name in COMPUTED:
        return COMPUTED[name]
    if name.endswith("_s"):
        return "s"
    if name in ("trace.coverage", "maineq.residual_max", "model.t_err"):
        return "1"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def emitted(result: dict, trace: bool) -> dict:
    """The result object printed as the last line, each metric with its unit."""
    unit = layer_unit if trace else UNITS.__getitem__
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread for the single caller; must be set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "msturm" / "__init__.py").is_file():
        print(f"error: no msturm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import msturm

    if Path(msturm.__file__).resolve().parent != SRC / "msturm":
        print(f"error: imported msturm from {msturm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from bench import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    result, report, tracer = run_benchmark(wl, wl.size, args.seed, args.seconds, bool(args.trace))
    out = emitted(result, bool(args.trace))
    for line in report:
        print(line)
    for k, m in out["metrics"].items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "result": out})
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
