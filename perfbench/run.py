"""heronet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports heronet from the
checkout's `src/` and keeps every file it writes under `.perfbench_work/`
at the checkout root.  With `--trace 0` the result carries the end-to-end
metrics; with `--trace 1` the same work runs with spans around each layer
and the result carries the per-layer metrics instead.  A JSON record with
the environment, the output digest and the fixture build time is printed
just before the result, which is always the last line of stdout.  The exit
code is 0 only when every operation succeeded and every check held.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
from pathlib import Path

# One BLAS thread, set before numpy loads.  The matrices are tiny (d_model
# 64), so a second thread gains about 5%, while it makes every timing hostage
# to whatever else runs on the machine: with one core busy elsewhere, chat
# p99 doubled with two threads and did not move with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import fixtures  # noqa: E402


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded: same handle
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(load_at_start) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "loadavg_at_start": load_at_start}


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(run) -> dict:
    return {
        "pairs_per_s": (run.pairs_per_s, "1/s"),
        "latency_p50_ms": (_percentile(run.latencies_s, 50) * 1e3, "ms"),
        "latency_p99_ms": (_percentile(run.latencies_s, 99) * 1e3, "ms"),
        "setup_s": (run.setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()

    fixtures.import_heronet()
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    name = f"{args.workload}-seed{args.seed}"
    traces = fixtures.WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    scratch = fixtures.WORK / "runs" / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     scratch, args.trace,
                                     traces / f"{name}.npz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = fixtures.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tree": fixtures.tree_hash(),
              "digest": run.digest, "units": run.units,
              "busy_s": run.busy_s,
              "unit_busy_s": run.busy_s / max(run.units, 1),
              "unit_pairs_per_s": run.rates,
              "samples": len(run.latencies_s), "problems": run.problems,
              **run.record, "env": environment(load_at_start)}
    if args.trace:
        metrics = tracer.metrics(run.layers)
        untraced = results / f"{name}-trace0.json"
        base = (json.loads(untraced.read_text(encoding="utf-8"))
                if untraced.exists() else {})
        # Compare only with an untraced run of the same code, unit for unit.
        if base.get("tree") == record["tree"] and "unit_busy_s" in base:
            record["trace_overhead_s"] = (record["unit_busy_s"]
                                          - base["unit_busy_s"])
            record["digest_matches_untraced"] = base["digest"] == run.digest
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end(run).items()}
    (results / f"{name}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n",
        encoding="utf-8")

    correct = not run.problems and run.failed == 0
    print(json.dumps({"record": record}), flush=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
