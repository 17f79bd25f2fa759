"""One measured task in a fresh process: a set-up, a stage call or a chat pass.

    python3 perfbench/child.py --task setup --workload chat --seed 1 \
        --dir <copy> --result <file.json>

`<copy>` is a fresh copy of the task's fixture.  `--workload` names a
training stage (`retrieval`, `adversarial`, `rerank`) or `chat`.  The task
is the first heronet work of the process, as it is for a user who runs one
stage or opens one chat session, so nothing an earlier task left in memory
can speed it up.  The result is written as JSON to `--result`; with
`--trace 1` it includes the per-layer summary of the process's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
from pathlib import Path

# One BLAS thread, set before numpy loads; see README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import fixtures  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--task", choices=("setup", "unit"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--queries", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    fixtures.import_heronet()
    import tracer
    import workloads
    # Load every heronet module before tracing rebinds their functions.
    from heronet import cli  # noqa: F401  (imports the whole package)

    if args.task == "setup":
        result = {"setup_s": workloads.setup_once(args.workload, args.seed,
                                                  args.dir)}
    else:
        spans = None
        if args.trace:
            spans = tracer.Tracer()
            spans.install()
        if args.workload == "chat":
            queries = args.queries.read_text(encoding="utf-8").splitlines()
            result = workloads.chat_pass(args.seed, args.dir, queries)
        else:
            result = workloads.stage_call(args.workload, args.seed, args.dir)
        if spans is not None:
            result["layers"] = spans.summary()
            if args.spans is not None:
                spans.write(args.spans)
    result["maxrss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
