"""Prerequisite run directories, made by the real stage chain and cached.

A fixture is a run directory holding the gen-data files plus every
checkpoint up to one stage.  It is built by calling the pipeline's own stage
functions in a child process, so the benchmark process's memory and time
are not charged for it, and it is cached under a key that hashes the
`src/heronet` tree, the stage, the seed and the full config.  Any change to
the package therefore rebuilds it.  Runs never work in a fixture directly:
they copy it first, so a stage can never overwrite its own input.

Usage as a script (what `ensure` runs):
    python3 perfbench/fixtures.py --stage adversarial --seed 7
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The stage chain, in order, with the checkpoint stem each stage leaves.
CHAIN = ["gen-data", "warmup", "retrieval", "adversarial", "rerank"]
CKPT = {"warmup": "ckpt_warmup", "retrieval": "ckpt_retrieval",
        "adversarial": "ckpt_adversarial", "rerank": "ckpt_rerank"}
DATA_FILES = ("train.jsonl", "valid.jsonl", "test.jsonl", "pool.jsonl")

# Bump when the fixture layout changes so stale caches are not reused.
_FORMAT = 1


def import_heronet():
    """Import heronet from this checkout's src tree, never from elsewhere."""
    init = SRC / "heronet" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no heronet package at {init.parent}")
    sys.path.insert(0, str(SRC))
    import heronet
    if Path(heronet.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported heronet from {heronet.__file__}"
                         f", expected {init}")
    return heronet


def bench_config(seed: int):
    """The desk config with one epoch per stage: one epoch is one unit."""
    from heronet.config import TrainConfig
    return replace(TrainConfig(), seed=seed, warmup_epochs=1,
                   multitask_epochs=1, adversarial_epochs=1, rerank_epochs=1)


def tree_hash() -> str:
    h = hashlib.sha256()
    pkg = SRC / "heronet"
    for path in sorted(pkg.rglob("*.py")):
        h.update(path.relative_to(pkg).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def fixture_dir(stage: str, seed: int) -> Path:
    key = json.dumps({"format": _FORMAT, "tree": tree_hash(), "stage": stage,
                      "config": asdict(bench_config(seed))}, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:20]
    return WORK / "fixtures" / f"{stage}-seed{seed}-{digest}"


def ensure(stage: str, seed: int) -> tuple:
    """(fixture directory, seconds spent building it, 0.0 on a cache hit)."""
    dest = fixture_dir(stage, seed)
    if (dest / "DONE").exists():
        return dest, 0.0
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--stage", stage, "--seed", str(seed)],
                   stdout=sys.stderr, check=True)
    built = time.perf_counter() - t0
    if not (dest / "DONE").exists():
        raise RuntimeError(f"fixture build left no {dest}")
    print(f"[perfbench] built {stage} fixture for seed {seed} in "
          f"{built:.1f}s -> {dest.name}", file=sys.stderr, flush=True)
    return dest, built


def _build(stage: str, seed: int) -> Path:
    """Build (in this process) the fixture for stage and any it rests on."""
    from heronet import pipeline

    dest = fixture_dir(stage, seed)
    if (dest / "DONE").exists():
        return dest
    cfg = bench_config(seed)
    tmp = dest.with_name(f"{dest.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    at = CHAIN.index(stage)
    if at == 0:
        tmp.mkdir(parents=True)
    else:
        shutil.copytree(_build(CHAIN[at - 1], seed), tmp)
    run = {"gen-data": pipeline.stage_gen_data,
           "warmup": pipeline.stage_warmup,
           "retrieval": pipeline.stage_retrieval,
           "adversarial": pipeline.stage_adversarial,
           "rerank": pipeline.stage_rerank_train}[stage]
    with contextlib.redirect_stdout(sys.stderr):
        run(cfg, tmp)
    (tmp / "DONE").write_text(stage + "\n", encoding="utf-8")
    try:
        tmp.rename(dest)
    except OSError:
        # Another run finished the same fixture first; keep theirs.
        shutil.rmtree(tmp, ignore_errors=True)
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=CHAIN, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import_heronet()
    _build(args.stage, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
