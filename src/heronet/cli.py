"""Command line entry point.

The subcommands mirror the stage chain -- gen-data, warmup,
pretrain-retrieval, adv-train, rerank-train -- followed by evaluate,
sweep, and chat.  Every subcommand shares the same flags; ablation
switches given on the command line are OR-ed onto the config file.

Exit codes: 0 success, 2 bad config, 3 stage run out of order,
4 training aborted on a non-finite loss or update.

Importing this module pins BLAS to one thread before numpy loads, as
the benchmark does: the order of the float sums in a matrix product
depends on the thread count, so a checkpoint is byte-identical to one
made elsewhere only at the same count.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from . import pipeline  # noqa: E402
from .config import ConfigError, TrainConfig, parse_config  # noqa: E402
from .pipeline import NumericalAbort, StageOrderError  # noqa: E402


def _int_list(text: str) -> list:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


_STAGE_HELP = [
    ("gen-data", "write the synthetic corpus, its vocabulary and a config "
                 "snapshot"),
    ("warmup", "maximum-likelihood generator warm-up"),
    ("pretrain-retrieval", "similarity and matching adapter pretraining"),
    ("adv-train", "adversarial generator/ranker training"),
    ("rerank-train", "rerank head training over mixed candidates"),
    ("evaluate", "test-split metrics, report, and rerank trace"),
    ("sweep", "rerank + evaluate over a grid of m and n"),
    ("chat", "interactive REPL over stdin"),
]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value config file (defaults built in)")
    common.add_argument("--out", metavar="DIR", default="run",
                        help="run directory (default: %(default)s)")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the config seed")
    common.add_argument("--no-kg", action="store_true",
                        help="ablation: no retrieved knowledge in the "
                             "generator input")
    common.add_argument("--no-reward", action="store_true",
                        help="ablation: warm-up objective only, no policy "
                             "gradient")
    common.add_argument("--no-multi-learning", action="store_true",
                        help="ablation: separate encoder for similarity "
                             "retrieval")
    parser = argparse.ArgumentParser(
        prog="heronet",
        description="hybrid retrieval-generation dialogue pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _STAGE_HELP:
        cmd = sub.add_parser(name, parents=[common], help=blurb)
        if name == "sweep":
            cmd.add_argument("--m-values", type=_int_list, metavar="LIST",
                             help="comma-separated retrieved-candidate "
                                  "counts (default: config m)")
            cmd.add_argument("--n-values", type=_int_list, metavar="LIST",
                             help="comma-separated generated-candidate "
                                  "counts (default: config n)")
    return parser


def _load_cfg(args) -> TrainConfig:
    cfg = parse_config(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.no_kg:
        cfg.no_kg = True
    if args.no_reward:
        cfg.no_reward = True
    if args.no_multi_learning:
        cfg.no_multi_learning = True
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(args)
        if args.command == "gen-data":
            pipeline.stage_gen_data(cfg, args.out)
        elif args.command == "warmup":
            pipeline.stage_warmup(cfg, args.out)
        elif args.command == "pretrain-retrieval":
            pipeline.stage_retrieval(cfg, args.out)
        elif args.command == "adv-train":
            pipeline.stage_adversarial(cfg, args.out)
        elif args.command == "rerank-train":
            pipeline.stage_rerank_train(cfg, args.out)
        elif args.command == "evaluate":
            pipeline.stage_evaluate(cfg, args.out)
        elif args.command == "sweep":
            pipeline.stage_sweep(cfg, args.out, args.m_values, args.n_values)
        elif args.command == "chat":
            return pipeline.run_chat(cfg, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageOrderError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 3
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
