"""Stage orchestration: data, training phases, evaluation, sweep, chat.

Stages form a strict chain -- gen-data, warmup, pretrain-retrieval,
adv-train, rerank-train -- each consuming the previous stage's checkpoint
and leaving its own plus a CSV loss log.  gen-data builds the vocabulary
and writes it to vocab.json; every later stage, evaluate, sweep and chat
read it from there.  Every later stage, evaluate and sweep also read
the cluster ids gen-data writes to clusters.json; chat does not.
Running a stage out of order raises StageOrderError, and so does a run
artifact that does not read back (bad JSON, a missing key, a wrong type,
a checkpoint blob that fails its hash): the error names the file and the
command that writes it again.
Every training stage runs its epochs through one loop, `_run_epochs`,
which after each epoch saves the checkpoint and then rewrites the log,
each file with one atomic move.  The checkpoint leads: its `epoch`
counts the epochs it holds, and after a non-finite loss or weight
update (NumericalAbort) or a kill at any instant, the log's last epoch
row is that epoch or the one before, never a later one.  Its `step`
counts the optimizer steps taken so far: epochs times batches per
epoch.  Every checkpoint records the sha256 of the vocab.json it was
trained under, and a stage, evaluate or chat that finds another
vocab.json in the run directory refuses it (StageOrderError naming
warmup), since its embeddings index the old vocabulary.

The rerank checkpoint is what chat and evaluate serve from.  It
carries the pool rows that rerank-train encoded with the frozen
encoder, the pool's token ids they were encoded from, and the sha256
of the pool.jsonl rerank-train loaded.  Chat and evaluate check that
digest against pool.jsonl and build their pool cache from the stored
rows and ids: they encode no pool entry and tokenize no pool text.
Chat reads vocab.json and the rerank checkpoint, only hashes
pool.jsonl, and opens no split file.  Chat and evaluate answer through
one function, rerank.serve, so the generation metrics and the rank-1
provenance mix score what chat serves.

Determinism: every stochastic site owns a named rng stream (see seeds),
wall-clock time is confined to the final CSV column, and loss values are
written with full repr precision, so two runs with the same seed produce
identical logs and byte-identical checkpoints.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import seeds
from .bm25 import Bm25Index
from .checkpoint import (checkpoint_stage, load_checkpoint, read_checkpoint,
                         save_checkpoint, write_atomic)
from .config import (ConfigError, TrainConfig, render_config,
                     validate_config)
from .corpus import (Corpus, Vocab, build_vocab, decode_ids, encode_text,
                     generate_synthetic_corpus, read_pairs, read_pool,
                     read_vocab, splice_context, validate_corpus, write_pairs,
                     write_pool, write_vocab)
from .discriminator import disc_step, score_pairs
from .generation import (pg_step, sequence_ce, knowledge_sources,
                         build_teacher_batch)
from .metrics import (generation_report, render_table, report_json,
                      retrieval_metrics)
from .model import (ModelConfig, add_retrieval_encoder, encode_mean_pool,
                    init_params, param_subset, params_fingerprint,
                    sample_batch, sqd_encoder, tile_hidden)
from .rerank import rerank_train_epoch, serve
from .retrieval import (PoolCache, build_pool_cache, embed_pool,
                        mine_qrm_batch, mine_sqd_batch, pool_token_lists,
                        qrm_step, query_rows, restore_pool_cache,
                        retrieve_top_m_batch, sqd_step, two_stage_rank)


class StageOrderError(RuntimeError):
    """A stage was invoked before its prerequisite produced its artifact."""


class NumericalAbort(RuntimeError):
    """Training hit a non-finite loss or update; last good checkpoint kept."""


_CKPT = {"warmup": "ckpt_warmup", "retrieval": "ckpt_retrieval",
         "adversarial": "ckpt_adversarial", "rerank": "ckpt_rerank"}
_STAGE_CMD = {"warmup": "warmup", "retrieval": "pretrain-retrieval",
              "adversarial": "adv-train", "rerank": "rerank-train"}

_DATA_FILES = ("train.jsonl", "valid.jsonl", "test.jsonl", "pool.jsonl",
               "clusters.json", "vocab.json")


# ---------------------------------------------------------------------------
# shared plumbing


def model_config(cfg: TrainConfig, vocab: Vocab) -> ModelConfig:
    return ModelConfig(vocab_size=vocab.size, d_model=cfg.d_model,
                       n_heads=cfg.n_heads, d_ff=cfg.d_ff,
                       n_layers=cfg.n_layers, d_proj=cfg.d_proj,
                       max_seq_len=cfg.max_seq_len)


def _records(corpus) -> dict:
    """Each split's records in file order, keyed as in clusters.json."""
    return {"train": corpus.train, "valid": corpus.valid,
            "test": corpus.test, "pool": corpus.pool.entries}


def _require_retrieval(cfg: TrainConfig, command: str) -> None:
    """A stage that retrieves m pool entries per query needs m >= 1;
    rerank-train, sweep, evaluate and chat work with m = 0."""
    if cfg.m < 1:
        raise ConfigError(f"m: must be >= 1 for {command}, which retrieves "
                          "m pool entries per query")


def _require_data(out: Path, names) -> None:
    missing = [f for f in names if not (out / f).exists()]
    if missing:
        raise StageOrderError(f"missing {', '.join(missing)} under {out}; "
                              "run heronet gen-data first")


@contextlib.contextmanager
def _rewritten_by(command: str):
    """Turn a ValueError of reading a run artifact, which names the file,
    into a StageOrderError naming the command that writes it again."""
    try:
        yield
    except ValueError as exc:
        raise StageOrderError(f"{exc}; run heronet {command} again") from exc


def _load_vocab(cfg: TrainConfig, out: Path) -> tuple:
    """(vocabulary, model shape) from the vocab.json gen-data wrote.

    A vocabulary built with another vocab_size than cfg's, or a file that
    does not read as one, is a stage error: gen-data, run again with this
    config, rebuilds it.
    """
    path = out / "vocab.json"
    with _rewritten_by("gen-data"):
        vocab, built_with = read_vocab(path)
    if built_with != cfg.vocab_size:
        raise StageOrderError(
            f"{path} was built with vocab_size={built_with}, the config "
            f"asks for {cfg.vocab_size}; run heronet gen-data again")
    return vocab, model_config(cfg, vocab)


def load_world(cfg: TrainConfig, out: Path):
    """Corpus, vocabulary, and model shape from the gen-data artifacts.

    The vocabulary is the one gen-data wrote to vocab.json; nothing here
    counts tokens.  Every record takes its cluster id from clusters.json,
    which must map each split to one integer id per record.  A file that
    does not read back is a stage error naming gen-data.
    """
    out = Path(out)
    _require_data(out, _DATA_FILES)
    vocab, mcfg = _load_vocab(cfg, out)
    sidecar = out / "clusters.json"
    with _rewritten_by("gen-data"):
        corpus = Corpus(train=read_pairs(out / "train.jsonl"),
                        valid=read_pairs(out / "valid.jsonl"),
                        test=read_pairs(out / "test.jsonl"),
                        pool=read_pool(out / "pool.jsonl"))
        validate_corpus(corpus)
        try:
            ids = json.loads(sidecar.read_bytes())
        except ValueError:
            ids = None
        if not isinstance(ids, dict):
            raise ValueError(f"{sidecar} is not a JSON object of cluster id "
                             "lists by split")
        for split, records in _records(corpus).items():
            got = ids.get(split)
            if not isinstance(got, list) or len(got) != len(records):
                raise ValueError(f"{sidecar} does not list one cluster id "
                                 f"per {split} record ({len(records)})")
            for rec, cid in zip(records, got):
                if type(cid) is not int:
                    raise ValueError(f"{sidecar} holds {cid!r} among the "
                                     f"{split} ids, not an integer cluster id")
                rec.cluster_id = cid
    return corpus, vocab, mcfg


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _stage_checkpoint(out: Path, stage: str, read) -> tuple:
    """read(path), load_checkpoint or read_checkpoint, of the stage's
    checkpoint under out, once it is there with its tag and records the
    sha256 of out's vocab.json.

    A checkpoint trained under another vocabulary (gen-data run again
    with another seed) is refused: its embeddings index other tokens.  So
    is one whose first line this version does not read as a manifest, as
    a checkpoint made before checkpoints recorded their vocabulary, and
    one whose blob does not match its manifest.
    """
    out = Path(out)
    path = out / _CKPT[stage]
    with _rewritten_by(_STAGE_CMD[stage]):
        found = checkpoint_stage(path)
    if found is None:
        raise StageOrderError(
            f"no '{stage}' checkpoint under {out}; run {_STAGE_CMD[stage]} "
            "first")
    if found != stage:
        raise StageOrderError(
            f"checkpoint {path} holds stage {found!r}, expected {stage!r}")
    with _rewritten_by(_STAGE_CMD[stage]):
        got = read(path)
    if got[1]["vocab_sha256"] != _file_sha256(out / "vocab.json"):
        raise StageOrderError(
            f"checkpoint {path} was trained under another vocab.json than "
            f"the one under {out}; run heronet warmup and the stages after "
            "it again")
    return got


def _load_stage(out: Path, stage: str):
    return _stage_checkpoint(out, stage, load_checkpoint)[0]


def _load_served(out: Path) -> tuple:
    """(params, cache) of the rerank checkpoint, the cache made from the
    pool rows and token ids rerank-train stored in it: no encoder pass,
    and pool.jsonl is hashed, not read."""
    params, _, pool = _stage_checkpoint(out, "rerank", read_checkpoint)
    if pool is None or pool[0] != _file_sha256(Path(out) / "pool.jsonl"):
        raise StageOrderError(
            f"checkpoint {Path(out) / _CKPT['rerank']} holds no pool rows "
            f"encoded from the pool under {out}; run heronet rerank-train "
            "again")
    return params, restore_pool_cache(*pool[1:])


def _write_csv(path: Path, header: list, rows: list):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def _run_epochs(cfg: TrainConfig, out, stage: str, params, columns: list,
                epochs: int, run_epoch, rows=(), pool=None) -> dict:
    """Run one training stage's epochs; the last epoch's values by column.

    run_epoch(rng) trains one epoch and returns (optimizer steps, one value
    per column), where rng(stream, *extra) gives the epoch's generator of
    a named stream.  A non-finite value raises NumericalAbort before
    anything of that epoch is saved; bodies check each step's loss too, so
    no step runs on weights a non-finite loss has spoiled, and an update
    the optimizer refuses (FloatingPointError) aborts the same way.  After
    each epoch the progress line is printed, the checkpoint saved with
    the sha256 of out's vocab.json and with `pool` (pool.jsonl's sha256,
    then PoolCache.stored) beside the parameters when given, and then
    logs/<stage>.csv rewritten, `rows` first; with out None the epochs
    only train.
    """
    rows, step = list(rows), 0
    vocab_sha256 = None if out is None else _file_sha256(
        Path(out) / "vocab.json")
    for epoch in range(1, epochs + 1):
        def rng(stream, *extra):
            return np.random.default_rng([cfg.seed, stream, epoch, *extra])

        t0 = time.perf_counter()
        try:
            steps, values = run_epoch(rng)
        except FloatingPointError as exc:
            raise NumericalAbort(f"{exc} in {stage} stage") from exc
        for v in values:
            _ensure_finite(v, stage)
        step += steps
        if out is None:
            continue
        dt = time.perf_counter() - t0
        rows.append([epoch, stage, *map(_fmt, values), _fmt(dt)])
        shown = " ".join(f"{c}={v:.4f}" for c, v in zip(columns, values))
        _say(f"[{_STAGE_CMD[stage]}] epoch {epoch}/{epochs} {shown} "
             f"({dt:.1f}s)")
        save_checkpoint(Path(out) / _CKPT[stage], params, stage, cfg, step,
                        vocab_sha256, pool, epoch)
        _write_csv(Path(out) / "logs" / f"{stage}.csv",
                   ["epoch", "stage", *columns, "seconds"], rows)
    return {c: float(v) for c, v in zip(columns, values)}


def _ensure_finite(value: float, stage: str):
    if not np.isfinite(value):
        raise NumericalAbort(f"non-finite loss in {stage} stage")
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


def _say(msg: str):
    print(msg, flush=True)


def _shuffled(items: list, rng) -> list:
    idx = rng.permutation(len(items))
    return [items[i] for i in idx]


def _batches(items: list, bs: int) -> list:
    return [items[lo:lo + bs] for lo in range(0, len(items), bs)]


def _src_ids(pairs, vocab, mcfg):
    return [encode_text(splice_context(p), vocab, mcfg.max_seq_len)
            for p in pairs]


def _resp_ids(pairs, vocab):
    return [encode_text(p.response, vocab) for p in pairs]


# ---------------------------------------------------------------------------
# gen-data


def stage_gen_data(cfg: TrainConfig, out) -> dict:
    """Write the corpus splits, the pool, clusters.json, config.txt and,
    last, vocab.json under `out`.

    The vocabulary is built here and nowhere else: every later stage,
    evaluate, sweep and chat read it from vocab.json.  An `out` that
    cannot be made a directory (a file, or a path under one) is a config
    error naming --out.
    """
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot make the run directory {out}: "
                          f"{exc.strerror}") from None
    corpus = generate_synthetic_corpus(seed=cfg.seed, n_train=cfg.n_train,
                                       n_eval=cfg.n_eval,
                                       pool_size=cfg.pool_size)
    write_pairs(out / "train.jsonl", corpus.train)
    write_pairs(out / "valid.jsonl", corpus.valid)
    write_pairs(out / "test.jsonl", corpus.test)
    write_pool(out / "pool.jsonl", corpus.pool)
    clusters = {split: [r.cluster_id for r in records]
                for split, records in _records(corpus).items()}
    (out / "clusters.json").write_text(json.dumps(clusters) + "\n",
                                       encoding="utf-8")
    (out / "config.txt").write_text(render_config(cfg), encoding="utf-8")
    vocab = build_vocab(corpus, cfg.vocab_size)
    write_vocab(out / "vocab.json", vocab, cfg.vocab_size)
    summary = {"train": len(corpus.train), "valid": len(corpus.valid),
               "test": len(corpus.test), "pool": corpus.pool.size,
               "vocab": vocab.size}
    _say(f"[gen-data] train={summary['train']} valid={summary['valid']} "
         f"test={summary['test']} pool={summary['pool']} "
         f"vocab={summary['vocab']} -> {out}")
    return summary


# ---------------------------------------------------------------------------
# warmup


def _mean_val_ce(params, mcfg, vocab, pairs, bs) -> float:
    total = 0.0
    with ad.no_grad():
        for chunk in _batches(pairs, bs):
            src = _src_ids(chunk, vocab, mcfg)
            hidden, _ = encode_mean_pool(params, mcfg, src)
            tb = build_teacher_batch(_resp_ids(chunk, vocab), mcfg)
            per = sequence_ce(params, mcfg, hidden, tb)
            total += float(per.data.sum())
    return total / len(pairs)


def stage_warmup(cfg: TrainConfig, out) -> dict:
    corpus, vocab, mcfg = load_world(cfg, out)
    params = init_params(mcfg, cfg.seed)
    opt = ad.Adam(param_subset(params, "generator"), cfg.warmup_lr)
    base_val = _mean_val_ce(params, mcfg, vocab, corpus.valid, cfg.bs)
    _say(f"[warmup] baseline val_ce={base_val:.4f}")

    def epoch(rng):
        losses = []
        for chunk in _batches(_shuffled(corpus.train, rng(seeds.WARMUP)),
                              cfg.bs):
            rep = pg_step(params, mcfg, _src_ids(chunk, vocab, mcfg),
                          _resp_ids(chunk, vocab), None, None, 0.0, opt)
            losses.append(_ensure_finite(rep.ce, "warmup"))
        val = _mean_val_ce(params, mcfg, vocab, corpus.valid, cfg.bs)
        return len(losses), [np.mean(losses), val]

    return _run_epochs(cfg, out, "warmup", params, ["train_ce", "val_ce"],
                       cfg.warmup_epochs, epoch,
                       rows=[[0, "warmup", "", _fmt(base_val), _fmt(0.0)]])


# ---------------------------------------------------------------------------
# retrieval pretraining


def stage_retrieval(cfg: TrainConfig, out) -> dict:
    _require_retrieval(cfg, "pretrain-retrieval")
    corpus, vocab, mcfg = load_world(cfg, out)
    params = _load_stage(out, "warmup")
    if cfg.no_multi_learning:
        add_retrieval_encoder(params, mcfg, cfg.seed)
    query_ids = pool_token_lists(corpus.pool, vocab, "query")
    resp_ids = pool_token_lists(corpus.pool, vocab, "response")
    bm25_q = Bm25Index(query_ids)
    pool_clusters = np.array([e.cluster_id for e in corpus.pool.entries])
    opt_sqd = ad.Adam(param_subset(params, "sqd"), cfg.retrieval_lr)
    opt_qrm = ad.Adam(param_subset(params, "qrm"), cfg.retrieval_lr)

    def epoch(rng):
        # mining reads the pool's SQD query rows and token lists only
        cache = PoolCache(query_ids, resp_ids,
                          embed_pool(sqd_encoder(params), mcfg, query_ids),
                          None)
        aug_rng = rng(seeds.SQD_MINE)
        sqd_losses, qrm_losses = [], []
        for chunk in _batches(_shuffled(corpus.train, rng(seeds.EPOCH)),
                              cfg.bs):
            # a pool entry of an anchor's paraphrase cluster answers it,
            # so neither miner may label it negative
            twins = pool_clusters == np.array(
                [p.cluster_id for p in chunk])[:, None]
            tri = mine_sqd_batch([p.query for p in chunk], vocab, bm25_q,
                                 cfg.m, aug_rng, cfg.word_dropout, twins)
            sqd_losses.append(_ensure_finite(
                sqd_step(params, mcfg, tri, cfg.sqd_margin, opt_sqd),
                "retrieval"))
            mb = mine_qrm_batch(chunk, params, mcfg, vocab, cache, cfg.m,
                                twins)
            qrm_losses.append(_ensure_finite(
                qrm_step(params, mcfg, mb, opt_qrm), "retrieval"))
        return len(sqd_losses), [np.mean(sqd_losses), np.mean(qrm_losses)]

    return _run_epochs(cfg, out, "retrieval", params,
                       ["sqd_loss", "qrm_loss"], cfg.multitask_epochs, epoch)


# ---------------------------------------------------------------------------
# adversarial training


def stage_adversarial(cfg: TrainConfig, out) -> dict:
    _require_retrieval(cfg, "adv-train")
    corpus, vocab, mcfg = load_world(cfg, out)
    params = _load_stage(out, "retrieval")
    alpha = 0.0 if cfg.no_reward else cfg.alpha
    kg = not cfg.no_kg
    g_opt = ad.Adam(param_subset(params, "generator"), cfg.g_lr)
    d_opt = ad.Adam(param_subset(params, "disc"), cfg.d_lr)

    def epoch(rng):
        cache = build_pool_cache(params, mcfg, vocab, corpus.pool)
        roll_rng = rng(seeds.ROLLOUT)
        ce_l, pg_l, fused_l, d_l = [], [], [], []
        for chunk in _batches(_shuffled(corpus.train, rng(seeds.ADV)),
                              cfg.bs):
            queries = [encode_text(p.query, vocab, mcfg.max_seq_len)
                       for p in chunk]
            retrieved = retrieve_top_m_batch(params, mcfg, queries, cache,
                                             cfg.m)
            src = knowledge_sources(_src_ids(chunk, vocab, mcfg), retrieved,
                                    cache, kg, mcfg.max_seq_len)
            resp = _resp_ids(chunk, vocab)
            # one encode with gradient: the rollouts read its values and
            # pg_step backpropagates through it
            hidden = encode_mean_pool(params, mcfg, src)[0]
            rolls = sample_batch(params, mcfg,
                                 tile_hidden(hidden, cfg.n_rollouts),
                                 rng=roll_rng, max_len=cfg.max_gen_len)
            rewards = None if alpha == 0.0 else score_pairs(
                params, mcfg,
                [q for q in queries for _ in range(cfg.n_rollouts)], rolls)
            rep = pg_step(params, mcfg, src, resp, rolls, rewards, alpha,
                          g_opt, hidden=hidden)
            hidden = None  # drop the encoder graph before disc_step
            for v in (rep.ce, rep.pg, rep.fused):
                _ensure_finite(v, "adversarial")
            ce_l.append(rep.ce)
            pg_l.append(rep.pg)
            fused_l.append(rep.fused)
            ret_negs = [list(cache.resp_ids[j]) for ids in retrieved
                        for j in ids]
            d_l.append(_ensure_finite(
                disc_step(params, mcfg, queries, resp, ret_negs, rolls,
                          cfg.delta1, cfg.delta2, cfg.reg_lambda, d_opt),
                "adversarial"))
        return len(d_l), [np.mean(ce_l), np.mean(pg_l), np.mean(fused_l),
                          np.mean(d_l), alpha]

    return _run_epochs(cfg, out, "adversarial", params,
                       ["g_ce", "g_pg", "g_fused", "d_hinge", "alpha"],
                       cfg.adversarial_epochs, epoch)


# ---------------------------------------------------------------------------
# rerank training


def _rerank_epoch(params, cfg, corpus, vocab, mcfg, cache: PoolCache):
    """The re-rank epoch body; rerank-train and every sweep cell run it.

    cache holds the pool rows of params' encoder, built by the caller:
    rerank-train builds one, a sweep one for all its cells, which start
    from the same checkpoint.  Only the matching head may move: the body
    checks that the rest of the parameters still hash as before, ahead of
    any checkpoint, so the cache stays the frozen encoder's for the stage
    and for the evaluation after it.
    """
    bm25_r = Bm25Index(cache.resp_ids)
    opt = ad.Adam(param_subset(params, "rerank"), cfg.retrieval_lr)
    encoder_names = [k for k in params if not k.startswith("psi_m.")]
    before = params_fingerprint(params, encoder_names)

    def epoch(rng):
        order = _shuffled(corpus.train, rng(seeds.RERANK, 0))
        loss = rerank_train_epoch(params, mcfg, vocab, order, cache, bm25_r,
                                  cfg.m, cfg.n, not cfg.no_kg, cfg.bs, opt,
                                  rng(seeds.RERANK, 1), cfg.max_gen_len)
        if params_fingerprint(params, encoder_names) != before:
            raise RuntimeError("rerank training must leave the encoder frozen")
        return math.ceil(len(order) / cfg.bs), [loss]

    return epoch


def stage_rerank_train(cfg: TrainConfig, out) -> dict:
    corpus, vocab, mcfg = load_world(cfg, out)
    pool_sha256 = _file_sha256(Path(out) / "pool.jsonl")
    params = _load_stage(out, "adversarial")
    cache = build_pool_cache(params, mcfg, vocab, corpus.pool)
    epoch = _rerank_epoch(params, cfg, corpus, vocab, mcfg, cache)
    return _run_epochs(cfg, out, "rerank", params, ["bce"],
                       cfg.rerank_epochs, epoch,
                       pool=(pool_sha256, *cache.stored()))


# ---------------------------------------------------------------------------
# evaluation


def evaluate_params(params, cache: PoolCache, cfg: TrainConfig, corpus,
                    vocab, mcfg, out=None) -> dict:
    """Generation and retrieval metrics for a trained parameter set; with
    `out` given, eval_report.json and rerank_trace.jsonl are written there.

    cache holds the pool rows of params' encoder, and evaluation encodes
    no pool entry: stage_evaluate passes the rows rerank-train stored in
    its checkpoint, a sweep cell the cache its re-rank stage built.
    """
    if not 1 <= cfg.eval_candidates <= corpus.pool.size:
        raise ValueError(
            f"eval_candidates={cfg.eval_candidates} must lie in "
            f"[1, pool size {corpus.pool.size}]")
    bm25_r = Bm25Index(cache.resp_ids)
    resp_to_id = {e.response: e.id for e in corpus.pool.entries}

    # -- what chat serves, a chunk at a time; the chunk's bare queries are
    #    encoded once for the subset rank
    served, bare, chunk_rows = [], [], []
    for lo in range(0, len(corpus.test), cfg.bs):
        chunk = corpus.test[lo:lo + cfg.bs]
        served += serve(params, mcfg, vocab,
                        [splice_context(p) for p in chunk], cache, cfg.m,
                        cfg.n, not cfg.no_kg, cfg.seed, cfg.max_gen_len)
        bare += [encode_text(p.query, vocab, mcfg.max_seq_len) for p in chunk]
        chunk_rows.append(query_rows(params, mcfg, bare[lo:], cache, None))
    dists, p_q = (np.concatenate(part) for part in zip(*chunk_rows))
    table = cache.projected(params, "qrm")
    hyps = [decode_ids(ranked[0].tokens, vocab) for ranked in served]
    first = [ranked[0].provenance for ranked in served]
    trace = [{"query_id": i,
              "candidates": [{"rank": r + 1, "score": c.score,
                              "provenance": c.provenance}
                             for r, c in enumerate(ranked)]}
             for i, ranked in enumerate(served)]

    ranks, bm25_ranks = [], []
    for i, pair in enumerate(corpus.test):
        # -- retrieval rank over a fixed-size candidate subset
        truth_id = resp_to_id[pair.response]
        sub_rng = np.random.default_rng([cfg.seed, seeds.EVAL, i, 0])
        others = np.setdiff1d(np.arange(corpus.pool.size), [truth_id])
        distract = sub_rng.choice(others, size=cfg.eval_candidates - 1,
                                  replace=False)
        subset = np.concatenate([[truth_id], distract])
        ranked, _ = two_stage_rank(params, dists[i], p_q[i], table, subset,
                                   cfg.m)
        ranks.append((list(ranked).index(truth_id) + 1, cfg.eval_candidates))
        scores = bm25_r.scores(bare[i])[subset]
        order = np.lexsort((subset, -scores))
        bm25_ranks.append((list(subset[order]).index(truth_id) + 1,
                           cfg.eval_candidates))

    gen = generation_report(hyps, [p.response for p in corpus.test])
    retr = retrieval_metrics(ranks)
    bm25_mrr = retrieval_metrics(bm25_ranks).mrr
    report = {**gen.as_dict(), **retr.as_dict(), "bm25_mrr": bm25_mrr,
              "rank1_retrieved": first.count("retrieved") / len(first),
              "rank1_generated": first.count("generated") / len(first)}
    if out is not None:
        out = Path(out)
        (out / "eval_report.json").write_text(report_json(report) + "\n",
                                              encoding="utf-8")
        with open(out / "rerank_trace.jsonl", "w", encoding="utf-8") as fh:
            for rec in trace:
                fh.write(json.dumps(rec) + "\n")
    return report


def stage_evaluate(cfg: TrainConfig, out) -> dict:
    corpus, vocab, mcfg = load_world(cfg, out)
    params, cache = _load_served(out)
    report = evaluate_params(params, cache, cfg, corpus, vocab, mcfg, out)
    _say(render_table(report, title="evaluation (test split)"))
    return report


# ---------------------------------------------------------------------------
# sweep


_SWEEP_METRICS = ["bleu", "rouge_l", "meteor", "chrf", "mrr", "acc",
                  "hit@5", "hit@10", "hit@50"]


def stage_sweep(cfg: TrainConfig, out, m_values=None, n_values=None) -> list:
    corpus, vocab, mcfg = load_world(cfg, out)
    # every cell starts from the adversarial checkpoint's frozen encoder,
    # so one pool cache serves them all
    cache = build_pool_cache(_load_stage(out, "adversarial"), mcfg, vocab,
                             corpus.pool)
    m_values = list(m_values) if m_values else [cfg.m]
    n_values = list(n_values) if n_values else [cfg.n]
    rows = []
    for m in m_values:
        for n in n_values:
            cell = replace(cfg, m=m, n=n, k=min(cfg.k, m + n))
            validate_config(cell)
            params = _load_stage(out, "adversarial")
            epoch = _rerank_epoch(params, cell, corpus, vocab, mcfg, cache)
            _run_epochs(cell, None, "rerank", params, ["bce"],
                        cell.rerank_epochs, epoch)
            report = evaluate_params(params, cache, cell, corpus, vocab,
                                     mcfg)
            rows.append([m, n] + [report[k] for k in _SWEEP_METRICS])
            _say(f"[sweep] m={m} n={n} mrr={report['mrr']:.4f} "
                 f"bleu={report['bleu']:.4f}")
    path = Path(out) / "sweep.csv"
    _write_csv(path, ["m", "n"] + _SWEEP_METRICS,
               [row[:2] + [_fmt(v) for v in row[2:]] for row in rows])
    _say(f"[sweep] wrote {path}")
    return rows


# ---------------------------------------------------------------------------
# chat


def run_chat(cfg: TrainConfig, out, stdin=None, stdout=None) -> int:
    """Answer each stdin line from the rerank checkpoint until EOF.

    Set-up reads the vocab.json gen-data wrote and the rerank
    checkpoint, and hashes pool.jsonl without parsing it: no split file
    is opened, no token counted and no pool text tokenized.  The pool
    rows and their token ids come from that checkpoint, where
    rerank-train stored them with the sha256 of the pool.jsonl it
    loaded, so set-up encodes nothing; each line encodes only its query,
    its source and the generated candidates that are not pool responses.
    sys.stdin is read with errors="surrogateescape", so a line that is
    not UTF-8 is answered: its stray bytes become lone surrogates.
    """
    if stdin is None:
        sys.stdin.reconfigure(errors="surrogateescape")
        stdin = sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def emit(line):
        print(line, file=stdout, flush=True)

    out = Path(out)
    _require_data(out, ("pool.jsonl", "vocab.json"))
    vocab, mcfg = _load_vocab(cfg, out)
    params, cache = _load_served(out)
    emit(f"[chat] ready; retrieving {cfg.m}, generating {cfg.n}, "
         f"showing top {cfg.k} (blank line is ignored, EOF exits)")
    for line in stdin:
        text = line.strip()
        if not text:
            emit("(empty query ignored)")
            continue
        [ranked] = serve(params, mcfg, vocab, [text], cache, cfg.m, cfg.n,
                         not cfg.no_kg, cfg.seed, cfg.max_gen_len)
        k = min(cfg.k, len(ranked))
        emit(f"response: {decode_ids(ranked[0].tokens, vocab)}")
        emit(f"top {k} candidates:")
        for r, c in enumerate(ranked[:k], start=1):
            emit(f"  {r}. [{c.provenance} {c.score:.4f}] "
                 f"{decode_ids(c.tokens, vocab)}")
    return 0
