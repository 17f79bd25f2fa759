"""Final candidate re-ranking with the trained matching head.

At inference the pipeline pools m retrieved and n generated candidates,
deduplicates them by exact token equality (a truth-tagged duplicate
always wins the merged tag), scores each against the query with the
matching head, and sorts by descending score with ties broken by
original candidate position.  Evaluation sets add exactly one
truth-tagged entry so ranking quality is measurable.

Re-rank training freezes everything except the matching head: candidate
embeddings are computed gradient-free, so the optimizer can only move
psi_m.  Each training group is the inference-time candidate set widened
with the m best BM25 responses as extra lexical negatives, plus the
gold response labelled 1 against everyone else's 0.  Training works a
chunk of batch_size queries at a time: one generate_candidates call
retrieves and decodes for the whole chunk, then each query's set is
assembled and encoded on its own.  Chat and evaluation build one
query's set at a time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bm25 import Bm25Index
from .corpus import Vocab, encode_text, splice_context
from .generation import generate_candidates
from .model import ModelConfig, encode_mean_pool, match_logit, param_subset
from .retrieval import PoolCache, qrm_bce


class RankedCandidate(NamedTuple):
    tokens: tuple
    score: float
    provenance: str


def dedupe_candidates(candidates: list) -> list:
    """Collapse exact-token duplicates, keeping first positions.

    candidates is a list of (token_list, provenance) pairs.  A duplicate
    carrying the "truth" tag promotes the kept entry to truth, so label
    construction downstream never sees the gold response twice.
    """
    kept: dict = {}
    order = []
    for ids, prov in candidates:
        key = tuple(int(t) for t in ids)
        if key in kept:
            if prov == "truth":
                kept[key] = "truth"
        else:
            kept[key] = prov
            order.append(key)
    return [(list(k), kept[k]) for k in order]


def _score_candidates(params, cfg, query_ids, cand_ids):
    """Match scores of every candidate against the query, gradient-free."""
    uniq: dict = {}
    for seq in [query_ids] + cand_ids:
        uniq.setdefault(tuple(seq), len(uniq))
    with ad.no_grad():
        _, pooled = encode_mean_pool(params, cfg, [list(k) for k in uniq])
        qi = np.full(len(cand_ids), uniq[tuple(query_ids)], dtype=np.int64)
        ci = np.array([uniq[tuple(s)] for s in cand_ids], dtype=np.int64)
        z = match_logit(params, ad.getitem(pooled, qi),
                        ad.getitem(pooled, ci))
        return ad.sigmoid(z).data.copy()


def rerank(params: dict, cfg: ModelConfig, query_ids: list,
           candidates: list) -> list:
    """Deduplicate, score, and sort candidates for one query.

    Returns RankedCandidate entries in descending score order; equal
    scores keep their original candidate order.
    """
    if not candidates:
        raise ValueError("nothing to rank")
    merged = dedupe_candidates(candidates)
    scores = _score_candidates(params, cfg, query_ids, [c for c, _ in merged])
    order = np.lexsort((np.arange(len(merged)), -scores))
    return [RankedCandidate(tuple(merged[i][0]), float(scores[i]),
                            merged[i][1]) for i in order]


def select_outputs(ranked: list, k: int):
    """The rank-1 response plus the top-k list shown alongside it."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(ranked):
        raise ValueError(f"k={k} exceeds candidate count {len(ranked)}")
    return ranked[0], ranked[:k]


def build_candidate_set(params: dict, cfg: ModelConfig, vocab: Vocab, pair,
                        pool, cache: PoolCache, bm25_r: Bm25Index | None,
                        m: int, n: int, kg: bool, rng, max_gen_len: int,
                        enc_prefix: str = "", include_truth: bool = False,
                        sqd_cache=None, precomputed=None):
    """The candidate pool for one query: m retrieved plus n generated.

    precomputed is this query's (generated, retrieved, src) entry from a
    generate_candidates call over its whole chunk; without it the query's
    candidates are generated here, the samples drawn from rng.  Passing a
    BM25 index widens the set with the m best BM25 responses
    (training-time lexical negatives); inference and evaluation pass
    None.  include_truth appends the gold response with the truth tag;
    deduplication later guarantees it appears exactly once.
    """
    query_text = splice_context(pair)
    if precomputed is None:
        precomputed = generate_candidates(
            params, cfg, vocab, [query_text], pool, cache, m, n, kg,
            None if rng is None else [rng], max_gen_len, enc_prefix,
            sqd_cache)[0]
    generated, retrieved, _ = precomputed
    cands = [(encode_text(c.response, vocab), "retrieved")
             for c in retrieved]
    cands += [(list(g), "generated") for g in generated]
    if bm25_r is not None and m >= 1:
        q_ids = encode_text(query_text, vocab, cfg.max_seq_len)
        for j in bm25_r.top_k(q_ids, m):
            cands.append((list(bm25_r.docs[j]), "bm25"))
    if include_truth:
        cands.append((encode_text(pair.response, vocab), "truth"))
    return cands, query_text


def rerank_train_epoch(params: dict, cfg: ModelConfig, vocab: Vocab,
                       pairs: list, pool, cache: PoolCache,
                       bm25_r: Bm25Index, m: int, n: int, kg: bool,
                       batch_size: int, opt: ad.Adam, rng,
                       max_gen_len: int = 32, enc_prefix: str = "",
                       sqd_cache=None) -> float:
    """One BCE pass over the pairs; only the matching head moves.

    Candidates are drawn fresh each epoch (generation is sampled), their
    embeddings are computed without gradient, and groups are batched so
    one optimizer step covers batch_size queries.  The chunk's retrieval
    and decoding run as one batch; the sampled extras still come from rng
    query by query, in order.  Each query's candidate set is still encoded
    on its own: one encoder pass over the whole chunk would pad every set
    to the chunk's longest sequence and move the loss by float rounding.
    """
    losses = []
    for lo in range(0, len(pairs), batch_size):
        chunk = pairs[lo:lo + batch_size]
        drawn = generate_candidates(
            params, cfg, vocab, [splice_context(p) for p in chunk], pool,
            cache, m, n, kg, [rng] * len(chunk), max_gen_len, enc_prefix,
            sqd_cache)
        emb_rows, q_rows, labels = [], [], []
        for pair, precomputed in zip(chunk, drawn):
            cands, query_text = build_candidate_set(
                params, cfg, vocab, pair, pool, cache, bm25_r, m, n, kg,
                rng, max_gen_len, enc_prefix, include_truth=True,
                sqd_cache=sqd_cache, precomputed=precomputed)
            merged = dedupe_candidates(cands)
            q_ids = encode_text(query_text, vocab, cfg.max_seq_len)
            seqs = [q_ids] + [c for c, _ in merged]
            with ad.no_grad():
                _, pooled = encode_mean_pool(params, cfg, seqs)
            emb_rows.append(pooled.data[1:])
            q_rows.append(np.repeat(pooled.data[:1], len(merged), axis=0))
            labels.extend(1.0 if prov == "truth" else 0.0
                          for _, prov in merged)
        z = match_logit(params, Tensor(np.concatenate(q_rows)),
                        Tensor(np.concatenate(emb_rows)))
        loss = qrm_bce(z, np.asarray(labels))
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
        losses.append(float(loss.item()))
    return float(np.mean(losses))
