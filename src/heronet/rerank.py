"""Final candidate re-ranking with the trained matching head.

At inference the pipeline pools m retrieved and n generated candidates,
deduplicates them by exact token equality (a truth-tagged duplicate
always wins the merged tag), scores each against the query with the
matching head, and sorts by descending score with ties broken by
original candidate position.  Evaluation sets add exactly one
truth-tagged entry so ranking quality is measurable.

Every retrieved candidate, and any other candidate whose tokens equal a
pool response's, already has its psi_m row in the PoolCache table, made
from the shared encoder: scoring gathers that row.  The query arrives as
the pooled row retrieval encoded for it, so only the remaining distinct
candidates are encoded, and they go through psi_m in one call with the
query.  That is sound only while the encoder is the one the cache was
built from, which holds here: chat and evaluation change no parameters,
and re-rank training moves the matching head alone (its own scoring
projects raw cached rows, since psi_m trains).

Re-rank training freezes everything except the matching head: candidate
embeddings are computed gradient-free, so the optimizer can only move
psi_m.  Each training group is the inference-time candidate set widened
with the m best BM25 responses as extra lexical negatives, plus the
gold response labelled 1 against everyone else's 0.  Training works a
chunk of batch_size queries at a time: one generate_candidates call
retrieves and decodes for the whole chunk, each query's set is
assembled on its own, and one encode_unique call embeds every distinct
sequence of the chunk, encoding only those the pool cache does not
hold.  Chat and evaluation build one query's set at a time.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bm25 import Bm25Index
from .corpus import Vocab, encode_text, splice_context
from .generation import generate_candidates
from .model import (ModelConfig, adapter_apply, encode_unique, match_logit,
                    match_projected)
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


def _score_candidates(params, cfg, query_pooled, cand_ids, cache):
    """Match scores of every distinct candidate against the query.

    Pool responses take their row of the psi_m table; the others are
    encoded and projected in one adapter call together with the query.
    """
    pool_rows = [cache.resp_row.get(tuple(c)) for c in cand_ids]
    hits = [i for i, r in enumerate(pool_rows) if r is not None]
    fresh = [i for i, r in enumerate(pool_rows) if r is None]
    with ad.no_grad():
        rows = query_pooled
        if fresh:
            pooled, (fi,) = encode_unique(params, cfg,
                                          [[cand_ids[i] for i in fresh]])
            rows = ad.concat([query_pooled, ad.getitem(pooled, fi)], axis=0)
        proj = adapter_apply(params, "qrm", rows).data
        p_r = np.empty((len(cand_ids), proj.shape[1]), dtype=proj.dtype)
        p_r[fresh] = proj[1:]
        if hits:
            p_r[hits] = cache.projected(params, "qrm")[
                [pool_rows[i] for i in hits]]
        z = match_projected(params, Tensor(np.repeat(proj[:1], len(cand_ids),
                                                     axis=0)),
                            Tensor(p_r))
        return ad.sigmoid(z).data.copy()


def rerank(params: dict, cfg: ModelConfig, query_pooled: Tensor,
           candidates: list, cache: PoolCache) -> list:
    """Deduplicate, score, and sort candidates for one query.

    query_pooled is the query's (1, d_model) pooled row from the shared
    encoder, the row retrieval encoded for it.  cache is the PoolCache
    built from these parameters: a candidate that is a pool response is
    scored from its cached row, the others are encoded.  Returns RankedCandidate entries in descending score order;
    equal scores keep their original candidate order.
    """
    if not candidates:
        raise ValueError("nothing to rank")
    merged = dedupe_candidates(candidates)
    scores = _score_candidates(params, cfg, query_pooled,
                               [c for c, _ in merged], cache)
    order = np.lexsort((np.arange(len(merged)), -scores))
    return [RankedCandidate(tuple(merged[i][0]), float(scores[i]),
                            merged[i][1]) for i in order]


def build_candidate_set(params: dict, cfg: ModelConfig, vocab: Vocab, pair,
                        pool, cache: PoolCache, bm25_r: Bm25Index | None,
                        m: int, n: int, kg: bool, rng, max_gen_len: int,
                        include_truth: bool = False, precomputed=None,
                        query_pooled=None):
    """The candidate pool for one query: m retrieved plus n generated.

    precomputed is this query's (generated, retrieved, src) entry from a
    generate_candidates call over its whole chunk; without it the query's
    candidates are generated here, the samples drawn from rng, and
    query_pooled, the query's pooled row when the caller has it, spares
    retrieval encoding it again.  Passing a BM25 index widens the set
    with the m best BM25 responses (training-time lexical negatives);
    inference and evaluation pass None.  include_truth appends the gold
    response with the truth tag; deduplication later guarantees it
    appears exactly once.
    """
    query_text = splice_context(pair)
    if precomputed is None:
        precomputed = generate_candidates(
            params, cfg, vocab, [query_text], pool, cache, m, n, kg,
            None if rng is None else [rng], max_gen_len, query_pooled)[0]
    generated, retrieved, _ = precomputed
    cands = [(list(cache.resp_ids[c.pool_id]), "retrieved")
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
                       max_gen_len: int = 32) -> float:
    """One BCE pass over the pairs; only the matching head moves.

    Candidates are drawn fresh each epoch (generation is sampled), their
    embeddings are computed without gradient, and groups are batched so
    one optimizer step covers batch_size queries.  The chunk's retrieval
    and decoding run as one batch; the sampled extras still come from rng
    query by query, in order.  The chunk's queries and candidate sets are
    then embedded together, each distinct sequence once: pool responses
    from cache, whose encoder this epoch leaves untouched, and the rest
    through the encoder.
    """
    losses = []
    for lo in range(0, len(pairs), batch_size):
        chunk = pairs[lo:lo + batch_size]
        drawn = generate_candidates(
            params, cfg, vocab, [splice_context(p) for p in chunk], pool,
            cache, m, n, kg, [rng] * len(chunk), max_gen_len)
        q_seqs, c_seqs, labels = [], [], []
        for pair, precomputed in zip(chunk, drawn):
            cands, query_text = build_candidate_set(
                params, cfg, vocab, pair, pool, cache, bm25_r, m, n, kg,
                rng, max_gen_len, include_truth=True,
                precomputed=precomputed)
            merged = dedupe_candidates(cands)
            q_ids = encode_text(query_text, vocab, cfg.max_seq_len)
            q_seqs.extend([q_ids] * len(merged))
            c_seqs.extend(c for c, _ in merged)
            labels.extend(1.0 if prov == "truth" else 0.0
                          for _, prov in merged)
        with ad.no_grad():
            pooled, (qi, ci) = encode_unique(params, cfg, [q_seqs, c_seqs],
                                             cache=cache)
        z = match_logit(params, Tensor(pooled.data[qi]),
                        Tensor(pooled.data[ci]))
        loss = qrm_bce(z, np.asarray(labels))
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
        losses.append(float(loss.item()))
    return float(np.mean(losses))
