"""Retrieval training: similar-queries discovery and query-response matching.

Two heads share the sentence encoder.  The SQD head learns a metric space
where paraphrased queries sit close together; it is trained with a triplet
hinge over BM25-mined hard negatives.  The QRM head learns a matching
score between a query and a candidate response; it is trained with binary
cross-entropy over groups built from the SQD head's own nearest
neighbours, so the two tasks feed each other.

Candidate-pool embeddings are expensive to recompute, so they are built
once per epoch into a PoolCache and treated as constants; adapter
projections stay fresh because they are recomputed from the cached raw
embeddings on every call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bm25 import Bm25Index
from .corpus import CandidatePool, Vocab, encode_text
from .model import (ModelConfig, adapter_apply, encode_mean_pool,
                    encode_unique, match_logit, match_score)


@dataclass
class PoolCache:
    """Per-epoch constants: raw mean-pooled embeddings and token lists."""

    query_ids: list          # token id list per pool entry, entry order
    resp_ids: list
    query_emb: np.ndarray    # (P, d_model) raw pooled encoder output
    resp_emb: np.ndarray     # (P, d_model)


def pool_token_lists(pool: CandidatePool, vocab: Vocab, field: str) -> list:
    """Tokenize every pool entry's query or response, in entry order."""
    texts = pool.queries() if field == "query" else pool.responses()
    return [encode_text(t, vocab) for t in texts]


def build_pool_cache(params: dict, cfg: ModelConfig, vocab: Vocab,
                     pool: CandidatePool, enc_prefix: str = "",
                     batch_size: int = 64) -> PoolCache:
    """Embed the whole candidate pool under no_grad, in batches."""
    query_ids = pool_token_lists(pool, vocab, "query")
    resp_ids = pool_token_lists(pool, vocab, "response")

    def embed_all(seqs):
        rows = []
        with ad.no_grad():
            for lo in range(0, len(seqs), batch_size):
                _, pooled = encode_mean_pool(params, cfg, seqs[lo:lo + batch_size],
                                             prefix=enc_prefix)
                rows.append(pooled.data.copy())
        return np.concatenate(rows, axis=0)

    return PoolCache(query_ids, resp_ids, embed_all(query_ids),
                     embed_all(resp_ids))


def project_cached(params: dict, emb: np.ndarray, task: str) -> np.ndarray:
    """Run cached raw embeddings through the current adapter, gradient-free."""
    with ad.no_grad():
        return adapter_apply(params, task, Tensor(emb)).vec.data


def sqd_pool_distances(params: dict, cfg: ModelConfig, query_batch: list,
                       cache: PoolCache, enc_prefix: str = "") -> np.ndarray:
    """(B, P) SQD distances between fresh query encodings and the pool."""
    with ad.no_grad():
        _, pooled = encode_mean_pool(params, cfg, query_batch, prefix=enc_prefix)
        q = adapter_apply(params, "sqd", pooled).vec.data
    p = project_cached(params, cache.query_emb, "sqd")
    diff = q[:, None, :] - p[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


# ---------------------------------------------------------------------------
# Similar-queries discovery


@dataclass
class TripletBatch:
    anchors: list     # token id lists, one per anchor
    positives: list   # augmented copies, aligned with anchors
    negatives: list   # per anchor, a list of negative token id lists


def augment_query(ids: list, rng, rate: float) -> list:
    """Word dropout plus one adjacent swap; rate 0 returns an exact copy.

    Each token is dropped independently with probability `rate` but at
    least one always survives; afterwards one random adjacent pair is
    swapped half the time.  Both perturbations preserve the query's
    cluster identity while breaking surface form.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return list(ids)
    keep = rng.random(len(ids)) >= rate
    if not keep.any():
        keep[int(rng.integers(len(ids)))] = True
    out = [t for t, k in zip(ids, keep) if k]
    if len(out) >= 2 and rng.random() < 0.5:
        i = int(rng.integers(len(out) - 1))
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def mine_sqd_batch(queries: list, pool: CandidatePool, vocab: Vocab,
                   bm25_q: Bm25Index, m: int, rng,
                   word_dropout: float = 0.15,
                   clusters: list | None = None) -> TripletBatch:
    """Build a triplet batch: BM25 hard negatives, augmented positives.

    Negatives for an anchor are the m pool queries BM25 ranks closest to
    it, excluding entries whose query text equals the anchor exactly
    (those are the anchor itself, not contrastive signal).  When cluster
    ids accompany the anchors, pool entries from the same paraphrase
    cluster are excluded too: a paraphrase is the retrieval target, so
    labelling it negative would train the metric against its own task.
    m larger than the pool truncates with a warning.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > pool.size:
        warnings.warn(f"m={m} exceeds pool size {pool.size}; truncating",
                      stacklevel=2)
    if clusters is not None and len(clusters) != len(queries):
        raise ValueError("clusters must align one-to-one with queries")
    dup_ids: dict = {}
    for e in pool.entries:
        dup_ids.setdefault(e.query, []).append(e.id)
    by_cluster: dict = {}
    for e in pool.entries:
        if e.cluster_id is not None:
            by_cluster.setdefault(e.cluster_id, []).append(e.id)
    anchors, positives, negatives = [], [], []
    for i, text in enumerate(queries):
        ids = encode_text(text, vocab)
        anchors.append(ids)
        positives.append(augment_query(ids, rng, word_dropout))
        exclude = list(dup_ids.get(text, []))
        if clusters is not None and clusters[i] is not None:
            exclude += by_cluster.get(clusters[i], [])
        neg_pool_ids = bm25_q.top_k(ids, m, exclude=exclude or None)
        negatives.append([list(bm25_q.docs[j]) for j in neg_pool_ids])
    return TripletBatch(anchors, positives, negatives)


def sqd_step(params: dict, cfg: ModelConfig, batch: TripletBatch,
             margin: float, opt: ad.Adam, enc_prefix: str = "") -> float:
    """One triplet-hinge update of the encoder and the SQD adapter.

    The loss is the mean over anchors of the sum over that anchor's
    negatives of max(0, margin + d(a, p) - d(a, n)).  Every distinct
    sequence in the batch is encoded and projected once; anchors,
    positives and negatives gather their rows from that table.
    """
    b = len(batch.anchors)
    flat_negs = [n for group in batch.negatives for n in group]
    if not flat_negs:
        raise ValueError("triplet batch has no negatives")
    owner = np.concatenate([np.full(len(g), i, dtype=np.int64)
                            for i, g in enumerate(batch.negatives)])
    pooled, (ai, pi, ni) = encode_unique(
        params, cfg, [batch.anchors, batch.positives, flat_negs],
        prefix=enc_prefix)
    proj = adapter_apply(params, "sqd", pooled).vec
    d_pos = ad.euclidean(ad.getitem(proj, ai), ad.getitem(proj, pi))  # (B,)
    d_neg = ad.euclidean(ad.getitem(proj, ai[owner]),
                         ad.getitem(proj, ni))                     # (F,)
    gap = ad.relu(ad.getitem(d_pos, owner) + (margin - d_neg))
    # ragged per-anchor sums via a constant indicator matrix
    seg = np.zeros((b, len(flat_negs)))
    seg[owner, np.arange(len(flat_negs))] = 1.0
    per_anchor = ad.matmul(Tensor(seg.astype(gap.data.dtype)),
                           ad.reshape(gap, (len(flat_negs), 1)))
    loss = ad.tmean(ad.reshape(per_anchor, (b,)))
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return float(loss.item())


# ---------------------------------------------------------------------------
# Query-response matching


@dataclass
class MatchBatch:
    queries: list          # token id lists, one per pair
    responses: list
    labels: np.ndarray     # float, 1 for the true pair
    groups: np.ndarray     # anchor index per pair


def mine_qrm_batch(pairs: list, params: dict, cfg: ModelConfig, vocab: Vocab,
                   pool: CandidatePool, cache: PoolCache, m: int,
                   enc_prefix: str = "") -> MatchBatch:
    """Group per anchor: the true pair plus 2m mismatched pairs.

    The m nearest pool queries under the current SQD metric supply both
    negative kinds: their responses paired with the anchor query, and
    their queries paired with the anchor's true response.  Pool entries
    whose response text equals the anchor's are excluded so no negative
    is accidentally true, and entries from the anchor's paraphrase
    cluster are excluded when ids are present on both sides: their
    responses answer the anchor correctly, so labelling them 0 would
    contradict the positive label and train the head toward a constant.
    Mining is deterministic given the parameters; distance ties break on
    ascending pool id.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    anchor_q = [encode_text(p.query, vocab) for p in pairs]
    dists = sqd_pool_distances(params, cfg, anchor_q, cache, enc_prefix)
    queries, responses, labels, groups = [], [], [], []
    for i, pair in enumerate(pairs):
        r_true = encode_text(pair.response, vocab)
        order = np.lexsort((np.arange(pool.size), dists[i]))
        near = [j for j in order
                if pool.entries[j].response != pair.response
                and (pair.cluster_id is None
                     or pool.entries[j].cluster_id != pair.cluster_id)]
        near = near[:m]
        queries.append(anchor_q[i])
        responses.append(r_true)
        labels.append(1.0)
        groups.append(i)
        for j in near:
            queries.append(anchor_q[i])
            responses.append(list(cache.resp_ids[j]))
            labels.append(0.0)
            groups.append(i)
        for j in near:
            queries.append(list(cache.query_ids[j]))
            responses.append(r_true)
            labels.append(0.0)
            groups.append(i)
    return MatchBatch(queries, responses,
                      np.asarray(labels, dtype=np.float64),
                      np.asarray(groups, dtype=np.int64))


def qrm_bce(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy from logits: mean(softplus(z) - y*z)."""
    return ad.tmean(ad.softplus(logits) - logits * labels.astype(logits.data.dtype))


def qrm_step(params: dict, cfg: ModelConfig, batch: MatchBatch,
             opt: ad.Adam, enc_prefix: str = "") -> float:
    """One BCE update of the encoder and the QRM adapter.

    Every distinct text in the batch is encoded exactly once; pairs then
    gather their two sides from that table, so repeated anchors cost
    nothing extra and all sides carry gradient.
    """
    pooled, (q_idx, r_idx) = encode_unique(
        params, cfg, [batch.queries, batch.responses], prefix=enc_prefix)
    z = match_logit(params, ad.getitem(pooled, q_idx), ad.getitem(pooled, r_idx))
    loss = qrm_bce(z, batch.labels)
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return float(loss.item())


# ---------------------------------------------------------------------------
# Two-stage inference


class RetrievedCandidate:
    __slots__ = ("pool_id", "response", "score")

    def __init__(self, pool_id: int, response: str, score: float):
        self.pool_id = pool_id
        self.response = response
        self.score = score

    def __repr__(self):
        return (f"RetrievedCandidate(pool_id={self.pool_id}, "
                f"score={self.score:.4f})")


def retrieve_top_m_batch(params: dict, cfg: ModelConfig, queries: list,
                         pool: CandidatePool, cache: PoolCache, m: int,
                         width_mult: int = 4, enc_prefix: str = "",
                         sqd_cache: PoolCache | None = None) -> list:
    """Recall by SQD distance, rank the survivors by QRM score.

    Stage one keeps the width_mult*m pool entries whose queries sit
    closest to the input under the SQD metric (ties on ascending pool
    id).  Stage two scores those entries' responses with the QRM head and
    returns the top m by descending score, ties again on ascending pool
    id.  m larger than the pool degrades to ranking the whole pool.

    When the SQD head lives on a separate encoder (enc_prefix), stage one
    reads that encoder's cache (sqd_cache) while stage two always scores
    on the main encoder's embeddings.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    sqd_cache = cache if sqd_cache is None else sqd_cache
    dists = sqd_pool_distances(params, cfg, queries, sqd_cache, enc_prefix)
    width = min(width_mult * m, pool.size)
    with ad.no_grad():
        _, pooled = encode_mean_pool(params, cfg, queries)
        results = []
        for i in range(len(queries)):
            stage1 = np.lexsort((np.arange(pool.size), dists[i]))[:width]
            q_rep = Tensor(np.repeat(pooled.data[i:i + 1], len(stage1),
                                     axis=0))
            scores = match_score(params, q_rep,
                                 Tensor(cache.resp_emb[stage1])).data
            order = np.lexsort((stage1, -scores))[:min(m, len(stage1))]
            results.append([RetrievedCandidate(
                int(stage1[j]), pool.entries[int(stage1[j])].response,
                float(scores[j])) for j in order])
    return results


def retrieve_top_m(params: dict, cfg: ModelConfig, query_ids: list,
                   pool: CandidatePool, cache: PoolCache, m: int,
                   width_mult: int = 4, enc_prefix: str = "",
                   sqd_cache: PoolCache | None = None) -> list:
    """Single-query convenience wrapper around retrieve_top_m_batch."""
    return retrieve_top_m_batch(params, cfg, [query_ids], pool, cache, m,
                                width_mult, enc_prefix, sqd_cache)[0]


def separation_ratio(params: dict, cfg: ModelConfig, vocab: Vocab,
                     pairs: list, max_pairs: int = 1000,
                     enc_prefix: str = "") -> float:
    """Mean same-cluster SQD distance over mean cross-cluster distance.

    A trained metric pulls paraphrases together, so the ratio drops well
    below 1; an untrained one hovers near it.  Pair enumeration is
    deterministic: queries are embedded once, then the first max_pairs
    same-cluster and cross-cluster pairs are taken in index order.
    """
    tagged = [p for p in pairs if p.cluster_id is not None]
    if len(tagged) < 2:
        raise ValueError("need at least two cluster-tagged pairs")
    seqs = [encode_text(p.query, vocab) for p in tagged]
    rows = []
    with ad.no_grad():
        for lo in range(0, len(seqs), 64):
            _, pooled = encode_mean_pool(params, cfg, seqs[lo:lo + 64],
                                         prefix=enc_prefix)
            rows.append(adapter_apply(params, "sqd", pooled).vec.data)
    emb = np.concatenate(rows, axis=0)
    intra, cross = [], []
    for i in range(len(tagged)):
        for j in range(i + 1, len(tagged)):
            bucket = (intra if tagged[i].cluster_id == tagged[j].cluster_id
                      else cross)
            if len(bucket) < max_pairs:
                bucket.append(float(np.linalg.norm(emb[i] - emb[j])))
        if len(intra) >= max_pairs and len(cross) >= max_pairs:
            break
    if not intra or not cross:
        raise ValueError("pairs do not cover both same- and cross-cluster")
    return float(np.mean(intra) / np.mean(cross))
