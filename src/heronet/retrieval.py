"""Retrieval training: similar-queries discovery and query-response matching.

Two heads share the sentence encoder.  The SQD head learns a metric space
where paraphrased queries sit close together; it is trained with a triplet
hinge over BM25-mined hard negatives.  The QRM head learns a matching
score between a query and a candidate response; it is trained with binary
cross-entropy over groups built from the SQD head's own nearest
neighbours, so the two tasks feed each other.  Neither miner labels a
paraphrase twin of its anchor (a pool entry of the anchor's cluster)
negative: both read one (B, P) twin mask, which the retrieval stage
makes from the cluster ids in clusters.json.  In the single-task
ablation the SQD head has an encoder of its own; the parameter store
says which, and model.sqd_encoder returns it as a dict under the shared
encoder's names, which the SQD paths hand to the encoder functions.

Candidate-pool embeddings are expensive to recompute, so they are built
once per epoch into a PoolCache and treated as constants: queries from
the SQD encoder, responses from the shared one (the retrieval stage's
mining reads only the queries, so that stage embeds no responses).  The
cache also keeps the pool run through each adapter: queries through
psi_d for the SQD distances, responses through psi_m for the QRM head.
Each such table remembers the adapter parameters it was made from and
is made again once they change, so a training step that moves an
adapter is seen on the next call, while chat and evaluation, which move
nothing, project the pool once.  Queries are projected once per call
and pool rows gathered from the tables.  While the encoder stays frozen,
the cache also stands in for encoding a pool response again: re-ranking
reads its rows (rerank._set_logits), and nothing else does.

The encoder is frozen from rerank-train on, so the pool is encoded once
for it: rerank-train builds the cache and stores its rows, with the
token ids they were encoded from, in the rerank checkpoint
(PoolCache.stored).  Chat and evaluate make their cache from those
stored rows and ids alone (restore_pool_cache): no encoder pass, and no
pool text tokenized.

The QRM head scores a table of rows, each distinct row through psi_m
once, at index pairs (model.match_logit): qrm_step's table comes from
encode_unique, and two_stage_rank stacks the query's psi_m row on its
recalled rows of the cache's psi_m table (match_projected).

Two-stage inference, SQD recall then QRM rank, is two_stage_rank; the
retriever runs it over the whole pool and evaluation over a subset, both
on the rows query_rows makes for a batch of queries.  The retriever
returns pool ids: a caller reads a retrieved response's token ids from
the cache (PoolCache.resp_ids), never the pool's text.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bm25 import Bm25Index
from .corpus import CandidatePool, Vocab, encode_text
from .model import (ModelConfig, adapter_apply, adapter_params,
                    encode_mean_pool, encode_unique, match_logit,
                    match_projected, sqd_encoder)


@dataclass
class PoolCache:
    """Constants of a frozen encoder: pooled pool rows and token lists.

    query_emb holds the pool queries through the SQD encoder, resp_emb the
    responses through the shared encoder, or None where nothing reads
    them (the retrieval stage's mining reads only the query side).
    The adversarial stage builds a cache each epoch (build_pool_cache),
    the retrieval stage one of query rows alone; rerank-train builds one
    for the stage and stores its rows and token lists in its checkpoint
    (stored), and chat and evaluate read them back (restore_pool_cache).
    resp_row, derived on construction, maps each response's token tuple
    to its row of resp_emb (the first row when responses repeat).
    projected() serves the pool through an adapter.
    """

    query_ids: list          # token id list per pool entry, entry order
    resp_ids: list
    query_emb: np.ndarray    # (P, d_model) raw pooled SQD-encoder output
    resp_emb: np.ndarray | None  # (P, d_model) shared-encoder output

    def __post_init__(self):
        self.resp_row: dict = {}
        for i, ids in enumerate(self.resp_ids):
            self.resp_row.setdefault(tuple(ids), i)
        self._tables: dict = {}  # task -> (adapter arrays, table)

    def stored(self) -> tuple:
        """(rows by name, token ids by name): what a rerank checkpoint
        keeps of the cache (checkpoint.save_checkpoint's pool).  Each
        side's id lists are kept concatenated, beside their lengths."""
        ids = {}
        for side, lists in (("query", self.query_ids),
                            ("resp", self.resp_ids)):
            ids[f"{side}_ids"] = np.array([t for seq in lists for t in seq],
                                          dtype=np.int32)
            ids[f"{side}_lens"] = np.array([len(seq) for seq in lists],
                                           dtype=np.int32)
        return {"query_emb": self.query_emb, "resp_emb": self.resp_emb}, ids

    def projected(self, params: dict, task: str) -> np.ndarray:
        """(P, d_proj) pool rows through the task's adapter, gradient-free.

        "sqd" runs the pool queries through psi_d, "qrm" the responses
        through psi_m.  A table keeps a copy of the adapter parameters it
        was made from and is made again when the current ones differ.
        """
        current = [t.data for t in adapter_params(params, task)]
        made = self._tables.get(task)
        if made is None or not all(
                a.dtype == b.dtype and np.array_equal(a, b)
                for a, b in zip(made[0], current)):
            emb = self.query_emb if task == "sqd" else self.resp_emb
            with ad.no_grad():
                table = adapter_apply(params, task, Tensor(emb)).data
            made = ([a.copy() for a in current], table)
            self._tables[task] = made
        return made[1]


def pool_token_lists(pool: CandidatePool, vocab: Vocab, field: str) -> list:
    """Tokenize every pool entry's query or response, in entry order."""
    texts = pool.queries() if field == "query" else pool.responses()
    return [encode_text(t, vocab) for t in texts]


def embed_pool(params: dict, cfg: ModelConfig, seqs: list) -> np.ndarray:
    """(len(seqs), d_model) pooled rows under no_grad, in seqs' order.

    params is the store or sqd_encoder's view.  The rows go through
    encode_unique, so a sequence the list repeats is encoded once, and are
    gathered back into order.
    """
    with ad.no_grad():
        pooled, [idx] = encode_unique(params, cfg, [seqs])
    return pooled.data[idx]


def build_pool_cache(params: dict, cfg: ModelConfig, vocab: Vocab,
                     pool: CandidatePool) -> PoolCache:
    """Embed the whole candidate pool under no_grad.

    Pool queries go through the SQD encoder, which recall compares them
    in; responses through the shared encoder, which the matching head and
    the re-ranker read.  The adversarial stage calls it each epoch, and
    rerank-train and each sweep cell once; chat and evaluate never do, as
    they read the rows rerank-train stored (restore_pool_cache).
    """
    query_ids = pool_token_lists(pool, vocab, "query")
    resp_ids = pool_token_lists(pool, vocab, "response")
    return PoolCache(query_ids, resp_ids,
                     embed_pool(sqd_encoder(params), cfg, query_ids),
                     embed_pool(params, cfg, resp_ids))


def restore_pool_cache(rows: dict, ids: dict) -> PoolCache:
    """The PoolCache a checkpoint stored (PoolCache.stored): its rows over
    the token id lists they were encoded from, split back out of each
    side's concatenated ids by their lengths."""
    def lists(side):
        flat = ids[f"{side}_ids"].tolist()
        ends = np.cumsum(ids[f"{side}_lens"]).tolist()
        return [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]

    return PoolCache(lists("query"), lists("resp"), rows["query_emb"],
                     rows["resp_emb"])


def sqd_pool_distances(params: dict, cfg: ModelConfig, query_batch: list,
                       cache: PoolCache,
                       main_pooled: Tensor | None = None) -> np.ndarray:
    """(B, P) SQD distances between fresh query encodings and the pool.

    main_pooled, the shared encoder's pooled rows of query_batch when the
    caller already has them, spares encoding the batch again while the
    SQD head shares that encoder; a separate SQD encoder always encodes
    the batch itself.
    """
    encoder = sqd_encoder(params)
    with ad.no_grad():
        pooled = main_pooled
        if pooled is None or encoder is not params:
            _, pooled = encode_mean_pool(encoder, cfg, query_batch)
        q = adapter_apply(params, "sqd", pooled).data
    p = cache.projected(params, "sqd")
    # a row per query: the (B, P, d) differences at once would be a large
    # allocation made and freed on every call
    dists = np.empty((len(q), len(p)), dtype=np.result_type(q, p))
    for i, row in enumerate(q):
        diff = row - p
        dists[i] = np.sqrt((diff * diff).sum(axis=-1))
    return dists


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


def mine_sqd_batch(queries: list, vocab: Vocab, bm25_q: Bm25Index, m: int,
                   rng, word_dropout: float,
                   twins: np.ndarray) -> TripletBatch:
    """Build a triplet batch: BM25 hard negatives, augmented positives.

    Negatives for an anchor are the m pool queries BM25 ranks closest to
    it, leaving out its paraphrase twins: twins[i, j] is true when pool
    entry j lies in query i's cluster.  A twin is the retrieval target
    (an entry with the anchor's own wording is one), so labelling it
    negative would train the metric against its own task.  m larger
    than the pool truncates with a warning.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > bm25_q.n_docs:
        warnings.warn(f"m={m} exceeds pool size {bm25_q.n_docs}; truncating",
                      stacklevel=2)
    if twins.shape != (len(queries), bm25_q.n_docs):
        raise ValueError("twins must hold one row per query and one column "
                         "per pool entry")
    anchors, positives, negatives = [], [], []
    for text, row in zip(queries, twins):
        ids = encode_text(text, vocab)
        anchors.append(ids)
        positives.append(augment_query(ids, rng, word_dropout))
        neg_pool_ids = bm25_q.top_k(ids, m,
                                    exclude=np.flatnonzero(row).tolist())
        negatives.append([list(bm25_q.docs[j]) for j in neg_pool_ids])
    return TripletBatch(anchors, positives, negatives)


def sqd_step(params: dict, cfg: ModelConfig, batch: TripletBatch,
             margin: float, opt: ad.Adam) -> float:
    """One triplet-hinge update of the SQD encoder and the SQD adapter.

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
        sqd_encoder(params), cfg, [batch.anchors, batch.positives, flat_negs])
    proj = adapter_apply(params, "sqd", pooled)
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
                   cache: PoolCache, m: int, twins: np.ndarray) -> MatchBatch:
    """Group per anchor: the true pair plus 2m mismatched pairs.

    The m nearest pool queries under the current SQD metric supply both
    negative kinds: their responses paired with the anchor query, and
    their queries paired with the anchor's true response.  The anchor's
    paraphrase twins (twins[i, j] true when pool entry j lies in pair
    i's cluster) are left out, the entry holding its true response among
    them: a twin's response answers the anchor correctly, so labelling it
    0 would contradict the positive label and train the head toward a
    constant.  Mining is deterministic given the parameters; distance
    ties break on ascending pool id.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if twins.shape != (len(pairs), len(cache.query_ids)):
        raise ValueError("twins must hold one row per pair and one column "
                         "per pool entry")
    anchor_q = [encode_text(p.query, vocab) for p in pairs]
    dists = sqd_pool_distances(params, cfg, anchor_q, cache)
    # nearest first, ties on ascending pool id
    orders = np.argsort(dists, axis=1, kind="stable")
    queries, responses, labels, groups = [], [], [], []
    for i, pair in enumerate(pairs):
        r_true = encode_text(pair.response, vocab)
        order = orders[i]
        near = order[~twins[i, order]][:m]
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
             opt: ad.Adam) -> float:
    """One BCE update of the shared encoder and the QRM adapter.

    Every distinct text in the batch is encoded and projected through
    psi_m exactly once; pairs then gather their two sides from that
    table, so repeated anchors cost nothing extra and all sides carry
    gradient.
    """
    pooled, (q_idx, r_idx) = encode_unique(
        params, cfg, [batch.queries, batch.responses])
    z = match_logit(params, pooled, q_idx, r_idx)
    loss = qrm_bce(z, batch.labels)
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return float(loss.item())


# ---------------------------------------------------------------------------
# Two-stage inference


def query_rows(params: dict, cfg: ModelConfig, queries: list,
               cache: PoolCache, pooled: Tensor | None) -> tuple:
    """What two_stage_rank reads of a query batch, gradient-free.

    Returns the batch's (B, P) SQD distances to the pool and its (B,
    d_proj) rows through psi_m.  pooled, the shared encoder's pooled rows
    of queries when the caller already has them (else None), spares
    encoding the batch here.
    """
    with ad.no_grad():
        if pooled is None:
            _, pooled = encode_mean_pool(params, cfg, queries)
        dists = sqd_pool_distances(params, cfg, queries, cache, pooled)
        return dists, adapter_apply(params, "qrm", pooled).data


# Recall keeps this many pool entries per candidate the caller asks for.
_RECALL_WIDTH = 4


def two_stage_rank(params: dict, dists: np.ndarray, p_q: np.ndarray,
                   table: np.ndarray, ids, m: int) -> tuple:
    """Rank the pool entries `ids` for one query: SQD recall, QRM order.

    Stage one keeps the _RECALL_WIDTH*m ids nearest under dists, the
    query's (P,) SQD distances to the pool, ties on ascending id.  Stage
    two orders them by QRM score of the query's psi_m row p_q against
    their rows of table, the pool responses through psi_m
    (PoolCache.projected), ties again on ascending id.  Returns every id,
    the recalled ones in score order and the rest after them in distance
    order, and the recalled ones' scores, aligned with the first ids.
    """
    ids = np.asarray(ids)
    by_dist = ids[np.lexsort((ids, dists[ids]))]
    width = min(_RECALL_WIDTH * m, len(ids))
    recalled = by_dist[:width]
    # pair i reads the query's row 0 and the recalled row i + 1
    rows = Tensor(np.concatenate([p_q[None], table[recalled]]))
    with ad.no_grad():
        scores = ad.sigmoid(match_projected(
            params, rows, np.zeros(width, dtype=np.int64),
            np.arange(1, width + 1))).data
    order = np.lexsort((recalled, -scores))
    return np.concatenate([recalled[order], by_dist[width:]]), scores[order]


def retrieve_top_m_batch(params: dict, cfg: ModelConfig, queries: list,
                         cache: PoolCache, m: int,
                         main_pooled: Tensor | None = None) -> list:
    """Recall by SQD distance, rank the survivors by QRM score.

    Each query gets the pool ids of the first m entries of two_stage_rank
    over the whole cached pool; m larger than the pool degrades to ranking
    the whole pool.  Recall reads the queries through the SQD encoder and
    the cache's pool queries; the ranking reads them through the shared
    encoder and the cache's pool responses.  main_pooled is query_rows'
    pooled: the queries' shared-encoder rows, when the caller has them.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    dists, p_q = query_rows(params, cfg, queries, cache, main_pooled)
    table = cache.projected(params, "qrm")
    ids = np.arange(len(cache.resp_ids))
    ranked = [two_stage_rank(params, dists[i], p_q[i], table, ids, m)[0]
              for i in range(len(queries))]
    return [r[:m].tolist() for r in ranked]
