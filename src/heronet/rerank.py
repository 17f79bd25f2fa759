"""Final candidate re-ranking with the trained matching head.

Chat and evaluation serve through one function, serve: each text of a
chunk gets m retrieved and n generated candidates, deduplicated by exact
token equality, scored against the query with the matching head, and
sorted by descending score, ties broken by original position.  Sampled
extras come from a stream keyed on the text, so evaluation, a chunk at a
time, scores exactly the answer chat serves, and adds no gold response.

The chunk's draw is one generate_candidates call: it tokenizes and
encodes the chunk's queries, retrieves pool ids and decodes for all of
them, and returns the queries' pooled rows beside each query's draw,
which build_candidate_set turns into that query's set.  Sets are scored
one way (_set_logits): a pool response takes its raw row from the
PoolCache, encode_unique embeds each other distinct candidate once,
gradient-free, and the query rows are stacked on those; match_logit puts
the table through psi_m once.  No other module lets a cached row stand
in for an encoder pass.  That is exact while the encoder is the one the
cache was built from: chat and evaluation change no parameters, and
re-rank training moves psi_m alone (pipeline._rerank_epoch checks it).

Re-rank training freezes everything except the matching head: query and
candidate rows are constants, so the optimizer can only move psi_m.
Each training group is the served candidate set widened with the m best
BM25 responses as extra lexical negatives, plus the gold response tagged
truth and labelled 1 against everyone else's 0 (a truth-tagged duplicate
always wins the merged tag); one optimizer step covers a chunk.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import seeds
from .autodiff import Tensor
from .bm25 import Bm25Index
from .corpus import Vocab, encode_text, splice_context
from .generation import generate_candidates
from .model import ModelConfig, encode_unique, match_logit
from .retrieval import PoolCache, qrm_bce


class RankedCandidate(NamedTuple):
    tokens: tuple
    score: float
    provenance: str


def dedupe_candidates(candidates: list) -> list:
    """Collapse exact-token duplicates, keeping first positions.

    candidates is a list of (token_list, provenance) pairs.  A list is
    keyed as it stands, so its tokens are Python ints, as every caller's
    are.  A duplicate carrying the "truth" tag promotes the kept entry to
    truth, so label construction downstream never sees the gold response
    twice.
    """
    kept: dict = {}
    order = []
    for ids, prov in candidates:
        key = tuple(ids)
        if key in kept:
            if prov == "truth":
                kept[key] = "truth"
        else:
            kept[key] = prov
            order.append(key)
    return [(list(k), kept[k]) for k in order]


def _set_logits(params: dict, cfg: ModelConfig, query_rows: np.ndarray,
                sets: list, cache: PoolCache) -> Tensor:
    """Matching logits of every set's candidates against its query.

    query_rows[i] is the pooled row of set i's query and sets[i] its list
    of candidate token sequences.  A pool response takes its cached row;
    each other distinct candidate is encoded once, gradient-free
    (encode_unique).  psi_m projects the query, encoded and cached rows,
    stacked in that order, once.  The logits come flat, set after set;
    under autograd their gradient reaches psi_m alone.
    """
    cands = [tuple(c) for s in sets for c in s]
    distinct = list(dict.fromkeys(cands))
    fresh = [c for c in distinct if c not in cache.resp_row]
    held = [c for c in distinct if c in cache.resp_row]
    rows, slot = [query_rows], {}
    if fresh:
        with ad.no_grad():
            encoded, [idx] = encode_unique(params, cfg, [fresh])
        rows.append(encoded.data)
        slot = dict(zip(fresh, idx))
    rows.append(cache.resp_emb[[cache.resp_row[c] for c in held]])
    slot.update(zip(held, range(len(fresh), len(distinct))))
    owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    return match_logit(params, Tensor(np.concatenate(rows)), owner,
                       len(sets) + np.array([slot[c] for c in cands]))


def rerank(params: dict, cfg: ModelConfig, query_pooled: Tensor,
           candidates: list, cache: PoolCache) -> list:
    """Deduplicate, score, and sort candidates for one query.

    query_pooled is the query's (1, d_model) pooled row from the shared
    encoder, as generate_candidates returns it.  cache is the PoolCache
    built from these parameters: a candidate that is a pool response is
    scored from its cached row, the others are encoded.  Returns
    RankedCandidate entries in descending score order; equal scores keep
    their original candidate order.
    """
    if not candidates:
        raise ValueError("nothing to rank")
    merged = dedupe_candidates(candidates)
    with ad.no_grad():
        scores = ad.sigmoid(_set_logits(params, cfg, query_pooled.data,
                                        [[c for c, _ in merged]],
                                        cache)).data
    order = np.lexsort((np.arange(len(merged)), -scores))
    return [RankedCandidate(tuple(merged[i][0]), float(scores[i]),
                            merged[i][1]) for i in order]


def build_candidate_set(cfg: ModelConfig, vocab: Vocab, pair, drawn,
                        cache: PoolCache, bm25_r: Bm25Index | None,
                        m: int) -> list:
    """One query's (token_list, provenance) candidates from its draw.

    drawn is the query's (generated, retrieved) entry from
    generate_candidates: its m retrieved pool responses come first, then
    its n generated ones.  Passing a BM25 index makes a re-rank training
    group: the set is widened with the m best BM25 responses to the
    pair's query as lexical negatives and the pair's gold response tagged
    truth, which deduplication later keeps exactly once.  Only that reads
    pair, so serving passes None for both.
    """
    generated, retrieved = drawn
    cands = [(list(cache.resp_ids[j]), "retrieved") for j in retrieved]
    cands += [(list(g), "generated") for g in generated]
    if bm25_r is not None:
        if m >= 1:
            q_ids = encode_text(splice_context(pair), vocab, cfg.max_seq_len)
            cands += [(list(bm25_r.docs[j]), "bm25")
                      for j in bm25_r.top_k(q_ids, m)]
        cands.append((encode_text(pair.response, vocab), "truth"))
    return cands


def serve(params: dict, cfg: ModelConfig, vocab: Vocab, texts: list,
          cache: PoolCache, m: int, n: int, kg: bool, seed: int,
          max_gen_len: int) -> list:
    """Each text's ranked candidates, as chat answers it.

    One generate_candidates call draws the chunk; text t's sampled extras
    come from the stream [seed, CHAT, crc32(t)], so a text draws the same
    candidates whatever chunk it arrives in.  crc32 reads t's UTF-8
    bytes, where a lone surrogate that stood in for a stray input byte is
    that byte again.  Each text's set, its m retrieved and n generated
    candidates, is re-ranked against its query row.  Returns one list of
    RankedCandidate per text; its first entry is the served answer.
    """
    rngs = [np.random.default_rng(
        [seed, seeds.CHAT, zlib.crc32(t.encode("utf-8", "surrogateescape"))])
        for t in texts] if n > 1 else None
    drawn, q_rows = generate_candidates(params, cfg, vocab, texts, cache, m,
                                        n, kg, max_gen_len, rngs)
    return [rerank(params, cfg, Tensor(q_rows.data[i:i + 1]),
                   build_candidate_set(cfg, vocab, None, entry, cache, None,
                                       m), cache)
            for i, entry in enumerate(drawn)]


def rerank_train_epoch(params: dict, cfg: ModelConfig, vocab: Vocab,
                       pairs: list, cache: PoolCache, bm25_r: Bm25Index,
                       m: int, n: int, kg: bool, batch_size: int,
                       opt: ad.Adam, rng, max_gen_len: int) -> float:
    """One BCE pass over the pairs; only the matching head moves.

    Candidates are drawn fresh each epoch (generation is sampled) and
    groups are batched so one optimizer step covers batch_size queries.
    The chunk's query encode, retrieval and decoding run as one batch; the
    sampled extras still come from rng query by query, in order.  The
    chunk's sets are then scored together against the query rows the
    draw returned, each distinct candidate embedded once: pool responses
    from cache, whose encoder this epoch leaves untouched, and the rest
    through the encoder.
    """
    losses = []
    for lo in range(0, len(pairs), batch_size):
        chunk = pairs[lo:lo + batch_size]
        drawn, q_rows = generate_candidates(
            params, cfg, vocab, [splice_context(p) for p in chunk], cache, m,
            n, kg, max_gen_len, [rng] * len(chunk))
        sets, labels = [], []
        for pair, entry in zip(chunk, drawn):
            merged = dedupe_candidates(build_candidate_set(
                cfg, vocab, pair, entry, cache, bm25_r, m))
            sets.append([c for c, _ in merged])
            labels.extend(1.0 if prov == "truth" else 0.0
                          for _, prov in merged)
        loss = qrm_bce(_set_logits(params, cfg, q_rows.data, sets, cache),
                       np.asarray(labels))
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
        losses.append(float(loss.item()))
    return float(np.mean(losses))
