"""Response generation: warm-up training and policy-gradient refinement.

The generator is the full encoder-decoder.  Warm-up is plain
teacher-forced cross-entropy on gold responses.  Afterwards the model is
refined with a policy gradient: Monte Carlo rollouts are sampled at
temperature 1, scored by the discriminator, and each rollout's whole-
sequence log-probability is weighted by its advantage over the batch-mean
reward.  The fused objective keeps the cross-entropy term so the policy
cannot drift off the data distribution: fused = ce + alpha * pg.

Knowledge splicing prepends nothing and appends the best retrieved
response after a [SEP]; when the budget is tight the query always
survives intact and the knowledge tail is cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EOS_ID, BOS_ID, PAD_ID, Vocab, encode_text
from .model import (Hidden, ModelConfig, encode_mean_pool, decoder_logits,
                    sample_batch, tile_hidden)
from .retrieval import PoolCache, retrieve_top_m_batch


class TeacherBatch(NamedTuple):
    dec_in: np.ndarray     # (B, T) int64, BOS-led decoder input
    dec_mask: np.ndarray   # (B, T) float, 1 on real positions
    targets: np.ndarray    # (B, T) int64, next-token targets
    tgt_mask: np.ndarray   # (B, T) float, 1 where the target counts


@dataclass
class GenLossReport:
    ce: float
    pg: float
    fused: float


def build_teacher_batch(responses: list, cfg: ModelConfig,
                        append_eos: bool = True) -> TeacherBatch:
    """Pad token id lists into teacher-forcing arrays.

    Row i decodes [BOS] + r_i and predicts r_i + [EOS]; with append_eos
    off the targets are the sequences exactly as given (used to score
    sampled rollouts, whose final token may or may not be EOS).
    """
    if not responses:
        raise ValueError("empty batch")
    rows = []
    for r in responses:
        r = list(r)[: cfg.max_seq_len - 1]
        if not r:
            raise ValueError("cannot teacher-force an empty sequence")
        tgt = r + [EOS_ID] if append_eos else r
        rows.append(([BOS_ID] + tgt[:-1], tgt))
    width = max(len(t) for _, t in rows)
    dec_in = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    targets = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    tgt_mask = np.zeros((len(rows), width))
    for i, (d, t) in enumerate(rows):
        dec_in[i, : len(d)] = d
        targets[i, : len(t)] = t
        tgt_mask[i, : len(t)] = 1.0
    return TeacherBatch(dec_in, tgt_mask.copy(), targets, tgt_mask)


def sequence_ce(params: dict, cfg: ModelConfig, hidden: Hidden,
                tb: TeacherBatch) -> Tensor:
    """Per-sequence cross-entropy: -sum_t log p(target_t), one per row."""
    logits = decoder_logits(params, cfg, hidden, tb.dec_in, tb.dec_mask)
    logp = ad.log_softmax(logits)
    tok = ad.gather_last(logp, tb.targets)
    return ad.neg(ad.tsum(tok * tb.tgt_mask.astype(tok.data.dtype), axis=1))


def warmup_loss(params: dict, cfg: ModelConfig, src_ids: list,
                responses: list) -> Tensor:
    """Mean teacher-forced CE over a batch of (source, response) pairs."""
    hidden, _ = encode_mean_pool(params, cfg, src_ids)
    tb = build_teacher_batch(responses, cfg)
    return ad.tmean(sequence_ce(params, cfg, hidden, tb))


def warmup_step(params: dict, cfg: ModelConfig, src_ids: list,
                responses: list, opt: ad.Adam) -> float:
    """One CE update of the whole encoder-decoder."""
    loss = warmup_loss(params, cfg, src_ids, responses)
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return float(loss.item())


def mc_rollouts(params: dict, cfg: ModelConfig, hidden: Hidden, prefix: list,
                n: int, rng, max_len: int = 32) -> list:
    """n Monte Carlo completions of `prefix` at temperature 1.

    The hidden must be a single source row.  A prefix that already ends
    at EOS has nothing left to decide, so all n copies equal the prefix.
    """
    if n < 1:
        raise ValueError("need at least one rollout")
    prefix = [int(t) for t in prefix]
    if prefix and prefix[-1] == EOS_ID:
        return [list(prefix) for _ in range(n)]
    return sample_batch(params, cfg, tile_hidden(hidden, n), mode="sample",
                        temperature=1.0, rng=rng, max_len=max_len,
                        start=prefix)


def pg_step(params: dict, cfg: ModelConfig, src_ids: list, responses: list,
            rollouts: list, rewards: list, alpha: float,
            opt: ad.Adam) -> GenLossReport:
    """Fused CE + policy-gradient update of the generator.

    rollouts[i] is the list of sampled sequences for source i and
    rewards[i] their scores.  Each rollout's advantage is its reward
    minus the batch-mean reward; the surrogate is -mean(advantage *
    sequence log-prob), so reward-free batches reduce exactly to the
    warm-up update.  alpha = 0 skips the rollout pass entirely.
    """
    hidden, _ = encode_mean_pool(params, cfg, src_ids)
    tb = build_teacher_batch(responses, cfg)
    ce = ad.tmean(sequence_ce(params, cfg, hidden, tb))
    if alpha == 0.0:
        loss, pg_val = ce, 0.0
    else:
        if not rollouts or any(not r for r in rollouts):
            raise ValueError("policy gradient requires rollouts per source")
        if len(rollouts) != len(src_ids) or len(rewards) != len(src_ids):
            raise ValueError("rollouts and rewards must align with sources")
        flat = [seq for group in rollouts for seq in group]
        if any(not seq for seq in flat):
            raise ValueError("empty rollout sequence")
        owner = np.concatenate([np.full(len(g), i, dtype=np.int64)
                                for i, g in enumerate(rollouts)])
        adv = np.concatenate([np.asarray(r, dtype=np.float64)
                              for r in rewards])
        if len(adv) != len(flat):
            raise ValueError("rollouts and rewards must align per source")
        adv = adv - adv.mean()
        roll_hidden = Hidden(ad.getitem(hidden.states, owner),
                             hidden.mask[owner])
        roll_tb = build_teacher_batch(flat, cfg, append_eos=False)
        logp = ad.neg(sequence_ce(params, cfg, roll_hidden, roll_tb))
        pg = ad.neg(ad.tmean(logp * adv.astype(logp.data.dtype)))
        loss = ce + pg * alpha
        pg_val = float(pg.item())
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return GenLossReport(float(ce.item()), pg_val, float(loss.item()))


def splice_knowledge(query: str, knowledge: str | None,
                     max_tokens: int) -> str:
    """query [SEP] knowledge, trimmed to max_tokens from the knowledge tail.

    The query always survives whole; when it alone fills the budget (or
    no knowledge is given) it is returned unchanged.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be positive")
    if not knowledge:
        return query
    q = query.split()
    budget = max_tokens - len(q) - 1  # one slot for the separator
    if budget <= 0:
        return query
    return " ".join(q + ["[SEP]"] + knowledge.split()[:budget])


def generate_candidates(params: dict, cfg: ModelConfig, vocab: Vocab,
                        query_texts: list, pool, cache: PoolCache, m: int,
                        n: int, kg: bool, rngs=None, max_gen_len: int = 32,
                        enc_prefix: str = "", sqd_cache=None) -> list:
    """Retrieve m candidates and decode n for each query of a chunk.

    Returns one (generated, retrieved, src) per query text.  The chunk
    shares one retrieval call, one encoder pass over its sources and one
    greedy decode.  With knowledge grounding on, each query's top
    retrieved response is spliced onto it before decoding.  The first
    generated candidate is greedy (deterministic); the rest are
    temperature-1 samples drawn query by query, in order, from rngs[i],
    so n > 1 requires rngs.  Queries sharing one stream pass the same rng
    for each.  enc_prefix selects which encoder drives the retrieval
    recall stage; the generator always uses the main one.
    """
    if n < 0 or m < 0 or (n == 0 and m == 0):
        raise ValueError("need at least one candidate source")
    if n > 1 and (rngs is None or len(rngs) != len(query_texts)):
        raise ValueError("sampling extra candidates requires an rng per query")
    retrieved = [[] for _ in query_texts]
    if m >= 1:
        q_ids = [encode_text(q, vocab, cfg.max_seq_len) for q in query_texts]
        retrieved = retrieve_top_m_batch(params, cfg, q_ids, pool, cache, m,
                                         enc_prefix=enc_prefix,
                                         sqd_cache=sqd_cache)
    srcs = [splice_knowledge(q, r[0].response, cfg.max_seq_len)
            if kg and r else q for q, r in zip(query_texts, retrieved)]
    generated = [[] for _ in query_texts]
    if n >= 1:
        src_ids = [encode_text(s, vocab, cfg.max_seq_len) for s in srcs]
        with ad.no_grad():
            hidden, _ = encode_mean_pool(params, cfg, src_ids)
        greedy = sample_batch(params, cfg, hidden, mode="greedy",
                              max_len=max_gen_len)
        for i, ids in enumerate(src_ids):
            generated[i].append(greedy[i])
            if n > 1:
                row = Hidden(Tensor(hidden.states.data[i:i + 1, :len(ids)]),
                             hidden.mask[i:i + 1, :len(ids)])
                generated[i].extend(sample_batch(
                    params, cfg, tile_hidden(row, n - 1), mode="sample",
                    temperature=1.0, rng=rngs[i], max_len=max_gen_len))
    return list(zip(generated, retrieved, srcs))
