"""Response generation: warm-up training and policy-gradient refinement.

The generator is the full encoder-decoder, and pg_step is its one
update.  It refines the model with a policy gradient: Monte Carlo
rollouts are sampled at temperature 1, n per source in one flat block,
scored by the discriminator, and each rollout's whole-sequence
log-probability is weighted by its advantage over the batch-mean
reward.  The fused objective keeps the teacher-forced cross-entropy term
so the policy cannot drift off the data distribution: fused = ce +
alpha * pg.  Warm-up is pg_step with alpha 0: plain teacher-forced
cross-entropy on gold responses.

Knowledge splicing works on token ids: it appends the best retrieved
response's ids, read from the PoolCache, after a [SEP]; when the budget
is tight the query always survives intact and the knowledge tail is cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EOS_ID, BOS_ID, SEP_ID, Vocab, encode_text
from .model import (Hidden, ModelConfig, encode_mean_pool, decoder_logits,
                    pad_batch, sample_batch, tile_hidden)
from .retrieval import PoolCache, retrieve_top_m_batch


class TeacherBatch(NamedTuple):
    dec_in: np.ndarray     # (B, T) int64, BOS-led decoder input
    targets: np.ndarray    # (B, T) int64, next-token targets
    tgt_mask: np.ndarray   # (B, T) float, 1 on real positions, where the
                           # decoder reads and the target counts


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
    sampled rollouts, whose final token may or may not be EOS).  The mask
    is targets != PAD: no response holds PAD, nor does any rollout.
    """
    if not responses:
        raise ValueError("empty batch")
    dec_in, targets = [], []
    for r in responses:
        r = list(r)[: cfg.max_seq_len - 1]
        if not r:
            raise ValueError("cannot teacher-force an empty sequence")
        tgt = r + [EOS_ID] if append_eos else r
        dec_in.append([BOS_ID] + tgt[:-1])
        targets.append(tgt)
    targets, tgt_mask = pad_batch(targets)
    return TeacherBatch(pad_batch(dec_in)[0], targets, tgt_mask)


def sequence_ce(params: dict, cfg: ModelConfig, hidden: Hidden,
                tb: TeacherBatch) -> Tensor:
    """Per-sequence cross-entropy: -sum_t log p(target_t), one per row,
    from one target_log_prob node; warm-up, validation and pg_step share it."""
    logits = decoder_logits(params, cfg, hidden, tb.dec_in, tb.tgt_mask)
    tok = ad.target_log_prob(logits, tb.targets)
    return ad.neg(ad.tsum(tok * tb.tgt_mask.astype(tok.data.dtype), axis=1))


def pg_step(params: dict, cfg: ModelConfig, src_ids: list, responses: list,
            rollouts: list | None, rewards: np.ndarray | None, alpha: float,
            opt: ad.Adam, hidden: Hidden | None = None) -> GenLossReport:
    """Fused CE + policy-gradient update of the generator.

    rollouts is one flat block of n sampled sequences per source, source
    after source (the order sample_batch returns for tile_hidden(hidden,
    n)), and rewards their n * B scores in the same order.  Each
    rollout's advantage is its reward minus the batch-mean reward; the
    surrogate is -mean(advantage * sequence log-prob).  alpha = 0 skips
    the rollout pass and reads neither block: that is the warm-up update,
    which passes None for both.  hidden is the encoder output of src_ids
    under the current parameters, built with gradient, when the caller
    already has it (the rollouts were sampled from it); otherwise src_ids
    are encoded here.
    """
    if hidden is None:
        hidden, _ = encode_mean_pool(params, cfg, src_ids)
    tb = build_teacher_batch(responses, cfg)
    ce = ad.tmean(sequence_ce(params, cfg, hidden, tb))
    if alpha == 0.0:
        loss, pg_val = ce, 0.0
    else:
        b = len(src_ids)
        if not rollouts or len(rollouts) % b or not all(rollouts):
            raise ValueError("policy gradient needs n non-empty rollouts "
                             "per source")
        if rewards is None or len(rewards) != len(rollouts):
            raise ValueError("rewards must align with rollouts")
        adv = np.asarray(rewards, dtype=np.float64)
        adv = adv - adv.mean()
        roll_hidden = tile_hidden(hidden, len(rollouts) // b)
        roll_tb = build_teacher_batch(rollouts, cfg, append_eos=False)
        logp = ad.neg(sequence_ce(params, cfg, roll_hidden, roll_tb))
        pg = ad.neg(ad.tmean(logp * adv.astype(logp.data.dtype)))
        loss = ce + pg * alpha
        pg_val = float(pg.item())
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return GenLossReport(float(ce.item()), pg_val, float(loss.item()))


def splice_knowledge(query_ids: list, knowledge_ids: list | None,
                     max_tokens: int) -> list:
    """query [SEP] knowledge as token ids, trimmed to max_tokens from the
    knowledge tail.

    The query always survives whole; when it alone fills the budget (or
    no knowledge is given) a copy of it is returned.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be positive")
    budget = max_tokens - len(query_ids) - 1  # one slot for the separator
    if not knowledge_ids or budget <= 0:
        return list(query_ids)
    return [*query_ids, SEP_ID, *knowledge_ids[:budget]]


def generate_candidates(params: dict, cfg: ModelConfig, vocab: Vocab,
                        query_texts: list, cache: PoolCache, m: int, n: int,
                        kg: bool, rngs=None, max_gen_len: int = 32) -> tuple:
    """Retrieve m candidates and decode n for each query of a chunk.

    Returns (entries, pooled): one (generated, retrieved pool ids, source
    ids) entry per query text, and the queries' (B, d_model) pooled rows
    from the shared encoder, which retrieval ranks with and the re-ranker
    scores against.  This is the one place a chunk's queries are tokenized
    and encoded.  The chunk shares that encode, one retrieval call, one
    encoder pass over its sources and one greedy decode.  With knowledge
    grounding on, each query's top retrieved response is spliced onto its
    ids before decoding.  The first generated candidate is greedy
    (deterministic); the rest are temperature-1 samples drawn query by
    query, in order, from rngs[i], so n > 1 requires rngs.  Queries
    sharing one stream pass the same rng for each.  Retrieval recalls
    through the SQD encoder the parameters hold (model.sqd_prefix); the
    generator always uses the shared one.
    """
    if n < 0 or m < 0 or (n == 0 and m == 0):
        raise ValueError("need at least one candidate source")
    if n > 1 and (rngs is None or len(rngs) != len(query_texts)):
        raise ValueError("sampling extra candidates requires an rng per query")
    q_ids = [encode_text(q, vocab, cfg.max_seq_len) for q in query_texts]
    with ad.no_grad():
        _, pooled = encode_mean_pool(params, cfg, q_ids)
    retrieved = [[] for _ in query_texts]
    if m >= 1:
        retrieved = retrieve_top_m_batch(params, cfg, q_ids, cache, m,
                                         main_pooled=pooled)
    srcs = [splice_knowledge(q, cache.resp_ids[r[0]], cfg.max_seq_len)
            if kg and r else q for q, r in zip(q_ids, retrieved)]
    generated = [[] for _ in query_texts]
    if n >= 1:
        with ad.no_grad():
            hidden, _ = encode_mean_pool(params, cfg, srcs)
        greedy = sample_batch(params, cfg, hidden, max_len=max_gen_len)
        for i, ids in enumerate(srcs):
            generated[i].append(greedy[i])
            if n > 1:
                row = Hidden(Tensor(hidden.states.data[i:i + 1, :len(ids)]),
                             hidden.mask[i:i + 1, :len(ids)])
                generated[i].extend(sample_batch(
                    params, cfg, tile_hidden(row, n - 1), rng=rngs[i],
                    max_len=max_gen_len))
    return list(zip(generated, retrieved, srcs)), pooled
