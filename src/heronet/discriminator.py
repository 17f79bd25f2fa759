"""Adversarial discriminator over query-response pairs.

The discriminator reuses the QRM matching head: sigma(W_m . [p_q, p_r,
|p_q - p_r|]).  Its loss is a two-sided hinge that pushes the true
response's score above the mean retrieved score by delta1 and above the
mean generated score by delta2, plus an L2 penalty on the matching-head
parameters that keeps the scores from saturating.  Updates touch the
encoder and the matching head; the SQD adapter and the decoder are
untouched, so generator and retrieval metrics cannot be silently skewed
by discriminator steps.

Scoring takes the head's one path: encode_unique embeds each distinct
sequence once, match_logit puts that table through psi_m once and reads
every pair from it.  The negatives come as flat blocks, m retrieved and
n generated per anchor, anchor after anchor, so disc_step scores the
positive pairs and both blocks in one call.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ModelConfig, encode_unique, match_logit


def hinge_loss(s_pos: Tensor, s_ret: Tensor, s_gen: Tensor, delta1: float,
               delta2: float, reg_lambda: float, theta) -> Tensor:
    """Two-sided ranking hinge with L2 regularization.

    mean over anchors of  max(0, d1 - s_pos + mean(s_ret))
                        + max(0, d2 - s_pos + mean(s_gen))
    plus reg_lambda * sum of squared theta entries.
    """
    if s_ret.data.ndim != 2 or s_ret.data.shape[1] == 0:
        raise ValueError("need at least one retrieved negative per anchor")
    if s_gen.data.ndim != 2 or s_gen.data.shape[1] == 0:
        raise ValueError("need at least one generated negative per anchor")
    b = s_pos.data.shape[0]
    pos = ad.reshape(s_pos, (b, 1))
    ret_term = ad.relu(ad.tmean(s_ret, axis=1, keepdims=True) + (delta1 - pos))
    gen_term = ad.relu(ad.tmean(s_gen, axis=1, keepdims=True) + (delta2 - pos))
    loss = ad.tmean(ret_term + gen_term)
    if reg_lambda != 0.0:
        for t in theta:
            loss = loss + ad.tsum(ad.square(t)) * reg_lambda
    return loss


def score_pairs(params: dict, cfg: ModelConfig, queries: list,
                responses: list) -> np.ndarray:
    """Gradient-free discriminator scores for aligned (query, response) lists."""
    if len(queries) != len(responses):
        raise ValueError("queries and responses must align")
    with ad.no_grad():
        pooled, (qi, ri) = encode_unique(params, cfg, [queries, responses])
        z = match_logit(params, pooled, qi, ri)
        return ad.sigmoid(z).data.copy()


def disc_step(params: dict, cfg: ModelConfig, queries: list, positives: list,
              retrieved: list, generated: list, delta1: float, delta2: float,
              reg_lambda: float, opt: ad.Adam) -> float:
    """One hinge update of the encoder and matching head.

    retrieved and generated are flat blocks of negative response token
    lists: m per anchor and n per anchor, anchor after anchor, so the
    scores form rectangular (B, m) and (B, n) blocks.
    """
    b = len(queries)
    if b == 0 or b != len(positives):
        raise ValueError("batch lists must align")
    if len(retrieved) % b or len(generated) % b:
        raise ValueError("negative blocks must hold the same count per anchor")
    m, n = len(retrieved) // b, len(generated) // b
    pooled, (qi, pi, ri, gi) = encode_unique(
        params, cfg, [queries, positives, retrieved, generated])
    # one scoring pass: the positive pairs, the retrieved, the generated;
    # hinge_loss rejects an empty block
    q_all = np.concatenate([qi, np.repeat(qi, m), np.repeat(qi, n)])
    s = ad.sigmoid(match_logit(params, pooled, q_all,
                               np.concatenate([pi, ri, gi])))
    s_pos = ad.getitem(s, slice(0, b))
    s_ret = ad.reshape(ad.getitem(s, slice(b, b + b * m)), (b, m))
    s_gen = ad.reshape(ad.getitem(s, slice(b + b * m, None)), (b, n))
    theta = [t for name, t in params.items() if name.startswith("psi_m.")]
    loss = hinge_loss(s_pos, s_ret, s_gen, delta1, delta2, reg_lambda, theta)
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return float(loss.item())
