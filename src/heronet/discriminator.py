"""Adversarial discriminator over query-response pairs.

The discriminator reuses the QRM matching head: sigma(W_m . [p_q, p_r,
|p_q - p_r|]).  Its loss is a two-sided hinge that pushes the true
response's score above the mean retrieved score by delta1 and above the
mean generated score by delta2, plus an L2 penalty on the matching-head
parameters that keeps the scores from saturating.  Updates touch the
encoder and the matching head; the SQD adapter and the decoder are
untouched, so generator and retrieval metrics cannot be silently skewed
by discriminator steps.
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
        z = match_logit(params, ad.getitem(pooled, qi), ad.getitem(pooled, ri))
        return ad.sigmoid(z).data.copy()


def disc_step(params: dict, cfg: ModelConfig, queries: list, positives: list,
              retrieved: list, generated: list, delta1: float, delta2: float,
              reg_lambda: float, opt: ad.Adam) -> float:
    """One hinge update of the encoder and matching head.

    retrieved[i] and generated[i] are the negative response token lists
    for anchor i; group sizes must be uniform so the scores form
    rectangular (B, m) and (B, n) blocks.
    """
    b = len(queries)
    if not (b == len(positives) == len(retrieved) == len(generated)):
        raise ValueError("batch lists must align")
    m = len(retrieved[0]) if retrieved else 0
    n = len(generated[0]) if generated else 0
    if any(len(g) != m for g in retrieved) or any(len(g) != n for g in generated):
        raise ValueError("negative group sizes must be uniform")
    if m == 0 or n == 0:
        raise ValueError("need at least one negative of each kind")
    flat_ret = [seq for g in retrieved for seq in g]
    flat_gen = [seq for g in generated for seq in g]
    pooled, (qi, pi, ri, gi) = encode_unique(
        params, cfg, [queries, positives, flat_ret, flat_gen])
    e_q = ad.getitem(pooled, qi)
    s_pos = ad.sigmoid(match_logit(params, e_q, ad.getitem(pooled, pi)))
    q_rep_r = ad.getitem(pooled, np.repeat(qi, m))
    s_ret = ad.reshape(
        ad.sigmoid(match_logit(params, q_rep_r, ad.getitem(pooled, ri))), (b, m))
    q_rep_g = ad.getitem(pooled, np.repeat(qi, n))
    s_gen = ad.reshape(
        ad.sigmoid(match_logit(params, q_rep_g, ad.getitem(pooled, gi))), (b, n))
    theta = [t for name, t in params.items() if name.startswith("psi_m.")]
    loss = hinge_loss(s_pos, s_ret, s_gen, delta1, delta2, reg_lambda, theta)
    opt.zero_grad()
    ad.backward(loss)
    opt.step()
    return float(loss.item())
