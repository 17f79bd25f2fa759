"""Shared test utilities and the reference oracles several tests compare
the package against."""

import json

import numpy as np

from heronet import autodiff as ad
from heronet import bm25
from heronet.autodiff import Tensor
from heronet.checkpoint import load_checkpoint, save_checkpoint
from heronet.config import TrainConfig
from heronet.corpus import BOS_ID
from heronet.model import adapter_apply, decoder_logits


def clone_params(params: dict) -> dict:
    """Deep copy of a parameter store; detached from any graph."""
    return {n: Tensor(t.data.copy(), requires_grad=t.requires_grad)
            for n, t in params.items()}


def tape_nodes(out: Tensor) -> list:
    """Every node of the graph that built `out`: op nodes and the leaves
    that need a gradient, each once."""
    nodes, seen, stack = [], set(), [out._node or out]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def tiny_config() -> TrainConfig:
    """A stage chain that runs in seconds: one epoch per training stage."""
    return TrainConfig(m=2, n=1, k=3, bs=4, max_seq_len=32, vocab_size=256,
                       d_model=16, n_heads=2, d_ff=32, n_layers=1, d_proj=8,
                       warmup_epochs=1, multitask_epochs=1,
                       adversarial_epochs=1, rerank_epochs=1, n_train=24,
                       n_eval=8, pool_size=16, eval_candidates=8,
                       max_gen_len=12, n_rollouts=2, seed=5)


def decode_next(params: dict, cfg, hidden, prefix: list) -> np.ndarray:
    """Distribution over the next token after `prefix` (must start at BOS),
    from a full teacher-forced decode of the prefix."""
    if not prefix or prefix[0] != BOS_ID:
        raise ValueError("decoder prefix must start with BOS")
    if len(prefix) > cfg.max_seq_len:
        raise ValueError("decoder prefix exceeds max_seq_len")
    with ad.no_grad():
        logits = decoder_logits(params, cfg, hidden,
                                np.asarray([prefix], dtype=np.int64),
                                np.ones((1, len(prefix))))
        return ad.softmax(logits).data[0, -1]


def bm25_score(index, query: list, doc_id: int) -> float:
    """BM25 score of one document, summed term by term from the postings."""
    if not 0 <= doc_id < index.n_docs:
        raise IndexError(f"doc id {doc_id} out of range")
    tf_norm = bm25.K1 * (1.0 - bm25.B
                         + bm25.B * index.doc_lens[doc_id] / index.avgdl)
    total = 0.0
    for t in query:
        if t not in index.postings:
            continue
        ids, tfs = index.postings[t]
        pos = np.nonzero(ids == doc_id)[0]
        if pos.size:
            tf = tfs[pos[0]]
            total += index.idf[t] * tf * (bm25.K1 + 1.0) / (tf + tf_norm)
    return float(total)


def log_softmax_then_gather(logits: Tensor, targets) -> Tensor:
    """Each position's log-softmax at its target, built as two tape nodes:
    a log-softmax over the last axis, then a pick of the target entry.
    The reference ad.target_log_prob equals bit for bit."""
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    soft = np.exp(logp)
    logp -= np.log(soft.sum(axis=-1, keepdims=True))
    np.exp(logp, out=soft)

    def log_softmax_bw(g):
        ga = soft * g.sum(axis=-1, keepdims=True)
        return (np.subtract(g, ga, out=ga),)

    full = ad._make(logp, (logits,), log_softmax_bw)
    idx = np.asarray(targets)
    shape, dtype = logp.shape, logp.dtype

    def gather_bw(g):
        out = np.zeros(shape, dtype=dtype)
        flat = out.reshape(-1, shape[-1])
        flat[np.arange(flat.shape[0]), idx.ravel()] = g.ravel()
        return (out,)

    picked = np.take_along_axis(logp, idx[..., None], axis=-1)[..., 0]
    return ad._make(picked, (full,), gather_bw)


def pair_match_logit(params: dict, e_q: Tensor, e_r: Tensor) -> Tensor:
    """Reference matching logits of aligned (N, d_model) pooled rows, pair
    by pair: each side through psi_m, then w_m over concat(p_q, p_r,
    |p_q - p_r|)."""
    p_q = adapter_apply(params, "qrm", e_q)
    p_r = adapter_apply(params, "qrm", e_r)
    feats = ad.concat([p_q, p_r, ad.absolute(p_q - p_r)], axis=-1)
    return ad.tsum(feats * params["psi_m.w_m"], axis=-1)


def psi_m_inputs(params: dict, monkeypatch) -> list:
    """Spy on ad.matmul: the list it returns collects each row block fed
    to psi_m's affine map."""
    real = ad.matmul
    seen = []

    def spy(x, w, b=None):
        if w is params["psi_m.w"]:
            seen.append(x.data.copy())
        return real(x, w, b)

    monkeypatch.setattr(ad, "matmul", spy)
    return seen


def strip_pool_rows(out, cfg: TrainConfig):
    """Save the rerank checkpoint under `out` again without its pool rows."""
    params, manifest = load_checkpoint(out / "ckpt_rerank")
    save_checkpoint(out / "ckpt_rerank", params, "rerank", cfg,
                    manifest["step"], manifest["vocab_sha256"],
                    epoch=manifest["epoch"])


def swap_pool_queries(out):
    """Swap the query texts of the first two pool entries whose queries
    differ: the vocabulary stays, the pool's token id lists do not."""
    path = out / "pool.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    j = next(i for i, e in enumerate(entries)
             if e["query"] != entries[0]["query"])
    entries[0]["query"], entries[j]["query"] = (entries[j]["query"],
                                                entries[0]["query"])
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
