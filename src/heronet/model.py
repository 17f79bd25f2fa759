"""Tiny pre-norm transformer encoder-decoder with task adapters.

One parameter store (a flat name -> Tensor dict) holds the shared
encoder-decoder, the retrieval adapter psi_d, and the matching adapter
psi_m.  The encoder embedding table doubles as the decoder input table;
the output projection is a separate d_model x vocab matrix.

Naming scheme:
  embed.tok enc.pos dec.pos
  enc.{i}.ln1.g/.b  enc.{i}.attn.wq/.wk/.wv/.wo  enc.{i}.ln2.g/.b
  enc.{i}.ff.w1/.b1/.w2/.b2  enc.ln_f.g/.b
  dec.{i}.ln1 dec.{i}.self.* dec.{i}.ln2 dec.{i}.cross.* dec.{i}.ln3
  dec.{i}.ff.*  dec.ln_f.g/.b  out.w
  psi_d.w/.b/.ln.g/.ln.b  psi_m.w/.b/.ln.g/.ln.b/.w_m

An optional second retrieval encoder (for the single-task ablation) lives
under the prefix "sqd_enc." with its own embedding and position tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import seeds
from .autodiff import Tensor
from .corpus import BOS_ID, EOS_ID, PAD_ID

_INIT_STREAM = seeds.INIT
_ABLATION_INIT_STREAM = seeds.ABLATION_INIT

LN_EPS = 1e-5


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    n_layers: int = 2
    d_proj: int = 64
    max_seq_len: int = 64

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ValueError("d_model must divide evenly across heads")


class Hidden(NamedTuple):
    """Encoder output rows plus the attention mask that produced them."""

    states: Tensor  # (B, T, d_model)
    mask: np.ndarray  # (B, T) 1.0 for real tokens, 0.0 for padding


class Projected(NamedTuple):
    """Adapter output tagged with the task it belongs to."""

    vec: Tensor  # (..., d_proj)
    task: str  # "sqd" or "qrm"


def _param(rng, shape, dtype, scale=0.02):
    return Tensor(rng.normal(0.0, scale, size=shape).astype(dtype),
                  requires_grad=True)


def _zeros(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _ones(shape, dtype):
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


def _init_encoder_stack(params, cfg, rng, dtype, prefix=""):
    d, f = cfg.d_model, cfg.d_ff
    params[f"{prefix}embed.tok"] = _param(rng, (cfg.vocab_size, d), dtype)
    params[f"{prefix}enc.pos"] = _param(rng, (cfg.max_seq_len, d), dtype)
    for i in range(cfg.n_layers):
        base = f"{prefix}enc.{i}"
        params[f"{base}.ln1.g"] = _ones((d,), dtype)
        params[f"{base}.ln1.b"] = _zeros((d,), dtype)
        for w in ("wq", "wk", "wv", "wo"):
            params[f"{base}.attn.{w}"] = _param(rng, (d, d), dtype)
        params[f"{base}.ln2.g"] = _ones((d,), dtype)
        params[f"{base}.ln2.b"] = _zeros((d,), dtype)
        params[f"{base}.ff.w1"] = _param(rng, (d, f), dtype)
        params[f"{base}.ff.b1"] = _zeros((f,), dtype)
        params[f"{base}.ff.w2"] = _param(rng, (f, d), dtype)
        params[f"{base}.ff.b2"] = _zeros((d,), dtype)
    params[f"{prefix}enc.ln_f.g"] = _ones((d,), dtype)
    params[f"{prefix}enc.ln_f.b"] = _zeros((d,), dtype)


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict:
    """Fresh parameter store; weights N(0, 0.02), norms at identity."""
    rng = np.random.default_rng([seed, _INIT_STREAM])
    d, f, p = cfg.d_model, cfg.d_ff, cfg.d_proj
    params: dict = {}
    _init_encoder_stack(params, cfg, rng, dtype)
    params["dec.pos"] = _param(rng, (cfg.max_seq_len, d), dtype)
    for i in range(cfg.n_layers):
        base = f"dec.{i}"
        params[f"{base}.ln1.g"] = _ones((d,), dtype)
        params[f"{base}.ln1.b"] = _zeros((d,), dtype)
        for w in ("wq", "wk", "wv", "wo"):
            params[f"{base}.self.{w}"] = _param(rng, (d, d), dtype)
        params[f"{base}.ln2.g"] = _ones((d,), dtype)
        params[f"{base}.ln2.b"] = _zeros((d,), dtype)
        for w in ("wq", "wk", "wv", "wo"):
            params[f"{base}.cross.{w}"] = _param(rng, (d, d), dtype)
        params[f"{base}.ln3.g"] = _ones((d,), dtype)
        params[f"{base}.ln3.b"] = _zeros((d,), dtype)
        params[f"{base}.ff.w1"] = _param(rng, (d, f), dtype)
        params[f"{base}.ff.b1"] = _zeros((f,), dtype)
        params[f"{base}.ff.w2"] = _param(rng, (f, d), dtype)
        params[f"{base}.ff.b2"] = _zeros((d,), dtype)
    params["dec.ln_f.g"] = _ones((d,), dtype)
    params["dec.ln_f.b"] = _zeros((d,), dtype)
    params["out.w"] = _param(rng, (d, cfg.vocab_size), dtype)
    for name in ("psi_d", "psi_m"):
        params[f"{name}.w"] = _param(rng, (d, p), dtype)
        params[f"{name}.b"] = _zeros((p,), dtype)
        params[f"{name}.ln.g"] = _ones((p,), dtype)
        params[f"{name}.ln.b"] = _zeros((p,), dtype)
    params["psi_m.w_m"] = _param(rng, (3 * p,), dtype)
    return params


def add_retrieval_encoder(params: dict, cfg: ModelConfig, seed: int) -> None:
    """Attach a fresh independent encoder for the single-task ablation."""
    rng = np.random.default_rng([seed, _ABLATION_INIT_STREAM])
    dtype = params["embed.tok"].data.dtype
    _init_encoder_stack(params, cfg, rng, dtype, prefix="sqd_enc.")


def param_subset(params: dict, stage: str, enc_prefix: str = "") -> dict:
    """Trainable tensors for one optimization stage.

    warmup/generator: the whole encoder-decoder.  sqd: encoder plus psi_d.
    qrm/disc: encoder plus psi_m.  rerank: psi_m alone.
    """
    enc_names = (f"{enc_prefix}embed.", f"{enc_prefix}enc.")
    if stage in ("warmup", "generator"):
        pick = ("embed.", "enc.", "dec.", "out.")
        return {n: t for n, t in params.items()
                if n.startswith(pick) and not n.startswith("sqd_enc.")}
    if stage == "sqd":
        return {n: t for n, t in params.items()
                if n.startswith(enc_names) or n.startswith("psi_d.")}
    if stage in ("qrm", "disc"):
        return {n: t for n, t in params.items()
                if n.startswith(enc_names) or n.startswith("psi_m.")}
    if stage == "rerank":
        return {n: t for n, t in params.items() if n.startswith("psi_m.")}
    raise ValueError(f"unknown stage {stage!r}")


def pad_batch(seqs: list, pad: int = PAD_ID):
    """Stack ragged id lists into (ids, mask) with right padding."""
    if not seqs:
        raise ValueError("empty batch")
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), pad, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    mask = (ids != pad).astype(np.float64)
    return ids, mask


def _split_heads(x, n_heads):
    b_sz, t, d = x.data.shape
    return ad.transpose(ad.reshape(x, (b_sz, t, n_heads, d // n_heads)),
                        (0, 2, 1, 3))


def _project_kv(params, base, x_kv, n_heads):
    """Per-head keys and values (B, H, T, d/H) of one attention block."""
    return (_split_heads(ad.matmul(x_kv, params[f"{base}.wk"]), n_heads),
            _split_heads(ad.matmul(x_kv, params[f"{base}.wv"]), n_heads))


def _attend(params, base, x_q, k, v, n_heads, kv_mask, causal=False):
    """Attention of the rows x_q over keys and values from _project_kv.

    Under `causal` the t_q queries are the last t_q of the t_k key
    positions, so each sees its own position and the ones before it.
    """
    dt = x_q.data.dtype
    b_sz, t_q, d = x_q.data.shape
    t_k = k.data.shape[2]
    dh = d // n_heads
    q = _split_heads(ad.matmul(x_q, params[f"{base}.wq"]), n_heads)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    bias = (1.0 - kv_mask.astype(dt))[:, None, None, :] * np.asarray(-1e9, dtype=dt)
    if causal:
        tri = np.triu(np.full((t_q, t_k), -1e9, dtype=dt), k=t_k - t_q + 1)
        bias = bias + tri[None, None]
    attn = ad.softmax(scores + Tensor(bias))
    ctx = ad.matmul(attn, v)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b_sz, t_q, d))
    return ad.matmul(ctx, params[f"{base}.wo"])


def _feed_forward(params, base, x):
    h = ad.relu(ad.matmul(x, params[f"{base}.w1"]) + params[f"{base}.b1"])
    return ad.matmul(h, params[f"{base}.w2"]) + params[f"{base}.b2"]


def _ln(params, base, x):
    return ad.layer_norm(x, params[f"{base}.g"], params[f"{base}.b"], eps=LN_EPS)


def _embed(params, table_name, pos_name, ids, max_seq_len, offset=0):
    t = offset + ids.shape[1]
    if t > max_seq_len:
        raise ValueError(f"sequence length {t} exceeds max_seq_len {max_seq_len}")
    tok = ad.embedding(params[table_name], ids)
    pos = ad.embedding(params[pos_name], np.arange(offset, t))
    return tok + pos


def _encode(params, ids, mask, n_heads, n_layers, max_seq_len, prefix=""):
    x = _embed(params, f"{prefix}embed.tok", f"{prefix}enc.pos", ids, max_seq_len)
    for i in range(n_layers):
        base = f"{prefix}enc.{i}"
        normed = _ln(params, f"{base}.ln1", x)
        k, v = _project_kv(params, f"{base}.attn", normed, n_heads)
        x = x + _attend(params, f"{base}.attn", normed, k, v, n_heads, mask)
        x = x + _feed_forward(params, f"{base}.ff", _ln(params, f"{base}.ln2", x))
    return _ln(params, f"{prefix}enc.ln_f", x)


def encode_mean_pool(params: dict, cfg: ModelConfig, ids, mask=None,
                     prefix: str = ""):
    """Run the encoder; return hidden rows and the masked-mean embedding."""
    if isinstance(ids, list):
        ids, mask = pad_batch([ids] if ids and isinstance(ids[0], int) else ids)
    ids = np.asarray(ids, dtype=np.int64)
    if mask is None:
        mask = (ids != PAD_ID).astype(np.float64)
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise ValueError("all-PAD row cannot be pooled")
    h = _encode(params, ids, mask, cfg.n_heads, cfg.n_layers, cfg.max_seq_len,
                prefix)
    dt = h.data.dtype
    weights = (mask / counts[:, None]).astype(dt)
    pooled = ad.tsum(h * weights[:, :, None], axis=1)
    return Hidden(h, mask), pooled


def adapter_apply(params: dict, task: str, e: Tensor) -> Projected:
    """Affine projection plus LayerNorm; tags the output with its task."""
    name = {"sqd": "psi_d", "qrm": "psi_m"}.get(task)
    if name is None:
        raise ValueError(f"unknown adapter task {task!r}")
    w = params[f"{name}.w"]
    if e.data.shape[-1] != w.data.shape[0]:
        raise ValueError("embedding dimension does not match adapter")
    z = ad.matmul(e, w) + params[f"{name}.b"]
    out = ad.layer_norm(z, params[f"{name}.ln.g"], params[f"{name}.ln.b"],
                        eps=LN_EPS)
    return Projected(out, task)


def sentence_distance(a: Projected, b: Projected) -> Tensor:
    """Euclidean distance between two SQD projections."""
    if a.task != "sqd" or b.task != "sqd":
        raise ValueError("sentence_distance expects SQD-tagged projections")
    return ad.euclidean(a.vec, b.vec)


def match_logit(params: dict, e_q: Tensor, e_r: Tensor) -> Tensor:
    """Pre-sigmoid matching score from concat(p_q, p_r, |p_q - p_r|)."""
    p_q = adapter_apply(params, "qrm", e_q).vec
    p_r = adapter_apply(params, "qrm", e_r).vec
    feats = ad.concat([p_q, p_r, ad.absolute(p_q - p_r)], axis=-1)
    return ad.tsum(feats * params["psi_m.w_m"], axis=-1)


def match_score(params: dict, e_q: Tensor, e_r: Tensor) -> Tensor:
    return ad.sigmoid(match_logit(params, e_q, e_r))


class DecodeCache:
    """Keys and values an incremental decode reuses at every step.

    The cross-attention K/V of the encoder states are projected once, and
    each layer's self-attention K/V grow by the positions fed so far.
    """

    def __init__(self, params: dict, cfg: ModelConfig, hidden: Hidden):
        self.cross = [_project_kv(params, f"dec.{i}.cross", hidden.states,
                                  cfg.n_heads) for i in range(cfg.n_layers)]
        self.past = [None] * cfg.n_layers
        self.length = 0

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple:
        """Append new positions' K/V; returns every cached position's."""
        if self.past[layer] is not None:
            k_old, v_old = self.past[layer]
            k, v = ad.concat([k_old, k], axis=2), ad.concat([v_old, v], axis=2)
        self.past[layer] = (k, v)
        return k, v


def _decode_states(params, cfg, hidden: Hidden, dec_ids, dec_mask,
                   cache: DecodeCache | None = None):
    """Decoder output rows for dec_ids.

    With a cache, dec_ids continue the positions it already holds: their
    self-attention K/V join the cached ones, the cached cross-attention
    K/V are reused, and dec_mask spans the cached positions too.
    """
    offset = 0 if cache is None else cache.length
    x = _embed(params, "embed.tok", "dec.pos", dec_ids, cfg.max_seq_len,
               offset)
    for i in range(cfg.n_layers):
        base = f"dec.{i}"
        normed = _ln(params, f"{base}.ln1", x)
        k, v = _project_kv(params, f"{base}.self", normed, cfg.n_heads)
        if cache is None:
            cross_k, cross_v = _project_kv(params, f"{base}.cross",
                                           hidden.states, cfg.n_heads)
        else:
            k, v = cache.extend(i, k, v)
            cross_k, cross_v = cache.cross[i]
        x = x + _attend(params, f"{base}.self", normed, k, v, cfg.n_heads,
                        dec_mask, causal=True)
        x = x + _attend(params, f"{base}.cross", _ln(params, f"{base}.ln2", x),
                        cross_k, cross_v, cfg.n_heads, hidden.mask)
        x = x + _feed_forward(params, f"{base}.ff", _ln(params, f"{base}.ln3", x))
    if cache is not None:
        cache.length += dec_ids.shape[1]
    return _ln(params, "dec.ln_f", x)


def decode_step(params: dict, cfg: ModelConfig, hidden: Hidden,
                cache: DecodeCache, new_ids) -> np.ndarray:
    """Next-token logits (B, vocab) after feeding new_ids (B, t).

    The ids continue the positions the cache holds, which they join.  Only
    the last position is projected to the vocabulary.  Inference only: run
    it under no_grad.
    """
    new_ids = np.asarray(new_ids, dtype=np.int64)
    b_sz, t = new_ids.shape
    mask = np.ones((b_sz, cache.length + t), dtype=np.float64)
    x = _decode_states(params, cfg, hidden, new_ids, mask, cache)
    return ad.matmul(x[:, -1], params["out.w"]).data


def decoder_logits(params: dict, cfg: ModelConfig, hidden: Hidden, dec_ids,
                   dec_mask=None) -> Tensor:
    """Teacher-forced logits (B, T, vocab) for decoder input ids."""
    dec_ids = np.asarray(dec_ids, dtype=np.int64)
    if dec_mask is None:
        dec_mask = np.ones(dec_ids.shape, dtype=np.float64)
    x = _decode_states(params, cfg, hidden, dec_ids, dec_mask)
    return ad.matmul(x, params["out.w"])


def decode_next(params: dict, cfg: ModelConfig, hidden: Hidden,
                prefix: list) -> np.ndarray:
    """Distribution over the next token after `prefix` (must start at BOS)."""
    if not prefix or prefix[0] != BOS_ID:
        raise ValueError("decoder prefix must start with BOS")
    if len(prefix) > cfg.max_seq_len:
        raise ValueError("decoder prefix exceeds max_seq_len")
    with ad.no_grad():
        logits = decoder_logits(params, cfg, hidden,
                                np.asarray([prefix], dtype=np.int64))
        probs = ad.softmax(logits).data[0, -1]
    return probs


def sample_batch(params: dict, cfg: ModelConfig, hidden: Hidden,
                 mode: str = "greedy", temperature: float = 1.0, rng=None,
                 max_len: int = 32, start=None) -> list:
    """Decode every row; returns id lists ending at EOS or cut at max_len.

    Greedy picks the argmax each step.  Sampling draws from the softmax at
    the given temperature; temperature 0 collapses to greedy.  PAD and BOS
    are structural and can never be emitted.  A seeded rng makes sampling
    reproducible; draws happen for every row each step so early-finished
    rows do not shift the stream.

    `start` is an optional forced prefix (token ids, no BOS) shared by all
    rows; the returned sequences include it.  A start that already ends at
    EOS is returned unchanged.  max_len counts the whole output, start
    included.

    Decoding is incremental: a DecodeCache projects the cross-attention
    K/V of the encoder states once, the first step feeds BOS plus start,
    and every later step embeds and attends only the token just chosen,
    against the cached self-attention K/V of the positions before it.
    """
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "sample" and temperature > 0 and rng is None:
        raise ValueError("sampling requires an rng")
    start = [int(t) for t in (start or [])]
    if any(t in (PAD_ID, BOS_ID) for t in start):
        raise ValueError("start prefix may not contain PAD or BOS")
    if 1 + len(start) > cfg.max_seq_len:
        raise ValueError("start prefix exceeds max_seq_len")
    b_sz = hidden.states.data.shape[0]
    max_len = min(max_len, cfg.max_seq_len - 1)
    prefix = np.tile(np.asarray([BOS_ID] + start, dtype=np.int64), (b_sz, 1))
    done = np.full(b_sz, bool(start) and start[-1] == EOS_ID)
    with ad.no_grad():
        cache = DecodeCache(params, cfg, hidden)
        fresh = prefix  # positions the cache has not seen yet
        for _ in range(max(0, max_len - len(start))):
            if done.all():
                break
            last = decode_step(params, cfg, hidden, cache, fresh)
            last = last.astype(np.float64)
            last[:, PAD_ID] = -np.inf
            last[:, BOS_ID] = -np.inf
            if mode == "greedy" or temperature <= 0:
                tok = last.argmax(axis=-1)
            else:
                shifted = last / temperature
                shifted -= shifted.max(axis=-1, keepdims=True)
                p = np.exp(shifted)
                p /= p.sum(axis=-1, keepdims=True)
                cdf = p.cumsum(axis=-1)
                cdf[:, -1] = 1.0
                u = rng.random(b_sz)
                tok = np.array([int(np.searchsorted(cdf[i], u[i], side="right"))
                                for i in range(b_sz)], dtype=np.int64)
                tok = np.minimum(tok, cfg.vocab_size - 1)
            tok = np.where(done, PAD_ID, tok)
            fresh = tok[:, None]
            prefix = np.concatenate([prefix, fresh], axis=1)
            done |= tok == EOS_ID
            if done.all():
                break
    out = []
    for row in prefix[:, 1:]:
        seq = []
        for t in row:
            seq.append(int(t))
            if t == EOS_ID:
                break
        while seq and seq[-1] == PAD_ID:
            seq.pop()
        out.append(seq)
    return out


def sample_sequence(params: dict, cfg: ModelConfig, hidden: Hidden,
                    mode: str = "greedy", temperature: float = 1.0, rng=None,
                    max_len: int = 32) -> list:
    """Single-row convenience wrapper around sample_batch."""
    if hidden.states.data.shape[0] != 1:
        raise ValueError("sample_sequence expects a single-row Hidden")
    return sample_batch(params, cfg, hidden, mode, temperature, rng, max_len)[0]


def tile_hidden(hidden: Hidden, n: int) -> Hidden:
    """Repeat a single-row Hidden n times (detached; for batched decoding)."""
    if hidden.states.data.shape[0] != 1:
        raise ValueError("tile_hidden expects a single-row Hidden")
    states = Tensor(np.repeat(hidden.states.data, n, axis=0))
    return Hidden(states, np.repeat(hidden.mask, n, axis=0))


def clone_params(params: dict) -> dict:
    """Deep copy of the store; detached from any graph."""
    return {n: Tensor(t.data.copy(), requires_grad=t.requires_grad)
            for n, t in params.items()}


def params_fingerprint(params: dict, names=None) -> bytes:
    """Stable byte digest of selected tensors, for freeze verification."""
    import hashlib

    h = hashlib.sha256()
    for n in sorted(names if names is not None else params):
        h.update(n.encode())
        h.update(np.ascontiguousarray(params[n].data).tobytes())
    return h.digest()
