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
  psi_d.w/.b/.ln.g  psi_m.w/.b/.ln.g/.ln.b/.w_m

psi_d's LayerNorm has no shift: psi_d only feeds Euclidean distances
between two of its rows, where a shift added to both cancels, so one
would get no gradient but round-off.

An optional second retrieval encoder (for the single-task ablation) lives
under the prefix "sqd_enc." with its own embedding and position tables.
sqd_encoder alone reads the store for it: it returns the store, or that
encoder's tensors under the shared names, which every encoder function reads.

Padded batches pay only for their real tokens.  The encoder and the
teacher-forced decoder run the embeddings, every layer norm, the Q/K/V/O
projections, the feed-forward layers and the residual adds on packed
(R, d) rows of the real positions; queries, keys and values go onto the
(B, T, d) grid only for attention, and the output is scattered back onto
it, so the pad rows of Hidden.states are exactly 0.  A batch without
padding, such as one chat line or a cached decode step, runs on the grid
throughout.

A DecodeCache holds all an incremental decode reuses, the source mask
among it, so a cached step reads no encoder output.
"""

from __future__ import annotations

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
_SQD = "sqd_enc."  # name prefix of the single-task ablation's encoder


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
    """Encoder output rows plus the attention mask that produced them.

    Position-wise layers see only the real tokens, so the rows of states
    at padding are exactly 0.
    """

    states: Tensor  # (B, T, d_model), pad rows 0
    mask: np.ndarray  # (B, T) 1.0 for real tokens, 0.0 for padding


def _param(rng, shape, dtype, scale=0.02):
    return Tensor(rng.normal(0.0, scale, size=shape).astype(dtype),
                  requires_grad=True)


def _zeros(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _ones(shape, dtype):
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


def _init_encoder_stack(cfg, rng, dtype) -> dict:
    d, f = cfg.d_model, cfg.d_ff
    params = {"embed.tok": _param(rng, (cfg.vocab_size, d), dtype),
              "enc.pos": _param(rng, (cfg.max_seq_len, d), dtype)}
    for i in range(cfg.n_layers):
        base = f"enc.{i}"
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
    params["enc.ln_f.g"] = _ones((d,), dtype)
    params["enc.ln_f.b"] = _zeros((d,), dtype)
    return params


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict:
    """Fresh parameter store; weights N(0, 0.02), norms at identity."""
    rng = np.random.default_rng([seed, _INIT_STREAM])
    d, f, p = cfg.d_model, cfg.d_ff, cfg.d_proj
    params = _init_encoder_stack(cfg, rng, dtype)
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
    params["psi_m.ln.b"] = _zeros((p,), dtype)
    params["psi_m.w_m"] = _param(rng, (3 * p,), dtype)
    return params


def add_retrieval_encoder(params: dict, cfg: ModelConfig, seed: int) -> None:
    """Attach a fresh independent encoder for the single-task ablation."""
    rng = np.random.default_rng([seed, _ABLATION_INIT_STREAM])
    dtype = params["embed.tok"].data.dtype
    params.update((_SQD + n, t)
                  for n, t in _init_encoder_stack(cfg, rng, dtype).items())


def sqd_encoder(params: dict) -> dict:
    """The encoder that serves SQD under the shared names: the store, or
    a view of the ablation's sqd_enc. tensors (the same Tensor objects)."""
    if f"{_SQD}embed.tok" not in params:
        return params
    return {n[len(_SQD):]: t for n, t in params.items() if n.startswith(_SQD)}


def param_subset(params: dict, stage: str) -> dict:
    """Trainable tensors for one optimization stage.

    generator (warm-up and adversarial): the whole encoder-decoder.  sqd:
    the SQD encoder (sqd_encoder) plus psi_d.  qrm/disc: the shared encoder
    plus psi_m.  rerank: psi_m alone.
    """
    if stage == "generator":
        pick = ("embed.", "enc.", "dec.", "out.")
        return {n: t for n, t in params.items()
                if n.startswith(pick) and not n.startswith(_SQD)}
    if stage == "sqd":
        prefix = "" if sqd_encoder(params) is params else _SQD
        pick = (f"{prefix}embed.", f"{prefix}enc.", "psi_d.")
        return {n: t for n, t in params.items() if n.startswith(pick)}
    if stage in ("qrm", "disc"):
        return {n: t for n, t in params.items()
                if n.startswith(("embed.", "enc.", "psi_m."))}
    if stage == "rerank":
        return {n: t for n, t in params.items() if n.startswith("psi_m.")}
    raise ValueError(f"unknown stage {stage!r}")


def pad_batch(seqs: list):
    """Stack ragged id lists into (ids, mask) with right PAD padding."""
    if not seqs:
        raise ValueError("empty batch")
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    mask = (ids != PAD_ID).astype(np.float64)
    return ids, mask


class _Packing(NamedTuple):
    """Where packed rows of real tokens sit on their (B, T) grid."""

    rows: np.ndarray  # distinct flat indices into the B * T positions
    lead: tuple       # (B, T)


def _packing(mask: np.ndarray) -> _Packing | None:
    """The real positions of a (B, T) mask; None when none is padding."""
    return None if mask.all() else _Packing(np.flatnonzero(mask.reshape(-1)),
                                            mask.shape)


def _to_grid(x, pack):
    """Packed (R, d) rows onto their (B, T, d) grid, pad rows 0."""
    return x if pack is None else ad.scatter_rows(x, pack.rows, pack.lead)


def _off_grid(x, pack):
    """The real rows (R, d) of a (B, T, d) grid."""
    return x if pack is None else ad.getitem(
        ad.reshape(x, (-1, x.data.shape[-1])), pack.rows)


def _project_kv(params, base, x_kv, pack=None):
    """Keys and values (B, T, d) of one attention block.

    x_kv is a (B, T, d) grid, or packed rows placed by `pack`.
    """
    return (_to_grid(ad.matmul(x_kv, params[f"{base}.wk"]), pack),
            _to_grid(ad.matmul(x_kv, params[f"{base}.wv"]), pack))


def _attend(params, base, x_q, k, v, n_heads, kv_mask, pack=None,
            causal=False):
    """Attention of the rows x_q over keys and values from _project_kv.

    k and v are (B, T_k, d); the heads are split and merged inside
    ad.attention.  x_q and the result are a (B, T_q, d) grid, or packed
    rows placed by `pack`; then only the queries and the context visit
    the grid.  Under `causal` the t_q queries are the last t_q of the
    t_k key positions, so each sees its own position and the ones before it.
    """
    q = _to_grid(ad.matmul(x_q, params[f"{base}.wq"]), pack)
    ctx = ad.attention(q, k, v, n_heads, kv_mask, causal)
    return ad.matmul(_off_grid(ctx, pack), params[f"{base}.wo"])


def _feed_forward(params, base, x):
    h = ad.relu(ad.matmul(x, params[f"{base}.w1"], params[f"{base}.b1"]))
    return ad.matmul(h, params[f"{base}.w2"], params[f"{base}.b2"])


def _ln(params, base, x):
    return ad.layer_norm(x, params[f"{base}.g"], params[f"{base}.b"], eps=LN_EPS)


def _embed(params, table_name, pos_name, ids, max_seq_len, offset=0,
           pack=None):
    """Token plus position embeddings: (B, T, d), or packed (R, d) rows."""
    t = offset + ids.shape[1]
    if t > max_seq_len:
        raise ValueError(f"sequence length {t} exceeds max_seq_len {max_seq_len}")
    if pack is None:
        tok_ids, pos_ids = ids, np.arange(offset, t)
    else:
        tok_ids = ids.reshape(-1)[pack.rows]
        pos_ids = offset + pack.rows % ids.shape[1]
    tok = ad.getitem(params[table_name], tok_ids)
    pos = ad.getitem(params[pos_name], pos_ids)
    return tok + pos


def _encode(params, ids, mask, n_heads, n_layers, max_seq_len):
    """Encoder output (B, T, d); pad rows are exactly 0.

    The position-wise layers run on packed rows of the real tokens only;
    the queries, keys and values go onto the grid for attention.
    """
    pack = _packing(mask)
    x = _embed(params, "embed.tok", "enc.pos", ids, max_seq_len, pack=pack)
    for i in range(n_layers):
        base = f"enc.{i}"
        normed = _ln(params, f"{base}.ln1", x)
        k, v = _project_kv(params, f"{base}.attn", normed, pack)
        x = x + _attend(params, f"{base}.attn", normed, k, v, n_heads, mask,
                        pack)
        x = x + _feed_forward(params, f"{base}.ff", _ln(params, f"{base}.ln2", x))
    return _to_grid(_ln(params, "enc.ln_f", x), pack)


def encode_mean_pool(params: dict, cfg: ModelConfig, seqs: list):
    """Run the encoder (the store's, or sqd_encoder's view) over a list of
    id lists, each cut to max_seq_len and padded; return hidden rows and
    the masked-mean embedding."""
    ids, mask = pad_batch([s[: cfg.max_seq_len] for s in seqs])
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise ValueError("all-PAD row cannot be pooled")
    h = _encode(params, ids, mask, cfg.n_heads, cfg.n_layers, cfg.max_seq_len)
    dt = h.data.dtype
    weights = (mask / counts[:, None]).astype(dt)
    pooled = ad.tsum(h * weights[:, :, None], axis=1)
    return Hidden(h, mask), pooled


# Distinct-row tables at least this large are encoded in this many
# equal-count length buckets; smaller ones stay one batch, where a split
# costs more in per-call overhead than it saves in padding.
_BUCKET_MIN_ROWS = 64
_N_BUCKETS = 4


def encode_unique(params: dict, cfg: ModelConfig, groups: list):
    """Encode each distinct sequence of `groups` once; pooled rows only.

    groups is a list of lists of token sequences.  The distinct ones are
    sorted by length (stably) and encoded in buckets, each padded only to
    its own longest row.  Returns the (U, d_model) pooled table and, per
    group, an int index array into it, aligned with the group's
    sequences, so a caller gathers its rows with ad.getitem.
    """
    uniq: dict = {}
    for group in groups:
        for seq in group:
            uniq.setdefault(tuple(seq), len(uniq))
    table = list(uniq)
    if not table:
        raise ValueError("nothing to encode")
    order = sorted(range(len(table)), key=lambda i: len(table[i]))
    n_buckets = 1 if len(order) < _BUCKET_MIN_ROWS else _N_BUCKETS
    parts = [encode_mean_pool(params, cfg, [list(table[i]) for i in bucket])[1]
             for bucket in np.array_split(np.asarray(order, dtype=np.int64),
                                          n_buckets)]
    pooled = parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
    row_of = np.empty(len(table), dtype=np.int64)
    row_of[order] = np.arange(len(table))
    idx = [row_of[np.array([uniq[tuple(s)] for s in group], dtype=np.int64)]
           for group in groups]
    return pooled, idx


# task -> (adapter, the tensors it reads)
_ADAPTERS = {"sqd": ("psi_d", ("w", "b", "ln.g")),
             "qrm": ("psi_m", ("w", "b", "ln.g", "ln.b"))}


def adapter_params(params: dict, task: str) -> tuple:
    """The tensors adapter_apply reads for a task: (w, b, ln.g) of psi_d,
    (w, b, ln.g, ln.b) of psi_m."""
    if task not in _ADAPTERS:
        raise ValueError(f"unknown adapter task {task!r}")
    name, parts = _ADAPTERS[task]
    return tuple(params[f"{name}.{part}"] for part in parts)


def adapter_apply(params: dict, task: str, e: Tensor) -> Tensor:
    """Affine projection plus LayerNorm of the task's adapter."""
    w, b, *norm = adapter_params(params, task)
    if e.data.shape[-1] != w.data.shape[0]:
        raise ValueError("embedding dimension does not match adapter")
    return ad.layer_norm(ad.matmul(e, w, b), *norm, eps=LN_EPS)


def match_projected(params: dict, proj: Tensor, q_idx, r_idx) -> Tensor:
    """Pre-sigmoid matching scores of pairs of rows already through psi_m.

    Pair i reads rows q_idx[i] and r_idx[i] of the (U, d_proj) table
    proj; the head scores concat(p_q, p_r, |p_q - p_r|) of the two.
    """
    p_q = ad.getitem(proj, np.asarray(q_idx, dtype=np.int64))
    p_r = ad.getitem(proj, np.asarray(r_idx, dtype=np.int64))
    feats = ad.concat([p_q, p_r, ad.absolute(p_q - p_r)], axis=-1)
    return ad.tsum(feats * params["psi_m.w_m"], axis=-1)


def match_logit(params: dict, rows: Tensor, q_idx, r_idx) -> Tensor:
    """Pre-sigmoid matching scores of pairs of pooled encoder rows.

    rows is a (U, d_model) table of pooled rows, each distinct row once:
    psi_m projects the table once, and pair i then reads rows q_idx[i]
    and r_idx[i] of the projection (match_projected).
    """
    return match_projected(params, adapter_apply(params, "qrm", rows), q_idx,
                           r_idx)


class DecodeCache:
    """What an incremental decode reuses at every step.

    The cross-attention K/V of the encoder states are projected once and
    kept beside the source mask.  Each layer's self-attention K/V live in
    preallocated (B, max_seq_len, d_model) buffers, heads unsplit: new
    positions are written in place along axis 1, and attention reads a
    view of the filled part.  The buffers hold plain arrays, so the cache
    is for inference only: run it under no_grad.
    """

    def __init__(self, params: dict, cfg: ModelConfig, hidden: Hidden):
        self.cross = [_project_kv(params, f"dec.{i}.cross", hidden.states)
                      for i in range(cfg.n_layers)]
        self.mask = hidden.mask
        states = hidden.states.data
        shape = (states.shape[0], cfg.max_seq_len, cfg.d_model)
        self.past = [(np.empty(shape, dtype=states.dtype),
                      np.empty(shape, dtype=states.dtype))
                     for _ in range(cfg.n_layers)]
        self.length = 0

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple:
        """Write new positions' K/V; returns every cached position's."""
        end = self.length + k.data.shape[1]
        k_buf, v_buf = self.past[layer]
        k_buf[:, self.length:end] = k.data
        v_buf[:, self.length:end] = v.data
        return Tensor(k_buf[:, :end]), Tensor(v_buf[:, :end])

    def keep_rows(self, rows: np.ndarray) -> None:
        """Keep only the given batch rows of the source mask and the K/V.

        The self-attention buffers are compacted in place and sliced to
        the rows kept; only their filled positions are copied.
        """
        self.cross = [tuple(Tensor(t.data[rows]) for t in kv)
                      for kv in self.cross]
        self.mask = self.mask[rows]

        def sub(buf):
            kept = buf[rows, :self.length]
            buf[:len(kept), :self.length] = kept
            return buf[:len(kept)]
        self.past = [(sub(k_buf), sub(v_buf)) for k_buf, v_buf in self.past]


def _decode_states(params, cfg, hidden: Hidden | None, dec_ids, dec_mask,
                   cache: DecodeCache | None = None):
    """Decoder output rows (B, T, d) for dec_ids.

    With a cache (hidden and dec_mask None), dec_ids continue its
    positions: their self-attention K/V join the cached ones, no key is
    padding, and its cross-attention K/V and source mask are reused.
    Without one (teacher forcing), the position-wise layers run on packed
    rows of the real positions of dec_mask, the cross-attention K/V are
    projected from the real source rows only, and pad rows come out 0.
    """
    if cache is None:
        offset, pack, src_mask = 0, _packing(dec_mask), hidden.mask
        src_pack = _packing(src_mask)
        src = _off_grid(hidden.states, src_pack)
    else:
        offset, pack, src_mask = cache.length, None, cache.mask
    x = _embed(params, "embed.tok", "dec.pos", dec_ids, cfg.max_seq_len,
               offset, pack)
    for i in range(cfg.n_layers):
        base = f"dec.{i}"
        normed = _ln(params, f"{base}.ln1", x)
        k, v = _project_kv(params, f"{base}.self", normed, pack)
        if cache is None:
            cross_k, cross_v = _project_kv(params, f"{base}.cross", src,
                                           src_pack)
        else:
            k, v = cache.extend(i, k, v)
            cross_k, cross_v = cache.cross[i]
        x = x + _attend(params, f"{base}.self", normed, k, v, cfg.n_heads,
                        dec_mask, pack, causal=True)
        x = x + _attend(params, f"{base}.cross", _ln(params, f"{base}.ln2", x),
                        cross_k, cross_v, cfg.n_heads, src_mask, pack)
        x = x + _feed_forward(params, f"{base}.ff", _ln(params, f"{base}.ln3", x))
    if cache is not None:
        cache.length += dec_ids.shape[1]
    return _to_grid(_ln(params, "dec.ln_f", x), pack)


def decode_step(params: dict, cfg: ModelConfig, cache: DecodeCache,
                new_ids) -> np.ndarray:
    """Next-token logits (B, vocab) after feeding new_ids (B, t).

    The ids continue the positions the cache holds, which they join.  Only
    the last position is projected to the vocabulary.  Inference only: run
    it under no_grad.
    """
    new_ids = np.asarray(new_ids, dtype=np.int64)
    x = _decode_states(params, cfg, None, new_ids, None, cache)
    return ad.matmul(x[:, -1], params["out.w"]).data


def decoder_logits(params: dict, cfg: ModelConfig, hidden: Hidden, dec_ids,
                   dec_mask: np.ndarray) -> Tensor:
    """Teacher-forced logits (B, T, vocab) for decoder input ids; dec_mask
    (B, T) is 1.0 on the real positions."""
    x = _decode_states(params, cfg, hidden,
                       np.asarray(dec_ids, dtype=np.int64), dec_mask)
    return ad.matmul(x, params["out.w"])


def sample_batch(params: dict, cfg: ModelConfig, hidden: Hidden, max_len: int,
                 rng=None) -> list:
    """Decode every row; returns id lists ending at EOS or cut at max_len.

    Without an rng each step picks the argmax (greedy).  With one, each
    step draws from the temperature-1 softmax; a seeded rng makes that
    reproducible, and draws happen for every row each step so
    early-finished rows do not shift the stream.  PAD and BOS are
    structural and can never be emitted.

    Decoding is incremental: a DecodeCache projects the cross-attention
    K/V of the encoder states once, the first step feeds BOS, and every
    later step embeds and attends only the token just chosen, against the
    cached self-attention K/V of the positions before it.
    A row that has emitted EOS leaves the step batch and the cache; it is
    padded with PAD from then on, and its draw is still taken and unused.
    """
    b_sz = hidden.states.data.shape[0]
    max_len = min(max_len, cfg.max_seq_len - 1)
    prefix = np.full((b_sz, 1), BOS_ID, dtype=np.int64)
    done = np.zeros(b_sz, dtype=bool)
    with ad.no_grad():
        cache = DecodeCache(params, cfg, hidden)
        live = np.arange(b_sz)  # rows still decoding, in batch order
        fresh = prefix  # positions the cache has not seen yet
        for _ in range(max_len):
            if done.all():
                break
            last = decode_step(params, cfg, cache, fresh).astype(np.float64)
            last[:, PAD_ID] = -np.inf
            last[:, BOS_ID] = -np.inf
            if rng is None:
                tok = last.argmax(axis=-1)
            else:
                shifted = last - last.max(axis=-1, keepdims=True)
                p = np.exp(shifted)
                p /= p.sum(axis=-1, keepdims=True)
                cdf = p.cumsum(axis=-1)
                cdf[:, -1] = 1.0
                u = rng.random(b_sz)[live]
                # inverse CDF: each row of cdf is non-decreasing and ends
                # at 1.0 > u, so the count of entries <= u is a token id
                tok = (cdf <= u[:, None]).sum(axis=-1)
            step = np.full(b_sz, PAD_ID, dtype=np.int64)
            step[live] = tok
            prefix = np.concatenate([prefix, step[:, None]], axis=1)
            done |= step == EOS_ID
            if done.all():
                break
            going = tok != EOS_ID
            if not going.all():
                live, tok = live[going], tok[going]
                cache.keep_rows(going)
            fresh = tok[:, None]
    rows = prefix[:, 1:].tolist()
    return [r[: r.index(EOS_ID) + 1] if EOS_ID in r else r for r in rows]


def tile_hidden(hidden: Hidden, n: int) -> Hidden:
    """Repeat every row of a Hidden n times, copies adjacent.  The gradient
    of the copies reaches the rows they repeat."""
    owner = np.repeat(np.arange(hidden.states.data.shape[0]), n)
    return Hidden(ad.getitem(hidden.states, owner), hidden.mask[owner])


def params_fingerprint(params: dict, names=None) -> bytes:
    """Stable byte digest of selected tensors, for freeze verification."""
    import hashlib

    h = hashlib.sha256()
    for n in sorted(names if names is not None else params):
        h.update(n.encode())
        h.update(np.ascontiguousarray(params[n].data).tobytes())
    return h.digest()
