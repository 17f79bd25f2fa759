"""Transformer forward passes, adapters, scoring, and decoding.

The centerpiece is an independent plain-numpy re-implementation of the
forward pass (per-head loops, row-by-row layer norm) used as an oracle
for the tape-built graph.
"""

import numpy as np
import pytest

from heronet import autodiff as ad
from heronet.autodiff import Tensor
from heronet.corpus import BOS_ID, EOS_ID, PAD_ID
from heronet.model import (
    DecodeCache,
    Hidden,
    ModelConfig,
    adapter_apply,
    add_retrieval_encoder,
    decode_step,
    decoder_logits,
    encode_mean_pool,
    encode_unique,
    init_params,
    match_logit,
    match_projected,
    pad_batch,
    param_subset,
    params_fingerprint,
    sample_batch,
    sqd_encoder,
)
from heronet.retrieval import qrm_bce

from helpers import clone_params, decode_next, pair_match_logit, tape_nodes

CFG = ModelConfig(vocab_size=30, d_model=8, n_heads=2, d_ff=16, n_layers=2,
                  d_proj=4, max_seq_len=12)


@pytest.fixture(scope="module")
def toy():
    params = init_params(CFG, seed=5, dtype=np.float64)
    return params, {n: t.data for n, t in params.items()}


# --- independent forward oracle ------------------------------------------

def o_ln(x, g, b, eps=1e-5):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = g * (row - mu) / np.sqrt(var + eps) + b
    return out


def o_softmax_rows(s):
    out = np.empty_like(s)
    for i in range(s.shape[0]):
        e = np.exp(s[i] - s[i].max())
        out[i] = e / e.sum()
    return out


def o_attention(p, base, xq, xkv, n_heads, kv_mask, causal=False):
    d = xq.shape[1]
    dh = d // n_heads
    q, k, v = xq @ p[base + ".wq"], xkv @ p[base + ".wk"], xkv @ p[base + ".wv"]
    heads = []
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        s = s + (1.0 - kv_mask)[None, :] * -1e9
        if causal:
            for i in range(s.shape[0]):
                for j in range(s.shape[1]):
                    if j > i:
                        s[i, j] += -1e9
        heads.append(o_softmax_rows(s) @ v[:, sl])
    return np.concatenate(heads, axis=1) @ p[base + ".wo"]


def o_ff(p, base, x):
    h = np.maximum(x @ p[base + ".w1"] + p[base + ".b1"], 0.0)
    return h @ p[base + ".w2"] + p[base + ".b2"]


def o_encode(p, cfg, ids, mask):
    x = p["embed.tok"][ids] + p["enc.pos"][: len(ids)]
    for i in range(cfg.n_layers):
        b = f"enc.{i}"
        n = o_ln(x, p[f"{b}.ln1.g"], p[f"{b}.ln1.b"])
        x = x + o_attention(p, f"{b}.attn", n, n, cfg.n_heads, mask)
        x = x + o_ff(p, f"{b}.ff", o_ln(x, p[f"{b}.ln2.g"], p[f"{b}.ln2.b"]))
    return o_ln(x, p["enc.ln_f.g"], p["enc.ln_f.b"])


def o_decode_probs(p, cfg, h_enc, src_mask, prefix):
    x = p["embed.tok"][np.asarray(prefix)] + p["dec.pos"][: len(prefix)]
    ones = np.ones(len(prefix))
    for i in range(cfg.n_layers):
        b = f"dec.{i}"
        n = o_ln(x, p[f"{b}.ln1.g"], p[f"{b}.ln1.b"])
        x = x + o_attention(p, f"{b}.self", n, n, cfg.n_heads, ones, causal=True)
        n = o_ln(x, p[f"{b}.ln2.g"], p[f"{b}.ln2.b"])
        x = x + o_attention(p, f"{b}.cross", n, h_enc, cfg.n_heads, src_mask)
        x = x + o_ff(p, f"{b}.ff", o_ln(x, p[f"{b}.ln3.g"], p[f"{b}.ln3.b"]))
    x = o_ln(x, p["dec.ln_f.g"], p["dec.ln_f.b"])
    logits = x[-1] @ p["out.w"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


# --- forward equivalence ---------------------------------------------------

class TestForwardOracle:
    def test_encoder_matches_oracle(self, toy):
        # real positions match the oracle; pad rows are never computed
        # and come back exactly 0
        params, p = toy
        hidden, pooled = encode_mean_pool(params, CFG, [[7, 8, 9, PAD_ID]])
        want = o_encode(p, CFG, np.array([7, 8, 9, PAD_ID]), hidden.mask[0])
        assert np.allclose(hidden.states.data[0, :3], want[:3], atol=1e-8,
                           rtol=0)
        assert (hidden.states.data[0, 3] == 0).all()

    def test_position_wise_layers_see_only_real_tokens(self, toy, monkeypatch):
        params, _ = toy
        lengths = [5, 2, 3]
        seqs = [list(range(4, 4 + n)) for n in lengths]
        seen = []
        real_matmul = ad.matmul

        def spy(x, w, b=None):
            seen.append(x.data.shape[:-1])
            return real_matmul(x, w, b)

        monkeypatch.setattr(ad, "matmul", spy)
        hidden, _ = encode_mean_pool(params, CFG, seqs)
        assert hidden.states.data.shape[:2] == (3, 5)
        # per layer the query, key, value and output projections and the
        # two feed-forward products, each on the packed real rows only
        assert seen == [(sum(lengths),)] * (6 * CFG.n_layers)
        assert (hidden.states.data[hidden.mask == 0] == 0).all()

    def test_mean_pool_matches_column_means(self, toy):
        params, p = toy
        hidden, pooled = encode_mean_pool(params, CFG, [[7, 8, 9], [4, 5]])
        for r, n_real in ((0, 3), (1, 2)):
            want = hidden.states.data[r, :n_real].mean(axis=0)
            assert np.allclose(pooled.data[r], want, atol=1e-12)

    def test_single_token_pool_is_hidden_row(self, toy):
        params, _ = toy
        hidden, pooled = encode_mean_pool(params, CFG, [[9]])
        assert np.allclose(pooled.data[0], hidden.states.data[0, 0], atol=0)

    def test_decode_next_matches_oracle(self, toy):
        params, p = toy
        hidden, _ = encode_mean_pool(params, CFG, [[7, 8, 9, PAD_ID]])
        prefix = [BOS_ID, 10, 11]
        probs = decode_next(params, CFG, hidden, prefix)
        want = o_decode_probs(p, CFG, hidden.states.data[0], hidden.mask[0],
                              prefix)
        assert np.allclose(probs, want, atol=1e-8, rtol=0)

    def test_teacher_forcing_runs_real_decoder_rows_only(self, toy):
        # a padded decoder batch: each real position's logits match the
        # row decoded alone; pad positions' states, so logits, are 0
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[7, 8, 9], [4, 5]])
        dec = np.array([[BOS_ID, 10, 11, 12], [BOS_ID, 13, PAD_ID, PAD_ID]])
        got = decoder_logits(params, CFG, hidden, dec,
                             (dec != PAD_ID).astype(np.float64)).data
        for r, n in ((0, 4), (1, 2)):
            row = Hidden(Tensor(hidden.states.data[r:r + 1]),
                         hidden.mask[r:r + 1])
            want = decoder_logits(params, CFG, row, dec[r:r + 1, :n],
                                  np.ones((1, n))).data
            np.testing.assert_allclose(got[r, :n], want[0], rtol=0,
                                       atol=1e-10)
        assert (got[1, 2:] == 0).all()

    def test_decode_next_sums_to_one(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[3, 4]])
        probs = decode_next(params, CFG, hidden, [BOS_ID, 6])
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs > 0).all()

    def test_zeroed_projection_gives_uniform(self, toy):
        params, _ = toy
        zeroed = clone_params(params)
        zeroed["out.w"].data[:] = 0.0
        hidden, _ = encode_mean_pool(zeroed, CFG, [[3, 4]])
        probs = decode_next(zeroed, CFG, hidden, [BOS_ID])
        assert np.allclose(probs, 1.0 / CFG.vocab_size, atol=1e-12)

    def test_pad_invariance_of_real_rows(self, toy):
        # extra padding must not change hidden rows of real tokens
        params, _ = toy
        h1, e1 = encode_mean_pool(params, CFG, [[7, 8, 9]])
        h2, e2 = encode_mean_pool(params, CFG,
                                  [[7, 8, 9, PAD_ID, PAD_ID]])
        assert np.allclose(h1.states.data[0], h2.states.data[0, :3], atol=1e-9)
        assert np.allclose(e1.data, e2.data, atol=1e-9)


class TestGuards:
    def test_all_pad_rejected(self, toy):
        params, _ = toy
        with pytest.raises(ValueError, match="all-PAD"):
            encode_mean_pool(params, CFG, [[PAD_ID, PAD_ID]])

    def test_long_input_rejected(self, toy):
        # the encoder cuts its id lists; the decoder refuses a longer grid
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[3]])
        dec = np.full((1, CFG.max_seq_len + 1), 5)
        with pytest.raises(ValueError, match="max_seq_len"):
            decoder_logits(params, CFG, hidden, dec, np.ones(dec.shape))

    def test_long_id_lists_are_cut(self, toy):
        """Id lists are cut to max_seq_len."""
        params, _ = toy
        long = list(range(6, 9 + CFG.max_seq_len))
        h, e = encode_mean_pool(params, CFG, [long, [7, 8]])
        h_cut, e_cut = encode_mean_pool(params, CFG,
                                        [long[:CFG.max_seq_len], [7, 8]])
        np.testing.assert_array_equal(h.states.data, h_cut.states.data)
        np.testing.assert_array_equal(e.data, e_cut.data)

    def test_prefix_must_start_with_bos(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[3]])
        with pytest.raises(ValueError, match="BOS"):
            decode_next(params, CFG, hidden, [7, 8])

    def test_overlong_prefix_rejected(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[3]])
        with pytest.raises(ValueError):
            decode_next(params, CFG, hidden, [BOS_ID] + [5] * CFG.max_seq_len)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=4)


# --- encode each distinct sequence once --------------------------------------

def _rand_seqs(rng, n, lo=1, hi=None):
    hi = CFG.max_seq_len if hi is None else hi
    return [[int(t) for t in rng.integers(3, CFG.vocab_size,
                                          size=int(rng.integers(lo, hi)))]
            for _ in range(n)]


class TestEncodeUnique:
    """encode_unique against one padded encode_mean_pool, in float64."""

    def _grads(self, params, loss):
        for t in params.values():
            t.grad = None
        ad.backward(loss)
        return {n: t.grad for n, t in params.items()}

    @pytest.mark.parametrize("case", ["duplicates", "one_row", "buckets",
                                      "sqd_enc"])
    def test_matches_one_padded_batch(self, case):
        params = init_params(CFG, seed=5, dtype=np.float64)
        enc, prefix = params, ""
        rng = np.random.default_rng(31)
        if case == "duplicates":
            base = _rand_seqs(rng, 6)
            groups = [base[:4], [base[1], base[1], base[5]], base[2:]]
        elif case == "one_row":
            groups = [[[7, 8, 9]], [[7, 8, 9], [7, 8, 9]]]
        else:
            base = _rand_seqs(rng, 90)
            groups = [base[:50] + base[:10], base[40:] + base[60:70]]
        if case == "sqd_enc":
            add_retrieval_encoder(params, CFG, seed=5)
            enc, prefix = sqd_encoder(params), "sqd_enc."
        flat = [s for g in groups for s in g]
        weights = rng.normal(size=(len(flat), CFG.d_model))

        _, ref = encode_mean_pool(enc, CFG, flat)
        want_grads = self._grads(params, ad.tsum(ref * Tensor(weights)))

        pooled, idx = encode_unique(enc, CFG, groups)
        assert len(idx) == len(groups)
        assert pooled.data.shape[0] == len({tuple(s) for s in flat})
        got = ad.getitem(pooled, np.concatenate(idx))
        np.testing.assert_allclose(got.data, ref.data, rtol=0, atol=1e-9)
        got_grads = self._grads(params, ad.tsum(got * Tensor(weights)))
        for name, want in want_grads.items():
            if want is None:
                assert got_grads[name] is None, name
            else:
                np.testing.assert_allclose(got_grads[name], want, rtol=0,
                                           atol=1e-9, err_msg=name)
        touched = [n for n, g in want_grads.items() if g is not None]
        assert touched and all(
            n.startswith((prefix + "embed.", prefix + "enc.")) for n in touched)

    def _spy_encodes(self, monkeypatch, groups):
        from heronet import model
        calls = []
        real = model.encode_mean_pool

        def spy(params, cfg, seqs):
            hidden, pooled = real(params, cfg, seqs)
            calls.append(([list(s) for s in seqs], hidden.mask.shape[1]))
            return hidden, pooled

        monkeypatch.setattr(model, "encode_mean_pool", spy)
        encode_unique(init_params(CFG, seed=5), CFG, groups)
        return calls

    def test_small_table_is_one_encode(self, monkeypatch):
        rng = np.random.default_rng(32)
        base = _rand_seqs(rng, 63)
        calls = self._spy_encodes(monkeypatch, [base, base[:20]])
        assert len(calls) == 1
        assert sorted(map(tuple, calls[0][0])) == sorted(set(map(tuple, base)))

    def test_large_table_buckets_pad_to_own_longest(self, monkeypatch):
        rng = np.random.default_rng(33)
        base = _rand_seqs(rng, 101)
        distinct = set(map(tuple, base))
        calls = self._spy_encodes(monkeypatch, [base, base[::3]])
        assert len(calls) == 4
        sizes = [len(rows) for rows, _ in calls]
        assert max(sizes) - min(sizes) <= 1
        seen = [tuple(s) for rows, _ in calls for s in rows]
        assert len(seen) == len(set(seen)) and set(seen) == distinct
        lengths = [[len(s) for s in rows] for rows, _ in calls]
        for prev, nxt in zip(lengths, lengths[1:]):
            assert max(prev) <= min(nxt)
        assert [width for _, width in calls] == [max(n) for n in lengths]
        assert calls[0][1] < calls[-1][1]


# --- what the tape keeps ----------------------------------------------------

def _captured(value):
    """Yield value and, through tuples and lists, everything inside it."""
    yield value
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _captured(item)


class TestTapeMemory:
    """A training graph holds the arrays its backward reads, not Tensors."""

    def _loss(self, params):
        rng = np.random.default_rng(34)
        queries = _rand_seqs(rng, 6, lo=2)
        responses = _rand_seqs(rng, 6, lo=2)
        pooled, (q_idx, r_idx) = encode_unique(params, CFG,
                                               [queries, responses])
        z = match_logit(params, pooled, q_idx, r_idx)
        labels = np.array([1.0, 0, 0, 1, 0, 0])
        return qrm_bce(z, labels)

    def test_closures_capture_no_tensor(self):
        params = init_params(CFG, seed=5, dtype=np.float64)
        nodes = tape_nodes(self._loss(params))
        ops = [n for n in nodes if n._backward is not None]
        names = {n._backward.__qualname__.split(".")[0] for n in ops}
        # the packed path ran: rows of different lengths went onto the grid
        # and back off it, as getitem of the reshaped grid
        assert {"scatter_rows", "reshape", "getitem", "attention"} <= names
        for node in ops:
            for cell in node._backward.__closure__ or ():
                held = [v for v in _captured(cell.cell_contents)
                        if isinstance(v, Tensor)]
                assert not held, node._backward.__qualname__
        leaves = [n for n in nodes if n._backward is None]
        assert leaves and all(isinstance(n, Tensor) and n.requires_grad
                              for n in leaves)

    def test_backward_clears_intermediate_gradients(self):
        params = init_params(CFG, seed=5, dtype=np.float64)
        loss = self._loss(params)
        ad.backward(loss)
        assert all(n.grad is None for n in tape_nodes(loss)
                   if n._backward is not None)
        assert all(n.grad is not None
                   for n in param_subset(params, "qrm").values())


# --- adapters and scoring --------------------------------------------------

class TestAdapters:
    def test_affine_ln_oracle(self, toy):
        # psi_d's LayerNorm scales and does not shift
        params, p = toy
        assert "psi_d.ln.b" not in params
        rng = np.random.default_rng(2)
        e = Tensor(rng.normal(size=(3, CFG.d_model)))
        out = adapter_apply(params, "sqd", e)
        z = e.data @ p["psi_d.w"] + p["psi_d.b"]
        want = o_ln(z, p["psi_d.ln.g"], 0.0)
        assert np.allclose(out.data, want, atol=1e-10)

    def test_shift_invariance(self, toy):
        params, _ = toy
        rng = np.random.default_rng(3)
        e = Tensor(rng.normal(size=(2, CFG.d_model)))
        base = adapter_apply(params, "qrm", e).data
        shifted = clone_params(params)
        shifted["psi_m.b"].data += 4.2
        again = adapter_apply(shifted, "qrm", e).data
        assert np.allclose(base, again, atol=1e-8)

    def test_dimension_mismatch_rejected(self, toy):
        params, _ = toy
        with pytest.raises(ValueError, match="dimension"):
            adapter_apply(params, "sqd", Tensor(np.zeros((2, 5))))
        with pytest.raises(ValueError, match="task"):
            adapter_apply(params, "other", Tensor(np.zeros((2, CFG.d_model))))


def _pairs_table(e_q, e_r):
    """e_q and e_r stacked into one table, with the index pairs that read
    pair i from rows i and len(e_q) + i."""
    n = e_q.data.shape[0]
    rows = Tensor(np.concatenate([e_q.data, e_r.data]))
    return rows, np.arange(n), n + np.arange(n)


class TestMatchScore:
    def test_zero_weights_give_half(self, toy):
        params, _ = toy
        zeroed = clone_params(params)
        zeroed["psi_m.w_m"].data[:] = 0.0
        rng = np.random.default_rng(4)
        e_q = Tensor(rng.normal(size=(3, CFG.d_model)))
        e_r = Tensor(rng.normal(size=(3, CFG.d_model)))
        s = ad.sigmoid(match_logit(zeroed, *_pairs_table(e_q, e_r))).data
        assert np.allclose(s, 0.5, atol=1e-12)
        want = ad.sigmoid(pair_match_logit(zeroed, e_q, e_r)).data
        np.testing.assert_array_equal(s, want)

    def test_scalar_oracle(self, toy):
        params, p = toy
        rng = np.random.default_rng(6)
        e_q = rng.normal(size=(1, CFG.d_model))
        e_r = rng.normal(size=(1, CFG.d_model))
        pq = o_ln(e_q @ p["psi_m.w"] + p["psi_m.b"], p["psi_m.ln.g"],
                  p["psi_m.ln.b"])[0]
        pr = o_ln(e_r @ p["psi_m.w"] + p["psi_m.b"], p["psi_m.ln.g"],
                  p["psi_m.ln.b"])[0]
        z = float(np.concatenate([pq, pr, np.abs(pq - pr)]) @ p["psi_m.w_m"])
        want = 1.0 / (1.0 + np.exp(-z))
        ref = ad.sigmoid(pair_match_logit(params, Tensor(e_q),
                                          Tensor(e_r))).data[0]
        assert ref == pytest.approx(want, rel=1e-12)
        got = ad.sigmoid(match_logit(
            params, *_pairs_table(Tensor(e_q), Tensor(e_r)))).data[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_score_strictly_inside_unit_interval(self, toy):
        params, _ = toy
        rng = np.random.default_rng(8)
        for _ in range(100):
            e_q = Tensor(rng.normal(size=(4, CFG.d_model)) * 5)
            e_r = Tensor(rng.normal(size=(4, CFG.d_model)) * 5)
            s = ad.sigmoid(match_logit(params, *_pairs_table(e_q, e_r))).data
            assert ((s > 0) & (s < 1)).all()
            np.testing.assert_allclose(
                s, ad.sigmoid(pair_match_logit(params, e_q, e_r)).data,
                rtol=1e-12)

    def test_positive_scaling_keeps_ranking(self, toy):
        params, _ = toy
        rng = np.random.default_rng(10)
        # one query row against ten responses: the query is one table row
        rows = Tensor(rng.normal(size=(11, CFG.d_model)))
        q_idx, r_idx = np.zeros(10, dtype=np.int64), np.arange(1, 11)
        before = np.argsort(-ad.sigmoid(match_logit(params, rows, q_idx,
                                                    r_idx)).data)
        want = pair_match_logit(params, Tensor(rows.data[q_idx]),
                                Tensor(rows.data[r_idx])).data
        assert (before == np.argsort(-want)).all()
        scaled = clone_params(params)
        scaled["psi_m.w_m"].data *= 3.7
        after = np.argsort(-ad.sigmoid(match_logit(scaled, rows, q_idx,
                                                   r_idx)).data)
        assert (before == after).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_projected_rows_score_like_pooled_rows(self, dtype):
        params = init_params(CFG, seed=3, dtype=dtype)
        rng = np.random.default_rng(12)
        rows = Tensor(rng.normal(size=(5, CFG.d_model)).astype(dtype))
        q_idx, r_idx = np.array([0, 0, 1, 4, 2]), np.array([1, 2, 3, 3, 2])
        got = match_projected(params, adapter_apply(params, "qrm", rows),
                              q_idx, r_idx).data
        np.testing.assert_array_equal(
            got, match_logit(params, rows, q_idx, r_idx).data)
        want = pair_match_logit(params, Tensor(rows.data[q_idx]),
                                Tensor(rows.data[r_idx])).data
        np.testing.assert_allclose(
            got, want, rtol=1e-5 if dtype == np.float32 else 1e-12)

    def test_gradient_matches_the_pairwise_reference(self):
        """Scoring a table once gives psi_m and the rows the gradient that
        scoring every gathered pair does."""
        params = init_params(CFG, seed=4, dtype=np.float64)
        rng = np.random.default_rng(14)
        rows = Tensor(rng.normal(size=(4, CFG.d_model)), requires_grad=True)
        q_idx, r_idx = np.array([0, 0, 0, 3]), np.array([1, 2, 3, 3])
        weights = rng.normal(size=4)
        names = [n for n in params if n.startswith("psi_m.")]

        def grads(score):
            for t in [rows] + [params[n] for n in names]:
                t.grad = None
            ad.backward(ad.tsum(score * weights))
            return [rows.grad.copy()] + [params[n].grad.copy()
                                         for n in names]

        got = grads(match_logit(params, rows, q_idx, r_idx))
        want = grads(pair_match_logit(params, ad.getitem(rows, q_idx),
                                      ad.getitem(rows, r_idx)))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)


# --- sampling ----------------------------------------------------------------

class TestSampling:
    def test_greedy_deterministic(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[7, 8, 9]])
        [a] = sample_batch(params, CFG, hidden, max_len=8)
        [b] = sample_batch(params, CFG, hidden, max_len=8)
        assert a == b

    def test_seeded_sampling_reproducible(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[7, 8, 9]])
        [a] = sample_batch(params, CFG, hidden,
                           rng=np.random.default_rng(42), max_len=8)
        [b] = sample_batch(params, CFG, hidden,
                           rng=np.random.default_rng(42), max_len=8)
        assert a == b

    def test_distinct_seeds_vary(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[7, 8, 9]])
        outs = {tuple(sample_batch(params, CFG, hidden,
                                   rng=np.random.default_rng(s), max_len=8)[0])
                for s in range(20)}
        assert len(outs) >= 2

    def test_ends_at_eos_or_cap(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[5, 6], [9, 3]])
        for seq in sample_batch(params, CFG, hidden,
                                rng=np.random.default_rng(0), max_len=6):
            if EOS_ID in seq:
                assert seq[-1] == EOS_ID
            else:
                assert len(seq) == 6

    def test_first_token_frequencies_match_probs(self, toy):
        from scipy import stats

        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, [[7, 8, 9]])
        probs = decode_next(params, CFG, hidden, [BOS_ID]).copy()
        probs[[PAD_ID, BOS_ID]] = 0.0  # never sampled
        probs /= probs.sum()
        n = 3000
        tiled = Hidden(Tensor(np.repeat(hidden.states.data, n, axis=0)),
                       np.repeat(hidden.mask, n, axis=0))
        seqs = sample_batch(params, CFG, tiled,
                            rng=np.random.default_rng(99), max_len=1)
        counts = np.bincount([s[0] for s in seqs], minlength=CFG.vocab_size)
        expected = probs * n
        keep = expected >= 5
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        if exp[-1] == 0:
            obs, exp = obs[:-1], exp[:-1]
        exp *= obs.sum() / exp.sum()
        assert stats.chisquare(obs, exp).pvalue > 1e-3


class TestCachedDecoding:
    """The K/V-cached decode against the teacher-forced decoder."""

    @pytest.fixture(scope="class")
    def decoded(self):
        # float32 as in training; weights widened so logits are O(1), and
        # the EOS column scaled so row 1 finishes early while the rest run
        # to the max_seq_len - 1 cap
        params = init_params(CFG, seed=0)
        rng = np.random.default_rng(0)
        for t in params.values():
            t.data += rng.normal(0, 0.5, t.data.shape).astype(np.float32)
        params["out.w"].data[:, EOS_ID] *= 3
        hidden, _ = encode_mean_pool(params, CFG,
                                     [[5, 6, 7, 8, 9], [9, 3], [4, 11, 12],
                                      [20]])
        seqs = sample_batch(params, CFG, hidden, max_len=CFG.max_seq_len + 3)
        # the decoder input sample_batch built: finished rows carry PAD
        width = max(len(s) for s in seqs)
        dec = np.full((len(seqs), 1 + width), PAD_ID, dtype=np.int64)
        dec[:, 0] = BOS_ID
        for r, s in enumerate(seqs):
            dec[r, 1:1 + len(s)] = s
        with ad.no_grad():
            # a cached decode reads every fed position, PAD too
            tf = decoder_logits(params, CFG, hidden, dec,
                                np.ones(dec.shape)).data
        return params, hidden, seqs, dec, tf

    def test_rows_finish_early_and_at_cap(self, decoded):
        _, _, seqs, _, _ = decoded
        lengths = [len(s) for s in seqs]
        assert max(lengths) == CFG.max_seq_len - 1
        assert EOS_ID in seqs[1] and len(seqs[1]) < CFG.max_seq_len - 1

    def test_greedy_tokens_are_teacher_forced_argmax(self, decoded):
        _, _, seqs, _, tf = decoded
        for r, seq in enumerate(seqs):
            for j in range(len(seq)):
                logits = tf[r, j].astype(np.float64)
                logits[[PAD_ID, BOS_ID]] = -np.inf
                assert seq[j] == int(logits.argmax())

    def test_step_logits_match_teacher_forcing(self, decoded):
        params, hidden, _, dec, tf = decoded
        with ad.no_grad():
            cache = DecodeCache(params, CFG, hidden)
            steps = [decode_step(params, CFG, cache, dec[:, j:j + 1])
                     for j in range(dec.shape[1])]
        assert cache.length == dec.shape[1] == CFG.max_seq_len
        for j, logits in enumerate(steps):
            np.testing.assert_allclose(logits, tf[:, j], rtol=1e-5, atol=1e-5)

    def test_step_logits_after_keep_rows(self, decoded):
        """Dropping rows mid-decode leaves the kept rows' later logits on
        teacher forcing, and every step writes into the same buffers."""
        params, hidden, _, dec, tf = decoded
        keep = np.array([True, False, True, True])
        with ad.no_grad():
            cache = DecodeCache(params, CFG, hidden)
            buffers = [kv for layer in cache.past for kv in layer]
            decode_step(params, CFG, cache, dec[:, :3])
            decode_step(params, CFG, cache, dec[:, 3:4])
            cache.keep_rows(keep)
            steps = [decode_step(params, CFG, cache, dec[keep, j:j + 1])
                     for j in range(4, dec.shape[1])]
        assert cache.length == dec.shape[1]
        np.testing.assert_array_equal(cache.mask, hidden.mask[keep])
        assert all(np.shares_memory(kv, buf) for kv, buf in
                   zip((kv for layer in cache.past for kv in layer), buffers))
        for j, logits in zip(range(4, dec.shape[1]), steps):
            assert logits.shape[0] == keep.sum()
            np.testing.assert_allclose(logits, tf[keep, j],
                                       rtol=1e-5, atol=1e-5)

    def test_sampling_drops_finished_rows(self, monkeypatch):
        """A row leaves the step batch once it emits EOS, yet every row
        still takes one draw per step: each sampled token replays from
        the teacher-forced logits and the same uniform stream."""
        from heronet import model
        params = init_params(CFG, seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        for t in params.values():
            t.data += rng.normal(0, 0.5, t.data.shape)
        params["out.w"].data[:, EOS_ID] *= 4
        hidden, _ = encode_mean_pool(params, CFG,
                                     [[5, 6, 7, 8, 9], [9, 3], [4, 11, 12],
                                      [20], [7, 7], [13, 14, 15, 16]])
        widths = []
        real = model.decode_step

        def spy(params, cfg, cache, new_ids):
            widths.append(len(new_ids))
            return real(params, cfg, cache, new_ids)

        monkeypatch.setattr(model, "decode_step", spy)
        seqs = sample_batch(params, CFG, hidden,
                            rng=np.random.default_rng(1),
                            max_len=CFG.max_seq_len)
        assert widths == [sum(len(s) > j for s in seqs)
                          for j in range(len(widths))]
        assert widths[0] == len(seqs) and 1 < min(widths) < len(seqs)

        dec = np.full((len(seqs), 1 + max(map(len, seqs))), PAD_ID,
                      dtype=np.int64)
        dec[:, 0] = BOS_ID
        for r, seq in enumerate(seqs):
            dec[r, 1:1 + len(seq)] = seq
        with ad.no_grad():
            # PAD follows EOS, so no position read below attends to it
            tf = decoder_logits(params, CFG, hidden, dec,
                                np.ones(dec.shape)).data
        replay = np.random.default_rng(1)
        for j in range(len(widths)):
            u = replay.random(len(seqs))
            for r, seq in enumerate(seqs):
                if len(seq) > j:
                    logits = tf[r, j].copy()
                    logits[[PAD_ID, BOS_ID]] = -np.inf
                    p = np.exp(logits - logits.max())
                    cdf = np.cumsum(p / p.sum())
                    cdf[-1] = 1.0
                    assert seq[j] == int(np.searchsorted(cdf, u[r], "right"))


# --- parameter store machinery ----------------------------------------------

class TestParamStore:
    def test_shapes_and_sharing(self, toy):
        params, _ = toy
        assert params["embed.tok"].data.shape == (CFG.vocab_size, CFG.d_model)
        assert params["out.w"].data.shape == (CFG.d_model, CFG.vocab_size)
        assert params["psi_m.w_m"].data.shape == (3 * CFG.d_proj,)
        # one shared table: no separate decoder embedding entry
        assert "dec.embed.tok" not in params

    def test_init_deterministic(self):
        a = init_params(CFG, seed=5)
        b = init_params(CFG, seed=5)
        assert all(np.array_equal(a[n].data, b[n].data) for n in a)
        c = init_params(CFG, seed=6)
        assert any(not np.array_equal(a[n].data, c[n].data) for n in a)

    def test_subsets(self, toy):
        params, _ = toy
        gen = param_subset(params, "generator")
        assert not any(n.startswith("psi_") for n in gen)
        assert "out.w" in gen and "embed.tok" in gen
        assert sqd_encoder(params) is params
        sqd = param_subset(params, "sqd")
        assert "psi_d.w" in sqd and "psi_m.w" not in sqd
        assert "embed.tok" in sqd and "dec.pos" not in sqd
        disc = param_subset(params, "disc")
        assert "psi_m.w_m" in disc and "psi_d.w" not in disc
        rerank = param_subset(params, "rerank")
        assert set(rerank) == {n for n in params if n.startswith("psi_m.")}
        with pytest.raises(ValueError):
            param_subset(params, "nonsense")

    def test_ablation_encoder_is_separate(self):
        params = init_params(CFG, seed=5)
        add_retrieval_encoder(params, CFG, seed=5)
        assert "sqd_enc.embed.tok" in params
        assert not np.array_equal(params["sqd_enc.embed.tok"].data,
                                  params["embed.tok"].data)
        view = sqd_encoder(params)
        assert set(view) == {n[len("sqd_enc."):] for n in params
                             if n.startswith("sqd_enc.")}
        assert view["embed.tok"] is params["sqd_enc.embed.tok"]
        sqd = param_subset(params, "sqd")
        assert all(n.startswith(("sqd_enc.", "psi_d.")) for n in sqd)
        assert "sqd_enc.embed.tok" in sqd
        assert not any(n.startswith("sqd_enc.") for n in
                       param_subset(params, "qrm"))
        # the shared-encoder stages never touch the ablation copy
        assert not any(n.startswith("sqd_enc.") for n in
                       param_subset(params, "generator"))
        ids = [[7, 8, 9]]
        h_main, _ = encode_mean_pool(params, CFG, ids)
        h_abl, _ = encode_mean_pool(view, CFG, ids)
        assert not np.allclose(h_main.states.data, h_abl.states.data)

    def test_pad_batch(self):
        ids, mask = pad_batch([[4, 5, 6], [7]])
        assert ids.tolist() == [[4, 5, 6], [7, PAD_ID, PAD_ID]]
        assert mask.tolist() == [[1, 1, 1], [1, 0, 0]]
        with pytest.raises(ValueError):
            pad_batch([])

    def test_fingerprint_tracks_changes(self, toy):
        params, _ = toy
        fresh = clone_params(params)
        before = params_fingerprint(fresh, [n for n in fresh if "enc." in n])
        fresh["psi_m.w_m"].data += 1.0
        assert params_fingerprint(
            fresh, [n for n in fresh if "enc." in n]) == before
        fresh["enc.0.attn.wq"].data += 1.0
        assert params_fingerprint(
            fresh, [n for n in fresh if "enc." in n]) != before
