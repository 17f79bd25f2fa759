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
    Projected,
    adapter_apply,
    add_retrieval_encoder,
    clone_params,
    decode_next,
    decode_step,
    decoder_logits,
    encode_mean_pool,
    init_params,
    match_logit,
    match_score,
    pad_batch,
    param_subset,
    params_fingerprint,
    sample_batch,
    sample_sequence,
    sentence_distance,
)

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
        params, p = toy
        ids = np.array([[7, 8, 9, PAD_ID]])
        hidden, pooled = encode_mean_pool(params, CFG, ids)
        want = o_encode(p, CFG, ids[0], hidden.mask[0])
        assert np.allclose(hidden.states.data[0], want, atol=1e-8, rtol=0)

    def test_mean_pool_matches_column_means(self, toy):
        params, p = toy
        ids = np.array([[7, 8, 9, PAD_ID], [4, 5, PAD_ID, PAD_ID]])
        hidden, pooled = encode_mean_pool(params, CFG, ids)
        for r, n_real in ((0, 3), (1, 2)):
            want = hidden.states.data[r, :n_real].mean(axis=0)
            assert np.allclose(pooled.data[r], want, atol=1e-12)

    def test_single_token_pool_is_hidden_row(self, toy):
        params, _ = toy
        hidden, pooled = encode_mean_pool(params, CFG, np.array([[9]]))
        assert np.allclose(pooled.data[0], hidden.states.data[0, 0], atol=0)

    def test_decode_next_matches_oracle(self, toy):
        params, p = toy
        ids = np.array([[7, 8, 9, PAD_ID]])
        hidden, _ = encode_mean_pool(params, CFG, ids)
        prefix = [BOS_ID, 10, 11]
        probs = decode_next(params, CFG, hidden, prefix)
        want = o_decode_probs(p, CFG, hidden.states.data[0], hidden.mask[0],
                              prefix)
        assert np.allclose(probs, want, atol=1e-8, rtol=0)

    def test_decode_next_sums_to_one(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[3, 4]]))
        probs = decode_next(params, CFG, hidden, [BOS_ID, 6])
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs > 0).all()

    def test_zeroed_projection_gives_uniform(self, toy):
        params, _ = toy
        zeroed = clone_params(params)
        zeroed["out.w"].data[:] = 0.0
        hidden, _ = encode_mean_pool(zeroed, CFG, np.array([[3, 4]]))
        probs = decode_next(zeroed, CFG, hidden, [BOS_ID])
        assert np.allclose(probs, 1.0 / CFG.vocab_size, atol=1e-12)

    def test_pad_invariance_of_real_rows(self, toy):
        # extra padding must not change hidden rows of real tokens
        params, _ = toy
        h1, e1 = encode_mean_pool(params, CFG, np.array([[7, 8, 9]]))
        h2, e2 = encode_mean_pool(params, CFG,
                                  np.array([[7, 8, 9, PAD_ID, PAD_ID]]))
        assert np.allclose(h1.states.data[0], h2.states.data[0, :3], atol=1e-9)
        assert np.allclose(e1.data, e2.data, atol=1e-9)


class TestGuards:
    def test_all_pad_rejected(self, toy):
        params, _ = toy
        with pytest.raises(ValueError, match="all-PAD"):
            encode_mean_pool(params, CFG, np.array([[PAD_ID, PAD_ID]]))

    def test_long_input_rejected(self, toy):
        params, _ = toy
        ids = np.full((1, CFG.max_seq_len + 1), 5)
        with pytest.raises(ValueError, match="max_seq_len"):
            encode_mean_pool(params, CFG, ids)

    def test_prefix_must_start_with_bos(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[3]]))
        with pytest.raises(ValueError, match="BOS"):
            decode_next(params, CFG, hidden, [7, 8])

    def test_overlong_prefix_rejected(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[3]]))
        with pytest.raises(ValueError):
            decode_next(params, CFG, hidden, [BOS_ID] + [5] * CFG.max_seq_len)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=4)


# --- adapters and scoring --------------------------------------------------

class TestAdapters:
    def test_affine_ln_oracle(self, toy):
        params, p = toy
        rng = np.random.default_rng(2)
        e = Tensor(rng.normal(size=(3, CFG.d_model)))
        out = adapter_apply(params, "sqd", e)
        z = e.data @ p["psi_d.w"] + p["psi_d.b"]
        want = o_ln(z, p["psi_d.ln.g"], p["psi_d.ln.b"])
        assert out.task == "sqd"
        assert np.allclose(out.vec.data, want, atol=1e-10)

    def test_shift_invariance(self, toy):
        params, _ = toy
        rng = np.random.default_rng(3)
        e = Tensor(rng.normal(size=(2, CFG.d_model)))
        base = adapter_apply(params, "qrm", e).vec.data
        shifted = clone_params(params)
        shifted["psi_m.b"].data += 4.2
        again = adapter_apply(shifted, "qrm", e).vec.data
        assert np.allclose(base, again, atol=1e-8)

    def test_dimension_mismatch_rejected(self, toy):
        params, _ = toy
        with pytest.raises(ValueError, match="dimension"):
            adapter_apply(params, "sqd", Tensor(np.zeros((2, 5))))
        with pytest.raises(ValueError, match="task"):
            adapter_apply(params, "other", Tensor(np.zeros((2, CFG.d_model))))


class TestDistance:
    def test_three_four_five(self):
        a = Projected(Tensor(np.array([0.0, 0.0])), "sqd")
        b = Projected(Tensor(np.array([3.0, 4.0])), "sqd")
        assert sentence_distance(a, b).data == pytest.approx(5.0)

    def test_identity_and_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            a, b = Projected(Tensor(x), "sqd"), Projected(Tensor(y), "sqd")
            assert sentence_distance(a, a).data == 0.0
            assert sentence_distance(a, b).data == sentence_distance(b, a).data

    def test_component_oracle(self):
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=64), rng.normal(size=64)
        d = sentence_distance(Projected(Tensor(x), "sqd"),
                              Projected(Tensor(y), "sqd")).data
        assert d == pytest.approx(np.sqrt(((x - y) ** 2).sum()), rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x, y, z = rng.normal(size=(3, 6))
            pa = Projected(Tensor(x), "sqd")
            pb = Projected(Tensor(y), "sqd")
            pc = Projected(Tensor(z), "sqd")
            dac = sentence_distance(pa, pc).data
            dab = sentence_distance(pa, pb).data
            dbc = sentence_distance(pb, pc).data
            assert dac <= dab + dbc + 1e-12

    def test_mixed_tags_rejected(self, toy):
        a = Projected(Tensor(np.zeros(4)), "sqd")
        b = Projected(Tensor(np.zeros(4)), "qrm")
        with pytest.raises(ValueError):
            sentence_distance(a, b)


class TestMatchScore:
    def test_zero_weights_give_half(self, toy):
        params, _ = toy
        zeroed = clone_params(params)
        zeroed["psi_m.w_m"].data[:] = 0.0
        rng = np.random.default_rng(4)
        e_q = Tensor(rng.normal(size=(3, CFG.d_model)))
        e_r = Tensor(rng.normal(size=(3, CFG.d_model)))
        assert np.allclose(match_score(zeroed, e_q, e_r).data, 0.5, atol=1e-12)

    def test_scalar_oracle(self, toy):
        params, p = toy
        rng = np.random.default_rng(6)
        e_q = rng.normal(size=(1, CFG.d_model))
        e_r = rng.normal(size=(1, CFG.d_model))
        got = match_score(params, Tensor(e_q), Tensor(e_r)).data[0]
        pq = o_ln(e_q @ p["psi_m.w"] + p["psi_m.b"], p["psi_m.ln.g"],
                  p["psi_m.ln.b"])[0]
        pr = o_ln(e_r @ p["psi_m.w"] + p["psi_m.b"], p["psi_m.ln.g"],
                  p["psi_m.ln.b"])[0]
        z = float(np.concatenate([pq, pr, np.abs(pq - pr)]) @ p["psi_m.w_m"])
        assert got == pytest.approx(1.0 / (1.0 + np.exp(-z)), rel=1e-12)

    def test_score_strictly_inside_unit_interval(self, toy):
        params, _ = toy
        rng = np.random.default_rng(8)
        for _ in range(100):
            e_q = Tensor(rng.normal(size=(4, CFG.d_model)) * 5)
            e_r = Tensor(rng.normal(size=(4, CFG.d_model)) * 5)
            s = match_score(params, e_q, e_r).data
            assert ((s > 0) & (s < 1)).all()

    def test_positive_scaling_keeps_ranking(self, toy):
        params, _ = toy
        rng = np.random.default_rng(10)
        e_q = Tensor(np.repeat(rng.normal(size=(1, CFG.d_model)), 10, axis=0))
        e_r = Tensor(rng.normal(size=(10, CFG.d_model)))
        before = np.argsort(-match_score(params, e_q, e_r).data)
        scaled = clone_params(params)
        scaled["psi_m.w_m"].data *= 3.7
        after = np.argsort(-match_score(scaled, e_q, e_r).data)
        assert (before == after).all()


# --- sampling ----------------------------------------------------------------

class TestSampling:
    def test_greedy_deterministic(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[7, 8, 9]]))
        a = sample_sequence(params, CFG, hidden, mode="greedy", max_len=8)
        b = sample_sequence(params, CFG, hidden, mode="greedy", max_len=8)
        assert a == b

    def test_temperature_zero_equals_greedy(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[7, 8, 9]]))
        g = sample_sequence(params, CFG, hidden, mode="greedy", max_len=8)
        s = sample_sequence(params, CFG, hidden, mode="sample", temperature=0.0,
                            max_len=8)
        assert g == s

    def test_seeded_sampling_reproducible(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[7, 8, 9]]))
        a = sample_sequence(params, CFG, hidden, mode="sample",
                            rng=np.random.default_rng(42), max_len=8)
        b = sample_sequence(params, CFG, hidden, mode="sample",
                            rng=np.random.default_rng(42), max_len=8)
        assert a == b

    def test_distinct_seeds_vary(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[7, 8, 9]]))
        outs = {tuple(sample_sequence(params, CFG, hidden, mode="sample",
                                      rng=np.random.default_rng(s), max_len=8))
                for s in range(20)}
        assert len(outs) >= 2

    def test_ends_at_eos_or_cap(self, toy):
        params, _ = toy
        ids = np.array([[5, 6], [9, 3]])
        hidden, _ = encode_mean_pool(params, CFG, ids)
        for seq in sample_batch(params, CFG, hidden, mode="sample",
                                rng=np.random.default_rng(0), max_len=6):
            if EOS_ID in seq:
                assert seq[-1] == EOS_ID
            else:
                assert len(seq) == 6

    def test_first_token_frequencies_match_probs(self, toy):
        from scipy import stats

        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[7, 8, 9]]))
        probs = decode_next(params, CFG, hidden, [BOS_ID]).copy()
        probs[[PAD_ID, BOS_ID]] = 0.0  # never sampled
        probs /= probs.sum()
        n = 3000
        tiled = Hidden(Tensor(np.repeat(hidden.states.data, n, axis=0)),
                       np.repeat(hidden.mask, n, axis=0))
        seqs = sample_batch(params, CFG, tiled, mode="sample",
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

    def test_bad_mode_rejected(self, toy):
        params, _ = toy
        hidden, _ = encode_mean_pool(params, CFG, np.array([[3]]))
        with pytest.raises(ValueError):
            sample_batch(params, CFG, hidden, mode="beam")
        with pytest.raises(ValueError, match="rng"):
            sample_batch(params, CFG, hidden, mode="sample")


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
        ids, mask = pad_batch([[5, 6, 7, 8, 9], [9, 3], [4, 11, 12], [20]])
        hidden, _ = encode_mean_pool(params, CFG, ids, mask)
        start = [6, 7]
        seqs = sample_batch(params, CFG, hidden, mode="greedy",
                            max_len=CFG.max_seq_len + 3, start=start)
        # the decoder input sample_batch built: finished rows carry PAD
        width = max(len(s) for s in seqs)
        dec = np.full((len(seqs), 1 + width), PAD_ID, dtype=np.int64)
        dec[:, 0] = BOS_ID
        for r, s in enumerate(seqs):
            dec[r, 1:1 + len(s)] = s
        with ad.no_grad():
            tf = decoder_logits(params, CFG, hidden, dec).data
        return params, hidden, start, seqs, dec, tf

    def test_rows_finish_early_and_at_cap(self, decoded):
        _, _, start, seqs, _, _ = decoded
        assert all(s[:len(start)] == start for s in seqs)
        lengths = [len(s) for s in seqs]
        assert max(lengths) == CFG.max_seq_len - 1
        assert EOS_ID in seqs[1] and len(seqs[1]) < CFG.max_seq_len - 1

    def test_greedy_tokens_are_teacher_forced_argmax(self, decoded):
        _, _, start, seqs, _, tf = decoded
        for r, seq in enumerate(seqs):
            for j in range(len(start), len(seq)):
                logits = tf[r, j].astype(np.float64)
                logits[[PAD_ID, BOS_ID]] = -np.inf
                assert seq[j] == int(logits.argmax())

    def test_step_logits_match_teacher_forcing(self, decoded):
        params, hidden, start, _, dec, tf = decoded
        first = 1 + len(start)
        with ad.no_grad():
            cache = DecodeCache(params, CFG, hidden)
            steps = [decode_step(params, CFG, hidden, cache, dec[:, :first])]
            for j in range(first, dec.shape[1]):
                steps.append(decode_step(params, CFG, hidden, cache,
                                         dec[:, j:j + 1]))
        assert cache.length == dec.shape[1] == CFG.max_seq_len
        for offset, logits in enumerate(steps):
            np.testing.assert_allclose(logits, tf[:, first - 1 + offset],
                                       rtol=1e-5, atol=1e-5)


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
        warm = param_subset(params, "warmup")
        assert not any(n.startswith("psi_") for n in warm)
        assert "out.w" in warm and "embed.tok" in warm
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
        sqd = param_subset(params, "sqd", enc_prefix="sqd_enc.")
        assert all(n.startswith(("sqd_enc.", "psi_d.")) for n in sqd)
        # the shared-encoder stages never touch the ablation copy
        assert not any(n.startswith("sqd_enc.") for n in
                       param_subset(params, "warmup"))
        ids = np.array([[7, 8, 9]])
        h_main, _ = encode_mean_pool(params, CFG, ids)
        h_abl, _ = encode_mean_pool(params, CFG, ids, prefix="sqd_enc.")
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
