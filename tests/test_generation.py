"""Generator training tests: warm-up CE, rollouts, policy gradient, splicing."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heronet import autodiff as ad
from heronet.autodiff import Tensor
from heronet.corpus import (BOS_ID, EOS_ID, PAD_ID, SEP_ID, build_vocab,
                            encode_text, generate_synthetic_corpus,
                            splice_context)
from heronet.generation import (GenLossReport, build_teacher_batch,
                                generate_candidates, knowledge_sources,
                                pg_step, sequence_ce, splice_knowledge)
from heronet.model import (Hidden, ModelConfig, encode_mean_pool, init_params,
                           param_subset, params_fingerprint, sample_batch,
                           tile_hidden)
from heronet.retrieval import build_pool_cache

from helpers import clone_params, decode_next


@pytest.fixture(scope="module")
def small_world():
    corpus = generate_synthetic_corpus(seed=3, n_train=40, n_eval=10,
                                       pool_size=30)
    vocab = build_vocab(corpus, max_size=512)
    cfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16,
                      n_layers=2, d_proj=4, max_seq_len=48)
    params = init_params(cfg, seed=11, dtype=np.float64)
    cache = build_pool_cache(params, cfg, vocab, corpus.pool)
    return corpus, vocab, cfg, params, cache


def batch_inputs(corpus, vocab, cfg, k):
    pairs = corpus.train[:k]
    src = [encode_text(splice_context(p), vocab, cfg.max_seq_len)
           for p in pairs]
    resp = [encode_text(p.response, vocab) for p in pairs]
    return src, resp


# ---------------------------------------------------------------------------
# teacher forcing


def test_teacher_batch_shift_and_masks():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                      n_layers=1, d_proj=4, max_seq_len=16)
    tb = build_teacher_batch([[7, 8, 9], [10]], cfg)
    assert tb.dec_in.tolist() == [[BOS_ID, 7, 8, 9], [BOS_ID, 10, PAD_ID, PAD_ID]]
    assert tb.targets.tolist() == [[7, 8, 9, EOS_ID], [10, EOS_ID, PAD_ID, PAD_ID]]
    assert tb.tgt_mask.tolist() == [[1, 1, 1, 1], [1, 1, 0, 0]]


def test_teacher_batch_without_eos_appending():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                      n_layers=1, d_proj=4, max_seq_len=16)
    tb = build_teacher_batch([[7, 8, EOS_ID]], cfg, append_eos=False)
    assert tb.dec_in.tolist() == [[BOS_ID, 7, 8]]
    assert tb.targets.tolist() == [[7, 8, EOS_ID]]


def test_teacher_batch_truncates_overlong_response():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                      n_layers=1, d_proj=4, max_seq_len=8)
    tb = build_teacher_batch([list(range(7, 19))], cfg)
    assert tb.dec_in.shape[1] == cfg.max_seq_len
    assert tb.targets[0, -1] == EOS_ID


def test_teacher_batch_rejects_empty():
    cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, d_ff=16,
                      n_layers=1, d_proj=4, max_seq_len=8)
    with pytest.raises(ValueError):
        build_teacher_batch([], cfg)
    with pytest.raises(ValueError):
        build_teacher_batch([[]], cfg)


def test_uniform_model_ce_is_tokens_times_log_vocab():
    cfg = ModelConfig(vocab_size=7, d_model=8, n_heads=2, d_ff=16,
                      n_layers=1, d_proj=4, max_seq_len=12)
    params = init_params(cfg, seed=1, dtype=np.float64)
    params["out.w"].data[:] = 0.0  # logits all zero -> uniform distribution
    hidden, _ = encode_mean_pool(params, cfg, [[6, 6]])
    ce = sequence_ce(params, cfg, hidden, build_teacher_batch([[6, 6]], cfg))
    assert ce.data[0] == pytest.approx(3 * math.log(7), rel=1e-12)


def test_sequence_ce_matches_stepwise_decode_probs(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 3)
    hidden, _ = encode_mean_pool(params, cfg, src)
    tb = build_teacher_batch(resp, cfg)
    per_seq = sequence_ce(params, cfg, hidden, tb).data
    for i, r in enumerate(resp):
        hid_i, _ = encode_mean_pool(params, cfg, [src[i]])
        want, prefix = 0.0, [BOS_ID]
        for tok in r + [EOS_ID]:
            probs = decode_next(params, cfg, hid_i, prefix)
            want -= math.log(probs[tok])
            prefix.append(tok)
        assert per_seq[i] == pytest.approx(want, rel=1e-10)


def test_sequence_ce_ignores_padded_positions(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 4)
    hidden, _ = encode_mean_pool(params, cfg, src)
    batched = sequence_ce(params, cfg, hidden,
                          build_teacher_batch(resp, cfg)).data
    for i in range(4):
        hid_i, _ = encode_mean_pool(params, cfg, [src[i]])
        alone = sequence_ce(params, cfg, hid_i,
                            build_teacher_batch([resp[i]], cfg)).data[0]
        assert batched[i] == pytest.approx(alone, rel=1e-10)


def test_warmup_step_descends_and_respects_subset(small_world):
    # the warm-up update: pg_step with alpha 0 and no rollouts
    corpus, vocab, cfg, params, cache = small_world
    local = clone_params(params)
    src, resp = batch_inputs(corpus, vocab, cfg, 6)
    frozen = [n for n in local if n.startswith(("psi_d.", "psi_m."))]
    before = params_fingerprint(local, frozen)
    opt = ad.Adam(param_subset(local, "generator"), lr=1e-3)
    losses = [pg_step(local, cfg, src, resp, None, None, 0.0, opt).ce
              for _ in range(6)]
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]
    assert params_fingerprint(local, frozen) == before


# ---------------------------------------------------------------------------
# rollouts: temperature-1 samples of each source


def test_rollouts_terminate_within_max_len(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, _ = batch_inputs(corpus, vocab, cfg, 2)
    hidden, _ = encode_mean_pool(params, cfg, src)
    tiled = tile_hidden(hidden, 3)
    # every row's copies sit next to each other
    np.testing.assert_array_equal(tiled.states.data[3:6],
                                  np.repeat(hidden.states.data[1:], 3, axis=0))
    np.testing.assert_array_equal(tiled.mask[:3],
                                  np.repeat(hidden.mask[:1], 3, axis=0))
    outs = sample_batch(params, cfg, tiled, rng=np.random.default_rng(1),
                        max_len=20)
    assert len(outs) == 6
    for seq in outs:
        assert len(seq) <= 20 and (seq[-1] == EOS_ID or len(seq) == 20)
        assert PAD_ID not in seq and BOS_ID not in seq


def test_tiled_copies_pass_their_gradient_to_the_rows_they_repeat():
    rng = np.random.default_rng(2)
    states = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w = rng.normal(size=(6, 4, 3))
    tiled = tile_hidden(Hidden(states, np.ones((2, 4))), 3)
    ad.backward(ad.tsum(tiled.states * Tensor(w)))
    np.testing.assert_allclose(states.grad, w.reshape(2, 3, 4, 3).sum(axis=1),
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# policy gradient


def fresh_rollouts(params, cfg, src, n, seed):
    hidden, _ = encode_mean_pool(params, cfg, [src])
    return sample_batch(params, cfg, tile_hidden(hidden, n),
                        rng=np.random.default_rng(seed), max_len=12)


def rollout_block(params, cfg, src, n, seed):
    """n rollouts per source in one flat block, source after source."""
    return [seq for i, s in enumerate(src)
            for seq in fresh_rollouts(params, cfg, s, n, seed + i)]


def test_pg_equal_rewards_reduce_to_ce_update(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 3)
    rolls = rollout_block(params, cfg, src, 2, 0)
    # 0.5 is exactly representable, so reward - mean(reward) is exactly zero
    rewards = np.full(6, 0.5)

    a = clone_params(params)
    opt_a = ad.Adam(param_subset(a, "generator"), lr=1e-3)
    rep = pg_step(a, cfg, src, resp, rolls, rewards, alpha=0.5, opt=opt_a)
    b = clone_params(params)
    opt_b = ad.Adam(param_subset(b, "generator"), lr=1e-3)
    pg_step(b, cfg, src, resp, None, None, alpha=0.0, opt=opt_b)

    assert rep.pg == pytest.approx(0.0, abs=1e-15)
    for name in param_subset(a, "generator"):
        assert np.array_equal(a[name].data, b[name].data), name


def test_pg_report_is_internally_consistent(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 2)
    rolls = rollout_block(params, cfg, src, 3, 10)
    rewards = np.array([0.9, 0.2, 0.4, 0.1, 0.8, 0.5])
    local = clone_params(params)
    opt = ad.Adam(param_subset(local, "generator"), lr=1e-3)
    rep = pg_step(local, cfg, src, resp, rolls, rewards, alpha=0.5, opt=opt)
    assert rep.fused == pytest.approx(rep.ce + 0.5 * rep.pg, rel=1e-12)


def test_pg_requires_aligned_rollouts(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 2)
    local = clone_params(params)
    opt = ad.Adam(param_subset(local, "generator"), lr=1e-3)
    with pytest.raises(ValueError):
        pg_step(local, cfg, src, resp, [], [], alpha=0.5, opt=opt)
    rolls = rollout_block(params, cfg, src, 2, 0)
    # three rollouts for two sources is no whole number per source
    with pytest.raises(ValueError, match="per source"):
        pg_step(local, cfg, src, resp, rolls[:3], np.ones(3), alpha=0.5,
                opt=opt)
    with pytest.raises(ValueError, match="align"):
        pg_step(local, cfg, src, resp, rolls, np.array([1.0, 0.0]),
                alpha=0.5, opt=opt)
    with pytest.raises(ValueError, match="align"):
        pg_step(local, cfg, src, resp, rolls, None, alpha=0.5, opt=opt)


def test_pg_moves_probability_toward_rewarded_rollout(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 1)
    local = clone_params(params)
    rolls = fresh_rollouts(local, cfg, src[0], 2, 99)
    if rolls[0] == rolls[1]:  # need two distinct behaviours
        rolls = fresh_rollouts(local, cfg, src[0], 2, 98)
    assert rolls[0] != rolls[1]

    def logps(p):
        with ad.no_grad():
            hid, _ = encode_mean_pool(p, cfg, [src[0], src[0]])
            tb = build_teacher_batch(rolls, cfg, append_eos=False)
            return -sequence_ce(p, cfg, hid, tb).data

    before = logps(local)
    opt = ad.Adam(param_subset(local, "generator"), lr=1e-2)
    pg_step(local, cfg, src, resp, rolls, np.array([1.0, 0.0]),
            alpha=5.0, opt=opt)
    after = logps(local)
    assert after[0] - before[0] > after[1] - before[1]


# ---------------------------------------------------------------------------
# knowledge splicing


def test_splice_basic_join():
    assert splice_knowledge([10, 11], [20, 21], 16) == [10, 11, SEP_ID, 20, 21]


def test_splice_without_knowledge_is_identity():
    assert splice_knowledge([10, 11, 12], None, 16) == [10, 11, 12]
    assert splice_knowledge([10, 11, 12], [], 16) == [10, 11, 12]


def test_splice_cuts_knowledge_tail_keeps_query():
    assert splice_knowledge([10, 11, 12], [20, 21, 22, 23, 24], 6) == \
        [10, 11, 12, SEP_ID, 20, 21]


def test_splice_query_filling_budget_unchanged():
    assert splice_knowledge([10, 11, 12], [20, 21], 3) == [10, 11, 12]
    # no room after SEP
    assert splice_knowledge([10, 11, 12], [20, 21], 4) == [10, 11, 12]
    assert splice_knowledge([10, 11, 12, 13, 14], [20], 3) == \
        [10, 11, 12, 13, 14]


def test_splice_equals_encoding_the_spliced_text(small_world):
    # splicing ids gives the ids of the text "query [SEP] knowledge",
    # cut at the same budget
    corpus, vocab, cfg, params, cache = small_world
    for pair, entry in zip(corpus.train[:5], corpus.pool.entries):
        q, k = pair.query, entry.response
        for budget in (4, 9, 32):
            ids = splice_knowledge(encode_text(q, vocab, budget),
                                   encode_text(k, vocab), budget)
            text = " ".join([q, "[SEP]", k])
            if len(q.split()) + 1 >= budget:
                text = q
            assert ids == encode_text(text, vocab, budget)
    assert SEP_ID in ids


def test_splice_rejects_bad_budget():
    with pytest.raises(ValueError):
        splice_knowledge([10], [20], 0)


_IDS = st.lists(st.integers(6, 40), max_size=8)


@given(q=_IDS, k=_IDS, budget=st.integers(1, 20))
def test_splice_keeps_query_whole_within_budget(q, k, budget):
    out = splice_knowledge(q, k, budget)
    assert out[:len(q)] == q
    if out == q:
        # nothing spliced: no knowledge, or no room for a token of it
        assert not k or budget <= len(q) + 1
    else:
        assert len(out) == min(budget, len(q) + 1 + len(k))
        assert out[len(q)] == SEP_ID
        assert out[len(q) + 1:] == k[:len(out) - len(q) - 1]


# ---------------------------------------------------------------------------
# candidate generation


def test_generate_candidates_counts_and_sources(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[0].query
    [(gen, retr)], pooled = generate_candidates(
        params, cfg, vocab, [q], cache, m=4, n=3, kg=True,
        rngs=[np.random.default_rng(3)], max_gen_len=12)
    assert len(gen) == 3 and len(retr) == 4
    # the source is the query's ids spliced with its top pool response's
    q_ids = encode_text(q, vocab, cfg.max_seq_len)
    [src] = knowledge_sources([q_ids], [retr], cache, True, cfg.max_seq_len)
    assert SEP_ID in src
    assert src == splice_knowledge(q_ids, cache.resp_ids[retr[0]],
                                   cfg.max_seq_len)
    with ad.no_grad():
        # the greedy candidate is decoded from that source
        hidden, _ = encode_mean_pool(params, cfg, [src])
        assert gen[0] == sample_batch(params, cfg, hidden, max_len=12)[0]
        # the query's pooled row from the shared encoder comes back with it
        _, want = encode_mean_pool(params, cfg, [q_ids])
    np.testing.assert_array_equal(pooled.data, want.data)


def test_generate_candidates_kg_off_uses_bare_query(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[0].query
    [(gen, retr)], _ = generate_candidates(
        params, cfg, vocab, [q], cache, m=4, n=1, kg=False, max_gen_len=12)
    assert len(retr) == 4  # retrieval still runs for the rerank stage
    q_ids = encode_text(q, vocab, cfg.max_seq_len)
    assert knowledge_sources([q_ids], [retr], cache, False,
                             cfg.max_seq_len) == [q_ids]
    with ad.no_grad():
        hidden, _ = encode_mean_pool(params, cfg, [q_ids])
        assert gen == sample_batch(params, cfg, hidden, max_len=12)


def test_generate_candidates_greedy_head_deterministic(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[1].query
    [(g1, _)], _ = generate_candidates(params, cfg, vocab, [q], cache,
                                       m=2, n=3, kg=True, max_gen_len=12,
                                       rngs=[np.random.default_rng(4)])
    [(g2, _)], _ = generate_candidates(params, cfg, vocab, [q], cache,
                                       m=2, n=3, kg=True, max_gen_len=12,
                                       rngs=[np.random.default_rng(5)])
    assert g1[0] == g2[0]  # greedy head ignores the rng


def test_generate_candidates_m_zero_skips_retrieval(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[2].query
    [(gen, retr)], pooled = generate_candidates(
        params, cfg, vocab, [q], cache, m=0, n=2, kg=True, max_gen_len=12,
        rngs=[np.random.default_rng(6)])
    assert retr == [] and len(gen) == 2
    # nothing retrieved, nothing spliced
    q_ids = encode_text(q, vocab, cfg.max_seq_len)
    assert knowledge_sources([q_ids], [retr], cache, True,
                             cfg.max_seq_len) == [q_ids]
    # the re-ranker still needs the query's row
    assert pooled.data.shape == (1, cfg.d_model)


def test_generate_candidates_guards(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[0].query
    with pytest.raises(ValueError):
        generate_candidates(params, cfg, vocab, [q], cache, m=0, n=0,
                            kg=False, max_gen_len=12)
    with pytest.raises(ValueError):
        generate_candidates(params, cfg, vocab, [q], cache, m=1, n=2,
                            kg=False, max_gen_len=12)  # n > 1 without rng
    with pytest.raises(ValueError):
        generate_candidates(params, cfg, vocab, [q, q], cache, m=1, n=2,
                            kg=False, max_gen_len=12,
                            rngs=[np.random.default_rng(0)])  # one short


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("shared", [True, False])
def test_generate_candidates_chunk_equals_per_query(small_world, n, shared):
    # one chunk call draws what query-by-query calls draw, in query order
    corpus, vocab, cfg, params, cache = small_world
    queries = [splice_context(p) for p in corpus.test[:6]]

    def rngs():
        if shared:
            return [np.random.default_rng(8)] * len(queries)
        return [np.random.default_rng([8, i]) for i in range(len(queries))]

    chunk, chunk_rows = generate_candidates(
        params, cfg, vocab, queries, cache, m=3, n=n, kg=True, rngs=rngs(),
        max_gen_len=10)
    one, one_rows = zip(*(generate_candidates(
        params, cfg, vocab, [q], cache, m=3, n=n, kg=True, rngs=[rng],
        max_gen_len=10) for q, rng in zip(queries, rngs())))
    assert len(chunk) == len(queries)
    for (g_c, r_c), [(g_1, r_1)] in zip(chunk, one):
        assert g_c == g_1 and r_c == r_1
    # each query's source is its own splice, whatever else the chunk holds
    q_ids = [encode_text(q, vocab, cfg.max_seq_len) for q in queries]
    retrieved = [r for _, r in chunk]
    assert knowledge_sources(q_ids, retrieved, cache, True,
                             cfg.max_seq_len) == [
        splice_knowledge(q, cache.resp_ids[r[0]], cfg.max_seq_len)
        for q, r in zip(q_ids, retrieved)]
    np.testing.assert_allclose(
        chunk_rows.data, np.concatenate([r.data for r in one_rows]),
        rtol=1e-12, atol=1e-12)
