"""Generator training tests: warm-up CE, rollouts, policy gradient, splicing."""

import math

import numpy as np
import pytest
from scipy import stats

from heronet import autodiff as ad
from heronet.autodiff import Tensor
from heronet.corpus import (BOS_ID, EOS_ID, PAD_ID, SEP_ID, build_vocab,
                            encode_text, generate_synthetic_corpus,
                            splice_context)
from heronet.generation import (GenLossReport, build_teacher_batch,
                                generate_candidates, mc_rollouts, pg_step,
                                sequence_ce, splice_knowledge, warmup_loss,
                                warmup_step)
from heronet.model import (ModelConfig, clone_params, decode_next,
                           encode_mean_pool, init_params, param_subset,
                           params_fingerprint)
from heronet.retrieval import build_pool_cache


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
    assert np.array_equal(tb.dec_mask, tb.tgt_mask)


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
    loss = warmup_loss(params, cfg, [[6, 6]], [[6, 6]])
    assert loss.item() == pytest.approx(3 * math.log(7), rel=1e-12)


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
    corpus, vocab, cfg, params, cache = small_world
    local = clone_params(params)
    src, resp = batch_inputs(corpus, vocab, cfg, 6)
    frozen = [n for n in local if n.startswith(("psi_d.", "psi_m."))]
    before = params_fingerprint(local, frozen)
    opt = ad.Adam(param_subset(local, "warmup"), lr=1e-3)
    losses = [warmup_step(local, cfg, src, resp, opt) for _ in range(6)]
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]
    assert params_fingerprint(local, frozen) == before


# ---------------------------------------------------------------------------
# rollouts


def test_rollouts_eos_prefix_returns_copies(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, _ = batch_inputs(corpus, vocab, cfg, 1)
    hidden, _ = encode_mean_pool(params, cfg, src)
    prefix = [9, 10, EOS_ID]
    outs = mc_rollouts(params, cfg, hidden, prefix, n=4,
                       rng=np.random.default_rng(0))
    assert outs == [prefix] * 4
    assert outs[0] is not outs[1]  # independent copies


def test_rollouts_terminate_and_extend_prefix(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, _ = batch_inputs(corpus, vocab, cfg, 1)
    hidden, _ = encode_mean_pool(params, cfg, src)
    prefix = [9, 10]
    outs = mc_rollouts(params, cfg, hidden, prefix, n=6,
                       rng=np.random.default_rng(1), max_len=20)
    assert len(outs) == 6
    for seq in outs:
        assert seq[:2] == prefix
        assert seq[-1] == EOS_ID or len(seq) <= 20
        assert PAD_ID not in seq and BOS_ID not in seq


def test_rollouts_seeded_reproducibility(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, _ = batch_inputs(corpus, vocab, cfg, 1)
    hidden, _ = encode_mean_pool(params, cfg, src)
    a = mc_rollouts(params, cfg, hidden, [], 5, np.random.default_rng(7))
    b = mc_rollouts(params, cfg, hidden, [], 5, np.random.default_rng(7))
    assert a == b


def test_rollouts_first_token_matches_decoder_distribution(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, _ = batch_inputs(corpus, vocab, cfg, 1)
    hidden, _ = encode_mean_pool(params, cfg, src)
    probs = decode_next(params, cfg, hidden, [BOS_ID]).copy()
    probs[PAD_ID] = probs[BOS_ID] = 0.0
    probs /= probs.sum()
    draws = 600
    outs = mc_rollouts(params, cfg, hidden, [], draws,
                       np.random.default_rng(2), max_len=1)
    counts = np.zeros(cfg.vocab_size)
    for seq in outs:
        counts[seq[0]] += 1
    # the distribution is near-uniform over a large vocabulary, so pool
    # consecutive token ids into bins of expected count >= 10
    obs, exp, o_acc, e_acc = [], [], 0.0, 0.0
    for t in range(cfg.vocab_size):
        o_acc += counts[t]
        e_acc += probs[t] * draws
        if e_acc >= 10.0:
            obs.append(o_acc)
            exp.append(e_acc)
            o_acc = e_acc = 0.0
    obs[-1] += o_acc
    exp[-1] += e_acc
    p = stats.chisquare(obs, exp).pvalue
    assert p > 0.01


def test_rollouts_reject_bad_n(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, _ = batch_inputs(corpus, vocab, cfg, 1)
    hidden, _ = encode_mean_pool(params, cfg, src)
    with pytest.raises(ValueError):
        mc_rollouts(params, cfg, hidden, [], 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# policy gradient


def fresh_rollouts(params, cfg, src, n, seed):
    hidden, _ = encode_mean_pool(params, cfg, [src])
    return mc_rollouts(params, cfg, hidden, [], n,
                       np.random.default_rng(seed), max_len=12)


def test_pg_equal_rewards_reduce_to_ce_update(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 3)
    rolls = [fresh_rollouts(params, cfg, s, 2, i) for i, s in enumerate(src)]
    # 0.5 is exactly representable, so reward - mean(reward) is exactly zero
    rewards = [np.array([0.5, 0.5])] * 3

    a = clone_params(params)
    opt_a = ad.Adam(param_subset(a, "generator"), lr=1e-3)
    rep = pg_step(a, cfg, src, resp, rolls, rewards, alpha=0.5, opt=opt_a)
    b = clone_params(params)
    opt_b = ad.Adam(param_subset(b, "generator"), lr=1e-3)
    pg_step(b, cfg, src, resp, None, None, alpha=0.0, opt=opt_b)

    assert rep.pg == pytest.approx(0.0, abs=1e-15)
    for name in param_subset(a, "generator"):
        assert np.array_equal(a[name].data, b[name].data), name


def test_pg_alpha_zero_equals_warmup_step(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 4)
    a = clone_params(params)
    opt_a = ad.Adam(param_subset(a, "generator"), lr=1e-3)
    rep = pg_step(a, cfg, src, resp, None, None, alpha=0.0, opt=opt_a)
    b = clone_params(params)
    opt_b = ad.Adam(param_subset(b, "generator"), lr=1e-3)
    ce = warmup_step(b, cfg, src, resp, opt_b)
    assert rep.ce == pytest.approx(ce, rel=1e-15)
    assert rep.fused == rep.ce and rep.pg == 0.0
    for name in param_subset(a, "generator"):
        assert np.array_equal(a[name].data, b[name].data), name


def test_pg_report_is_internally_consistent(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 2)
    rolls = [fresh_rollouts(params, cfg, s, 3, 10 + i)
             for i, s in enumerate(src)]
    rewards = [np.array([0.9, 0.2, 0.4]), np.array([0.1, 0.8, 0.5])]
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
    rolls = [fresh_rollouts(params, cfg, s, 2, i) for i, s in enumerate(src)]
    with pytest.raises(ValueError):
        pg_step(local, cfg, src, resp, rolls, [np.array([1.0, 0.0])],
                alpha=0.5, opt=opt)
    with pytest.raises(ValueError):
        pg_step(local, cfg, src, resp, rolls,
                [np.array([1.0]), np.array([0.0])], alpha=0.5, opt=opt)


def test_pg_moves_probability_toward_rewarded_rollout(small_world):
    corpus, vocab, cfg, params, cache = small_world
    src, resp = batch_inputs(corpus, vocab, cfg, 1)
    local = clone_params(params)
    rolls = [fresh_rollouts(local, cfg, src[0], 2, 99)]
    if rolls[0][0] == rolls[0][1]:  # need two distinct behaviours
        rolls = [fresh_rollouts(local, cfg, src[0], 2, 98)]
    assert rolls[0][0] != rolls[0][1]

    def logps(p):
        with ad.no_grad():
            hid, _ = encode_mean_pool(p, cfg, [src[0], src[0]])
            tb = build_teacher_batch(rolls[0], cfg, append_eos=False)
            return -sequence_ce(p, cfg, hid, tb).data

    before = logps(local)
    opt = ad.Adam(param_subset(local, "generator"), lr=1e-2)
    pg_step(local, cfg, src, resp, rolls, [np.array([1.0, 0.0])],
            alpha=5.0, opt=opt)
    after = logps(local)
    assert after[0] - before[0] > after[1] - before[1]


# ---------------------------------------------------------------------------
# knowledge splicing


def test_splice_basic_join():
    assert splice_knowledge("a b", "k1 k2", 16) == "a b [SEP] k1 k2"


def test_splice_without_knowledge_is_identity():
    assert splice_knowledge("a b c", None, 16) == "a b c"
    assert splice_knowledge("a b c", "", 16) == "a b c"


def test_splice_cuts_knowledge_tail_keeps_query():
    assert splice_knowledge("a b c", "k1 k2 k3 k4 k5", 6) == "a b c [SEP] k1 k2"


def test_splice_query_filling_budget_unchanged():
    assert splice_knowledge("a b c", "k1 k2", 3) == "a b c"
    assert splice_knowledge("a b c", "k1 k2", 4) == "a b c"  # no room after SEP
    assert splice_knowledge("a b c d e", "k1", 3) == "a b c d e"


def test_splice_separator_round_trips_through_vocab(small_world):
    corpus, vocab, cfg, params, cache = small_world
    text = splice_knowledge(corpus.train[0].query,
                            corpus.pool.entries[0].response, 32)
    ids = encode_text(text, vocab)
    assert SEP_ID in ids


def test_splice_rejects_bad_budget():
    with pytest.raises(ValueError):
        splice_knowledge("a", "k", 0)


# ---------------------------------------------------------------------------
# candidate generation


def test_generate_candidates_counts_and_sources(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[0].query
    [(gen, retr, src)] = generate_candidates(
        params, cfg, vocab, [q], corpus.pool, cache, m=4, n=3, kg=True,
        rngs=[np.random.default_rng(3)], max_gen_len=12)
    assert len(gen) == 3 and len(retr) == 4
    assert "[SEP]" in src and src.startswith(q)
    assert retr[0].response in src


def test_generate_candidates_kg_off_uses_bare_query(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[0].query
    [(_, retr, src)] = generate_candidates(
        params, cfg, vocab, [q], corpus.pool, cache, m=4, n=1, kg=False)
    assert src == q
    assert len(retr) == 4  # retrieval still runs for the rerank stage


def test_generate_candidates_greedy_head_deterministic(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[1].query
    [(g1, _, _)] = generate_candidates(params, cfg, vocab, [q], corpus.pool,
                                       cache, m=2, n=3, kg=True,
                                       rngs=[np.random.default_rng(4)])
    [(g2, _, _)] = generate_candidates(params, cfg, vocab, [q], corpus.pool,
                                       cache, m=2, n=3, kg=True,
                                       rngs=[np.random.default_rng(5)])
    assert g1[0] == g2[0]  # greedy head ignores the rng


def test_generate_candidates_m_zero_skips_retrieval(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[2].query
    [(gen, retr, src)] = generate_candidates(
        params, cfg, vocab, [q], corpus.pool, cache, m=0, n=2, kg=True,
        rngs=[np.random.default_rng(6)])
    assert retr == [] and src == q and len(gen) == 2


def test_generate_candidates_guards(small_world):
    corpus, vocab, cfg, params, cache = small_world
    q = corpus.test[0].query
    with pytest.raises(ValueError):
        generate_candidates(params, cfg, vocab, [q], corpus.pool, cache,
                            m=0, n=0, kg=False)
    with pytest.raises(ValueError):
        generate_candidates(params, cfg, vocab, [q], corpus.pool, cache,
                            m=1, n=2, kg=False)  # n > 1 without rng
    with pytest.raises(ValueError):
        generate_candidates(params, cfg, vocab, [q, q], corpus.pool, cache,
                            m=1, n=2, kg=False,
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

    chunk = generate_candidates(params, cfg, vocab, queries, corpus.pool,
                                cache, m=3, n=n, kg=True, rngs=rngs(),
                                max_gen_len=10)
    one = [generate_candidates(params, cfg, vocab, [q], corpus.pool, cache,
                               m=3, n=n, kg=True, rngs=[rng],
                               max_gen_len=10)[0]
           for q, rng in zip(queries, rngs())]
    assert len(chunk) == len(queries)
    for (g_c, r_c, s_c), (g_1, r_1, s_1) in zip(chunk, one):
        assert g_c == g_1 and s_c == s_1
        assert [c.pool_id for c in r_c] == [c.pool_id for c in r_1]
