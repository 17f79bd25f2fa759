"""Discriminator hinge-loss and training-step tests."""

import numpy as np
import pytest

from heronet import autodiff as ad
from heronet.autodiff import Tensor
from heronet.corpus import (build_vocab, encode_text,
                            generate_synthetic_corpus, splice_context)
from heronet.discriminator import disc_step, hinge_loss, score_pairs
from heronet.generation import pg_step
from heronet.model import (ModelConfig, encode_mean_pool, init_params,
                           param_subset, params_fingerprint, sample_batch,
                           tile_hidden)
from heronet.retrieval import build_pool_cache, retrieve_top_m_batch

from helpers import clone_params, pair_match_logit, psi_m_inputs


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


def disc_batch(corpus, vocab, cfg, params, cache, b=4, m=3, n=2, seed=0):
    """b anchors with flat blocks of m retrieved and n generated negatives."""
    rng = np.random.default_rng(seed)
    queries, positives, retrieved, generated = [], [], [], []
    for pair in corpus.train[:b]:
        q = encode_text(pair.query, vocab, cfg.max_seq_len)
        queries.append(q)
        positives.append(encode_text(pair.response, vocab))
        [ids] = retrieve_top_m_batch(params, cfg, [q], cache, m)
        retrieved += [list(cache.resp_ids[j]) for j in ids]
        with ad.no_grad():
            hidden, _ = encode_mean_pool(params, cfg, [q])
        generated += sample_batch(params, cfg, tile_hidden(hidden, n),
                                  rng=rng, max_len=10)
    return queries, positives, retrieved, generated


# ---------------------------------------------------------------------------
# loss oracles


def test_hinge_first_term_hand_value():
    loss = hinge_loss(Tensor(np.array([0.6])), Tensor(np.array([[0.4]])),
                      Tensor(np.array([[0.0]])), delta1=0.5, delta2=0.5,
                      reg_lambda=0.0, theta=[])
    assert loss.item() == pytest.approx(0.3, rel=1e-12)


def test_hinge_regularizer_hand_value():
    # both hinge terms satisfied; only lambda * (3^2 + 4^2) remains
    theta = [Tensor(np.array([3.0])), Tensor(np.array([4.0]))]
    loss = hinge_loss(Tensor(np.array([0.9])), Tensor(np.array([[0.1]])),
                      Tensor(np.array([[0.1]])), delta1=0.5, delta2=0.5,
                      reg_lambda=0.01, theta=theta)
    assert loss.item() == pytest.approx(0.25, rel=1e-12)


def test_hinge_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        b, m, n = (int(rng.integers(1, 4)) for _ in range(3))
        s_pos = rng.random(b)
        s_ret = rng.random((b, m))
        s_gen = rng.random((b, n))
        d1, d2, lam = rng.random(), rng.random(), float(rng.random() * 0.1)
        theta = [Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(2))]
        want = np.mean([max(0.0, d1 - s_pos[i] + s_ret[i].mean())
                        + max(0.0, d2 - s_pos[i] + s_gen[i].mean())
                        for i in range(b)])
        want += lam * sum(float((t.data ** 2).sum()) for t in theta)
        got = hinge_loss(Tensor(s_pos), Tensor(s_ret), Tensor(s_gen),
                         d1, d2, lam, theta).item()
        assert got == pytest.approx(want, rel=1e-12)


def test_hinge_never_below_regularizer():
    rng = np.random.default_rng(2)
    for _ in range(50):
        theta = [Tensor(rng.standard_normal(4))]
        lam = 1e-3
        floor = lam * float((theta[0].data ** 2).sum())
        loss = hinge_loss(Tensor(rng.random(2)), Tensor(rng.random((2, 3))),
                          Tensor(rng.random((2, 2))), 0.5, 0.5, lam, theta)
        assert loss.item() >= floor - 1e-15


def test_hinge_monotone_in_positive_score():
    s_ret = Tensor(np.array([[0.5, 0.6]]))
    s_gen = Tensor(np.array([[0.4]]))
    losses = [hinge_loss(Tensor(np.array([s])), s_ret, s_gen, 0.5, 0.5,
                         0.0, []).item() for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))


def test_hinge_rejects_empty_negative_sets():
    pos = Tensor(np.array([0.5]))
    with pytest.raises(ValueError):
        hinge_loss(pos, Tensor(np.zeros((1, 0))), Tensor(np.ones((1, 1))),
                   0.5, 0.5, 0.0, [])
    with pytest.raises(ValueError):
        hinge_loss(pos, Tensor(np.ones((1, 1))), Tensor(np.zeros((1, 0))),
                   0.5, 0.5, 0.0, [])


# ---------------------------------------------------------------------------
# scoring helper


def test_score_pairs_matches_match_score(small_world):
    corpus, vocab, cfg, params, cache = small_world
    qs = [encode_text(p.query, vocab) for p in corpus.train[:3]]
    rs = [encode_text(p.response, vocab) for p in corpus.train[:3]]
    got = score_pairs(params, cfg, qs, rs)
    for i in range(3):
        with ad.no_grad():
            _, eq = encode_mean_pool(params, cfg, [qs[i]])
            _, er = encode_mean_pool(params, cfg, [rs[i]])
            want = ad.sigmoid(pair_match_logit(params, eq, er)).data[0]
        assert got[i] == pytest.approx(want, rel=1e-12)
    assert np.all((got > 0) & (got < 1))


def test_score_pairs_rejects_misaligned(small_world):
    corpus, vocab, cfg, params, cache = small_world
    with pytest.raises(ValueError):
        score_pairs(params, cfg, [[7, 8]], [])


# ---------------------------------------------------------------------------
# training step


def test_disc_step_decreases_loss_on_fixed_batch(small_world):
    corpus, vocab, cfg, params, cache = small_world
    local = clone_params(params)
    batch = disc_batch(corpus, vocab, cfg, local, cache)
    opt = ad.Adam(param_subset(local, "disc"), lr=1e-3)
    losses = [disc_step(local, cfg, *batch, 0.5, 0.5, 1e-4, opt)
              for _ in range(6)]
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]


def test_disc_step_freezes_decoder_and_sqd_head(small_world):
    corpus, vocab, cfg, params, cache = small_world
    local = clone_params(params)
    frozen = [k for k in local if k.startswith(("dec.", "out.", "psi_d."))]
    before = params_fingerprint(local, frozen)
    batch = disc_batch(corpus, vocab, cfg, local, cache)
    opt = ad.Adam(param_subset(local, "disc"), lr=1e-2)
    disc_step(local, cfg, *batch, 0.5, 0.5, 1e-4, opt)
    assert params_fingerprint(local, frozen) == before
    assert params_fingerprint(local, ["psi_m.w_m"]) != \
        params_fingerprint(params, ["psi_m.w_m"])


def test_disc_step_widens_margin_over_twenty_steps(small_world):
    corpus, vocab, cfg, params, cache = small_world
    local = clone_params(params)
    queries, positives, retrieved, generated = disc_batch(
        corpus, vocab, cfg, local, cache, b=4, m=3, n=2, seed=5)

    def mean_margin():
        margins = []
        for i, (q, p) in enumerate(zip(queries, positives)):
            s_pos = score_pairs(local, cfg, [q], [p])[0]
            negs = retrieved[3 * i:3 * i + 3] + generated[2 * i:2 * i + 2]
            s_neg = score_pairs(local, cfg, [q] * len(negs), negs)
            margins.append(s_pos - s_neg.max())
        return float(np.mean(margins))

    opt = ad.Adam(param_subset(local, "disc"), lr=1e-3)
    history = [mean_margin()]
    for _ in range(20):
        disc_step(local, cfg, queries, positives, retrieved, generated,
                  0.5, 0.5, 1e-4, opt)
        history.append(mean_margin())
    ups = sum(b > a for a, b in zip(history, history[1:]))
    assert ups >= 15
    assert history[-1] > history[0]


def test_disc_step_rejects_ragged_groups(small_world):
    corpus, vocab, cfg, params, cache = small_world
    local = clone_params(params)
    queries, positives, retrieved, generated = disc_batch(
        corpus, vocab, cfg, local, cache, b=2)
    opt = ad.Adam(param_subset(local, "disc"), lr=1e-3)
    for ret, gen in ((retrieved[:-1], generated), (retrieved, generated[:-1]),
                     ([], generated), (retrieved, [])):
        with pytest.raises(ValueError):
            disc_step(local, cfg, queries, positives, ret, gen,
                      0.5, 0.5, 1e-4, opt)


def test_disc_step_projects_each_distinct_row_once(small_world, monkeypatch):
    corpus, vocab, cfg, params, cache = small_world
    local = clone_params(params)
    queries, positives, retrieved, generated = disc_batch(
        corpus, vocab, cfg, local, cache)
    # a repeated negative and a query reused as a negative
    retrieved[1] = retrieved[0]
    generated[0] = queries[2]
    distinct = {tuple(s) for s in queries + positives + retrieved + generated}
    seen = psi_m_inputs(local, monkeypatch)
    opt = ad.Adam(param_subset(local, "disc"), lr=1e-3)
    disc_step(local, cfg, queries, positives, retrieved, generated,
              0.5, 0.5, 1e-4, opt)
    [rows] = seen
    assert len(rows) == len(distinct)
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_alternating_adversarial_steps_stay_finite(small_world):
    """A compressed generator/discriminator duel never goes non-finite."""
    corpus, vocab, cfg, params, cache = small_world
    local = clone_params(params)
    rng = np.random.default_rng(9)
    pairs = corpus.train[:2]
    src = [encode_text(splice_context(p), vocab, cfg.max_seq_len)
           for p in pairs]
    resp = [encode_text(p.response, vocab) for p in pairs]
    g_opt = ad.Adam(param_subset(local, "generator"), lr=1e-3)
    d_opt = ad.Adam(param_subset(local, "disc"), lr=1e-3)
    for _ in range(60):
        with ad.no_grad():
            hid, _ = encode_mean_pool(local, cfg, src)
        rolls = sample_batch(local, cfg, tile_hidden(hid, 2), rng=rng,
                             max_len=8)
        rewards = score_pairs(local, cfg, [s for s in src for _ in range(2)],
                              rolls)
        rep = pg_step(local, cfg, src, resp, rolls, rewards, alpha=0.5,
                      opt=g_opt)
        assert np.isfinite([rep.ce, rep.pg, rep.fused]).all()
        retrieved = [list(cache.resp_ids[j])
                     for ids in retrieve_top_m_batch(local, cfg, src, cache, 2)
                     for j in ids]
        d_loss = disc_step(local, cfg, src, resp, retrieved, rolls,
                           0.5, 0.5, 1e-4, d_opt)
        assert np.isfinite(d_loss)
