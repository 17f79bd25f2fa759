"""Retrieval training and two-stage inference tests."""

import math
import warnings

import numpy as np
import pytest

from heronet import autodiff as ad
from heronet.autodiff import Tensor
from heronet.bm25 import Bm25Index
from heronet.corpus import (RESERVED, CandidatePool, PoolEntry, Vocab,
                            build_vocab, encode_text,
                            generate_synthetic_corpus)
from heronet.model import ModelConfig, adapter_apply, encode_mean_pool, init_params, match_score, param_subset
from heronet.retrieval import (MatchBatch, PoolCache, augment_query,
                               build_pool_cache, mine_qrm_batch,
                               mine_sqd_batch, pool_token_lists, qrm_bce,
                               qrm_step, retrieve_top_m, separation_ratio,
                               sqd_pool_distances, sqd_step)


@pytest.fixture(scope="module")
def small_world():
    corpus = generate_synthetic_corpus(seed=3, n_train=40, n_eval=10,
                                       pool_size=30)
    vocab = build_vocab(corpus, max_size=512)
    cfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16,
                      n_layers=2, d_proj=4, max_seq_len=32)
    params = init_params(cfg, seed=11, dtype=np.float64)
    cache = build_pool_cache(params, cfg, vocab, corpus.pool)
    bm25_q = Bm25Index(pool_token_lists(corpus.pool, vocab, "query"))
    return corpus, vocab, cfg, params, cache, bm25_q


def logit(p):
    return math.log(p / (1.0 - p))


# ---------------------------------------------------------------------------
# loss oracles


def test_qrm_bce_hand_values():
    z = Tensor(np.array([logit(0.8), logit(0.3), logit(0.1)]))
    y = np.array([1.0, 0.0, 0.0])
    want = -(math.log(0.8) + math.log(0.7) + math.log(0.9)) / 3.0
    assert qrm_bce(z, y).item() == pytest.approx(want, rel=1e-12)


def test_qrm_bce_uninformative_score_gives_log2():
    z = Tensor(np.zeros(4))
    y = np.array([1.0, 0.0, 1.0, 0.0])
    assert qrm_bce(z, y).item() == pytest.approx(math.log(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_rate_zero_is_identity():
    rng = np.random.default_rng(1)
    ids = [7, 8, 9, 10]
    for _ in range(5):
        assert augment_query(ids, rng, 0.0) == ids


def test_augment_preserves_token_multiset_subset():
    rng = np.random.default_rng(2)
    ids = [7, 8, 9, 10, 11, 12]
    for _ in range(200):
        out = augment_query(ids, rng, 0.3)
        assert 1 <= len(out) <= len(ids)
        assert sorted(out) == sorted(set(out) & set(ids)) or all(
            t in ids for t in out)


def test_augment_always_keeps_a_token():
    rng = np.random.default_rng(3)
    for _ in range(100):
        assert len(augment_query([5], rng, 0.9)) == 1


def test_augment_rejects_bad_rate():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        augment_query([5], rng, 1.0)


# ---------------------------------------------------------------------------
# SQD mining and step


def test_mine_sqd_negatives_match_bm25_oracle(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(4)
    queries = [p.query for p in corpus.train[:6]]
    batch = mine_sqd_batch(queries, corpus.pool, vocab, bm25_q, m=3, rng=rng,
                           word_dropout=0.0)
    for text, anchor, negs in zip(queries, batch.anchors, batch.negatives):
        assert anchor == encode_text(text, vocab)
        dup = [e.id for e in corpus.pool.entries if e.query == text]
        want = bm25_q.top_k(anchor, 3, exclude=dup)
        assert negs == [bm25_q.docs[j] for j in want]


def test_mine_sqd_rate_zero_positive_equals_anchor(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(5)
    queries = [p.query for p in corpus.train[:4]]
    batch = mine_sqd_batch(queries, corpus.pool, vocab, bm25_q, m=2, rng=rng,
                           word_dropout=0.0)
    assert batch.positives == batch.anchors


def test_mine_sqd_excludes_exact_duplicate_queries(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(6)
    entry = corpus.pool.entries[0]
    batch = mine_sqd_batch([entry.query], corpus.pool, vocab, bm25_q,
                           m=corpus.pool.size, rng=rng, word_dropout=0.0)
    own = encode_text(entry.query, vocab)
    dup_ids = {e.id for e in corpus.pool.entries if e.query == entry.query}
    assert len(batch.negatives[0]) == corpus.pool.size - len(dup_ids)
    assert own not in batch.negatives[0]


def test_mine_sqd_cluster_ids_exclude_paraphrase_twins(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(40)
    # find a test pair whose pool twin is close enough to get mined
    hit = None
    for pair in corpus.test:
        twins = [bm25_q.docs[e.id] for e in corpus.pool.entries
                 if e.cluster_id == pair.cluster_id]
        assert twins  # every test pair has a paraphrase entry in the pool
        plain = mine_sqd_batch([pair.query], corpus.pool, vocab, bm25_q,
                               m=5, rng=rng, word_dropout=0.0)
        if any(neg in twins for neg in plain.negatives[0]):
            hit = (pair, twins)
            break
    assert hit is not None
    pair, twins = hit
    batch = mine_sqd_batch([pair.query], corpus.pool, vocab, bm25_q, m=5,
                           rng=rng, word_dropout=0.0,
                           clusters=[pair.cluster_id])
    assert all(neg not in twins for neg in batch.negatives[0])
    assert len(batch.negatives[0]) == 5  # ranks refill from further out


def test_mine_sqd_rejects_misaligned_clusters(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(41)
    with pytest.raises(ValueError, match="one-to-one"):
        mine_sqd_batch([corpus.train[0].query], corpus.pool, vocab, bm25_q,
                       m=2, rng=rng, clusters=[1, 2])


def test_mine_sqd_oversized_m_warns(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(7)
    with pytest.warns(UserWarning, match="pool size"):
        mine_sqd_batch([corpus.train[0].query], corpus.pool, vocab, bm25_q,
                       m=corpus.pool.size + 5, rng=rng)


def test_sqd_step_decreases_loss_on_fixed_batch(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    from heronet.model import clone_params
    local = clone_params(params)
    rng = np.random.default_rng(8)
    queries = [p.query for p in corpus.train[:8]]
    batch = mine_sqd_batch(queries, corpus.pool, vocab, bm25_q, m=4, rng=rng)
    opt = ad.Adam(param_subset(local, "sqd"), lr=1e-3)
    losses = [sqd_step(local, cfg, batch, margin=1.0, opt=opt)
              for _ in range(6)]
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]
    assert losses[1] <= losses[0] + 1e-6


def test_sqd_step_matches_per_triplet_hinge(small_world):
    """The deduplicated gather must score exactly like encoding each
    triplet's sequences on their own: mean over anchors of the sum over
    negatives of max(0, margin + d(a, p) - d(a, n))."""
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    from heronet.model import clone_params
    local = clone_params(params)
    rng = np.random.default_rng(10)
    queries = [p.query for p in corpus.train[:5]] + [corpus.train[0].query]
    batch = mine_sqd_batch(queries, corpus.pool, vocab, bm25_q, m=3, rng=rng)
    margin = 3.0

    def proj(seq):
        _, pooled = encode_mean_pool(local, cfg, [seq])
        return adapter_apply(local, "sqd", pooled).vec.data[0]

    with ad.no_grad():
        per_anchor = []
        for a, p, negs in zip(batch.anchors, batch.positives,
                              batch.negatives):
            d_pos = np.linalg.norm(proj(a) - proj(p))
            per_anchor.append(sum(
                max(0.0, margin + d_pos - np.linalg.norm(proj(a) - proj(n)))
                for n in negs))
    opt = ad.Adam(param_subset(local, "sqd"), lr=0.0)
    got = sqd_step(local, cfg, batch, margin=margin, opt=opt)
    assert got > 0.0
    assert got == pytest.approx(np.mean(per_anchor), rel=1e-9)


def test_sqd_step_encodes_each_distinct_sequence_once(small_world,
                                                      monkeypatch):
    from heronet import model
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rows = []
    encode = model.encode_mean_pool

    def spy(params, cfg, ids, mask=None, prefix=""):
        rows.extend(tuple(s) for s in ids)
        return encode(params, cfg, ids, mask, prefix)

    monkeypatch.setattr(model, "encode_mean_pool", spy)
    queries = [p.query for p in corpus.train[:4]] + [corpus.train[0].query]
    batch = mine_sqd_batch(queries, corpus.pool, vocab, bm25_q, m=4,
                           rng=np.random.default_rng(8), word_dropout=0.0)
    offered = batch.anchors + batch.positives + [
        n for g in batch.negatives for n in g]
    sqd_step(model.clone_params(params), cfg, batch, margin=1.0,
             opt=ad.Adam({}, lr=0.0))
    assert len(rows) == len(set(rows))
    assert set(rows) == {tuple(s) for s in offered}
    assert len(rows) < len(offered)


def test_sqd_step_touches_only_encoder_and_sqd_adapter(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    from heronet.model import clone_params, params_fingerprint
    local = clone_params(params)
    frozen = [n for n in local
              if n.startswith(("dec.", "out.", "psi_m."))]
    before = params_fingerprint(local, frozen)
    rng = np.random.default_rng(9)
    batch = mine_sqd_batch([corpus.train[0].query], corpus.pool, vocab,
                           bm25_q, m=3, rng=rng)
    opt = ad.Adam(param_subset(local, "sqd"), lr=1e-2)
    sqd_step(local, cfg, batch, margin=1.0, opt=opt)
    assert params_fingerprint(local, frozen) == before
    assert params_fingerprint(local, ["psi_d.w"]) != \
        params_fingerprint(params, ["psi_d.w"])


# ---------------------------------------------------------------------------
# QRM mining and step


def test_mine_qrm_group_shape(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    pairs = corpus.train[:3]
    batch = mine_qrm_batch(pairs, params, cfg, vocab, corpus.pool, cache, m=2)
    assert len(batch.queries) == 3 * 5  # 1 positive + 2m negatives per anchor
    for g in range(3):
        sel = batch.groups == g
        assert sel.sum() == 5
        assert batch.labels[sel].sum() == 1.0
        assert batch.labels[np.flatnonzero(sel)[0]] == 1.0


def test_mine_qrm_negatives_follow_sqd_distance_oracle(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    pair = corpus.train[0]
    m = 4
    batch = mine_qrm_batch([pair], params, cfg, vocab, corpus.pool, cache, m=m)
    anchor = encode_text(pair.query, vocab)
    dists = sqd_pool_distances(params, cfg, [anchor], cache)[0]
    order = np.lexsort((np.arange(corpus.pool.size), dists))
    near = [j for j in order
            if corpus.pool.entries[j].response != pair.response
            and corpus.pool.entries[j].cluster_id != pair.cluster_id][:m]
    want_resp = [list(cache.resp_ids[j]) for j in near]
    want_q = [list(cache.query_ids[j]) for j in near]
    assert batch.responses[1:1 + m] == want_resp
    assert batch.queries[1 + m:] == want_q


def test_mine_qrm_excludes_pool_entry_holding_truth(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    # test-split truth responses live in the pool, so the guard is active
    pair = corpus.test[0]
    truth = encode_text(pair.response, vocab)
    anchor = encode_text(pair.query, vocab)
    owners = [e for e in corpus.pool.entries if e.response == pair.response]
    assert owners  # protocol guarantee: truth present in the pool
    batch = mine_qrm_batch([pair], params, cfg, vocab, corpus.pool, cache,
                           m=corpus.pool.size - 1)
    negs = list(zip(batch.queries[1:], batch.responses[1:]))
    # the owning entry's response never pairs with the anchor query...
    assert (anchor, truth) not in [(q, r) for q, r in negs]
    # ...and its query never pairs with the truth either
    owner_q = [encode_text(e.query, vocab) for e in owners]
    assert all(q not in owner_q for q, r in negs if r == truth)


def test_mine_qrm_excludes_paraphrase_cluster_of_anchor(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    pair = corpus.test[1]
    twins = [j for j, e in enumerate(corpus.pool.entries)
             if e.cluster_id == pair.cluster_id]
    assert twins  # every test pair has a paraphrase entry in the pool
    batch = mine_qrm_batch([pair], params, cfg, vocab, corpus.pool, cache,
                           m=corpus.pool.size - 1)
    twin_resp = [list(cache.resp_ids[j]) for j in twins]
    twin_q = [list(cache.query_ids[j]) for j in twins]
    # layout per anchor: positive, then m (anchor, near-resp) pairs, then
    # m (near-query, truth) pairs — twins must be mined into neither half
    n_near = (len(batch.responses) - 1) // 2
    assert all(r not in twin_resp for r in batch.responses[1:1 + n_near])
    assert all(q not in twin_q for q in batch.queries[1 + n_near:])


def test_mine_qrm_without_cluster_ids_keeps_old_behavior(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    from dataclasses import replace as dc_replace
    pair = dc_replace(corpus.test[1], cluster_id=None)
    twins = [j for j, e in enumerate(corpus.pool.entries)
             if e.cluster_id == corpus.test[1].cluster_id
             and e.response != pair.response]
    assert twins  # this pair has cluster mates beyond the truth entry
    batch = mine_qrm_batch([pair], params, cfg, vocab, corpus.pool, cache,
                           m=corpus.pool.size - 1)
    twin_q = [list(cache.query_ids[j]) for j in twins]
    assert any(q in twin_q for q in batch.queries[1:])


def test_mine_qrm_deterministic(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    pairs = corpus.train[:2]
    a = mine_qrm_batch(pairs, params, cfg, vocab, corpus.pool, cache, m=3)
    b = mine_qrm_batch(pairs, params, cfg, vocab, corpus.pool, cache, m=3)
    assert a.queries == b.queries and a.responses == b.responses
    assert np.array_equal(a.labels, b.labels)


def test_qrm_step_decreases_loss_on_fixed_batch(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    from heronet.model import clone_params
    local = clone_params(params)
    batch = mine_qrm_batch(corpus.train[:6], local, cfg, vocab, corpus.pool,
                           cache, m=3)
    opt = ad.Adam(param_subset(local, "qrm"), lr=1e-3)
    losses = [qrm_step(local, cfg, batch, opt) for _ in range(6)]
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]


def test_qrm_step_matches_direct_bce(small_world):
    """The deduplicated gather must score exactly like naive per-pair encoding."""
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    from heronet.model import clone_params, match_logit
    local = clone_params(params)
    batch = mine_qrm_batch(corpus.train[:2], local, cfg, vocab, corpus.pool,
                           cache, m=2)
    with ad.no_grad():
        zs = []
        for q, r in zip(batch.queries, batch.responses):
            _, eq = encode_mean_pool(local, cfg, [q])
            _, er = encode_mean_pool(local, cfg, [r])
            zs.append(match_logit(local, eq, er).data[0])
        want = qrm_bce(Tensor(np.array(zs)), batch.labels).item()
    opt = ad.Adam(param_subset(local, "qrm"), lr=0.0)
    got = qrm_step(local, cfg, batch, opt)
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# two-stage retrieval


def two_stage_oracle(params, cfg, vocab, query_ids, pool, cache, m, width_mult=4):
    with ad.no_grad():
        _, pooled = encode_mean_pool(params, cfg, [query_ids])
        q_sqd = adapter_apply(params, "sqd", pooled).vec.data[0]
        p_sqd = adapter_apply(params, "sqd", Tensor(cache.query_emb)).vec.data
        d = np.sqrt(((q_sqd - p_sqd) ** 2).sum(axis=1))
        ranked = sorted(range(pool.size), key=lambda j: (d[j], j))
        stage1 = ranked[: min(width_mult * m, pool.size)]
        scored = []
        for j in stage1:
            s = match_score(params, Tensor(pooled.data),
                            Tensor(cache.resp_emb[j: j + 1])).data[0]
            scored.append((j, float(s)))
        scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:m]


def test_retrieve_matches_exhaustive_oracle(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    for pair in corpus.test[:4]:
        q = encode_text(pair.query, vocab)
        got = retrieve_top_m(params, cfg, q, corpus.pool, cache, m=3)
        want = two_stage_oracle(params, cfg, vocab, q, corpus.pool, cache, m=3)
        assert [(c.pool_id, ) for c in got] == [(j, ) for j, _ in want]
        for c, (j, s) in zip(got, want):
            assert c.score == pytest.approx(s, rel=1e-9)
            assert c.response == corpus.pool.entries[j].response


def test_retrieve_results_within_stage1_recall(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    q = encode_text(corpus.test[1].query, vocab)
    m = 4
    dists = sqd_pool_distances(params, cfg, [q], cache)[0]
    stage1 = set(np.lexsort((np.arange(corpus.pool.size), dists))[:4 * m])
    got = retrieve_top_m(params, cfg, q, corpus.pool, cache, m=m)
    assert {c.pool_id for c in got} <= stage1


def test_retrieve_scores_non_increasing(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    q = encode_text(corpus.test[2].query, vocab)
    got = retrieve_top_m(params, cfg, q, corpus.pool, cache, m=6)
    scores = [c.score for c in got]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_tied_scores_order_by_pool_id(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    from heronet.model import clone_params
    local = clone_params(params)
    local["psi_m.w_m"].data[:] = 0.0  # all match scores collapse to 0.5
    q = encode_text(corpus.test[0].query, vocab)
    m = 5
    dists = sqd_pool_distances(local, cfg, [q], cache)[0]
    stage1 = np.lexsort((np.arange(corpus.pool.size), dists))[:4 * m]
    got = retrieve_top_m(local, cfg, q, corpus.pool, cache, m=m)
    assert [c.pool_id for c in got] == sorted(stage1.tolist())[:m]


def test_retrieve_oversized_m_returns_whole_pool(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    q = encode_text(corpus.test[3].query, vocab)
    got = retrieve_top_m(params, cfg, q, corpus.pool, cache,
                         m=corpus.pool.size + 10)
    assert len(got) == corpus.pool.size
    assert sorted(c.pool_id for c in got) == list(range(corpus.pool.size))


def test_retrieve_rejects_bad_m(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    q = encode_text(corpus.test[0].query, vocab)
    with pytest.raises(ValueError):
        retrieve_top_m(params, cfg, q, corpus.pool, cache, m=0)


# ---------------------------------------------------------------------------
# cache and diagnostics


def test_pool_cache_matches_fresh_encoding(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    with ad.no_grad():
        _, pooled = encode_mean_pool(params, cfg, cache.query_ids[:7])
    assert np.allclose(cache.query_emb[:7], pooled.data, atol=1e-12)


def test_pool_cache_batch_size_invariance(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    small = build_pool_cache(params, cfg, vocab, corpus.pool, batch_size=7)
    assert np.allclose(small.query_emb, cache.query_emb, atol=1e-12)
    assert np.allclose(small.resp_emb, cache.resp_emb, atol=1e-12)


def test_separation_ratio_finite_and_positive(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    r = separation_ratio(params, cfg, vocab, corpus.train, max_pairs=300)
    assert np.isfinite(r) and 0.0 < r < 2.0


def test_separation_ratio_needs_clusters(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    bare = [type(p)(p.context, p.query, p.response, None)
            for p in corpus.train[:5]]
    with pytest.raises(ValueError):
        separation_ratio(params, cfg, vocab, bare)
