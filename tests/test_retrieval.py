"""Retrieval training and two-stage inference tests."""

import math

import numpy as np
import pytest

from heronet import autodiff as ad
from heronet.autodiff import Tensor
from heronet.bm25 import Bm25Index
from heronet.corpus import build_vocab, encode_text, generate_synthetic_corpus
from heronet.model import (ModelConfig, adapter_apply, add_retrieval_encoder,
                           encode_mean_pool, init_params, param_subset,
                           sqd_encoder)
from heronet.retrieval import (MatchBatch, PoolCache, augment_query,
                               build_pool_cache, mine_qrm_batch,
                               mine_sqd_batch, pool_token_lists, qrm_bce,
                               qrm_step, query_rows, retrieve_top_m_batch,
                               sqd_pool_distances, sqd_step, two_stage_rank)

from helpers import clone_params, pair_match_logit


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


def twins_of(records, pool):
    """The (len(records), pool size) twin mask the retrieval stage builds:
    true where a pool entry shares the record's paraphrase cluster."""
    clusters = np.array([r.cluster_id for r in records])
    return np.array([e.cluster_id for e in pool.entries]) == clusters[:, None]


def no_twins(n, pool):
    return np.zeros((n, pool.size), dtype=bool)


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
    pairs = corpus.train[:6]
    queries = [p.query for p in pairs]
    batch = mine_sqd_batch(queries, vocab, bm25_q, 3, rng, 0.0,
                           twins_of(pairs, corpus.pool))
    for pair, anchor, negs in zip(pairs, batch.anchors, batch.negatives):
        assert anchor == encode_text(pair.query, vocab)
        twins = [e.id for e in corpus.pool.entries
                 if e.cluster_id == pair.cluster_id]
        want = bm25_q.top_k(anchor, 3, exclude=twins)
        assert negs == [bm25_q.docs[j] for j in want]


def test_mine_sqd_rate_zero_positive_equals_anchor(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(5)
    pairs = corpus.train[:4]
    batch = mine_sqd_batch([p.query for p in pairs], vocab, bm25_q, 2, rng,
                           0.0, twins_of(pairs, corpus.pool))
    assert batch.positives == batch.anchors


def test_mine_sqd_excludes_every_twin_of_the_anchor(small_world):
    # the anchor is a pool entry's own wording: that entry and the rest of
    # its cluster are twins, and every other entry is mined
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(6)
    entry = corpus.pool.entries[0]
    twins = twins_of([entry], corpus.pool)
    batch = mine_sqd_batch([entry.query], vocab, bm25_q, corpus.pool.size,
                           rng, 0.0, twins)
    twin_q = [bm25_q.docs[j] for j in np.flatnonzero(twins[0])]
    assert encode_text(entry.query, vocab) in twin_q
    assert len(batch.negatives[0]) == corpus.pool.size - len(twin_q)
    assert all(neg not in twin_q for neg in batch.negatives[0])


def test_mine_sqd_cluster_ids_exclude_paraphrase_twins(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(40)
    # find a test pair whose pool twin is close enough to get mined
    hit = None
    for pair in corpus.test:
        twins = [bm25_q.docs[e.id] for e in corpus.pool.entries
                 if e.cluster_id == pair.cluster_id]
        assert twins  # every test pair has a paraphrase entry in the pool
        plain = mine_sqd_batch([pair.query], vocab, bm25_q, 5, rng, 0.0,
                               no_twins(1, corpus.pool))
        if any(neg in twins for neg in plain.negatives[0]):
            hit = (pair, twins)
            break
    assert hit is not None
    pair, twins = hit
    batch = mine_sqd_batch([pair.query], vocab, bm25_q, 5, rng, 0.0,
                           twins_of([pair], corpus.pool))
    assert all(neg not in twins for neg in batch.negatives[0])
    assert len(batch.negatives[0]) == 5  # ranks refill from further out


def test_mine_sqd_rejects_a_misshapen_twin_mask(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(41)
    size = corpus.pool.size
    for shape in ((2, size), (1, size - 1), (size,)):
        with pytest.raises(ValueError, match="one row per query"):
            mine_sqd_batch([corpus.train[0].query], vocab, bm25_q, 2, rng,
                           0.0, np.zeros(shape, dtype=bool))


def test_mine_sqd_oversized_m_warns(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(7)
    with pytest.warns(UserWarning, match="pool size"):
        mine_sqd_batch([corpus.train[0].query], vocab, bm25_q,
                       corpus.pool.size + 5, rng, 0.15,
                       twins_of(corpus.train[:1], corpus.pool))


def test_sqd_step_decreases_loss_on_fixed_batch(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    local = clone_params(params)
    rng = np.random.default_rng(8)
    pairs = corpus.train[:8]
    batch = mine_sqd_batch([p.query for p in pairs], vocab, bm25_q, 4, rng,
                           0.15, twins_of(pairs, corpus.pool))
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
    local = clone_params(params)
    rng = np.random.default_rng(10)
    pairs = corpus.train[:5] + corpus.train[:1]
    batch = mine_sqd_batch([p.query for p in pairs], vocab, bm25_q, 3, rng,
                           0.15, twins_of(pairs, corpus.pool))
    margin = 3.0

    def proj(seq):
        _, pooled = encode_mean_pool(local, cfg, [seq])
        return adapter_apply(local, "sqd", pooled).data[0]

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

    def spy(params, cfg, seqs):
        rows.extend(tuple(s) for s in seqs)
        return encode(params, cfg, seqs)

    monkeypatch.setattr(model, "encode_mean_pool", spy)
    pairs = corpus.train[:4] + corpus.train[:1]
    batch = mine_sqd_batch([p.query for p in pairs], vocab, bm25_q, 4,
                           np.random.default_rng(8), 0.0,
                           twins_of(pairs, corpus.pool))
    offered = batch.anchors + batch.positives + [
        n for g in batch.negatives for n in g]
    sqd_step(clone_params(params), cfg, batch, margin=1.0,
             opt=ad.Adam({}, lr=0.0))
    assert len(rows) == len(set(rows))
    assert set(rows) == {tuple(s) for s in offered}
    assert len(rows) < len(offered)


def test_sqd_step_touches_only_encoder_and_sqd_adapter(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    from heronet.model import params_fingerprint
    local = clone_params(params)
    frozen = [n for n in local
              if n.startswith(("dec.", "out.", "psi_m."))]
    before = params_fingerprint(local, frozen)
    rng = np.random.default_rng(9)
    batch = mine_sqd_batch([corpus.train[0].query], vocab, bm25_q, 3, rng,
                           0.15, twins_of(corpus.train[:1], corpus.pool))
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
    batch = mine_qrm_batch(pairs, params, cfg, vocab, cache, 2,
                           twins_of(pairs, corpus.pool))
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
    batch = mine_qrm_batch([pair], params, cfg, vocab, cache, m,
                           twins_of([pair], corpus.pool))
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
    batch = mine_qrm_batch([pair], params, cfg, vocab, cache,
                           corpus.pool.size - 1, twins_of([pair], corpus.pool))
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
    batch = mine_qrm_batch([pair], params, cfg, vocab, cache,
                           corpus.pool.size - 1, twins_of([pair], corpus.pool))
    twin_resp = [list(cache.resp_ids[j]) for j in twins]
    twin_q = [list(cache.query_ids[j]) for j in twins]
    # layout per anchor: positive, then m (anchor, near-resp) pairs, then
    # m (near-query, truth) pairs — twins must be mined into neither half
    n_near = (len(batch.responses) - 1) // 2
    assert all(r not in twin_resp for r in batch.responses[1:1 + n_near])
    assert all(q not in twin_q for q in batch.queries[1 + n_near:])


def test_mine_qrm_matches_per_anchor_scan(small_world):
    # the masked picks equal a scan of the pool in distance order that
    # skips the anchor's cluster and any entry holding its true response
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    pool = corpus.pool
    pairs = corpus.test[:6] + corpus.train[:6]
    m = pool.size - 1
    batch = mine_qrm_batch(pairs, params, cfg, vocab, cache, m,
                           twins_of(pairs, pool))
    anchors = [encode_text(p.query, vocab) for p in pairs]
    dists = sqd_pool_distances(params, cfg, anchors, cache)
    at = 0
    for i, pair in enumerate(pairs):
        order = np.lexsort((np.arange(pool.size), dists[i]))
        near = [j for j in order
                if pool.entries[j].response != pair.response
                and pool.entries[j].cluster_id != pair.cluster_id][:m]
        k = len(near)
        assert batch.responses[at + 1:at + 1 + k] == [
            list(cache.resp_ids[j]) for j in near]
        assert batch.queries[at + 1 + k:at + 1 + 2 * k] == [
            list(cache.query_ids[j]) for j in near]
        at += 1 + 2 * k
    assert at == len(batch.queries)


def test_mine_qrm_rejects_a_misshapen_twin_mask(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    with pytest.raises(ValueError, match="one row per pair"):
        mine_qrm_batch(corpus.train[:2], params, cfg, vocab, cache, 2,
                       no_twins(1, corpus.pool))


def test_mine_qrm_deterministic(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    pairs = corpus.train[:2]
    twins = twins_of(pairs, corpus.pool)
    a = mine_qrm_batch(pairs, params, cfg, vocab, cache, 3, twins)
    b = mine_qrm_batch(pairs, params, cfg, vocab, cache, 3, twins)
    assert a.queries == b.queries and a.responses == b.responses
    assert np.array_equal(a.labels, b.labels)


def test_qrm_step_decreases_loss_on_fixed_batch(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    local = clone_params(params)
    batch = mine_qrm_batch(corpus.train[:6], local, cfg, vocab, cache, 3,
                           twins_of(corpus.train[:6], corpus.pool))
    opt = ad.Adam(param_subset(local, "qrm"), lr=1e-3)
    losses = [qrm_step(local, cfg, batch, opt) for _ in range(6)]
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]


def test_qrm_step_matches_direct_bce(small_world):
    """The deduplicated gather must score exactly like naive per-pair encoding."""
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    local = clone_params(params)
    batch = mine_qrm_batch(corpus.train[:2], local, cfg, vocab, cache, 2,
                           twins_of(corpus.train[:2], corpus.pool))
    with ad.no_grad():
        zs = []
        for q, r in zip(batch.queries, batch.responses):
            _, eq = encode_mean_pool(local, cfg, [q])
            _, er = encode_mean_pool(local, cfg, [r])
            zs.append(pair_match_logit(local, eq, er).data[0])
        want = qrm_bce(Tensor(np.array(zs)), batch.labels).item()
    opt = ad.Adam(param_subset(local, "qrm"), lr=0.0)
    got = qrm_step(local, cfg, batch, opt)
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# two-stage retrieval


def two_stage_oracle(params, cfg, vocab, query_ids, pool, cache, m,
                     ids=None):
    """(id, score) of every id in `ids` (default: the whole pool) in
    two-stage order: the 4m recalled by score, then the rest by distance,
    their score None."""
    ids = range(pool.size) if ids is None else [int(j) for j in ids]
    with ad.no_grad():
        _, pooled = encode_mean_pool(params, cfg, [query_ids])
        q_sqd = adapter_apply(params, "sqd", pooled).data[0]
        p_sqd = adapter_apply(params, "sqd", Tensor(cache.query_emb)).data
        d = np.sqrt(((q_sqd - p_sqd) ** 2).sum(axis=1))
        ranked = sorted(ids, key=lambda j: (d[j], j))
        width = min(4 * m, len(ranked))
        scored = []
        for j in ranked[:width]:
            s = ad.sigmoid(pair_match_logit(
                params, Tensor(pooled.data),
                Tensor(cache.resp_emb[j: j + 1]))).data[0]
            scored.append((j, float(s)))
        scored.sort(key=lambda t: (-t[1], t[0]))
    return scored + [(j, None) for j in ranked[width:]]


def test_retrieve_matches_exhaustive_oracle(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    table = cache.projected(params, "qrm")
    for pair in corpus.test[:4]:
        q = encode_text(pair.query, vocab)
        [got] = retrieve_top_m_batch(params, cfg, [q], cache, m=3)
        want = two_stage_oracle(params, cfg, vocab, q, corpus.pool, cache,
                                m=3)[:3]
        assert got == [j for j, _ in want]
        # the whole-pool rank it reads scores the recalled ids as the
        # oracle does
        dists, p_q = query_rows(params, cfg, [q], cache, None)
        ranked, scores = two_stage_rank(params, dists[0], p_q[0], table,
                                        np.arange(corpus.pool.size), m=3)
        assert ranked[:3].tolist() == got
        assert scores[:3].tolist() == pytest.approx(
            [s for _, s in want], rel=1e-9)


def test_subset_rank_matches_oracle(small_world):
    """Evaluation ranks a fixed candidate subset the way the oracle does,
    the entries recall leaves out following in distance order."""
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    rng = np.random.default_rng(0)
    table = cache.projected(params, "qrm")
    queries = [encode_text(pair.query, vocab) for pair in corpus.test[:3]]
    # the batch's rows, as evaluation reads them a chunk at a time
    dists, p_q = query_rows(params, cfg, queries, cache, None)
    for i, q in enumerate(queries):
        subset = rng.choice(corpus.pool.size, size=17, replace=False)
        ranked, scores = two_stage_rank(params, dists[i], p_q[i], table,
                                        subset, m=2)
        want = two_stage_oracle(params, cfg, vocab, q, corpus.pool, cache,
                                m=2, ids=subset)
        assert ranked.tolist() == [j for j, _ in want]
        assert len(scores) == 8
        assert scores.tolist() == pytest.approx(
            [s for _, s in want[:8]], rel=1e-9)


def test_retrieve_results_within_stage1_recall(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    q = encode_text(corpus.test[1].query, vocab)
    m = 4
    dists = sqd_pool_distances(params, cfg, [q], cache)[0]
    stage1 = set(np.lexsort((np.arange(corpus.pool.size), dists))[:4 * m])
    [got] = retrieve_top_m_batch(params, cfg, [q], cache, m=m)
    assert set(got) <= stage1


def test_two_stage_scores_non_increasing(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    q = encode_text(corpus.test[2].query, vocab)
    dists, p_q = query_rows(params, cfg, [q], cache, None)
    _, scores = two_stage_rank(params, dists[0], p_q[0],
                               cache.projected(params, "qrm"),
                               np.arange(corpus.pool.size), m=6)
    assert len(scores) == 24
    assert scores.tolist() == sorted(scores.tolist(), reverse=True)


def test_retrieve_tied_scores_order_by_pool_id(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    local = clone_params(params)
    local["psi_m.w_m"].data[:] = 0.0  # all match scores collapse to 0.5
    q = encode_text(corpus.test[0].query, vocab)
    m = 5
    dists = sqd_pool_distances(local, cfg, [q], cache)[0]
    stage1 = np.lexsort((np.arange(corpus.pool.size), dists))[:4 * m]
    [got] = retrieve_top_m_batch(local, cfg, [q], cache, m=m)
    assert got == sorted(stage1.tolist())[:m]
    _, p_q = query_rows(local, cfg, [q], cache, None)
    ranked, scores = two_stage_rank(local, dists, p_q[0],
                                    cache.projected(local, "qrm"),
                                    np.arange(corpus.pool.size), m)
    assert scores.tolist() == [0.5] * (4 * m)
    assert ranked[:4 * m].tolist() == sorted(stage1.tolist())


def test_retrieve_oversized_m_returns_whole_pool(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    q = encode_text(corpus.test[3].query, vocab)
    [got] = retrieve_top_m_batch(params, cfg, [q], cache,
                                 m=corpus.pool.size + 10)
    assert sorted(got) == list(range(corpus.pool.size))


@pytest.mark.parametrize("separate", [False, True])
def test_retrieve_encodes_query_batch_once_per_encoder(small_world,
                                                       monkeypatch, separate):
    # stage one reuses the shared encoder's query rows while the SQD head
    # shares that encoder; a separate SQD encoder still encodes for itself
    from heronet import retrieval

    corpus, vocab, cfg, params, cache, bm25_q = small_world
    prefix = "sqd_enc." if separate else ""
    local = clone_params(params)
    if separate:
        add_retrieval_encoder(local, cfg, seed=5)
        cache = build_pool_cache(local, cfg, vocab, corpus.pool)
    qs = [encode_text(p.query, vocab) for p in corpus.test[:3]]
    with ad.no_grad():
        _, main = encode_mean_pool(local, cfg, qs)
    want = sqd_pool_distances(local, cfg, qs, cache)
    np.testing.assert_array_equal(
        sqd_pool_distances(local, cfg, qs, cache, main), want)
    calls = []
    real = retrieval.encode_mean_pool

    def spy(enc, cfg, seqs):
        calls.append("" if enc is local else "sqd_enc.")
        return real(enc, cfg, seqs)

    monkeypatch.setattr(retrieval, "encode_mean_pool", spy)
    got = retrieve_top_m_batch(local, cfg, qs, cache, m=3)
    assert calls == (["", prefix] if separate else [""])
    for i, row in enumerate(got):
        stage1 = np.lexsort((np.arange(corpus.pool.size), want[i]))[:12]
        assert set(row) <= set(stage1.tolist())


def test_retrieve_rejects_bad_m(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    q = encode_text(corpus.test[0].query, vocab)
    with pytest.raises(ValueError):
        retrieve_top_m_batch(params, cfg, [q], cache, m=0)


# ---------------------------------------------------------------------------
# cache and diagnostics


def test_pool_cache_matches_fresh_encoding(small_world):
    # every row, in entry order, repeated entries included
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    with ad.no_grad():
        _, queries = encode_mean_pool(params, cfg, cache.query_ids)
        _, responses = encode_mean_pool(params, cfg, cache.resp_ids)
    assert np.allclose(cache.query_emb, queries.data, atol=1e-12)
    assert np.allclose(cache.resp_emb, responses.data, atol=1e-12)


def _spy_pool_encodes(monkeypatch, params, cfg, vocab, pool):
    """The cache built from params, and the sequences each encoder was
    sent while building it, in call order, keyed by its name prefix: ""
    for the store, "sqd_enc." for model.sqd_encoder's view."""
    from heronet import model, retrieval

    seen = {}
    real = model.encode_mean_pool

    def spy(enc, cfg, seqs):
        prefix = "" if enc is params else "sqd_enc."
        seen.setdefault(prefix, []).extend(tuple(s) for s in seqs)
        return real(enc, cfg, seqs)

    for mod in (model, retrieval):
        monkeypatch.setattr(mod, "encode_mean_pool", spy)
    return build_pool_cache(params, cfg, vocab, pool), seen


def test_pool_cache_encodes_each_distinct_sequence_once(small_world,
                                                        monkeypatch):
    """The pool repeats queries; each distinct query and each distinct
    response reaches the encoder exactly once."""
    from collections import Counter

    corpus, vocab, cfg, params, _, bm25_q = small_world
    cache, seen = _spy_pool_encodes(monkeypatch, params, cfg, vocab,
                                    corpus.pool)
    distinct = [{tuple(ids) for ids in side}
                for side in (cache.query_ids, cache.resp_ids)]
    assert len(distinct[0]) < len(cache.query_ids)
    assert list(seen) == [""]
    assert Counter(seen[""]) == Counter(distinct[0]) + Counter(distinct[1])


def test_pool_cache_reads_queries_through_the_sqd_encoder(small_world,
                                                          monkeypatch):
    """With a separate SQD encoder each distinct pool query goes through
    it alone, and each distinct response through the shared one, once."""
    corpus, vocab, cfg, params, _, bm25_q = small_world
    local = clone_params(params)
    add_retrieval_encoder(local, cfg, seed=5)
    cache, seen = _spy_pool_encodes(monkeypatch, local, cfg, vocab,
                                    corpus.pool)
    assert {prefix: sorted(rows) for prefix, rows in seen.items()} == {
        "sqd_enc.": sorted({tuple(ids) for ids in cache.query_ids}),
        "": sorted({tuple(ids) for ids in cache.resp_ids})}
    with ad.no_grad():
        _, pooled = encode_mean_pool(sqd_encoder(local), cfg,
                                     cache.query_ids)
    assert np.allclose(cache.query_emb, pooled.data, atol=1e-12)


def test_pool_cache_maps_responses_to_first_row(small_world):
    corpus, vocab, cfg, params, cache, bm25_q = small_world
    for i, ids in enumerate(cache.resp_ids):
        j = cache.resp_row[tuple(ids)]
        assert j <= i and cache.resp_ids[j] == ids
    emb = np.arange(6.0).reshape(3, 2)
    dup = PoolCache([[1], [2], [3]], [[4, 5], [6], [4, 5]], emb, emb)
    assert dup.resp_row == {(4, 5): 0, (6,): 1}


def _adapter_step(params, task, emb):
    """One Adam step on the task's adapter alone."""
    name = {"sqd": "psi_d.", "qrm": "psi_m."}[task]
    opt = ad.Adam({n: t for n, t in params.items() if n.startswith(name)},
                  lr=1e-2)
    out = adapter_apply(params, task, Tensor(emb[:5]))
    weights = np.random.default_rng(0).normal(size=out.data.shape)
    opt.zero_grad()
    ad.backward(ad.tsum(out * weights))
    opt.step()


def test_pool_tables_follow_the_adapters(small_world, monkeypatch):
    from heronet import retrieval

    corpus, vocab, cfg, params, _, _ = small_world
    local = clone_params(params)
    cache = build_pool_cache(local, cfg, vocab, corpus.pool)
    raw = {"sqd": cache.query_emb, "qrm": cache.resp_emb}

    def fresh(task):
        with ad.no_grad():
            return adapter_apply(local, task, Tensor(raw[task])).data

    for task in ("sqd", "qrm"):
        np.testing.assert_array_equal(cache.projected(local, task),
                                      fresh(task))
    made = []
    real = retrieval.adapter_apply

    def spy(params, task, e):
        made.append(task)
        return real(params, task, e)

    monkeypatch.setattr(retrieval, "adapter_apply", spy)
    # unchanged adapter values, even in another parameter store: no work
    for store in (local, clone_params(local)):
        for task in ("sqd", "qrm"):
            cache.projected(store, task)
    assert made == []
    for moved, still in (("qrm", "sqd"), ("sqd", "qrm")):
        before = cache.projected(local, moved).copy()
        _adapter_step(local, moved, raw[moved])
        got = cache.projected(local, moved)
        assert not np.array_equal(got, before)
        np.testing.assert_array_equal(got, fresh(moved))
        cache.projected(local, still)
        assert made == [moved]
        made.clear()
