"""Candidate deduplication, ranking, serving, and rerank-training tests."""

import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heronet import autodiff as ad
from heronet import seeds
from heronet.bm25 import Bm25Index
from heronet.corpus import (build_vocab, encode_text,
                            generate_synthetic_corpus, splice_context)
from heronet.discriminator import score_pairs
from heronet.generation import generate_candidates
from heronet.model import (ModelConfig, encode_mean_pool, init_params,
                           param_subset, params_fingerprint)
from heronet.rerank import (build_candidate_set, dedupe_candidates, rerank,
                            rerank_train_epoch, serve)
from heronet.retrieval import PoolCache, build_pool_cache, pool_token_lists

from helpers import clone_params, psi_m_inputs


@pytest.fixture(scope="module")
def small_world():
    corpus = generate_synthetic_corpus(seed=3, n_train=40, n_eval=10,
                                       pool_size=30)
    vocab = build_vocab(corpus, max_size=512)
    cfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16,
                      n_layers=2, d_proj=4, max_seq_len=48)
    params = init_params(cfg, seed=11, dtype=np.float64)
    cache = build_pool_cache(params, cfg, vocab, corpus.pool)
    bm25_r = Bm25Index(pool_token_lists(corpus.pool, vocab, "response"))
    return corpus, vocab, cfg, params, cache, bm25_r


# ---------------------------------------------------------------------------
# deduplication


def test_dedupe_collapses_exact_tokens_truth_wins():
    a, b, c = [7, 8], [9], [10, 11, 12]
    cands = [(a, "retrieved"), (b, "generated"), (a, "truth"),
             (c, "bm25"), (b, "generated")]
    merged = dedupe_candidates(cands)
    assert merged == [(a, "truth"), (b, "generated"), (c, "bm25")]


def test_dedupe_keeps_first_position_order():
    cands = [([5], "bm25"), ([6], "retrieved"), ([5], "retrieved")]
    assert dedupe_candidates(cands) == [([5], "bm25"), ([6], "retrieved")]


def test_dedupe_distinct_sequences_untouched():
    cands = [([5, 6], "retrieved"), ([6, 5], "generated")]
    assert dedupe_candidates(cands) == cands


_PROVS = ["retrieved", "generated", "bm25", "truth"]


@given(st.lists(st.tuples(st.lists(st.integers(3, 6), max_size=3),
                          st.sampled_from(_PROVS)), max_size=12))
def test_dedupe_properties(cands):
    merged = dedupe_candidates(cands)
    keys = [tuple(ids) for ids, _ in cands]
    # kept entries: each distinct sequence once, in first-seen order
    assert [tuple(ids) for ids, _ in merged] == list(dict.fromkeys(keys))
    for ids, prov in merged:
        provs = [p for k, (_, p) in zip(keys, cands) if k == tuple(ids)]
        # any truth-tagged copy promotes the kept entry; otherwise the
        # first copy's tag stands
        assert prov == ("truth" if "truth" in provs else provs[0])
    assert dedupe_candidates(merged) == merged


# ---------------------------------------------------------------------------
# ranking


def pooled(params, cfg, ids):
    """The (1, d_model) pooled row rerank takes for a query."""
    with ad.no_grad():
        return encode_mean_pool(params, cfg, [ids])[1]


def test_rerank_scores_match_discriminator_head(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    q = encode_text(corpus.test[0].query, vocab)
    cands = [(encode_text(e.response, vocab), "retrieved")
             for e in corpus.pool.entries[:5]] + [([7, 9, 11], "generated")]
    ranked = rerank(params, cfg, pooled(params, cfg, q), cands, cache)
    assert len(ranked) == 6
    scores = [c.score for c in ranked]
    assert scores == sorted(scores, reverse=True)
    want = score_pairs(params, cfg, [q] * 6, [c for c, _ in cands])
    got = {c.tokens: c.score for c in ranked}
    for (ids, _), w in zip(cands, want):
        assert got[tuple(ids)] == pytest.approx(w, rel=1e-12)


def test_rerank_projects_each_distinct_row_once(small_world, monkeypatch):
    """psi_m's affine map sees the query's row and each distinct candidate
    once, in one call, not the query once per candidate."""
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    q = encode_text(corpus.test[0].query, vocab)
    cands = [(encode_text(e.response, vocab), "retrieved")
             for e in corpus.pool.entries[:5]]
    cands += [([7, 9, 11], "generated"), ([7, 9, 11], "generated"),
              (cands[2][0], "bm25")]
    seen = psi_m_inputs(params, monkeypatch)
    rerank(params, cfg, pooled(params, cfg, q), cands, cache)
    [rows] = seen
    assert len(rows) == 1 + len({tuple(c) for c, _ in cands})
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_rerank_tie_break_keeps_candidate_order(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    local = clone_params(params)
    local["psi_m.w_m"].data[:] = 0.0  # every score collapses to 0.5
    q = encode_text(corpus.test[0].query, vocab)
    cands = [(encode_text(e.response, vocab), "retrieved")
             for e in corpus.pool.entries[:4]]
    ranked = rerank(local, cfg, pooled(local, cfg, q), cands, cache)
    assert [list(c.tokens) for c in ranked] == [c for c, _ in cands]
    assert all(c.score == 0.5 for c in ranked)


def test_rerank_dedupes_before_scoring(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    q = encode_text(corpus.test[1].query, vocab)
    resp = encode_text(corpus.pool.entries[0].response, vocab)
    ranked = rerank(params, cfg, pooled(params, cfg, q),
                    [(resp, "retrieved"), (resp, "truth")], cache)
    assert len(ranked) == 1
    assert ranked[0].provenance == "truth"


def test_rerank_preserves_provenance(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    q = encode_text(corpus.test[2].query, vocab)
    cands = [(encode_text(corpus.pool.entries[0].response, vocab), "retrieved"),
             ([7, 9, 11], "generated"),
             (encode_text(corpus.pool.entries[1].response, vocab), "bm25")]
    ranked = rerank(params, cfg, pooled(params, cfg, q), cands, cache)
    assert sorted(c.provenance for c in ranked) == ["bm25", "generated",
                                                    "retrieved"]


def test_rerank_rejects_empty(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    with pytest.raises(ValueError):
        rerank(params, cfg, pooled(params, cfg, [7]), [], cache)


def _mixed_candidates(corpus, vocab, cache):
    # pool responses, one sequence outside the pool, and a duplicate
    pool_resp = [encode_text(e.response, vocab)
                 for e in corpus.pool.entries[:4]]
    outside = [7, 9, 11]
    assert tuple(outside) not in cache.resp_row
    return ([(ids, "retrieved") for ids in pool_resp]
            + [(outside, "generated"), (pool_resp[0], "truth")])


def test_rerank_from_cache_matches_fresh_encoding(small_world):
    # float32, as served: cached rows were padded with other pool
    # responses, fresh ones only with their own set
    corpus, vocab, cfg, _, _, _ = small_world
    params = init_params(cfg, seed=11, dtype=np.float32)
    cache = build_pool_cache(params, cfg, vocab, corpus.pool)
    d = cfg.d_model
    no_pool = PoolCache([], [], np.zeros((0, d)), np.zeros((0, d)))
    q = encode_text(corpus.test[3].query, vocab)
    cands = _mixed_candidates(corpus, vocab, cache)
    q_row = pooled(params, cfg, q)
    got = rerank(params, cfg, q_row, cands, cache)
    want = rerank(params, cfg, q_row, cands, no_pool)
    assert len(got) == len(want) == 5
    want_by_tokens = {c.tokens: c for c in want}
    for c in got:
        assert c.score == pytest.approx(want_by_tokens[c.tokens].score,
                                        abs=1e-6)
        assert c.provenance == want_by_tokens[c.tokens].provenance


def test_rerank_encodes_only_sequences_outside_pool(small_world,
                                                    monkeypatch):
    # the query comes pooled; pool responses take the cache's rows
    from heronet import model

    corpus, vocab, cfg, params, cache, bm25_r = small_world
    calls = []
    real = model.encode_mean_pool

    def spy(params, cfg, seqs):
        calls.append([tuple(s) for s in seqs])
        return real(params, cfg, seqs)

    q_row = pooled(params, cfg, encode_text(corpus.test[3].query, vocab))
    monkeypatch.setattr(model, "encode_mean_pool", spy)
    rerank(params, cfg, q_row, _mixed_candidates(corpus, vocab, cache), cache)
    assert calls == [[(7, 9, 11)]]
    # among pool responses only, no encoder pass at all
    calls.clear()
    rerank(params, cfg, q_row,
           [(ids, "retrieved") for ids in cache.resp_ids[:3]], cache)
    assert calls == []


# ---------------------------------------------------------------------------
# candidate assembly


def drawn_set(small_world, pair, bm25_r, m, n, seed):
    """pair's candidate set, built from its own generate_candidates draw."""
    corpus, vocab, cfg, params, cache, _ = small_world
    [entry], _ = generate_candidates(
        params, cfg, vocab, [splice_context(pair)], cache, m, n, True,
        rngs=[np.random.default_rng(seed)], max_gen_len=10)
    return build_candidate_set(cfg, vocab, pair, entry, cache, bm25_r, m)


def test_candidate_set_provenance_mix(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    cands = drawn_set(small_world, corpus.test[0], bm25_r, m=3, n=2, seed=0)
    provs = [p for _, p in cands]
    assert provs.count("retrieved") == 3
    assert provs.count("generated") == 2
    assert provs.count("bm25") == 3
    assert provs.count("truth") == 1
    assert provs[-1] == "truth"


def test_candidate_set_without_bm25_block(small_world):
    # served sets carry no lexical block and no gold response: m retrieved
    # plus n generated
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    cands = drawn_set(small_world, corpus.test[0], None, m=3, n=2, seed=0)
    provs = [p for _, p in cands]
    assert provs == ["retrieved"] * 3 + ["generated"] * 2


def test_candidate_set_truth_survives_dedupe_once(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    pair = corpus.test[0]  # truth response is in the pool, so overlaps happen
    cands = drawn_set(small_world, pair, bm25_r, m=corpus.pool.size, n=1,
                      seed=1)
    merged = dedupe_candidates(cands)
    truth_ids = encode_text(pair.response, vocab)
    hits = [(c, p) for c, p in merged if c == truth_ids]
    assert len(hits) == 1 and hits[0][1] == "truth"


# ---------------------------------------------------------------------------
# serving


def test_serve_ranks_the_draw_from_the_text_keyed_stream(small_world):
    # a text's sampled extras come from [seed, CHAT, crc32(text)], and its
    # served set is its m retrieved and n generated candidates, re-ranked
    corpus, vocab, cfg, params, cache, _ = small_world
    text = splice_context(corpus.test[2])
    [got] = serve(params, cfg, vocab, [text], cache, 3, 3, True, 17,
                  max_gen_len=10)
    rng = np.random.default_rng([17, seeds.CHAT, zlib.crc32(text.encode())])
    [entry], q_row = generate_candidates(params, cfg, vocab, [text], cache,
                                         3, 3, True, rngs=[rng],
                                         max_gen_len=10)
    cands = build_candidate_set(cfg, vocab, None, entry, cache, None, 3)
    assert got == rerank(params, cfg, q_row, cands, cache)
    assert {c.provenance for c in got} <= {"retrieved", "generated"}


@pytest.mark.parametrize("n", [1, 3])
def test_serve_answers_a_text_alike_in_any_chunk(small_world, n):
    corpus, vocab, cfg, params, cache, _ = small_world
    texts = [splice_context(p) for p in corpus.test[:5]]
    texts.append(texts[1])
    chunk = serve(params, cfg, vocab, texts, cache, 2, n, True, 3,
                  max_gen_len=10)
    assert chunk[1] == chunk[-1]
    for text, ranked in zip(texts, chunk):
        [alone] = serve(params, cfg, vocab, [text], cache, 2, n, True, 3,
                        max_gen_len=10)
        assert [(c.tokens, c.provenance) for c in alone] == \
            [(c.tokens, c.provenance) for c in ranked]
        assert [c.score for c in alone] == pytest.approx(
            [c.score for c in ranked], rel=1e-12)


# ---------------------------------------------------------------------------
# training


def test_rerank_train_moves_only_matching_head(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    local = clone_params(params)
    frozen = [k for k in local if not k.startswith("psi_m.")]
    before = params_fingerprint(local, frozen)
    opt = ad.Adam(param_subset(local, "rerank"), lr=1e-3)
    loss = rerank_train_epoch(local, cfg, vocab, corpus.train[:6], cache,
                              bm25_r, m=3, n=1, kg=True, batch_size=3,
                              opt=opt, rng=np.random.default_rng(2),
                              max_gen_len=8)
    assert np.isfinite(loss)
    assert params_fingerprint(local, frozen) == before
    assert params_fingerprint(local, ["psi_m.w_m"]) != \
        params_fingerprint(params, ["psi_m.w_m"])


def test_rerank_train_loss_decreases_over_epochs(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    local = clone_params(params)
    opt = ad.Adam(param_subset(local, "rerank"), lr=1e-2)
    rng = np.random.default_rng(3)
    losses = [rerank_train_epoch(local, cfg, vocab, corpus.train[:8], cache,
                                 bm25_r, m=3, n=1, kg=True, batch_size=4,
                                 opt=opt, rng=rng, max_gen_len=8)
              for _ in range(3)]
    assert losses[-1] < losses[0]


def test_rerank_train_deterministic_given_seed(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    runs = []
    for _ in range(2):
        local = clone_params(params)
        opt = ad.Adam(param_subset(local, "rerank"), lr=1e-3)
        runs.append(rerank_train_epoch(local, cfg, vocab, corpus.train[:5],
                                       cache, bm25_r, m=2, n=2, kg=True,
                                       batch_size=5, opt=opt,
                                       rng=np.random.default_rng(4),
                                       max_gen_len=8))
    assert runs[0] == runs[1]


def test_rerank_train_assembles_each_pair_once(small_world, monkeypatch):
    # candidates are generated once per chunk, then assembled pair by pair
    from heronet import rerank as rr

    corpus, vocab, cfg, params, cache, bm25_r = small_world
    calls = {"build": 0, "generate": []}
    build, generate = rr.build_candidate_set, rr.generate_candidates

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counted_generate(*args, **kwargs):
        calls["generate"].append(len(args[3]))
        return generate(*args, **kwargs)

    monkeypatch.setattr(rr, "build_candidate_set", counted_build)
    monkeypatch.setattr(rr, "generate_candidates", counted_generate)
    local = clone_params(params)
    opt = ad.Adam(param_subset(local, "rerank"), lr=1e-3)
    rerank_train_epoch(local, cfg, vocab, corpus.train[:7], cache, bm25_r,
                       m=2, n=2, kg=True, batch_size=3, opt=opt,
                       rng=np.random.default_rng(5), max_gen_len=8)
    assert calls["build"] == 7
    assert calls["generate"] == [3, 3, 1]


def test_rerank_train_encodes_each_distinct_sequence_once_per_chunk(
        small_world, monkeypatch):
    # per chunk, each distinct query reaches the encoder exactly once (in
    # generate_candidates, whose rows the scoring reuses), and one
    # encode_unique call embeds the candidate sets: it receives no pool
    # response, which takes its cached row, and every other distinct
    # candidate sequence of the chunk exactly once
    from heronet import generation, model, retrieval
    from heronet import rerank as rr

    corpus, vocab, cfg, params, cache, bm25_r = small_world
    chunks = []
    encode, encode_unique = model.encode_mean_pool, rr.encode_unique
    generate, set_logits = rr.generate_candidates, rr._set_logits

    def spy_generate(params, cfg, vocab, query_texts, *args, **kwargs):
        chunks.append({"queries": query_texts, "all_rows": [],
                       "rows": None, "groups": []})
        return generate(params, cfg, vocab, query_texts, *args, **kwargs)

    def spy_encode(params, cfg, seqs):
        chunk = chunks[-1]
        chunk["all_rows"].extend(tuple(s) for s in seqs)
        if chunk["rows"] is not None:
            chunk["rows"].extend(tuple(s) for s in seqs)
        return encode(params, cfg, seqs)

    def spy_unique(params, cfg, groups):
        chunks[-1]["groups"].append([tuple(s) for g in groups for s in g])
        chunks[-1]["rows"] = []
        return encode_unique(params, cfg, groups)

    def spy_set_logits(params, cfg, query_rows, sets, cache):
        chunks[-1].update(sets=sets, cache=cache)
        return set_logits(params, cfg, query_rows, sets, cache)

    for mod in (model, generation, retrieval):
        monkeypatch.setattr(mod, "encode_mean_pool", spy_encode)
    monkeypatch.setattr(rr, "generate_candidates", spy_generate)
    monkeypatch.setattr(rr, "encode_unique", spy_unique)
    monkeypatch.setattr(rr, "_set_logits", spy_set_logits)
    local = clone_params(params)
    opt = ad.Adam(param_subset(local, "rerank"), lr=1e-3)
    pairs = corpus.train[:6] + corpus.train[:1]
    rerank_train_epoch(local, cfg, vocab, pairs, cache, bm25_r,
                       m=2, n=2, kg=True, batch_size=4, opt=opt,
                       rng=np.random.default_rng(5), max_gen_len=8)
    assert len(chunks) == 2
    for chunk in chunks:
        for q in set(chunk["queries"]):
            q_ids = tuple(encode_text(q, vocab, cfg.max_seq_len))
            assert chunk["all_rows"].count(q_ids) == 1
        assert chunk["cache"] is cache
        offered = {tuple(s) for g in chunk["sets"] for s in g}
        in_pool = {s for s in offered if s in cache.resp_row}
        assert in_pool  # retrieved, BM25 and truth entries are pool responses
        [handed] = chunk["groups"]
        assert len(handed) == len(set(handed))
        assert set(handed) == offered - in_pool
        assert sorted(chunk["rows"]) == sorted(handed)


def test_pool_rows_stand_in_for_encoding_every_candidate(small_world):
    # float32, as trained and served: a chunk's logits with pool responses
    # read from the cache equal those of encoding every distinct candidate
    # of its sets from scratch
    from heronet import rerank as rr
    from heronet.model import encode_unique, match_logit

    corpus, vocab, cfg, _, _, bm25_r = small_world
    params = init_params(cfg, seed=11, dtype=np.float32)
    cache = build_pool_cache(params, cfg, vocab, corpus.pool)
    chunk = corpus.train[:4]
    drawn, q_rows = generate_candidates(
        params, cfg, vocab, [splice_context(p) for p in chunk], cache, 3, 2,
        True, rngs=[np.random.default_rng(2)] * len(chunk), max_gen_len=10)
    sets = [[c for c, _ in dedupe_candidates(build_candidate_set(
        cfg, vocab, pair, entry, cache, bm25_r, 3))]
        for pair, entry in zip(chunk, drawn)]
    flat = {tuple(c) for s in sets for c in s}
    assert {c for c in flat if c in cache.resp_row} not in (set(), flat)
    with ad.no_grad():
        got = rr._set_logits(params, cfg, q_rows.data, sets, cache).data
        fresh, idx = encode_unique(params, cfg, sets)
        owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
        want = match_logit(
            params, ad.Tensor(np.concatenate([q_rows.data, fresh.data])),
            owner, len(sets) + np.concatenate(idx)).data
    assert got.dtype == want.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
