"""Candidate deduplication, ranking, and rerank-training tests."""

import numpy as np
import pytest

from heronet import autodiff as ad
from heronet.bm25 import Bm25Index
from heronet.corpus import (build_vocab, encode_text,
                            generate_synthetic_corpus)
from heronet.discriminator import score_pairs
from heronet.model import (ModelConfig, clone_params, init_params,
                           param_subset, params_fingerprint)
from heronet.rerank import (RankedCandidate, build_candidate_set,
                            dedupe_candidates, rerank, rerank_train_epoch,
                            select_outputs)
from heronet.retrieval import build_pool_cache, pool_token_lists


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


# ---------------------------------------------------------------------------
# ranking


def test_rerank_scores_match_discriminator_head(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    q = encode_text(corpus.test[0].query, vocab)
    cands = [(encode_text(e.response, vocab), "retrieved")
             for e in corpus.pool.entries[:5]]
    ranked = rerank(params, cfg, q, cands)
    assert len(ranked) == 5
    scores = [c.score for c in ranked]
    assert scores == sorted(scores, reverse=True)
    want = score_pairs(params, cfg, [q] * 5, [c for c, _ in cands])
    got = {c.tokens: c.score for c in ranked}
    for (ids, _), w in zip(cands, want):
        assert got[tuple(ids)] == pytest.approx(w, rel=1e-12)


def test_rerank_tie_break_keeps_candidate_order(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    local = clone_params(params)
    local["psi_m.w_m"].data[:] = 0.0  # every score collapses to 0.5
    q = encode_text(corpus.test[0].query, vocab)
    cands = [(encode_text(e.response, vocab), "retrieved")
             for e in corpus.pool.entries[:4]]
    ranked = rerank(local, cfg, q, cands)
    assert [list(c.tokens) for c in ranked] == [c for c, _ in cands]
    assert all(c.score == 0.5 for c in ranked)


def test_rerank_dedupes_before_scoring(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    q = encode_text(corpus.test[1].query, vocab)
    resp = encode_text(corpus.pool.entries[0].response, vocab)
    ranked = rerank(params, cfg, q, [(resp, "retrieved"), (resp, "truth")])
    assert len(ranked) == 1
    assert ranked[0].provenance == "truth"


def test_rerank_preserves_provenance(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    q = encode_text(corpus.test[2].query, vocab)
    cands = [(encode_text(corpus.pool.entries[0].response, vocab), "retrieved"),
             ([7, 9, 11], "generated"),
             (encode_text(corpus.pool.entries[1].response, vocab), "bm25")]
    ranked = rerank(params, cfg, q, cands)
    assert sorted(c.provenance for c in ranked) == ["bm25", "generated",
                                                    "retrieved"]


def test_rerank_rejects_empty(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    with pytest.raises(ValueError):
        rerank(params, cfg, [7], [])


def test_select_outputs_rank1_and_topk():
    ranked = [RankedCandidate((1,), 0.9, "generated"),
              RankedCandidate((2,), 0.8, "retrieved"),
              RankedCandidate((3,), 0.2, "bm25")]
    best, top = select_outputs(ranked, 2)
    assert best is ranked[0]
    assert top == ranked[:2]


def test_select_outputs_rejects_bad_k():
    ranked = [RankedCandidate((1,), 0.9, "generated")]
    with pytest.raises(ValueError):
        select_outputs(ranked, 0)
    with pytest.raises(ValueError):
        select_outputs(ranked, 2)


# ---------------------------------------------------------------------------
# candidate assembly


def test_candidate_set_provenance_mix(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    pair = corpus.test[0]
    cands, _ = build_candidate_set(params, cfg, vocab, pair, corpus.pool,
                                   cache, bm25_r, m=3, n=2, kg=True,
                                   rng=np.random.default_rng(0),
                                   max_gen_len=10, include_truth=True)
    provs = [p for _, p in cands]
    assert provs.count("retrieved") == 3
    assert provs.count("generated") == 2
    assert provs.count("bm25") == 3
    assert provs.count("truth") == 1
    assert provs[-1] == "truth"


def test_candidate_set_without_bm25_block(small_world):
    # inference and evaluation sets carry no lexical block: m retrieved
    # plus n generated, with exactly one appended truth entry
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    pair = corpus.test[0]
    cands, _ = build_candidate_set(params, cfg, vocab, pair, corpus.pool,
                                   cache, None, m=3, n=2, kg=True,
                                   rng=np.random.default_rng(0),
                                   max_gen_len=10, include_truth=True)
    provs = [p for _, p in cands]
    assert len(cands) == 6
    assert provs.count("retrieved") == 3
    assert provs.count("generated") == 2
    assert provs.count("truth") == 1


def test_candidate_set_truth_survives_dedupe_once(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    pair = corpus.test[0]  # truth response is in the pool, so overlaps happen
    cands, _ = build_candidate_set(params, cfg, vocab, pair, corpus.pool,
                                   cache, bm25_r, m=corpus.pool.size, n=1,
                                   kg=True, rng=np.random.default_rng(1),
                                   max_gen_len=10, include_truth=True)
    merged = dedupe_candidates(cands)
    truth_ids = encode_text(pair.response, vocab)
    hits = [(c, p) for c, p in merged if c == truth_ids]
    assert len(hits) == 1 and hits[0][1] == "truth"


# ---------------------------------------------------------------------------
# training


def test_rerank_train_moves_only_matching_head(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    local = clone_params(params)
    frozen = [k for k in local if not k.startswith("psi_m.")]
    before = params_fingerprint(local, frozen)
    opt = ad.Adam(param_subset(local, "rerank"), lr=1e-3)
    loss = rerank_train_epoch(local, cfg, vocab, corpus.train[:6],
                              corpus.pool, cache, bm25_r, m=3, n=1, kg=True,
                              batch_size=3, opt=opt,
                              rng=np.random.default_rng(2), max_gen_len=8)
    assert np.isfinite(loss)
    assert params_fingerprint(local, frozen) == before
    assert params_fingerprint(local, ["psi_m.w_m"]) != \
        params_fingerprint(params, ["psi_m.w_m"])


def test_rerank_train_loss_decreases_over_epochs(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    local = clone_params(params)
    opt = ad.Adam(param_subset(local, "rerank"), lr=1e-2)
    rng = np.random.default_rng(3)
    losses = [rerank_train_epoch(local, cfg, vocab, corpus.train[:8],
                                 corpus.pool, cache, bm25_r, m=3, n=1,
                                 kg=True, batch_size=4, opt=opt, rng=rng,
                                 max_gen_len=8)
              for _ in range(3)]
    assert losses[-1] < losses[0]


def test_rerank_train_deterministic_given_seed(small_world):
    corpus, vocab, cfg, params, cache, bm25_r = small_world
    runs = []
    for _ in range(2):
        local = clone_params(params)
        opt = ad.Adam(param_subset(local, "rerank"), lr=1e-3)
        runs.append(rerank_train_epoch(local, cfg, vocab, corpus.train[:5],
                                       corpus.pool, cache, bm25_r, m=2, n=2,
                                       kg=True, batch_size=5, opt=opt,
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
    rerank_train_epoch(local, cfg, vocab, corpus.train[:7], corpus.pool,
                       cache, bm25_r, m=2, n=2, kg=True, batch_size=3,
                       opt=opt, rng=np.random.default_rng(5), max_gen_len=8)
    assert calls["build"] == 7
    assert calls["generate"] == [3, 3, 1]


def test_rerank_train_encodes_each_distinct_sequence_once_per_chunk(
        small_world, monkeypatch):
    # one encode_unique call per chunk; inside it, every distinct query
    # and candidate sequence of the chunk reaches the encoder exactly once
    from heronet import model
    from heronet import rerank as rr

    corpus, vocab, cfg, params, cache, bm25_r = small_world
    chunks = []
    encode, encode_unique = model.encode_mean_pool, rr.encode_unique

    def spy_encode(params, cfg, ids, mask=None, prefix=""):
        chunks[-1]["rows"].extend(tuple(s) for s in ids)
        return encode(params, cfg, ids, mask, prefix)

    def spy_unique(params, cfg, groups, prefix=""):
        chunks.append({"groups": groups, "rows": []})
        return encode_unique(params, cfg, groups, prefix)

    monkeypatch.setattr(model, "encode_mean_pool", spy_encode)
    monkeypatch.setattr(rr, "encode_unique", spy_unique)
    local = clone_params(params)
    opt = ad.Adam(param_subset(local, "rerank"), lr=1e-3)
    pairs = corpus.train[:6] + corpus.train[:1]
    rerank_train_epoch(local, cfg, vocab, pairs, corpus.pool, cache, bm25_r,
                       m=2, n=2, kg=True, batch_size=4, opt=opt,
                       rng=np.random.default_rng(5), max_gen_len=8)
    assert len(chunks) == 2
    for chunk in chunks:
        offered = [tuple(s) for g in chunk["groups"] for s in g]
        assert len(chunk["rows"]) == len(set(chunk["rows"]))
        assert set(chunk["rows"]) == set(offered)
        assert len(chunk["rows"]) < len(offered)
