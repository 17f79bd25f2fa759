"""Corpus generation, vocabulary, tokenizer, and JSONL interchange."""

import json

import pytest

from heronet.corpus import (
    BOS_ID,
    EOS_ID,
    EOU_ID,
    PAD_ID,
    RESERVED,
    SEP_ID,
    UNK_ID,
    CandidatePool,
    Corpus,
    DialoguePair,
    PoolEntry,
    Vocab,
    build_vocab,
    decode_ids,
    encode_text,
    generate_synthetic_corpus,
    read_pairs,
    read_pool,
    read_vocab,
    splice_context,
    validate_corpus,
    write_pairs,
    write_pool,
    write_vocab,
)


@pytest.fixture(scope="module")
def desk():
    return generate_synthetic_corpus(seed=7, n_train=1000, n_eval=200, pool_size=500)


def as_tuples(corpus):
    splits = []
    for split in (corpus.train, corpus.valid, corpus.test):
        splits.append([(tuple(p.context), p.query, p.response, p.cluster_id)
                       for p in split])
    splits.append([(e.id, e.query, e.response) for e in corpus.pool.entries])
    return splits


class TestGenerator:
    def test_sizes(self, desk):
        assert len(desk.train) == 1000
        assert len(desk.valid) == 200
        assert len(desk.test) == 200
        assert desk.pool.size == 500

    def test_deterministic(self, desk):
        again = generate_synthetic_corpus(seed=7, n_train=1000, n_eval=200,
                                          pool_size=500)
        assert as_tuples(desk) == as_tuples(again)

    def test_seed_changes_output(self, desk):
        other = generate_synthetic_corpus(seed=8, n_train=1000, n_eval=200,
                                          pool_size=500)
        assert as_tuples(desk) != as_tuples(other)

    def test_invariants_hold(self, desk):
        validate_corpus(desk)

    def test_invariants_hold_small(self):
        for seed in range(5):
            validate_corpus(generate_synthetic_corpus(seed=seed, n_train=50,
                                                      n_eval=10, pool_size=30))

    def test_pool_has_paraphrased_truth(self, desk):
        by_response = {e.response: e for e in desk.pool.entries}
        for pair in desk.test:
            entry = by_response[pair.response]
            assert entry.query != pair.query

    def test_cluster_ids_present_and_varied(self, desk):
        ids = [p.cluster_id for p in desk.train]
        assert all(c is not None for c in ids)
        assert len(set(ids)) >= 60
        # paraphrase clusters must actually repeat for triplet mining
        assert len(ids) > len(set(ids))

    def test_query_response_surfaces_disjoint(self, desk):
        # answers paraphrase rather than echo: the only tokens a query may
        # share with any response are function words, so lexical overlap
        # carries no signal about which response belongs to which query
        glue = {"a", "an", "and", "for", "from", "in", "it", "its", "of",
                "on", "so", "that", "the", "then", "to", "with"}
        qtok, rtok = set(), set()
        for pair in desk.all_pairs():
            qtok.update(pair.query.split())
            rtok.update(pair.response.split())
        for entry in desk.pool.entries:
            qtok.update(entry.query.split())
            rtok.update(entry.response.split())
        assert qtok & rtok <= glue

    def test_desk_vocab_covers_every_token(self, desk):
        # the default vocabulary budget must hold the whole desk corpus;
        # silently lost tokens would turn slot mentions into [UNK]
        vocab = build_vocab(desk, 512)
        for pair in desk.all_pairs():
            for tok in pair.query.split() + pair.response.split():
                assert tok in vocab.token_to_id

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(seed=1, n_train=10, n_eval=20, pool_size=10)
        with pytest.raises(ValueError):
            generate_synthetic_corpus(seed=1, n_train=0, n_eval=5, pool_size=10)

    def test_validator_catches_missing_truth(self, desk):
        broken = Corpus(desk.train, desk.valid,
                        desk.test + [DialoguePair([], "q q", "not in pool zz")],
                        desk.pool)
        with pytest.raises(ValueError, match="missing from pool"):
            validate_corpus(broken)


class TestVocab:
    def test_reserved_positions(self, desk):
        vocab = build_vocab(desk)
        assert vocab.id_to_token[:6] == list(RESERVED)
        assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID, SEP_ID, EOU_ID) == (0, 1, 2, 3, 4, 5)

    def test_size_cap(self, desk):
        vocab = build_vocab(desk, max_size=512)
        assert vocab.size <= 512
        small = build_vocab(desk, max_size=40)
        assert small.size == 40

    def test_frequency_oracle(self, desk):
        from collections import Counter

        vocab = build_vocab(desk, max_size=100)
        counts = Counter()
        for pair in desk.all_pairs():
            for turn in pair.context:
                counts.update(turn.split())
            counts.update(pair.query.split())
            counts.update(pair.response.split())
        for entry in desk.pool.entries:
            counts.update(entry.query.split())
            counts.update(entry.response.split())
        expected = [t for t, _ in sorted(counts.items(),
                                         key=lambda kv: (-kv[1], kv[0]))[:94]]
        assert vocab.id_to_token[6:] == expected

    def test_tie_break_lexicographic(self):
        pair = DialoguePair([], "b a c", "b a")
        toy = Corpus([pair], [DialoguePair([], "d", "d")],
                     [DialoguePair([], "e", "e")], CandidatePool([]))
        vocab = build_vocab(toy, max_size=9)
        # counts: a=2 b=2 d=2 e=2 c=1; three slots left after reserved
        assert vocab.id_to_token[6:] == ["a", "b", "d"]

    def test_rejects_tiny_cap(self, desk):
        with pytest.raises(ValueError):
            build_vocab(desk, max_size=6)


class TestTokenizer:
    def test_unknown_maps_to_unk(self, desk):
        vocab = build_vocab(desk)
        ids = encode_text("install zzzzunknown", vocab)
        assert ids[1] == UNK_ID
        assert ids[0] != UNK_ID

    def test_truncation(self, desk):
        vocab = build_vocab(desk)
        long_text = " ".join(["install"] * 300)
        ids = encode_text(long_text, vocab, max_len=256)
        assert len(ids) == 256
        assert ids == encode_text(long_text, vocab)[:256]

    def test_empty_rejected(self, desk):
        vocab = build_vocab(desk)
        with pytest.raises(ValueError):
            encode_text("   ", vocab)

    def test_round_trip(self, desk):
        vocab = build_vocab(desk)
        for pair in desk.train[:50]:
            text = pair.query
            assert decode_ids(encode_text(text, vocab), vocab, keep_special=True) == text

    def test_decode_strips_special(self, desk):
        vocab = build_vocab(desk)
        word = vocab.id_to_token[10]
        ids = [BOS_ID, 10, SEP_ID, 10, EOS_ID, PAD_ID]
        assert decode_ids(ids, vocab) == f"{word} {word}"
        assert "[BOS]" in decode_ids(ids, vocab, keep_special=True)


class TestSplice:
    def test_query_first_newest_next(self):
        pair = DialoguePair(["u1", "u2", "u3"], "q", "r")
        assert splice_context(pair) == "q [EOU] u3 [EOU] u2 [EOU] u1"

    def test_no_context(self):
        assert splice_context(DialoguePair([], "just q", "r")) == "just q"

    def test_eou_is_single_token(self, desk):
        vocab = build_vocab(desk)
        pair = DialoguePair(["hello there"], "how do i install curl on ubuntu", "r")
        ids = encode_text(splice_context(pair), vocab)
        assert ids.count(EOU_ID) == 1


class TestJsonl:
    def test_pairs_round_trip(self, desk, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, desk.test)
        back = read_pairs(path)
        assert [(p.context, p.query, p.response) for p in back] == \
               [(p.context, p.query, p.response) for p in desk.test]
        assert all(p.cluster_id is None for p in back)

    def test_pair_schema_exact(self, desk, tmp_path):
        path = tmp_path / "one.jsonl"
        write_pairs(path, desk.train[:1])
        rec = json.loads(path.read_text().strip())
        assert set(rec) == {"context", "query", "response"}

    def test_pool_round_trip(self, desk, tmp_path):
        path = tmp_path / "pool.jsonl"
        write_pool(path, desk.pool)
        back = read_pool(path)
        assert [(e.id, e.query, e.response) for e in back.entries] == \
               [(e.id, e.query, e.response) for e in desk.pool.entries]

    def test_pool_rejects_sparse_ids(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [json.dumps({"id": i, "query": "q", "response": f"r {i}"})
                 for i in (0, 2)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_pool(path)

    def test_pool_reorders_by_id(self, tmp_path):
        path = tmp_path / "swap.jsonl"
        lines = [json.dumps({"id": i, "query": "q", "response": f"r {i}"})
                 for i in (1, 0)]
        path.write_text("\n".join(lines) + "\n")
        back = read_pool(path)
        assert [e.id for e in back.entries] == [0, 1]

    def test_vocab_round_trip(self, desk, tmp_path):
        path = tmp_path / "vocab.json"
        vocab = build_vocab(desk, max_size=100)
        write_vocab(path, vocab, 100)
        assert set(json.loads(path.read_text())) == {"vocab_size", "tokens"}
        back, max_size = read_vocab(path)
        assert back.id_to_token == vocab.id_to_token
        assert back.token_to_id == vocab.token_to_id
        assert max_size == 100

    @pytest.mark.parametrize("tokens, max_size", [
        (["[PAD]", "[UNK]", "the"], 10),                  # reserved cut short
        (list(RESERVED) + ["the", "the"], 10),            # a repeated token
        (list(RESERVED) + ["a", "b", "c"], 8),            # over its own size
        (list(RESERVED) + [7], 10),                       # not a string
    ])
    def test_vocab_rejects_malformed(self, tmp_path, tokens, max_size):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"vocab_size": max_size,
                                    "tokens": tokens}))
        with pytest.raises(ValueError, match="vocabulary"):
            read_vocab(path)
