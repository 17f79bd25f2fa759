"""Generation metrics, retrieval metrics, and report rendering."""

import json
import math

import numpy as np
import pytest

from heronet.metrics import (
    bleu,
    chrf,
    generation_report,
    meteor,
    render_table,
    report_json,
    retrieval_metrics,
    rouge_l,
)

EPS = 1e-9


def random_sentence(rng, max_words=8, vocab=("red", "blue", "cat", "dog", "run",
                                              "sit", "the", "a")):
    k = int(rng.integers(0, max_words + 1))
    return " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=k))


class TestBleu:
    def test_identical_corpus_is_100(self):
        sents = ["the cat sat on the mat today ok", "a dog ran far away today ok"]
        assert bleu(sents, sents) == pytest.approx(100.0)

    def test_disjoint_is_tiny(self):
        assert bleu(["aa bb cc dd"], ["xx yy zz ww"]) < 1e-3

    def test_clipping_hand_case(self):
        # cand "the the the" vs ref "the cat": p1 = 1/3 clipped,
        # p2 = eps/2, p3 = eps/1, no 4-grams -> eps, c=3 > r=2 -> bp=1
        want = 100.0 * math.exp(
            (math.log(1 / 3) + math.log(EPS / 2) + math.log(EPS)
             + math.log(EPS)) / 4.0)
        assert bleu(["the the the"], ["the cat"]) == pytest.approx(want,
                                                                   rel=1e-9)

    def test_brevity_penalty(self):
        # cand shorter than ref: same 1-gram precision, penalized
        short = bleu(["the cat"], ["the cat sat on a mat"])
        matched = bleu(["the cat sat on a mat"], ["the cat sat on a mat"])
        assert short < matched

    def test_pooled_counts_oracle(self):
        def oracle(cands, refs):
            from collections import Counter

            logs = 0.0
            c_len = sum(len(c.split()) for c in cands)
            r_len = sum(len(r.split()) for r in refs)
            if c_len == 0:
                return 0.0
            for n in range(1, 5):
                m = t = 0
                for c, r in zip(cands, refs):
                    cw, rw = c.split(), r.split()
                    cg = Counter(tuple(cw[i: i + n])
                                 for i in range(len(cw) - n + 1))
                    rg = Counter(tuple(rw[i: i + n])
                                 for i in range(len(rw) - n + 1))
                    t += sum(cg.values())
                    m += sum(min(v, rg[g]) for g, v in cg.items())
                p = (EPS if t == 0 else (EPS / t if m == 0 else m / t))
                logs += math.log(p)
            bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
            return bp * math.exp(logs / 4) * 100

        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            cands = [random_sentence(rng) for _ in range(n)]
            refs = [random_sentence(rng, max_words=6) or "the" for _ in range(n)]
            assert bleu(cands, refs) == pytest.approx(oracle(cands, refs),
                                                      rel=1e-9, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu(["a"], ["a", "b"])
        with pytest.raises(ValueError):
            bleu([], [])


class TestRougeL:
    def test_identical_is_100(self):
        assert rouge_l("the cat sat", "the cat sat") == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert rouge_l("aa bb", "cc dd") == 0.0

    def test_two_thirds_case(self):
        assert rouge_l("the cat sat", "the cat ran") == pytest.approx(200 / 3)

    def test_lcs_against_recursive_oracle(self):
        import functools

        def lcs_oracle(a, b):
            @functools.lru_cache(maxsize=None)
            def go(i, j):
                if i == len(a) or j == len(b):
                    return 0
                if a[i] == b[j]:
                    return 1 + go(i + 1, j + 1)
                return max(go(i + 1, j), go(i, j + 1))

            return go(0, 0)

        rng = np.random.default_rng(1)
        for _ in range(200):
            c = random_sentence(rng)
            r = random_sentence(rng)
            ct, rt = tuple(c.split()), tuple(r.split())
            if not ct or not rt:
                assert rouge_l(c, r) == 0.0
                continue
            lcs = lcs_oracle(ct, rt)
            if lcs == 0:
                assert rouge_l(c, r) == 0.0
            else:
                p, q = lcs / len(ct), lcs / len(rt)
                assert rouge_l(c, r) == pytest.approx(200 * p * q / (p + q))


class TestMeteor:
    def test_no_match_is_zero(self):
        assert meteor("aa bb", "cc dd") == 0.0

    def test_single_word_half(self):
        assert meteor("cat", "cat") == pytest.approx(0.5)

    def test_identical_four_words(self):
        assert meteor("a b c d", "a b c d") == pytest.approx(1 - 0.5 / 64)

    def test_chunk_break_hand_case(self):
        # pairs (0,0),(1,1),(2,3),(3,4): one break -> 2 chunks, m=4
        p, r = 1.0, 4 / 5
        f_mean = 10 * p * r / (r + 9 * p)
        want = f_mean * (1 - 0.5 * (2 / 4) ** 3)
        assert meteor("a b c d", "a b x c d") == pytest.approx(want)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            v = meteor(random_sentence(rng), random_sentence(rng))
            assert 0.0 <= v <= 1.0


class TestChrf:
    def test_identical_is_100(self):
        assert chrf("abc def", "abc def") == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert chrf("aaa", "bbb") == 0.0

    def test_enumerated_hand_case(self):
        # orders 1-3 effective: P = R = (2/3 + 1/2 + 0)/3 = 7/18; F = P
        assert chrf("abc", "abd") == pytest.approx(700 / 18)

    def test_short_strings_skip_missing_orders(self):
        assert chrf("ab", "ab") == pytest.approx(100.0)

    def test_space_insensitive(self):
        assert chrf("ab cd", "abcd") == pytest.approx(100.0)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            v = chrf(random_sentence(rng), random_sentence(rng))
            assert 0.0 <= v <= 100.0


class TestGenerationReport:
    def test_fields_and_ranges(self):
        rng = np.random.default_rng(4)
        cands = [random_sentence(rng) for _ in range(30)]
        refs = [random_sentence(rng) or "the" for _ in range(30)]
        rep = generation_report(cands, refs).as_dict()
        assert set(rep) == {"bleu", "rouge_l", "meteor", "chrf"}
        assert 0 <= rep["bleu"] <= 100 and 0 <= rep["rouge_l"] <= 100
        assert 0 <= rep["meteor"] <= 1 and 0 <= rep["chrf"] <= 100

    def test_reorder_invariance(self):
        rng = np.random.default_rng(5)
        cands = [random_sentence(rng) or "a" for _ in range(20)]
        refs = [random_sentence(rng) or "b" for _ in range(20)]
        base = generation_report(cands, refs).as_dict()
        perm = list(rng.permutation(20))
        shuffled = generation_report([cands[i] for i in perm],
                                     [refs[i] for i in perm]).as_dict()
        for key in base:
            assert shuffled[key] == pytest.approx(base[key], abs=1e-12)

    def test_big_fuzz_range_containment(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            c, r = random_sentence(rng, 4), random_sentence(rng, 4)
            assert 0.0 <= rouge_l(c, r) <= 100.0
            assert 0.0 <= meteor(c, r) <= 1.0
            assert 0.0 <= chrf(c, r) <= 100.0


class TestRetrievalMetrics:
    def test_all_rank_one(self):
        rep = retrieval_metrics([(1, 100)] * 4)
        assert rep.mrr == 1.0 and rep.acc == 1.0
        assert all(v == 1.0 for v in rep.hits.values())

    def test_single_rank_four(self):
        rep = retrieval_metrics([(4, 100)])
        assert rep.mrr == pytest.approx(0.25)
        assert rep.acc == 0.0
        assert rep.hits[5] == 1.0

    def test_arithmetic_oracle(self):
        rep = retrieval_metrics([(1, 100), (3, 100), (20, 100), (60, 100)])
        assert rep.mrr == pytest.approx((1 + 1 / 3 + 1 / 20 + 1 / 60) / 4)
        assert rep.mrr == pytest.approx(0.35)
        assert rep.acc == 0.25
        assert rep.hits[5] == 0.5
        assert rep.hits[10] == 0.5
        assert rep.hits[50] == 0.75

    def test_monotone_hits_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ranks = [(int(rng.integers(1, 101)), 100)
                     for _ in range(int(rng.integers(1, 30)))]
            rep = retrieval_metrics(ranks)
            assert rep.acc <= rep.hits[5] <= rep.hits[10] <= rep.hits[50] <= 1
            assert rep.mrr >= rep.acc

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValueError):
            retrieval_metrics([(0, 10)])
        with pytest.raises(ValueError):
            retrieval_metrics([(11, 10)])
        with pytest.raises(ValueError):
            retrieval_metrics([])

    def test_exact_json_keys(self):
        rep = retrieval_metrics([(2, 100)]).as_dict()
        assert list(rep) == ["mrr", "acc", "hit@5", "hit@10", "hit@50"]


class TestRendering:
    def test_table_alignment(self):
        out = render_table({"mrr": 0.35, "hit@50": 0.75, "n": 4}, title="eval")
        lines = out.splitlines()
        assert lines[0] == "eval"
        assert lines[1].startswith("mrr   ")
        assert "0.3500" in lines[1]
        assert lines[3] == "n       4"

    def test_json_round_trip(self):
        d = {"bleu": 12.5, "mrr": 0.3}
        assert json.loads(report_json(d)) == d
