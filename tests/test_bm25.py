"""Okapi BM25 scoring and ranked retrieval."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heronet.bm25 import Bm25Index

from helpers import bm25_score


def brute_force_top_k(index, query, k, exclude=None):
    exclude = exclude or set()
    ranked = sorted((i for i in range(index.n_docs) if i not in exclude),
                    key=lambda i: (-bm25_score(index, query, i), i))
    return ranked[:k]


class TestScore:
    def test_hand_arithmetic_three_docs(self):
        # docs: [1 2], [1 1 3], [4]; query: [1]; k1=1.2 b=0.75
        index = Bm25Index([[1, 2], [1, 1, 3], [4]])
        idf = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
        avgdl = 2.0
        d0 = idf * 1 * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 2 / avgdl))
        d1 = idf * 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * 3 / avgdl))
        assert bm25_score(index, [1], 0) == pytest.approx(d0, rel=1e-12)
        assert bm25_score(index, [1], 1) == pytest.approx(d1, rel=1e-12)
        assert bm25_score(index, [1], 2) == 0.0

    def test_no_overlap_scores_zero(self):
        index = Bm25Index([[1, 2], [3]])
        assert bm25_score(index, [9, 8], 0) == 0.0
        assert bm25_score(index, [9], 1) == 0.0

    def test_single_term_monotonicity(self):
        index = Bm25Index([[5, 6], [7, 8]])
        assert bm25_score(index, [5], 0) > bm25_score(index, [5], 1) == 0.0

    def test_repeated_query_term_doubles(self):
        index = Bm25Index([[1, 2], [1, 1, 3], [4]])
        for d in range(3):
            assert bm25_score(index, [1, 1], d) == pytest.approx(
                2 * bm25_score(index, [1], d))

    def test_scores_matches_score(self):
        rng = np.random.default_rng(3)
        docs = [list(rng.integers(0, 12, size=rng.integers(1, 9))) for _ in range(25)]
        index = Bm25Index(docs)
        for _ in range(10):
            q = list(rng.integers(0, 14, size=rng.integers(1, 5)))
            vec = index.scores(q)
            for d in range(25):
                assert vec[d] == pytest.approx(bm25_score(index, q, d),
                                               abs=1e-12)

    def test_invalid_doc_rejected(self):
        index = Bm25Index([[1]])
        with pytest.raises(IndexError):
            bm25_score(index, [1], 1)
        with pytest.raises(IndexError):
            bm25_score(index, [1], -1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            Bm25Index([])


class TestTopK:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            docs = [list(rng.integers(0, 10, size=rng.integers(1, 9)))
                    for _ in range(20)]
            index = Bm25Index(docs)
            q = list(rng.integers(0, 10, size=rng.integers(1, 5)))
            exclude = set(int(i) for i in rng.choice(20, size=trial % 4,
                                                     replace=False))
            k = int(rng.integers(1, 8))
            assert index.top_k(q, k, exclude) == brute_force_top_k(index, q, k,
                                                                   exclude)

    def test_tie_breaks_to_lower_id(self):
        index = Bm25Index([[1, 2], [1, 2], [1, 2]])
        assert index.top_k([1], 3) == [0, 1, 2]
        assert index.top_k([1], 3, exclude={0}) == [1, 2]

    def test_k_larger_than_corpus(self):
        index = Bm25Index([[1], [2], [3]])
        assert len(index.top_k([1], 50)) == 3
        assert len(index.top_k([1], 50, exclude={1})) == 2

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(5)
        docs = [list(rng.integers(0, 8, size=rng.integers(1, 7))) for _ in range(30)]
        index = Bm25Index(docs)
        for _ in range(10):
            q = list(rng.integers(0, 8, size=3))
            out = index.top_k(q, 30)
            vals = [bm25_score(index, q, i) for i in out]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_exclusion_respected(self):
        index = Bm25Index([[1], [1], [1], [2]])
        out = index.top_k([1], 4, exclude={0, 2})
        assert set(out) & {0, 2} == set()

    def test_rank_one_maximizes_score(self):
        rng = np.random.default_rng(17)
        docs = [list(rng.integers(0, 6, size=rng.integers(1, 6))) for _ in range(40)]
        index = Bm25Index(docs)
        q = [0, 1]
        best = index.top_k(q, 1)[0]
        assert bm25_score(index, q, best) == max(
            bm25_score(index, q, i) for i in range(40))

    def test_k_zero_rejected(self):
        index = Bm25Index([[1]])
        with pytest.raises(ValueError):
            index.top_k([1], 0)


@given(docs=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=6),
                     min_size=1, max_size=12),
       query=st.lists(st.integers(0, 9), max_size=5),
       k=st.integers(1, 15),
       exclude=st.sets(st.integers(-2, 14), max_size=5))
def test_top_k_is_a_sort_of_scores(docs, query, k, exclude):
    """Descending score, the lower id on ties, excluded ids dropped."""
    index = Bm25Index(docs)
    scores = index.scores(query)
    kept = [i for i in range(len(docs)) if i not in exclude]
    want = sorted(kept, key=lambda i: (-scores[i], i))[:k]
    assert index.top_k(query, k, exclude) == want
