"""Okapi BM25 over token-id sequences.

Scores sum over the query sequence with repeats, so a term appearing twice
in the query contributes twice.  The idf uses the ln(1 + x) form, which
keeps every score non-negative.  Built once, the index is immutable.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

K1 = 1.2   # term-frequency saturation
B = 0.75   # document-length normalization


class Bm25Index:
    def __init__(self, docs: list[list[int]]):
        if not docs:
            raise ValueError("cannot index an empty document list")
        self.docs = [list(d) for d in docs]
        self.n_docs = len(docs)
        self.doc_lens = np.array([len(d) for d in docs], dtype=np.float64)
        self.avgdl = float(self.doc_lens.mean())
        term_tfs = [Counter(d) for d in docs]
        df: Counter = Counter()
        for tfs in term_tfs:
            df.update(tfs.keys())
        self.idf = {t: math.log(1.0 + (self.n_docs - n + 0.5) / (n + 0.5))
                    for t, n in df.items()}
        # postings: term -> (doc id array, tf array) for sparse accumulation
        self.postings: dict = {}
        per_term: dict = {}
        for doc_id, tfs in enumerate(term_tfs):
            for t, tf in tfs.items():
                per_term.setdefault(t, []).append((doc_id, tf))
        for t, hits in per_term.items():
            ids = np.array([h[0] for h in hits], dtype=np.int64)
            tfs = np.array([h[1] for h in hits], dtype=np.float64)
            self.postings[t] = (ids, tfs)

    def scores(self, query: list[int]) -> np.ndarray:
        """BM25 score of the query against every document."""
        out = np.zeros(self.n_docs, dtype=np.float64)
        norm = K1 * (1.0 - B + B * self.doc_lens / self.avgdl)
        for t in query:
            if t not in self.postings:
                continue
            ids, tfs = self.postings[t]
            out[ids] += self.idf[t] * tfs * (K1 + 1.0) / (tfs + norm[ids])
        return out

    def top_k(self, query: list[int], k: int, exclude=None) -> list[int]:
        """Doc ids by descending score; ties break toward the lower id."""
        if k < 1:
            raise ValueError("k must be at least 1")
        scores = self.scores(query)
        eligible = np.arange(self.n_docs)
        if exclude:
            drop = np.fromiter(exclude, dtype=np.int64)
            keep = np.ones(self.n_docs, dtype=bool)
            keep[drop[(drop >= 0) & (drop < self.n_docs)]] = False
            eligible = eligible[keep]
        order = np.lexsort((eligible, -scores[eligible]))
        return [int(i) for i in eligible[order][:k]]
