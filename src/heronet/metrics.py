"""Generation and retrieval metrics.

Pinned conventions, chosen once and used by every caller:

  bleu     corpus-level BLEU-4.  Clipped n-gram counts are pooled over the
           corpus per order; a zero pooled count enters as eps=1e-9 (an
           order with no candidate n-grams at all also enters as eps).
           Brevity penalty exp(1 - r/c) when c < r.  Scale 0-100.
  rouge_l  per-pair LCS F-measure with beta=1, scale 0-100; corpus score
           is the mean over pairs.
  meteor   exact-match unigrams only.  Each candidate token, scanned left
           to right, matches the earliest unmatched reference occurrence;
           chunks are counted on that alignment.  F_mean = 10PR/(R+9P),
           penalty 0.5*(chunks/matches)^3, zero when nothing matches.
           Scale 0-1; corpus score is the mean.
  chrf     character n-grams n=1..6 with spaces removed.  An order counts
           only when both sides have at least one n-gram of that order.
           Arithmetic-mean precision/recall over counted orders, F with
           beta=2, scale 0-100; corpus score is the mean.
  retrieval  mrr = mean(1/rank), hit@k = fraction of ranks <= k, acc =
           hit@1, over 1-based truth ranks.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

_BLEU_EPS = 1e-9
HIT_KS = (5, 10, 50)


@dataclass
class GenReport:
    bleu: float
    rouge_l: float
    meteor: float
    chrf: float

    def as_dict(self) -> dict:
        return {"bleu": self.bleu, "rouge_l": self.rouge_l,
                "meteor": self.meteor, "chrf": self.chrf}


@dataclass
class RetrReport:
    mrr: float
    acc: float
    hits: dict

    def as_dict(self) -> dict:
        out = {"mrr": self.mrr, "acc": self.acc}
        for k in sorted(self.hits):
            out[f"hit@{k}"] = self.hits[k]
        return out


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates: list, references: list) -> float:
    if len(candidates) != len(references):
        raise ValueError("candidate and reference lists differ in length")
    if not candidates:
        raise ValueError("empty corpus")
    matched = [0] * 4
    total = [0] * 4
    c_len = r_len = 0
    for cand, ref in zip(candidates, references):
        ct, rt = cand.split(), ref.split()
        c_len += len(ct)
        r_len += len(rt)
        for n in range(1, 5):
            cn = _ngram_counts(ct, n)
            rn = _ngram_counts(rt, n)
            total[n - 1] += sum(cn.values())
            matched[n - 1] += sum(min(c, rn[g]) for g, c in cn.items())
    if c_len == 0:
        return 0.0
    log_p = 0.0
    for m, t in zip(matched, total):
        if t == 0 or m == 0:
            p = _BLEU_EPS if t == 0 else _BLEU_EPS / t
        else:
            p = m / t
        log_p += math.log(p)
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_p / 4.0) * 100.0


def _lcs_len(a, b) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> float:
    ct, rt = candidate.split(), reference.split()
    if not ct or not rt:
        return 0.0
    lcs = _lcs_len(ct, rt)
    if lcs == 0:
        return 0.0
    p, r = lcs / len(ct), lcs / len(rt)
    return 2.0 * p * r / (p + r) * 100.0


def meteor(candidate: str, reference: str) -> float:
    ct, rt = candidate.split(), reference.split()
    if not ct or not rt:
        return 0.0
    used = [False] * len(rt)
    pairs = []
    for i, w in enumerate(ct):
        for j, y in enumerate(rt):
            if not used[j] and y == w:
                used[j] = True
                pairs.append((i, j))
                break
    m = len(pairs)
    if m == 0:
        return 0.0
    p, r = m / len(ct), m / len(rt)
    f_mean = 10.0 * p * r / (r + 9.0 * p)
    chunks = 1
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    return f_mean * (1.0 - 0.5 * (chunks / m) ** 3)


def chrf(candidate: str, reference: str, max_order: int = 6,
         beta: float = 2.0) -> float:
    h = candidate.replace(" ", "")
    r = reference.replace(" ", "")
    precisions, recalls = [], []
    for n in range(1, max_order + 1):
        hn = _ngram_counts(h, n)
        rn = _ngram_counts(r, n)
        if not hn or not rn:
            continue
        m = sum(min(c, rn[g]) for g, c in hn.items())
        precisions.append(m / sum(hn.values()))
        recalls.append(m / sum(rn.values()))
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    rr = sum(recalls) / len(recalls)
    denom = beta * beta * p + rr
    if denom == 0:
        return 0.0
    return (1.0 + beta * beta) * p * rr / denom * 100.0


def generation_report(candidates: list, references: list) -> GenReport:
    if len(candidates) != len(references) or not candidates:
        raise ValueError("need equal-length non-empty candidate/reference lists")
    n = len(candidates)
    return GenReport(
        bleu=bleu(candidates, references),
        rouge_l=sum(rouge_l(c, r) for c, r in zip(candidates, references)) / n,
        meteor=sum(meteor(c, r) for c, r in zip(candidates, references)) / n,
        chrf=sum(chrf(c, r) for c, r in zip(candidates, references)) / n,
    )


def retrieval_metrics(rankings: list) -> RetrReport:
    """rankings: (1-based truth rank, pool size) per query."""
    if not rankings:
        raise ValueError("empty rankings")
    for rank, pool in rankings:
        if not 1 <= rank <= pool:
            raise ValueError(f"rank {rank} outside pool of {pool}")
    ranks = np.array([r for r, _ in rankings], dtype=np.float64)
    hits = {k: float((ranks <= k).mean()) for k in HIT_KS}
    return RetrReport(mrr=float((1.0 / ranks).mean()),
                      acc=float((ranks <= 1).mean()), hits=hits)


def render_table(values: dict, title: str | None = None) -> str:
    """Aligned two-column text table for terminal reports."""
    if not values:
        raise ValueError("nothing to render")
    width = max(len(str(k)) for k in values)
    lines = [title] if title else []
    for k, v in values.items():
        shown = f"{v:.4f}" if isinstance(v, float) else str(v)
        lines.append(f"{str(k):<{width}}  {shown}")
    return "\n".join(lines)


def report_json(values: dict) -> str:
    """Flat JSON object, keys in insertion order."""
    return json.dumps(values, indent=2)
