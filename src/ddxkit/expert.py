"""Stand-in expert inference engine over a knowledge base.

Scores a disease against observed findings with a smoothed log-likelihood:

    score(d) = sum_{f in pos} ln(eps + FREQ(d, f))
             + sum_{f in neg} ln(eps + 1 - FREQ(d, f)),   eps = 1e-3

A demographic finding observed present with FREQ(d, f) = 0 excludes the
disease outright (score -inf): a patient whose demographics a disease has
never been seen with cannot have it. The differential diagnosis keeps the
top-k finite-scored diseases and renormalizes their raw scores with a
softmax, mirroring how a short retained list is reported as probabilities.
The ln terms are read from the KB's compiled tables (kb.scoring_tables),
built once per knowledge base.

The retained list is ranked on arrays, by (-score, id) and then by
(-probability, id), with the IEEE operations of `softmax_normalize`: a
differential has the same bytes as one built entry by entry in Python.

This is a simple, monotone, brute-force-verifiable scoring rule, not a
reconstruction of any production inference engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kb import SMOOTHING_EPS, KnowledgeBase, scoring_tables  # noqa: F401

DEFAULT_DDX_TOP_K = 5
_PROB_TOL = 1e-9


@dataclass(frozen=True)
class DifferentialDiagnosis:
    """Ranked (disease id, probability) pairs.

    Probabilities are positive, sum to 1 within 1e-9, and are ordered by
    descending probability with ties broken by ascending disease id.
    """

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty differential")
        total = 0.0
        prev: tuple[float, str] | None = None
        for disease, p in self.entries:
            if not p > 0.0:
                raise ValueError(f"probability for {disease!r} must be > 0, got {p}")
            key = (-p, disease)
            if prev is not None and key < prev:
                raise ValueError("entries must be sorted by descending probability, ties by id")
            prev = key
            total += p
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @property
    def diseases(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.entries)

    def top(self) -> str:
        return self.entries[0][0]


def score_all_diseases(
    kb: KnowledgeBase, pos: set[str] | frozenset[str], neg: set[str] | frozenset[str]
) -> np.ndarray:
    """Raw expert score of every disease, in kb.diseases order.

    One table row is added per finding, sorted positives then sorted
    negatives, starting from 0.0: each entry is the same float sum the
    scoring rule above spells out. Excluded diseases score -inf.
    """
    overlap = set(pos) & set(neg)
    if overlap:
        raise ValueError(f"findings in both pos and neg: {sorted(overlap)}")
    tables = scoring_tables(kb)
    score = np.zeros(len(kb.diseases))
    for table, fids in ((tables.log_present, pos), (tables.log_absent, neg)):
        for fid in sorted(fids):
            score += table[tables.row(fid)]
    return score


def score_disease(
    kb: KnowledgeBase, disease_id: str, pos: set[str] | frozenset[str], neg: set[str] | frozenset[str]
) -> float:
    """Raw expert score of one disease; -inf when a demographic excludes it."""
    if not kb.has_disease(disease_id):
        raise KeyError(f"unknown disease id: {disease_id!r}")
    column = next(c for c, d in enumerate(kb.diseases) if d.id == disease_id)
    return float(score_all_diseases(kb, pos, neg)[column])


def softmax_normalize(scores: list[float]) -> list[float]:
    """Softmax with -inf mapping to probability 0; needs one finite score."""
    if not scores:
        raise ValueError("no scores to normalize")
    for s in scores:
        if math.isnan(s) or s == math.inf:
            raise ValueError(f"scores must be finite or -inf, got {s}")
    finite = [s for s in scores if s != -math.inf]
    if not finite:
        raise ValueError("all scores are -inf")
    m = max(finite)
    weights = [0.0 if s == -math.inf else math.exp(s - m) for s in scores]
    total = sum(weights)
    return [w / total for w in weights]


def expert_inference(
    kb: KnowledgeBase,
    pos: set[str] | frozenset[str],
    neg: set[str] | frozenset[str],
    k: int = DEFAULT_DDX_TOP_K,
) -> DifferentialDiagnosis:
    """Score every disease and keep the k best finite ones, renormalized.

    The softmax runs over the retained raw scores only, so the reported
    probabilities are relative weights within the short list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = score_all_diseases(kb, pos, neg)
    finite = np.flatnonzero(scores != -math.inf)
    if not finite.size:
        raise ValueError("all diseases excluded: empty differential")
    if k < finite.size:
        # Keep the k best plus every score tied with the k-th; the id
        # tie-break below decides which of those survive.
        kth = -np.partition(-scores[finite], k - 1)[k - 1]
        finite = finite[scores[finite] >= kth]
    tables = scoring_tables(kb)
    ranked = finite[np.lexsort((tables.disease_rank[finite], -scores[finite]))][:k]
    # softmax_normalize's arithmetic on the retained scores: kept[0] is the
    # maximum, math.exp per weight and one left-to-right sum. np.exp and
    # numpy's pairwise sum could move the last bits of a probability.
    kept = scores[ranked]
    weights = list(map(math.exp, (kept - kept[0]).tolist()))
    probs = np.array(weights) / sum(weights)
    # A retained score hundreds of nats below the best underflows to exactly
    # 0 in the softmax; such entries carry no differential mass and are dropped.
    keep = probs > 0.0
    ranked, probs = ranked[keep], probs[keep]
    # Distinct scores can round to one probability: re-rank by (-p, id).
    order = np.lexsort((tables.disease_rank[ranked], -probs))
    ranked, probs = ranked[order], probs[order]
    return DifferentialDiagnosis(entries=tuple(zip(tables.disease_ids[ranked].tolist(), probs.tolist())))
