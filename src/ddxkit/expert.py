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

Two outputs, one ranking:

- `expert_rankings` ranks a sequence of cases: per case, a list of
  (disease id, probability) entries. `evaluate.expert_predictor`, behind
  `ddx eval` and `ddx predict --engine expert`, reads these and passes them
  on unchecked.
- `expert_inference` labels a sequence of cases: each ranking checked and
  stored as a `DifferentialDiagnosis`. `simulate.simulate_dataset` and
  `simulate.simulate_case` read these as the cases' labels.

From ARRAY_PASS_CASES cases on, `expert_rankings` ranks them in array passes
of LABEL_CHUNK cases: one position-major sum of the cases' table rows
(`sums.position_major_sums`, shared with model pooling and the training
scatter), a row-wise top k, and the softmax over all retained entries. A
shorter call ranks its cases one at a time, which is cheaper for a few
cases. Either way the retained list is ranked by (-score, id) and then by
(-probability, id), with the IEEE operations of a Python softmax over the
retained scores (the maximum subtracted, `math.exp` per score, one
left-to-right sum): a ranking has the same bytes as one built entry by entry
in Python, whatever cases share the call.

This is a simple, monotone, brute-force-verifiable scoring rule, not a
reconstruction of any production inference engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kb import KnowledgeBase, scoring_tables
from .sums import position_major_sums

DEFAULT_DDX_TOP_K = 5
# Cases per array pass, so its temporaries stay (LABEL_CHUNK, L), as in
# model.RANK_CHUNK.
LABEL_CHUNK = 256
# A call of at least this many cases takes the array pass; a shorter one labels
# case by case. Measured on a 2-core VM over simulated cases of separable KBs at
# L = 20 and 200 and k = 5 and L: the array pass took 1.4-4.1x the per-case
# time on 2 cases, 0.90-1.46x on 8, 0.83-1.02x on 12 and 0.55-0.75x on 32.
ARRAY_PASS_CASES = 12
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
        prev_p, prev_id = math.inf, ""
        for disease, p in self.entries:
            if not p > 0.0:
                raise ValueError(f"probability for {disease!r} must be > 0, got {p}")
            if p > prev_p or (p == prev_p and disease < prev_id):
                raise ValueError("entries must be sorted by descending probability, ties by id")
            prev_p, prev_id = p, disease
            total += p
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @property
    def diseases(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.entries)

    def top(self) -> str:
        """The most probable disease; entries are sorted, so ties are already broken by id."""
        return self.entries[0][0]


class CaseError(ValueError):
    """A case the engine cannot label, located by its index in the call's cases."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"case {index}: {reason}")
        self.index = index
        self.reason = reason


def _case_rows(tables, pos, neg, index: int) -> list[int]:
    """A case's `log_terms` rows in adding order: sorted positives, then sorted negatives."""
    overlap = set(pos).intersection(neg)
    if overlap:
        raise CaseError(index, f"findings in both pos and neg: {sorted(overlap)}")
    row = tables.finding_row
    try:
        return [row[fid] for fid in sorted(pos)] + [len(row) + row[fid] for fid in sorted(neg)]
    except KeyError as e:
        raise CaseError(index, f"unknown finding {e.args[0]!r}") from None


def _row_scores(tables, pos, neg, index: int = 0) -> np.ndarray:
    """One case's raw scores, columns in ascending disease id: its rows added
    in order from 0.0."""
    gathered = tables.log_terms[_case_rows(tables, pos, neg, index)]
    if gathered.shape[1] > 1:
        # np.add.reduce adds rows 2 or more wide one after another; a single
        # column it would sum pairwise from 8 rows on.
        return np.add.reduce(gathered, axis=0, initial=0.0)
    score = np.zeros(gathered.shape[1])
    for row in gathered:
        score += row
    return score


def _set_scores(tables, cases, start: int) -> np.ndarray:
    """(B, L) raw scores of `cases`, whose first has index `start`, with the
    bytes of _row_scores: each case's rows added position-major in order."""
    rows, counts = [], []
    for i, (pos, neg) in enumerate(cases, start):
        case_rows = _case_rows(tables, pos, neg, i)
        rows += case_rows
        counts.append(len(case_rows))
    counts = np.array(counts, dtype=np.intp)
    rows = np.array(rows, dtype=np.intp)
    terms = tables.log_terms
    return position_major_sums(
        counts, np.cumsum(counts) - counts, lambda items: terms[rows[items]], terms.shape[1], terms.dtype
    )


def expert_rankings(
    kb: KnowledgeBase,
    cases: Sequence[tuple[set[str] | frozenset[str], set[str] | frozenset[str]]],
    k: int = DEFAULT_DDX_TOP_K,
) -> list[list[tuple[str, float]]]:
    """The ranked (disease id, probability) entries of each (pos, neg) case:
    its k best finite diseases, renormalized.

    The softmax runs over the retained raw scores only, so the reported
    probabilities are relative weights within the short list. A case that
    cannot be ranked (a finding the KB does not know, a finding in both pos
    and neg, every disease excluded) raises CaseError naming its index in
    `cases`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tables = scoring_tables(kb)
    k = min(k, len(tables.disease_ids))  # a k past L keeps every disease; numpy takes no k past int64
    if len(cases) < ARRAY_PASS_CASES:
        return [_row_ranking(tables, _row_scores(tables, pos, neg, i), k, i) for i, (pos, neg) in enumerate(cases)]
    out: list[list[tuple[str, float]]] = []
    for start in range(0, len(cases), LABEL_CHUNK):
        out += _set_rankings(tables, _set_scores(tables, cases[start : start + LABEL_CHUNK], start), k, start)
    return out


def expert_inference(
    kb: KnowledgeBase,
    cases: Sequence[tuple[set[str] | frozenset[str], set[str] | frozenset[str]]],
    k: int = DEFAULT_DDX_TOP_K,
) -> list[DifferentialDiagnosis]:
    """The differential label of each (pos, neg) case: its expert_rankings
    entries, checked as a DifferentialDiagnosis."""
    return [DifferentialDiagnosis(entries=tuple(entries)) for entries in expert_rankings(kb, cases, k)]


def _row_ranking(tables, scores: np.ndarray, k: int, index: int) -> list[tuple[str, float]]:
    """The ranked entries of one id-ordered score row."""
    # Columns are in id order, so a stable sort of -score ranks by (-score, id);
    # excluded diseases sort last.
    ranked = np.argsort(-scores, kind="stable")[:k]
    kept = scores[ranked]
    n = len(kept)
    if not n or kept[-1] == -math.inf:
        n = int(np.count_nonzero(kept != -math.inf))
    if not n:
        raise CaseError(index, "all diseases excluded: empty differential")
    # A Python softmax's arithmetic on the retained scores: kept[0] is the
    # maximum, math.exp per weight and one left-to-right sum. np.exp and
    # numpy's pairwise sum could move the last bits of a probability.
    weights = list(map(math.exp, (kept[:n] - kept[0]).tolist()))
    probs = np.array(weights) / sum(weights)
    # A retained score hundreds of nats below the best underflows to exactly
    # 0 in the softmax; such entries, last in the list, carry no differential
    # mass and are dropped.
    if probs[-1] == 0.0:
        n = int(np.count_nonzero(probs))
    ranked, probs = ranked[:n], probs[:n]
    # Distinct scores can round to one probability: re-rank such a row by (-p, id).
    if (probs[1:] == probs[:-1]).any():
        order = np.lexsort((ranked, -probs))
        ranked, probs = ranked[order], probs[order]
    return list(zip(tables.disease_ids[ranked].tolist(), probs.tolist()))


def _set_rankings(tables, scores: np.ndarray, k: int, start: int) -> list[list[tuple[str, float]]]:
    """The ranked entries of each row of id-ordered `scores`, whose first row
    is case `start`, with the bytes of _row_ranking."""
    L = scores.shape[1]
    n = np.minimum(np.count_nonzero(scores != -math.inf, axis=1), k)
    empty = np.flatnonzero(n == 0)
    if empty.size:
        raise CaseError(start + int(empty[0]), "all diseases excluded: empty differential")
    neg = -scores
    if k < L:
        top = np.argpartition(neg, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(neg, top, axis=1).max(axis=1)
        top.sort(axis=1)
        top = np.take_along_axis(top, np.argsort(np.take_along_axis(neg, top, axis=1), axis=1, kind="stable"), axis=1)
        # Which of the scores tied with the k-th the partition kept is
        # arbitrary: rank such rows in full.
        cut = np.count_nonzero(neg <= kth[:, None], axis=1) > k
        if cut.any():
            top[cut] = np.argsort(neg[cut], axis=1, kind="stable")[:, :k]
    else:
        top = np.argsort(neg, axis=1, kind="stable")
    kept = np.take_along_axis(scores, top, axis=1)
    valid = np.arange(top.shape[1]) < n[:, None]
    weights = list(map(math.exp, (kept - kept[:, :1])[valid].tolist()))
    ends = np.cumsum(n).tolist()
    totals = [sum(weights[a:b]) for a, b in zip([0] + ends, ends)]
    probs = np.zeros(top.shape)
    probs[valid] = weights
    probs /= np.array(totals)[:, None]
    keep = probs > 0.0
    tied = (probs[:, 1:] == probs[:, :-1]) & (kept[:, 1:] != kept[:, :-1]) & keep[:, 1:]
    for b in np.flatnonzero(tied.any(axis=1)).tolist():
        c = int(keep[b].sum())
        order = np.lexsort((top[b, :c], -probs[b, :c]))
        top[b, :c], probs[b, :c] = top[b, :c][order], probs[b, :c][order]
    ids = tables.disease_ids[top[keep]].tolist()
    ps = probs[keep].tolist()
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    return [list(zip(ids[a:b], ps[a:b])) for a, b in zip([0] + ends, ends)]
