"""Top-k accuracy evaluation over case sets.

A predictor is any callable mapping (pos, neg) finding-id sets to a ranked
(disease, probability) list plus a count of input findings it had to skip.
Both the learned model and the expert engine are wrapped this way, so the
same harness produces their report tables.

`evaluate` walks the rankings once and builds one `CaseRecord` per case,
holding its hit at each requested depth; the report's accuracy and
target-accuracy tables are the means of those hits.

Each engine ranks in one place, a set-level `batch`: a callable that takes
an iterable of (pos, neg) pairs and yields, in order, each case's (ranking,
skipped) pair. The model's ranks with `model.rank_cases`, the expert's
with one `expert.expert_rankings` call, which builds no `DifferentialDiagnosis`
label. Its predictor is `batch` run on one case, with `batch` attached;
`rank_case_set` ranks a case set through that attribute, and calls a
predictor without one case by case, so `evaluate` and `ddx predict` rank a
case set the same way.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .data import CaseSet
from .expert import CaseError, expert_rankings
from .kb import KnowledgeBase, scoring_tables
from .model import ModelParameters, encode_case, rank_cases

Predictor = Callable[[frozenset, frozenset], tuple[list[tuple[str, float]], int]]

TRUTH_MODES = ("argmax", "seed-disease")


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    truth: str
    top: tuple[str, ...]
    hits: dict[int, bool]
    target_hits: dict[int, bool] | None = None


@dataclass(frozen=True)
class EvalReport:
    accuracy: dict[int, float]
    n_cases: int
    truth_mode: str
    skipped_findings: int
    target_disease: str | None = None
    target_accuracy: dict[int, float] | None = None
    records: tuple[CaseRecord, ...] = ()

    def to_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "truth_mode": self.truth_mode,
            "skipped_findings": self.skipped_findings,
            "accuracy": _by_k(self.accuracy),
            "target_disease": self.target_disease,
            "target_accuracy": _by_k(self.target_accuracy),
            "cases": [
                {
                    "id": r.case_id,
                    "truth": r.truth,
                    "top": list(r.top),
                    "hits": _by_k(r.hits),
                    "target_hits": _by_k(r.target_hits),
                }
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def _by_k(values: dict | None) -> dict | None:
    """A per-depth mapping as the report stores it: string keys in ascending k."""
    return None if values is None else {str(k): v for k, v in sorted(values.items())}


def _per_case(batch: Callable) -> Predictor:
    """The predictor that runs `batch` on one case, with `batch` attached."""

    def predict(pos: frozenset, neg: frozenset) -> tuple[list[tuple[str, float]], int]:
        return next(batch([(pos, neg)]))

    predict.batch = batch
    return predict


def model_predictor(p: ModelParameters) -> Predictor:
    """Rank every vocabulary disease with the model, dropout off."""

    def batch(cases: Iterable[tuple[frozenset, frozenset]]) -> Iterator[tuple[list[tuple[str, float]], int]]:
        encoded = [encode_case(p.vocab, pos, neg) for pos, neg in cases]
        return zip(rank_cases(p, [x for x, _ in encoded]), (skipped for _, skipped in encoded))

    return _per_case(batch)


def rank_case_set(predictor: Predictor, cases: CaseSet) -> Iterator[tuple[list[tuple[str, float]], int]]:
    """The predictor's (ranking, skipped findings) for each case, in order."""
    pairs = ((case.pos, case.neg) for case in cases)
    batch = getattr(predictor, "batch", None)
    return batch(pairs) if batch is not None else (predictor(pos, neg) for pos, neg in pairs)


def expert_predictor(kb: KnowledgeBase, top_k: int | None = None) -> Predictor:
    """Rank diseases with the expert engine, a case set in one
    expert_rankings call; no ranking is built as a DifferentialDiagnosis.

    top_k=None ranks every non-excluded disease; a finite top_k, at least 1,
    mirrors the engine's short retained list, leaving deeper ranks unscored.
    Findings the KB does not know are skipped.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1 or None, got {top_k}")
    k = top_k if top_k is not None else len(kb.diseases)
    known_ids = scoring_tables(kb).finding_row.keys()

    def batch(cases: Iterable[tuple[frozenset, frozenset]]) -> Iterator[tuple[list[tuple[str, float]], int]]:
        found = [(pos & known_ids, neg & known_ids, len(pos) + len(neg)) for pos, neg in cases]
        rankings = expert_rankings(kb, [(known_pos, known_neg) for known_pos, known_neg, _ in found], k)
        return zip(rankings, (n - len(known_pos) - len(known_neg) for known_pos, known_neg, n in found))

    return _per_case(batch)


def evaluate(
    predictor: Predictor,
    cases: CaseSet,
    ks: list[int],
    target: str | None = None,
    truth: str = "argmax",
) -> EvalReport:
    """Rank every case once, record its hits at each requested depth, and
    read both accuracy tables off the records.

    Every case's truth is resolved before anything is ranked, so a case
    without a seed disease under truth="seed-disease" raises CaseError, naming
    its index, before the predictor runs. A predictor whose rankings do not
    pair one-to-one with the cases raises ValueError. Each record keeps the
    first max(ks + [5]) ids of its ranking.
    """
    if len(cases) == 0:
        raise ValueError("empty case set")
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive integers")
    if truth not in TRUTH_MODES:
        raise ValueError(f"truth must be one of {TRUTH_MODES}, got {truth!r}")
    ks = sorted(set(ks))
    depth = max(ks + [5])

    truths = []
    for i, case in enumerate(cases):
        if truth == "seed-disease":
            if case.seed_disease is None:
                raise CaseError(i, "no seed_disease, needed by truth=seed-disease")
            truths.append(case.seed_disease)
        else:
            truths.append(case.ddx.top())

    records = []
    skipped_total = 0
    for case, label, (ranked, skipped) in zip(cases, truths, rank_case_set(predictor, cases), strict=True):
        top = tuple(d for d, _ in ranked[:depth])
        records.append(
            CaseRecord(
                case_id=case.id,
                truth=label,
                top=top,
                hits={k: label in top[:k] for k in ks},
                target_hits=None if target is None else {k: target in top[:k] for k in ks},
            )
        )
        skipped_total += skipped

    n = len(records)
    return EvalReport(
        accuracy={k: sum(r.hits[k] for r in records) / n for k in ks},
        n_cases=n,
        truth_mode=truth,
        skipped_findings=skipped_total,
        target_disease=target,
        target_accuracy=None if target is None else {k: sum(r.target_hits[k] for r in records) / n for k in ks},
        records=tuple(records),
    )


def format_table(name: str, values: dict[int, float]) -> str:
    """One column of percentages headed `name`, one row per depth k."""
    width = max(12, len(name) + 2)
    header = "top-k".ljust(8) + name.rjust(width)
    rows = [f"{k}".ljust(8) + f"{100.0 * v:.1f}%".rjust(width) for k, v in sorted(values.items())]
    return "\n".join([header, "-" * len(header), *rows])
