"""Top-k accuracy evaluation over case sets.

A predictor is any callable mapping (pos, neg) finding-id sets to a ranked
(disease, probability) list plus a count of input findings it had to skip.
Both the learned model and the expert engine are wrapped this way, so the
same harness produces their report tables.

A predictor may also carry a `batch` attribute: a callable that takes an
iterable of (pos, neg) pairs and yields, in order, what the predictor would
return for each. `rank_case_set` uses it when present and calls the
predictor case by case otherwise, so `evaluate` and `ddx predict` rank a
case set the same way. The model's batch
method ranks with `model.rank_cases`, whose output equals the per-case
path's byte for byte; the expert predictor has none.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .data import CaseSet
from .expert import expert_inference
from .kb import KnowledgeBase
from .model import ModelParameters, encode_case, predict_topk, rank_cases
from .simulate import ClinicalCase

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


def truth_label(case: ClinicalCase) -> str:
    """Highest-probability disease in the case's differential label."""
    return case.ddx.entries[0][0]  # entries are sorted, ties already on id


def top_k_accuracy(predictions: list[list[str]], truths: list[str], k: int) -> float:
    """Fraction of cases whose truth appears in the first k predictions."""
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(truths)} truths")
    if not predictions:
        raise ValueError("no predictions")
    hits = sum(1 for ranked, truth in zip(predictions, truths) if truth in ranked[:k])
    return hits / len(predictions)


def target_in_top_k(predictions: list[list[str]], target: str, k: int) -> float:
    """Fraction of cases whose first k predictions contain the target."""
    if not predictions:
        raise ValueError("no predictions")
    return sum(1 for ranked in predictions if target in ranked[:k]) / len(predictions)


def model_predictor(p: ModelParameters) -> Predictor:
    """Rank every vocabulary disease with the model, dropout off; `batch`
    ranks a sequence of cases with the same bytes."""
    L = p.vocab.n_diseases

    def predict(pos: frozenset, neg: frozenset) -> tuple[list[tuple[str, float]], int]:
        x, skipped = encode_case(p.vocab, pos, neg)
        return predict_topk(p, x, L), skipped

    def batch(cases: Iterable[tuple[frozenset, frozenset]]) -> Iterator[tuple[list[tuple[str, float]], int]]:
        encoded = [encode_case(p.vocab, pos, neg) for pos, neg in cases]
        return zip(rank_cases(p, [x for x, _ in encoded]), (skipped for _, skipped in encoded))

    predict.batch = batch
    return predict


def rank_case_set(predictor: Predictor, cases: CaseSet) -> Iterator[tuple[list[tuple[str, float]], int]]:
    """The predictor's (ranking, skipped findings) for each case, in order."""
    pairs = ((case.pos, case.neg) for case in cases)
    batch = getattr(predictor, "batch", None)
    return batch(pairs) if batch is not None else (predictor(pos, neg) for pos, neg in pairs)


def expert_predictor(kb: KnowledgeBase, top_k: int | None = None) -> Predictor:
    """Rank diseases with the expert engine.

    top_k=None ranks every non-excluded disease; a finite top_k mirrors the
    engine's short retained list, leaving deeper ranks unscored. Findings
    the KB does not know are skipped.
    """
    k = top_k if top_k is not None else len(kb.diseases)

    def predict(pos: frozenset, neg: frozenset) -> tuple[list[tuple[str, float]], int]:
        known_pos = {f for f in pos if kb.has_finding(f)}
        known_neg = {f for f in neg if kb.has_finding(f)}
        skipped = len(pos) + len(neg) - len(known_pos) - len(known_neg)
        ddx = expert_inference(kb, known_pos, known_neg, k)
        return list(ddx.entries), skipped

    return predict


def evaluate(
    predictor: Predictor,
    cases: CaseSet,
    ks: list[int],
    target: str | None = None,
    truth: str = "argmax",
) -> EvalReport:
    """Score every case and aggregate hit rates at each requested depth."""
    if len(cases) == 0:
        raise ValueError("empty case set")
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive integers")
    if truth not in TRUTH_MODES:
        raise ValueError(f"truth must be one of {TRUTH_MODES}, got {truth!r}")
    ks = sorted(set(ks))
    depth = max(ks + [5])

    predictions = []
    skipped_total = 0
    for ranked, skipped in rank_case_set(predictor, cases):
        predictions.append([d for d, _ in ranked])
        skipped_total += skipped

    truths = []
    for case in cases:
        if truth == "seed-disease":
            if case.seed_disease is None:
                raise ValueError(f"case {case.id!r} has no seed_disease; cannot use truth=seed-disease")
            truths.append(case.seed_disease)
        else:
            truths.append(truth_label(case))

    accuracy = {k: top_k_accuracy(predictions, truths, k) for k in ks}
    target_accuracy = None
    if target is not None:
        target_accuracy = {k: target_in_top_k(predictions, target, k) for k in ks}

    records = tuple(
        CaseRecord(
            case_id=case.id,
            truth=truths[i],
            top=tuple(predictions[i][:depth]),
            hits={k: truths[i] in predictions[i][:k] for k in ks},
            target_hits=None if target is None else {k: target in predictions[i][:k] for k in ks},
        )
        for i, case in enumerate(cases)
    )
    return EvalReport(
        accuracy=accuracy,
        n_cases=len(cases),
        truth_mode=truth,
        skipped_findings=skipped_total,
        target_disease=target,
        target_accuracy=target_accuracy,
        records=records,
    )


def format_table(reports: dict[str, EvalReport], metric: str = "accuracy") -> str:
    """Rows are k, columns are model variants, values are percentages."""
    if not reports:
        raise ValueError("no reports")
    names = list(reports)
    ks = sorted({k for r in reports.values() for k in getattr(r, metric, {}) or {}})
    width = max(12, *(len(n) + 2 for n in names))
    header = "top-k".ljust(8) + "".join(n.rjust(width) for n in names)
    lines = [header, "-" * len(header)]
    for k in ks:
        row = f"{k}".ljust(8)
        for n in names:
            values = getattr(reports[n], metric) or {}
            cell = f"{100.0 * values[k]:.1f}%" if k in values else "-"
            row += cell.rjust(width)
        lines.append(row)
    return "\n".join(lines)
