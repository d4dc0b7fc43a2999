"""Synthetic clinical case generation from a knowledge base.

Each case starts from a seed disease y. Demographics are drawn first, each
included with probability FREQ(y, f) under mutual exclusion. A target count
L of clinical findings is then drawn from 5 up to the number still free,
capped at MAX_FINDINGS_CAP, and the disease's clinical findings are walked
once in descending-frequency order: common findings (FREQ >= POS_THRESHOLD)
enter the positives with probability FREQ(y, f), rare ones enter the
explicit negatives when a uniform draw exceeds NEG_GATE. The resulting
finding sets are labeled with the expert engine's differential diagnosis,
so the label is a distribution over diseases rather than the seed alone.

Both walks are compiled with the KB (`ScoringTables.walks`). A positive
takes its finding's mutex group; a later finding in a taken group is
skipped without an RNG draw.

Every case owns an RNG stream derived from (seed, case index), which makes
datasets reproducible byte-for-byte and independent of generation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expert import DifferentialDiagnosis, expert_inference
from .kb import KnowledgeBase, scoring_tables

CASE_SOURCES = ("expert_sim", "assessment", "vignette")

POS_THRESHOLD = 0.2
NEG_GATE = 0.75
MAX_FINDINGS_CAP = 40


@dataclass(frozen=True)
class SimConfig:
    cases_total: int
    seed: int = 0
    min_cases_per_disease: int = 50
    ddx_top_k: int = 5

    def __post_init__(self):
        if self.cases_total < 1:
            raise ValueError("cases_total must be >= 1")
        if self.min_cases_per_disease < 0:
            raise ValueError("min_cases_per_disease must be >= 0")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.ddx_top_k < 1:
            raise ValueError("ddx_top_k must be >= 1")


@dataclass(frozen=True)
class ClinicalCase:
    id: str
    pos: frozenset[str]
    neg: frozenset[str]
    ddx: DifferentialDiagnosis
    source: str = "expert_sim"
    seed_disease: str | None = None

    def __post_init__(self):
        overlap = self.pos & self.neg
        if overlap:
            raise ValueError(f"case {self.id!r}: findings in both pos and neg: {sorted(overlap)}")
        if self.source not in CASE_SOURCES:
            raise ValueError(f"case {self.id!r}: source must be one of {CASE_SOURCES}, got {self.source!r}")


def case_rng(seed: int, case_index: int) -> np.random.Generator:
    """Independent per-case stream; generation order cannot matter."""
    return np.random.default_rng(np.random.SeedSequence([seed, 1, case_index]))


def simulate_case(
    kb: KnowledgeBase,
    disease_id: str,
    rng: np.random.Generator,
    cfg: SimConfig,
    case_id: str = "sim-0",
) -> ClinicalCase:
    """Generate one labeled case seeded on `disease_id`."""
    demographics, clinical = scoring_tables(kb).walks[disease_id]
    if not clinical:
        raise ValueError(f"disease {disease_id!r} has no nonzero clinical findings; cannot simulate")

    pos: set[str] = set()
    neg: set[str] = set()
    taken: set[str] = set()  # mutex groups of the findings in pos

    # Demographic pass, ascending id order: each finding whose group is
    # still free is included with probability FREQ(y, f).
    for fid, q, group in demographics:
        if group in taken:
            continue
        if rng.random() < q:
            pos.add(fid)
            if group is not None:
                taken.add(group)
    n_demo = len(pos)

    # Clinical findings in a group a demographic took are never drawn.
    upper = max(5, min(sum(group not in taken for _, _, group in clinical), MAX_FINDINGS_CAP))
    target = int(rng.integers(5, upper, endpoint=True)) + n_demo

    for fid, q, group in clinical:
        if len(pos) + len(neg) > target:
            break
        if group in taken:
            continue
        if q >= POS_THRESHOLD:
            if rng.random() < q:
                pos.add(fid)
                if group is not None:
                    taken.add(group)
        elif rng.random() > NEG_GATE:
            neg.add(fid)

    ddx = expert_inference(kb, pos, neg, cfg.ddx_top_k)
    return ClinicalCase(
        id=case_id,
        pos=frozenset(pos),
        neg=frozenset(neg),
        ddx=ddx,
        source="expert_sim",
        seed_disease=disease_id,
    )


def simulable_diseases(kb: KnowledgeBase) -> list[str]:
    """Disease ids with at least one nonzero clinical finding, ascending."""
    return sorted(did for did, (_, clinical) in scoring_tables(kb).walks.items() if clinical)


def simulate_dataset(kb: KnowledgeBase, cfg: SimConfig) -> list[ClinicalCase]:
    """Generate cfg.cases_total cases with a per-disease floor.

    The first min_cases_per_disease * |D*| cases cover every simulable
    disease in ascending id order; the remainder draws seed diseases
    uniformly. Output is fully determined by (kb, cfg).
    """
    dstar = simulable_diseases(kb)
    if not dstar:
        raise ValueError("no simulable disease in knowledge base")
    floor = len(dstar) * cfg.min_cases_per_disease
    if cfg.cases_total < floor:
        raise ValueError(
            f"cases_total={cfg.cases_total} cannot cover {len(dstar)} diseases "
            f"x min_cases_per_disease={cfg.min_cases_per_disease} (= {floor})"
        )
    labels = [d for d in dstar for _ in range(cfg.min_cases_per_disease)]
    chooser = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    labels.extend(dstar[int(chooser.integers(len(dstar)))] for _ in range(cfg.cases_total - floor))

    return [
        simulate_case(kb, label, case_rng(cfg.seed, i), cfg, case_id=f"sim-{i}") for i, label in enumerate(labels)
    ]
