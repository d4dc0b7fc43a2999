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
skipped without consuming a uniform. The clinical walk's uniforms are drawn
in one call, one per clinical finding of the disease.

Every case owns an RNG stream derived from (seed, case index), which makes
datasets reproducible byte-for-byte and independent of generation order.
The label feeds no draw, so `simulate_dataset` runs in two passes: it draws
every case's findings, then labels the whole set with one `expert_inference`
call. `simulate_case` draws and labels a single case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .expert import DifferentialDiagnosis, expert_inference
from .kb import ConfigError, KnowledgeBase, scoring_tables

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
            raise ConfigError("cases_total", "must be >= 1")
        if self.min_cases_per_disease < 0:
            raise ConfigError("min_cases_per_disease", "must be >= 0")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed", "must be a 64-bit unsigned integer")
        if self.ddx_top_k < 1:
            raise ConfigError("ddx_top_k", "must be >= 1")


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


def case_rngs(seed: int, n: int) -> Iterator[np.random.Generator]:
    """case_rng(seed, i) for i in range(n), each seeded from a row of one
    uint32 array. SeedSequence reads a list of ints as the concatenation of
    each int's 32-bit words, least significant first, and an int below 2**32
    as one word, so row i, the words of [seed, 1, i], seeds the same stream."""
    words = [(seed >> s) & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((n, len(words) + 2), dtype=np.uint32)
    entropy[:, :-2] = words
    entropy[:, -2] = 1
    entropy[:, -1] = np.arange(n)
    return (np.random.default_rng(np.random.SeedSequence(row)) for row in entropy)


def _draw_findings(walk: tuple[tuple, tuple, dict], rng: np.random.Generator) -> tuple[set[str], set[str]]:
    """One case's (pos, neg) finding sets, walked along `walk`."""
    demographics, clinical, group_counts = walk
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
    free = len(clinical)
    for group in taken:
        free -= group_counts.get(group, 0)
    upper = max(5, min(free, MAX_FINDINGS_CAP))
    target = int(rng.integers(5, upper, endpoint=True)) + n_demo

    # One uniform per clinical finding, drawn in one call: the walk consumes
    # them in order, the values its scalar draws would have returned.
    uniforms = iter(rng.random(len(clinical)).tolist())
    for fid, q, group in clinical:
        if len(pos) + len(neg) > target:
            break
        if group in taken:
            continue
        if q >= POS_THRESHOLD:
            if next(uniforms) < q:
                pos.add(fid)
                if group is not None:
                    taken.add(group)
        elif next(uniforms) > NEG_GATE:
            neg.add(fid)
    return pos, neg


def simulate_case(
    kb: KnowledgeBase,
    disease_id: str,
    rng: np.random.Generator,
    cfg: SimConfig,
    case_id: str = "sim-0",
) -> ClinicalCase:
    """Generate one labeled case seeded on `disease_id`.

    `rng` is consumed past the walk: the clinical walk draws one uniform per
    clinical finding of the disease, whether or not it reaches them all.
    """
    walk = scoring_tables(kb).walks[disease_id]
    if not walk[1]:
        raise ValueError(f"disease {disease_id!r} has no nonzero clinical findings; cannot simulate")
    pos, neg = _draw_findings(walk, rng)
    return _labelled(case_id, disease_id, pos, neg, expert_inference(kb, [(pos, neg)], cfg.ddx_top_k)[0])


def _labelled(case_id: str, disease_id: str, pos: set[str], neg: set[str], ddx: DifferentialDiagnosis) -> ClinicalCase:
    return ClinicalCase(
        id=case_id, pos=frozenset(pos), neg=frozenset(neg), ddx=ddx, source="expert_sim", seed_disease=disease_id
    )


def simulable_diseases(kb: KnowledgeBase) -> list[str]:
    """Disease ids with at least one nonzero clinical finding, ascending."""
    return sorted(did for did, (_, clinical, _) in scoring_tables(kb).walks.items() if clinical)


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

    walks = scoring_tables(kb).walks
    drawn = [_draw_findings(walks[label], rng) for label, rng in zip(labels, case_rngs(cfg.seed, len(labels)))]
    ddxs = expert_inference(kb, drawn, cfg.ddx_top_k)
    return [
        _labelled(f"sim-{i}", label, pos, neg, ddx)
        for i, (label, (pos, neg), ddx) in enumerate(zip(labels, drawn, ddxs))
    ]


def label_metrics(cases: Sequence[ClinicalCase]) -> dict[str, float]:
    """How noisy a simulated set's labels are, as means over its cases.

    `findings_per_case` counts pos and neg findings, `ddx_size_mean` the
    differential's entries, and `ddx_entropy_mean` its entropy in nats.
    `seed_top1_share` is the share of cases whose differential ranks the seed
    disease first, and `seed_in_ddx_share` the share that hold it at all.
    """
    if not cases:
        raise ValueError("no cases to measure")
    n = len(cases)
    return {
        "findings_per_case": sum(len(c.pos) + len(c.neg) for c in cases) / n,
        "ddx_size_mean": sum(len(c.ddx.entries) for c in cases) / n,
        "ddx_entropy_mean": math.fsum(-math.fsum(p * math.log(p) for _, p in c.ddx.entries) for c in cases) / n,
        "seed_top1_share": sum(c.ddx.top() == c.seed_disease for c in cases) / n,
        "seed_in_ddx_share": sum(c.seed_disease in c.ddx.diseases for c in cases) / n,
    }
