"""Desk-scale synthetic knowledge bases and assessment-style case sets.

`make_separable_kb` builds a KB whose diseases are separable by design:
each owns EXCLUSIVE_PER_DISEASE exclusive findings at a frequency drawn
from EXCLUSIVE_FREQ, on top of N_BACKGROUND background findings shared by
every disease and a small demographic block (sex plus age brackets, one age
ruled out per disease). Models trained on cases simulated from it should
recover the seed disease, which makes the KB a useful end-to-end fixture.

`make_novel_disease_cases` fabricates cases for a disease the KB does not
know: some of its N_NOVEL_FINDINGS exclusive out-of-KB findings, plus KB
findings borrowed from BORROW_PER_CASE existing diseases so that, with the
novel findings stripped away, the cases look like ambiguous mixtures of
known diseases.

Changing a constant moves the fixtures' bytes, which the bench and the tests pin.
"""
from __future__ import annotations

import numpy as np

from .kb import CLINICAL, DEMOGRAPHIC, Disease, Finding, KnowledgeBase, frequency
from .simulate import ClinicalCase
from .data import normalize_ddx

SEXES = ("male", "female")
AGES = ("age_child", "age_young", "age_mid", "age_old")
EXCLUSIVE_PER_DISEASE = 3
EXCLUSIVE_FREQ = (0.7, 0.95)
N_BACKGROUND = 6
N_NOVEL_FINDINGS = 5
BORROW_PER_CASE = 4


def make_separable_kb(n_diseases: int = 20, seed: int = 0) -> KnowledgeBase:
    rng = np.random.default_rng(seed)
    diseases = [Disease(id=f"d{i:02d}", display_name=f"Disease {i:02d}") for i in range(n_diseases)]

    findings: list[Finding] = []
    freqs: dict[tuple[str, str], float] = {}

    for i, d in enumerate(diseases):
        for j in range(EXCLUSIVE_PER_DISEASE):
            fid = f"d{i:02d}_f{j}"
            findings.append(Finding(id=fid, display_name=f"Exclusive finding {j} of {d.id}", kind=CLINICAL))
            freqs[(d.id, fid)] = float(rng.uniform(*EXCLUSIVE_FREQ))

    # Background findings link to every disease: half pos-eligible at
    # moderate frequency, half rare enough to feed the negative gate.
    for b in range(N_BACKGROUND):
        fid = f"bg{b}"
        findings.append(Finding(id=fid, display_name=f"Background finding {b}", kind=CLINICAL))
        lo, hi = ((0.25, 0.45) if b < (N_BACKGROUND + 1) // 2 else (0.04, 0.12))
        for d in diseases:
            freqs[(d.id, fid)] = float(rng.uniform(lo, hi))

    for sex in SEXES:
        findings.append(Finding(id=sex, display_name=sex, kind=DEMOGRAPHIC, mutex_group="sex"))
    for age in AGES:
        findings.append(Finding(id=age, display_name=age.replace("_", " "), kind=DEMOGRAPHIC, mutex_group="age"))

    for i, d in enumerate(diseases):
        split = float(rng.uniform(0.35, 0.65))
        freqs[(d.id, "male")] = split
        freqs[(d.id, "female")] = 1.0 - split
        impossible = int(rng.integers(len(AGES)))  # one age bracket per disease is ruled out
        for a, age in enumerate(AGES):
            if a != impossible:
                freqs[(d.id, age)] = float(rng.uniform(0.2, 0.6))

    return KnowledgeBase(diseases=diseases, findings=findings, frequencies=freqs)


def make_novel_disease_cases(
    kb: KnowledgeBase, novel_id: str = "novel", n_cases: int = 20, seed: int = 7
) -> list[ClinicalCase]:
    """One-hot labeled cases for a disease outside the KB.

    Each case carries the novel disease's exclusive out-of-KB findings on
    top of a KB-visible part built to look like the simulated population:
    one exclusive finding borrowed from each of BORROW_PER_CASE distinct
    KB diseases, backgrounds and explicit negatives at population-typical
    rates, and demographics compatible with every borrowed disease. With
    the novel findings stripped away the case is an ambiguous mixture of
    known diseases rather than a recognizable novel signature.
    """
    rng = np.random.default_rng(seed)
    novel = [f"{novel_id}_x{j}" for j in range(N_NOVEL_FINDINGS)]
    common_bg = sorted(f.id for f in kb.findings if f.id.startswith("bg"))[: 3]
    rare_bg = sorted(f.id for f in kb.findings if f.id.startswith("bg"))[3:]
    cases = []
    for t in range(n_cases):
        pos = {f for f in novel if rng.random() < 0.8}
        if not pos:
            pos.add(novel[int(rng.integers(len(novel)))])
        sex = SEXES[int(rng.integers(len(SEXES)))]
        age = AGES[int(rng.integers(len(AGES)))]
        pos |= {sex, age}
        # Borrow only from diseases plausible under the case's demographics,
        # so every borrowed disease stays a live competitor for a masked model.
        pool = [
            d.id
            for d in kb.diseases
            if frequency(kb, d.id, sex) > 0 and frequency(kb, d.id, age) > 0
        ]
        for did in rng.choice(pool, size=min(BORROW_PER_CASE, len(pool)), replace=False):
            owned = [f.id for f in kb.findings if f.id.startswith(f"{did}_")]
            pos.add(owned[int(rng.integers(len(owned)))])
        pos |= {f for f in common_bg if rng.random() < 0.35}
        neg = {f for f in rare_bg if rng.random() < 0.25}
        cases.append(
            ClinicalCase(
                id=f"{novel_id}-{t}",
                pos=frozenset(pos),
                neg=frozenset(neg),
                ddx=normalize_ddx([(novel_id, 1.0)]),
                source="assessment",
                seed_disease=novel_id,
            )
        )
    return cases
