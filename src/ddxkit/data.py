"""Case files, vocabularies, dataset merging and train/test splitting.

Cases are stored one JSON object per line:

    {"id": "sim-0", "pos": ["cough", "fever"], "neg": ["rash"],
     "ddx": [{"disease": "flu", "p": 0.9}, {"disease": "cold", "p": 0.1}],
     "source": "expert_sim", "seed_disease": "flu"}

Weights in `ddx` need not sum to one on input; they are renormalized when
they deviate. Floats are written with shortest round-trip precision, so
read(write(read(x))) reproduces read(x) exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .expert import DifferentialDiagnosis
from .kb import CLINICAL, KnowledgeBase, check_object
from .simulate import CASE_SOURCES, ClinicalCase

_SUM_TOL = 1e-9


class CaseFormatError(ValueError):
    """Malformed case line."""


@dataclass(frozen=True)
class Vocabulary:
    """Canonical index assignment for the model's finding and disease spaces.

    `findings` and `diseases` are ascending-id tuples; their positions are
    the embedding/logit indices, so a vocabulary fully determines checkpoint
    layout. Demographic findings keep their mutex groups for reference.
    `disease_array` holds the disease ids as a read-only object array, so a
    gather by logit index returns the id strings.
    """

    findings: tuple[str, ...]
    diseases: tuple[str, ...]
    demographic_ids: frozenset[str]
    mutex_groups: dict[str, str | None] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.findings)) != len(self.findings):
            raise ValueError("duplicate finding ids in vocabulary")
        if len(set(self.diseases)) != len(self.diseases):
            raise ValueError("duplicate disease ids in vocabulary")
        if list(self.findings) != sorted(self.findings) or list(self.diseases) != sorted(self.diseases):
            raise ValueError("vocabulary findings and diseases must be in ascending id order")
        if not self.diseases:
            raise ValueError("vocabulary has no diseases")
        if not self.demographic_ids <= set(self.findings):
            raise ValueError("demographic_ids must be a subset of findings")
        object.__setattr__(self, "_finding_index", {f: i for i, f in enumerate(self.findings)})
        object.__setattr__(self, "_disease_index", {d: i for i, d in enumerate(self.diseases)})
        object.__setattr__(self, "_demo_index", {f: i for i, f in enumerate(self.demographic_list)})
        disease_array = np.array(self.diseases, dtype=object)
        disease_array.flags.writeable = False  # every ranking reads its ids from it
        object.__setattr__(self, "disease_array", disease_array)

    @property
    def demographic_list(self) -> tuple[str, ...]:
        return tuple(sorted(self.demographic_ids))

    @property
    def n_findings(self) -> int:
        return len(self.findings)

    @property
    def n_diseases(self) -> int:
        return len(self.diseases)

    @property
    def n_demographics(self) -> int:
        return len(self.demographic_ids)

    def has_finding(self, fid: str) -> bool:
        return fid in self._finding_index

    def finding_index(self, fid: str) -> int:
        return self._finding_index[fid]

    def disease_index(self, did: str) -> int:
        return self._disease_index[did]

    def demo_index(self, fid: str) -> int:
        return self._demo_index[fid]

    def to_dict(self) -> dict:
        return {
            "findings": list(self.findings),
            "diseases": list(self.diseases),
            "demographic_ids": sorted(self.demographic_ids),
            "mutex_groups": {f: g for f, g in sorted(self.mutex_groups.items()) if g is not None},
        }

    @classmethod
    def from_dict(cls, doc: dict, where: str = "vocab") -> "Vocabulary":
        """Inverse of to_dict; raises ValueError naming a field it cannot use."""
        lists = dict.fromkeys(("findings", "diseases", "demographic_ids"), list)
        errors = check_object(doc, lists | {"mutex_groups": dict}, set(lists), where)
        if not errors and not all(isinstance(f, str) for key in lists for f in doc[key]):
            errors.append(f"{where}: findings, diseases and demographic_ids must hold ids")
        if not errors and not all(isinstance(g, str) for g in doc.get("mutex_groups", {}).values()):
            errors.append(f"{where}: mutex_groups must map finding ids to group names")
        if errors:
            raise ValueError("; ".join(errors))
        groups: dict[str, str | None] = {f: None for f in doc["findings"]}
        groups.update(doc.get("mutex_groups", {}))
        return cls(
            findings=tuple(doc["findings"]),
            diseases=tuple(doc["diseases"]),
            demographic_ids=frozenset(doc["demographic_ids"]),
            mutex_groups=groups,
        )


@dataclass(frozen=True)
class CaseSet:
    cases: tuple[ClinicalCase, ...]
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for case in self.cases:
            if case.id in seen:
                raise ValueError(f"duplicate case id: {case.id!r}")
            seen.add(case.id)

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self):
        return iter(self.cases)


def normalize_ddx(weights: list[tuple[str, float]]) -> DifferentialDiagnosis:
    """Turn non-negative weights into a ranked probability distribution.

    Zero-weight entries carry no differential mass and are dropped;
    a single positive weight becomes a one-hot label.
    """
    if not weights:
        raise ValueError("empty ddx")
    seen = set()
    for did, w in weights:
        if did in seen:
            raise ValueError(f"duplicate disease in ddx: {did!r}")
        seen.add(did)
        if w < 0 or math.isnan(w) or math.isinf(w):
            raise ValueError(f"ddx weight for {did!r} must be a non-negative real, got {w}")
    positive = [(did, w) for did, w in weights if w > 0]
    if not positive:
        raise ValueError("ddx not normalizable (all weights <= 0)")
    total = sum(w for _, w in positive)
    scaled = [(did, w / total) for did, w in positive]
    # Weights already forming a distribution are kept verbatim so that
    # normalization is idempotent at the byte level.
    if abs(total - 1.0) <= _SUM_TOL:
        scaled = positive
    order = sorted(range(len(scaled)), key=lambda i: (-scaled[i][1], scaled[i][0]))
    return DifferentialDiagnosis(entries=tuple(scaled[i] for i in order))


def case_to_dict(case: ClinicalCase) -> dict:
    doc = {
        "id": case.id,
        "pos": sorted(case.pos),
        "neg": sorted(case.neg),
        "ddx": [{"disease": d, "p": p} for d, p in case.ddx.entries],
        "source": case.source,
    }
    if case.seed_disease is not None:
        doc["seed_disease"] = case.seed_disease
    return doc


def write_cases(cases: list[ClinicalCase] | CaseSet) -> str:
    """One compact JSON object per line; deterministic byte-for-byte."""
    lines = [json.dumps(case_to_dict(c), separators=(",", ":"), ensure_ascii=False) for c in cases]
    return "\n".join(lines) + ("\n" if lines else "")


def _case_from_dict(doc: dict, where: str) -> ClinicalCase:
    allowed = {"id": str, "pos": list, "neg": list, "ddx": list, "source": str, "seed_disease": str}
    errors = check_object(doc, allowed, {"id", "pos", "neg", "ddx", "source"}, where)
    if not errors:
        for key in ("pos", "neg"):
            if not all(isinstance(f, str) for f in doc[key]):
                errors.append(f"{where}: {key} must contain finding ids")
            elif len(set(doc[key])) != len(doc[key]):
                dup = min(f for f in doc[key] if doc[key].count(f) > 1)
                errors.append(f"{where}: {key} repeats finding id {dup!r}")
        for i, entry in enumerate(doc["ddx"]):
            # Inline rather than check_object: this runs for every ddx entry of every case.
            if not isinstance(entry, dict) or set(entry) != {"disease", "p"}:
                errors.append(f"{where}: ddx[{i}] must be an object with fields 'disease' and 'p'")
            elif not isinstance(entry["disease"], str) or type(entry["p"]) not in (int, float):
                errors.append(f"{where}: ddx[{i}] needs a string 'disease' and a number 'p' (not a bool)")
    if errors:
        raise CaseFormatError(errors[0])
    try:
        weights = [(entry["disease"], float(entry["p"])) for entry in doc["ddx"]]
    except OverflowError:
        raise CaseFormatError(f"{where}: a ddx 'p' is too large for a float") from None
    if doc["source"] not in CASE_SOURCES:
        raise CaseFormatError(f"{where}: source must be one of {CASE_SOURCES}")
    try:
        ddx = normalize_ddx(weights)
        return ClinicalCase(
            id=doc["id"],
            pos=frozenset(doc["pos"]),
            neg=frozenset(doc["neg"]),
            ddx=ddx,
            source=doc["source"],
            seed_disease=doc.get("seed_disease"),
        )
    except ValueError as e:
        raise CaseFormatError(f"{where}: {e}") from None


def read_cases(text: str, provenance: str = "<string>") -> CaseSet:
    """Parse a line-delimited case document, validating every record."""
    cases = []
    # Split on "\n" only: write_cases leaves U+2028, U+0085 and the like
    # unescaped inside ids, and str.splitlines would break a record there.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{provenance}:{lineno}"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            raise CaseFormatError(f"{where}: parse error at column {e.colno}: {e.msg}") from None
        except ValueError as e:  # an integer literal longer than the interpreter converts
            raise CaseFormatError(f"{where}: parse error: {e}") from None
        cases.append(_case_from_dict(doc, where))
    try:
        return CaseSet(cases=tuple(cases), provenance=(provenance,))
    except ValueError as e:
        raise CaseFormatError(f"{provenance}: {e}") from None


def read_cases_file(path) -> CaseSet:
    with open(path, encoding="utf-8") as fh:
        return read_cases(fh.read(), provenance=str(path))


def write_cases_file(cases: list[ClinicalCase] | CaseSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_cases(cases))


def merge(sets: list[CaseSet]) -> CaseSet:
    """Concatenate case sets; ids must stay unique across the inputs."""
    cases: list[ClinicalCase] = []
    provenance: list[str] = []
    for cs in sets:
        cases.extend(cs.cases)
        provenance.extend(cs.provenance)
    return CaseSet(cases=tuple(cases), provenance=tuple(provenance))


def build_vocabulary(
    sets: list[CaseSet],
    kb: KnowledgeBase | None = None,
    restrict_to: set[str] | frozenset[str] | None = None,
) -> Vocabulary:
    """Finding/disease universes from observed cases, optionally widened by
    a KB's findings and narrowed to `restrict_to`.

    Restricting to the KB's finding set reproduces the vocabulary of a
    model that ignores findings the expert system does not know about;
    leaving it unset keeps every observed finding.
    """
    findings: set[str] = set()
    diseases: set[str] = set()
    for cs in sets:
        for case in cs:
            findings |= case.pos | case.neg
            diseases |= {d for d, _ in case.ddx.entries}
    if kb is not None:
        findings |= {f.id for f in kb.findings}
    if restrict_to is not None:
        findings &= set(restrict_to)
    if not diseases:
        raise ValueError("no diseases observed; vocabulary would be empty")

    demographic: set[str] = set()
    groups: dict[str, str | None] = {}
    for fid in findings:
        if kb is not None and kb.has_finding(fid):
            f = kb.finding(fid)
            if f.kind != CLINICAL:
                demographic.add(fid)
            groups[fid] = f.mutex_group
        else:
            groups[fid] = None
    return Vocabulary(
        findings=tuple(sorted(findings)),
        diseases=tuple(sorted(diseases)),
        demographic_ids=frozenset(demographic),
        mutex_groups=groups,
    )


def split_train_test(cs: CaseSet, train_fraction: float, seed: int) -> tuple[CaseSet, CaseSet]:
    """Seeded shuffle, then the first floor(fraction * N) cases train."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(cs)
    if n < 2:
        raise ValueError("need at least 2 cases to split")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(math.floor(train_fraction * n))
    train = tuple(cs.cases[i] for i in order[:n_train])
    test = tuple(cs.cases[i] for i in order[n_train:])
    return (
        CaseSet(cases=train, provenance=cs.provenance),
        CaseSet(cases=test, provenance=cs.provenance),
    )
