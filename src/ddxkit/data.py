"""Case files, vocabularies, dataset merging and train/test splitting.

Cases are stored one JSON object per line:

    {"id": "sim-0", "pos": ["cough", "fever"], "neg": ["rash"],
     "ddx": [{"disease": "flu", "p": 0.9}, {"disease": "cold", "p": 0.1}],
     "source": "expert_sim", "seed_disease": "flu"}

Weights in `ddx` need not sum to one on input; they are renormalized when
they deviate. Floats are written with shortest round-trip precision, so
read(write(read(x))) reproduces read(x) exactly.

`read_cases` checks each record in one pass, in this order, and the first
check to fail raises CaseFormatError naming the file and line:

1. the line holds one JSON value;
2. the value is an object with the fields id, pos, neg, ddx and source,
   optionally seed_disease, and no other, each of its JSON type (unknown
   fields are named first, in the line's order, then missing and mistyped
   ones in the order above);
3. pos, then neg, lists distinct finding ids;
4. each ddx entry, in order, is an object {"disease": id, "p": number};
5. every p fits a float;
6. source is one of CASE_SOURCES;
7. the ddx is a distribution, by normalize_ddx. One with distinct diseases
   that DifferentialDiagnosis accepts as it stands (positive weights summing
   to 1 within 1e-9, sorted by descending p, ties by ascending id, as
   write_cases writes it) is kept as read; any other has its zero weights
   dropped and is rescaled and sorted, or draws an error naming the fault;
8. no finding is in both pos and neg;
9. the id is not on an earlier line.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .expert import DifferentialDiagnosis
from .kb import CLINICAL, KnowledgeBase, check_object, read_utf8
from .simulate import CASE_SOURCES, ClinicalCase

_SUM_TOL = 1e-9
_FIELDS = {"id": str, "pos": list, "neg": list, "ddx": list, "source": str, "seed_disease": str}
_REQUIRED = frozenset(("id", "pos", "neg", "ddx", "source"))
_ENTRY_FIELDS = frozenset(("disease", "p"))
_ID_TYPES = frozenset((str,))


class CaseFormatError(ValueError):
    """Malformed case line."""


@dataclass(frozen=True)
class Vocabulary:
    """Canonical index assignment for the model's finding and disease spaces.

    `findings` and `diseases` are ascending-id tuples; their positions are
    the embedding/logit indices, so a vocabulary fully determines checkpoint
    layout. `demographic_ids` are the findings the demographic stream reads.
    `disease_array` holds the disease ids as a read-only object array, so a
    gather by logit index returns the id strings.
    """

    findings: tuple[str, ...]
    diseases: tuple[str, ...]
    demographic_ids: frozenset[str]

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
        }

    @classmethod
    def from_dict(cls, doc: dict, where: str = "vocab") -> "Vocabulary":
        """Inverse of to_dict; raises ValueError naming a field it cannot use."""
        lists = dict.fromkeys(("findings", "diseases", "demographic_ids"), list)
        errors = check_object(doc, lists, set(lists), where)
        if not errors and not all(isinstance(f, str) for key in lists for f in doc[key]):
            errors.append(f"{where}: findings, diseases and demographic_ids must hold ids")
        if errors:
            raise ValueError("; ".join(errors))
        try:
            return cls(
                findings=tuple(doc["findings"]),
                diseases=tuple(doc["diseases"]),
                demographic_ids=frozenset(doc["demographic_ids"]),
            )
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None


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
    a single positive weight becomes a one-hot label. Distinct diseases whose
    weights DifferentialDiagnosis accepts as they stand are kept verbatim.
    """
    if len(dict(weights)) == len(weights):
        try:
            return DifferentialDiagnosis(tuple(weights))
        except ValueError:
            pass
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


def _finding_set(ids: list, key: str, where: str) -> frozenset[str]:
    """The record's `key` list as a set of distinct finding ids."""
    if not _ID_TYPES.issuperset(map(type, ids)):
        raise CaseFormatError(f"{where}: {key} must contain finding ids")
    found = frozenset(ids)
    if len(found) != len(ids):
        dup = min(f for f in ids if ids.count(f) > 1)
        raise CaseFormatError(f"{where}: {key} repeats finding id {dup!r}")
    return found


def _case_from_dict(doc, where: str) -> ClinicalCase:
    """One decoded record as a case, checked in one pass in the order the
    module docstring lists; the first check to fail raises CaseFormatError.
    The field checks use exact types: JSON decodes to no subclass."""
    if not (
        type(doc) is dict
        and (doc.keys() == _REQUIRED or doc.keys() == _FIELDS.keys())
        and type(doc["id"]) is str
        and type(doc["pos"]) is list
        and type(doc["neg"]) is list
        and type(doc["ddx"]) is list
        and type(doc["source"]) is str
        and type(doc.get("seed_disease", "")) is str
    ):
        errors = check_object(doc, _FIELDS, _REQUIRED, where)
        if errors:
            raise CaseFormatError(errors[0])
    pos = _finding_set(doc["pos"], "pos", where)
    neg = _finding_set(doc["neg"], "neg", where)
    weights = []
    too_large = False
    for i, entry in enumerate(doc["ddx"]):
        if type(entry) is not dict or entry.keys() != _ENTRY_FIELDS:
            raise CaseFormatError(f"{where}: ddx[{i}] must be an object with fields 'disease' and 'p'")
        disease, p = entry["disease"], entry["p"]
        if type(disease) is not str or (type(p) is not float and type(p) is not int):
            raise CaseFormatError(f"{where}: ddx[{i}] needs a string 'disease' and a number 'p' (not a bool)")
        if type(p) is int:
            try:
                p = float(p)
            except OverflowError:
                too_large = True  # reported once every entry has its shape checked
                continue
        weights.append((disease, p))
    if too_large:
        raise CaseFormatError(f"{where}: a ddx 'p' is too large for a float")
    if doc["source"] not in CASE_SOURCES:
        raise CaseFormatError(f"{where}: source must be one of {CASE_SOURCES}")
    try:
        return ClinicalCase(doc["id"], pos, neg, normalize_ddx(weights), doc["source"], doc.get("seed_disease"))
    except ValueError as e:
        raise CaseFormatError(f"{where}: {e}") from None


def read_cases(text: str, provenance: str = "<string>") -> CaseSet:
    """Parse a line-delimited case document, validating every record."""
    cases = []
    first_line: dict[str, int] = {}  # case id -> the line it first appears on
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
        except (ValueError, RecursionError) as e:  # an over-long integer literal, or nesting too deep to decode
            raise CaseFormatError(f"{where}: parse error: {e}") from None
        case = _case_from_dict(doc, where)
        first = first_line.setdefault(case.id, lineno)
        if first != lineno:
            raise CaseFormatError(f"{where}: duplicate case id {case.id!r} (first on line {first})")
        cases.append(case)
    return CaseSet(cases=tuple(cases), provenance=(provenance,))


def read_cases_file(path) -> CaseSet:
    return read_cases(read_utf8(path, CaseFormatError), provenance=str(path))


def write_cases_file(cases: list[ClinicalCase] | CaseSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_cases(cases))


def merge(sets: list[CaseSet]) -> CaseSet:
    """Concatenate case sets; ids must stay unique across the inputs.

    A repeated id raises CaseFormatError naming the provenance of both sets.
    """
    cases: list[ClinicalCase] = []
    provenance: list[str] = []
    names = [" + ".join(cs.provenance) or f"case set {i}" for i, cs in enumerate(sets)]
    first_set: dict[str, int] = {}  # case id -> index of the set it first appears in
    for i, cs in enumerate(sets):
        for case in cs.cases:
            first = first_set.setdefault(case.id, i)
            if first != i:
                raise CaseFormatError(f"{names[i]}: duplicate case id {case.id!r}, also in {names[first]}")
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
            diseases.update(case.ddx.diseases)
    if kb is not None:
        findings |= {f.id for f in kb.findings}
    if restrict_to is not None:
        findings &= set(restrict_to)
    if not diseases:
        raise ValueError("no diseases observed; vocabulary would be empty")

    demographic = set() if kb is None else {f.id for f in kb.findings if f.kind != CLINICAL} & findings
    return Vocabulary(
        findings=tuple(sorted(findings)),
        diseases=tuple(sorted(diseases)),
        demographic_ids=frozenset(demographic),
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
