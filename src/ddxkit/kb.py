"""Expert-system knowledge base: diseases, findings, and disease-finding frequencies.

The KB document is a JSON object with three arrays:

    {"diseases":    [{"id": "flu", "name": "Influenza"}, ...],
     "findings":    [{"id": "fever", "name": "Fever", "kind": "clinical"},
                     {"id": "male", "name": "Male", "kind": "demographic",
                      "mutex_group": "sex"}, ...],
     "frequencies": [{"disease": "flu", "finding": "fever", "freq": 0.8}, ...]}

A missing (disease, finding) pair means frequency exactly 0, and a zero
entry is checked like any other, then dropped. Unknown fields are rejected.
Findings sharing a mutex_group are mutually exclusive in a patient; every
demographic finding must carry one.

One pass (`_read_document`) decodes and checks a document, behind both
`validate_kb_document` and `parse_knowledge_base`. It reports every error,
in document order, each beginning with where it is: `top level`,
`diseases[i]`, `findings[i]`, `frequencies[i]`, or `syntax error` for text
that is not JSON.

Parsing compiles nothing; `scoring_tables(kb)` compiles the KB on first use,
once, into the expert's log-frequency tables and the simulator's walks.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

DEMOGRAPHIC = "demographic"
CLINICAL = "clinical"
FINDING_KINDS = (DEMOGRAPHIC, CLINICAL)
SMOOTHING_EPS = 1e-3
# A disease with fewer nonzero clinical findings draws a warning: a simulated case targets at least five.
MIN_CLINICAL_FINDINGS = 3


class KBError(ValueError):
    """Malformed or invariant-violating knowledge base document."""


class ConfigError(ValueError):
    """A setting the run cannot use: out of range, or one a training run
    diverged at. `field` names it, and the message begins with it."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field = field


@dataclass(frozen=True)
class Finding:
    id: str
    display_name: str
    kind: str
    mutex_group: str | None = None


@dataclass(frozen=True)
class Disease:
    id: str
    display_name: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    def lines(self) -> list[str]:
        return [f"error: {e}" for e in self.errors] + [f"warning: {w}" for w in self.warnings]


@dataclass(frozen=True)
class ScoringTables:
    """The KB compiled for the expert scoring rule and the case simulator.

    Row r of `log_terms` holds ln(eps + FREQ) of finding `kb.findings[r]` and
    row F + r its ln(eps + 1 - FREQ), F findings in all; a demographic
    finding a disease never has is -inf in its present row, so adding that
    row excludes the disease. Column j belongs to disease `disease_ids[j]`
    (an object array, so a gather by column returns the id strings), in
    ascending id order: a stable sort of a score row breaks ties by id.

    `walks[d]` holds disease d's demographic findings by ascending id, then
    its clinical findings with FREQ > 0 by descending frequency and id, each
    as (finding id, FREQ(d, f), mutex group), then the number of those
    clinical findings in each mutex group.
    """

    finding_row: dict[str, int]
    log_terms: np.ndarray
    disease_ids: np.ndarray
    walks: dict[str, tuple[tuple, tuple, dict[str, int]]]


@dataclass
class KnowledgeBase:
    """Fields unchanged after construction; `scoring_tables` caches its compiled tables on the object."""

    diseases: list[Disease]
    findings: list[Finding]
    frequencies: dict[tuple[str, str], float]
    _disease_ids: frozenset[str] = field(init=False, repr=False, compare=False)
    _findings_by_id: dict[str, Finding] = field(init=False, repr=False, compare=False)
    _tables: ScoringTables | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._disease_ids = frozenset(d.id for d in self.diseases)
        self._findings_by_id = {f.id: f for f in self.findings}
        self._tables = None

    def finding(self, fid: str) -> Finding:
        try:
            return self._findings_by_id[fid]
        except KeyError:
            raise KeyError(f"unknown finding id: {fid!r}") from None

    def has_disease(self, did: str) -> bool:
        return did in self._disease_ids

    def has_finding(self, fid: str) -> bool:
        return fid in self._findings_by_id


def frequency(kb: KnowledgeBase, disease_id: str, finding_id: str) -> float:
    """FREQ(d, f) in [0, 1]; 0 when the pair is not stored."""
    if not kb.has_disease(disease_id):
        raise KeyError(f"unknown disease id: {disease_id!r}")
    if not kb.has_finding(finding_id):
        raise KeyError(f"unknown finding id: {finding_id!r}")
    return kb.frequencies.get((disease_id, finding_id), 0.0)


def scoring_tables(kb: KnowledgeBase) -> ScoringTables:
    """The KB's scoring tables, built on first use and cached on the KB."""
    if kb._tables is None:
        kb._tables = _build_scoring_tables(kb)
    return kb._tables


def _build_scoring_tables(kb: KnowledgeBase) -> ScoringTables:
    finding_row = {f.id: r for r, f in enumerate(kb.findings)}
    disease_ids = sorted(d.id for d in kb.diseases)
    disease_col = {did: c for c, did in enumerate(disease_ids)}
    F = len(kb.findings)
    # Unstored pairs have FREQ 0: ln(eps) when present, -inf for a
    # demographic finding, and ln(eps + 1) when absent.
    log_terms = np.full((2 * F, len(disease_ids)), math.log(SMOOTHING_EPS))
    log_terms[[r for r, f in enumerate(kb.findings) if f.kind == DEMOGRAPHIC]] = -math.inf
    log_terms[F:] = math.log(SMOOTHING_EPS + 1.0)
    clinical: dict[str, list] = {d.id: [] for d in kb.diseases}
    for (did, fid), q in kb.frequencies.items():
        if q == 0.0 or did not in disease_col or fid not in finding_row:
            continue
        r, c = finding_row[fid], disease_col[did]
        log_terms[r, c] = math.log(SMOOTHING_EPS + q)
        log_terms[F + r, c] = math.log(SMOOTHING_EPS + 1.0 - q)
        f = kb.findings[r]
        if f.kind == CLINICAL and q > 0.0:
            clinical[did].append((fid, q, f.mutex_group))
    demographics = sorted((f for f in kb.findings if f.kind == DEMOGRAPHIC), key=lambda f: f.id)
    walks = {}
    for d in kb.diseases:
        demographic = tuple((f.id, kb.frequencies.get((d.id, f.id), 0.0), f.mutex_group) for f in demographics)
        group_counts: dict[str, int] = {}
        for _, _, group in clinical[d.id]:
            if group is not None:
                group_counts[group] = group_counts.get(group, 0) + 1
        walks[d.id] = (demographic, tuple(sorted(clinical[d.id], key=lambda e: (-e[1], e[0]))), group_counts)
    return ScoringTables(finding_row, log_terms, np.array(disease_ids, dtype=object), walks)


def read_utf8(path, error: type[ValueError] = ValueError) -> str:
    """The text of the file at `path`; bytes that are not UTF-8 raise `error` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None


def check_object(obj, allowed: dict[str, type], required: set[str], where: str) -> list[str]:
    """Shape errors of a decoded JSON object, each prefixed with `where`.

    `required` names keys of `allowed`. Unknown fields are reported in the
    object's order, then missing and mistyped ones in `allowed`'s order.
    """
    errors = []
    if not isinstance(obj, dict):
        return [f"{where}: expected an object, got {type(obj).__name__}"]
    for key in obj:
        if key not in allowed:
            errors.append(f"{where}: unknown field {key!r}")
    for key in allowed:
        if key in required and key not in obj:
            errors.append(f"{where}: missing field {key!r}")
    for key, typ in allowed.items():
        # JSON true/false decode to bool, which Python counts as an int.
        if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], typ)):
            names = " or ".join(t.__name__ for t in (typ if isinstance(typ, tuple) else (typ,)))
            errors.append(f"{where}: field {key!r} must be {names}")
    return errors


def _read_document(text: str) -> tuple[KnowledgeBase | None, tuple[str, ...]]:
    """Decode and check a KB document: the KB and no errors, or no KB.

    An entry of the wrong shape gets no further check. A duplicate id or pair
    repeats an earlier entry of the right shape. A frequency's disease or
    finding is unknown only when no entry of that array has that id as a
    string, whatever else is wrong with the entry, so one bad entry draws one
    error rather than one for each frequency that names it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return None, (f"syntax error at line {e.lineno} column {e.colno}: {e.msg}",)
    except (ValueError, RecursionError) as e:  # an over-long integer literal, or nesting too deep to decode
        return None, (f"syntax error: {e}",)
    errors = check_object(doc, dict.fromkeys(("diseases", "findings", "frequencies"), list), set(), "top level")
    arrays = {key: value for key, value in doc.items() if isinstance(value, list)} if isinstance(doc, dict) else {}

    def entries(name: str, allowed: dict[str, type], required: set[str]):
        """(location, object) of each entry of array `name` that has the right shape."""
        for i, obj in enumerate(arrays.get(name, [])):
            where = f"{name}[{i}]"
            shape_errors = check_object(obj, allowed, required, where)
            errors.extend(shape_errors)
            if not shape_errors:
                yield where, obj

    diseases: list[Disease] = []
    seen = set()
    for where, obj in entries("diseases", {"id": str, "name": str}, {"id", "name"}):
        did = obj["id"]
        if not did:
            errors.append(f"{where}: disease with empty id")
        elif did in seen:
            errors.append(f"{where}: duplicate disease id {did!r}")
        else:
            diseases.append(Disease(id=did, display_name=obj["name"]))
        seen.add(did)

    findings: list[Finding] = []
    seen = set()
    allowed = {"id": str, "name": str, "kind": str, "mutex_group": str}
    for where, obj in entries("findings", allowed, {"id", "name", "kind"}):
        n_errors = len(errors)
        fid, kind, group = obj["id"], obj["kind"], obj.get("mutex_group")
        if not fid:
            errors.append(f"{where}: finding with empty id")
        elif fid in seen:
            errors.append(f"{where}: duplicate finding id {fid!r}")
        seen.add(fid)
        if kind not in FINDING_KINDS:
            errors.append(f"{where}: finding {fid!r}: kind must be one of {FINDING_KINDS}, got {kind!r}")
        if kind == DEMOGRAPHIC and not group:
            errors.append(f"{where}: finding {fid!r}: demographic finding without mutex_group")
        if len(errors) == n_errors:
            findings.append(Finding(id=fid, display_name=obj["name"], kind=kind, mutex_group=group))

    def ids(name: str) -> set[str]:
        return {obj["id"] for obj in arrays.get(name, []) if isinstance(obj, dict) and isinstance(obj.get("id"), str)}

    disease_ids, finding_ids = ids("diseases"), ids("findings")
    freqs: dict[tuple[str, str], float] = {}
    seen = set()
    allowed = {"disease": str, "finding": str, "freq": (int, float)}
    for where, obj in entries("frequencies", allowed, set(allowed)):
        n_errors = len(errors)
        key = did, fid = obj["disease"], obj["finding"]
        if key in seen:
            errors.append(f"{where}: duplicate frequency entry for {key}")
        seen.add(key)
        if did not in disease_ids:
            errors.append(f"{where}: unknown disease {did!r}")
        if fid not in finding_ids:
            errors.append(f"{where}: unknown finding {fid!r}")
        try:
            q = float(obj["freq"])
        except OverflowError:
            errors.append(f"{where}: field 'freq' is too large for a float")
            continue
        if not 0.0 <= q <= 1.0:  # NaN too
            errors.append(f"{where}: frequency out of range [0, 1]: {q}")
        if len(errors) == n_errors and q != 0.0:  # a zero entry means the same as no entry
            freqs[key] = q

    if errors:
        return None, tuple(errors)
    return KnowledgeBase(diseases=diseases, findings=findings, frequencies=freqs), ()


def validate_kb_document(text: str) -> ValidationReport:
    """Validate a raw KB document. With no error, a disease with fewer than
    MIN_CLINICAL_FINDINGS nonzero clinical findings draws a warning."""
    kb, errors = _read_document(text)
    if kb is None:
        return ValidationReport(errors=errors)
    n_clinical = Counter(did for did, fid in kb.frequencies if kb.finding(fid).kind == CLINICAL)
    warnings = tuple(
        f"diseases[{i}]: disease {d.id!r}: insufficient findings for simulation "
        f"({n_clinical[d.id]} nonzero clinical findings, want >= {MIN_CLINICAL_FINDINGS})"
        for i, d in enumerate(kb.diseases)
        if n_clinical[d.id] < MIN_CLINICAL_FINDINGS
    )
    return ValidationReport(warnings=warnings)


def parse_knowledge_base(text: str) -> KnowledgeBase:
    """Parse and validate a KB document; raises KBError on any violation."""
    kb, errors = _read_document(text)
    if kb is None:
        raise KBError("; ".join(errors))
    return kb


def serialize_knowledge_base(kb: KnowledgeBase) -> str:
    """Inverse of parse: parse(serialize(kb)) reconstructs kb exactly."""
    doc = {
        "diseases": [{"id": d.id, "name": d.display_name} for d in kb.diseases],
        "findings": [
            {"id": f.id, "name": f.display_name, "kind": f.kind}
            | ({"mutex_group": f.mutex_group} if f.mutex_group is not None else {})
            for f in kb.findings
        ],
        "frequencies": [
            {"disease": did, "finding": fid, "freq": q}
            for (did, fid), q in sorted(kb.frequencies.items())
        ],
    }
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"
