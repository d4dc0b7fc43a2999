"""Expert-system knowledge base: diseases, findings, and disease-finding frequencies.

The KB document is a JSON object with three arrays:

    {"diseases":    [{"id": "flu", "name": "Influenza"}, ...],
     "findings":    [{"id": "fever", "name": "Fever", "kind": "clinical"},
                     {"id": "male", "name": "Male", "kind": "demographic",
                      "mutex_group": "sex"}, ...],
     "frequencies": [{"disease": "flu", "finding": "fever", "freq": 0.8}, ...]}

A missing (disease, finding) pair means frequency exactly 0. Unknown fields
are rejected. Findings sharing a mutex_group are mutually exclusive in a
patient; every demographic finding must carry one.

Parsing compiles nothing; `scoring_tables(kb)` compiles the KB on first use,
once, into the expert's log-frequency tables and the simulator's walks.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

DEMOGRAPHIC = "demographic"
CLINICAL = "clinical"
FINDING_KINDS = (DEMOGRAPHIC, CLINICAL)
SMOOTHING_EPS = 1e-3


class KBError(ValueError):
    """Malformed or invariant-violating knowledge base document."""


class ConfigError(ValueError):
    """A setting out of range; `field` names it, and the message begins with it."""

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

    Row r of `log_terms` holds ln(eps + FREQ) of finding `findings[r]` and
    row F + r its ln(eps + 1 - FREQ), F findings in all; a demographic
    finding a disease never has is -inf in its present row, so adding that
    row excludes the disease. Column j belongs to disease `disease_ids[j]`
    (an object array, so a gather by column returns the id strings), in
    ascending id order: a stable sort of a score row breaks ties by id.
    `kb_columns[c]` is the column of `kb.diseases[c]`.

    `walks[d]` holds disease d's demographic findings by ascending id, then
    its clinical findings with FREQ > 0 by descending frequency and id, each
    as (finding id, FREQ(d, f), mutex group), then the number of those
    clinical findings in each mutex group.
    """

    finding_row: dict[str, int]
    log_terms: np.ndarray
    disease_ids: np.ndarray
    kb_columns: np.ndarray
    walks: dict[str, tuple[tuple, tuple, dict[str, int]]]

    def row(self, fid: str) -> int:
        try:
            return self.finding_row[fid]
        except KeyError:
            raise KeyError(f"unknown finding id: {fid!r}") from None


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
    kb_columns = np.array([disease_col[d.id] for d in kb.diseases], dtype=np.intp)
    return ScoringTables(finding_row, log_terms, np.array(disease_ids, dtype=object), kb_columns, walks)


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


def _collect_parts(doc) -> tuple[list[Disease], list[Finding], dict[tuple[str, str], float], list[str]]:
    """Shape-check a decoded document; returns parts plus shape errors."""
    errors = check_object(doc, dict.fromkeys(("diseases", "findings", "frequencies"), list), set(), "top level")
    if not isinstance(doc, dict):
        return [], [], {}, errors
    arrays = {key: value for key, value in doc.items() if isinstance(value, list)}
    diseases: list[Disease] = []
    findings: list[Finding] = []
    freqs: dict[tuple[str, str], float] = {}
    zero_keys: set[tuple[str, str]] = set()

    for i, obj in enumerate(arrays.get("diseases", [])):
        where = f"diseases[{i}]"
        errs = check_object(obj, {"id": str, "name": str}, {"id", "name"}, where)
        if errs:
            errors.extend(errs)
            continue
        diseases.append(Disease(id=obj["id"], display_name=obj["name"]))

    for i, obj in enumerate(arrays.get("findings", [])):
        where = f"findings[{i}]"
        errs = check_object(
            obj, {"id": str, "name": str, "kind": str, "mutex_group": str}, {"id", "name", "kind"}, where
        )
        if errs:
            errors.extend(errs)
            continue
        findings.append(
            Finding(id=obj["id"], display_name=obj["name"], kind=obj["kind"], mutex_group=obj.get("mutex_group"))
        )

    disease_ids = {d.id for d in diseases}
    finding_ids = {f.id for f in findings}

    for i, obj in enumerate(arrays.get("frequencies", [])):
        where = f"frequencies[{i}]"
        errs = check_object(
            obj, {"disease": str, "finding": str, "freq": (int, float)}, {"disease", "finding", "freq"}, where
        )
        if errs:
            errors.extend(errs)
            continue
        key = (obj["disease"], obj["finding"])
        if key in freqs or key in zero_keys:
            errors.append(f"{where}: duplicate frequency entry for {key}")
            continue
        try:
            q = float(obj["freq"])
        except OverflowError:
            errors.append(f"{where}: field 'freq' is too large for a float")
            continue
        if q == 0.0:
            # Zero entries are equivalent to absent ones; check references, drop.
            did, fid = key
            if did not in disease_ids:
                errors.append(f"{where}: unknown disease")
            if fid not in finding_ids:
                errors.append(f"{where}: unknown finding")
            zero_keys.add(key)
            continue
        freqs[key] = q

    return diseases, findings, freqs, errors


def validate_knowledge_base(kb: KnowledgeBase, min_clinical_findings: int = 3) -> ValidationReport:
    """Report every violated invariant; empty errors iff the KB is valid.

    Diseases with fewer than `min_clinical_findings` nonzero clinical
    findings draw a warning: the case simulator targets at least five
    elicited findings per case and such diseases yield degenerate cases.
    """
    errors: list[str] = []
    warnings: list[str] = []

    seen_d: set[str] = set()
    for d in kb.diseases:
        if not d.id:
            errors.append("disease with empty id")
        elif d.id in seen_d:
            errors.append(f"duplicate disease id: {d.id!r}")
        seen_d.add(d.id)

    seen_f: set[str] = set()
    for f in kb.findings:
        if not f.id:
            errors.append("finding with empty id")
        elif f.id in seen_f:
            errors.append(f"duplicate finding id: {f.id!r}")
        seen_f.add(f.id)
        if f.kind not in FINDING_KINDS:
            errors.append(f"finding {f.id!r}: kind must be one of {FINDING_KINDS}, got {f.kind!r}")
        if f.kind == DEMOGRAPHIC and not f.mutex_group:
            errors.append(f"finding {f.id!r}: demographic finding without mutex_group")

    for (did, fid), q in kb.frequencies.items():
        where = f"frequency ({did!r}, {fid!r})"
        if did not in seen_d:
            errors.append(f"{where}: unknown disease")
        if fid not in seen_f:
            errors.append(f"{where}: unknown finding")
        if not (0.0 <= q <= 1.0):
            errors.append(f"{where}: frequency out of range [0, 1]: {q}")

    if not errors:
        n_clinical = dict.fromkeys(seen_d, 0)
        for (did, fid), q in kb.frequencies.items():
            n_clinical[did] += q > 0.0 and kb.finding(fid).kind == CLINICAL
        for d in kb.diseases:
            n = n_clinical[d.id]
            if n < min_clinical_findings:
                warnings.append(
                    f"disease {d.id!r}: insufficient findings for simulation "
                    f"({n} nonzero clinical findings, want >= {min_clinical_findings})"
                )

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def _read_document(text: str, min_clinical_findings: int) -> tuple[KnowledgeBase | None, ValidationReport]:
    """Decode, shape-check and validate a KB document; no KB when the shape is wrong."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return None, ValidationReport(errors=(f"syntax error at line {e.lineno} column {e.colno}: {e.msg}",))
    except ValueError as e:  # an integer literal longer than the interpreter converts
        return None, ValidationReport(errors=(f"syntax error: {e}",))
    diseases, findings, freqs, shape_errors = _collect_parts(doc)
    if shape_errors:
        return None, ValidationReport(errors=tuple(shape_errors))
    kb = KnowledgeBase(diseases=diseases, findings=findings, frequencies=freqs)
    return kb, validate_knowledge_base(kb, min_clinical_findings)


def validate_kb_document(text: str, min_clinical_findings: int = 3) -> ValidationReport:
    """Validate a raw KB document."""
    return _read_document(text, min_clinical_findings)[1]


def parse_knowledge_base(text: str) -> KnowledgeBase:
    """Parse and validate a KB document; raises KBError on any violation."""
    kb, report = _read_document(text, min_clinical_findings=3)
    if not report.ok:
        raise KBError("; ".join(report.errors))
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
