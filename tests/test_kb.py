import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddxkit.kb import (
    CLINICAL,
    DEMOGRAPHIC,
    FINDING_KINDS,
    MIN_CLINICAL_FINDINGS,
    Disease,
    Finding,
    KBError,
    KnowledgeBase,
    frequency,
    parse_knowledge_base,
    serialize_knowledge_base,
    validate_kb_document,
)
from ddxkit.synthetic import make_separable_kb

from conftest import field_key, make_kb, valid_or_garbage
from oracles import sorted_findings

MINIMAL = json.dumps(
    {
        "diseases": [{"id": "flu", "name": "Influenza"}],
        "findings": [{"id": "fever", "name": "Fever", "kind": "clinical"}],
        "frequencies": [{"disease": "flu", "finding": "fever", "freq": 0.8}],
    }
)


def test_parse_minimal_document():
    kb = parse_knowledge_base(MINIMAL)
    assert len(kb.diseases) == 1
    assert len(kb.findings) == 1
    assert frequency(kb, "flu", "fever") == 0.8


def doc(diseases=None, findings=None, frequencies=None, **extra):
    base = {
        "diseases": diseases if diseases is not None else [{"id": "flu", "name": "Flu"}],
        "findings": findings if findings is not None else [{"id": "fever", "name": "Fever", "kind": "clinical"}],
        "frequencies": frequencies if frequencies is not None else [],
    }
    base.update(extra)
    return json.dumps(base)


FEVER = {"disease": "flu", "finding": "fever", "freq": 0.8}
FREQ_TYPE = r"frequencies\[0\]: field 'freq' must be int or float"


@pytest.mark.parametrize(
    "text,match",
    [
        (doc(frequencies=[{"disease": "flu", "finding": "fever", "freq": 1.2}]), "out of range"),
        (doc(frequencies=[{"disease": "flu", "finding": "fever", "freq": -0.1}]), "out of range"),
        (doc(findings=[{"id": "male", "name": "Male", "kind": "demographic"}]), "without mutex_group"),
        (doc(diseases=[{"id": "flu", "name": "a"}, {"id": "flu", "name": "b"}]), "duplicate disease id"),
        (
            doc(findings=[{"id": "f", "name": "a", "kind": "clinical"}, {"id": "f", "name": "b", "kind": "clinical"}]),
            "duplicate finding id",
        ),
        (doc(frequencies=[{"disease": "nope", "finding": "fever", "freq": 0.5}]), "unknown disease"),
        (doc(frequencies=[{"disease": "flu", "finding": "nope", "freq": 0.5}]), "unknown finding"),
        (doc(frequencies=[{"disease": "nope", "finding": "fever", "freq": 0.0}]), "unknown disease"),
        (
            doc(frequencies=[FEVER, {"disease": "nope", "finding": "fever", "freq": 0.0}]),
            r"frequencies\[1\]: unknown disease",
        ),
        (
            doc(frequencies=[FEVER, {"disease": "flu", "finding": "nope", "freq": 0}]),
            r"frequencies\[1\]: unknown finding",
        ),
        # JSON true decodes to bool, which Python counts as an int.
        (doc(frequencies=[{"disease": "flu", "finding": "fever", "freq": True}]), FREQ_TYPE),
        (doc(frequencies=[{"disease": "flu", "finding": "fever", "freq": "0.5"}]), FREQ_TYPE),
        (doc(extra_field=[]), "unknown field"),
        (doc(diseases=[{"id": "flu", "name": "Flu", "color": "red"}]), "unknown field"),
        (doc(findings=[{"id": "f", "name": "a", "kind": "viral"}]), "kind"),
        (
            doc(
                frequencies=[
                    {"disease": "flu", "finding": "fever", "freq": 0.5},
                    {"disease": "flu", "finding": "fever", "freq": 0.6},
                ]
            ),
            "duplicate frequency",
        ),
        ('{"diseases": 5}', "^top level: field 'diseases' must be list$"),
        ('{"findings": "ab"}', "^top level: field 'findings' must be list$"),
        ('{"frequencies": {}}', "^top level: field 'frequencies' must be list$"),
        (
            doc(frequencies=[{"disease": "flu", "finding": "fever", "freq": 10**400}]),
            r"frequencies\[0\]: field 'freq' is too large for a float",
        ),
        ('{"diseases": ' + "1" * 5000 + "}", "syntax error: Exceeds the limit"),
        pytest.param("[" * 200000, "^syntax error: maximum recursion depth exceeded", id="nested-too-deep"),
    ],
)
def test_parse_rejects_invalid_documents(text, match):
    with pytest.raises(KBError, match=match):
        parse_knowledge_base(text)


def kb_documents():
    """KB documents whose every field is valid or, now and then, garbage."""
    v = valid_or_garbage
    diseases, findings = st.sampled_from(["flu", "cold"]), st.sampled_from(["fever", "cough", "male"])
    disease = st.fixed_dictionaries({"id": v(diseases), "name": v(st.just("x"))})
    finding = st.fixed_dictionaries(
        {"id": v(findings), "name": v(st.just("x")), "kind": v(st.sampled_from(FINDING_KINDS))},
        optional={"mutex_group": v(st.just("sex"))},
    )
    pair = st.fixed_dictionaries({"disease": v(diseases), "finding": v(findings), "freq": v(st.floats(0, 1))})
    return st.fixed_dictionaries(
        {
            "diseases": v(st.lists(v(disease), max_size=2, unique_by=field_key("id"))),
            "findings": v(st.lists(v(finding), max_size=3, unique_by=field_key("id"))),
            "frequencies": v(st.lists(v(pair), max_size=4)),
        }
    )


LOCATION = re.compile(r"(syntax error|top level: |(diseases|findings|frequencies)\[(\d+)\]: )")


@given(kb_documents())
@settings(max_examples=300)
def test_garbage_documents_raise_only_kb_errors(document):
    text = json.dumps(document)
    report = validate_kb_document(text)
    for message in report.errors + report.warnings:
        where = LOCATION.match(message)
        assert where, message
        if where[2]:
            assert int(where[3]) < len(document[where[2]]), message
    try:
        parse_knowledge_base(text)
    except KBError:
        pass


def test_parse_reports_syntax_error_position():
    with pytest.raises(KBError, match=r"syntax error at line \d+ column \d+"):
        parse_knowledge_base('{"diseases": [,]}')


def test_frequency_lookup_and_sparse_default(flu_kb):
    assert frequency(flu_kb, "flu", "fever") == 0.8
    assert frequency(flu_kb, "flu", "rash") == 0.0
    with pytest.raises(KeyError, match="unknown disease"):
        frequency(flu_kb, "plague", "fever")
    with pytest.raises(KeyError, match="unknown finding"):
        frequency(flu_kb, "flu", "hiccups")


def test_sorted_findings_orders_by_frequency_then_id():
    kb = make_kb(["d"], ["a", "b", "c"], {("d", "a"): 0.3, ("d", "b"): 0.9})
    assert sorted_findings(kb, "d") == ["b", "a"]
    kb = make_kb(["d"], ["a", "b"], {("d", "a"): 0.5, ("d", "b"): 0.5})
    assert sorted_findings(kb, "d") == ["a", "b"]
    kb = make_kb(["d"], ["a"], {})
    assert sorted_findings(kb, "d") == []
    with pytest.raises(KeyError):
        sorted_findings(kb, "nope")


def test_sorted_findings_excludes_demographics(flu_kb):
    assert "male" not in sorted_findings(flu_kb, "flu")
    assert sorted_findings(flu_kb, "flu") == ["fever", "cough", "fatigue"]


def test_validate_clean_kb_is_empty(flu_kb):
    report = validate_kb_document(serialize_knowledge_base(flu_kb))
    assert report.ok
    assert report.errors == () and report.warnings == ()


def test_validate_warns_on_sparse_disease():
    kb = make_kb(["d"], ["a", "b"], {("d", "a"): 0.5})
    report = validate_kb_document(serialize_knowledge_base(kb))
    assert report.ok
    assert report.warnings == (
        "diseases[0]: disease 'd': insufficient findings for simulation "
        f"(1 nonzero clinical findings, want >= {MIN_CLINICAL_FINDINGS})",
    )


def test_validate_reports_duplicate_ids_without_raising():
    kb = KnowledgeBase(
        diseases=[Disease("d", "d")],
        findings=[Finding("f", "f", CLINICAL), Finding("f", "f2", CLINICAL)],
        frequencies={},
    )
    report = validate_kb_document(serialize_knowledge_base(kb))
    assert not report.ok
    assert any("duplicate finding id" in e for e in report.errors)


def test_validate_document_collects_errors():
    report = validate_kb_document(doc(findings=[{"id": "male", "name": "M", "kind": "demographic"}]))
    assert not report.ok
    report = validate_kb_document("{bad json")
    assert any("syntax error" in e for e in report.errors)
    assert validate_kb_document(MINIMAL).ok  # a sparse disease draws a warning, not an error


def test_zero_frequency_entry_is_equivalent_to_absent():
    with_zero = doc(
        findings=[
            {"id": "fever", "name": "Fever", "kind": "clinical"},
            {"id": "rash", "name": "Rash", "kind": "clinical"},
        ],
        frequencies=[
            {"disease": "flu", "finding": "fever", "freq": 0.8},
            {"disease": "flu", "finding": "rash", "freq": 0.0},
        ],
    )
    without = doc(
        findings=[
            {"id": "fever", "name": "Fever", "kind": "clinical"},
            {"id": "rash", "name": "Rash", "kind": "clinical"},
        ],
        frequencies=[{"disease": "flu", "finding": "fever", "freq": 0.8}],
    )
    assert parse_knowledge_base(with_zero) == parse_knowledge_base(without)


def test_round_trip_stability(flu_kb):
    text = serialize_knowledge_base(flu_kb)
    again = parse_knowledge_base(text)
    assert again == flu_kb
    assert serialize_knowledge_base(again) == text


@st.composite
def knowledge_bases(draw):
    n_d = draw(st.integers(1, 4))
    n_f = draw(st.integers(1, 6))
    diseases = [f"d{i}" for i in range(n_d)]
    findings = []
    for i in range(n_f):
        if draw(st.booleans()):
            findings.append((f"f{i}", DEMOGRAPHIC, draw(st.sampled_from(["sex", "age"]))))
        else:
            group = draw(st.sampled_from([None, "site"]))
            findings.append((f"f{i}", CLINICAL, group))
    freqs = {}
    for d in diseases:
        for f, _, _ in findings:
            q = draw(st.sampled_from([0.0, 0.05, 0.25, 0.5, 0.5, 0.8, 1.0]))
            if q > 0.0:
                freqs[(d, f)] = q
    return make_kb(diseases, findings, freqs)


@given(knowledge_bases())
@settings(max_examples=60)
def test_serialize_parse_round_trip_property(kb):
    assert parse_knowledge_base(serialize_knowledge_base(kb)) == kb


@given(knowledge_bases(), st.integers(0, 3))
@settings(max_examples=60)
def test_sorted_findings_total_order_property(kb, di):
    d = kb.diseases[di % len(kb.diseases)].id
    order = sorted_findings(kb, d)
    assert len(set(order)) == len(order)
    for f1, f2 in zip(order, order[1:]):
        q1, q2 = frequency(kb, d, f1), frequency(kb, d, f2)
        assert q1 > q2 or (q1 == q2 and f1 < f2)
    for f in order:
        assert frequency(kb, d, f) > 0.0
        assert kb.finding(f).kind == CLINICAL


def test_missing_fields_are_reported_in_declared_order():
    text = '{"diseases": [{}], "findings": [{"id": "f"}], "frequencies": [{"freq": 1}]}'
    assert validate_kb_document(text).errors == (
        "diseases[0]: missing field 'id'",
        "diseases[0]: missing field 'name'",
        "findings[0]: missing field 'name'",
        "findings[0]: missing field 'kind'",
        "frequencies[0]: missing field 'disease'",
        "frequencies[0]: missing field 'finding'",
    )


def test_every_error_is_reported_at_its_entry_in_document_order():
    text = json.dumps(
        {
            "diseases": [
                {"id": "flu"},
                {"id": "flu", "name": "Flu"},
                {"id": "flu", "name": "Flu again"},
                {"id": "", "name": "Nameless"},
            ],
            "extra": [],
            "findings": [
                {"id": "male", "name": "Male", "kind": "demographic"},
                {"id": "fever", "name": "Fever", "kind": "viral"},
                {"id": "cough", "name": "Cough", "kind": "clinical"},
                {"id": "cough", "name": 3, "kind": "clinical"},
                {"id": "cough", "name": "Cough again", "kind": "clinical"},
            ],
            "frequencies": [
                {"disease": "flu", "finding": "cough", "freq": 1.5},
                {"disease": "flu", "finding": "cough", "freq": 0.5},
                {"disease": "cold", "finding": "fever", "freq": 0},
                {"disease": "flu", "finding": "cough"},
                {"disease": "flu", "finding": "male", "freq": 10**400},
                {"disease": "", "finding": "cough", "freq": float("nan")},
            ],
        }
    )
    assert validate_kb_document(text).errors == (
        "top level: unknown field 'extra'",
        "diseases[0]: missing field 'name'",
        "diseases[2]: duplicate disease id 'flu'",
        "diseases[3]: disease with empty id",
        "findings[0]: finding 'male': demographic finding without mutex_group",
        "findings[1]: finding 'fever': kind must be one of ('demographic', 'clinical'), got 'viral'",
        "findings[3]: field 'name' must be str",
        "findings[4]: duplicate finding id 'cough'",
        "frequencies[0]: frequency out of range [0, 1]: 1.5",
        "frequencies[1]: duplicate frequency entry for ('flu', 'cough')",
        "frequencies[2]: unknown disease 'cold'",
        "frequencies[3]: missing field 'freq'",
        "frequencies[4]: field 'freq' is too large for a float",
        "frequencies[5]: frequency out of range [0, 1]: nan",
    )


def _separable_document() -> dict:
    return json.loads(serialize_knowledge_base(make_separable_kb(20)))


def test_a_disease_entry_with_a_bad_name_is_one_error_not_one_per_frequency_naming_it():
    document = _separable_document()
    document["diseases"][0]["name"] = 3
    assert validate_kb_document(json.dumps(document)).errors == ("diseases[0]: field 'name' must be str",)


def test_a_finding_entry_with_a_bad_kind_is_one_error_not_one_per_frequency_naming_it():
    document = _separable_document()
    i = next(i for i, f in enumerate(document["findings"]) if f["id"] == "bg0")
    document["findings"][i]["kind"] = "viral"
    assert sum(e["finding"] == "bg0" for e in document["frequencies"]) == 20
    assert validate_kb_document(json.dumps(document)).errors == (
        f"findings[{i}]: finding 'bg0': kind must be one of {FINDING_KINDS}, got 'viral'",
    )


def test_a_reference_to_an_id_that_is_not_a_string_is_unknown():
    document = _separable_document()
    document["diseases"][0]["id"] = 0
    errors = validate_kb_document(json.dumps(document)).errors
    assert errors[0] == "diseases[0]: field 'id' must be str"
    named = [i for i, e in enumerate(document["frequencies"]) if e["disease"] == "d00"]
    assert errors[1:] == tuple(f"frequencies[{i}]: unknown disease 'd00'" for i in named)


def test_the_warning_threshold_defaults_to_one_constant():
    findings = [f"f{i}" for i in range(MIN_CLINICAL_FINDINGS)]
    for n in range(MIN_CLINICAL_FINDINGS + 1):
        kb = make_kb(["d"], findings, {("d", f): 0.5 for f in findings[:n]})
        assert len(validate_kb_document(serialize_knowledge_base(kb)).warnings) == (n < MIN_CLINICAL_FINDINGS)


def test_an_unknown_finding_id_is_a_key_error_naming_it():
    with pytest.raises(KeyError) as raised:
        make_separable_kb(n_diseases=2).finding("nope")
    assert raised.value.args == ("unknown finding id: 'nope'",)
