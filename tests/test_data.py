import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddxkit.data import (
    CaseFormatError,
    CaseSet,
    build_vocabulary,
    merge,
    normalize_ddx,
    read_cases,
    split_train_test,
    write_cases,
)
from ddxkit.kb import DEMOGRAPHIC
from ddxkit.simulate import CASE_SOURCES, ClinicalCase, SimConfig, simulate_dataset
from ddxkit.synthetic import make_separable_kb

from conftest import field_key, make_kb, valid_or_garbage


def line(**overrides):
    doc = {
        "id": "c1",
        "pos": ["fever"],
        "neg": [],
        "ddx": [{"disease": "flu", "p": 1.0}],
        "source": "assessment",
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_read_single_case():
    cs = read_cases(line())
    assert len(cs) == 1
    case = cs.cases[0]
    assert case.pos == frozenset({"fever"})
    assert case.ddx.entries == (("flu", 1.0),)


def test_read_empty_document():
    assert len(read_cases("")) == 0
    assert len(read_cases("\n\n")) == 0


@pytest.mark.parametrize(
    "text,match",
    [
        ("{bad", r":1: parse error"),
        (line(pos=["fever"], neg=["fever"]), "both pos and neg"),
        (line(ddx=[{"disease": "flu", "p": 0.0}]), "not normalizable"),
        (line(ddx=[]), "empty ddx"),
        (line(extra=1), "unknown field"),
        (line(source="guess"), "source"),
        (line(ddx=[{"disease": "flu", "p": 1.0}, {"disease": "flu", "p": 1.0}]), "duplicate disease"),
        ('{"id": "c1"}', "missing field"),
        (line(ddx=[{"disease": "flu", "p": True}]), r":1: ddx\[0\] needs a string 'disease' and a number 'p'"),
        (line(ddx=[{"disease": "cold", "p": 1.0}, {"disease": "flu", "p": False}]), r":1: ddx\[1\] needs a string 'disease' and a number 'p'"),
        (line(pos=["fever", "cough", "fever"]), ":1: pos repeats finding id 'fever'"),
        (line(neg=["rash", "rash"]), ":1: neg repeats finding id 'rash'"),
        (line(ddx=[{"disease": "flu", "p": 10**400}]), ":1: a ddx 'p' is too large for a float"),
        ('{"id": ' + "1" * 5000 + "}", ":1: parse error: Exceeds the limit"),
    ],
)
def test_read_rejects_bad_lines(text, match):
    with pytest.raises(CaseFormatError, match=match):
        read_cases(text)


def case_documents():
    """Case lines whose every field is valid or, now and then, garbage."""
    v = valid_or_garbage
    entry = st.fixed_dictionaries({"disease": v(st.sampled_from(["flu", "cold"])), "p": v(st.floats(0.01, 1))})
    case = st.fixed_dictionaries(
        {
            "id": v(st.sampled_from(["c1", "c2"])),
            "pos": v(st.lists(v(st.sampled_from(["fever", "cough"])), max_size=2, unique_by=repr)),
            "neg": v(st.lists(v(st.sampled_from(["rash", "itch"])), max_size=2, unique_by=repr)),
            "ddx": v(st.lists(v(entry), min_size=1, max_size=2, unique_by=field_key("disease"))),
            "source": v(st.sampled_from(CASE_SOURCES)),
        },
        optional={"seed_disease": v(st.just("flu"))},
    )
    lines = st.lists(case, min_size=1, max_size=2, unique_by=field_key("id"))
    return lines.map(lambda docs: "\n".join(json.dumps(d) for d in docs))


@given(case_documents())
@settings(max_examples=300)
def test_garbage_lines_raise_only_case_format_errors(text):
    try:
        read_cases(text)
    except CaseFormatError:
        pass


def test_read_error_carries_line_number():
    text = line() + "\n" + line(id="c2", pos=["x"], neg=["x"])
    with pytest.raises(CaseFormatError, match=":2:"):
        read_cases(text, provenance="cases.jsonl")


def test_read_rejects_duplicate_case_ids():
    with pytest.raises(CaseFormatError, match="duplicate case id"):
        read_cases(line() + "\n" + line())


def test_normalize_ddx_examples():
    assert normalize_ddx([("covid19", 1.0)]).entries == (("covid19", 1.0),)
    assert normalize_ddx([("a", 2.0), ("b", 2.0)]).entries == (("a", 0.5), ("b", 0.5))
    assert normalize_ddx([("a", 3.0), ("b", 1.0)]).entries == (("a", 0.75), ("b", 0.25))


def test_normalize_ddx_errors():
    with pytest.raises(ValueError, match="not normalizable"):
        normalize_ddx([("a", 0.0), ("b", 0.0)])
    with pytest.raises(ValueError, match="non-negative"):
        normalize_ddx([("a", -1.0)])
    with pytest.raises(ValueError, match="empty"):
        normalize_ddx([])


def test_normalize_ddx_drops_zero_weights():
    ddx = normalize_ddx([("a", 1.0), ("b", 0.0), ("c", 3.0)])
    assert ddx.entries == (("c", 0.75), ("a", 0.25))


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.floats(0.001, 100.0)),
        min_size=1,
        max_size=8,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=150)
def test_normalize_ddx_sums_to_one_and_keeps_ranking(raw):
    weights = [(f"d{i}", w) for i, w in raw]
    ddx = normalize_ddx(weights)
    assert sum(p for _, p in ddx.entries) == pytest.approx(1.0, abs=1e-9)
    by_weight = {d: w for d, w in weights}
    probs = [p for _, p in ddx.entries]
    ws = [by_weight[d] for d, _ in ddx.entries]
    assert probs == sorted(probs, reverse=True)
    assert ws == sorted(ws, reverse=True)


def sample_cases():
    kb = make_separable_kb(n_diseases=5)
    return simulate_dataset(kb, SimConfig(cases_total=60, min_cases_per_disease=10, seed=2))


def test_write_read_round_trip_on_simulated_cases():
    cases = sample_cases()
    text = write_cases(cases)
    cs = read_cases(text, provenance="x")
    assert list(cs.cases) == list(cases)
    assert write_cases(cs) == text


# Ids mix ASCII with characters JSON leaves unescaped under ensure_ascii=False,
# some of which str.splitlines treats as line breaks.
IDS = st.text("ab1 \"\\\u00e9\u0085\u2028\u4e2d", min_size=1, max_size=4)


@st.composite
def clinical_cases(draw):
    findings = draw(st.lists(IDS, max_size=6, unique=True))
    labels = draw(st.lists(st.booleans(), min_size=len(findings), max_size=len(findings)))
    weights = draw(
        st.lists(
            st.tuples(IDS, st.one_of(st.just(0.0), st.floats(1e-3, 100.0))),
            min_size=1,
            max_size=4,
            unique_by=lambda e: e[0],
        ).filter(lambda ws: any(w > 0 for _, w in ws))
    )
    return ClinicalCase(
        id=draw(IDS),
        pos=frozenset(f for f, in_pos in zip(findings, labels) if in_pos),
        neg=frozenset(f for f, in_pos in zip(findings, labels) if not in_pos),
        ddx=normalize_ddx(weights),
        source=draw(st.sampled_from(CASE_SOURCES)),
        seed_disease=draw(st.one_of(st.none(), IDS)),
    )


@given(st.lists(clinical_cases(), max_size=4, unique_by=lambda c: c.id))
@settings(max_examples=100)
def test_case_file_round_trip_property(cases):
    text = write_cases(cases)
    cs = read_cases(text)
    assert list(cs.cases) == cases
    assert write_cases(cs) == text


def test_round_trip_is_stable_for_unnormalized_weights():
    text = line(ddx=[{"disease": "flu", "p": 2.0}, {"disease": "cold", "p": 1.0}])
    once = read_cases(text)
    text2 = write_cases(once)
    twice = read_cases(text2)
    assert list(once.cases) == list(twice.cases)
    assert write_cases(twice) == text2


def test_merge_preserves_order_and_provenance():
    cases = sample_cases()
    a = CaseSet(cases=tuple(cases[:10]), provenance=("a",))
    b = CaseSet(cases=tuple(cases[10:30]), provenance=("b",))
    merged = merge([a, b])
    assert len(merged) == 30
    assert merged.provenance == ("a", "b")
    assert list(merged.cases) == list(cases[:30])
    assert len(merge([])) == 0


def test_merge_rejects_duplicate_ids():
    cases = sample_cases()
    a = CaseSet(cases=tuple(cases[:5]), provenance=("a",))
    with pytest.raises(ValueError, match="duplicate case id"):
        merge([a, a])


def test_split_sizes_and_determinism():
    cases = sample_cases()
    cs = CaseSet(cases=tuple(cases[:50]), provenance=("x",))
    for _ in range(2):
        train, test = split_train_test(cs, 0.7, seed=4)
        assert len(train) == 35 and len(test) == 15
    train2, test2 = split_train_test(cs, 0.7, seed=4)
    assert [c.id for c in train] == [c.id for c in train2]

    two = CaseSet(cases=tuple(cases[:2]), provenance=("x",))
    a, b = split_train_test(two, 0.5, seed=0)
    assert len(a) == 1 and len(b) == 1


def test_split_is_a_partition():
    cases = sample_cases()
    cs = CaseSet(cases=tuple(cases), provenance=("x",))
    train, test = split_train_test(cs, 0.33, seed=9)
    train_ids = {c.id for c in train}
    test_ids = {c.id for c in test}
    assert not train_ids & test_ids
    assert train_ids | test_ids == {c.id for c in cs}


def test_split_validates_inputs():
    cases = sample_cases()
    cs = CaseSet(cases=tuple(cases[:4]), provenance=("x",))
    with pytest.raises(ValueError, match="train_fraction"):
        split_train_test(cs, 1.0, seed=0)
    one = CaseSet(cases=tuple(cases[:1]), provenance=("x",))
    with pytest.raises(ValueError, match="at least 2"):
        split_train_test(one, 0.5, seed=0)


def case(cid, pos, ddx_diseases, neg=()):
    return ClinicalCase(
        id=cid,
        pos=frozenset(pos),
        neg=frozenset(neg),
        ddx=normalize_ddx([(d, 1.0) for d in ddx_diseases]),
        source="assessment",
    )


def test_build_vocabulary_unions_and_sorts():
    a = CaseSet(cases=(case("1", {"fb", "fa"}, ["dz"]),), provenance=("a",))
    b = CaseSet(cases=(case("2", {"fc"}, ["da"], neg={"fd"}),), provenance=("b",))
    vocab = build_vocabulary([a, b])
    assert vocab.findings == ("fa", "fb", "fc", "fd")
    assert vocab.diseases == ("da", "dz")
    assert vocab.demographic_ids == frozenset()
    assert build_vocabulary([b, a]) == vocab  # order-insensitive
    assert build_vocabulary([merge([a, b])]) == vocab  # idempotent over merging
    assert vocab.disease_array.tolist() == ["da", "dz"]
    with pytest.raises(ValueError, match="read-only"):
        vocab.disease_array[0] = "dz"  # rankings read their ids from it


def test_build_vocabulary_with_kb_flags_and_extension():
    kb = make_kb(
        ["flu"],
        ["cough", ("male", DEMOGRAPHIC, "sex"), ("female", DEMOGRAPHIC, "sex")],
        {("flu", "cough"): 0.5, ("flu", "male"): 0.5},
    )
    cs = CaseSet(cases=(case("1", {"cough", "male", "hospital_personnel"}, ["flu"]),), provenance=("a",))
    vocab = build_vocabulary([cs], kb=kb)
    # KB widens the finding set; out-of-KB findings stay and default to clinical
    assert vocab.findings == ("cough", "female", "hospital_personnel", "male")
    assert vocab.demographic_ids == frozenset({"male", "female"})
    assert vocab.mutex_groups["male"] == "sex"
    assert vocab.mutex_groups["hospital_personnel"] is None

    restricted = build_vocabulary([cs], kb=kb, restrict_to={f.id for f in kb.findings})
    assert "hospital_personnel" not in restricted.findings
    assert restricted.findings == ("cough", "female", "male")


def test_build_vocabulary_requires_diseases():
    empty = CaseSet(cases=(), provenance=("a",))
    with pytest.raises(ValueError, match="no diseases"):
        build_vocabulary([empty])
