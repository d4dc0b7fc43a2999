import json

import pytest
from hypothesis import example, given, settings
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

from conftest import make_kb, valid_or_garbage
from oracles import reference_read_cases


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
        ('{"id": "c1"}', ":1: missing field 'pos'$"),
        ('{"pos": [], "ddx": [], "neg": []}', ":1: missing field 'id'$"),
        (line(ddx=[{"disease": "flu", "p": True}]), r":1: ddx\[0\] needs a string 'disease' and a number 'p'"),
        (line(ddx=[{"disease": "cold", "p": 1.0}, {"disease": "flu", "p": False}]), r":1: ddx\[1\] needs a string 'disease' and a number 'p'"),
        (line(pos=["fever", "cough", "fever"]), ":1: pos repeats finding id 'fever'"),
        (line(neg=["rash", "rash"]), ":1: neg repeats finding id 'rash'"),
        (line(ddx=[{"disease": "flu", "p": 10**400}]), ":1: a ddx 'p' is too large for a float"),
        ('{"id": ' + "1" * 5000 + "}", ":1: parse error: Exceeds the limit"),
        pytest.param("[" * 200000, ":1: parse error: maximum recursion depth exceeded", id="nested-too-deep"),
    ],
)
def test_read_rejects_bad_lines(text, match):
    with pytest.raises(CaseFormatError, match=match):
        read_cases(text)


def case_documents():
    """Case documents of one to three lines. Half the records have every
    field valid; in the others each field is, now and then, garbage (null and
    bools among it).

    The ddx is a distribution as write_cases writes one, or one edited out of
    that form: reordered (ties too), scaled, one disease split into two
    entries, or a zero weight added; or raw weights, integers and zeros and
    integers too large for a float among them. pos and neg may share a finding
    or repeat one, ids repeat across lines, and a record may gain an unknown
    field or lose one. A line may be padded with whitespace, start with a
    byte-order mark, be cut short, carry extra text or be blank.
    """
    disease = st.sampled_from(["flu", "cold", "covid"])
    # Weights from a few values, so that probabilities tie.
    as_written = st.lists(
        st.tuples(disease, st.sampled_from([1.0, 2.0, 0.7])), min_size=1, max_size=3, unique_by=lambda e: e[0]
    ).map(lambda weights: [{"disease": d, "p": p} for d, p in normalize_ddx(weights).entries])

    @st.composite
    def edited(draw):
        entries = draw(as_written)
        edit = draw(st.sampled_from(["none", "reorder", "scale", "split", "zero"]))
        if edit == "reorder":
            entries = draw(st.permutations(entries))
        elif edit == "scale":
            scale = draw(st.sampled_from([2.0, 0.5, 1.0 + 1e-12]))
            entries = [{"disease": e["disease"], "p": e["p"] * scale} for e in entries]
        elif edit == "split":
            e = draw(st.sampled_from(entries))
            parts = [{"disease": e["disease"], "p": e["p"] * f} for f in (0.6, 0.4)]
            entries = sorted([x for x in entries if x is not e] + parts, key=lambda x: (-x["p"], x["disease"]))
        elif edit == "zero":
            entries = entries + [{"disease": draw(disease), "p": draw(st.sampled_from([0.0, 0]))}]
        return entries

    weight = st.one_of(st.floats(0.0, 1.0), st.integers(0, 3), st.just(0.0), st.just(10**400))

    def record(w, distinct):
        """A record whose every field strategy, and every ddx entry's, is
        wrapped in `w`; `distinct` keeps pos and neg free of repeats."""
        raw = st.lists(w(st.fixed_dictionaries({"disease": w(disease), "p": w(weight)})), max_size=3)

        def findings(ids):
            return st.lists(w(st.sampled_from(ids)), max_size=2, unique_by=repr if distinct else None)

        return st.fixed_dictionaries(
            {
                "id": w(st.sampled_from(["c1", "c2"])),
                "pos": w(findings(["fever", "cough"])),
                "neg": w(findings(["cough", "rash"])),
                "ddx": w(st.one_of(edited(), raw)),
                "source": w(st.sampled_from(CASE_SOURCES)),
            },
            optional={"seed_disease": w(st.just("flu"))},
        )

    records = st.one_of(record(lambda s: s, True), record(valid_or_garbage, False))

    @st.composite
    def lines(draw):
        doc = draw(records)
        change = draw(st.integers(0, 15))  # shrinks toward 0, no change
        if change == 15:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif change == 14:
            doc["extra"] = 1
        text = json.dumps(draw(valid_or_garbage(st.just(doc))))
        return draw(st.sampled_from([text] * 16 + [f" {text}\t", "\ufeff" + text, text[:-1], text + " x", ""]))

    return st.lists(lines(), min_size=1, max_size=3).map("\n".join)


@given(case_documents())
@settings(max_examples=300)
def test_garbage_lines_raise_only_case_format_errors(text):
    try:
        read_cases(text)
    except CaseFormatError:
        pass


def outcome(reader, text):
    """The reader's case set and its written bytes, or its CaseFormatError message."""
    try:
        cs = reader(text, provenance="f.jsonl")
    except CaseFormatError as e:
        return str(e)
    return cs, write_cases(cs)


@given(case_documents())
@example(line(ddx=[{"disease": "flu", "p": 0.5}, {"disease": "cold", "p": 0.5}]))  # a tie out of id order
@example(line(ddx=[{"disease": "flu", "p": 10**400}, {"disease": "cold"}]))  # the entry's shape is named first
@example(line(source="guess"))
@settings(max_examples=500)
def test_read_cases_matches_the_reference_reader(text):
    assert outcome(read_cases, text) == outcome(reference_read_cases, text)


def test_read_error_carries_line_number():
    text = line() + "\n" + line(id="c2", pos=["x"], neg=["x"])
    with pytest.raises(CaseFormatError, match=":2:"):
        read_cases(text, provenance="cases.jsonl")


def test_read_rejects_duplicate_case_ids():
    with pytest.raises(CaseFormatError, match="duplicate case id"):
        read_cases(line() + "\n" + line())


def test_duplicate_case_id_names_both_lines():
    text = "\n".join([line(id="x"), line(id="y"), "", line(id="x")])
    with pytest.raises(CaseFormatError) as err:
        read_cases(text, provenance="dup.jsonl")
    assert str(err.value) == "dup.jsonl:4: duplicate case id 'x' (first on line 1)"


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
@example([(0, 4.0), (1, 99.5), (2, 99.99999999999999), (3, 100.0)])
@settings(max_examples=150)
def test_normalize_ddx_sums_to_one_and_keeps_ranking(raw):
    weights = [(f"d{i}", w) for i, w in raw]
    ddx = normalize_ddx(weights)
    assert sum(p for _, p in ddx.entries) == pytest.approx(1.0, abs=1e-9)
    by_weight = {d: w for d, w in weights}
    probs = [p for _, p in ddx.entries]
    assert probs == sorted(probs, reverse=True)
    # Two distinct weights can scale to one probability; that tie then ranks by id.
    for (d1, p1), (d2, p2) in zip(ddx.entries, ddx.entries[1:]):
        assert by_weight[d1] >= by_weight[d2] or p1 == p2


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


def test_merge_names_the_sets_that_share_an_id():
    a = read_cases(line(id="sim-0"), provenance="a.jsonl")
    b = read_cases(line(id="sim-1") + "\n" + line(id="sim-0"), provenance="b.jsonl")
    with pytest.raises(CaseFormatError) as err:
        merge([a, b])
    assert str(err.value) == "b.jsonl: duplicate case id 'sim-0', also in a.jsonl"
    with pytest.raises(CaseFormatError) as err:
        merge([merge([a, read_cases(line(id="c"), provenance="c.jsonl")]), CaseSet(cases=b.cases[1:])])
    assert str(err.value) == "case set 1: duplicate case id 'sim-0', also in a.jsonl + c.jsonl"


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

    restricted = build_vocabulary([cs], kb=kb, restrict_to={f.id for f in kb.findings})
    assert "hospital_personnel" not in restricted.findings
    assert restricted.findings == ("cough", "female", "male")


def test_build_vocabulary_requires_diseases():
    empty = CaseSet(cases=(), provenance=("a",))
    with pytest.raises(ValueError, match="no diseases"):
        build_vocabulary([empty])
