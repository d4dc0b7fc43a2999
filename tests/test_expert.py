import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddxkit.expert import (
    CaseError,
    DifferentialDiagnosis,
    SMOOTHING_EPS,
    expert_inference,
    expert_rankings,
)
from ddxkit import expert as expert_module
from ddxkit import kb as kb_module
from ddxkit.evaluate import expert_predictor
from ddxkit.kb import DEMOGRAPHIC, parse_knowledge_base, serialize_knowledge_base
from ddxkit.simulate import SimConfig, simulate_dataset
from ddxkit.synthetic import make_separable_kb

from conftest import make_kb, oracle_inference, oracle_score
from oracles import score_all_diseases, score_disease, softmax_normalize


def test_empty_observations_score_zero(flu_kb):
    assert score_disease(flu_kb, "flu", set(), set()) == 0.0


def test_single_positive_finding_score(flu_kb):
    # FREQ(flu, fever) = 0.8 -> ln(eps + 0.8)
    expected = math.log(SMOOTHING_EPS + 0.8)
    assert score_disease(flu_kb, "flu", {"fever"}, set()) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.221894, abs=1e-6)


def test_negative_finding_score(flu_kb):
    expected = math.log(SMOOTHING_EPS + 1.0 - 0.8)
    assert score_disease(flu_kb, "flu", set(), {"fever"}) == pytest.approx(expected, abs=1e-12)


def test_unlinked_demographic_excludes_disease():
    kb = make_kb(
        ["d"],
        [("female", DEMOGRAPHIC, "sex"), "cough"],
        {("d", "cough"): 0.5},
    )
    assert score_disease(kb, "d", {"female"}, set()) == -math.inf
    # an unlinked clinical finding only penalizes
    assert score_disease(kb, "d", {"cough", "female"}, set()) == -math.inf
    assert math.isfinite(score_disease(kb, "d", {"cough"}, set()))


def test_score_rejects_bad_inputs(flu_kb):
    with pytest.raises(ValueError, match="both pos and neg"):
        score_disease(flu_kb, "flu", {"fever"}, {"fever"})
    with pytest.raises(CaseError, match="^case 0: unknown finding 'hiccups'$"):
        score_disease(flu_kb, "flu", {"hiccups"}, set())
    with pytest.raises(KeyError):
        score_disease(flu_kb, "plague", {"fever"}, set())


def test_softmax_symmetry():
    assert softmax_normalize([0.0, 0.0]) == [0.5, 0.5]


def test_softmax_matches_direct_evaluation():
    # raw differential scores 26.9 / 23.4 / 22.9, normalized by hand
    raw = [26.9, 23.4, 22.9]
    m = max(raw)
    exps = [math.exp(s - m) for s in raw]
    expected = [e / sum(exps) for e in exps]
    result = softmax_normalize(raw)
    assert result == pytest.approx(expected, abs=1e-15)
    assert result == pytest.approx([0.9537, 0.0288, 0.0175], abs=5e-5)


def test_softmax_sentinel_and_errors():
    assert softmax_normalize([5.0, -math.inf]) == [1.0, 0.0]
    with pytest.raises(ValueError):
        softmax_normalize([])
    with pytest.raises(ValueError):
        softmax_normalize([-math.inf, -math.inf])
    with pytest.raises(ValueError):
        softmax_normalize([math.nan, 0.0])
    with pytest.raises(ValueError):
        softmax_normalize([math.inf, 0.0])


@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    st.floats(-50, 50),
)
@settings(max_examples=200)
def test_softmax_shift_invariance_and_normalization(scores, shift):
    base = softmax_normalize(scores)
    shifted = softmax_normalize([s + shift for s in scores])
    assert sum(base) == pytest.approx(1.0, abs=1e-9)
    for a, b in zip(base, shifted):
        assert a == pytest.approx(b, abs=1e-12)


def test_inference_matches_oracle_on_small_kb(flu_kb):
    ddx = expert_inference(flu_kb, [({"fever", "cough"}, {"rash"})], k=5)[0]
    expected = oracle_inference(flu_kb, {"fever", "cough"}, {"rash"}, k=5)
    assert ddx.diseases == tuple(d for d, _ in expected)
    for (d, p), (od, op) in zip(ddx.entries, expected):
        assert d == od and p == pytest.approx(op, abs=1e-12)


def test_two_disease_renormalization():
    # raw scores -0.2 and -1.6 renormalize among themselves
    probs = softmax_normalize([-0.2, -1.6])
    assert probs == pytest.approx([0.8022, 0.1978], abs=5e-5)


def test_inference_k1_is_certain(flu_kb):
    ddx = expert_inference(flu_kb, [({"fever"}, set())], k=1)[0]
    assert len(ddx.entries) == 1
    assert ddx.entries[0] == ("flu", 1.0)


def test_inference_all_excluded_raises():
    kb = make_kb(["d"], [("male", DEMOGRAPHIC, "sex")], {})
    with pytest.raises(ValueError, match="excluded"):
        expert_inference(kb, [({"male"}, set())], k=3)
    with pytest.raises(ValueError, match="k must be"):
        expert_inference(kb, [(set(), set())], k=0)


def test_inference_exhaustive_oracle_agreement():
    kb = make_kb(
        ["d0", "d1", "d2"],
        ["f0", "f1", "f2", ("f3", DEMOGRAPHIC, "sex")],
        {
            ("d0", "f0"): 0.9,
            ("d0", "f1"): 0.2,
            ("d1", "f1"): 0.7,
            ("d1", "f2"): 0.4,
            ("d1", "f3"): 0.5,
            ("d2", "f2"): 1.0,
            ("d2", "f3"): 0.5,
        },
    )
    fids = [f.id for f in kb.findings]
    for assignment in itertools.product((0, 1, 2), repeat=len(fids)):
        pos = {f for f, a in zip(fids, assignment) if a == 1}
        neg = {f for f, a in zip(fids, assignment) if a == 2}
        for k in (1, 2, 5):
            try:
                expected = oracle_inference(kb, pos, neg, k)
            except ValueError:
                with pytest.raises(ValueError):
                    expert_inference(kb, [(pos, neg)], k)
                continue
            got = expert_inference(kb, [(pos, neg)], k)[0]
            assert got.diseases == tuple(d for d, _ in expected)
            for (d, p), (od, op) in zip(got.entries, expected):
                assert p == pytest.approx(op, abs=1e-12)


@st.composite
def random_kb_and_case(draw):
    n_d = draw(st.integers(2, 4))
    n_f = draw(st.integers(2, 6))
    diseases = [f"d{i}" for i in range(n_d)]
    findings = [f"f{i}" for i in range(n_f)]
    freqs = {}
    for d in diseases:
        for f in findings:
            q = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]))
            if q:
                freqs[(d, f)] = q
    kb = make_kb(diseases, findings, freqs)
    labels = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n_f, max_size=n_f))
    pos = {f for f, a in zip(findings, labels) if a == 1}
    neg = {f for f, a in zip(findings, labels) if a == 2}
    return kb, pos, neg


@given(random_kb_and_case(), st.integers(0, 10))
@settings(max_examples=100)
def test_raising_a_positive_frequency_never_hurts_rank(case, salt):
    kb, pos, neg = case
    if not pos:
        return
    d = kb.diseases[salt % len(kb.diseases)].id
    f = sorted(pos)[salt % len(pos)]
    ranked = [did for did, _ in oracle_inference(kb, pos, neg, k=len(kb.diseases))]
    before = ranked.index(d) if d in ranked else len(ranked)

    bumped = dict(kb.frequencies)
    bumped[(d, f)] = min(1.0, bumped.get((d, f), 0.0) + 0.3)
    kb2 = make_kb([x.id for x in kb.diseases], [(x.id, x.kind, x.mutex_group) for x in kb.findings], bumped)
    ddx2 = expert_inference(kb2, [(pos, neg)], k=len(kb.diseases))[0]
    after = ddx2.diseases.index(d) if d in ddx2.diseases else len(ddx2.diseases)
    assert after <= before


def test_differential_invariants_are_enforced():
    with pytest.raises(ValueError, match="sum"):
        DifferentialDiagnosis(entries=(("a", 0.5), ("b", 0.4)))
    with pytest.raises(ValueError, match="sorted"):
        DifferentialDiagnosis(entries=(("a", 0.3), ("b", 0.7)))
    with pytest.raises(ValueError, match="> 0"):
        DifferentialDiagnosis(entries=(("a", 1.0), ("b", 0.0)))
    with pytest.raises(ValueError, match="empty"):
        DifferentialDiagnosis(entries=())


def test_table_scores_equal_the_oracle_exactly_on_simulated_cases():
    kb = make_separable_kb(200)
    cases = simulate_dataset(kb, SimConfig(cases_total=200, seed=5, min_cases_per_disease=0))
    n = len(kb.diseases)
    for case in cases:
        # The oracle adds terms in argument order; sorted lists match the engine's order.
        pos, neg = sorted(case.pos), sorted(case.neg)
        scores = score_all_diseases(kb, case.pos, case.neg)
        assert scores.tolist() == [oracle_score(kb, d.id, pos, neg) for d in kb.diseases]
        ddx = expert_inference(kb, [(case.pos, case.neg)], k=n)[0]
        assert ddx.diseases == tuple(d for d, _ in oracle_inference(kb, pos, neg, k=n))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_top_k_cut_through_a_tie_keeps_the_lowest_ids(k):
    # d1..d4 score identically, below d0 and above d5; KB order is shuffled.
    tied = {(d, "f"): 0.5 for d in ("d4", "d2", "d3", "d1")}
    kb = make_kb(["d4", "d0", "d3", "d5", "d1", "d2"], ["f"], tied | {("d0", "f"): 0.9, ("d5", "f"): 0.1})
    ddx = expert_inference(kb, [({"f"}, set())], k=k)[0]
    assert ddx.diseases == ("d0", "d1", "d2", "d3")[:k]
    assert [d for d, _ in oracle_inference(kb, {"f"}, set(), k=k)] == list(ddx.diseases)


def test_scoring_tables_are_built_once_per_knowledge_base(monkeypatch):
    builds = []
    build = kb_module._build_scoring_tables
    monkeypatch.setattr(kb_module, "_build_scoring_tables", lambda kb: builds.append(kb) or build(kb))
    kb = parse_knowledge_base(serialize_knowledge_base(make_separable_kb(4)))
    assert builds == []  # parsing does not compile
    for _ in range(3):
        expert_inference(kb, [({"d00_f0"}, set())])
    score_disease(kb, "d00", {"d00_f0"}, set())
    assert builds == [kb]
    other = parse_knowledge_base(serialize_knowledge_base(kb))
    expert_inference(other, [({"d00_f0"}, set())])
    assert len(builds) == 2 and builds[1] is other


def reference_entries(kb, pos, neg, k):
    """The per-entry Python ranking expert_inference is byte-equal to.

    Sorts the finite scores by (-score, id), keeps k, softmaxes them with
    softmax_normalize, drops probabilities that underflow to 0 and re-sorts
    by (-p, id). Scores come from score_all_diseases, which reads the module's
    `_row_scores`, so a monkeypatched `_row_scores` feeds both sides.
    """
    scores = score_all_diseases(kb, pos, neg).tolist()
    finite = [(d.id, s) for d, s in zip(kb.diseases, scores) if s != -math.inf]
    kept = sorted(finite, key=lambda e: (-e[1], e[0]))[:k]
    probs = softmax_normalize([s for _, s in kept])
    order = sorted((i for i in range(len(kept)) if probs[i] > 0.0), key=lambda i: (-probs[i], kept[i][0]))
    return tuple((kept[i][0], probs[i]) for i in order)


def assert_same_bytes(kb, pos, neg, k):
    assert repr(expert_inference(kb, [(pos, neg)], k)[0].entries) == repr(reference_entries(kb, pos, neg, k))


@pytest.mark.parametrize("k", [5, 200])
def test_array_ranking_equals_the_reference_bytes_on_simulated_cases(k):
    kb = make_separable_kb(200)
    for case in simulate_dataset(kb, SimConfig(cases_total=300, seed=11, min_cases_per_disease=0)):
        assert_same_bytes(kb, case.pos, case.neg, k)


@given(random_kb_and_case(), st.data())
@settings(max_examples=150)
def test_array_ranking_equals_the_reference_bytes_on_random_kbs(case, data):
    kb, pos, neg = case
    assert_same_bytes(kb, pos, neg, data.draw(st.integers(1, len(kb.diseases) + 1)))


@pytest.mark.parametrize(
    "scores,expected",
    [
        # exp(-800) underflows to 0: d1 carries no mass and is dropped
        ([0.0, -800.0], (("d0", 1.0),)),
        # d1 scores higher, but exp(-1e-17) == 1.0, so the tie goes to d0 by id
        ([-1e-17, 0.0], (("d0", 0.5), ("d1", 0.5))),
    ],
)
def test_array_ranking_on_crafted_scores(monkeypatch, scores, expected):
    kb = make_kb(["d0", "d1"], ["f"], {})
    # A one-case call and the reference read _row_scores; a set call reads _set_scores.
    monkeypatch.setattr(expert_module, "_row_scores", lambda tables, pos, neg, index=0: np.array(scores))
    monkeypatch.setattr(expert_module, "_set_scores", lambda tables, cases, start: np.array([scores] * len(cases)))
    assert reference_entries(kb, set(), set(), 2) == expected
    assert_same_bytes(kb, set(), set(), 2)
    n = expert_module.ARRAY_PASS_CASES
    assert [ddx.entries for ddx in expert_inference(kb, [(set(), set())] * n, 2)] == [expected] * n
    # The rankings behind the labels, and the predictor that passes them on
    # unchecked: a row path that skipped the tie re-rank would fail here.
    assert expert_rankings(kb, [(set(), set())], 2) == [list(expected)]
    assert expert_rankings(kb, [(set(), set())] * n, 2) == [list(expected)] * n
    predictor = expert_predictor(kb, top_k=2)
    assert predictor(frozenset(), frozenset()) == (list(expected), 0)
    assert list(predictor.batch([(frozenset(), frozenset())] * n)) == [(list(expected), 0)] * n


def label_entries(kb, cases, k):
    """expert_inference's labels as lists of entries."""
    return [list(ddx.entries) for ddx in expert_inference(kb, cases, k)]


# Fewer than ARRAY_PASS_CASES cases are ranked one at a time, more in array passes.
@pytest.mark.parametrize("n", [1, expert_module.ARRAY_PASS_CASES - 1, expert_module.ARRAY_PASS_CASES, 40])
@pytest.mark.parametrize("k", [1, 5, 200])
def test_rankings_are_the_labels_entries_on_simulated_cases(n, k):
    kb = make_separable_kb(200)
    cases = [(c.pos, c.neg) for c in simulate_dataset(kb, SimConfig(cases_total=n, seed=13, min_cases_per_disease=0))]
    assert repr(expert_rankings(kb, cases, k)) == repr(label_entries(kb, cases, k))


@st.composite
def random_kb_and_cases(draw):
    """A KB of 1-5 diseases over 1-5 clinical findings and three demographics,
    its frequencies from a few values so that scores tie, and 1-20 cases.
    A demographic a disease never has excludes it."""
    diseases = [f"d{i}" for i in range(draw(st.integers(1, 5)))]
    findings = [f"f{i}" for i in range(draw(st.integers(1, 5)))]
    findings += [("male", DEMOGRAPHIC, "sex"), ("female", DEMOGRAPHIC, "sex"), ("child", DEMOGRAPHIC, "age")]
    ids = [f if isinstance(f, str) else f[0] for f in findings]
    freqs = {}
    for d in diseases:
        for f in ids:
            q = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
            if q:
                freqs[(d, f)] = q
    kb = make_kb(diseases, findings, freqs)
    labels = st.lists(st.sampled_from([0, 1, 2]), min_size=len(ids), max_size=len(ids))
    cases = [
        ({f for f, a in zip(ids, row) if a == 1}, {f for f, a in zip(ids, row) if a == 2})
        for row in draw(st.lists(labels, min_size=1, max_size=20))
    ]
    return kb, cases


@given(random_kb_and_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_set_inference_equals_the_reference_bytes_per_case(drawn, data):
    kb, cases = drawn
    k = data.draw(st.integers(1, len(kb.diseases) + 1))
    expected = []
    for pos, neg in cases:
        try:
            expected.append(repr(reference_entries(kb, pos, neg, k)))
        except ValueError:  # every disease excluded
            expected.append(None)
    if None in expected:
        with pytest.raises(CaseError, match="all diseases excluded") as raised:
            expert_inference(kb, cases, k)
        assert raised.value.index == expected.index(None)
    kept = [(case, e) for case, e in zip(cases, expected) if e is not None]
    for share in (kept, kept[::-1]):
        got = expert_inference(kb, [case for case, _ in share], k)
        assert [repr(ddx.entries) for ddx in got] == [e for _, e in share]


@given(random_kb_and_cases(), st.data())
@settings(max_examples=100, deadline=None)
def test_rankings_are_the_labels_entries_on_random_kbs(drawn, data):
    kb, cases = drawn
    n = data.draw(st.integers(1, 2 * expert_module.ARRAY_PASS_CASES))
    cases = (cases * n)[:n]
    k = data.draw(st.sampled_from([1, 5, len(kb.diseases)]))
    try:
        expected = label_entries(kb, cases, k)
    except CaseError as e:
        with pytest.raises(CaseError) as raised:
            expert_rankings(kb, cases, k)
        assert str(raised.value) == str(e)
    else:
        assert repr(expert_rankings(kb, cases, k)) == repr(expected)


@pytest.mark.parametrize("k", [5, 200])
def test_set_inference_equals_the_reference_bytes_on_simulated_cases(k):
    kb = make_separable_kb(200)
    cases = simulate_dataset(kb, SimConfig(cases_total=300, seed=11, min_cases_per_disease=0))
    assert len(cases) > expert_module.LABEL_CHUNK
    got = expert_inference(kb, [(case.pos, case.neg) for case in cases], k)
    assert [repr(ddx.entries) for ddx in got] == [repr(reference_entries(kb, c.pos, c.neg, k)) for c in cases]


@pytest.mark.parametrize("n", [1, expert_module.ARRAY_PASS_CASES])
def test_a_k_past_int64_keeps_every_disease(n):
    # n = 1 labels case by case; ARRAY_PASS_CASES cases take the array pass.
    kb = make_separable_kb(20)
    cases = [(c.pos, c.neg) for c in simulate_dataset(kb, SimConfig(cases_total=n, seed=3, min_cases_per_disease=0))]
    expected = [repr(ddx.entries) for ddx in expert_inference(kb, cases, 20)]
    for k in (2**63, 2**70):
        assert [repr(ddx.entries) for ddx in expert_inference(kb, cases, k)] == expected


def test_set_inference_ranks_a_tie_across_the_top_k_cut_by_id():
    # 50 diseases over 4 findings of three frequencies: most scores tie, and
    # a partition picks among the diseases tied with the k-th arbitrarily.
    rng = np.random.default_rng(0)
    diseases, findings = [f"d{i:02d}" for i in range(50)], ["f0", "f1", "f2", "f3"]
    kb = make_kb(diseases, findings, {(d, f): float(rng.choice([0.1, 0.5, 0.9])) for d in diseases for f in findings})
    cases = [
        ({f for f, a in zip(findings, row) if a == 1}, {f for f, a in zip(findings, row) if a == 2})
        for row in itertools.product((0, 1, 2), repeat=4)
    ]
    for k in (1, 5, 12):
        got = expert_inference(kb, cases, k)
        assert [repr(ddx.entries) for ddx in got] == [repr(reference_entries(kb, pos, neg, k)) for pos, neg in cases]


# A call of fewer than ARRAY_PASS_CASES cases labels them one at a time, a
# longer one in array passes; at LABEL_CHUNK + 2 the bad case is in the second.
@pytest.mark.parametrize("n", [1, 3, 10, expert_module.ARRAY_PASS_CASES, expert_module.LABEL_CHUNK + 2])
def test_a_case_that_cannot_be_labelled_is_named_by_its_index(n):
    kb = make_kb(
        ["d0", "d1"],
        ["f", ("male", DEMOGRAPHIC, "sex"), ("female", DEMOGRAPHIC, "sex")],
        {("d0", "f"): 0.5, ("d1", "f"): 0.5, ("d0", "male"): 1.0, ("d1", "female"): 1.0},
    )
    bad_cases = {
        "findings in both pos and neg": ({"f"}, {"f"}),
        "all diseases excluded": ({"male", "female"}, set()),
        "unknown finding 'nope'": ({"f"}, {"nope"}),
    }
    for reason, bad in bad_cases.items():
        with pytest.raises(CaseError, match=f"^case {n - 1}: {reason}") as raised:
            expert_inference(kb, [({"f"}, set())] * (n - 1) + [bad], 3)
        assert raised.value.index == n - 1


def cannot_be_labelled(kb, pos, neg) -> bool:
    """Whether a case holds an unknown finding, a finding in both pos and
    neg, or a demographic that excludes every disease, by the brute-force
    scoring rule."""
    if not all(kb.has_finding(f) for f in pos | neg) or pos & neg:
        return True
    return all(oracle_score(kb, d.id, pos, neg) == -math.inf for d in kb.diseases)


@st.composite
def kb_and_faulty_cases(draw):
    """A random_kb_and_cases KB and its cases, repeated to 1 to 2 *
    ARRAY_PASS_CASES, up to two of them made faulty: a finding the KB does not
    know, or one finding in both pos and neg, is added."""
    kb, cases = draw(random_kb_and_cases())
    n = draw(st.integers(1, 2 * expert_module.ARRAY_PASS_CASES))
    cases = (cases * n)[:n]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(cases) - 1))
        f = draw(st.sampled_from([f.id for f in kb.findings] + ["nope"]))
        cases[i] = (cases[i][0] | {f}, cases[i][1] | {draw(st.sampled_from([f, "zz"]))})
    return kb, cases


@given(kb_and_faulty_cases(), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_a_faulty_case_list_raises_only_case_error(drawn, k):
    kb, cases = drawn
    try:
        got = expert_inference(kb, cases, k)
    except CaseError as e:
        # With several faults, the per-case and array paths may name different ones.
        assert cannot_be_labelled(kb, *cases[e.index])
    else:
        assert len(got) == len(cases) and all(isinstance(ddx, DifferentialDiagnosis) for ddx in got)
        assert not any(cannot_be_labelled(kb, pos, neg) for pos, neg in cases)
