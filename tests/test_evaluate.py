import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddxkit.data import CaseSet, Vocabulary, build_vocabulary, normalize_ddx
from ddxkit.evaluate import (
    evaluate,
    expert_predictor,
    format_table,
    model_predictor,
    rank_case_set,
)
from ddxkit.expert import ARRAY_PASS_CASES, CaseError, DifferentialDiagnosis
from ddxkit.model import RANK_CHUNK, encode_case, init_parameters
from ddxkit.simulate import ClinicalCase, SimConfig, simulate_dataset
from ddxkit.synthetic import make_separable_kb

from oracles import reference_ranking


def case(cid, ddx_weights, pos=("f0",), seed_disease=None):
    return ClinicalCase(
        id=cid,
        pos=frozenset(pos),
        neg=frozenset(),
        ddx=normalize_ddx(ddx_weights),
        source="assessment",
        seed_disease=seed_disease,
    )


def test_truth_label_argmax_and_tie_break():
    assert case("a", [("meningitis", 1.0)]).ddx.top() == "meningitis"
    assert case("b", [("b", 0.5), ("a", 0.5)]).ddx.top() == "a"
    assert case("c", [("pneumonia", 0.9537), ("flu", 0.0288), ("sinusitis", 0.0175)]).ddx.top() == "pneumonia"


def uniform_model(n_diseases=4):
    vocab = Vocabulary(
        findings=("f0", "f1"),
        diseases=tuple(f"d{i}" for i in range(n_diseases)),
        demographic_ids=frozenset(),
    )
    p = init_parameters(vocab, dim=4, seed=0)
    for arr in p.blocks().values():
        arr[:] = 0.0
    return p


def test_uniform_model_hits_at_full_depth():
    p = uniform_model(4)
    cases = CaseSet(
        cases=tuple(case(f"c{i}", [(f"d{i}", 1.0)]) for i in range(4)),
        provenance=("x",),
    )
    report = evaluate(model_predictor(p), cases, ks=[1, 2, 4])
    assert report.accuracy[4] == 1.0
    assert report.accuracy[1] == 0.25  # uniform ties resolve to id order
    assert report.n_cases == 4


def test_monotonic_accuracy_and_record_consistency():
    kb = make_separable_kb(n_diseases=6)
    cases = simulate_dataset(kb, SimConfig(cases_total=60, min_cases_per_disease=10, seed=21))
    cs = CaseSet(cases=tuple(cases), provenance=("sim",))
    report = evaluate(expert_predictor(kb), cs, ks=[1, 3, 5], truth="seed-disease")
    assert report.accuracy[1] <= report.accuracy[3] <= report.accuracy[5]
    for k in (1, 3, 5):
        recomputed = sum(r.hits[k] for r in report.records) / len(report.records)
        assert recomputed == report.accuracy[k]


def test_evaluate_counts_skipped_findings():
    p = uniform_model(3)
    cases = CaseSet(
        cases=(case("c0", [("d0", 1.0)], pos=("f0", "alien")),),
        provenance=("x",),
    )
    report = evaluate(model_predictor(p), cases, ks=[1])
    assert report.skipped_findings == 1


def test_model_batch_method_ranks_like_the_per_case_predictor():
    kb = make_separable_kb(n_diseases=6)
    sim = CaseSet(cases=tuple(simulate_dataset(kb, SimConfig(cases_total=300, min_cases_per_disease=10, seed=23))))
    predictor = model_predictor(init_parameters(build_vocabulary([sim], kb=kb), dim=8, seed=1))
    alien = case("alien", [("d00", 1.0)], pos=("alien",), seed_disease="d00")
    cs = CaseSet(cases=sim.cases + (alien,), provenance=("sim",))

    def per_case(pos, neg):  # the same predictor without its batch method
        return predictor(pos, neg)

    batched = list(rank_case_set(predictor, cs))
    assert repr(batched) == repr(list(rank_case_set(per_case, cs)))
    assert batched[-1][1] == 1  # the unknown finding is counted as skipped
    a = evaluate(predictor, cs, ks=[1, 3], target="d01", truth="seed-disease")
    assert a.to_json() == evaluate(per_case, cs, ks=[1, 3], target="d01", truth="seed-disease").to_json()


@pytest.mark.parametrize("top_k", [None, 3])
def test_expert_batch_method_ranks_like_the_per_case_predictor(top_k):
    kb = make_separable_kb(n_diseases=6)
    sim = simulate_dataset(kb, SimConfig(cases_total=300, min_cases_per_disease=10, seed=23))
    alien = case("alien", [("d00", 1.0)], pos=("alien", "d00_f0"), seed_disease="d00")
    cs = CaseSet(cases=tuple(sim) + (alien,), provenance=("sim",))
    predictor = expert_predictor(kb, top_k=top_k)

    def per_case(pos, neg):  # the same predictor without its batch method
        return predictor(pos, neg)

    batched = list(rank_case_set(predictor, cs))
    assert repr(batched) == repr(list(rank_case_set(per_case, cs)))
    assert batched[-1][1] == 1  # the unknown finding is counted as skipped


@pytest.mark.parametrize("top_k", [0, -1])
def test_expert_predictor_rejects_a_top_k_below_one_when_built(top_k):
    with pytest.raises(ValueError, match=f"^top_k must be >= 1 or None, got {top_k}$"):
        expert_predictor(make_separable_kb(n_diseases=4), top_k=top_k)


def test_only_a_stored_label_is_built_as_a_differential(monkeypatch):
    built = []
    check = DifferentialDiagnosis.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(DifferentialDiagnosis, "__post_init__", counting)
    kb = make_separable_kb(n_diseases=6)
    sim = simulate_dataset(kb, SimConfig(cases_total=40, min_cases_per_disease=0, seed=31))
    assert len(built) == len(sim)  # one label per simulated case
    built.clear()
    # 5 cases are ranked one at a time, 40 in an array pass.
    for n in (5, 40):
        cs = CaseSet(cases=tuple(sim[:n]), provenance=("sim",))
        for predictor in (expert_predictor(kb), expert_predictor(kb, top_k=3)):
            assert evaluate(predictor, cs, ks=[1, 5]).n_cases == n
            assert len(list(rank_case_set(predictor, cs))) == n
    assert built == []


PROPERTY_KB = make_separable_kb(n_diseases=6)
PROPERTY_CASES = simulate_dataset(PROPERTY_KB, SimConfig(cases_total=120, min_cases_per_disease=10, seed=29))
PROPERTY_VOCAB = build_vocabulary([CaseSet(cases=tuple(PROPERTY_CASES))], kb=PROPERTY_KB)
SET_SIZES = st.one_of(st.integers(1, 2 * ARRAY_PASS_CASES), st.integers(RANK_CHUNK - 2, RANK_CHUNK + ARRAY_PASS_CASES))


@given(n=SET_SIZES, seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1.0, 30.0]))
@example(n=ARRAY_PASS_CASES, seed=0, scale=1.0).via("the expert's first array pass")
@example(n=RANK_CHUNK + 1, seed=1, scale=1.0).via("a second model chunk of one case")
@settings(max_examples=8, deadline=None)
def test_each_predictor_ranks_a_case_alone_as_in_its_set(n, seed, scale):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in rng.integers(len(PROPERTY_CASES), size=n):
        pos, neg = set(PROPERTY_CASES[i].pos), set(PROPERTY_CASES[i].neg)
        if rng.random() < 0.2:
            (pos if rng.random() < 0.5 else neg).add("alien")  # skipped by both engines
        if rng.random() < 0.05:
            pos, neg = set(), set()
        pairs.append((frozenset(pos), frozenset(neg)))
    p = init_parameters(PROPERTY_VOCAB, dim=8, seed=seed % 1000, kb=PROPERTY_KB)
    for arr in (p.finding_embeddings, p.projection, p.bias):
        arr += rng.normal(0.0, scale, size=arr.shape)
    model = model_predictor(p)
    for predictor in (model, expert_predictor(PROPERTY_KB), expert_predictor(PROPERTY_KB, top_k=3)):
        batched = list(predictor.batch(pairs))
        assert len(batched) == n
        assert repr([predictor(pos, neg) for pos, neg in pairs]) == repr(batched)
        if predictor is model:
            expected = [reference_ranking(p, encode_case(p.vocab, pos, neg)[0]) for pos, neg in pairs]
            assert repr([ranked for ranked, _ in batched]) == repr(expected)


def test_evaluate_seed_disease_mode_requires_seed():
    p = uniform_model(3)
    cases = CaseSet(cases=(case("c0", [("d0", 1.0)]),), provenance=("x",))
    with pytest.raises(ValueError, match="seed_disease"):
        evaluate(model_predictor(p), cases, ks=[1], truth="seed-disease")
    with pytest.raises(ValueError, match="truth"):
        evaluate(model_predictor(p), cases, ks=[1], truth="oracle")
    with pytest.raises(ValueError, match="empty case set"):
        evaluate(model_predictor(p), CaseSet(cases=(), provenance=()), ks=[1])


def test_seedless_case_fails_before_any_ranking():
    calls = []

    def predict(pos, neg):
        calls.append(pos)
        return [("d0", 1.0)], 0

    seeded = case("c0", [("d0", 1.0)], seed_disease="d0")
    cases = CaseSet(cases=(seeded, case("c1", [("d0", 1.0)])), provenance=("x",))
    with pytest.raises(CaseError, match="^case 1: no seed_disease, needed by truth=seed-disease$"):
        evaluate(predict, cases, ks=[1], truth="seed-disease")
    assert calls == []


def test_batch_yielding_too_few_rankings_is_an_error():
    def predict(pos, neg):
        return [("d0", 1.0)], 0

    predict.batch = lambda pairs: [predict(pos, neg) for pos, neg in pairs][1:]
    cases = CaseSet(cases=tuple(case(f"c{i}", [("d0", 1.0)]) for i in range(3)), provenance=("x",))
    with pytest.raises(ValueError):
        evaluate(predict, cases, ks=[1])


def test_evaluate_reports_target_accuracy():
    p = uniform_model(4)
    cases = CaseSet(cases=tuple(case(f"c{i}", [("d0", 1.0)]) for i in range(3)), provenance=("x",))
    report = evaluate(model_predictor(p), cases, ks=[1, 4], target="d3")
    assert report.target_accuracy == {1: 0.0, 4: 1.0}
    assert report.records[0].target_hits == {1: False, 4: True}


def test_report_serialization_and_table():
    p = uniform_model(3)
    cases = CaseSet(cases=(case("c0", [("d0", 1.0)]),), provenance=("x",))
    report = evaluate(model_predictor(p), cases, ks=[1, 3])
    doc = json.loads(report.to_json())
    assert doc["n_cases"] == 1
    assert doc["accuracy"]["3"] == 1.0
    table = format_table("base", report.accuracy)
    assert table == "top-k           base\n--------------------\n1             100.0%\n3             100.0%"


def test_evaluate_rejects_a_depth_below_one():
    cases = CaseSet(cases=(case("a", [("d0", 1.0)]),))
    with pytest.raises(ValueError) as raised:
        evaluate(model_predictor(uniform_model()), cases, ks=[0])
    assert str(raised.value) == "ks must be positive integers"
