import json

import numpy as np
import pytest

from ddxkit.data import CaseSet, Vocabulary, build_vocabulary, normalize_ddx
from ddxkit.evaluate import (
    evaluate,
    expert_predictor,
    format_table,
    model_predictor,
    rank_case_set,
    target_in_top_k,
    top_k_accuracy,
    truth_label,
)
from ddxkit.model import init_parameters
from ddxkit.simulate import ClinicalCase, SimConfig, simulate_dataset
from ddxkit.synthetic import make_separable_kb


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
    assert truth_label(case("a", [("meningitis", 1.0)])) == "meningitis"
    assert truth_label(case("b", [("b", 0.5), ("a", 0.5)])) == "a"
    assert truth_label(case("c", [("pneumonia", 0.9537), ("flu", 0.0288), ("sinusitis", 0.0175)])) == "pneumonia"


def test_top_k_accuracy_basics():
    assert top_k_accuracy([["a", "b", "c"]], ["a"], k=1) == 1.0
    assert top_k_accuracy([["a", "b", "c", "d"]], ["d"], k=3) == 0.0
    assert top_k_accuracy([["a", "b"], ["a", "b"]], ["a", "x"], k=5) == 0.5
    with pytest.raises(ValueError, match="length mismatch"):
        top_k_accuracy([["a"]], ["a", "b"], k=1)
    with pytest.raises(ValueError):
        top_k_accuracy([], [], k=1)


def test_target_in_top_k_basics():
    preds = [["covid", "flu"], ["covid", "cold"]]
    assert target_in_top_k(preds, "covid", k=1) == 1.0
    assert target_in_top_k(preds, "cold", k=1) == 0.0
    assert target_in_top_k(preds, "cold", k=2) == 0.5
    # a disease absent from every ranking scores 0 at any depth
    assert target_in_top_k(preds, "made-up", k=5) == 0.0


def uniform_model(n_diseases=4):
    vocab = Vocabulary(
        findings=("f0", "f1"),
        diseases=tuple(f"d{i}" for i in range(n_diseases)),
        demographic_ids=frozenset(),
        mutex_groups={"f0": None, "f1": None},
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


def test_evaluate_threads_do_not_change_results():
    kb = make_separable_kb(n_diseases=5)
    cases = simulate_dataset(kb, SimConfig(cases_total=50, min_cases_per_disease=10, seed=22))
    cs = CaseSet(cases=tuple(cases), provenance=("sim",))
    a = evaluate(expert_predictor(kb), cs, ks=[1, 3], truth="seed-disease")
    b = evaluate(expert_predictor(kb), cs, ks=[1, 3], truth="seed-disease", threads=4)
    assert a.to_json() == b.to_json()


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


def test_evaluate_seed_disease_mode_requires_seed():
    p = uniform_model(3)
    cases = CaseSet(cases=(case("c0", [("d0", 1.0)]),), provenance=("x",))
    with pytest.raises(ValueError, match="seed_disease"):
        evaluate(model_predictor(p), cases, ks=[1], truth="seed-disease")
    with pytest.raises(ValueError, match="truth"):
        evaluate(model_predictor(p), cases, ks=[1], truth="oracle")
    with pytest.raises(ValueError, match="empty case set"):
        evaluate(model_predictor(p), CaseSet(cases=(), provenance=()), ks=[1])


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
    table = format_table({"base": report})
    assert "top-k" in table and "base" in table and "100.0%" in table
