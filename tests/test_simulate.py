import collections
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddxkit.data import write_cases
from ddxkit.expert import DEFAULT_DDX_TOP_K, expert_inference
from ddxkit.kb import CLINICAL, DEMOGRAPHIC, ConfigError, frequency
from ddxkit.simulate import (
    MAX_FINDINGS_CAP,
    NEG_GATE,
    POS_THRESHOLD,
    ClinicalCase,
    SimConfig,
    case_rng,
    label_metrics,
    simulable_diseases,
    simulate_case,
    simulate_dataset,
)
from ddxkit.synthetic import make_separable_kb

from conftest import make_kb


def build_mutex_kb():
    return make_kb(
        ["d"],
        [
            ("age_adult", DEMOGRAPHIC, "age"),
            ("age_child", DEMOGRAPHIC, "age"),
            ("male", DEMOGRAPHIC, "sex"),
            "cough",
            "fever",
        ],
        {("d", "cough"): 1.0, ("d", "fever"): 0.9, ("d", "age_adult"): 1.0, ("d", "age_child"): 1.0},
    )


@pytest.fixture
def mutex_kb():
    return build_mutex_kb()


def reference_simulate_case(kb, disease_id, rng, case_id):
    """The simulator as a pool walk read straight from the KB.

    Mutex groups are enforced by rebuilding the candidate pool after every
    positive; frequencies and groups are looked up per finding.
    """

    def remove_mutex(pool, selected_pos):
        taken_groups = {kb.finding(f).mutex_group for f in selected_pos} - {None}
        return [f for f in pool if f not in selected_pos and kb.finding(f).mutex_group not in taken_groups]

    pairs = [
        (fid, q)
        for (did, fid), q in kb.frequencies.items()
        if did == disease_id and q > 0.0 and kb.finding(fid).kind == CLINICAL
    ]
    clinical = [fid for fid, _ in sorted(pairs, key=lambda p: (-p[1], p[0]))]
    pos: set[str] = set()
    neg: set[str] = set()
    demo_pool = sorted(f.id for f in kb.findings if f.kind == DEMOGRAPHIC)
    while demo_pool:
        fid = demo_pool.pop(0)
        if rng.random() < frequency(kb, disease_id, fid):
            pos.add(fid)
            demo_pool = remove_mutex(demo_pool, {fid})
    n_demo = len(pos)

    pool = remove_mutex(clinical, pos)
    upper = max(5, min(len(pool), MAX_FINDINGS_CAP))
    target = int(rng.integers(5, upper, endpoint=True)) + n_demo
    while pool and len(pos) + len(neg) <= target:
        fid = pool.pop(0)
        q = frequency(kb, disease_id, fid)
        if q >= POS_THRESHOLD:
            if rng.random() < q:
                pos.add(fid)
                pool = remove_mutex(pool, {fid})
        else:
            if rng.random() > NEG_GATE:
                neg.add(fid)

    ddx = expert_inference(kb, [(pos, neg)], DEFAULT_DDX_TOP_K)[0]
    return ClinicalCase(id=case_id, pos=frozenset(pos), neg=frozenset(neg), ddx=ddx, seed_disease=disease_id)


def shared_group_kb():
    """Clinical findings sharing a group with each other and with a demographic.

    d4's demographics block two of its eleven common clinical findings, so
    the blocked ones must not count toward the target's upper bound. The
    ungrouped demographic `visitor`, which validation would reject, must
    neither block nor take a group.
    """
    common = [f"c{i}" for i in range(8)]
    return make_kb(
        ["d1", "d2", "d3", "d4"],
        [
            ("age_old", DEMOGRAPHIC, "age"),
            ("age_young", DEMOGRAPHIC, "age"),
            ("female", DEMOGRAPHIC, "sex"),
            ("male", DEMOGRAPHIC, "sex"),
            ("nonsmoker", DEMOGRAPHIC, "smoking"),
            ("pregnant", DEMOGRAPHIC, "pregnancy"),
            ("visitor", DEMOGRAPHIC, None),
            ("smokers_cough", CLINICAL, "smoking"),
            ("pain_left", CLINICAL, "side"),
            ("pain_right", CLINICAL, "side"),
            ("swelling_left", CLINICAL, "side"),
            "cough",
            "fever",
            "rash",
            "nausea",
            "itch",
            "dizzy",
            *common,
        ],
        {
            ("d1", "age_old"): 0.7,
            ("d1", "age_young"): 0.6,
            ("d1", "female"): 0.5,
            ("d1", "male"): 0.5,
            ("d1", "nonsmoker"): 0.6,
            ("d1", "pregnant"): 0.0,
            ("d1", "smokers_cough"): 0.8,
            ("d1", "pain_left"): 0.6,
            ("d1", "pain_right"): 0.6,
            ("d1", "swelling_left"): 0.1,
            ("d1", "cough"): 0.5,
            ("d1", "fever"): 0.3,
            ("d1", "rash"): 0.1,
            ("d1", "nausea"): 0.0,
            ("d2", "age_young"): 1.0,
            ("d2", "female"): 0.9,
            ("d2", "male"): 0.1,
            ("d2", "pregnant"): 0.3,
            ("d2", "nonsmoker"): 0.9,
            ("d2", "swelling_left"): 0.9,
            ("d2", "pain_right"): 0.15,
            ("d2", "pain_left"): 0.15,
            ("d2", "nausea"): 0.7,
            ("d2", "itch"): 0.05,
            ("d3", "age_old"): 1.0,
            ("d3", "male"): 1.0,
            ("d3", "smokers_cough"): 0.25,
            ("d3", "cough"): 0.9,
            ("d3", "fever"): 0.9,
            ("d3", "dizzy"): 0.5,
            ("d3", "rash"): 0.02,
            ("d3", "itch"): 0.02,
            ("d3", "visitor"): 0.5,
            ("d4", "age_old"): 1.0,
            ("d4", "nonsmoker"): 0.7,
            ("d4", "visitor"): 0.8,
            ("d4", "smokers_cough"): 0.95,
            ("d4", "pain_left"): 0.9,
            ("d4", "pain_right"): 0.9,
            ("d4", "swelling_left"): 0.9,
            **{("d4", f): 0.85 for f in common},
        },
    )


@pytest.mark.parametrize(
    "build",
    [functools.partial(make_separable_kb, 20), build_mutex_kb, shared_group_kb],
    ids=["separable", "mutex", "shared"],
)
def test_simulate_case_equals_the_reference_walk(build):
    kb = build()
    dstar = simulable_diseases(kb)
    for seed in range(40):
        labels = [dstar[(seed + i) % len(dstar)] for i in range(6)]
        new = [simulate_case(kb, d, case_rng(seed, i), f"c{i}") for i, d in enumerate(labels)]
        ref = [reference_simulate_case(kb, d, case_rng(seed, i), f"c{i}") for i, d in enumerate(labels)]
        assert write_cases(new) == write_cases(ref)


def test_dataset_equals_the_reference_walk_at_a_two_word_seed(mutex_kb):
    seed = 2**40 + 12345
    cfg = SimConfig(cases_total=60, min_cases_per_disease=0, seed=seed)
    ref = [reference_simulate_case(mutex_kb, "d", case_rng(seed, i), f"sim-{i}") for i in range(60)]
    assert write_cases(simulate_dataset(mutex_kb, cfg)) == write_cases(ref)


@pytest.mark.parametrize("seed", [11, 2**33 + 5])
def test_dataset_past_the_floor_equals_the_reference_walk(seed):
    # Five diseases, so the seed diseases drawn past the floor are not all one.
    kb = make_separable_kb(n_diseases=5)
    cfg = SimConfig(cases_total=70, min_cases_per_disease=4, seed=seed)
    dstar = simulable_diseases(kb)
    labels = [d for d in dstar for _ in range(cfg.min_cases_per_disease)]
    chooser = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    labels += [dstar[int(chooser.integers(len(dstar)))] for _ in range(cfg.cases_total - len(labels))]
    assert len(set(labels[len(dstar) * cfg.min_cases_per_disease :])) > 1
    ref = [reference_simulate_case(kb, d, case_rng(seed, i), f"sim-{i}") for i, d in enumerate(labels)]
    assert write_cases(simulate_dataset(kb, cfg)) == write_cases(ref)


def test_a_tiny_dataset_has_its_stream_text():
    # Pins both streams, case_rng's and the [seed, 0] label chooser's: every
    # other test draws through case_rng itself. The expert's probabilities,
    # which are not the streams', stay out of the pin.
    cfg = SimConfig(cases_total=4, min_cases_per_disease=0, seed=2**40 + 7)
    drawn = [(c.id, sorted(c.pos), sorted(c.neg), c.seed_disease) for c in simulate_dataset(make_separable_kb(3), cfg)]
    assert drawn == [
        ("sim-0", ["age_mid", "bg1", "d00_f0", "d00_f1", "d00_f2", "male"], [], "d00"),
        ("sim-1", ["age_child", "bg0", "d02_f0", "d02_f1", "d02_f2", "female"], ["bg3", "bg5"], "d02"),
        ("sim-2", ["age_child", "d01_f0", "d01_f1", "d01_f2", "male"], ["bg3", "bg4"], "d01"),
        ("sim-3", ["age_child", "bg0", "bg1", "bg2", "d00_f0", "d00_f1", "d00_f2"], ["bg3"], "d00"),
    ]


@pytest.mark.parametrize("floor", [0, 4])
@pytest.mark.parametrize("seed", [11, 2**40 + 12345])
def test_a_dataset_is_a_prefix_of_a_larger_one(floor, seed):
    kb = make_separable_kb(n_diseases=5)
    small, large = (
        simulate_dataset(kb, SimConfig(cases_total=n, min_cases_per_disease=floor, seed=seed))
        for n in (30, 47)
    )
    assert write_cases(small) == write_cases(large[:30])


def test_certain_findings_are_always_elicited():
    kb = make_kb(["d"], ["f0", "f1", "f2", "f3", "f4"], {("d", f"f{i}"): 1.0 for i in range(5)})
    for seed in range(10):
        case = simulate_case(kb, "d", case_rng(seed, 0))
        assert case.pos == frozenset({"f0", "f1", "f2", "f3", "f4"})
        assert case.neg == frozenset()
        assert case.seed_disease == "d"


def test_unsimulable_disease_raises():
    kb = make_kb(["d"], [("male", DEMOGRAPHIC, "sex")], {("d", "male"): 1.0})
    with pytest.raises(ValueError, match="no nonzero clinical findings"):
        simulate_case(kb, "d", case_rng(0, 0))
    assert simulable_diseases(kb) == []


def test_unknown_disease_is_named():
    with pytest.raises(KeyError) as raised:
        simulate_case(build_mutex_kb(), "nope", case_rng(0, 0))
    assert raised.value.args == ("unknown disease id: 'nope'",)


def test_mutex_demographics_yield_exactly_one(mutex_kb):
    for seed in range(1000):
        case = simulate_case(mutex_kb, "d", case_rng(seed, 0))
        assert len(case.pos & {"age_adult", "age_child"}) == 1


def test_case_invariants_hold_across_a_dataset():
    kb = make_separable_kb(n_diseases=6)
    groups = {f.id: f.mutex_group for f in kb.findings}
    cases = simulate_dataset(kb, SimConfig(cases_total=300, min_cases_per_disease=10, seed=3))
    for case in cases:
        assert not case.pos & case.neg
        by_group = collections.Counter(groups[f] for f in case.pos if groups.get(f))
        assert all(count == 1 for count in by_group.values())
        assert abs(sum(p for _, p in case.ddx.entries) - 1.0) < 1e-9


def test_at_least_five_findings_when_available():
    kb = make_kb(["d"], [f"f{i}" for i in range(8)], {("d", f"f{i}"): 1.0 for i in range(8)})
    for seed in range(50):
        case = simulate_case(kb, "d", case_rng(seed, 0))
        assert len(case.pos | case.neg) >= 5


def test_dataset_respects_per_disease_floor():
    kb = make_separable_kb(n_diseases=4)
    cases = simulate_dataset(kb, SimConfig(cases_total=130, min_cases_per_disease=30, seed=1))
    assert len(cases) == 130
    counts = collections.Counter(c.seed_disease for c in cases)
    assert all(counts[d] >= 30 for d in simulable_diseases(kb))
    assert [c.id for c in cases[:3]] == ["sim-0", "sim-1", "sim-2"]


def test_dataset_count_without_floor():
    kb = make_kb(["d"], ["a", "b", "c"], {("d", "a"): 0.9, ("d", "b"): 0.5, ("d", "c"): 0.3})
    cases = simulate_dataset(kb, SimConfig(cases_total=10, min_cases_per_disease=0, seed=0))
    assert len(cases) == 10


def test_dataset_rejects_unreachable_floor():
    kb = make_separable_kb(n_diseases=4)
    with pytest.raises(ValueError, match="cases_total"):
        simulate_dataset(kb, SimConfig(cases_total=100, min_cases_per_disease=50, seed=0))


def test_an_unreachable_floor_is_a_config_error_of_cases_total():
    with pytest.raises(ConfigError) as raised:
        simulate_dataset(make_separable_kb(n_diseases=5), SimConfig(cases_total=10))
    assert raised.value.field == "cases_total"
    assert str(raised.value) == "cases_total must be >= 250 to cover 5 diseases x min_cases_per_disease=50"


def test_dataset_is_deterministic():
    kb = make_separable_kb(n_diseases=5)
    cfg = SimConfig(cases_total=80, min_cases_per_disease=10, seed=42)
    a = write_cases(simulate_dataset(kb, cfg))
    b = write_cases(simulate_dataset(kb, cfg))
    assert a == b
    different = write_cases(simulate_dataset(kb, SimConfig(cases_total=80, min_cases_per_disease=10, seed=43)))
    assert different != a


def test_inclusion_and_negative_rates():
    # One disease, five findings: the pool size pins the target count at 5,
    # so every finding is visited in every case.
    kb = make_kb(
        ["d"],
        ["fa", "fb", "fc", "fd", "fe"],
        {("d", "fa"): 0.9, ("d", "fb"): 0.8, ("d", "fc"): 0.7, ("d", "fd"): 0.3, ("d", "fe"): 0.05},
    )
    n = 4000
    cases = simulate_dataset(kb, SimConfig(cases_total=n, min_cases_per_disease=0, seed=9))
    pos_rate = sum("fa" in c.pos for c in cases) / n
    neg_rate = sum("fe" in c.neg for c in cases) / n
    assert 0.87 <= pos_rate <= 0.93
    assert 0.22 <= neg_rate <= 0.28
    assert not any("fe" in c.pos for c in cases)


def test_seed_disease_stays_in_differential_on_separable_kb():
    kb = make_separable_kb()
    cases = simulate_dataset(kb, SimConfig(cases_total=400, min_cases_per_disease=20, seed=5))
    hit = sum(c.seed_disease in c.ddx.diseases for c in cases) / len(cases)
    assert hit >= 0.95


def test_clinical_case_validates_itself():
    from ddxkit.data import normalize_ddx

    ddx = normalize_ddx([("d", 1.0)])
    with pytest.raises(ValueError, match="both pos and neg"):
        ClinicalCase(id="x", pos=frozenset({"a"}), neg=frozenset({"a"}), ddx=ddx)
    with pytest.raises(ValueError, match="source"):
        ClinicalCase(id="x", pos=frozenset(), neg=frozenset(), ddx=ddx, source="dream")


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(cases_total=0)
    with pytest.raises(ConfigError, match=r"cases_total must be <= 2\*\*32") as e:
        SimConfig(cases_total=2**32 + 1)
    assert e.value.field == "cases_total"
    assert SimConfig(cases_total=2**32).cases_total == 2**32
    with pytest.raises(ValueError):
        SimConfig(cases_total=1, seed=-1)


def test_cases_are_labelled_at_the_experts_default_differential_size():
    with pytest.raises(TypeError):
        SimConfig(cases_total=1, ddx_top_k=3)
    cases = simulate_dataset(make_separable_kb(20), SimConfig(cases_total=40, min_cases_per_disease=0, seed=3))
    assert max(len(c.ddx.entries) for c in cases) == DEFAULT_DDX_TOP_K


def test_sim_config_seed_is_a_64_bit_unsigned_integer():
    with pytest.raises(ConfigError) as raised:
        SimConfig(cases_total=1, seed=2**64)
    assert raised.value.field == "seed"
    assert str(raised.value) == "seed must be a 64-bit unsigned integer"
    assert SimConfig(cases_total=1, seed=2**64 - 1).seed == 2**64 - 1


def test_label_metrics_rejects_an_empty_case_list():
    with pytest.raises(ValueError) as raised:
        label_metrics([])
    assert str(raised.value) == "no cases to measure"


def test_a_kb_with_no_simulable_disease_is_rejected():
    kb = make_kb(["d"], ["a", ("old", DEMOGRAPHIC)], {("d", "a"): 0.0, ("d", "old"): 0.5})
    assert simulable_diseases(kb) == []
    with pytest.raises(ValueError) as raised:
        simulate_dataset(kb, SimConfig(cases_total=1, min_cases_per_disease=0))
    assert str(raised.value) == "no simulable disease in knowledge base"
