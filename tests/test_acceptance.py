"""End-to-end acceptance checks.

Each test prints one pass/fail line (run with -s to see them alongside the
pytest verdicts). The synthetic experiment criteria share one fixture chain:
a separable 20-disease knowledge base, a 1000-case simulated corpus, a
70:30 split, and models trained with the standard hyperparameters at desk
scale (dim 64, batch 64, 15 epochs, dropout 0.7, lr 0.01).
"""
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ddxkit.data import CaseSet, Vocabulary, build_vocabulary, merge, split_train_test
from ddxkit.evaluate import evaluate, expert_predictor, model_predictor
from ddxkit.expert import expert_inference
from ddxkit.kb import serialize_knowledge_base
from ddxkit.model import ModelInput, bag, init_parameters
from ddxkit.simulate import SimConfig, simulate_dataset
from ddxkit.synthetic import make_novel_disease_cases, make_separable_kb
from ddxkit.train import TrainConfig, backward, train

from conftest import make_kb, oracle_inference, subprocess_env
from oracles import kl_loss, reference_log_probs

SIM_SEED = 11
SPLIT_SEED = 13
TRAIN_SEED = 5
NOVEL_SEED = 7

TRAIN_CFG = TrainConfig(
    learning_rate=0.01, batch_size=64, epochs=15, dropout_rate=0.7, seed=TRAIN_SEED
)


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


# --- shared synthetic experiment -----------------------------------------


@pytest.fixture(scope="module")
def experiment():
    kb = make_separable_kb()
    sim = CaseSet(
        cases=tuple(simulate_dataset(kb, SimConfig(cases_total=1000, min_cases_per_disease=50, seed=SIM_SEED))),
        provenance=("sim",),
    )
    sim_train, sim_test = split_train_test(sim, 0.7, seed=SPLIT_SEED)
    return kb, sim, sim_train, sim_test


@pytest.fixture(scope="module")
def trained_base(experiment):
    kb, sim, sim_train, _ = experiment
    vocab = build_vocabulary([sim], kb=kb)
    p0 = init_parameters(vocab, dim=64, seed=TRAIN_SEED, kb=kb)
    params, history = train(p0, sim_train, TRAIN_CFG)
    return params, history


@pytest.fixture(scope="module")
def variant_models(experiment):
    kb, _, sim_train, _ = experiment
    novel = CaseSet(
        cases=tuple(make_novel_disease_cases(kb, n_cases=20, borrow_per_case=4, seed=NOVEL_SEED)),
        provenance=("novel",),
    )
    novel_train, novel_test = split_train_test(novel, 0.7, seed=SPLIT_SEED)
    train_all = merge([sim_train, novel_train])
    kb_findings = frozenset(f.id for f in kb.findings)
    models = {}
    for name, restrict in (("restricted", kb_findings), ("full", None)):
        vocab = build_vocabulary([train_all], kb=kb, restrict_to=restrict)
        p0 = init_parameters(vocab, dim=64, seed=TRAIN_SEED, kb=kb)
        models[name], _ = train(p0, train_all, TRAIN_CFG)
    return models, novel_test


# --- criterion 1: gradient oracle -----------------------------------------


def random_small_model(rng):
    K = int(rng.integers(2, 7))
    L = int(rng.integers(2, 5))
    D = int(rng.integers(2, 9))
    n_demo = int(rng.integers(0, 3))
    demo_ids = tuple(f"g{i}" for i in range(n_demo))
    findings = tuple(sorted([f"f{i}" for i in range(K - n_demo)] + list(demo_ids)))
    vocab = Vocabulary(
        findings=findings,
        diseases=tuple(f"d{i}" for i in range(L)),
        demographic_ids=frozenset(demo_ids),
        mutex_groups={f: None for f in findings},
    )
    p = init_parameters(vocab, dim=D, seed=int(rng.integers(2**31)))
    for arr in p.blocks().values():
        arr += rng.normal(0.0, 0.5, size=arr.shape)
    return vocab, p


def random_batch(vocab, rng):
    batch = []
    for _ in range(int(rng.integers(1, 3))):
        clin = [i for i, f in enumerate(vocab.findings) if f not in vocab.demographic_ids]
        rng.shuffle(clin)
        n_pos = int(rng.integers(0, len(clin) + 1))
        n_neg = int(rng.integers(0, len(clin) - n_pos + 1))
        demo = tuple(i for i in range(vocab.n_demographics) if rng.random() < 0.5)
        x = ModelInput(tuple(sorted(clin[:n_pos])), tuple(sorted(clin[n_pos : n_pos + n_neg])), demo)
        target = rng.dirichlet(np.ones(vocab.n_diseases))
        batch.append((x, target))
    return batch


def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        vocab, p = random_small_model(rng)
        batch = random_batch(vocab, rng)
        analytic, _ = backward(p, bag([x for x, _ in batch]), np.array([t for _, t in batch]))
        for name, theta in p.blocks().items():
            flat = theta.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = np.mean([kl_loss(t, reference_log_probs(p, x)) for x, t in batch])
                flat[i] = keep - h
                down = np.mean([kl_loss(t, reference_log_probs(p, x)) for x, t in batch])
                flat[i] = keep
                fd = (up - down) / (2 * h)
                denom = max(abs(a_flat[i]), abs(fd), 1e-6)
                worst = max(worst, abs(a_flat[i] - fd) / denom)
    elapsed = time.monotonic() - start
    _criterion(
        1,
        "analytic gradients match finite differences on 100 random models",
        worst < 1e-4 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion 2: KL correctness ------------------------------------------


def test_criterion_2_kl_correctness():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
        worst = max(worst, kl_loss(p, np.log(p)))
    hand1 = abs(kl_loss(np.array([1.0, 0.0]), np.log([0.5, 0.5])) - math.log(2))
    hand2 = abs(kl_loss(np.array([0.5, 0.5]), np.log([0.75, 0.25])) - 0.143841)
    _criterion(
        2,
        "KL(p||p) vanishes and hand-computed values are reproduced",
        worst < 1e-12 and hand1 < 1e-6 and hand2 < 1e-6,
        f"max self-KL {worst:.1e}",
    )


# --- criterion 3: output normalization -------------------------------------


def test_criterion_3_forward_normalization():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        vocab, p = random_small_model(rng)
        x, _ = random_batch(vocab, rng)[0]
        worst = max(worst, abs(np.exp(reference_log_probs(p, x)).sum() - 1.0))
    _criterion(3, "forward output is a probability distribution", worst < 1e-9, f"max deviation {worst:.1e}")


# --- criterion 4: demographic bottleneck -----------------------------------


def test_criterion_4_demographic_bottleneck():
    kb = make_separable_kb(n_diseases=10)
    sim = CaseSet(
        cases=tuple(simulate_dataset(kb, SimConfig(cases_total=100, min_cases_per_disease=10, seed=1))),
        provenance=("sim",),
    )
    vocab = build_vocabulary([sim], kb=kb)
    p = init_parameters(vocab, dim=16, seed=0, kb=kb)
    impossible = [
        (fid, did)
        for fid in vocab.demographic_list
        for did in vocab.diseases
        if kb.frequencies.get((did, fid), 0.0) == 0.0
    ]
    assert impossible, "test KB must contain impossible (demographic, disease) pairs"
    worst = 0.0
    for fid, did in impossible:
        x = ModelInput((0, 1), (), (vocab.demo_index(fid),))
        probs = np.exp(reference_log_probs(p, x))
        worst = max(worst, probs[vocab.disease_index(did)])
    _criterion(
        4,
        "kb-impossible (demographic, disease) pairs are suppressed at init",
        worst < 1e-10,
        f"{len(impossible)} pairs, worst probability {worst:.1e}",
    )


# --- criterion 5: expert engine vs brute force ------------------------------


def test_criterion_5_expert_engine_oracle():
    start = time.monotonic()
    kb = make_kb(
        ["d0", "d1", "d2", "d3"],
        ["f0", "f1", "f2", "f3", ("g0", "demographic", "sex"), ("g1", "demographic", "sex")],
        {
            ("d0", "f0"): 0.9,
            ("d0", "f1"): 0.4,
            ("d0", "g0"): 0.5,
            ("d0", "g1"): 0.5,
            ("d1", "f1"): 0.7,
            ("d1", "f2"): 0.2,
            ("d1", "g0"): 1.0,
            ("d2", "f2"): 0.6,
            ("d2", "f3"): 0.6,
            ("d2", "g1"): 0.3,
            ("d3", "f3"): 0.05,
        },
    )
    fids = [f.id for f in kb.findings]
    checked = 0
    for assignment in itertools.product((0, 1, 2), repeat=len(fids)):
        pos = {f for f, a in zip(fids, assignment) if a == 1}
        neg = {f for f, a in zip(fids, assignment) if a == 2}
        for k in (1, 3, 5):
            try:
                expected = oracle_inference(kb, pos, neg, k)
            except ValueError:
                with pytest.raises(ValueError):
                    expert_inference(kb, [(pos, neg)], k)
                continue
            got = expert_inference(kb, [(pos, neg)], k)[0]
            assert got.diseases == tuple(d for d, _ in expected)
            for (_, p), (_, op) in zip(got.entries, expected):
                assert abs(p - op) <= 1e-12
            checked += 1
    elapsed = time.monotonic() - start
    _criterion(
        5,
        "expert engine matches brute force on exhaustive enumeration",
        elapsed < 60.0,
        f"{checked} differentials, {elapsed:.1f}s",
    )


# --- criterion 6: simulator statistics --------------------------------------


def test_criterion_6_simulator_statistics():
    start = time.monotonic()
    kb = make_kb(
        ["d"],
        ["fa", "fb", "fc", "fd", "fe"],
        {("d", "fa"): 0.9, ("d", "fb"): 0.8, ("d", "fc"): 0.7, ("d", "fd"): 0.3, ("d", "fe"): 0.05},
    )
    n = 10_000
    cases = simulate_dataset(kb, SimConfig(cases_total=n, min_cases_per_disease=0, seed=606))
    # the pool has exactly five findings, so every finding is visited in
    # every case and the empirical rates are unconditional
    pos_rate = sum("fa" in c.pos for c in cases) / n
    neg_rate = sum("fe" in c.neg for c in cases) / n

    mutex_kb = make_separable_kb(n_diseases=6)
    groups = {f.id: f.mutex_group for f in mutex_kb.findings}
    mutex_cases = simulate_dataset(mutex_kb, SimConfig(cases_total=600, min_cases_per_disease=50, seed=607))
    violations = 0
    overlaps = 0
    for case in list(cases) + list(mutex_cases):
        overlaps += bool(case.pos & case.neg)
        counts = {}
        for f in case.pos:
            g = groups.get(f)
            if g:
                counts[g] = counts.get(g, 0) + 1
        violations += any(v > 1 for v in counts.values())
    elapsed = time.monotonic() - start
    _criterion(
        6,
        "simulator hits the configured inclusion and negative rates",
        0.87 <= pos_rate <= 0.93 and 0.22 <= neg_rate <= 0.28 and violations == 0 and overlaps == 0 and elapsed < 60.0,
        f"pos rate {pos_rate:.3f}, neg rate {neg_rate:.3f}, {elapsed:.1f}s",
    )


# --- criterion 7: CLI determinism -------------------------------------------


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "ddxkit", *args], cwd=cwd, env=subprocess_env(), capture_output=True, text=True
    )


def test_criterion_7_cli_determinism(tmp_path):
    kb = make_separable_kb(n_diseases=4)
    (tmp_path / "kb.json").write_text(serialize_knowledge_base(kb), encoding="utf-8")

    for out in ("a.jsonl", "b.jsonl"):
        result = run_cli(
            "simulate", "--kb", "kb.json", "--cases", "60", "--min-per-disease", "10",
            "--seed", "3", "--out", out, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
    sim_ok = (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    for out in ("m1.ckpt", "m2.ckpt"):
        result = run_cli(
            "train", "--cases", "a.jsonl", "--kb", "kb.json", "--dim", "16", "--epochs", "2",
            "--batch", "32", "--seed", "4", "--out", out, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
    train_ok = (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()

    for out in ("r1.json", "r2.json"):
        result = run_cli(
            "eval", "m1.ckpt", "--cases", "a.jsonl", "--topk", "1,3", "--truth", "seed-disease",
            "--out", out, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
    eval_ok = (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    _criterion(
        7,
        "simulate/train/eval are byte-deterministic",
        sim_ok and train_ok and eval_ok,
        f"simulate={sim_ok} train={train_ok} eval={eval_ok}",
    )


# --- criteria 8 and 9: synthetic end-to-end ---------------------------------


def test_criterion_8_end_to_end_synthetic_run(experiment, trained_base):
    start = time.monotonic()
    kb, _, _, sim_test = experiment
    params, _ = trained_base
    report = evaluate(model_predictor(params), sim_test, ks=[1, 3, 5], truth="seed-disease")
    ceiling = evaluate(expert_predictor(kb), sim_test, ks=[1, 3, 5], truth="seed-disease")
    elapsed = time.monotonic() - start
    ok = report.accuracy[1] >= 0.70 and report.accuracy[3] >= 0.90
    _criterion(
        8,
        "trained model recovers held-out seed diseases",
        ok,
        f"top-1 {report.accuracy[1]:.3f} top-3 {report.accuracy[3]:.3f} "
        f"(expert ceiling {ceiling.accuracy[1]:.3f}/{ceiling.accuracy[3]:.3f}), {elapsed:.1f}s",
    )
    assert ceiling.accuracy[1] >= 0.70, "expert ceiling should dominate the thresholds"


def test_criterion_9_vocabulary_restriction_gap(variant_models):
    models, novel_test = variant_models
    rates = {}
    for name, params in models.items():
        report = evaluate(
            model_predictor(params), novel_test, ks=[1, 3, 5], target="novel", truth="seed-disease"
        )
        rates[name] = report.target_accuracy[3]
    gap = rates["full"] - rates["restricted"]
    _criterion(
        9,
        "restricting findings to the KB costs >= 20 points on the novel disease",
        gap >= 0.20,
        f"restricted {rates['restricted']:.2f} vs full {rates['full']:.2f}, gap {gap:+.2f}",
    )


# --- criterion 10: monotone metrics ------------------------------------------


def test_criterion_10_monotone_metrics(experiment, trained_base):
    kb, _, _, sim_test = experiment
    params, _ = trained_base
    L = params.vocab.n_diseases
    reports = {
        "model": evaluate(model_predictor(params), sim_test, ks=[1, 3, 5, L], truth="seed-disease"),
        "expert": evaluate(expert_predictor(kb), sim_test, ks=[1, 3, 5, L], truth="seed-disease"),
    }
    ok = True
    for report in reports.values():
        ok = ok and report.accuracy[1] <= report.accuracy[3] <= report.accuracy[5]
        ok = ok and report.accuracy[L] == 1.0
    _criterion(
        10,
        "accuracy grows with k and saturates at the full disease list",
        ok,
        ", ".join(
            f"{name}: {r.accuracy[1]:.3f}/{r.accuracy[3]:.3f}/{r.accuracy[5]:.3f}/{r.accuracy[L]:.3f}"
            for name, r in reports.items()
        ),
    )
