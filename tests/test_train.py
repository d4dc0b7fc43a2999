import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddxkit import train as train_module
from ddxkit.data import CaseSet, Vocabulary, build_vocabulary, normalize_ddx
from ddxkit.kb import ConfigError
from ddxkit.model import (
    Bags,
    ModelInput,
    bag,
    checkpoint_to_json,
    disease_log_probs,
    encode_case,
    encode_target,
    init_parameters,
    make_dropout_plan,
    pooled_embedding,
)
from ddxkit.simulate import ClinicalCase, SimConfig, simulate_dataset
from ddxkit.sums import position_major_sums
from ddxkit.synthetic import make_separable_kb
from ddxkit.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    backward,
    train,
    zero_grads,
)

from oracles import float64_parameters, kl_loss, reference_log_probs, reference_row_sums


def test_kl_of_identical_distributions_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(rng.integers(2, 8)))
        assert kl_loss(p, np.log(p)) < 1e-12


def test_kl_hand_values():
    one_hot = np.array([1.0, 0.0])
    assert kl_loss(one_hot, np.log([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-6)
    assert kl_loss(np.array([0.5, 0.5]), np.log([0.75, 0.25])) == pytest.approx(0.143841, abs=1e-6)


def test_kl_ignores_zero_support():
    target = np.array([0.0, 1.0, 0.0])
    logprobs = np.log([1e-30, 0.5, 0.5 - 1e-30])
    assert kl_loss(target, logprobs) == pytest.approx(math.log(2), abs=1e-9)


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6), st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
@settings(max_examples=150)
def test_kl_is_non_negative(wp, wq):
    n = min(len(wp), len(wq))
    p = np.array(wp[:n]) / sum(wp[:n])
    q = np.array(wq[:n]) / sum(wq[:n])
    assert kl_loss(p, np.log(q)) >= -1e-12


def toy_setup(n_findings=5, n_diseases=3, dim=6, seed=0, demo=("g0", "g1")):
    """A toy vocabulary and float64 parameters, the dtype of the oracles here."""
    findings = tuple(sorted([f"f{i}" for i in range(n_findings)] + list(demo)))
    vocab = Vocabulary(
        findings=findings,
        diseases=tuple(f"d{i}" for i in range(n_diseases)),
        demographic_ids=frozenset(demo),
    )
    return vocab, float64_parameters(vocab, dim=dim, seed=seed)


def random_example(vocab, rng):
    clin = [i for i, f in enumerate(vocab.findings) if f not in vocab.demographic_ids]
    rng.shuffle(clin)
    n_pos = int(rng.integers(0, len(clin) + 1))
    n_neg = int(rng.integers(0, len(clin) - n_pos + 1))
    demo = tuple(i for i in range(vocab.n_demographics) if rng.random() < 0.5)
    x = ModelInput(tuple(sorted(clin[:n_pos])), tuple(sorted(clin[n_pos : n_pos + n_neg])), demo)
    target = rng.dirichlet(np.ones(vocab.n_diseases))
    # zero out a random tail of the support to exercise p(y) = 0 terms
    if rng.random() < 0.5 and vocab.n_diseases > 2:
        target[int(rng.integers(vocab.n_diseases))] = 0.0
        target /= target.sum()
    return x, target


def batch_arrays(batch):
    """A hand-built [(x, target), ...] batch as backward's (bags, targets)."""
    xs, ts = zip(*batch)
    return bag(xs), np.array(ts)


def batch_loss(p, batch):
    """The mean KL loss of (x, target) pairs, one case at a time."""
    return np.mean([kl_loss(t, reference_log_probs(p, x)) for x, t in batch])


def bags_loss(p, bags, targets):
    """The mean KL loss of a batch in the embedding-bag layout."""
    O = disease_log_probs(p, bags, pooled_embedding(p, bags))
    return np.mean([kl_loss(t, o) for t, o in zip(targets, O)])


def finite_difference_grads(p, loss, h=1e-4):
    """Central differences of loss() in every parameter, the long way around."""
    fd = zero_grads(p)
    for name, theta in p.blocks().items():
        target_arr = fd[name]
        flat = theta.reshape(-1)
        out = target_arr.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss()
            flat[i] = keep - h
            down = loss()
            flat[i] = keep
            out[i] = (up - down) / (2 * h)
    return fd


def assert_grads_close(analytic, numeric, rel=1e-4):
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = np.max(np.abs(a - n) / denom)
        assert worst < rel, f"{name}: max relative error {worst:.2e}"


def test_backward_matches_finite_differences():
    vocab, p = toy_setup()
    rng = np.random.default_rng(1)
    for arr in p.blocks().values():
        arr += rng.normal(0, 0.5, size=arr.shape)
    batch = [random_example(vocab, rng) for _ in range(3)]
    analytic, _ = backward(p, *batch_arrays(batch))
    numeric = finite_difference_grads(p, lambda: batch_loss(p, batch))
    assert_grads_close(analytic, numeric)


@pytest.mark.parametrize("dim", [2, 1024])  # 1024: the finding rows take the position-major scatter
def test_backward_counts_a_repeated_row_each_time(dim):
    # Pooling adds a row once per occurrence, so its gradient must too.
    vocab, p = toy_setup(n_findings=2, n_diseases=2, dim=dim)
    rng = np.random.default_rng(6)
    for arr in p.blocks().values():
        arr += rng.normal(0, 0.5, size=arr.shape)
    fields = ([3, 3, 1, 0, 2, 2], [0, 3, 6], [0, 0, 1], [0, 2, 3])  # rows 3 and 2, demographic 0 repeated
    bags = Bags(*(np.array(f, dtype=np.intp) for f in fields))
    targets = np.array([[0.3, 0.7], [0.9, 0.1]])
    analytic, _ = backward(p, bags, targets)
    numeric = finite_difference_grads(p, lambda: bags_loss(p, bags, targets))
    assert_grads_close(analytic, numeric)


def test_backward_is_zero_at_the_optimum():
    vocab, p = toy_setup()
    rng = np.random.default_rng(2)
    x, _ = random_example(vocab, rng)
    target = np.exp(reference_log_probs(p, x))
    grads, loss = backward(p, bag([x]), np.array([target]))
    assert loss < 1e-12
    for arr in grads.values():
        assert np.max(np.abs(arr)) < 1e-10


def test_backward_mean_semantics():
    vocab, p = toy_setup()
    rng = np.random.default_rng(3)
    x, target = random_example(vocab, rng)
    single, loss1 = backward(p, bag([x]), np.array([target]))
    double, loss2 = backward(p, bag([x, x]), np.array([target, target]))
    assert loss2 == pytest.approx(loss1, abs=1e-12)
    for name, arr in single.items():
        assert np.allclose(arr, double[name], atol=1e-12)
    with pytest.raises(ValueError, match="empty batch"):
        backward(p, bag([]), np.array([]))


def reference_backward(p, batch, rate, rng):
    """The per-case pooling and backward loops that the flat-batch path
    replaced, slicing the batch's one dropout mask per case; an exact oracle."""

    def log_softmax_rows(z):
        m = z.max(axis=1, keepdims=True)
        return z - (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))

    (D, L), B = p.projection.shape, len(batch)
    rows = [[2 * i for i in x.pos_clinical] + [2 * i + 1 for i in x.neg_clinical] for x, _ in batch]
    # One mask for the batch: its i-th entry is the i-th 16-bit slice, low slice first, of raw 64-bit words.
    sizes = [len(r) * D for r in rows]
    words = rng.bit_generator.random_raw(-(-sum(sizes) // 4) if rate > 0 else 0)
    keep = ((words[:, None] >> np.uint64([0, 16, 32, 48])) & np.uint64(0xFFFF)).ravel() >= round(rate * 65536)
    masks = [k.reshape(-1, D).astype(float) if rate > 0 else None for k in np.split(keep, np.cumsum(sizes))[:-1]]
    H, U, P = np.zeros((B, D)), np.zeros((B, L)), np.array([t for _, t in batch])
    for i, (x, _) in enumerate(batch):
        if rows[i]:
            gathered = p.finding_embeddings[rows[i]]
            H[i] = (gathered if masks[i] is None else gathered * masks[i] / (1.0 - rate)).mean(axis=0)
        if x.demo:
            U[i] = p.demographic_embeddings[list(x.demo)].sum(axis=0)
    O = log_softmax_rows(H @ p.projection + p.bias + U)
    with np.errstate(divide="ignore"):
        logP = np.where(P > 0.0, np.log(np.where(P > 0.0, P, 1.0)), 0.0)
    loss = float(np.where(P > 0.0, P * (logP - O), 0.0).sum() / B)
    G_C = (np.exp(O) - P) / B
    grads = zero_grads(p)
    grads["projection"][:] = H.T @ G_C
    grads["bias"][:] = G_C.sum(axis=0)
    G_H = G_C @ p.projection.T
    for i, (x, _) in enumerate(batch):
        n = len(rows[i])
        if masks[i] is not None:
            grads["finding_embeddings"][rows[i]] += (G_H[i] * masks[i]) / ((1.0 - rate) * n)
        elif n:
            grads["finding_embeddings"][rows[i]] += np.tile(G_H[i] / n, (n, 1))
        for m in x.demo:
            grads["demographic_embeddings"][m] += G_C[i]
    return grads, loss


@pytest.mark.parametrize("dim", [1, 16, 257, 1024])
@pytest.mark.parametrize("rate", [0.0, 0.7])
def test_backward_equals_the_per_case_reference_exactly(rate, dim):
    vocab, p = toy_setup(n_findings=12, n_diseases=5, dim=dim, demo=("g0", "g1", "g2"))
    rng = np.random.default_rng(4)
    for arr in p.blocks().values():
        arr += rng.normal(0, 0.5, size=arr.shape)
    for trial in range(30):
        batch = [random_example(vocab, rng) for _ in range(int(rng.integers(1, 40)))]
        uniform = np.full(vocab.n_diseases, 1.0 / vocab.n_diseases)
        batch.insert(int(rng.integers(len(batch) + 1)), (ModelInput((), (), ()), uniform))
        batch.insert(int(rng.integers(len(batch) + 1)), (ModelInput((), (), (0, 2)), uniform))
        ref_rng, rng_ = np.random.default_rng(trial), np.random.default_rng(trial)
        expected, expected_loss = reference_backward(p, batch, rate, ref_rng)
        n_rows = len(bag([x for x, _ in batch]).rows)
        mask = make_dropout_plan(n_rows, dim, rate, rng_) if rate > 0 else None
        grads, loss = backward(p, *batch_arrays(batch), mask, rate)
        assert loss == expected_loss
        assert grads.keys() == expected.keys()
        for name, arr in expected.items():
            assert np.array_equal(grads[name], arr), name
            assert grads[name].tobytes() == arr.tobytes(), name  # array_equal ignores the sign of zero
        assert rng_.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def scatter_problems(draw):
    """Row ids per case (repeats within and across cases, empty cases),
    per-case values with signed zeros, and a dropout mask or None."""
    width = draw(st.sampled_from([1, 2, 257, 1024]))
    n = draw(st.integers(1, 6))
    cases = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=12), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_case = rng.normal(size=(len(cases), width))
    per_case[rng.random(per_case.shape) < 0.2] = 0.0
    per_case[rng.random(per_case.shape) < 0.2] = -0.0
    ids = np.array([i for case in cases for i in case], dtype=np.intp)
    offsets = np.cumsum([0] + [len(case) for case in cases])
    mask = rng.random((len(ids), width)) >= 0.5 if draw(st.booleans()) else None
    return ids, offsets, per_case, n, mask


@given(scatter_problems(), st.sampled_from([np.float64, np.float32]))
@settings(max_examples=80, deadline=None)
def test_scatter_rows_equals_the_item_order_reference_bytewise(problem, dtype):
    ids, offsets, per_case, n, mask = problem
    per_case = per_case.astype(dtype)
    values = per_case[np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))]
    if mask is not None:
        values = values * mask
    # Position-major adds in the values' dtype; bincount adds in float64 and
    # rounds each sum once, which is the same thing in float64.
    position_major = reference_row_sums(ids, values, n)
    bincount = reference_row_sums(ids, values.astype(np.float64), n).astype(dtype)
    got = train_module._scatter_rows(ids, offsets, per_case, n, mask)
    assert got.dtype == dtype and got.tobytes() in (position_major.tobytes(), bincount.tobytes())
    for bound, expected in ((0, position_major), (2**40, bincount)):  # every batch by one branch
        with mock.patch.object(train_module, "BINCOUNT_CASE_SIZE", bound):
            got = train_module._scatter_rows(ids, offsets, per_case, n, mask)
            assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes()), bound


@given(
    st.lists(st.integers(0, 9), max_size=12),
    st.sampled_from([1, 2, 257, 1024]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.float64, np.float32]),
)
@settings(max_examples=60, deadline=None)
def test_position_major_sums_equal_the_item_order_reference_bytewise(counts, width, seed, dtype):
    # Groups own contiguous runs of items, laid out in a shuffled order.
    rng = np.random.default_rng(seed)
    counts = np.array(counts, dtype=np.intp)
    layout = rng.permutation(len(counts))
    starts = np.zeros(len(counts), dtype=np.intp)
    starts[layout] = np.cumsum(counts[layout]) - counts[layout]
    values = rng.normal(size=(int(counts.sum()), width)).astype(dtype)
    values[rng.random(values.shape) < 0.3] = -0.0
    items = [starts[g] + j for g in range(len(counts)) for j in range(counts[g])]
    expected = reference_row_sums(np.repeat(np.arange(len(counts)), counts), values[items], len(counts))
    got = position_major_sums(counts, starts, values.__getitem__, width, values.dtype)
    assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes())


def scalar_problem():
    vocab = Vocabulary(findings=("f0",), diseases=("d0", "d1"), demographic_ids=frozenset())
    return float64_parameters(vocab, dim=1, seed=0)


def allocating_adam_step(p, g, s, cfg):
    """adam_step as it was before it reused scratch arrays; a byte-level oracle."""
    s.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, theta in p.blocks().items():
        grad, m, v = g[name], s.m[name], s.v[name]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**s.t)
        v_hat = v / (1.0 - b2**s.t)
        theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@pytest.mark.parametrize("problem", ["toy", "scalar"])
def test_adam_step_equals_the_allocating_form_bytewise(problem):
    p = toy_setup()[1] if problem == "toy" else scalar_problem()
    ref = p.copy()
    state, ref_state = AdamState.init(p), AdamState.init(ref)
    cfg = TrainConfig(learning_rate=0.03)
    rng = np.random.default_rng(5)
    for step in range(8):
        g = {name: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), size=a.shape) for name, a in p.blocks().items()}
        if step == 2:
            g["bias"][:] = -0.0
        adam_step(p, g, state, cfg)
        allocating_adam_step(ref, g, ref_state, cfg)
        for name, arr in ref.blocks().items():
            assert p.blocks()[name].tobytes() == arr.tobytes(), (step, name)
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), (step, name)
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), (step, name)
    assert state.t == ref_state.t == 8


def test_adam_zero_gradient_is_a_noop():
    p = scalar_problem()
    before = {k: v.copy() for k, v in p.blocks().items()}
    adam_step(p, zero_grads(p), AdamState.init(p), TrainConfig())
    for name, arr in p.blocks().items():
        assert np.array_equal(arr, before[name])


def test_adam_first_step_magnitude():
    # g = 1 at t = 1: m_hat = 1, v_hat = 1, step = -lr / (1 + eps)
    p = scalar_problem()
    g = zero_grads(p)
    g["bias"][0] = 1.0
    before = p.bias[0]
    adam_step(p, g, AdamState.init(p), TrainConfig(learning_rate=0.01))
    assert p.bias[0] - before == pytest.approx(-0.01 * (1.0 / (1.0 + 1e-8)), abs=1e-12)


def test_adam_repeated_gradient_descends_monotonically():
    p = scalar_problem()
    state = AdamState.init(p)
    cfg = TrainConfig(learning_rate=0.01)
    values = [p.bias[0]]
    for _ in range(5):
        g = zero_grads(p)
        g["bias"][0] = 1.0
        adam_step(p, g, state, cfg)
        values.append(p.bias[0])
    assert all(b < a for a, b in zip(values, values[1:]))
    assert state.t == 5


def toy_cases(vocab, n, seed):
    # one distinctive finding per disease, noiseless one-hot labels
    rng = np.random.default_rng(seed)
    clin = [f for f in vocab.findings if f not in vocab.demographic_ids]
    cases = []
    for i in range(n):
        d = int(rng.integers(vocab.n_diseases))
        cases.append(
            ClinicalCase(
                id=f"c{i}",
                pos=frozenset({clin[d]}),
                neg=frozenset(),
                ddx=normalize_ddx([(vocab.diseases[d], 1.0)]),
                source="assessment",
            )
        )
    return CaseSet(cases=tuple(cases), provenance=("toy",))


def test_single_case_memorization():
    vocab, p = toy_setup(n_findings=3, n_diseases=3, dim=16)
    cases = toy_cases(vocab, 1, seed=1)
    cfg = TrainConfig(learning_rate=0.02, batch_size=8, epochs=200, dropout_rate=0.0, seed=0)
    _, history = train(p, cases, cfg)
    assert history[-1].mean_loss < 1e-3


def test_one_epoch_full_batch_is_one_adam_step():
    vocab, p = toy_setup()
    cases = toy_cases(vocab, 6, seed=2)
    cfg = TrainConfig(learning_rate=0.01, batch_size=64, epochs=1, dropout_rate=0.0, seed=11)
    trained, history = train(p, cases, cfg)
    assert len(history) == 1

    # replay by hand: one shuffle, one backward, one adam step
    from ddxkit.train import encode_training_set

    manual = p.copy()
    bags, targets, _ = encode_training_set(vocab, cases)
    order = np.arange(len(targets))
    np.random.default_rng(cfg.seed).shuffle(order)
    grads, _ = backward(manual, bags.take(order), targets[order])
    adam_step(manual, grads, AdamState.init(manual), cfg)
    for name, arr in trained.blocks().items():
        assert np.array_equal(arr, manual.blocks()[name])


def reference_train(p0, cases, cfg):
    """train() as a loop over per-batch lists of (input, target) pairs, with
    reference_backward and allocating_adam_step; an exact oracle."""
    p = p0.copy()
    batch_of = [(encode_case(p.vocab, c.pos, c.neg)[0], encode_target(p.vocab, c.ddx)) for c in cases]
    rng, state, history = np.random.default_rng(cfg.seed), AdamState.init(p), []
    order = np.arange(len(batch_of))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [batch_of[i] for i in order[start : start + cfg.batch_size]]
            grads, loss = reference_backward(p, batch, cfg.dropout_rate, rng)
            allocating_adam_step(p, grads, state, cfg)
            total += loss * len(batch)
        history.append(total / len(order))
    return p, history


@pytest.mark.parametrize("dim", [1, 16, 257, 1024])
@pytest.mark.parametrize("rate", [0.0, 0.7])
@pytest.mark.parametrize("max_findings", [3, 12])  # 3: batches of 7 short cases, summed position-major
def test_train_equals_the_per_batch_reference_bytewise(dim, rate, max_findings):
    vocab, p = toy_setup(n_findings=12, n_diseases=5, dim=dim, demo=("g0", "g1", "g2"))
    rng = np.random.default_rng(dim)
    clin = [f for f in vocab.findings if f not in vocab.demographic_ids]
    cases = []
    for i in range(22):
        picked = list(rng.permutation(clin)[: int(rng.integers(0, max_findings + 1))])
        k = int(rng.integers(0, len(picked) + 1))
        demo = {g for g in sorted(vocab.demographic_ids) if rng.random() < 0.5}
        weights = rng.dirichlet(np.full(vocab.n_diseases, 0.5))  # the largest of 5 is over 0.1
        ddx = normalize_ddx([(d, float(w)) for d, w in zip(vocab.diseases, weights) if w > 0.1])
        cases.append(ClinicalCase(id=f"c{i}", pos=frozenset(picked[:k]) | demo, neg=frozenset(picked[k:]), ddx=ddx))
    cases.insert(7, ClinicalCase(id="bare", pos=frozenset(), neg=frozenset(), ddx=normalize_ddx([("d1", 1.0)])))
    cases = CaseSet(cases=tuple(cases), provenance=("random",))
    batch_size = 7 if max_findings == 3 else 5  # 23 cases: the last batch holds 2 or 3
    cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, epochs=3, dropout_rate=rate, seed=9)

    trained, history = train(p, cases, cfg)
    expected, expected_history = reference_train(p, cases, cfg)
    assert [r.mean_loss for r in history] == expected_history
    for name, arr in expected.blocks().items():
        assert trained.blocks()[name].tobytes() == arr.tobytes(), name


def test_training_is_deterministic():
    vocab, p = toy_setup()
    cases = toy_cases(vocab, 20, seed=3)
    cfg = TrainConfig(learning_rate=0.01, batch_size=4, epochs=3, dropout_rate=0.5, seed=7)
    a, history_a = train(p, cases, cfg)
    b, history_b = train(p, cases, cfg)
    assert checkpoint_to_json(a) == checkpoint_to_json(b)
    # Each epoch's seconds are recorded, and left out of equality and the log line.
    assert history_a == history_b and all(r.seconds > 0 for r in history_a + history_b)
    assert [r.seconds for r in history_a] != [r.seconds for r in history_b]
    assert [r.format_line() for r in history_a] == [f"epoch {r.epoch} loss {r.mean_loss:.6f}" for r in history_b]
    c, _ = train(p, cases, TrainConfig(learning_rate=0.01, batch_size=4, epochs=3, dropout_rate=0.5, seed=8))
    assert checkpoint_to_json(c) != checkpoint_to_json(a)


def test_train_does_not_mutate_initial_parameters():
    vocab, p = toy_setup()
    before = {k: v.copy() for k, v in p.blocks().items()}
    train(p, toy_cases(vocab, 8, seed=4), TrainConfig(epochs=1, batch_size=4, dropout_rate=0.0, seed=0))
    for name, arr in p.blocks().items():
        assert np.array_equal(arr, before[name])


@pytest.mark.parametrize("dim", [16, 1024])  # 1024: the finding rows take the position-major scatter
def test_training_init_parameters_stays_in_float32(dim):
    # One float64 promotion in a step would quietly undo the float32 speed-up.
    vocab, _ = toy_setup(n_findings=12, n_diseases=5)
    p0 = init_parameters(vocab, dim=dim, seed=3)
    rng = np.random.default_rng(dim)
    clin = [f for f in vocab.findings if f not in vocab.demographic_ids]
    cases = [
        ClinicalCase(
            id=f"c{i}",
            pos=frozenset(rng.permutation(clin)[:6].tolist()) | {"g0"},
            neg=frozenset(),
            ddx=normalize_ddx([(vocab.diseases[i % vocab.n_diseases], 1.0)]),
        )
        for i in range(20)
    ]
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=2, dropout_rate=0.5, seed=1)
    with (
        mock.patch.object(train_module, "adam_step", wraps=adam_step) as steps,
        mock.patch.object(train_module, "make_dropout_plan", wraps=make_dropout_plan) as draws,
        mock.patch.object(train_module, "backward", wraps=backward) as passes,
    ):
        trained, _ = train(p0, CaseSet(cases=tuple(cases), provenance=("random",)), cfg)
    assert steps.call_count == draws.call_count == passes.call_count == 6
    for call in passes.call_args_list:
        batch, mask = call.args[1], call.args[3]
        assert mask.dtype == bool and mask.shape == (len(batch.rows), dim)
    state = steps.call_args.args[2]
    arrays = [*trained.blocks().values(), *state.m.values(), *state.v.values()]
    arrays += [a for pair in state.scratch.values() for a in pair]
    arrays += [g for call in steps.call_args_list for g in call.args[1].values()]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


# Only the dropout mask draws through make_dropout_plan, so checkpoints that
# draw none keep their bytes when its rule changes. Each digest is the SHA-256
# of the checkpoint's text: untrained, or after two epochs without dropout.
@pytest.mark.parametrize(
    "n_diseases, dim, seed, trained, digest",
    [
        (4, 16, 3, False, "223c8fbd080668abea3269ea352eb3cf73d391a51c01b25b167b4cd27db92196"),
        (4, 16, 3, True, "680c0f5d46a447ee7a9ade40bd0d956bac642b1f54742f93460041513e5c47b5"),
        (20, 64, 5, False, "f5c11b3b4f93dd7892b5303bd7bae6d2825fd351d22ec26734bd0528298e7012"),
        (20, 64, 5, True, "afa029f51f23243a4941f54100f9bf2d9f3cb55b116e916ef85707de13116ada"),
    ],
)
def test_checkpoint_bytes_without_dropout_are_pinned(n_diseases, dim, seed, trained, digest):
    kb = make_separable_kb(n_diseases, seed=0)
    cases = simulate_dataset(kb, SimConfig(cases_total=40, seed=seed, min_cases_per_disease=0))
    cases = CaseSet(cases=tuple(cases), provenance=("simulated",))
    p = init_parameters(build_vocabulary([cases], kb=kb), dim=dim, seed=seed, kb=kb)
    if trained:
        p, _ = train(p, cases, TrainConfig(batch_size=8, epochs=2, dropout_rate=0.0, seed=seed))
    assert hashlib.sha256(checkpoint_to_json(p).encode("utf-8")).hexdigest() == digest


def test_loss_is_non_increasing_on_separable_toy_data():
    vocab, p = toy_setup(n_findings=4, n_diseases=4, dim=8, demo=())
    cases = toy_cases(vocab, 64, seed=5)
    cfg = TrainConfig(learning_rate=0.005, batch_size=64, epochs=12, dropout_rate=0.0, seed=1)
    _, history = train(p, cases, cfg)
    losses = [r.mean_loss for r in history]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-6



def test_train_rejects_unknown_disease():
    vocab, p = toy_setup()
    bad = ClinicalCase(
        id="bad", pos=frozenset({"f0"}), neg=frozenset(), ddx=normalize_ddx([("mystery", 1.0)]), source="assessment"
    )
    cases = CaseSet(cases=(bad,), provenance=("x",))
    with pytest.raises(ValueError, match="outside vocabulary"):
        train(p, cases, TrainConfig(epochs=1, seed=0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    for lr in (math.nan, math.inf, -math.inf, 0.0, -0.01):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


def test_a_batch_of_one_is_accepted_and_trains_an_epoch():
    vocab, p = toy_setup()
    cases = toy_cases(vocab, 3, seed=4)
    cfg = TrainConfig(learning_rate=0.01, batch_size=1, epochs=1, dropout_rate=0.0, seed=0)
    assert cfg.batch_size == 1
    trained, history = train(p, cases, cfg)
    assert [r.epoch for r in history] == [1]
    assert not np.array_equal(trained.projection, p.projection)


def test_train_rejects_an_empty_training_set():
    _, p = toy_setup()
    with pytest.raises(ValueError) as raised:
        train(p, CaseSet(cases=(), provenance=("x",)), TrainConfig(epochs=1))
    assert str(raised.value) == "empty training set"


def test_a_diverging_run_is_a_config_error_of_learning_rate():
    vocab, p = toy_setup()
    cfg = TrainConfig(learning_rate=1e308, batch_size=64, epochs=3, dropout_rate=0.0, seed=0)
    with warnings.catch_warnings(), pytest.raises(ConfigError) as raised:
        warnings.simplefilter("error")  # the ConfigError is the run's one report
        train(p, toy_cases(vocab, 6, seed=2), cfg)
    assert raised.value.field == "learning_rate"
    assert str(raised.value) == "learning_rate diverged at epoch 2: mean loss nan"
