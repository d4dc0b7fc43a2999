import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ddxkit.data import Vocabulary
from ddxkit.kb import DEMOGRAPHIC
from ddxkit.model import (
    DEMOGRAPHIC_MASK,
    RANK_CHUNK,
    bag,
    ModelInput,
    ModelParameters,
    checkpoint_from_json,
    checkpoint_to_json,
    disease_log_probs,
    encode_case,
    encode_target,
    init_parameters,
    load_checkpoint,
    make_dropout_plan,
    pooled_embedding,
    predict_topk,
    rank_cases,
    save_checkpoint,
)
from ddxkit.data import normalize_ddx

from conftest import GARBAGE, make_kb
from oracles import float64_parameters, reference_log_probs, reference_ranking


def small_vocab(n_findings=4, n_diseases=3, demo=("age_a", "age_b")):
    findings = tuple(sorted([f"f{i}" for i in range(n_findings)] + list(demo)))
    return Vocabulary(
        findings=findings,
        diseases=tuple(f"d{i}" for i in range(n_diseases)),
        demographic_ids=frozenset(demo),
    )


def random_input(vocab, rng, allow_empty=True):
    K = vocab.n_findings
    clin = [i for i, f in enumerate(vocab.findings) if f not in vocab.demographic_ids]
    rng.shuffle(clin)
    lo = 0 if allow_empty else 1
    n_pos = int(rng.integers(lo, max(lo + 1, len(clin))))
    n_neg = int(rng.integers(0, max(1, len(clin) - n_pos + 1)))
    demo = [vocab.demo_index(f) for f in vocab.demographic_list if rng.random() < 0.5]
    return ModelInput(tuple(sorted(clin[:n_pos])), tuple(sorted(clin[n_pos : n_pos + n_neg])), tuple(demo))


def test_init_is_deterministic_and_bounded():
    vocab = small_vocab()
    a = init_parameters(vocab, dim=8, seed=3)
    b = init_parameters(vocab, dim=8, seed=3)
    for name, arr in a.blocks().items():
        assert np.array_equal(arr, b.blocks()[name])
    assert np.all(np.abs(a.finding_embeddings) <= 0.05)
    assert np.all(np.abs(a.projection) <= 0.05)
    assert np.all(a.demographic_embeddings == 0.0)
    assert [b.shape for b in a.blocks().values()] == [(12, 8), (8, 3), (3,), (2, 3)]
    c = init_parameters(vocab, dim=8, seed=4)
    assert not np.array_equal(a.finding_embeddings, c.finding_embeddings)


def test_init_masks_follow_kb():
    kb = make_kb(
        ["d0", "d1"],
        ["f0", ("age_a", DEMOGRAPHIC, "age"), ("age_b", DEMOGRAPHIC, "age")],
        {("d0", "f0"): 0.5, ("d0", "age_a"): 0.7, ("d0", "age_b"): 0.3, ("d1", "f0"): 0.5, ("d1", "age_a"): 0.2},
    )
    vocab = small_vocab(n_findings=1, n_diseases=2)
    p = init_parameters(vocab, dim=4, seed=0, kb=kb)
    a = vocab.demo_index("age_a")
    b = vocab.demo_index("age_b")
    assert p.demographic_embeddings[a, 0] == 0.0  # (d0, age_a) plausible
    assert p.demographic_embeddings[b, 1] == DEMOGRAPHIC_MASK  # (d1, age_b) has FREQ 0
    assert p.demographic_embeddings[b, 0] == 0.0


def test_init_leaves_unknown_diseases_unmasked():
    kb = make_kb(["d0"], [("age_a", DEMOGRAPHIC, "age")], {})
    vocab = Vocabulary(
        findings=("age_a",),
        diseases=("d0", "novel"),
        demographic_ids=frozenset({"age_a"}),
    )
    p = init_parameters(vocab, dim=2, seed=0, kb=kb)
    assert p.demographic_embeddings[0, 0] == DEMOGRAPHIC_MASK  # d0 known, freq 0
    assert p.demographic_embeddings[0, 1] == 0.0  # novel disease stays plausible


def test_init_leaves_demographics_the_kb_does_not_know_as_demographic_unmasked():
    kb = make_kb(["d0", "d1"], ["age_b", ("age_c", DEMOGRAPHIC, "age")], {("d0", "age_c"): 0.5})
    vocab = Vocabulary(
        findings=("age_a", "age_b", "age_c"),
        diseases=("d0", "d1"),
        demographic_ids=frozenset({"age_a", "age_b", "age_c"}),
    )
    p = init_parameters(vocab, dim=2, seed=0, kb=kb)
    # age_a is unknown to the KB and age_b is clinical there; age_c rules out d1 alone.
    assert p.demographic_embeddings.tolist() == [[0.0, 0.0], [0.0, 0.0], [0.0, DEMOGRAPHIC_MASK]]


def test_zero_parameters_give_uniform_output():
    vocab = small_vocab()
    p = init_parameters(vocab, dim=8, seed=0)
    for arr in p.blocks().values():
        arr[:] = 0.0
    x = ModelInput((0, 1), (2,), (0,))
    out = reference_log_probs(p, x)
    assert np.allclose(out, math.log(1.0 / vocab.n_diseases), atol=1e-12)


def test_forward_normalization_over_random_draws():
    rng = np.random.default_rng(0)
    vocab = small_vocab()
    for trial in range(200):
        p = init_parameters(vocab, dim=6, seed=trial)
        for arr in p.blocks().values():
            arr += rng.normal(0, 2.0, size=arr.shape)
        x = random_input(vocab, rng)
        total = np.exp(reference_log_probs(p, x)).sum()
        assert abs(total - 1.0) < 1e-9


@pytest.mark.parametrize("rowwise", [False, True])
@pytest.mark.parametrize("n_diseases", [1, 2, 7])
def test_one_log_softmax_is_the_model_of_three_normalisations(n_diseases, rowwise):
    # Each inner log-softmax of log_softmax(log_softmax(z + b) + log_softmax(u))
    # only subtracts a per-case constant, which the outer one removes again.
    def log_softmax_rows(z):
        m = z.max(axis=1, keepdims=True)
        return z - (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))

    rng = np.random.default_rng(n_diseases)
    vocab = small_vocab(n_diseases=n_diseases)
    for trial in range(40):
        p = float64_parameters(vocab, dim=5, seed=trial)
        for arr in p.blocks().values():
            arr += rng.normal(0, 2.0, size=arr.shape)
        p.demographic_embeddings[rng.random(p.demographic_embeddings.shape) < 0.3] = DEMOGRAPHIC_MASK
        bare = [ModelInput((), (), ()), ModelInput((0, 1), (2,), ()), ModelInput((), (3,), (0, 1))]
        xs = bare + [random_input(vocab, rng) for _ in range(5)]
        bags = bag(xs)
        h = pooled_embedding(p, bags)
        u = np.array([p.demographic_embeddings[list(x.demo)].sum(axis=0) for x in xs])
        expected = log_softmax_rows(log_softmax_rows(h @ p.projection + p.bias) + log_softmax_rows(u))
        assert np.allclose(disease_log_probs(p, bags, h, rowwise=rowwise), expected, rtol=0.0, atol=1e-12)


def test_masked_disease_is_suppressed():
    vocab = small_vocab()
    p = init_parameters(vocab, dim=8, seed=1)
    p.demographic_embeddings[0, 2] = DEMOGRAPHIC_MASK
    x = ModelInput((0, 1), (), (0,))
    probs = np.exp(reference_log_probs(p, x))
    assert probs[2] / probs.max() < 1e-10
    # without the demographic observed the disease is not suppressed
    probs2 = np.exp(reference_log_probs(p, ModelInput((0, 1), (), ())))
    assert probs2[2] / probs2.max() > 1e-3


def test_dropout_rate_zero_is_exactly_inference():
    vocab = small_vocab()
    p = init_parameters(vocab, dim=8, seed=2)
    x = ModelInput((0, 2), (1,), (1,))
    bags = bag([x])
    mask = make_dropout_plan(len(bags.rows), 8, 0.0, np.random.default_rng(0))
    assert np.array_equal(disease_log_probs(p, bags, pooled_embedding(p, bags, mask, 0.0))[0], reference_log_probs(p, x))


@pytest.mark.parametrize("dim", [1, 2, 64, 256, 257])
@pytest.mark.parametrize("rate", [0.0, 0.7])
@pytest.mark.parametrize("n_cases", [1, 14, 40])
def test_pooled_embedding_equals_per_slice_means_bytewise(dim, rate, n_cases):
    vocab = small_vocab(n_findings=150)
    rng = np.random.default_rng(dim)
    p = float64_parameters(vocab, dim=dim, seed=8)
    p.finding_embeddings *= 10.0 ** rng.integers(-3, 4, size=p.finding_embeddings.shape)
    xs = [random_input(vocab, rng) for _ in range(12)] + [ModelInput((), (), ()), ModelInput((), (), (0, 1))]
    xs = [xs[i] for i in rng.permutation(len(xs))]
    if n_cases == 1:
        xs = [max(xs, key=lambda x: len(bag([x]).rows))]
    if n_cases == 40:  # many cases of at most 6 rows, which narrow rows sum position-major
        xs += [random_input(vocab, rng) for _ in range(26)]
        xs = [ModelInput(x.pos_clinical[:3], x.neg_clinical[:3], x.demo) for x in xs]
    bags = bag(xs)
    mask = make_dropout_plan(len(bags.rows), dim, rate, rng) if rate > 0.0 else None
    got = pooled_embedding(p, bags, mask, rate)

    gathered = p.finding_embeddings[bags.rows]
    if mask is not None:
        gathered = gathered * mask / (1.0 - rate)
    expected = np.zeros((len(xs), dim))
    for b, (s, e) in enumerate(zip(bags.offsets, bags.offsets[1:])):
        if e > s:
            expected[b] = gathered[s:e].mean(axis=0)
    assert got.tobytes() == expected.tobytes()


def test_take_equals_bagging_the_taken_cases_bytewise():
    vocab = small_vocab(n_findings=30)
    rng = np.random.default_rng(12)
    xs = [random_input(vocab, rng) for _ in range(9)] + [ModelInput((), (), ()), ModelInput((), (), (1,))]
    xs = [xs[i] for i in rng.permutation(len(xs))]
    bags = bag(xs)
    for idx in ([], [3], [0, 0, 5, 2, 5], rng.permutation(len(xs)), rng.integers(0, len(xs), size=25)):
        idx = np.asarray(idx, dtype=np.intp)
        got, expected = bags.take(idx), bag([xs[i] for i in idx])
        for name, arr in expected._asdict().items():
            assert getattr(got, name).dtype == arr.dtype, name
            assert getattr(got, name).tobytes() == arr.tobytes(), name


def test_dropout_scaling_is_unbiased():
    rng = np.random.default_rng(3)
    vocab = small_vocab()
    p = init_parameters(vocab, dim=8, seed=2)
    p.finding_embeddings = rng.uniform(0.5, 1.5, size=p.finding_embeddings.shape)
    x = ModelInput((0, 1, 2, 3), (), ())
    bags = bag([x])
    h = pooled_embedding(p, bags)[0]
    draws = np.stack(
        [pooled_embedding(p, bags, make_dropout_plan(len(bags.rows), 8, 0.7, rng), 0.7)[0] for _ in range(10_000)]
    )
    assert np.allclose(draws.mean(axis=0), h, atol=0.02 * max(1.0, np.abs(h).max()))


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.7])
def test_a_dropout_mask_keeps_one_minus_rate_of_its_entries(rate):
    # The drop share is the quantised rate t / 2**16, t = round(rate * 2**16).
    share, shape = round(rate * 65536) / 65536, (4096, 256)
    assert abs(share - rate) <= 2**-17
    mask = make_dropout_plan(*shape, rate, np.random.default_rng(17))
    n = mask.size
    assert mask.shape == shape and mask.dtype == bool
    assert abs(int(mask.sum()) - n * (1.0 - share)) <= 5.0 * math.sqrt(n * share * (1.0 - share))


def sixteen_bit_values(words):
    """Each raw 64-bit word's four 16-bit slices, low slice first, as Python ints."""
    return [(int(w) >> shift) & 0xFFFF for w in words for shift in (0, 16, 32, 48)]


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 3), (5, 257), (2, 2), (0, 6)])
@pytest.mark.parametrize("rate", [0.1, 0.5, 0.7, 2**-17 + 2**-30, 1 - 2**-17 - 2**-30])
def test_a_dropout_mask_keeps_the_16_bit_values_at_or_above_the_rate_threshold(shape, rate):
    n = shape[0] * shape[1]
    mask = make_dropout_plan(*shape, rate, np.random.default_rng(23))
    words = np.random.default_rng(23).bit_generator.random_raw((n + 3) // 4)
    threshold = round(rate * 65536)
    expected = np.array([v >= threshold for v in sixteen_bit_values(words)[:n]], dtype=bool).reshape(shape)
    assert mask.shape == shape and mask.dtype == bool
    assert mask.tobytes() == expected.tobytes()


def test_each_dropout_mask_advances_the_generator_by_ceil_n_over_4_raw_words():
    # With the test above, consecutive masks read disjoint words of one stream.
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    for rows, dim, words in [(3, 5, 4), (7, 3, 6), (0, 4, 0), (5, 257, 322), (1, 1, 1)]:
        make_dropout_plan(rows, dim, 0.5, rng)
        ref.bit_generator.advance(words)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "rate, kept", [(0.0, True), (2**-18, True), (2**-17, True), (1 - 2**-17, False), (np.nextafter(1.0, 0.0), False)]
)
def test_a_rate_within_2_to_the_minus_17_of_0_or_1_keeps_or_drops_every_entry(rate, kept):
    mask = make_dropout_plan(512, 256, rate, np.random.default_rng(37))
    assert mask.all() if kept else not mask.any()


def test_encode_case_is_invariant_to_insertion_order():
    vocab = small_vocab(n_findings=40)
    rng = np.random.default_rng(5)
    ids = list(vocab.findings) + ["mystery", "other"]
    for _ in range(50):
        rng.shuffle(ids)
        n_pos = int(rng.integers(0, len(ids) + 1))
        pos, neg = ids[:n_pos], ids[n_pos : n_pos + int(rng.integers(0, len(ids) - n_pos + 1))]
        a = encode_case(vocab, set(pos), frozenset(neg))
        b = encode_case(vocab, frozenset(reversed(pos)), set(reversed(neg)))
        assert a == b
        for indices in a[0]:
            assert list(indices) == sorted(set(indices))


def test_forward_permutation_equivariance():
    vocab = small_vocab()
    p = init_parameters(vocab, dim=8, seed=6)
    perm = np.array([2, 0, 1])
    q = p.copy()
    q.projection = q.projection[:, perm]
    q.bias = q.bias[perm]
    q.demographic_embeddings = q.demographic_embeddings[:, perm]
    x = ModelInput((0, 1), (2,), (0,))
    assert np.allclose(reference_log_probs(q, x), reference_log_probs(p, x)[perm], atol=1e-12)


def test_empty_clinical_input_uses_bias_only():
    vocab = small_vocab()
    p = init_parameters(vocab, dim=8, seed=7)
    x = ModelInput((), (), (0,))
    out = reference_log_probs(p, x)
    assert np.isfinite(out).all()
    assert abs(np.exp(out).sum() - 1.0) < 1e-9


def test_predict_topk_full_distribution_and_ties():
    vocab = small_vocab()
    p = init_parameters(vocab, dim=8, seed=8)
    for arr in p.blocks().values():
        arr[:] = 0.0
    x = ModelInput((0,), (), ())
    top = predict_topk(p, x, k=vocab.n_diseases)
    assert sum(prob for _, prob in top) == pytest.approx(1.0, abs=1e-9)
    assert [d for d, _ in top] == ["d0", "d1", "d2"]  # uniform -> id order
    top2 = predict_topk(p, x, k=2)
    assert [d for d, _ in top2] == ["d0", "d1"]
    with pytest.raises(ValueError):
        predict_topk(p, x, k=0)


@pytest.mark.parametrize("dim", [1, 2, 64])
@pytest.mark.parametrize("n_known", [3, 200])
@pytest.mark.parametrize("scale", [0.0, 1.0, 30.0])
def test_rank_cases_equals_predict_topk_bytewise(dim, n_known, scale):
    # The row-wise projection has a batch of one's bytes only as far as BLAS
    # dispatches a stacked (1, D) product like a single one; this is the check
    # that catches a machine where it does not. scale 0 is the initial model,
    # larger scales stand in for trained weights of growing size.
    rng = np.random.default_rng(dim * n_known)
    demo = ("age_a", "age_b", "age_c")
    known = [f"d{i:03d}" for i in range(n_known)]
    freqs = {(d, a): float(rng.choice([0.0, 0.5])) for d in known for a in demo}
    kb = make_kb(known, [(a, DEMOGRAPHIC, "age") for a in demo], freqs)
    findings = small_vocab(n_findings=40, demo=demo).findings
    vocab = Vocabulary(findings, tuple(known) + ("novel",), frozenset(demo))
    p = init_parameters(vocab, dim=dim, seed=dim, kb=kb)
    for arr in (p.finding_embeddings, p.projection, p.bias):
        arr += rng.normal(0.0, scale, size=arr.shape)
    xs = [random_input(vocab, rng) for _ in range(RANK_CHUNK + 40)]
    xs[3] = ModelInput((), (), ())
    xs[RANK_CHUNK] = ModelInput((), (), (1,))
    L = vocab.n_diseases
    ranked = list(rank_cases(p, xs))
    assert len(ranked) == len(xs)
    assert [i for i, x in enumerate(xs) if repr(ranked[i]) != repr(reference_ranking(p, x))] == []
    assert [i for i, x in enumerate(xs[:40]) if repr(predict_topk(p, x, L)) != repr(ranked[i])] == []
    assert list(rank_cases(p, [])) == []


@pytest.mark.parametrize("scale", [0.05, 3.0])
def test_rank_cases_on_float32_parameters_sums_to_one_within_1e_9(scale):
    # The bound the benchmark checks on every model ranking: the float64
    # log-softmax meets it, a float32 one would not.
    rng = np.random.default_rng(21)
    findings = small_vocab(n_findings=40).findings
    vocab = Vocabulary(findings, tuple(f"d{j:03d}" for j in range(200)), frozenset({"age_a", "age_b"}))
    p = init_parameters(vocab, dim=64, seed=21)
    for arr in p.blocks().values():
        arr += rng.normal(0.0, scale, size=arr.shape)  # in place: the blocks stay float32
    assert {a.dtype for a in p.blocks().values()} == {np.dtype(np.float32)}
    xs = [random_input(vocab, rng) for _ in range(RANK_CHUNK + 40)]
    worst = max(abs(math.fsum(prob for _, prob in ranked) - 1.0) for ranked in rank_cases(p, xs))
    assert worst <= 1e-9


def test_encode_case_rejects_a_finding_both_present_and_absent():
    vocab = small_vocab()
    for pos, neg, overlap in [
        ({"f0", "f1"}, {"f1"}, "['f1']"),
        ({"age_a", "mystery"}, {"mystery", "age_a", "f2"}, "['age_a', 'mystery']"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"findings in both pos and neg: {overlap}")):
            encode_case(vocab, pos, neg)


def test_encode_case_routes_and_skips():
    vocab = small_vocab()
    x, skipped = encode_case(vocab, {"f0", "age_a", "mystery"}, {"f1", "age_b"})
    assert skipped == 2  # "mystery" unknown, "age_b" demographic observed absent
    assert x.pos_clinical == (vocab.finding_index("f0"),)
    assert x.neg_clinical == (vocab.finding_index("f1"),)
    assert x.demo == (vocab.demo_index("age_a"),)


def test_encode_target_requires_known_diseases():
    vocab = small_vocab()
    target = encode_target(vocab, normalize_ddx([("d0", 3.0), ("d2", 1.0)]))
    assert target == pytest.approx([0.75, 0.0, 0.25])
    with pytest.raises(ValueError, match="outside vocabulary"):
        encode_target(vocab, normalize_ddx([("dx", 1.0)]))


def test_checkpoint_round_trip(tmp_path):
    vocab = small_vocab()
    p = init_parameters(vocab, dim=8, seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.vocab == p.vocab
    for name, arr in p.blocks().items():
        assert np.array_equal(arr, q.blocks()[name])
    save_checkpoint(q, tmp_path / "m2.ckpt")
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


@st.composite
def random_parameters(draw):
    K, L, D = draw(st.integers(0, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    M = draw(st.integers(0, K))
    findings = tuple(f"f{i}" for i in range(K))
    vocab = Vocabulary(
        findings=findings,
        diseases=tuple(f"d{j}" for j in range(L)),
        demographic_ids=frozenset(findings[:M]),
    )
    finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
    blocks = {
        name: draw(arrays(np.float32, shape, elements=finite))
        for name, shape in (
            ("finding_embeddings", (2 * K, D)),
            ("projection", (D, L)),
            ("bias", (L,)),
            ("demographic_embeddings", (M, L)),
        )
    }
    return ModelParameters(**blocks, vocab=vocab)


@given(random_parameters())
@settings(max_examples=100, deadline=None)
def test_checkpoint_round_trip_keeps_every_byte(p):
    text = checkpoint_to_json(p)
    q = checkpoint_from_json(text)
    assert q.vocab == p.vocab
    for name, arr in p.blocks().items():
        got = q.blocks()[name]
        assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes()), name
    assert checkpoint_to_json(q) == text


def test_a_tiny_checkpoint_has_the_format_3_text():
    # A change to this text is a change to the checkpoint format: raise
    # CHECKPOINT_VERSION with it.
    vocab = Vocabulary(findings=("age_a", "f0"), diseases=("d0", "d1"), demographic_ids=frozenset({"age_a"}))
    assert checkpoint_to_json(init_parameters(vocab, dim=1, seed=0)) == (
        '{"arrays":{"bias":"SbYuPOsAvDw=","demographic_embeddings":"AAAAAAAAAAA=",'
        '"finding_embeddings":"5WVgPDqXvLxqBDy9wAdGvQ==","projection":"xFAAPY8QKT0="},'
        '"byte_order":"little","dim":1,"dtype":"float32","format":"ddx-checkpoint","version":3,'
        '"vocab":{"demographic_ids":["age_a"],"diseases":["d0","d1"],"findings":["age_a","f0"]}}\n'
    )


def test_a_float64_model_is_checkpointed_as_float32():
    vocab = small_vocab()
    p = float64_parameters(vocab, dim=4, seed=0)
    q = checkpoint_from_json(checkpoint_to_json(p))
    for name, arr in p.blocks().items():
        got = q.blocks()[name]
        assert (got.dtype, got.tobytes()) == (np.dtype(np.float32), arr.astype(np.float32).tobytes()), name
    p.bias[1] = 1e300  # finite in float64, past the float32 range
    with pytest.raises(ValueError, match="^bias: non-finite entries$"):
        checkpoint_to_json(p)


def test_save_checkpoint_that_fails_validation_writes_nothing(tmp_path):
    p = init_parameters(small_vocab(), dim=4, seed=0)
    p.bias[1] = math.nan
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match="non-finite"):
        save_checkpoint(p, path)
    assert not path.exists()
    path.write_text("an earlier checkpoint", encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite"):
        save_checkpoint(p, path)
    assert path.read_text(encoding="utf-8") == "an earlier checkpoint"


def test_checkpoint_rejects_foreign_or_versioned_files():
    vocab = small_vocab()
    p = init_parameters(vocab, dim=4, seed=0)
    text = checkpoint_to_json(p)
    for version in ("1", "2", "99"):
        with pytest.raises(ValueError, match=f"^unsupported checkpoint version {version}, expected 3$"):
            checkpoint_from_json(text.replace('"version":3', f'"version":{version}'))
    with pytest.raises(ValueError, match="not a"):
        checkpoint_from_json('{"format": "something-else"}')

    def edited(edit):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    for bad, match in [
        ("[1]", "checkpoint: expected an object, got list"),
        ("{not json", "parse error at line 1"),
        ('{"dim": ' + "1" * 5000 + "}", "^checkpoint: parse error: Exceeds the limit"),
        ("[" * 200000, "^checkpoint: parse error: maximum recursion depth exceeded"),
        (edited(lambda d: d.pop("vocab")), "checkpoint: missing field 'vocab'"),
        (edited(lambda d: d.pop("dim")), "checkpoint: missing field 'dim'"),
        (edited(lambda d: d.pop("arrays")), "checkpoint: missing field 'arrays'"),
        (edited(lambda d: d["vocab"].pop("diseases")), "checkpoint vocab: missing field 'diseases'"),
        (edited(lambda d: d["arrays"].pop("bias")), "checkpoint arrays: missing field 'bias'"),
        (edited(lambda d: d.update(vocab=[])), "checkpoint: field 'vocab' must be dict"),
        (edited(lambda d: d["vocab"].update(findings="f0")), "checkpoint vocab: field 'findings' must be list"),
        (edited(lambda d: d["vocab"].update(diseases=["d0", 1, "d2"])), "checkpoint vocab: .* must hold ids"),
        (edited(lambda d: d["vocab"].update(mutex_groups={})), "checkpoint vocab: unknown field 'mutex_groups'"),
        (edited(lambda d: d.update(dims={"dim": 4})), "checkpoint: unknown field 'dims'"),
        (edited(lambda d: d.update(dim="4")), "checkpoint: field 'dim' must be int"),
        (edited(lambda d: d.update(dim=True)), "checkpoint: field 'dim' must be int"),
        (edited(lambda d: d.update(dim=0)), "checkpoint: field 'dim' must be >= 1"),
        (edited(lambda d: d.update(dim=3)), r"checkpoint arrays: field 'finding_embeddings' is not \(12, 3\) float32"),
        (edited(lambda d: d.update(arrays="")), "checkpoint: field 'arrays' must be dict"),
        (edited(lambda d: d["arrays"].update(bias=3)), "checkpoint arrays: field 'bias' must be str"),
        (edited(lambda d: d["arrays"].update(bias="AAAA")), r"checkpoint arrays: field 'bias' is not \(3,\) float32"),
        (edited(lambda d: d["arrays"].update(bias="A")), r"checkpoint arrays: field 'bias' is not \(3,\) float32"),
        (edited(lambda d: d["vocab"].update(diseases=d["vocab"]["diseases"][::-1])), "ascending id order"),
    ]:
        with pytest.raises(ValueError, match=match):
            checkpoint_from_json(bad)


def test_directly_built_vocabulary_survives_a_checkpoint_round_trip():
    vocab = Vocabulary(findings=("a", "b"), diseases=("d",), demographic_ids=frozenset())
    assert Vocabulary.from_dict(vocab.to_dict()) == vocab
    p = init_parameters(vocab, dim=2, seed=0)
    assert checkpoint_from_json(checkpoint_to_json(p)).vocab == vocab


def field_paths(obj, prefix=()):
    """Key paths of every field of a decoded JSON object, nested ones too."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


VALID_CHECKPOINT = json.loads(checkpoint_to_json(init_parameters(small_vocab(), dim=2, seed=0)))


@given(st.sampled_from(sorted(field_paths(VALID_CHECKPOINT))), GARBAGE)
@settings(max_examples=300)
def test_a_garbage_checkpoint_field_raises_only_value_error(path, value):
    doc = json.loads(json.dumps(VALID_CHECKPOINT))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        checkpoint_from_json(json.dumps(doc))
    except ValueError:
        pass


def test_dropout_plan_rejects_a_rate_of_one():
    with pytest.raises(ValueError) as raised:
        make_dropout_plan(4, 3, 1.0, np.random.default_rng(0))
    assert str(raised.value) == "dropout rate must be in [0, 1), got 1.0"


def test_validate_names_a_block_of_the_wrong_shape():
    p = init_parameters(small_vocab(), dim=8, seed=0)
    p.projection = p.projection[:, :2]
    with pytest.raises(ValueError) as raised:
        p.validate()
    assert str(raised.value) == "projection: shape (8, 2) != expected (8, 3)"
