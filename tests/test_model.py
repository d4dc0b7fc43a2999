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
from oracles import reference_log_probs, reference_ranking


def small_vocab(n_findings=4, n_diseases=3, demo=("age_a", "age_b")):
    findings = tuple(sorted([f"f{i}" for i in range(n_findings)] + list(demo)))
    return Vocabulary(
        findings=findings,
        diseases=tuple(f"d{i}" for i in range(n_diseases)),
        demographic_ids=frozenset(demo),
        mutex_groups={f: ("age" if f in demo else None) for f in findings},
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
    assert a.dims == (6, 3, 8, 2)
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
        mutex_groups={"age_a": "age"},
    )
    p = init_parameters(vocab, dim=2, seed=0, kb=kb)
    assert p.demographic_embeddings[0, 0] == DEMOGRAPHIC_MASK  # d0 known, freq 0
    assert p.demographic_embeddings[0, 1] == 0.0  # novel disease stays plausible


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
    mask = make_dropout_plan(x.n_rows, 8, 0.0, np.random.default_rng(0))
    assert np.array_equal(disease_log_probs(p, bag([x]), pooled_embedding(p, bag([x]), mask, 0.0))[0], reference_log_probs(p, x))


@pytest.mark.parametrize("dim", [1, 2, 64, 256, 257])
@pytest.mark.parametrize("rate", [0.0, 0.7])
@pytest.mark.parametrize("n_cases", [1, 14, 40])
def test_pooled_embedding_equals_per_slice_means_bytewise(dim, rate, n_cases):
    vocab = small_vocab(n_findings=150)
    rng = np.random.default_rng(dim)
    p = init_parameters(vocab, dim=dim, seed=8)
    p.finding_embeddings *= 10.0 ** rng.integers(-3, 4, size=p.finding_embeddings.shape)
    xs = [random_input(vocab, rng) for _ in range(12)] + [ModelInput((), (), ()), ModelInput((), (), (0, 1))]
    xs = [xs[i] for i in rng.permutation(len(xs))]
    if n_cases == 1:
        xs = [max(xs, key=lambda x: x.n_rows)]
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
    h = pooled_embedding(p, bag([x]))[0]
    draws = np.stack(
        [pooled_embedding(p, bag([x]), make_dropout_plan(x.n_rows, 8, 0.7, rng), 0.7)[0] for _ in range(10_000)]
    )
    assert np.allclose(draws.mean(axis=0), h, atol=0.02 * max(1.0, np.abs(h).max()))


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
    vocab = Vocabulary(findings, tuple(known) + ("novel",), frozenset(demo), {a: "age" for a in demo})
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
    groups = draw(st.lists(st.sampled_from([None, "age", "sex"]), min_size=K, max_size=K))
    vocab = Vocabulary(
        findings=findings,
        diseases=tuple(f"d{j}" for j in range(L)),
        demographic_ids=frozenset(findings[:M]),
        mutex_groups=dict(zip(findings, groups)),
    )
    finite = st.floats(allow_nan=False, allow_infinity=False)
    blocks = {
        name: draw(arrays(np.float64, shape, elements=finite))
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
    with pytest.raises(ValueError, match="version"):
        checkpoint_from_json(text.replace('"version":1', '"version":99'))
    with pytest.raises(ValueError, match="not a"):
        checkpoint_from_json('{"format": "something-else"}')

    def edited(edit):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)

    for bad, match in [
        ("[1]", "checkpoint: expected an object, got list"),
        ("{not json", "parse error at line 1"),
        (edited(lambda d: d.pop("vocab")), "checkpoint: missing field 'vocab'"),
        (edited(lambda d: d.pop("dims")), "checkpoint: missing field 'dims'"),
        (edited(lambda d: d.pop("arrays")), "checkpoint: missing field 'arrays'"),
        (edited(lambda d: d["vocab"].pop("diseases")), "checkpoint vocab: missing field 'diseases'"),
        (edited(lambda d: d["dims"].pop("dim")), "checkpoint dims: missing field 'dim'"),
        (edited(lambda d: d["arrays"].pop("bias")), "checkpoint arrays: missing field 'bias'"),
        (edited(lambda d: d.update(vocab=[])), "checkpoint: field 'vocab' must be dict"),
        (edited(lambda d: d["vocab"].update(findings="f0")), "checkpoint vocab: field 'findings' must be list"),
        (edited(lambda d: d["vocab"].update(diseases=["d0", 1, "d2"])), "checkpoint vocab: .* must hold ids"),
        (edited(lambda d: d["vocab"].update(mutex_groups={"age_a": 1})), "checkpoint vocab: mutex_groups must map"),
        (
            edited(lambda d: d["vocab"]["mutex_groups"].update(zz="age")),
            r"checkpoint vocab: mutex_groups names findings outside the vocabulary: \['zz'\]",
        ),
        (edited(lambda d: d.update(dims=[4])), "checkpoint: field 'dims' must be dict"),
        (edited(lambda d: d["dims"].update(dim="4")), "checkpoint dims: field 'dim' must be int"),
        (edited(lambda d: d["dims"].update(dim=True)), "checkpoint dims: field 'dim' must be int"),
        (edited(lambda d: d["dims"].update(dim=0)), "checkpoint dims: field 'dim' must be >= 1"),
        (edited(lambda d: d.update(arrays="")), "checkpoint: field 'arrays' must be dict"),
        (edited(lambda d: d["arrays"].update(bias=3)), "checkpoint arrays: field 'bias' must be str"),
        (edited(lambda d: d["arrays"].update(bias="AAAA")), r"checkpoint arrays: field 'bias' is not \(3,\) float64"),
        (edited(lambda d: d["arrays"].update(bias="A")), r"checkpoint arrays: field 'bias' is not \(3,\) float64"),
        (edited(lambda d: d["vocab"].update(diseases=d["vocab"]["diseases"][::-1])), "ascending id order"),
    ]:
        with pytest.raises(ValueError, match=match):
            checkpoint_from_json(bad)


def test_directly_built_vocabulary_survives_a_checkpoint_round_trip():
    vocab = Vocabulary(findings=("a", "b"), diseases=("d",), demographic_ids=frozenset())
    assert vocab.mutex_groups == {"a": None, "b": None}
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
