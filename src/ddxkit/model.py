"""Embedding-bag diagnosis model.

Every finding owns two embedding rows, one for observed-present and one for
observed-absent (rows 2i and 2i+1 for finding index i). A case's gathered
rows are averaged, projected to disease logits, and log-softmax normalized.
Observed demographic values contribute a second stream: their L-dimensional
rows are summed and log-softmax normalized into a prior that is added to
the finding stream, then the combination is renormalized. A demographic row
initialized to MASK at a disease the KB rules out pins that disease's
probability near zero whenever the demographic is observed, while staying
trainable.

One forward path, `pooled_embedding` then `disease_log_probs`, runs on a
batch in the embedding-bag layout (`Bags`: flat row ids plus per-case
offsets) with one boolean dropout mask per batch. `bag` builds that layout
from cases, and `Bags.take` gathers a batch out of a larger one with index
arrays, which is how training draws its minibatches. `encode_case` maps a
case to ascending indices, the order every sum below adds in.

Every per-case sum adds the case's rows in order, starting from 0.0, so a
case's pooled row has the same bytes in any batch. A batch of many small
cases (see POSITION_MAJOR_CASE_SIZE) is summed position-major, one
vectorised add per row position; other batches, width-1 rows and a lone
case are summed per case.
Training projects a batch with one (B, D) @ (D, L) product, whose rows can
differ from a batch of one's by an ulp. `rank_cases`, the one ranking path,
projects each row with its own (1, D) product instead, so a case's ranking
has the same bytes alone or in any set.

Checkpoints are a versioned JSON container with the vocabulary and the
parameter blocks as base64 little-endian float64 in row-major order.
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .data import Vocabulary
from .kb import ConfigError, KnowledgeBase, check_object, read_utf8, scoring_tables

DEMOGRAPHIC_MASK = -30.0
CHECKPOINT_FORMAT = "ddx-checkpoint"
CHECKPOINT_VERSION = 1
BLOCK_NAMES = ("finding_embeddings", "projection", "bias", "demographic_embeddings")
DIM_NAMES = ("n_findings", "n_diseases", "dim", "n_demographics")  # checkpoint keys of ModelParameters.dims
# Cases per pass in rank_cases, so its temporaries stay (RANK_CHUNK, L). A memory
# bound, not a tuned size: one chunk of 1024 ranked desk-cli no faster.
RANK_CHUNK = 256
# _bag_sums adds a batch position-major, one add per row position, when its
# cases hold at most this many gathered numbers (rows x width) on average and
# the batch has more than twice as many cases as its longest case has rows;
# otherwise it adds each case's slice. Measured on a 2-core VM over batches of
# 4 to 256 cases with 0-2, 0-9, 3-10, 1-40, 5-40 and 20-40 rows a case at
# widths 2 to 1024: position-major took 0.05-0.95x the per-slice time in all 64
# settings inside both bounds, 0.4-2.2x past the size bound alone, and up to 11x
# past the longest-case bound (4 cases of 5-40 rows).
POSITION_MAJOR_CASE_SIZE = 1024


class ModelInput(NamedTuple):
    """Vocabulary-index view of one case, as encode_case builds it: each
    index tuple ascending and distinct, no finding both present and absent."""

    pos_clinical: tuple[int, ...]
    neg_clinical: tuple[int, ...]
    demo: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.pos_clinical) + len(self.neg_clinical)


def _block_shapes(K: int, L: int, D: int, M: int) -> dict[str, tuple[int, ...]]:
    """Parameter block shapes, keyed like ModelParameters.blocks()."""
    return dict(zip(BLOCK_NAMES, ((2 * K, D), (D, L), (L,), (M, L))))


@dataclass
class ModelParameters:
    finding_embeddings: np.ndarray  # [2K, D]
    projection: np.ndarray  # [D, L]
    bias: np.ndarray  # [L]
    demographic_embeddings: np.ndarray  # [M, L]
    vocab: Vocabulary

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(K findings, L diseases, D embedding dim, M demographic values)."""
        return (
            self.vocab.n_findings,
            self.vocab.n_diseases,
            self.finding_embeddings.shape[1],
            self.vocab.n_demographics,
        )

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BLOCK_NAMES}

    def copy(self) -> "ModelParameters":
        return ModelParameters(**{name: a.copy() for name, a in self.blocks().items()}, vocab=self.vocab)

    def validate(self) -> None:
        expected = _block_shapes(*self.dims)
        for name, arr in self.blocks().items():
            if arr.shape != expected[name]:
                raise ValueError(f"{name}: shape {arr.shape} != expected {expected[name]}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: non-finite entries")


def check_dim(dim: int) -> None:
    """Reject an embedding dimension below 1."""
    if dim < 1:
        raise ConfigError("dim", "must be >= 1")


def init_parameters(
    vocab: Vocabulary, dim: int, seed: int, kb: KnowledgeBase | None = None
) -> ModelParameters:
    """Uniform [-0.05, 0.05] weights plus KB-derived demographic masks.

    With a KB, demographic row m gets DEMOGRAPHIC_MASK at every disease the
    KB links to m with frequency 0 (the disease is implausible under that
    demographic) and 0 elsewhere. Pairs unknown to the KB, including novel
    diseases, are left unmasked. Without a KB all rows are zero, a uniform
    prior over every disease.
    """
    check_dim(dim)
    K, L = vocab.n_findings, vocab.n_diseases
    M = vocab.n_demographics
    rng = np.random.default_rng(seed)
    finding_embeddings = rng.uniform(-0.05, 0.05, size=(2 * K, dim))
    projection = rng.uniform(-0.05, 0.05, size=(dim, L))
    bias = rng.uniform(-0.05, 0.05, size=L)
    demographic = np.zeros((M, L))
    if kb is not None:
        # The compiled KB holds -inf in a finding's present row exactly
        # where a demographic finding has FREQ 0 for a disease.
        tables = scoring_tables(kb)
        kb_col = {did: c for c, did in enumerate(tables.disease_ids.tolist())}
        known = [j for j, did in enumerate(vocab.diseases) if did in kb_col]
        cols = [kb_col[vocab.diseases[j]] for j in known]
        for m, fid in enumerate(vocab.demographic_list):
            if fid in tables.finding_row:
                excluded = tables.log_terms[tables.finding_row[fid], cols] == -np.inf
                demographic[m, known] = np.where(excluded, DEMOGRAPHIC_MASK, 0.0)
    return ModelParameters(
        finding_embeddings=finding_embeddings,
        projection=projection,
        bias=bias,
        demographic_embeddings=demographic,
        vocab=vocab,
    )


class Bags(NamedTuple):
    """A batch in the embedding-bag layout: case b owns the finding-table rows
    rows[offsets[b]:offsets[b + 1]] (2i for present finding i, then 2i+1 for
    absent) and the demographic rows demo[demo_offsets[b]:demo_offsets[b + 1]].
    Every field is an intp array."""

    rows: np.ndarray
    offsets: np.ndarray
    demo: np.ndarray
    demo_offsets: np.ndarray

    def take(self, idx: np.ndarray) -> "Bags":
        """The cases `idx`, in that order (repeats allowed)."""
        return Bags(*_take(self.rows, self.offsets, idx), *_take(self.demo, self.demo_offsets, idx))


def bag(xs: Sequence[ModelInput]) -> Bags:
    """The embedding-bag layout of a list of cases."""
    rows = [[2 * i for i in x.pos_clinical] + [2 * i + 1 for i in x.neg_clinical] for x in xs]
    return Bags(*_flat(rows), *_flat([x.demo for x in xs]))


def _flat(lists: list) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.array([0, *accumulate(map(len, lists))], dtype=np.intp)
    return np.array([i for ids in lists for i in ids], dtype=np.intp), offsets


def _take(flat: np.ndarray, offsets: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    starts = offsets[:-1][idx]
    counts = offsets[1:][idx] - starts
    taken = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=taken[1:])
    # Item j of the b-th taken case sits at starts[b] + j in `flat` and at taken[b] + j in the result.
    index = np.repeat(starts - taken[:-1], counts) + np.arange(taken[-1])
    return flat[index], taken


def make_dropout_plan(n_rows: int, dim: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask for a batch's `n_rows` gathered rows, one rng draw."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return rng.random(size=(n_rows, dim)) >= rate


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def _bag_sums(gathered: np.ndarray, offsets: np.ndarray, mean: bool) -> np.ndarray:
    # Each case's rows are added in order from 0.0, the order a slice's
    # np.add.reduce(axis=0) takes for rows 2 or more wide; np.add.reduceat's
    # order differs and would move trained bytes. Width 1 stays per slice,
    # because there the slice sum is pairwise from 8 rows on. The mean divides
    # by the count, as a slice's .mean(axis=0) does.
    B, width = len(offsets) - 1, gathered.shape[1]
    if B > 2 and width > 1:  # 1 or 2 cases pass the bound on the longest case only when empty
        counts = offsets[1:] - offsets[:-1]
        if 2 * counts.max() < B and gathered.size <= POSITION_MAJOR_CASE_SIZE * B:
            return _position_major_sums(gathered, offsets, counts, mean)
    out = np.zeros((B, width))
    bounds = offsets.tolist()
    for b, (s, e) in enumerate(zip(bounds, bounds[1:])):
        if e > s:
            row = np.add.reduce(gathered[s:e], axis=0, out=out[b])
            if mean:
                row /= e - s
    return out


def _position_major_sums(gathered: np.ndarray, offsets: np.ndarray, counts: np.ndarray, mean: bool) -> np.ndarray:
    # With the cases sorted by count, descending, position j's rows belong to the first k_j cases.
    B = len(counts)
    order = np.argsort(-counts, kind="stable")
    starts = offsets[:-1][order]
    sums = np.zeros((B, gathered.shape[1]))
    for j, k in enumerate((B - np.cumsum(np.bincount(counts)))[:-1].tolist()):
        sums[:k] += gathered[starts[:k] + j]
    out = np.empty_like(sums)
    out[order] = sums
    if mean:
        out /= np.maximum(counts, 1)[:, None]
    return out


def pooled_embedding(
    p: ModelParameters, bags: Bags, mask: np.ndarray | None = None, rate: float = 0.0
) -> np.ndarray:
    """Per-case mean of the gathered finding rows, (B, D); zero for a case
    with none. `mask` is a make_dropout_plan draw for `rate`: dropped
    entries are zeroed and kept ones scaled by 1/(1 - rate)."""
    gathered = p.finding_embeddings[bags.rows]
    if mask is not None:
        gathered *= mask
        gathered /= 1.0 - rate
    return _bag_sums(gathered, bags.offsets, mean=True)


def disease_log_probs(p: ModelParameters, bags: Bags, h: np.ndarray, rowwise: bool = False) -> np.ndarray:
    """Log-probabilities over the vocabulary's diseases, (B, L), from pooled
    embeddings `h`: the finding stream's log-softmax plus the demographic
    stream's, renormalized. `rowwise` projects each row with its own (1, D)
    product, so row b has the bytes of case b run alone; the default one
    (B, D) product is the one training's gradients and checkpoints rest on."""
    u = _bag_sums(p.demographic_embeddings[bags.demo], bags.demo_offsets, mean=False)
    z = (h[:, None, :] @ p.projection)[:, 0, :] if rowwise and len(h) > 1 else h @ p.projection
    return log_softmax(log_softmax(z + p.bias) + log_softmax(u))


def _ranked(ids: np.ndarray, probs: np.ndarray, order: np.ndarray) -> list[tuple[str, float]]:
    return list(zip(ids[order].tolist(), probs[order].tolist()))


def predict_topk(p: ModelParameters, x: ModelInput, k: int) -> list[tuple[str, float]]:
    """The k most probable diseases for one case, ties broken by ascending
    disease id: the first k entries of its rank_cases ranking. It stays as
    public API and because bench/tracing.py times the model under this name;
    no command ranks through it."""
    L = p.vocab.n_diseases
    if not (1 <= k <= L):
        raise ValueError(f"k must be in [1, {L}], got {k}")
    return next(rank_cases(p, [x]))[:k]


def rank_cases(p: ModelParameters, xs: Sequence[ModelInput]) -> Iterator[list[tuple[str, float]]]:
    """Every disease ranked for each case in turn, ties by ascending id,
    RANK_CHUNK cases per pass with the row-wise projection."""
    ids = p.vocab.disease_array

    def chunks():
        for start in range(0, len(xs), RANK_CHUNK):
            bags = bag(xs[start : start + RANK_CHUNK])
            probs = np.exp(disease_log_probs(p, bags, pooled_embedding(p, bags), rowwise=True))
            # The vocabulary's diseases ascend by id, so a stable sort breaks ties by id.
            orders = np.argsort(-probs, axis=-1, kind="stable")
            yield from map(_ranked, repeat(ids), probs, orders)

    return chunks()


def encode_case(
    vocab: Vocabulary, pos: frozenset[str] | set[str], neg: frozenset[str] | set[str]
) -> tuple[ModelInput, int]:
    """Map finding ids to ascending model indices; returns the input and a
    count of skipped findings (out-of-vocabulary, or demographics observed
    absent, which the demographic stream cannot represent). A finding in
    both `pos` and `neg` raises ValueError."""
    if not pos.isdisjoint(neg):
        raise ValueError(f"findings in both pos and neg: {sorted(pos & neg)}")
    skipped = 0
    pos_clinical: list[int] = []
    neg_clinical: list[int] = []
    demo: list[int] = []
    for fid in pos:
        if not vocab.has_finding(fid):
            skipped += 1
        elif fid in vocab.demographic_ids:
            demo.append(vocab.demo_index(fid))
        else:
            pos_clinical.append(vocab.finding_index(fid))
    for fid in neg:
        if not vocab.has_finding(fid) or fid in vocab.demographic_ids:
            skipped += 1
        else:
            neg_clinical.append(vocab.finding_index(fid))
    return ModelInput(tuple(sorted(pos_clinical)), tuple(sorted(neg_clinical)), tuple(sorted(demo))), skipped


def encode_target(vocab: Vocabulary, ddx) -> np.ndarray:
    """Dense soft-label vector over the vocabulary's diseases."""
    target = np.zeros(vocab.n_diseases)
    for did, prob in ddx.entries:
        try:
            target[vocab.disease_index(did)] = prob
        except KeyError:
            raise ValueError(f"case references disease outside vocabulary: {did!r}") from None
    return target


def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(arrays: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        return np.frombuffer(base64.b64decode(arrays[name]), dtype="<f8").reshape(shape).astype(float)
    except ValueError:
        raise ValueError(f"checkpoint arrays: field {name!r} is not {shape} float64 values in base64") from None


def _checked(obj, fields: dict[str, type], where: str):
    """`obj`, which must be an object with exactly these typed fields."""
    errors = check_object(obj, fields, set(fields), where)
    if errors:
        raise ValueError("; ".join(errors))
    return obj


def checkpoint_to_json(p: ModelParameters) -> str:
    p.validate()
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "byte_order": "little",
        "dtype": "float64",
        "dims": dict(zip(DIM_NAMES, p.dims)),
        "vocab": p.vocab.to_dict(),
        "arrays": {name: _encode_array(a) for name, a in p.blocks().items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def checkpoint_from_json(text: str) -> ModelParameters:
    """Parse a checkpoint; input it cannot use raises ValueError naming the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"checkpoint: parse error at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint: expected an object, got {type(doc).__name__}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}, expected {CHECKPOINT_VERSION}")
    if doc.get("byte_order") != "little" or doc.get("dtype") != "float64":
        raise ValueError("unsupported checkpoint encoding")
    header = {"format": str, "version": int, "byte_order": str, "dtype": str}
    _checked(doc, header | {"dims": dict, "vocab": dict, "arrays": dict}, "checkpoint")
    vocab = Vocabulary.from_dict(doc["vocab"], where="checkpoint vocab")
    dims = _checked(doc["dims"], dict.fromkeys(DIM_NAMES, int), "checkpoint dims")
    K, L, D, M = (dims[name] for name in DIM_NAMES)
    if (K, L, M) != (vocab.n_findings, vocab.n_diseases, vocab.n_demographics):
        raise ValueError("checkpoint dims disagree with its vocabulary")
    if D < 1:
        raise ValueError("checkpoint dims: field 'dim' must be >= 1")
    shapes = _block_shapes(K, L, D, M)
    arrays = _checked(doc["arrays"], dict.fromkeys(shapes, str), "checkpoint arrays")
    p = ModelParameters(**{name: _decode_array(arrays, name, shape) for name, shape in shapes.items()}, vocab=vocab)
    p.validate()
    return p


def save_checkpoint(p: ModelParameters, path) -> None:
    """Serialise, then write: parameters that fail validation leave `path` untouched."""
    text = checkpoint_to_json(p)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_checkpoint(path) -> ModelParameters:
    return checkpoint_from_json(read_utf8(path))
