"""Embedding-bag diagnosis model.

Every finding owns two embedding rows, one for observed-present and one for
observed-absent (rows 2i and 2i+1 for finding index i). A case's gathered
rows are averaged and projected to disease logits, to which the bias is
added. Observed demographic values contribute a second stream: their
L-dimensional rows are summed into logits added to the first, and one
log-softmax normalizes the total. A demographic row initialized to
DEMOGRAPHIC_MASK at a disease the KB rules out pins that disease's
probability near zero whenever the demographic is observed, while staying
trainable.

One forward path, `pooled_embedding` then `disease_log_probs`, runs on a
batch in the embedding-bag layout (`Bags`: flat row ids plus per-case
offsets) with one boolean dropout mask per batch. `bag` builds that layout
from cases, and `Bags.take` gathers a batch out of a larger one with index
arrays, which is how training draws its minibatches. `encode_case` maps a
case to ascending indices, the order every sum below adds in.

Every per-case sum depends only on the case's own rows, so a case's pooled
row has the same bytes in any batch. Rows 2 or more wide are added in order
from 0.0. A batch of many small cases (see POSITION_MAJOR_CASE_SIZE) is
summed position-major, one vectorised add per row position, by
`sums.position_major_sums`, which expert scoring and the training scatter
share; other batches and a lone case are summed per case. One-column rows
(D = 1, or L = 1 in the demographic sum) are always summed per case by
np.add.reduce, which adds 8 or more rows pairwise rather than in order.
Training projects a batch with one (B, D) @ (D, L) product, whose rows can
differ from a batch of one's by an ulp. `rank_cases`, the one ranking path,
projects each row with its own (1, D) product instead, so a case's ranking
has the same bytes alone or in any set.

The model's parameters are float32 (DTYPE), and every function here runs
in the dtype of the parameters it is given, so float64 parameters give
float64 sums and products. The dropout mask is drawn apart from any dtype:
`make_dropout_plan` compares 16-bit slices of raw PCG64 words with
round(rate * 2**16), so it drops a share round(rate * 2**16) / 2**16 of
the entries, within 2**-17 of the rate; a rate below 2**-17 drops none,
and one of at least 1 - 2**-17 drops all. One rule holds in either dtype:
the log-softmax normalises in float64, over the upcast (B, L) logit sum, so
every ranking sums to 1 within float64 rounding.

A checkpoint (format 3) is one JSON object with sorted keys: "format"
("ddx-checkpoint"), "version" (3), "byte_order" ("little"), "dtype"
("float32"), "dim" (the embedding dimension D), "vocab" (the vocabulary's
findings, diseases and demographic_ids) and "arrays" (each parameter block
as base64 little-endian float32 in row-major order). The vocabulary gives
every other block dimension. A format-2 (float64) file is rejected.
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .data import Vocabulary
from .kb import DEMOGRAPHIC, ConfigError, KnowledgeBase, check_object, read_utf8
from .sums import position_major_sums

DEMOGRAPHIC_MASK = -30.0
# The parameters' dtype, as init_parameters casts its draws and a checkpoint stores them.
DTYPE = np.dtype("<f4")
CHECKPOINT_FORMAT = "ddx-checkpoint"
CHECKPOINT_VERSION = 3
BLOCK_NAMES = ("finding_embeddings", "projection", "bias", "demographic_embeddings")
# Cases per pass in rank_cases, so its temporaries stay (RANK_CHUNK, L). A memory
# bound, not a tuned size: one chunk of 1024 ranked desk-cli no faster.
RANK_CHUNK = 256
# _bag_sums adds a batch position-major, one add per row position, when its
# cases hold at most this many gathered numbers (rows x width) on average and
# the batch has more than twice as many cases as its longest case has rows;
# otherwise it adds each case's slice. Measured in float64 on a 2-core VM over
# batches of 4 to 256 cases with 0-2, 0-9, 3-10, 1-40, 5-40 and 20-40 rows a
# case at widths 2 to 1024: position-major took 0.05-0.95x the per-slice time
# in all 64 settings inside both bounds, 0.4-2.2x past the size bound alone,
# and up to 11x past the longest-case bound (4 cases of 5-40 rows).
POSITION_MAJOR_CASE_SIZE = 1024


class ModelInput(NamedTuple):
    """Vocabulary-index view of one case, as encode_case builds it: each
    index tuple ascending and distinct, no finding both present and absent."""

    pos_clinical: tuple[int, ...]
    neg_clinical: tuple[int, ...]
    demo: tuple[int, ...]


def _block_shapes(vocab: Vocabulary, dim: int) -> dict[str, tuple[int, ...]]:
    """Parameter block shapes for `vocab` at embedding dimension `dim`, keyed
    like ModelParameters.blocks()."""
    L = vocab.n_diseases
    return dict(zip(BLOCK_NAMES, ((2 * vocab.n_findings, dim), (dim, L), (L,), (vocab.n_demographics, L))))


@dataclass
class ModelParameters:
    """The four parameter blocks, shaped as `_block_shapes(vocab, D)` says."""

    finding_embeddings: np.ndarray
    projection: np.ndarray
    bias: np.ndarray
    demographic_embeddings: np.ndarray
    vocab: Vocabulary

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BLOCK_NAMES}

    def copy(self) -> "ModelParameters":
        return ModelParameters(**{name: a.copy() for name, a in self.blocks().items()}, vocab=self.vocab)

    def validate(self) -> None:
        expected = _block_shapes(self.vocab, self.finding_embeddings.shape[1])
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
    """Uniform [-0.05, 0.05] weights plus KB-derived demographic masks, all
    float32 (DTYPE): the float64 draws are cast.

    With a KB, demographic row m gets DEMOGRAPHIC_MASK at every disease the
    KB links to m with frequency 0 (the disease is implausible under that
    demographic) and 0 elsewhere. Pairs unknown to the KB, including novel
    diseases and findings the KB does not know as demographic, are left
    unmasked. Without a KB all rows are zero, a uniform prior over every
    disease.
    """
    check_dim(dim)
    shapes = _block_shapes(vocab, dim)
    rng = np.random.default_rng(seed)
    # The three uniform blocks are drawn in BLOCK_NAMES order, which fixes a seed's bytes.
    blocks = {name: rng.uniform(-0.05, 0.05, size=shapes[name]).astype(DTYPE) for name in BLOCK_NAMES[:3]}
    demographic = np.zeros(shapes["demographic_embeddings"], dtype=DTYPE)
    if kb is not None:
        known = [(j, did) for j, did in enumerate(vocab.diseases) if kb.has_disease(did)]
        for m, fid in enumerate(vocab.demographic_list):
            if kb.has_finding(fid) and kb.finding(fid).kind == DEMOGRAPHIC:
                for j, did in known:
                    if kb.frequencies.get((did, fid), 0.0) == 0.0:
                        demographic[m, j] = DEMOGRAPHIC_MASK
    return ModelParameters(**blocks, demographic_embeddings=demographic, vocab=vocab)


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
    """Boolean keep-mask, (n_rows, dim), for a batch's gathered rows.

    The N = n_rows * dim entries take the first N 16-bit values of
    ceil(N / 4) raw 64-bit words of `rng`'s bit generator, each word read as
    four little-endian uint16 (so the mask does not depend on the machine's
    byte order). An entry is kept when its value is at least
    t = round(rate * 2**16), so the drop share is the quantised rate
    t / 2**16, within 2**-17 of `rate`. A rate below 2**-17 keeps every
    entry, and one of at least 1 - 2**-17 drops every entry."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    n = n_rows * dim
    words = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False)
    return words.view("<u2")[:n].reshape(n_rows, dim) >= round(rate * 65536)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def _bag_sums(gathered: np.ndarray, offsets: np.ndarray, mean: bool) -> np.ndarray:
    # Each case's rows are added in order from 0.0, the order a slice's
    # np.add.reduce(axis=0) takes for rows 2 or more wide; np.add.reduceat's
    # order differs and would move trained bytes. Width 1 stays per slice,
    # because there the slice sum is pairwise from 8 rows on. The mean divides
    # by the count, as a slice's .mean(axis=0) does. Sums are in gathered's dtype.
    B, width = len(offsets) - 1, gathered.shape[1]
    if B > 2 and width > 1:  # 1 or 2 cases pass the bound on the longest case only when empty
        counts = offsets[1:] - offsets[:-1]
        if 2 * counts.max() < B and gathered.size <= POSITION_MAJOR_CASE_SIZE * B:
            out = position_major_sums(counts, offsets[:-1], gathered.__getitem__, width, gathered.dtype)
            if mean:
                out /= np.maximum(counts, 1)[:, None].astype(out.dtype)
            return out
    out = np.zeros((B, width), dtype=gathered.dtype)
    bounds = offsets.tolist()
    for b, (s, e) in enumerate(zip(bounds, bounds[1:])):
        if e > s:
            row = np.add.reduce(gathered[s:e], axis=0, out=out[b])
            if mean:
                row /= e - s
    return out


def pooled_embedding(
    p: ModelParameters, bags: Bags, mask: np.ndarray | None = None, rate: float = 0.0
) -> np.ndarray:
    """Per-case mean of the gathered finding rows, (B, D); zero for a case
    with none. `mask` is a make_dropout_plan draw for `rate`: dropped
    entries are zeroed and kept ones scaled by 1/(1 - rate). The mask drops
    the quantised rate, so the expected pooled row is within a relative
    2**-17 / (1 - rate) of the row without dropout."""
    gathered = p.finding_embeddings[bags.rows]
    if mask is not None:
        gathered *= mask
        gathered /= 1.0 - rate
    return _bag_sums(gathered, bags.offsets, mean=True)


def disease_log_probs(p: ModelParameters, bags: Bags, h: np.ndarray, rowwise: bool = False) -> np.ndarray:
    """Float64 log-probabilities over the vocabulary's diseases, (B, L), from
    pooled embeddings `h`: one float64 log-softmax of the finding logits, the
    bias and the demographic logits, summed in the parameters' dtype.
    `rowwise` projects each row with its own (1, D) product, so row b has the
    bytes of case b run alone; the default one (B, D) product is the one
    training's gradients and checkpoints rest on."""
    u = _bag_sums(p.demographic_embeddings[bags.demo], bags.demo_offsets, mean=False)
    z = (h[:, None, :] @ p.projection)[:, 0, :] if rowwise and len(h) > 1 else h @ p.projection
    return log_softmax((z + p.bias + u).astype(np.float64, copy=False))


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
    for start in range(0, len(xs), RANK_CHUNK):
        bags = bag(xs[start : start + RANK_CHUNK])
        probs = np.exp(disease_log_probs(p, bags, pooled_embedding(p, bags), rowwise=True))
        # The vocabulary's diseases ascend by id, so a stable sort breaks ties by id.
        for row, order in zip(probs, np.argsort(-probs, axis=-1, kind="stable")):
            yield list(zip(ids[order].tolist(), row[order].tolist()))


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


def _decode_array(arrays: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        return np.frombuffer(base64.b64decode(arrays[name]), dtype=DTYPE).reshape(shape).copy()
    except ValueError:
        raise ValueError(f"checkpoint arrays: field {name!r} is not {shape} {DTYPE.name} values in base64") from None


def _checked(obj, fields: dict[str, type], where: str):
    """`obj`, which must be an object with exactly these typed fields."""
    errors = check_object(obj, fields, set(fields), where)
    if errors:
        raise ValueError("; ".join(errors))
    return obj


def checkpoint_to_json(p: ModelParameters) -> str:
    """The checkpoint text of `p`, its blocks cast to DTYPE. Blocks that fail
    validation after the cast (a wrong shape, or an entry that is not finite
    in float32) raise ValueError."""
    with np.errstate(over="ignore"):  # a float64 entry past the float32 range casts to inf
        stored = ModelParameters(**{name: a.astype(DTYPE) for name, a in p.blocks().items()}, vocab=p.vocab)
    stored.validate()
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "byte_order": "little",
        "dtype": DTYPE.name,
        "dim": p.finding_embeddings.shape[1],
        "vocab": p.vocab.to_dict(),
        "arrays": {name: base64.b64encode(a.tobytes()).decode("ascii") for name, a in stored.blocks().items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def checkpoint_from_json(text: str) -> ModelParameters:
    """Parse a checkpoint; input it cannot use raises ValueError naming the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"checkpoint: parse error at line {e.lineno} column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # an over-long integer literal, or nesting too deep to decode
        raise ValueError(f"checkpoint: parse error: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint: expected an object, got {type(doc).__name__}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}, expected {CHECKPOINT_VERSION}")
    if doc.get("byte_order") != "little" or doc.get("dtype") != DTYPE.name:
        raise ValueError("unsupported checkpoint encoding")
    header = {"format": str, "version": int, "byte_order": str, "dtype": str}
    _checked(doc, header | {"dim": int, "vocab": dict, "arrays": dict}, "checkpoint")
    vocab = Vocabulary.from_dict(doc["vocab"], where="checkpoint vocab")
    if doc["dim"] < 1:
        raise ValueError("checkpoint: field 'dim' must be >= 1")
    shapes = _block_shapes(vocab, doc["dim"])
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
    """The checkpoint at `path`; input it cannot use raises ValueError naming the path."""
    text = read_utf8(path)
    try:
        return checkpoint_from_json(text)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
