"""KL soft-label training with minibatch Adam.

The loss per case is KL(p || g(x)) between the case's differential label p
and the model distribution g(x) = softmax(c), where c sums the finding
logits, the bias and the demographic logits. The gradient of the loss in c
is softmax(c) - p, which is also its gradient in each summand; the
remaining chain rule is plain linear algebra over the projection, the
pooling mean, the dropout scaling, and the embedding gathers. Gradients
are validated against central finite differences in the test suite.

`train` encodes the training set once, into one `Bags` and an (n, L)
target matrix, and gathers each minibatch from them with index arrays.
`backward` scatters each case's pooled gradient (and its demographic
gradient) into the table rows the case gathered, through the dropout mask,
without building a per-item array of contributions: a batch of narrow rows
(see BINCOUNT_CASE_SIZE) with one np.bincount, wider ones position-major by
table row (`sums.position_major_sums`). Either way each row adds its terms
in item order from 0.0, and a row a case gathers twice gets both terms.
Sums, products, gradients and Adam moments follow the parameters' dtype,
except that the bincount branch adds in float64 and rounds each row's sum
once to that dtype. The dropout mask does not: `make_dropout_plan` draws
it from raw 16-bit slices of the stream that shuffles the epochs, so one
seed gives one mask sequence in either dtype. The loss and softmax(c) - p
are float64, as the model's log-softmax is; the difference is cast to the
parameters' dtype before the backward products. Gradients and Adam moments
are dicts keyed like `ModelParameters.blocks()`.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import CaseSet
from .kb import ConfigError
from .model import (
    Bags,
    ModelParameters,
    bag,
    disease_log_probs,
    encode_case,
    encode_target,
    make_dropout_plan,
    pooled_embedding,
)
from .sums import position_major_sums

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# _scatter_rows adds a batch's row gradients with one np.bincount when its cases
# hold at most this many numbers (rows x width) on average, and position-major
# over the table rows above it. Measured in float64 on a 2-core VM over batches
# of 16 and 64 cases with 0-2, 0-9, 3-10, 1-40, 5-40 and 20-40 rows a case at
# widths 2 to 1024, on tables of 144 and 600 rows, with and without a dropout
# mask: bincount took 0.16-2.3x the position-major time up to this bound
# (median 0.45x; above 1x only at widths 128 to 1024 with few rows a case) and
# 0.98-10x above it (median 1.6-2.4x). Bounds of 1024 and 1536 chose no better.
# In float32 it still routes right: bincount took 108 against 219 us at D=64,
# and position-major 490 against 3447 us at D=1024.
BINCOUNT_CASE_SIZE = 2048


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 512
    epochs: int = 15
    dropout_rate: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError("learning_rate", f"must be finite and > 0, got {self.learning_rate}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate", "must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size", "must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")


def zero_grads(p: ModelParameters) -> dict[str, np.ndarray]:
    """Zero arrays keyed and shaped like p.blocks()."""
    return {name: np.zeros_like(a) for name, a in p.blocks().items()}


@dataclass
class AdamState:
    """Adam moments per block, and two scratch arrays per block that
    adam_step writes its intermediates into instead of allocating them."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: dict[str, tuple[np.ndarray, np.ndarray]]
    t: int = 0

    @classmethod
    def init(cls, p: ModelParameters) -> "AdamState":
        scratch = {name: (np.empty_like(a), np.empty_like(a)) for name, a in p.blocks().items()}
        return cls(m=zero_grads(p), v=zero_grads(p), scratch=scratch, t=0)


def _scatter_rows(
    ids: np.ndarray, offsets: np.ndarray, per_case: np.ndarray, n: int, mask: np.ndarray | None = None
) -> np.ndarray:
    """(n, width) sums into row ids[i] of per_case[b] for each item i of case b
    (ids[offsets[b]:offsets[b + 1]]), times mask[i] when a mask is given. Each
    row adds its terms in item order from 0.0; a row repeated within a case
    gets each of its terms."""
    width = per_case.shape[1]
    case = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    if len(ids) * width <= BINCOUNT_CASE_SIZE * (len(offsets) - 1):
        values = per_case[case]
        if mask is not None:
            values *= mask
        flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
        sums = np.bincount(flat, weights=values.reshape(-1), minlength=n * width)
        return sums.astype(per_case.dtype, copy=False).reshape(n, width)
    # One group per table row; the stable sort keeps each row's items in item order.
    by_row = np.argsort(ids, kind="stable")
    row_case = case[by_row]
    counts = np.bincount(ids, minlength=n)

    def take(items):
        terms = per_case[row_case[items]]
        if mask is not None:
            terms *= mask[by_row[items]]
        return terms

    return position_major_sums(counts, np.cumsum(counts) - counts, take, width, per_case.dtype)


def backward(
    p: ModelParameters,
    bags: Bags,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
    rate: float = 0.0,
) -> tuple[dict[str, np.ndarray], float]:
    """Mean loss gradient over a batch, with one dropout mask fixed per call.

    `targets` holds the batch's soft labels, one row per case of `bags`.
    Returns (gradients keyed like p.blocks(), mean KL loss). `mask` is a
    make_dropout_plan draw at `rate` over the batch's rows; None runs
    without dropout.
    """
    B = len(targets)
    if B == 0:
        raise ValueError("empty batch")
    P = targets

    H = pooled_embedding(p, bags, mask, rate)
    O = disease_log_probs(p, bags, H)
    Q = np.exp(O)

    logP = np.log(np.where(P > 0.0, P, 1.0))
    mean_loss = float(np.where(P > 0.0, P * (logP - O), 0.0).sum() / B)

    # d(loss)/dC = Q - P, for C the summed logits and so for each summand.
    G_C = ((Q - P) / B).astype(H.dtype, copy=False)
    G_H = G_C @ p.projection.T
    # A row's gradient is its case's pooled gradient over (1 - rate) * n,
    # through the mask. Dividing before the mask is exact: the mask is 0 or 1.
    counts = np.diff(bags.offsets)
    G_H /= ((1.0 if mask is None else 1.0 - rate) * np.maximum(counts, 1))[:, None].astype(G_H.dtype)
    grads = {
        "finding_embeddings": _scatter_rows(bags.rows, bags.offsets, G_H, len(p.finding_embeddings), mask),
        "projection": H.T @ G_C,
        "bias": G_C.sum(axis=0),
        "demographic_embeddings": _scatter_rows(bags.demo, bags.demo_offsets, G_C, len(p.demographic_embeddings)),
    }
    return grads, mean_loss


def adam_step(
    p: ModelParameters, g: dict[str, np.ndarray], s: AdamState, cfg: TrainConfig
) -> tuple[ModelParameters, AdamState]:
    """Bias-corrected Adam update, applied in place.

    theta -= lr * m_hat / (sqrt(v_hat) + eps), computed in s.scratch with
    the operations of that expression in its order, so the result is
    bit-for-bit the expression's.
    """
    s.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, theta in p.blocks().items():
        grad, m, v = g[name], s.m[name], s.v[name]
        a, b = s.scratch[name]
        m *= b1
        m += np.multiply(1.0 - b1, grad, out=a)
        v *= b2
        np.multiply(1.0 - b2, grad, out=a)
        a *= grad
        v += a
        np.divide(m, 1.0 - b1**s.t, out=a)  # m_hat
        np.divide(v, 1.0 - b2**s.t, out=b)  # v_hat
        a *= cfg.learning_rate
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        theta -= a
    return p, s


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's mean training loss and its wall-clock seconds. The seconds
    vary between runs, so they take no part in equality or in the log line."""

    epoch: int
    mean_loss: float
    seconds: float = field(default=0.0, compare=False)

    def format_line(self) -> str:
        return f"epoch {self.epoch} loss {self.mean_loss:.6f}"


def encode_training_set(vocab, cases: CaseSet) -> tuple[Bags, np.ndarray, int]:
    """(the cases' Bags, their (n, L) soft-label matrix, findings skipped)."""
    inputs, skipped = [], 0
    targets = np.zeros((len(cases), vocab.n_diseases))
    for i, case in enumerate(cases):
        x, n_skip = encode_case(vocab, case.pos, case.neg)
        skipped += n_skip
        inputs.append(x)
        targets[i] = encode_target(vocab, case.ddx)
    return bag(inputs), targets, skipped


def train(p0: ModelParameters, train_set: CaseSet, cfg: TrainConfig) -> tuple[ModelParameters, list[EpochRecord]]:
    """Run the full optimization; p0 is left untouched.

    Every epoch reshuffles with the config-seeded stream, walks batches of
    cfg.batch_size (the final short batch is kept), draws a new dropout
    mask per batch, and records the mean training loss and the epoch's
    wall-clock seconds. The first epoch whose mean loss is not finite
    raises ConfigError naming learning_rate and the epoch.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    p = p0.copy()
    bags, targets, skipped = encode_training_set(p.vocab, train_set)
    if skipped:
        logger.warning("training encode skipped %d findings outside the vocabulary", skipped)
    n = len(targets)
    D = p.projection.shape[0]
    rate = cfg.dropout_rate
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.init(p)
    history: list[EpochRecord] = []
    order = np.arange(n)

    # Divergence overflows to inf and nan; the loss check below is its one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.perf_counter()
            rng.shuffle(order)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                chunk = order[start : start + cfg.batch_size]
                batch = bags.take(chunk)
                mask = make_dropout_plan(len(batch.rows), D, rate, rng) if rate > 0.0 else None
                grads, loss = backward(p, batch, targets[chunk], mask, rate)
                adam_step(p, grads, state, cfg)
                total += loss * len(chunk)
            record = EpochRecord(epoch=epoch, mean_loss=total / n, seconds=time.perf_counter() - t0)
            if not math.isfinite(record.mean_loss):
                raise ConfigError("learning_rate", f"diverged at epoch {epoch}: mean loss {record.mean_loss}")
            history.append(record)
    return p, history
