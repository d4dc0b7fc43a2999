"""KL soft-label training with minibatch Adam.

The loss per case is KL(p || g(x)) between the case's differential label p
and the model distribution. Writing c for the combined pre-normalization
logits (finding-stream log-softmax plus demographic log-softmax), the
gradient of the loss in c is softmax(c) - p; because that difference sums
to zero, it passes through both inner log-softmax layers unchanged, and
the remaining chain rule is plain linear algebra over the projection, the
pooling mean, the dropout scaling, and the embedding gathers. Gradients
are validated against central finite differences in the test suite.

`train` encodes the training set once, into one `Bags` and an (n, L)
target matrix, and gathers each minibatch from them with index arrays.
`backward` scatters row gradients through the batch's flat row ids, adding
each row's terms in case order from 0.0; gradients and Adam moments are
dicts keyed like `ModelParameters.blocks()`.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# _scatter_rows adds a batch's row gradients with one np.bincount when its cases
# hold at most this many numbers (rows x width) on average, and case by case
# above it. Measured on a 2-core VM over batches of 16 and 64 cases with 0-2,
# 0-9, 3-10, 1-40, 5-40 and 20-40 rows a case at widths 2 to 1024: bincount took
# 0.04-1.07x the per-case loop's time up to this bound and 0.91-2.7x above it.
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


class DivergedError(ValueError):
    """An epoch ended with a mean loss that is not finite; training stopped there."""

    def __init__(self, epoch: int, loss: float, learning_rate: float):
        super().__init__(f"training diverged at epoch {epoch}: mean loss {loss} (learning_rate {learning_rate})")
        self.epoch = epoch
        self.loss = loss


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


def _scatter_rows(ids: np.ndarray, offsets: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, width) sums of values[i] into row ids[i], each row's terms added in
    order from 0.0. The ids within one case's slice of `offsets` are distinct."""
    width = values.shape[1]
    if values.size <= BINCOUNT_CASE_SIZE * (len(offsets) - 1):
        flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
        return np.bincount(flat, weights=values.reshape(-1), minlength=n * width).reshape(n, width)
    out = np.zeros((n, width))
    bounds = offsets.tolist()
    for s, e in zip(bounds, bounds[1:]):
        out[ids[s:e]] += values[s:e]
    return out


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

    with np.errstate(divide="ignore"):
        logP = np.where(P > 0.0, np.log(np.where(P > 0.0, P, 1.0)), 0.0)
    mean_loss = float(np.where(P > 0.0, P * (logP - O), 0.0).sum() / B)

    # d(loss)/dC = Q - P sums to zero per case, so it is also the gradient
    # at both inner log-softmax inputs.
    G_C = (Q - P) / B
    G_H = G_C @ p.projection.T
    # A row's gradient is its case's pooled gradient over (1 - rate) * n,
    # through the mask. Dividing before the mask is exact: the mask is 0 or 1.
    counts = np.diff(bags.offsets)
    G_H /= ((1.0 if mask is None else 1.0 - rate) * np.maximum(counts, 1))[:, None]
    contrib = G_H[np.repeat(np.arange(B), counts)]
    if mask is not None:
        contrib *= mask
    G_U = G_C[np.repeat(np.arange(B), np.diff(bags.demo_offsets))]
    grads = {
        "finding_embeddings": _scatter_rows(bags.rows, bags.offsets, contrib, len(p.finding_embeddings)),
        "projection": H.T @ G_C,
        "bias": G_C.sum(axis=0),
        "demographic_embeddings": _scatter_rows(bags.demo, bags.demo_offsets, G_U, len(p.demographic_embeddings)),
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
    epoch: int
    mean_loss: float

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
    mask per batch, and records the mean training loss. The first epoch
    whose mean loss is not finite raises DivergedError.
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

    for epoch in range(1, cfg.epochs + 1):
        rng.shuffle(order)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            batch = bags.take(chunk)
            mask = make_dropout_plan(len(batch.rows), D, rate, rng) if rate > 0.0 else None
            grads, loss = backward(p, batch, targets[chunk], mask, rate)
            adam_step(p, grads, state, cfg)
            total += loss * len(chunk)
        record = EpochRecord(epoch=epoch, mean_loss=total / n)
        if not math.isfinite(record.mean_loss):
            raise DivergedError(epoch, record.mean_loss, cfg.learning_rate)
        history.append(record)
        logger.info("%s", record.format_line())
    return p, history
