"""Group sums added position-major, one vectorised add per item position.

Model pooling (`model._bag_sums`), expert scoring (`expert._set_scores`) and
the training scatter (`train._scatter_rows`) each add a group's items in
order, starting from 0.0, so that a group's sum has the bytes of adding its
items one after another, whatever other groups share the call. The sums
are in the values' dtype: float32 for the model's parameters, float64 for
the expert's log terms. Adding one group at a time costs one NumPy call per
group; `position_major_sums` costs one per item position instead, which is
cheaper when groups are many and short.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def position_major_sums(
    counts: np.ndarray, starts: np.ndarray, take: Callable[[np.ndarray], np.ndarray], width: int, dtype
) -> np.ndarray:
    """(G, width) group sums in `dtype`, the values' dtype. Group g owns items
    starts[g] + j for j < counts[g], and `take(items)` returns the
    (len(items), width) values of an intp item array. Each group adds its
    items in order of j from 0.0, so a group of none sums to 0.0."""
    # With the groups sorted by count, descending, item j belongs to the first k_j of them.
    order = np.argsort(-counts, kind="stable")
    first = starts[order]
    k = len(counts) - np.cumsum(np.bincount(counts, minlength=1))
    sums = np.zeros((k[0], width), dtype=dtype)
    for j, k_j in enumerate(k[:-1].tolist()):
        sums[:k_j] += take(first[:k_j] + j)
    out = np.zeros((len(counts), width), dtype=dtype)
    out[order[: k[0]]] = sums
    return out
