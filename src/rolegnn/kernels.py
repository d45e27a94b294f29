"""Hot numeric kernels: segment reductions and temporal admissibility
counting, in numpy.

Nothing here draws random numbers, so sampled batches depend only on the
callers' generators.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# segment reductions (message aggregation and embedding-gradient scatter)
# ---------------------------------------------------------------------------

def segment_sum(values: np.ndarray, segments: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum rows of `values` into `num_segments` buckets given by `segments`."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    segments = np.ascontiguousarray(segments, dtype=np.int64)
    out = np.zeros((num_segments, values.shape[1]), dtype=np.float64)
    np.add.at(out, segments, values)
    return out


def segment_counts(segments: np.ndarray, num_segments: int) -> np.ndarray:
    segments = np.ascontiguousarray(segments, dtype=np.int64)
    return np.bincount(segments, minlength=num_segments).astype(np.int64)


def segment_mean(values: np.ndarray, segments: np.ndarray, num_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean per bucket; empty buckets give zero rows. Returns (means, counts)."""
    sums = segment_sum(values, segments, num_segments)
    counts = segment_counts(segments, num_segments)
    denom = np.maximum(counts, 1).astype(np.float64)
    return sums / denom[:, None], counts


# ---------------------------------------------------------------------------
# temporal admissibility (per-node prefix lengths in time-sorted adjacency)
# ---------------------------------------------------------------------------

def admissible_counts(indptr: np.ndarray, times: np.ndarray,
                      nodes: np.ndarray, t_predict: np.ndarray) -> np.ndarray:
    """For each queried node, how many of its time-sorted neighbors are <= t_predict."""
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    nodes = np.ascontiguousarray(nodes, dtype=np.int64)
    t_predict = np.ascontiguousarray(t_predict, dtype=np.float64)
    counts = np.empty(nodes.shape[0], dtype=np.int64)
    for i in range(nodes.shape[0]):
        lo = indptr[nodes[i]]
        hi = indptr[nodes[i] + 1]
        counts[i] = np.searchsorted(times[lo:hi], t_predict[i], side="right")
    return counts


# ---------------------------------------------------------------------------
# key resolution (FK value -> row position)
# ---------------------------------------------------------------------------

def lookup_positions(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Positions of `queries` in the sorted unique array `sorted_keys`, -1 if absent."""
    sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    pos = np.searchsorted(sorted_keys, queries)
    pos = np.clip(pos, 0, max(len(sorted_keys) - 1, 0))
    if len(sorted_keys) == 0:
        return np.full(queries.shape, -1, dtype=np.int64)
    hit = sorted_keys[pos] == queries
    return np.where(hit, pos, -1).astype(np.int64)
