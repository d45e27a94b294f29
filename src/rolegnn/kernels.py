"""Hot numeric kernels: segment reductions, temporal admissibility
counting and integer key sets, in numpy.

Nothing here draws random numbers, so sampled batches depend only on the
callers' generators.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# segment reductions (message aggregation and embedding-gradient scatter)
# ---------------------------------------------------------------------------

def segment_sum(values: np.ndarray, segments: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum rows of `values` into `num_segments` buckets given by `segments`.

    One weighted bincount over the flat cell index `segment * ch + column`
    visits the cells row by row, so each one is summed in row order from
    0.0: bit-equal to `np.add.at(out, segments, values)` on a 2-D `out`.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    segments = np.ascontiguousarray(segments, dtype=np.int64)
    ch = values.shape[1]
    flat = (segments[:, None] * ch + np.arange(ch)).ravel()
    # bincount of an empty index is integer-typed whatever the weights
    out = np.bincount(flat, weights=values.ravel(), minlength=num_segments * ch)
    return out.astype(np.float64, copy=False).reshape(num_segments, ch)


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
    """For each queried node, how many of its time-sorted neighbors are <= t_predict.

    One bisection over all queried CSR segments at once: the count is built
    from the highest power of two down, each bit kept when the neighbor just
    inside the candidate prefix is still admissible.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.int64)
    t_predict = np.asarray(t_predict, dtype=np.float64)
    lo = indptr[nodes]
    length = indptr[nodes + 1] - lo
    counts = np.zeros(nodes.shape[0], dtype=np.int64)
    longest = int(length.max()) if len(nodes) else 0
    step = 1 << (longest.bit_length() - 1) if longest else 0
    while step:
        cand = counts + step
        fits = cand <= length
        last = np.where(fits, lo + cand - 1, 0)
        counts[fits & (times[last] <= t_predict)] += step
        step >>= 1
    return counts


# ---------------------------------------------------------------------------
# integer key sets (dedup and class labelling without numpy's hash path)
# ---------------------------------------------------------------------------

# counting beats sorting while the key space is at most this many times the
# number of keys
COUNT_FACTOR = 4


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """`np.unique(keys)` for 1-D integer keys, by sort and adjacent difference.

    numpy >= 2.3 dedups a bare `np.unique` through a hash table, 25-30x
    slower than a sort on int64 keys of batch size.
    """
    ranked = np.sort(np.asarray(keys).reshape(-1))
    if not len(ranked):
        return ranked
    return ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]


def unique_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs (a[i], b[i]) of two non-negative integer arrays,
    sorted by (a, b), as two arrays: each pair is one key `a * width + b`."""
    width = int(b.max()) + 1 if len(b) else 1
    pairs = sorted_unique(a * width + b)
    return pairs // width, pairs % width


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(keys, return_inverse=True)` for 1-D keys, by one sort.

    Each integer key is packed with its position, `key << b | position` for
    b the bit length of `len(keys) - 1`, so one plain sort of the packed
    keys gives the sorted keys and the order that argsorting them would.
    Float keys, and keys too large to pack (at or above `2**(62 - b)` in
    magnitude), take numpy's own path.
    """
    keys = np.asarray(keys).reshape(-1)
    if not len(keys):
        return keys.copy(), np.empty(0, dtype=np.int64)
    b = (len(keys) - 1).bit_length()
    limit = 1 << (62 - b)
    if (keys.dtype.kind not in "iu" or keys.max() >= limit
            or (keys.dtype.kind == "i" and keys.min() < -limit)):
        uniq, inverse = np.unique(keys, return_inverse=True)
        return uniq, inverse.reshape(-1)
    packed = np.sort((keys.astype(np.int64) << b)
                     | np.arange(len(keys), dtype=np.int64))
    ranked = packed >> b
    head = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[packed & ((1 << b) - 1)] = np.cumsum(head) - 1
    return ranked[head].astype(keys.dtype, copy=False), inverse


def group_ids(keys: np.ndarray, space: int) -> np.ndarray:
    """`np.unique(keys, return_inverse=True)[1]` for 1-D keys in [0, space).

    While `space` is at most COUNT_FACTOR times the number of keys, the ids
    are counted (which keys occur, then a running count) instead of sorted.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    if space > COUNT_FACTOR * len(keys):
        return unique_inverse(keys)[1]
    present = np.bincount(keys, minlength=space) > 0
    return (np.cumsum(present) - 1)[keys]


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
