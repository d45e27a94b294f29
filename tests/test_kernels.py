import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolegnn import kernels


def test_segment_sum_matches_oracle():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(200, 5))
    segments = rng.integers(0, 17, size=200)
    out = kernels.segment_sum(values, segments, 17)
    oracle = np.zeros((17, 5))
    for i, s in enumerate(segments):
        oracle[s] += values[i]
    np.testing.assert_allclose(out, oracle, rtol=1e-12)


def _segment_sum_add_at(values, segments, num_segments):
    """The 2-D `np.add.at` scatter the flat-index kernel replaced."""
    out = np.zeros((num_segments, values.shape[1]))
    np.add.at(out, segments, values)
    return out


def test_segment_sum_bit_equal_to_add_at():
    rng = np.random.default_rng(3)
    shapes = [(0, 4, 3), (5, 0, 3), (0, 0, 2), (1, 3, 1), (7, 2, 9)]
    shapes += [(int(rng.integers(1, 300)), int(rng.integers(1, 40)),
                int(rng.integers(1, 60))) for _ in range(40)]
    for rows, ch, num_segments in shapes:
        # few buckets drawn often (repeats) while others stay empty; values
        # of mixed magnitudes and signed zeros expose any change of order
        segments = rng.integers(0, max(1, num_segments // 2), size=rows)
        values = rng.normal(size=(rows, ch)) * 10.0 ** rng.integers(-8, 9, size=(rows, ch))
        values[rng.random((rows, ch)) < 0.1] = -0.0
        got = kernels.segment_sum(values, segments, num_segments)
        want = _segment_sum_add_at(values, segments, num_segments)
        assert got.dtype == np.float64 and got.shape == (num_segments, ch)
        assert got.tobytes() == want.tobytes(), (rows, ch, num_segments)


def test_segment_mean_empty_buckets_zero():
    values = np.ones((3, 2))
    segments = np.array([0, 0, 3])
    means, counts = kernels.segment_mean(values, segments, 5)
    assert counts.tolist() == [2, 0, 0, 1, 0]
    np.testing.assert_array_equal(means[1], 0.0)
    np.testing.assert_array_equal(means[0], 1.0)


def test_admissible_counts_matches_bruteforce():
    rng = np.random.default_rng(2)
    n_nodes, n_edges = 20, 300
    dst = np.sort(rng.integers(0, n_nodes, size=n_edges))
    times = rng.uniform(0, 100, size=n_edges)
    order = np.lexsort((times, dst))
    dst, times = dst[order], times[order]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.add.at(indptr, dst + 1, 1)
    indptr = np.cumsum(indptr)

    nodes = rng.integers(0, n_nodes, size=40)
    cuts = rng.uniform(0, 100, size=40)
    got = kernels.admissible_counts(indptr, times, nodes, cuts)
    for i in range(40):
        lo, hi = indptr[nodes[i]], indptr[nodes[i] + 1]
        assert got[i] == int((times[lo:hi] <= cuts[i]).sum())


def test_lookup_positions():
    keys = np.array([2, 5, 9, 40])
    got = kernels.lookup_positions(keys, np.array([5, 1, 40, 41, 2]))
    assert got.tolist() == [1, -1, 3, -1, 0]
    assert kernels.lookup_positions(np.array([], dtype=np.int64),
                                    np.array([3])).tolist() == [-1]


def _admissible_counts_loop(indptr, times, nodes, t_predict):
    """The per-node searchsorted loop the vectorized kernel replaced."""
    counts = np.empty(len(nodes), dtype=np.int64)
    for i, node in enumerate(nodes):
        seg = times[indptr[node]:indptr[node + 1]]
        counts[i] = np.searchsorted(seg, t_predict[i], side="right")
    return counts


def test_admissible_counts_bit_equal_to_loop():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n_nodes = int(rng.integers(1, 40))
        n_edges = int(rng.integers(0, 400))
        dst = rng.integers(0, n_nodes, size=n_edges)
        # few distinct times, so segments hold ties; some rows lack a time
        times = rng.integers(0, 12, size=n_edges).astype(np.float64)
        times[rng.random(n_edges) < 0.15] = -np.inf
        order = np.lexsort((times, dst))
        dst, times = dst[order], times[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=n_nodes))])
        nodes = rng.integers(0, n_nodes, size=60)
        cuts = rng.integers(-1, 13, size=60).astype(np.float64)  # often equal to a time
        cuts[:4] = [np.inf, -np.inf, 0.0, 11.0]
        got = kernels.admissible_counts(indptr, times, nodes, cuts)
        want = _admissible_counts_loop(indptr, times, nodes, cuts)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    empty = kernels.admissible_counts(np.zeros(4, dtype=np.int64), np.empty(0),
                                      np.array([0, 2]), np.array([1.0, np.inf]))
    assert empty.tolist() == [0, 0]
    assert kernels.admissible_counts(indptr, times, np.empty(0, dtype=np.int64),
                                     np.empty(0)).shape == (0,)


# --- integer key sets ---------------------------------------------------------

@st.composite
def _keys_in_space(draw):
    """(keys, space): up to 60 keys in [0, space), often with repeats."""
    space = draw(st.integers(1, 400))
    keys = draw(st.lists(st.integers(0, space - 1), max_size=60))
    return np.asarray(keys, dtype=np.int64), space


_EDGE_CASES = [(np.empty(0, dtype=np.int64), 1), (np.array([0]), 1),
               (np.array([6]), 7), (np.full(9, 4), 5), (np.array([2, 0, 2]), 3),
               (np.array([0, 99, 0]), 100)]


@settings(max_examples=200, deadline=None)
@given(_keys_in_space())
def test_sorted_unique_equals_np_unique(case):
    keys, _ = case
    got, want = kernels.sorted_unique(keys), np.unique(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(_keys_in_space())
def test_group_ids_equals_np_unique_inverse(case):
    keys, space = case
    got, want = kernels.group_ids(keys, space), np.unique(keys, return_inverse=True)[1]
    assert got.dtype == want.dtype and np.array_equal(got, want)


_PACKED_LIMIT = 1 << (62 - 3)  # five keys pack their positions in 3 bits

_UNIQUE_INVERSE_CASES = {  # name -> (keys, whether they are packed)
    "empty": (np.empty(0, dtype=np.int64), True),
    "single": (np.array([7]), True),
    "all-equal": (np.full(9, 4), True),
    "random": (np.random.default_rng(0).integers(0, 50, size=300), True),
    "int32": (np.array([5, -2, 5], dtype=np.int32), True),
    "below-limit": (np.array([_PACKED_LIMIT - 1, 0, _PACKED_LIMIT - 1, 3,
                              -_PACKED_LIMIT]), True),
    "at-limit": (np.array([_PACKED_LIMIT, 0, _PACKED_LIMIT, 3, 1]), False),
    "past-negative-limit": (np.array([-_PACKED_LIMIT - 1, 0, 2, 0, 1]), False),
    "uint64-huge": (np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64), False),
    "float": (np.array([0.5, -1.0, 0.5, 2.0, -0.0, 0.0]), False),
}


@pytest.mark.parametrize("name", sorted(_UNIQUE_INVERSE_CASES))
def test_unique_inverse_equals_np_unique(monkeypatch, name):
    keys, packed = _UNIQUE_INVERSE_CASES[name]
    want_uniq, want_inverse = np.unique(keys, return_inverse=True)
    if packed:  # one sort of the packed keys: never reaches np.unique
        monkeypatch.setattr(np, "unique", None)
    uniq, inverse = kernels.unique_inverse(keys)
    monkeypatch.undo()
    assert uniq.dtype == want_uniq.dtype and np.array_equal(uniq, want_uniq)
    assert inverse.dtype == want_inverse.dtype
    assert np.array_equal(inverse, want_inverse)


@settings(max_examples=200, deadline=None)
@given(_keys_in_space())
def test_unique_inverse_equals_np_unique_on_drawn_keys(case):
    keys, _ = case
    uniq, inverse = kernels.unique_inverse(keys)
    want_uniq, want_inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(uniq, want_uniq)
    assert np.array_equal(inverse, want_inverse)


@pytest.mark.parametrize("count", [True, False], ids=["counted", "sorted"])
@pytest.mark.parametrize("keys,space", _EDGE_CASES)
def test_group_ids_both_paths_on_edge_cases(monkeypatch, keys, space, count):
    want = np.unique(keys, return_inverse=True)[1]
    assert np.array_equal(kernels.sorted_unique(keys), np.unique(keys))
    factor = 10 ** 6 if count else 0
    monkeypatch.setattr(kernels, "COUNT_FACTOR", factor)
    if space <= factor * len(keys):  # counted: never reaches np.unique
        monkeypatch.setattr(np, "unique", None)
    got = kernels.group_ids(keys, space)
    monkeypatch.undo()
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(6))
def test_unique_pairs_equals_np_unique_rows(seed):
    rng = np.random.default_rng(seed)
    n = 0 if seed == 0 else int(rng.integers(1, 200))
    a = rng.integers(0, 1 + 9 * seed, size=n)
    b = rng.integers(0, 1 + 4 * seed, size=n)
    got = np.stack(kernels.unique_pairs(a, b), axis=1)
    want = np.unique(np.stack([a, b], axis=1), axis=0)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def _bare_unique_calls(path: Path) -> list[int]:
    """Lines of `np.unique(...)` calls with no return_* or axis argument."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and not any(kw.arg and (kw.arg.startswith("return_") or kw.arg == "axis")
                            for kw in node.keywords)):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_bare_np_unique_in_the_engine():
    """numpy >= 2.3 runs a bare `np.unique` through a hash table, 25-30x
    slower than a sort on batch-sized int64 keys."""
    src = Path(kernels.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _bare_unique_calls(path)]
    assert not found, (f"bare np.unique at {', '.join(found)}: "
                       "use kernels.sorted_unique")


def _inverse_calls(path: Path) -> list[int]:
    """Lines of calls, of any function, that pass `return_inverse` other
    than as a literal False."""
    return sorted(node.lineno
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Call)
                  and any(kw.arg == "return_inverse"
                          and not (isinstance(kw.value, ast.Constant)
                                   and kw.value.value is False)
                          for kw in node.keywords))


def test_no_return_inverse_outside_kernels():
    """Unique-with-inverse goes through `kernels.unique_inverse`, one sort
    of position-packed keys, where numpy's argsorts them."""
    src = Path(kernels.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             if path.name != "kernels.py" for line in _inverse_calls(path)]
    assert not found, (f"return_inverse at {', '.join(found)}: "
                       "use kernels.unique_inverse")


def test_bare_unique_scan_sees_calls_not_text(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('"""np.unique(x) in a docstring"""\n'
                     "a = np.unique(x)\n"
                     "b = np.unique(x, return_inverse=True)\n"
                     "c = np.unique(x, axis=0)\n"
                     "d = numpy.unique(\n    x)\n"
                     "e = np.unique(x, return_inverse=False)\n"
                     "f = other.unique(\n    x, return_inverse=1)\n"
                     "# g = np.unique(x, return_inverse=True)\n")
    assert _bare_unique_calls(probe) == [2, 5]
    assert _inverse_calls(probe) == [3, 8]
