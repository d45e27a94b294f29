import math
import warnings

import numpy as np
import pytest

from conftest import finite_diff_max_rel, rand_tensor
from rolegnn import tensor as T
from rolegnn.errors import CheckpointMismatch, ShapeError, TrainingDiverged
from rolegnn.tensor import Adam, Tensor


def test_sigmoid_symmetry():
    assert T.sigmoid(Tensor(np.zeros(3))).values.tolist() == [0.5, 0.5, 0.5]


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_allclose(out.values, a)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_logsumexp_ln2():
    out = T.logsumexp(Tensor(np.array([[0.0, 0.0]])), axis=1)
    assert abs(out.values[0] - math.log(2.0)) < 1e-12


def test_backward_quadratic():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = T.sum_(T.mul(w, w))
    T.backward(loss)
    assert w.grad.tolist() == [2.0, 4.0]


def test_backward_requires_scalar():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(T.mul(w, w))


def test_shared_subexpression_accumulates():
    # loss = sum(u + u) with u = w * a: d loss / d w = 2 a
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    a = Tensor(np.array([3.0, 5.0]))
    u = T.mul(w, a)
    loss = T.sum_(T.add(u, u))
    T.backward(loss)
    assert w.grad.tolist() == [6.0, 10.0]


def test_scalar_graph_oracle():
    # hand-derived scalar graph: f = (x*y + x)^2, df/dx = 2(xy+x)(y+1)
    x = Tensor(np.array([1.5]), requires_grad=True)
    y = Tensor(np.array([-0.5]), requires_grad=True)
    f = T.sumsq(T.add(T.mul(x, y), x))
    T.backward(f)
    v = 1.5 * -0.5 + 1.5
    assert abs(x.grad[0] - 2 * v * (-0.5 + 1)) < 1e-12
    assert abs(y.grad[0] - 2 * v * 1.5) < 1e-12


def test_disconnected_parameter_zero_grad():
    w = Tensor(np.array([1.0]), requires_grad=True)
    lonely = Tensor(np.array([5.0]), requires_grad=True)
    T.backward(T.sum_(T.mul(w, w)))
    assert lonely.grad.tolist() == [0.0]


def test_tape_cleared_after_backward():
    w = Tensor(np.ones(2), requires_grad=True)
    T.backward(T.sum_(T.mul(w, w)))
    assert T.tape_size() == 0


def test_no_grad_records_nothing():
    w = Tensor(np.ones(2), requires_grad=True)
    with T.no_grad():
        T.sum_(T.mul(w, w))
    assert T.tape_size() == 0


def test_backward_frees_non_leaf_gradients():
    w = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    b = Tensor(np.array([0.25, -1.0]), requires_grad=True)
    x = Tensor(np.array([[1.0, 2.0], [-1.0, 0.0], [3.0, 1.0]]))
    hidden = T.relu(T.linear(x, w, b))
    loss = T.sum_(T.mul(hidden, hidden))
    recorded = list(T._TAPE)
    T.backward(loss)
    assert len(recorded) == 4 and loss in recorded
    assert all(node.grad is None for node in recorded)
    # d loss / d b = sum over rows of 2 relu(xW+b) [xW+b > 0]
    pre = x.values @ w.values + b.values
    np.testing.assert_array_equal(b.grad, (2 * np.maximum(pre, 0)).sum(axis=0))
    np.testing.assert_array_equal(w.grad, x.values.T @ (2 * np.maximum(pre, 0)))


def test_first_gradient_write_is_a_fresh_zero_normalised_buffer():
    """`0.0 + g`, as zeros followed by += gives: -0.0 becomes +0.0, and the
    buffer is not the caller's array (add hands one `g` to both parents)."""
    node = Tensor(np.zeros(3))
    node.requires_grad = True
    node.grad = None
    g = np.array([-0.0, 1.5, -2.0])
    T._accum(node, g)
    assert node.grad is not g
    assert node.grad.tobytes() == (np.zeros(3) + g).tobytes()
    assert not np.signbit(node.grad[0])
    T._accum(node, g)
    np.testing.assert_array_equal(node.grad, [0.0, 3.0, -4.0])


def test_owned_first_gradient_write_is_adopted():
    """A gradient a backward rule computed for one parent alone becomes
    its buffer as it is; later writes add onto it."""
    node = Tensor(np.zeros(3))
    node.requires_grad = True
    node.grad = None
    g = np.array([-0.0, 1.5, -2.0])
    T._accum(node, g, own=True)
    assert node.grad is g
    T._accum(node, np.ones(3))
    np.testing.assert_array_equal(node.grad, [1.0, 2.5, -1.0])


def test_add_parents_keep_separate_gradient_buffers():
    """add hands one `g` to both parents: a later write into one parent's
    gradient, from a consumer recorded before the add, must not reach the
    other."""
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    a, b = T.scale(x, 1.0), T.scale(y, 1.0)
    c = T.mul(a, Tensor(np.array([5.0, 5.0])))
    T.backward(T.add(T.sum_(T.add(a, b)), T.sum_(c)))
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])
    np.testing.assert_array_equal(y.grad, [1.0, 1.0])


def test_linear_matches_add_of_matmul_bit_for_bit():
    rng = np.random.default_rng(12)
    for b_shape in ((4,), (1,)):
        x_vals = rng.normal(size=(6, 3))
        w_vals = rng.normal(size=(3, 4))
        b_vals = rng.normal(size=b_shape)
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(v.copy(), requires_grad=True)
                       for v in (x_vals, w_vals, b_vals))
            out = (T.linear(x, w, b) if fused
                   else T.add(T.matmul(x, w), b))
            T.backward(T.sumsq(T.tanh(out)))
            results.append([out.values.tobytes()]
                           + [t.grad.tobytes() for t in (x, w, b)])
        assert results[0] == results[1], b_shape


def test_linear_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))),
                 Tensor(np.zeros(3)))


def test_neighbor_mean_matches_loop():
    rng = np.random.default_rng(3)
    h = Tensor(rng.normal(size=(6, 4)))
    src = np.array([5, 2, 2, 0, 3, 2, 1])
    dst = np.array([7, 1, 7, 7, 4, 1, 7])
    rows, out = T.neighbor_mean(h, src, dst)
    np.testing.assert_array_equal(rows, [1, 4, 7])
    for r, got in zip(rows, out.values):
        np.testing.assert_allclose(got, h.values[src[dst == r]].mean(axis=0),
                                   rtol=1e-14)
    rows, out = T.neighbor_mean(h, src[:0], dst[:0])
    assert rows.shape == (0,) and out.shape == (0, 4)


def test_add_rows_leaves_base_and_other_rows():
    base = Tensor(np.arange(8.0).reshape(4, 2))
    out = T.add_rows(base, np.array([2, 0]), Tensor([[10.0, 20.0], [1.0, 1.0]]))
    np.testing.assert_array_equal(out.values, [[1, 2], [2, 3], [14, 25], [6, 7]])
    np.testing.assert_array_equal(base.values, np.arange(8.0).reshape(4, 2))


def _primitive_cases(rng):
    """(name, params, build_loss) triples covering every primitive op."""
    cases = []

    def case(name, params, fn):
        cases.append((name, params, fn))

    a = rand_tensor(rng, (4, 3))
    b = rand_tensor(rng, (3, 5))
    case("matmul", [a, b], lambda: T.sum_(T.sigmoid(T.matmul(a, b))))

    x = rand_tensor(rng, (4, 3))
    y = rand_tensor(rng, (3,))
    case("add_broadcast", [x, y], lambda: T.sumsq(T.add(x, y)))
    case("sub", [x, y], lambda: T.sumsq(T.sub(x, y)))
    case("mul_broadcast", [x, y], lambda: T.sumsq(T.mul(x, y)))

    g = rand_tensor(rng, (4, 1))
    h = rand_tensor(rng, (4, 3))
    case("mul_gate", [g, h], lambda: T.sumsq(T.mul(g, h)))

    c1 = rand_tensor(rng, (3, 2))
    c2 = rand_tensor(rng, (3, 4))
    case("concat", [c1, c2],
         lambda: T.sumsq(T.tanh(T.concat([c1, c2], axis=1))))

    r = rand_tensor(rng, (2, 6))
    case("reshape", [r], lambda: T.sumsq(T.sigmoid(T.reshape(r, (3, 4)))))
    case("transpose", [r], lambda: T.sumsq(T.tanh(T.transpose(r))))

    # the composed oracle of pair_mlp in test_fd.py: one holder row against
    # its k candidate rows, then the (n, k, c) block flattened to (n*k, c)
    hi = rand_tensor(rng, (2, 1, 3))
    hk = rand_tensor(rng, (2, 4, 3))
    case("sub_broadcast_3d", [hi, hk], lambda: T.sumsq(T.sub(hi, hk)))
    case("reshape_3d_rows", [hk],
         lambda: T.sumsq(T.tanh(T.reshape(hk, (-1, 3)))))

    # fd.score_pairs: the pair MLP row-aligned, and as an (n, k) block whose
    # indices repeat a row within and across pairs
    pi, pj = rand_tensor(rng, (3, 4)), rand_tensor(rng, (3, 4))
    pr = rand_tensor(rng, (5, 4))
    head = [rand_tensor(rng, (4, 6)), rand_tensor(rng, (6,)),
            rand_tensor(rng, (6, 1)), rand_tensor(rng, (1,))]
    pidx = np.array([[1, 1], [4, 1], [0, 3]])
    case("pair_mlp_rows", [pi, pj, *head],
         lambda: T.sumsq(T.tanh(T.pair_mlp(pi, pj, None, *head))))
    case("pair_mlp_block", [pi, pr, *head],
         lambda: T.sumsq(T.tanh(T.pair_mlp(pi, pr, pidx, *head))))

    e = rand_tensor(rng, (5, 3))
    idx = rng.integers(0, 5, size=8)
    case("take_rows", [e], lambda: T.sumsq(T.sigmoid(T.take_rows(e, idx))))

    z = rand_tensor(rng, (4, 3))
    case("sigmoid", [z], lambda: T.sumsq(T.sigmoid(z)))
    zr = rand_tensor(rng, (4, 3), away_from_zero=True)
    case("relu", [zr], lambda: T.sumsq(T.relu(zr)))
    case("tanh", [z], lambda: T.sumsq(T.tanh(z)))

    m = rand_tensor(rng, (4, 3))
    case("mean_axis", [m], lambda: T.sumsq(T.mean(m, axis=0)))
    case("mean_all", [m], lambda: T.sumsq(T.mean(m)))
    case("sum_axis", [m], lambda: T.sumsq(T.sum_(m, axis=1)))
    case("logsumexp", [m], lambda: T.sumsq(T.logsumexp(m, axis=1)))
    case("sumsq_axis", [m], lambda: T.sum_(T.sumsq(m, axis=1)))
    case("scale", [m], lambda: T.sumsq(T.scale(m, -2.5)))

    d = rand_tensor(rng, (6, 4))
    case("dropout", [d],
         lambda: T.sumsq(T.dropout(d, 0.3, True, np.random.default_rng(11))))

    # destinations unsorted and repeated, edge 2 -> 4 twice, destinations 1
    # and 3 with one edge each, source rows 1 and 5 read by no edge
    nh = rand_tensor(rng, (6, 3))
    nsrc = np.array([2, 0, 2, 3, 4, 2])
    ndst = np.array([4, 0, 4, 1, 0, 3])
    case("neighbor_mean", [nh],
         lambda: T.sumsq(T.sigmoid(T.neighbor_mean(nh, nsrc, ndst)[1])))
    none = np.zeros(0, dtype=np.int64)
    case("neighbor_mean_no_edges", [nh],
         lambda: T.sumsq(T.add_rows(nh, *T.neighbor_mean(nh, none, none))))
    # destinations 0 and 1 are one class; row 0 of h is 0's own non-leaf
    # source, whose key leaf 2 holds: the class sums (h2 + h3) once, and 0
    # adds h0 - h2. Destination 2 is a class of its own.
    csrc = np.array([0, 3, 2, 3, 1])
    cdst = np.array([0, 0, 1, 1, 2])
    classes = (np.array([2, 3, 1]), np.array([0, 0, 1]), np.array([0, 0, 1]),
               (np.array([0, 2]), np.array([0, 0]), np.array([1.0, -1.0])))
    np.testing.assert_allclose(T.neighbor_mean(nh, csrc, cdst, classes)[1].values,
                               T.neighbor_mean(nh, csrc, cdst)[1].values,
                               rtol=1e-12)
    case("neighbor_mean_classes", [nh],
         lambda: T.sumsq(T.sigmoid(T.neighbor_mean(nh, csrc, cdst, classes)[1])))
    ab_base = rand_tensor(rng, (5, 3))
    ab_vals = rand_tensor(rng, (3, 3))
    ab_rows = np.array([3, 0, 4])
    case("add_rows", [ab_base, ab_vals],
         lambda: T.sumsq(T.tanh(T.add_rows(ab_base, ab_rows, ab_vals))))

    sp = rand_tensor(rng, (4, 3))
    case("softplus", [sp], lambda: T.sumsq(T.softplus(sp)))
    ab = rand_tensor(rng, (4, 3), away_from_zero=True)
    case("abs", [ab], lambda: T.sum_(T.abs_(ab)))

    lg = rand_tensor(rng, (6,))
    targets = rng.integers(0, 2, size=6).astype(float)
    case("bce_with_logits", [lg], lambda: T.bce_with_logits(lg, targets))

    lx = rand_tensor(rng, (5, 3))
    lw = rand_tensor(rng, (3, 4))
    lb = rand_tensor(rng, (4,))
    case("linear", [lx, lw, lb],
         lambda: T.sumsq(T.tanh(T.linear(lx, lw, lb))))
    lw1 = rand_tensor(rng, (3, 1))
    lb1 = rand_tensor(rng, (1,))
    case("linear_bias_1", [lx, lw1, lb1],
         lambda: T.sumsq(T.sigmoid(T.linear(lx, lw1, lb1))))
    return cases


@pytest.mark.parametrize("trial", range(3))
def test_gradcheck_every_primitive(trial):
    rng = np.random.default_rng(100 + trial)
    for name, params, fn in _primitive_cases(rng):
        worst = finite_diff_max_rel(fn, params)
        assert worst <= 1e-4, f"{name}: max rel err {worst:.2e}"


def test_init_param_bounds_and_determinism():
    p = T.init_param((3, 3), fan_in=3, seed=5)
    assert np.abs(p.values).max() <= 1.0  # sqrt(6/(3+3)) = 1
    q = T.init_param((3, 3), fan_in=3, seed=5)
    np.testing.assert_array_equal(p.values, q.values)
    assert p.requires_grad and p.grad.shape == (3, 3)


def test_init_param_mean_near_zero():
    p = T.init_param((100, 100), fan_in=100, seed=9)
    assert abs(p.values.mean()) < 0.02


def test_adam_quadratic_convergence():
    w = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([w], lr=0.1)
    for _ in range(200):
        T.backward(T.sumsq(T.add(w, Tensor(np.array([-3.0])))))
        opt.step()
    assert abs(w.values[0] - 3.0) < 1e-2


def test_adam_zero_grad_leaves_param():
    w = Tensor(np.array([1.5]), requires_grad=True)
    opt = Adam([w], lr=0.1)
    opt.step()  # grad is zero
    assert w.values[0] == 1.5


def test_adam_step_that_would_overflow_raises_and_changes_nothing():
    w1 = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w2 = Tensor(np.array([[3.0]]), requires_grad=True)
    opt = Adam([w1, w2], lr=0.1, names=["a.W", "b.W"])
    w1.grad[:] = 0.5
    w2.grad[:] = 0.5
    opt.step()
    before = [(w.values.copy(), m.copy(), v.copy())
              for w, m, v in zip((w1, w2), opt.m, opt.v)]
    w1.grad[:] = 0.5
    w2.grad[:] = 1e160  # its square overflows the second moment
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="'b.W'") as err:
            opt.step()
    assert err.value.diagnostics == {"parameter": "b.W", "step": 2}
    assert opt.t == 1
    for (values, m, v), w, m_now, v_now in zip(before, (w1, w2), opt.m, opt.v):
        assert values.tobytes() == w.values.tobytes()
        assert m.tobytes() == m_now.tobytes() and v.tobytes() == v_now.tobytes()
    assert w2.grad[0, 0] == 1e160
    with pytest.raises(TrainingDiverged, match="'#0'"):
        w = Tensor(np.array([1.0]), requires_grad=True)
        w.grad[:] = np.nan
        Adam([w]).step()


def test_adam_symmetry_and_grad_zeroing():
    w1 = Tensor(np.array([1.0]), requires_grad=True)
    w2 = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([w1, w2], lr=0.05)
    w1.grad[:] = 0.7
    w2.grad[:] = 0.7
    opt.step()
    assert w1.values[0] == w2.values[0]
    assert w1.grad[0] == 0.0 and w2.grad[0] == 0.0


def test_dropout_eval_is_identity():
    x = Tensor(np.ones((5, 5)))
    assert T.dropout(x, 0.5, train=False) is x


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((2000, 4)))
    out = T.dropout(x, 0.25, train=True, rng=rng)
    kept = out.values[out.values > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75)
    assert abs(out.values.mean() - 1.0) < 0.05


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    named = {"a.W": Tensor(rng.normal(size=(3, 4))),
             "b": Tensor(rng.normal(size=(7,)))}
    path = tmp_path / "params.bin"
    T.save_tensors(path, named)
    loaded = T.load_tensors(path)
    assert set(loaded) == {"a.W", "b"}
    for k in named:
        np.testing.assert_array_equal(loaded[k], named[k].values)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointMismatch):
        T.load_tensors(path)
