"""Gradient engine checks.

Every op is compared against either a closed-form derivative, a naive
loop oracle, or a central finite difference.  Graph behaviour (topological
order, grad accumulation, kink conventions) is pinned explicitly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casskit import ndgrad as nd
from casskit.ndgrad import (
    ShapeError,
    Tensor,
    add,
    backward,
    clamp01,
    conv2d,
    grad_check,
    log,
    matmul,
    mul,
    neg,
    relu,
    reshape,
    sigmoid,
    softplus,
    tmean,
    transpose,
    tsum,
    xavier_uniform,
)

RNG = np.random.default_rng(1234)


def finite_diff(f, x, h=1e-6):
    """Central differences of a scalar function of one array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


# -- basic arithmetic -------------------------------------------------------

def test_add_mul_chain_grads():
    a = Tensor(np.array([1.0, -2.0, 3.0]))
    b = Tensor(np.array([0.5, 4.0, -1.0]))
    out = tsum(mul(add(a, b), b))  # sum((a+b)*b)
    backward(out)
    np.testing.assert_allclose(a.grad, b.data)
    np.testing.assert_allclose(b.grad, a.data + 2 * b.data)


def test_scalar_lift_and_operator_sugar():
    a = Tensor(np.array([2.0, 3.0]))
    out = tsum(add(add(mul(a, 2.0), 1.0), neg(a)))
    backward(out)
    assert out.item() == pytest.approx(2 * 2 + 1 - 2 + 2 * 3 + 1 - 3)
    np.testing.assert_allclose(a.grad, [1.0, 1.0])


def test_shared_node_accumulates():
    # z = x*x + x must see dz/dx = 2x + 1 even though x appears three times
    x = Tensor(np.array([3.0]))
    z = tsum(add(mul(x, x), x))
    backward(z)
    np.testing.assert_allclose(x.grad, [7.0])


def test_leaf_grads_accumulate_across_sweeps():
    x = Tensor(np.array([1.0, 2.0]))
    y = tsum(mul(x, x))
    backward(y)
    g1 = x.grad.copy()
    y2 = tsum(mul(x, x))
    backward(y2)
    np.testing.assert_allclose(x.grad, 2 * g1)


def test_interior_grads_are_freed_after_each_sweep():
    x = Tensor(np.array([1.0, 2.0]))
    inner = mul(x, x)
    root = tsum(relu(inner))
    backward(root)
    assert all(node._grad is None for node in nd._toposort(root) if node._parents)
    first = x.grad.copy()
    np.testing.assert_array_equal(first, 2.0 * x.data)
    # a second sweep through the shared interior node starts it from zero,
    # so the leaf receives the same gradient once more, not a stale sum
    root = tsum(inner)
    backward(root)
    assert inner._grad is None and root._grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * first)
    # a listed interior node keeps its buffer for the caller
    backward(tsum(mul(inner, 3.0)), [x, inner])
    np.testing.assert_array_equal(inner.grad, [3.0, 3.0])


def test_backward_holds_only_the_gradients_awaiting_a_consumer():
    # a sweep over a chain of 60 ops that kept every interior gradient
    # until it ended would hold 60 operand-sized buffers at once
    import tracemalloc

    n = 4096
    x = Tensor(RNG.standard_normal(n))
    node = x
    for i in range(60):
        node = relu(node) if i % 2 else mul(node, 0.9)
    root = tsum(node)
    x.grad  # the leaf's own buffer is not the sweep's
    tracemalloc.start()
    try:
        backward(root, [x])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n


def test_backward_needs_scalar_root():
    x = Tensor(np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        backward(mul(x, x))


def test_deep_chain_no_recursion_limit():
    x = Tensor(np.array(0.0))
    node = x
    for _ in range(5000):
        node = add(node, 1.0)
    backward(node)
    assert node.item() == 5000.0
    assert float(x.grad) == 1.0


def test_nonfinite_data_rejected():
    with pytest.raises(FloatingPointError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(FloatingPointError):
        Tensor(np.array(np.nan))


def test_nonfinite_op_result_is_named_by_backward():
    # leaves are finite; the op result overflows and is not scanned when made
    a = Tensor(np.array(1e200))
    b = Tensor(np.array([1e200, 1.0]))
    with np.errstate(over="ignore"):
        root = tsum(mul(a, b))
    with pytest.raises(FloatingPointError, match="op 'mul'"):
        backward(root)


def test_nan_weight_makes_reconstruct_scene_raise():
    from casskit.backbone import srn_init
    from casskit.optics import Mask, encode
    from casskit.trainer import reconstruct_scene

    theta = srn_init(2, 4, 1, np.random.default_rng(0))
    mask = Mask(np.full((5, 6), 0.5))
    y = encode(RNG.random((5, 6, 2)), mask, 1)
    reconstruct_scene(theta, y, mask)
    theta.head_w.data[0, 0, 1, 1] = np.nan
    with pytest.raises(FloatingPointError,
                       match=r"reconstruction.*leaf data of shape \(4, 2, 3, 3\)"):
        reconstruct_scene(theta, y, mask)


def test_grad_buffers_are_allocated_lazily():
    t = Tensor(np.ones((2, 3)))
    assert t._grad is None
    assert t.grad.shape == (2, 3) and np.all(t.grad == 0.0)
    root, (x, w, b, a), u = _two_branch_graph()
    backward(root, [w])
    assert w._grad is not None and np.any(w._grad != 0.0)
    # nothing the sweep runs reaches x, a or u, so none of them gets a buffer
    for node in (x, a, u, u._parents[0]):
        assert node._grad is None


def test_arrays_must_be_wrapped():
    a = Tensor(np.ones(3))
    with pytest.raises(ShapeError):
        add(a, np.ones(3))


def test_broadcast_limited_to_scalars():
    a = Tensor(np.ones((2, 3)))
    s = Tensor(np.array(2.0))
    out = tsum(mul(a, s))
    backward(out)
    assert float(s.grad) == 6.0
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))


# -- nonlinearities ---------------------------------------------------------

def test_relu_values_and_kink():
    x = Tensor(np.array([-2.0, 0.0, 3.0]))
    out = tsum(relu(x))
    backward(out)
    np.testing.assert_allclose(relu(x).data, [0.0, 0.0, 3.0])
    # subgradient convention: relu'(0) = 0
    np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])


def test_sigmoid_matches_closed_form():
    v = np.array([-700.0, -5.0, 0.0, 5.0, 700.0])
    x = Tensor(v)
    s = sigmoid(x)
    ref = np.where(v >= 0, 1 / (1 + np.exp(-np.clip(v, -50, 50))),
                   np.exp(np.clip(v, -50, 50)) / (1 + np.exp(np.clip(v, -50, 50))))
    np.testing.assert_allclose(s.data, ref, atol=1e-15)
    assert np.all(np.isfinite(s.data))
    backward(tsum(s))
    np.testing.assert_allclose(x.grad, s.data * (1 - s.data), atol=1e-15)


def test_softplus_stable_and_grad_is_sigmoid():
    v = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
    x = Tensor(v)
    sp = softplus(x)
    assert np.all(np.isfinite(sp.data))
    assert sp.data[2] == pytest.approx(np.log(2.0), abs=1e-15)
    assert sp.data[4] == pytest.approx(800.0)
    backward(tsum(sp))
    np.testing.assert_allclose(x.grad, sigmoid(Tensor(v)).data, atol=1e-15)


def test_log_domain_and_grad():
    x = Tensor(np.array([0.5, 1.0, 4.0]))
    out = tsum(log(x))
    backward(out)
    np.testing.assert_allclose(x.grad, 1.0 / x.data)
    with pytest.raises(ValueError):
        log(Tensor(np.array([0.0])))


def test_clamp01_values_and_gradient_mask():
    v = np.array([-0.5, 0.0, 0.25, 1.0, 1.5])
    x = Tensor(v)
    c = clamp01(x)
    np.testing.assert_allclose(c.data, [0.0, 0.0, 0.25, 1.0, 1.0])
    backward(tsum(c))
    # gradient passes only strictly inside (0, 1)
    np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0, 0.0, 0.0])


# -- linear algebra against naive loops -------------------------------------

def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def test_matmul_matches_naive():
    a = RNG.normal(size=(4, 3))
    b = RNG.normal(size=(3, 5))
    out = matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, naive_matmul(a, b), atol=1e-12)


def test_matmul_grads():
    a = Tensor(RNG.normal(size=(2, 3)))
    b = Tensor(RNG.normal(size=(3, 4)))
    backward(tsum(matmul(a, b)))
    np.testing.assert_allclose(a.grad, np.ones((2, 4)) @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 4)), atol=1e-12)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def naive_conv2d(x, w, b):
    """Same-padded stride-1 cross-correlation, quadruple loop."""
    cin, h, wid = x.shape
    cout, cin2, k, _ = w.shape
    p = k // 2
    out = np.zeros((cout, h, wid))
    for co in range(cout):
        out[co] += b[co]
        for ci in range(cin):
            for u in range(k):
                for v in range(k):
                    for i in range(h):
                        for j in range(wid):
                            ii, jj = i + u - p, j + v - p
                            if 0 <= ii < h and 0 <= jj < wid:
                                out[co, i, j] += x[ci, ii, jj] * w[co, ci, u, v]
    return out


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_matches_naive(k):
    x = RNG.normal(size=(2, 6, 5))
    w = RNG.normal(size=(3, 2, k, k))
    b = RNG.normal(size=3)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, naive_conv2d(x, w, b), atol=1e-12)


def test_conv2d_rejects_even_kernel():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))),
               Tensor(np.zeros(1)))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_grads_match_finite_differences(k):
    # non-square input and C_in != C_out, so a flipped or transposed
    # kernel in the input gradient cannot cancel out
    x = RNG.normal(size=(2, 5, 4))
    w = RNG.normal(size=(3, 2, k, k)) * 0.5
    b = RNG.normal(size=3)
    params = [Tensor(x), Tensor(w), Tensor(b)]

    def builder(ps):
        return tsum(mul(conv2d(ps[0], ps[1], ps[2]), conv2d(ps[0], ps[1], ps[2])))

    assert grad_check(builder, params) < 1e-7


def naive_conv2d_adjoint(g, w, shape):
    """Adjoint of the bias-free naive_conv2d in x: scatter each output tap back."""
    cin, h, wid = shape
    cout, _, k, _ = w.shape
    p = k // 2
    gx = np.zeros(shape)
    for co in range(cout):
        for ci in range(cin):
            for u in range(k):
                for v in range(k):
                    for i in range(h):
                        for j in range(wid):
                            ii, jj = i + u - p, j + v - p
                            if 0 <= ii < h and 0 <= jj < wid:
                                gx[ci, ii, jj] += g[co, i, j] * w[co, ci, u, v]
    return gx


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_input_grad_is_adjoint_of_naive(k):
    x = Tensor(RNG.normal(size=(2, 6, 5)))
    w = RNG.normal(size=(3, 2, k, k))
    gout = RNG.normal(size=(3, 6, 5))
    backward(tsum(mul(conv2d(x, Tensor(w), Tensor(RNG.normal(size=3))), Tensor(gout))))
    np.testing.assert_allclose(x.grad, naive_conv2d_adjoint(gout, w, x.shape), atol=1e-12)


def naive_conv2d_kernel_adjoint(g, x, k):
    """Adjoint of the bias-free naive_conv2d in the kernel: correlate g with x."""
    cin, h, wid = x.shape
    cout = g.shape[0]
    p = k // 2
    gw = np.zeros((cout, cin, k, k))
    for co in range(cout):
        for ci in range(cin):
            for u in range(k):
                for v in range(k):
                    for i in range(h):
                        for j in range(wid):
                            ii, jj = i + u - p, j + v - p
                            if 0 <= ii < h and 0 <= jj < wid:
                                gw[co, ci, u, v] += g[co, i, j] * x[ci, ii, jj]
    return gw


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_kernel_grad_matches_naive(k):
    x = RNG.normal(size=(2, 6, 5))
    w = Tensor(RNG.normal(size=(3, 2, k, k)))
    gout = RNG.normal(size=(3, 6, 5))
    backward(tsum(mul(conv2d(Tensor(x), w, Tensor(RNG.normal(size=3))), Tensor(gout))))
    np.testing.assert_allclose(w.grad, naive_conv2d_kernel_adjoint(gout, x, k), atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_backward_holds_no_array_larger_than_its_input(k):
    # the closure lives as long as the graph: a k*k column matrix held
    # there would multiply every conv's footprint for the whole step
    x = Tensor(RNG.normal(size=(2, 9, 11)))
    out = conv2d(x, Tensor(RNG.normal(size=(3, 2, k, k))), Tensor(RNG.normal(size=3)))
    held = [c.cell_contents for c in out._backward.__closure__]
    sizes = [a.nbytes for a in held if isinstance(a, np.ndarray)]
    assert all(n <= x.data.nbytes for n in sizes), sizes


# -- conv2d's scratch store ---------------------------------------------------

# (C_in, C_out, k, H, W), all non-square.  The first two have accumulators
# of one size, [3, 7*8], at different kernel sizes; the 5x8 and 8x5 inputs
# pad to row stacks of the same size but different borders; the last
# repeats the first, so its keys are reused.
SCRATCH_SHAPES = [
    (1, 3, 3, 7, 6),
    (16, 3, 5, 7, 4),
    (1, 16, 1, 5, 8),
    (16, 16, 3, 5, 8),
    (16, 2, 3, 8, 5),
    (16, 2, 5, 6, 9),
    (1, 3, 3, 7, 6),
]


def _interleaved_convs():
    """Every forward first, then every backward in reverse, as on a tape."""
    rng = np.random.default_rng(77)
    cases = []
    for cin, cout, k, h, w in SCRATCH_SHAPES:
        x = Tensor(rng.normal(size=(cin, h, w)))
        kern = Tensor(rng.normal(size=(cout, cin, k, k)))
        b = Tensor(rng.normal(size=cout))
        gout = rng.normal(size=(cout, h, w))
        cases.append((x, kern, b, gout, conv2d(x, kern, b)))
    for x, kern, b, gout, out in reversed(cases):
        backward(tsum(mul(out, Tensor(gout))))
    return cases


def _recording_scratch(monkeypatch):
    seen = set()
    take = nd._views
    monkeypatch.setattr(nd, "_SCRATCH", {})
    monkeypatch.setattr(nd, "_views", lambda role, shape: seen.add((role, shape)) or take(role, shape))
    return seen


def _buffers(views):
    """The distinct buffers behind a set of cached views, by id."""
    stack, out = [views], {}
    while stack:
        v = stack.pop()
        if isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, np.ndarray):
            while v.base is not None:
                v = v.base
            out[id(v)] = v
    return out


def test_conv2d_interleaved_shapes_match_naive(monkeypatch):
    _recording_scratch(monkeypatch)
    for x, kern, b, gout, out in _interleaved_convs():
        k = kern.shape[2]
        np.testing.assert_allclose(out.data, naive_conv2d(x.data, kern.data, b.data), atol=1e-12)
        np.testing.assert_allclose(x.grad, naive_conv2d_adjoint(gout, kern.data, x.shape), atol=1e-12)
        np.testing.assert_allclose(kern.grad, naive_conv2d_kernel_adjoint(gout, x.data, k), atol=1e-12)
        np.testing.assert_allclose(b.grad, gout.sum(axis=(1, 2)), atol=1e-12)


def test_conv2d_results_and_closures_never_alias_scratch(monkeypatch):
    _recording_scratch(monkeypatch)
    cases = _interleaved_convs()
    held = []
    for x, kern, b, _, out in cases:
        held += [out.data, out.grad, x.grad, kern.grad, b.grad]
        for cell in out._backward.__closure__:
            v = cell.cell_contents
            held += [v.data] if isinstance(v, Tensor) else [v] if isinstance(v, np.ndarray) else []
    scratch = list(_buffers(list(nd._SCRATCH.values())).values())
    assert scratch
    for arr in held:
        assert not any(np.shares_memory(arr, buf) for buf in scratch)


def test_conv2d_scratch_holds_one_buffer_per_role_and_shape(monkeypatch):
    seen = _recording_scratch(monkeypatch)
    first = [(out.data, x.grad, kern.grad) for x, kern, _, _, out in _interleaved_convs()]
    views = dict(nd._SCRATCH)
    assert set(views) == seen
    assert all(len(shape) == 4 for _, shape in views)
    for (role, shape), v in views.items():
        if role in ("stack", "gstack"):
            assert [b.shape for b in _buffers(v).values()] == [shape]
    # no two keys share a buffer
    owned = [set(_buffers(v)) for v in views.values()]
    assert len(set().union(*owned)) == sum(map(len, owned))
    # a second round reuses every view and, its zero borders untouched,
    # gives bit-identical results
    again = [(out.data, x.grad, kern.grad) for x, kern, _, _, out in _interleaved_convs()]
    assert nd._SCRATCH.keys() == views.keys()
    assert all(nd._SCRATCH[key] is v for key, v in views.items())
    for a, b in zip(first, again):
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


def _conv_round(shapes, fresh_at=()):
    """Forward and backward of one conv per (H, W, k); every result, in order.

    The scratch store is emptied before the calls whose index is in
    ``fresh_at``, as a process would find it after replacing it.
    """
    rng = np.random.default_rng(5)
    got = []
    for i, (h, w, k) in enumerate(shapes):
        if i in fresh_at:
            nd._SCRATCH = {}
        x = Tensor(rng.normal(size=(3, h, w)))
        kern = Tensor(rng.normal(size=(4, 3, k, k)))
        b = Tensor(rng.normal(size=4))
        gout = rng.normal(size=(4, h, w))
        out = conv2d(x, kern, b)
        backward(tsum(mul(out, Tensor(gout))))
        got.append((x.data, kern.data, b.data, gout, out.data, x.grad, kern.grad, b.grad))
    return got


def test_conv2d_cached_views_follow_alternating_shapes(monkeypatch):
    # (6, 5) and (5, 6) pad to stacks of one flat length: views keyed on
    # that length would copy one into the other's layout
    monkeypatch.setattr(nd, "_SCRATCH", {})
    shapes = [(h, w, k) for _ in range(2) for k in (1, 3, 5) for h, w in ((6, 5), (5, 6))]
    cached = _conv_round(shapes, fresh_at=(len(shapes) // 2,))
    fresh = _conv_round(shapes, fresh_at=range(len(shapes)))
    for (h, w, k), row, ref in zip(shapes, cached, fresh):
        for u, v in zip(row, ref):
            assert np.array_equal(u, v)
        x, kern, b, gout, out, gx, gk, gb = row
        np.testing.assert_allclose(out, naive_conv2d(x, kern, b), atol=1e-12)
        np.testing.assert_allclose(gx, naive_conv2d_adjoint(gout, kern, x.shape), atol=1e-12)
        np.testing.assert_allclose(gk, naive_conv2d_kernel_adjoint(gout, x, k), atol=1e-12)
        np.testing.assert_allclose(gb, gout.sum(axis=(1, 2)), atol=1e-12)


# -- gradients for a chosen set of leaves -----------------------------------

def _two_branch_graph():
    # w reaches the root through a conv; a reaches it only through u
    x = Tensor(RNG.normal(size=(2, 6, 5)))
    w = Tensor(RNG.normal(size=(3, 2, 3, 3)))
    b = Tensor(RNG.normal(size=3))
    a = Tensor(RNG.normal(size=(3, 6, 5)))
    u = sigmoid(mul(a, a))
    root = tsum(mul(relu(conv2d(x, w, b)), u))
    return root, (x, w, b, a), u


@pytest.mark.parametrize("listed", range(4))
def test_backward_wrt_matches_full_sweep_bitwise(listed):
    root, leaves, _ = _two_branch_graph()
    backward(root)
    full = leaves[listed].grad.copy()
    leaves[listed].grad[...] = 0.0
    backward(root, [leaves[listed]])
    assert np.array_equal(leaves[listed].grad, full)
    assert np.any(full != 0.0)


@pytest.mark.parametrize("listed", range(4))
def test_backward_wrt_leaves_unlisted_grads_untouched(listed):
    root, leaves, _ = _two_branch_graph()
    for t in leaves:
        t.grad[...] = 7.0
    backward(root, [leaves[listed]])
    for i, t in enumerate(leaves):
        if i != listed:
            assert np.all(t.grad == 7.0), i


def test_backward_wrt_skips_closures_off_the_path():
    root, (_, w, _, _), u = _two_branch_graph()
    ran = []
    inner = u._backward
    u._backward = lambda g: ran.append(1) or inner(g)
    backward(root, [w])
    assert ran == []
    backward(root)
    assert ran == [1]


# -- shape ops --------------------------------------------------------------# -- shape ops --------------------------------------------------------------

def test_reshape_transpose_backward():
    a = Tensor(RNG.normal(size=(2, 6)))
    out = tsum(mul(reshape(a, (3, 4)), reshape(a, (3, 4))))
    backward(out)
    np.testing.assert_allclose(a.grad, 2 * a.data, atol=1e-12)

    b = Tensor(RNG.normal(size=(3, 4)))
    backward(tsum(transpose(b)))
    np.testing.assert_allclose(b.grad, np.ones((3, 4)))


def test_mean_and_sum_grads():
    a = Tensor(RNG.normal(size=(3, 4)))
    backward(tmean(a))
    np.testing.assert_allclose(a.grad, np.full((3, 4), 1 / 12))
    b = Tensor(RNG.normal(size=(3, 4)))
    backward(tsum(b))
    np.testing.assert_allclose(b.grad, np.ones((3, 4)))


# -- finite-difference harness ----------------------------------------------

def test_grad_check_passes_on_smooth_graph():
    params = [Tensor(RNG.normal(size=(3, 3))), Tensor(RNG.normal(size=(3, 3)))]

    def builder(ps):
        return tmean(mul(sigmoid(matmul(ps[0], ps[1])), ps[0]))

    assert grad_check(builder, params) < 1e-8


def test_grad_check_rejects_nondeterministic_builder():
    state = {"n": 0}

    def builder(ps):
        state["n"] += 1
        return tsum(mul(ps[0], Tensor(np.array(float(state["n"])))))

    with pytest.raises(RuntimeError):
        grad_check(builder, [Tensor(np.ones(2))])


# -- initializer ------------------------------------------------------------

def test_xavier_uniform_bounds_and_determinism():
    limit = np.sqrt(6.0 / (20 + 30))
    w1 = xavier_uniform(np.random.default_rng(5), (20, 30), 20, 30)
    w2 = xavier_uniform(np.random.default_rng(5), (20, 30), 20, 30)
    assert np.array_equal(w1, w2)
    assert w1.shape == (20, 30)
    assert np.max(np.abs(w1)) <= limit
    # gain scales the limit linearly
    w3 = xavier_uniform(np.random.default_rng(5), (20, 30), 20, 30, gain=2.0)
    np.testing.assert_allclose(w3, 2 * w1)


# -- property tests ---------------------------------------------------------

small_arrays = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False, width=64), min_size=4, max_size=4
).map(lambda v: np.array(v).reshape(2, 2))


@settings(max_examples=50, deadline=None)
@given(small_arrays, small_arrays)
def test_product_rule_property(av, bv):
    a, b = Tensor(av), Tensor(bv)
    backward(tsum(mul(a, b)))
    np.testing.assert_allclose(a.grad, bv, atol=1e-12)
    np.testing.assert_allclose(b.grad, av, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False, width=64),
                min_size=6, max_size=6))
def test_clamp01_output_always_in_range(vals):
    out = clamp01(Tensor(np.array(vals)))
    assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)


@settings(max_examples=30, deadline=None)
@given(small_arrays)
def test_sum_grad_is_ones(av):
    a = Tensor(av)
    backward(tsum(a))
    np.testing.assert_allclose(a.grad, np.ones_like(av))
