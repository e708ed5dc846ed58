"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Tape style: every operation returns a new :class:`Tensor` holding the
result value, references to the parent tensors it was computed from, and a
closure that routes the output gradient back to those parents.  Calling
:func:`backward` on a scalar root runs the closures in reverse topological
order, handing each one its output's gradient as the argument, and
accumulates gradients into the leaves.

A closure references its parents and never its own output, so the tape
is acyclic: every edge points from a result to its inputs.  A graph is
freed by reference counting as soon as its root is dropped; the cyclic
garbage collector never has to find it.

A closure holds its operand tensors and small saved values, never a
buffer larger than its operands: conv2d, for one, rebuilds its padded
input inside the backward closure instead of keeping it from the forward.
Each conv2d kernel is k matmuls of inner size k*C_in, one per kernel tap
row, over a row stack of k shifted copies of the padded input, so no
k*k times larger column matrix is built.  Its transient buffers come from
a module-private scratch store, one buffer per (role, shape) reused
across calls, so a training step faults in no fresh pages for them; no
result, gradient or closure aliases a scratch buffer.  Closures read
their operands' ``.data`` when they run, so an operand must not be
changed in place before :func:`backward` has run.

A sweep computes only the gradients its caller asks for:
``backward(root, wrt)`` marks the nodes on a path to a listed leaf, runs
only their closures, and each closure skips the parents left unmarked.
An interior node's gradient buffer lives only while a sweep needs it:
fresh zeros just before the first closure that writes into it, freed
once its own closure has read it.  Leaves and the nodes listed in
``wrt`` keep theirs; a node no sweep reaches holds none until its
``grad`` is read.

Finiteness is checked at the tape's edges.  Leaves reject non-finite
data at construction; :func:`backward` checks its root, and on a
non-finite root walks the tape in order and names the first op that
produced a non-finite value.  Values that leave the tape without a sweep
go through :func:`check_finite` where they leave.

The op set is deliberately small: the pointwise family (add, mul, neg,
relu, sigmoid, softplus, log, clamp01), strict 2-D matmul, same-padded
stride-1 conv2d, scalar reductions (sum, mean), and a little shape
plumbing (reshape, transpose).  Shapes never broadcast implicitly
except scalar-with-tensor; anything else raises :class:`ShapeError`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "add",
    "mul",
    "neg",
    "relu",
    "sigmoid",
    "softplus",
    "log",
    "clamp01",
    "matmul",
    "conv2d",
    "tsum",
    "tmean",
    "reshape",
    "transpose",
    "backward",
    "check_finite",
    "zero_grad",
    "grad_check",
    "xavier_uniform",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def _zeros(shape):
    # Zeroed by writing: np.zeros takes a large buffer from calloc as
    # untouched pages, and the first in-place add into it then faults every
    # page twice, once to read and once to write.
    buf = np.empty(shape)
    buf.fill(0.0)
    return buf


def _as_array(data):
    arr = np.asarray(data, dtype=np.float64)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """A dense float64 array plus its slot on the gradient tape.

    ``grad`` always has the same shape as ``data`` and accumulates
    additively during :func:`backward`.  Leaf tensors (built directly from
    data, no parents) are the gradient sinks; intermediate grads are
    scratch space a sweep allocates when it first writes them and frees
    once their node's closure has run.  A buffer is allocated on first
    read or when a sweep first needs it, so a node no sweep reaches costs
    none.  Leaves reject non-finite values at construction; an op result
    is not scanned, and a NaN it produces is named at its op by
    :func:`backward` or :func:`check_finite`.
    """

    __slots__ = ("data", "_grad", "_need", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        arr = _as_array(data)
        if not parents and not np.all(np.isfinite(arr)):
            raise FloatingPointError("non-finite values entering the tape")
        self.data = arr
        self._grad = None
        self._need = True  # set per sweep by backward: does this node need a grad?
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def grad(self):
        if self._grad is None:
            self._grad = _zeros(self.data.shape)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _lift(x):
    """Wrap a python scalar as a 0-d leaf; reject bare arrays.

    Arrays must be wrapped in Tensor explicitly so it is always visible in
    calling code which values sit on the tape.
    """
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 0:
        raise ShapeError(
            f"only python scalars auto-lift, got array of shape {arr.shape}; "
            "wrap it in Tensor explicitly"
        )
    return Tensor(arr)


def _binary_shapes(a, b, opname):
    if a.data.shape == b.data.shape:
        return
    if a.data.ndim == 0 or b.data.ndim == 0:
        return
    raise ShapeError(f"{opname}: shape mismatch {a.data.shape} vs {b.data.shape}")


def _acc(t, g):
    # reduce over the broadcast when the parent was a 0-d scalar
    if not t._need:
        return
    if t.data.shape == g.shape:
        t._grad += g
    else:
        t._grad += g.sum()


def add(a, b):
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "add")

    def _bw(g):
        _acc(a, g)
        _acc(b, g)

    return Tensor(a.data + b.data, (a, b), _bw)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _binary_shapes(a, b, "mul")

    def _bw(g):
        if a._need:
            _acc(a, g * b.data)
        if b._need:
            _acc(b, g * a.data)

    return Tensor(a.data * b.data, (a, b), _bw)


def neg(a):
    a = _lift(a)

    def _bw(g):
        if a._need:
            a._grad -= g

    return Tensor(-a.data, (a,), _bw)


def relu(a):
    a = _lift(a)
    mask = a.data > 0.0  # subgradient 0 at exactly 0

    def _bw(g):
        if a._need:
            a._grad += g * mask

    return Tensor(np.maximum(a.data, 0.0), (a,), _bw)


def _sigmoid_val(x):
    # split by sign so exp never overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    a = _lift(a)
    s = _sigmoid_val(a.data)

    def _bw(g):
        if a._need:
            a._grad += g * s * (1.0 - s)

    return Tensor(s, (a,), _bw)


def softplus(a):
    a = _lift(a)

    def _bw(g):
        if a._need:
            a._grad += g * _sigmoid_val(a.data)

    return Tensor(np.logaddexp(0.0, a.data), (a,), _bw)


def log(a):
    a = _lift(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log: nonpositive element in operand")

    def _bw(g):
        if a._need:
            a._grad += g / a.data

    return Tensor(np.log(a.data), (a,), _bw)


def clamp01(a):
    a = _lift(a)
    mask = (a.data > 0.0) & (a.data < 1.0)  # zero gradient at and beyond bounds

    def _bw(g):
        if a._need:
            a._grad += g * mask

    return Tensor(np.clip(a.data, 0.0, 1.0), (a,), _bw)


def matmul(a, b):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError("matmul operands must be Tensors")
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul needs 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.data.shape} vs {b.data.shape}"
        )

    def _bw(g):
        if a._need:
            a._grad += g @ b.data.T
        if b._need:
            b._grad += a.data.T @ g

    return Tensor(a.data @ b.data, (a, b), _bw)


_SCRATCH = {}


def _scratch(role, shape):
    """The reused transient buffer of conv2d for ``role`` at ``shape``.

    One zero-filled buffer per (role, shape), made on first request and
    kept for the life of the process, so alternating layer shapes do not
    evict each other and no step faults in fresh pages.  A buffer's
    contents are valid only until the next request for the same key, so
    nothing a closure holds, and nothing an op returns or leaves in a
    gradient, may alias one.
    """
    key = (role, shape)
    buf = _SCRATCH.get(key)
    if buf is None:
        buf = _SCRATCH[key] = _zeros(shape)
    return buf


def _row_stack(a, k):
    """[C, H, W] -> row stack [k, C, (H+2p)*(W+2p)], p = (k-1)/2, in scratch.

    ``S[j]`` is the zero-padded input with its rows laid end to end,
    shifted left by j columns.  Tap row i of a k x k window then reads the
    one view ``S[:, :, i*(W+2p) : i*(W+2p) + H*(W+2p)]``: row (j, c) of
    that ``[k*C, H*(W+2p)]`` matrix holds channel c at tap (i, j) for every
    output pixel, and each output row carries 2p scratch columns.  Only
    the interior of ``S[0]`` is written, always at the same places for a
    given buffer, and ``S[j]`` copies ``S[0]`` from column j on, so the
    zero borders are never written with anything but zeros and the last
    j columns of ``S[j]`` are never written at all.  With k = 1 this is a
    view of ``a``.
    """
    c, h, w = a.shape
    if k == 1:
        return a.reshape(1, c, h * w)
    p = (k - 1) // 2
    hp, wp = h + 2 * p, w + 2 * p
    n = hp * wp
    stack = _scratch("stack", (k, c, hp, wp)).reshape(k, c, n)
    stack[0, :, p * wp + p : p * wp + p + h * wp].reshape(c, h, wp)[:, :, :w] = a
    for j in range(1, k):
        stack[j, :, : n - j] = stack[0, :, j:]
    return stack


def _tap_row(stack, i, k, h, wp):
    # [k, C, L] -> the [k*C, H*(W+2p)] window of tap row i; strides stay
    # uniform, so this is a view BLAS reads with a leading dimension of L
    return stack[:, :, i * wp : i * wp + h * wp].reshape(k * stack.shape[1], h * wp)


def _shifted_correlate(a, rows):
    """Same-padded correlation of [C, H, W] with tap rows [k, C_out, k*C].

    ``rows[i]`` holds tap row i of the kernel with column j*C + c for tap
    (i, j) of channel c.  The correlation is k matmuls of inner size k*C,
    one per tap row, over :func:`_row_stack`'s view, summed in a scratch
    accumulator.  Returns a [C_out, H, W] view of scratch: the caller must
    copy or add it out before the next conv2d kernel runs.
    """
    c, h, w = a.shape
    k, cout = rows.shape[:2]
    wp = w + k - 1
    n = h * wp
    stack = _row_stack(a, k)
    acc = _scratch("acc", (cout, n))
    np.matmul(rows[0], _tap_row(stack, 0, k, h, wp), out=acc)
    if k > 1:
        prod = _scratch("prod", (cout, n))
        for i in range(1, k):
            np.matmul(rows[i], _tap_row(stack, i, k, h, wp), out=prod)
            acc += prod
    return acc.reshape(cout, h, wp)[:, :, :w]


def conv2d(x, kernel, bias):
    """Same-padded stride-1 cross-correlation.

    x is [C_in, H, W], kernel [C_out, C_in, k, k] with k odd, bias [C_out].
    Output is [C_out, H, W].  The forward is k matmuls of inner size
    k*C_in, one per tap row, over a row stack of k shifted copies of the
    zero-padded input (see :func:`_row_stack`), so it never builds the k*k
    times larger column matrix, and neither does the backward.  The row
    stack, the zero-laid output gradient, the per-row product and the
    pre-bias accumulator are reused scratch buffers, one per (role,
    shape), never aliased by a result, a gradient or a closure.

    The closure holds only the three operands and reads their ``.data``
    when it runs, so no operand may be changed in place between forward
    and backward (casskit steps its optimizers only after
    :func:`backward`).  The kernel gradient of tap row i is one matmul of
    the output gradient, laid out with zeros in the scratch columns,
    against the same row-stack view the forward reads; the input gradient
    is a shifted correlation of the output gradient with the spatially
    flipped, in/out-transposed kernel.
    """
    for t in (x, kernel, bias):
        if not isinstance(t, Tensor):
            raise TypeError("conv2d operands must be Tensors")
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d input must be [C,H,W], got {x.data.shape}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"conv2d kernel must be [Cout,Cin,k,k], got {kernel.data.shape}")
    cout, cin_k, kh, kw = kernel.data.shape
    cin, h, w = x.data.shape
    if kh != kw:
        raise ShapeError(f"conv2d kernel must be square, got {kh}x{kw}")
    if kh % 2 == 0:
        raise ShapeError(f"conv2d kernel size must be odd, got {kh}")
    if cin_k != cin:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {cin_k}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d bias must be [{cout}], got {bias.data.shape}")

    rows = kernel.data.transpose(2, 0, 3, 1).reshape(kh, cout, kh * cin)
    val = _shifted_correlate(x.data, rows) + bias.data[:, None, None]

    def _bw(g):
        if bias._need:
            bias._grad += g.reshape(cout, h * w).sum(axis=1)
        if kernel._need:
            wp = w + kh - 1
            gz = g.reshape(cout, h * w)
            if kh > 1:
                gz = _scratch("gz", (cout, h, wp))
                gz[:, :, :w] = g
                gz[:, :, w:] = 0.0  # the buffer may serve another kernel size
                gz = gz.reshape(cout, h * wp)
            stack = _row_stack(x.data, kh)
            gk = np.empty((kh, cout, kh * cin))
            for i in range(kh):
                np.matmul(gz, _tap_row(stack, i, kh, h, wp).T, out=gk[i])
            kernel._grad += gk.reshape(kh, cout, kh, cin).transpose(1, 3, 0, 2)
        if x._need:
            flipped = kernel.data[:, :, ::-1, ::-1].transpose(2, 1, 3, 0)
            x._grad += _shifted_correlate(g, flipped.reshape(kh, cin, kh * cout))

    return Tensor(val, (x, kernel, bias), _bw)


def tsum(a):
    a = _lift(a)

    def _bw(g):
        if a._need:
            a._grad += g  # 0-d broadcasts over the operand

    return Tensor(a.data.sum(), (a,), _bw)


def tmean(a):
    a = _lift(a)
    n = a.data.size

    def _bw(g):
        if a._need:
            a._grad += g / n

    return Tensor(a.data.mean(), (a,), _bw)


def reshape(a, shape):

    def _bw(g):
        if a._need:
            a._grad += g.reshape(a.data.shape)

    return Tensor(a.data.reshape(shape), (a,), _bw)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D operand, got {a.data.shape}")

    def _bw(g):
        if a._need:
            a._grad += g.T

    return Tensor(a.data.T, (a,), _bw)


def _toposort(root):
    # iterative DFS postorder; inputs land before their consumers
    topo = []
    seen = set()
    stk = [(root, False)]
    while stk:
        node, done = stk.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stk.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stk.append((p, False))
    return topo


def _first_nonfinite(topo):
    """Describe the first node, in tape order, whose value is not finite."""
    for node in topo:
        if not np.all(np.isfinite(node.data)):
            if node._backward is None:
                return f"leaf data of shape {node.data.shape}, changed after construction"
            op = node._backward.__qualname__.partition(".<locals>")[0]
            return f"the output of op {op!r}, shape {node.data.shape}"


def check_finite(t, what):
    """Return ``t.data`` if it is finite; else raise naming where it went bad.

    Op results are not scanned when they are made, so a value that leaves
    the tape without a :func:`backward` sweep is checked here.  On a
    non-finite value the tape under ``t`` is walked in order and the
    first op that produced a non-finite value is named.
    """
    if not np.all(np.isfinite(t.data)):
        raise FloatingPointError(
            f"non-finite {what}; the first non-finite value on its tape is "
            f"{_first_nonfinite(_toposort(t))}"
        )
    return t.data


def backward(root, wrt=None):
    """Accumulate d(root)/d(leaf) into the grads of the leaves in ``wrt``.

    ``wrt`` lists the leaves whose gradients the caller reads; None means
    every leaf.  A node needs a gradient iff it is listed or one of its
    parents needs one.  Only those nodes have their closures run, and
    each closure skips the parents that need none, so a leaf left out of
    ``wrt`` keeps its grad untouched and a node off every listed path is
    given no buffer.  Every consumer of a node that needs a gradient
    needs one too, so the gradients computed are the same terms summed in
    the same order as in a full sweep.

    An interior node's buffer is zeroed just before the first closure
    that writes into it and dropped once the node's own closure has read
    it (a listed node keeps it), so a sweep holds only the buffers still
    waiting for a consumer, and repeated calls on subgraphs sharing
    leaves accumulate in those leaves without double-counting through
    stale interior values.  A non-finite root raises
    :class:`FloatingPointError` naming the first op that produced a
    non-finite value (see :func:`check_finite`).
    """
    if not isinstance(root, Tensor):
        raise TypeError("backward root must be a Tensor")
    if root.data.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {root.data.shape}")
    check_finite(root, "backward root")
    topo = _toposort(root)
    want = None if wrt is None else {id(t) for t in wrt}
    run = []
    for node in topo:  # parents are marked before their consumers
        need = want is None or id(node) in want or any(p._need for p in node._parents)
        node._need = need
        if not need:
            continue
        if node._backward is not None:
            node._grad = None
            run.append(node)
        elif node._grad is None:
            node._grad = _zeros(node.data.shape)
    if root._need:
        root._grad = np.ones(root.data.shape)
    for node in reversed(run):
        for p in node._parents:
            if p._need and p._grad is None:
                p._grad = _zeros(p.data.shape)
        node._backward(node._grad)
        if want is None or id(node) not in want:
            node._grad = None


def zero_grad(tensors):
    for t in tensors:
        t.grad[...] = 0.0


def grad_check(builder, params, h=1e-5):
    """Compare tape gradients against central differences.

    ``builder(params)`` must rebuild the graph from the given leaf tensors
    and return a scalar Tensor.  It is evaluated twice up-front; any
    disagreement means it is not deterministic and the check aborts.
    Returns the worst relative error max|analytic - fd| / max(1, |fd|)
    over all elements of all params.
    """
    out1 = builder(params)
    out2 = builder(params)
    if out1.data.size != 1:
        raise ShapeError("grad_check builder must return a scalar")
    if not np.array_equal(out1.data, out2.data):
        raise RuntimeError("grad_check: builder is not deterministic")
    zero_grad(params)
    backward(out1, params)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = float(builder(params).data)
            flat[idx] = keep - h
            dn = float(builder(params).data)
            flat[idx] = keep
            fd = (up - dn) / (2.0 * h)
            rel = abs(gflat[idx] - fd) / max(1.0, abs(fd))
            if rel > worst:
                worst = rel
    return worst


def xavier_uniform(rng, shape, fan_in, fan_out, gain=1.0):
    """Uniform(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    a = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)
