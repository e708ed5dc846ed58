"""The training step's batch split, and the helper processes that run it.

:func:`batch_backward` cuts a batch into contiguous chunks, one per
usable core: this process runs the first, helpers run the others, and
the per-sample gradients are added here in sample order (see
:mod:`casskit.trainer` for why that keeps every output bit for bit).
The split lives here rather than in the trainer because this module is
imported at the first training step, so set-up does not compile it.

A helper is a child Python interpreter, started with ``sys.executable
-c`` and importing casskit from the directory this process imported it
from, that serves one call at a time over its stdin and stdout.  A call
is a module-level function, sent by its import path, and its arguments;
the reply is the function's return value or the exception it raised.
Both are pickled with protocol 5 and every contiguous array travels
out-of-band: the pickle holds only the small head of the message, and
the array bytes are written straight from, and read straight into, the
arrays' own memory, so no message is copied whole on either side.  A
:class:`~casskit.ndgrad.Tensor` travels as a fresh leaf holding its
values; its gradient and tape stay behind.

Helpers are started lazily, by :func:`pool`, and kept for the life of
the process in one module-level list, because the step that uses them
runs many times per training run and a run is often followed by
another: a helper's start-up (importing numpy and casskit) costs as much
as a few dozen steps.  At interpreter exit, :func:`close` closes every
helper's pipes and waits for it; a helper also exits on its own when it
reads end-of-file, so it does not outlive a parent that is killed.  A
helper ignores SIGINT: an interrupt at a terminal reaches the whole
process group, and the parent alone decides how to stop.

The interpreter is started afresh rather than forked, so it shares no
heap with the parent, and with ``-c`` rather than through
``multiprocessing``, whose spawn and forkserver methods re-run an
unguarded ``__main__`` of the parent and start a server process.
"""

from __future__ import annotations

import atexit
import copy
import fcntl
import io
import os
import pickle
import signal
import struct
import subprocess
import sys

import numpy as np

from . import trainer
from .ndgrad import Tensor, backward, mul
from .optics import _cube_values, _mask_values

__all__ = ["batch_backward", "usable_cores", "pool", "close", "Helper", "serve"]

# the directory holding this casskit package, as the helpers must import it
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_MAIN = "import sys; sys.path.insert(0, sys.argv[1]); from casskit.helpers import serve; serve()"
_PIPE_BYTES = 1 << 20  # the default limit for an unprivileged process on Linux
_IOV = 512  # buffers per readv/writev call, well under every platform's IOV_MAX
_HELPERS = []  # started helpers, in start order
# a forked child must not write to its parent's helpers: it starts its own
os.register_at_fork(after_in_child=_HELPERS.clear)


def usable_cores():
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool(n):
    """The first ``n`` helpers, starting the ones not yet running."""
    if n > 0 and not _HELPERS:
        atexit.unregister(close)  # registered once however often the pool restarts
        atexit.register(close)
    while len(_HELPERS) < n:
        _HELPERS.append(Helper())
    return _HELPERS[:n]


def close():
    """Close every helper's pipes and wait for it to exit."""
    started = list(_HELPERS)
    _HELPERS.clear()
    for h in started:
        h.proc.stdin.close()
        h.proc.stdout.close()
    for h in started:
        try:
            h.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            h.proc.kill()
            h.proc.wait()


def _noise_stream(noise_rng, cfg, shape):
    """The noise stream as one sample's encode finds it, or None without noise.

    ``noise_rng`` is advanced past that sample's draw by the same
    ``normal`` call :func:`~casskit.optics.encode_tape` makes, so it ends
    where a serial pass over the batch leaves it.
    """
    if not cfg.noise_std > 0.0:
        return None
    h, w, bands = shape
    own = copy.deepcopy(noise_rng)
    noise_rng.normal(0.0, cfg.noise_std, size=(h, w + cfg.d * (bands - 1)))
    return own


def _wrt(theta, g, grad_theta, grad_g):
    wrt = [t for _, t in theta.parameters()] if grad_theta else []
    return wrt + [g] if grad_g else wrt


def _sample_backward(theta, g, xv, mask, cfg, eps, noise_rng, scale, wrt):
    """One sample's forward and backward, its loss seeded with ``scale``.

    The gradients accumulate into the ``wrt`` leaves; returns the loss.
    The sample's tape is freed on return, before the next one is built.
    """
    loss = trainer._sample_loss(theta, g, xv, mask, cfg, eps, noise_rng=noise_rng)
    backward(mul(loss, scale), wrt)
    return float(loss.data)


def _samples_apart(theta, g, scenes, mask, cfg, eps_list, noise_rngs, scale,
                   grad_theta, grad_g):
    """A helper's share of a batch: [(loss, gradients)] per sample, in order.

    ``theta`` and ``g`` arrive as fresh leaves.  Each sample's gradients
    start from fresh zeros and are returned apart, for the parent to add
    in sample order.
    """
    wrt = _wrt(theta, g, grad_theta, grad_g)
    out = []
    for xv, eps, noise in zip(scenes, eps_list, noise_rngs):
        for t in wrt:
            t.grad = None
        loss = _sample_backward(theta, g, xv, mask, cfg, eps, noise, scale, wrt)
        out.append((loss, [t.grad for t in wrt]))
    return out


def batch_backward(theta, g, batch, mask, cfg, eps_rng, noise_rng, grad_theta, grad_g):
    """Mean reconstruction loss of one batch; gradients added into theta and g.

    Gradients go to theta's leaves if ``grad_theta`` and to the leaf ``g``
    if ``grad_g``.  The batch is cut into contiguous chunks, one per
    usable core; this process runs the first and adds every sample's
    gradients in sample order.
    """
    scenes = [_cube_values(x) for x in batch]
    eps_list = [eps_rng.standard_normal(_mask_values(mask).shape) for _ in scenes]
    noise_rngs = [_noise_stream(noise_rng, cfg, xv.shape) for xv in scenes]
    scale = 1.0 / len(scenes)
    wrt = _wrt(theta, g, grad_theta, grad_g)
    n = min(usable_cores(), len(scenes))
    cut = [len(scenes) * k // n for k in range(n + 1)]
    try:
        started = pool(n - 1)
        for h, a, b in zip(started, cut[1:], cut[2:]):
            h.submit(_samples_apart, theta, g, scenes[a:b], mask, cfg, eps_list[a:b],
                     noise_rngs[a:b], scale, grad_theta, grad_g)
        losses = [_sample_backward(theta, g, scenes[i], mask, cfg, eps_list[i],
                                   noise_rngs[i], scale, wrt) for i in range(cut[1])]
        for h in started:
            for loss, grads in h.result():
                losses.append(loss)
                for t, gt in zip(wrt, grads):
                    t.grad += gt
    except BaseException:
        if n > 1:
            close()  # replies may be left unread
        raise
    acc = losses[0]
    for v in losses[1:]:
        acc += v
    return acc * scale


def _f64(buf, shape):
    return np.frombuffer(buf).reshape(shape)


class _Pickler(pickle.Pickler):
    def reducer_override(self, obj):
        if isinstance(obj, Tensor):
            return Tensor, (obj.data,)
        # float64 arrays skip numpy's generic reduction, which pickles a dtype
        # per array and costs twice as much for the few dozen arrays of a step
        if type(obj) is np.ndarray and obj.dtype == np.float64 and obj.flags.c_contiguous:
            return _f64, (pickle.PickleBuffer(obj), obj.shape)
        return NotImplemented


def _widen(fd):
    """Let a pipe hold a whole message, so its writer need not wait for the reader."""
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or over the system's limit
        pass


def _advance(views, n):
    """Drop the first ``n`` bytes from a list of memoryviews."""
    while n:
        if n >= views[0].nbytes:
            n -= views.pop(0).nbytes
        else:
            views[0] = views[0][n:]
            n = 0


def _send(fd, obj):
    head = io.BytesIO()
    bufs = []
    _Pickler(head, protocol=5, buffer_callback=bufs.append).dump(obj)
    views = [memoryview(head.getbuffer())] + [b.raw() for b in bufs]
    sizes = [v.nbytes for v in views]
    views.insert(0, memoryview(struct.pack(f"<{len(sizes) + 1}Q", len(sizes), *sizes)))
    while views:
        _advance(views, os.writev(fd, views[:_IOV]))


def _read(fd, bufs):
    views = [memoryview(b) for b in bufs if len(b)]
    while views:
        n = os.readv(fd, views[:_IOV])
        if not n:
            raise EOFError("end of the helper pipe")
        _advance(views, n)
    return bufs


def _recv(fd):
    (count,) = struct.unpack("<Q", _read(fd, [bytearray(8)])[0])
    sizes = struct.unpack(f"<{count}Q", _read(fd, [bytearray(8 * count)])[0])
    head, *bufs = _read(fd, [bytearray(n) for n in sizes])
    return pickle.loads(head, buffers=bufs)


class Helper:
    """One helper process; :meth:`submit` a call, then read its :meth:`result`."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", _MAIN, _ROOT], bufsize=0,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for f in (self.proc.stdin, self.proc.stdout):
            _widen(f.fileno())

    def _died(self, why):
        close()  # reaps this helper; the others may hold replies nobody will read
        code = self.proc.wait()
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        return RuntimeError(f"training helper process {self.proc.pid} {why} ({how})")

    def submit(self, fn, *args):
        """Send ``fn(*args)`` to the helper; ``fn`` must be importable by name."""
        try:
            _send(self.proc.stdin.fileno(), (fn, args))
        except BrokenPipeError as e:
            raise self._died("stopped reading its calls") from e

    def result(self):
        """The value of the last submitted call; re-raises what the call raised."""
        try:
            ok, value = _recv(self.proc.stdout.fileno())
        except EOFError as e:
            raise self._died("exited before replying") from e
        if not ok:
            raise value
        return value


def serve():
    """Helper main loop: run each call read from stdin, reply on stdout, until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    out = os.dup(1)
    os.dup2(2, 1)  # a stray print must not land in the reply stream
    while True:
        try:
            fn, args = _recv(0)
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
        except Exception as e:  # the parent raises it, in the step that asked
            reply = (False, e)
        try:
            try:
                _send(out, reply)
            except (pickle.PicklingError, TypeError, AttributeError):
                _send(out, (False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}")))
        except BrokenPipeError:
            return
