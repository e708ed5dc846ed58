"""Span tracer for the traced benchmark run.

The tracer wraps each layer's public functions by rebinding their names in
every loaded ``casskit`` module that holds them (``casskit.backbone.conv2d``,
``casskit.trainer.gst_forward``, ...).  For functions that return tape
tensors it also wraps the ``_backward`` closures, so backward time lands
in spans too: for single ops the closure of the returned tensor, for the
``gstnet`` and ``backbone`` layers every closure created during the call.
Garbage-collector pauses, seen through ``gc.callbacks``, become spans as
well, so they are not charged to whichever layer they interrupted.

A span is ``[name, start, end, parent]``.  Spans stay in memory until the
run ends; :meth:`Tracer.layer_metrics` then folds them into the per-layer
figures.  Self time is a span's duration minus the durations of its
children, which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import gc
import hashlib
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MB = float(1 << 20)

# (module, function) pairs that get a plain span
_SPANS = [
    ("ndgrad", "backward"),
    ("optics", "encode"),
    ("optics", "init_input"),
    ("maskmodel", "sample_perturbed"),
    ("maskmodel", "entropy_term"),
    ("metrics", "ssim"),
    ("metrics", "psnr"),
    ("metrics", "epistemic_map"),
    ("trainer", "recon_loss"),
    ("harness", "build_experiment"),
    ("harness", "run_training"),
    ("harness", "evaluate"),
    ("harness", "uncertainty_maps"),
    ("io", "load_checkpoint"),
]
# single tape ops: a span for the call and one for the returned closure
_OPS = [
    ("ndgrad", "conv2d"),
    ("ndgrad", "matmul"),
    ("optics", "encode_tape"),
    ("optics", "init_input_tape"),
]
# layers whose whole subgraph of closures is charged to "<layer>.bwd"
_LAYERS = [("gstnet", "gst_forward"), ("backbone", "reconstruct")]
# io writers: first argument is the path written
_WRITERS = ["save_checkpoint", "save_cube", "save_mask", "write_pgm",
            "write_metrics_csv", "write_loss_log_csv", "write_histogram_csv"]


class Tracer:
    """In-memory spans plus counters taken at the same layer boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self._collectors = []
        self._undo = []
        self._gst_keys = set()

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0.0, 0.0, parent]  # allocating may run the collector: do it first
        rec[1] = perf_counter()
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self.open("ndgrad.gc")
        else:
            self.close()
            self.counts["ndgrad.gc_collections"] += 1

    # -- installation --------------------------------------------------------

    def _rebind(self, module, attr, make):
        """Replace ``module.attr`` everywhere casskit imported it."""
        original = getattr(sys.modules[f"casskit.{module}"], attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name.startswith("casskit.") and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def _op(self, name, fn):
        timed = self._timed(name, fn)
        bwd = name + ".bwd"
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            out._backward = self._timed(bwd, out._backward)
            if name == "ndgrad.conv2d":
                cout, cin, k, _ = args[1].data.shape
                _, h, w = args[0].data.shape
                counts["conv_flop"] += 2.0 * cout * cin * k * k * h * w
                counts["im2col_bytes"] += 8.0 * cin * k * k * h * w
            return out

        return wrapper

    def _layer(self, name, fn):
        bwd = name + ".bwd"

        def wrapper(*args, **kwargs):
            if name == "gstnet.gst_forward":
                self._note_gst_key(*args[:2])
            made = []
            self._collectors.append(made)
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
                self._collectors.pop()
            for t in made:
                if t._backward is not None:
                    t._backward = self._timed(bwd, t._backward)
            if name == "gstnet.gst_forward":
                n = out.data.size
                big = sum(t.data.nbytes + t.grad.nbytes for t in made if t.data.size >= n * n)
                self.counts["affinity_bytes"] = max(self.counts["affinity_bytes"], big)
            return out

        return wrapper

    def _note_gst_key(self, m, params):
        mv = m.values if hasattr(m, "values") else m
        h = hashlib.blake2b(mv.tobytes(), digest_size=16)
        for _, t in params.parameters():
            h.update(t.data.tobytes())
        self._gst_keys.add(h.digest())

    def _writer(self, name, fn):
        timed = self._timed(name, fn)

        def wrapper(path, *args, **kwargs):
            out = timed(path, *args, **kwargs)
            size = os.path.getsize(path)
            self.counts["bytes_written"] += size
            if name == "io.save_checkpoint":
                self.counts["checkpoint_bytes"] = size
            return out

        return wrapper

    def install(self):
        for module, attr in _SPANS:
            self._rebind(module, attr, lambda f, n=f"{module}.{attr}": self._timed(n, f))
        for module, attr in _OPS:
            self._rebind(module, attr, lambda f, n=f"{module}.{attr}": self._op(n, f))
        for module, attr in _LAYERS:
            self._rebind(module, attr, lambda f, n=f"{module}.{attr}": self._layer(n, f))
        for attr in _WRITERS:
            self._rebind("io", attr, lambda f, n=f"io.{attr}": self._writer(n, f))

        adam = sys.modules["casskit.trainer"].Adam
        self._undo.append((adam, "step", adam.step))
        adam.step = self._timed("trainer.adam_step", adam.step)

        tensor = sys.modules["casskit.ndgrad"].Tensor
        init = tensor.__init__
        counts = self.counts
        collectors = self._collectors

        def tensor_init(t, *args, **kwargs):
            init(t, *args, **kwargs)
            counts["ndgrad.tensors"] += 1
            counts["grad_bytes"] += t.grad.nbytes
            for c in collectors:
                c.append(t)

        self._undo.append((tensor, "__init__", init))
        tensor.__init__ = tensor_init
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def totals(self):
        """{span name: (count, inclusive seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def _sweeps_reaching(self, layer_bwd):
        """Number of backward sweeps with a ``layer_bwd`` span inside them."""
        hit = set()
        for name, _, _, parent in self.spans:
            if name != layer_bwd:
                continue
            while parent >= 0 and self.spans[parent][0] != "ndgrad.backward":
                parent = self.spans[parent][3]
            if parent >= 0:
                hit.add(parent)
        return len(hit)

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        tot = self.totals()
        c = self.counts

        def calls(n):
            return tot.get(n, (0, 0.0, 0.0))[0]

        def incl(*names):
            return sum(tot.get(n, (0, 0.0, 0.0))[1] for n in names)

        def self_s(n):
            return tot.get(n, (0, 0.0, 0.0))[2]

        gst_calls = calls("gstnet.gst_forward")
        sweeps = self._sweeps_reaching("backbone.reconstruct.bwd")
        m = {
            "ndgrad.conv2d.calls": (calls("ndgrad.conv2d"), "count"),
            "ndgrad.conv2d.fwd_s": (incl("ndgrad.conv2d"), "s"),
            "ndgrad.conv2d.bwd_s": (incl("ndgrad.conv2d.bwd"), "s"),
            "ndgrad.conv2d.gflop": (c["conv_flop"] / 1e9, "GFLOP"),
            "ndgrad.conv2d.im2col_mb": (c["im2col_bytes"] / MB, "MiB"),
            "ndgrad.matmul.s": (incl("ndgrad.matmul", "ndgrad.matmul.bwd"), "s"),
            "ndgrad.backward.calls": (calls("ndgrad.backward"), "count"),
            "ndgrad.backward.self_s": (self_s("ndgrad.backward"), "s"),
            "ndgrad.tensors": (c["ndgrad.tensors"], "count"),
            "ndgrad.grad_alloc_mb": (c["grad_bytes"] / MB, "MiB"),
            "ndgrad.gc_pause_s": (incl("ndgrad.gc"), "s"),
            "ndgrad.gc_collections": (c["ndgrad.gc_collections"], "count"),
            "gstnet.gst_forward.calls": (gst_calls, "count"),
            "gstnet.gst_forward.s": (incl("gstnet.gst_forward"), "s"),
            "gstnet.bwd_s": (incl("gstnet.gst_forward.bwd"), "s"),
            "gstnet.affinity_mb": (c["affinity_bytes"] / MB, "MiB"),
            "gstnet.g_reuse_ratio": (
                len(self._gst_keys) / gst_calls if gst_calls else 0.0, "ratio"),
            "backbone.reconstruct.calls": (calls("backbone.reconstruct"), "count"),
            "backbone.reconstruct.fwd_s": (incl("backbone.reconstruct"), "s"),
            "backbone.bwd_s": (incl("backbone.reconstruct.bwd"), "s"),
            "trainer.recon_loss.s": (incl("trainer.recon_loss"), "s"),
            "trainer.adam_step.calls": (calls("trainer.adam_step"), "count"),
            "trainer.adam_step.s": (incl("trainer.adam_step"), "s"),
            "trainer.steps_theta": (c["steps_theta"], "count"),
            "trainer.steps_phi": (c["steps_phi"], "count"),
            "trainer.theta_grad_useful_ratio": (
                c["steps_theta"] / sweeps if sweeps else 0.0, "ratio"),
        }
        for op in ("encode", "encode_tape", "init_input", "init_input_tape"):
            m[f"optics.{op}.calls"] = (calls(f"optics.{op}"), "count")
            m[f"optics.{op}.s"] = (incl(f"optics.{op}", f"optics.{op}.bwd"), "s")
        m.update({
            "maskmodel.sample_perturbed.s": (incl("maskmodel.sample_perturbed"), "s"),
            "maskmodel.entropy_term.s": (incl("maskmodel.entropy_term"), "s"),
            "metrics.ssim.calls": (calls("metrics.ssim"), "count"),
            "metrics.ssim.s": (incl("metrics.ssim"), "s"),
            "metrics.psnr.s": (incl("metrics.psnr"), "s"),
            "metrics.epistemic_map.self_s": (self_s("metrics.epistemic_map"), "s"),
            "harness.build_experiment.s": (incl("harness.build_experiment"), "s"),
            "harness.run_training.s": (incl("harness.run_training"), "s"),
            "harness.evaluate.s": (incl("harness.evaluate"), "s"),
            "harness.uncertainty_maps.s": (incl("harness.uncertainty_maps"), "s"),
            "io.save_checkpoint.s": (incl("io.save_checkpoint"), "s"),
            "io.load_checkpoint.s": (incl("io.load_checkpoint"), "s"),
            "io.checkpoint_mb": (c["checkpoint_bytes"] / MB, "MiB"),
            "io.bytes_written_mb": (c["bytes_written"] / MB, "MiB"),
            "trace.spans": (len(self.spans), "count"),
        })
        return m
