"""The package's public surface: exported names, benchmark hooks, imports.

Eight static checks that need nothing beyond the standard library:
every name a module exports exists, every function the benchmark's span
tracer rebinds and every name its worker reads exists (both look them up
with no default, so a missing one fails every benchmark run), no module
imports a name it neither reads nor exports, every module-level private
name is read somewhere in the package, every ``.normal(`` draw is the
measurement noise or the mask fabrication error, every
``.standard_normal(`` draw is a loss sample's eps, and every config key is
read by the code.  One run
under the tracer checks that every tensor still has a ``grad`` the
tracer can read.
"""

import ast
import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import casskit

SRC = Path(casskit.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
FILES = sorted(SRC.glob("*.py"))


def _module(path):
    return importlib.import_module(
        "casskit" if path.stem == "__init__" else f"casskit.{path.stem}"
    )


def _unused_imports(source):
    """Names bound by import statements that the module never reads or exports."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in read | exported)


def test_every_exported_name_resolves():
    missing = []
    for path in FILES:
        mod = _module(path)
        missing += [f"{path.name}: {attr}" for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_casskit_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_tracer_rebinds_resolves():
    tracer = _load_tracer()
    hooks = tracer._SPANS + tracer._OPS + tracer._LAYERS
    hooks += [("io", attr) for attr in tracer._WRITERS]
    assert hooks
    missing = [
        f"{module}.{attr}" for module, attr in hooks
        if not hasattr(importlib.import_module(f"casskit.{module}"), attr)
    ]
    assert missing == []


def _casskit_reads(source):
    """(module, attr) pairs read as ``<...>.ck.<module>.<attr>`` or through a
    local alias of ``<...>.ck.<module>`` bound in the same function."""

    def module_of(node):
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id == "ck") or (
                    isinstance(base, ast.Attribute) and base.attr == "ck"):
                return node.attr
        return None

    reads = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    for name, value in pairs:
                        if isinstance(name, ast.Name) and module_of(value):
                            aliases[name.id] = module_of(value)
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                base = node.value
                module = module_of(base) or (
                    isinstance(base, ast.Name) and aliases.get(base.id))
                if module:
                    reads.add((module, node.attr))
    return reads


def test_every_name_the_benchmark_worker_reads_resolves():
    # the worker reaches the package as ck.<module>.<name>, or through
    # aliases like `h, t = self.ck.harness, self.ck.trainer`
    assert _casskit_reads(
        "def f(self):\n    h, t = self.ck.harness, self.ck.trainer\n"
        "    h.run(self.ck.io.save)\n    t.x = 1\n"
        "def g(t):\n    return t.y\n"
    ) == {("harness", "run"), ("io", "save"), ("trainer", "x")}
    reads = _casskit_reads((PERFBENCH / "worker.py").read_text())
    assert {
        ("harness", "reconstruct_scene"), ("harness", "run_training"),
        ("trainer", "Adam"), ("trainer", "load_state"), ("gstnet", "gst_forward"),
        ("optics", "encode"), ("io", "load_cube"),
    } <= reads
    missing = [
        f"{module}.{attr}" for module, attr in sorted(reads)
        if not hasattr(importlib.import_module(f"casskit.{module}"), attr)
    ]
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports("import os\nimport sys\nfrom a import b as c\nprint(sys)") == [
        "c", "os"
    ]
    assert _unused_imports("from . import io\n__all__ = ['io']") == []
    unused = [
        f"{path.name}: {name}" for path in FILES for name in _unused_imports(path.read_text())
    ]
    assert unused == []


def _private_names(sources):
    """({module-level ``_name``: where it is bound}, every name the sources read).

    Functions, classes and assignments count; a read is a ``Name`` load or an
    attribute of that name, in any of the sources."""
    bound, read = {}, set()
    for where, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            bound.update({n: f"{where}:{node.lineno}" for n in names
                          if n.startswith("_") and not n.startswith("__")})
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return bound, read


def test_every_private_module_name_is_read():
    bound, read = _private_names({
        "a.py": "_A = 1\n_b: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C: pass\n",
        "b.py": "import a\nx = a._b\n",
    })
    assert set(bound) == {"_A", "_b", "_f", "_C"}
    assert sorted(set(bound) - read) == ["_C", "_f"]
    bound, read = _private_names({path.name: path.read_text() for path in FILES})
    assert len(bound) > 50
    assert sorted(f"{bound[n]}: {n}" for n in set(bound) - read) == []


def _normal_calls(source, method):
    """The outermost enclosing function, or None at module level, of each
    ``.<method>(`` call."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == method:
                out.append(where)
            fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, where or (child.name if fn else None))

    visit(ast.parse(source), None)
    return out


def test_every_normal_draw_is_measurement_noise_or_fabrication():
    # one noise model: detector noise is drawn in one function, fabrication
    # error in another, and every other Gaussian draw (eps) is standard_normal
    assert _normal_calls(
        "x = r.normal(0)\ndef f(r):\n    def g():\n        return r.normal(1)\n"
        "    return r.standard_normal(2)\nclass C:\n    def m(self, r):\n"
        "        return r.normal(3)\n", "normal"
    ) == [None, "f", "m"]
    where = sorted(f"{path.stem}.{fn}" for path in FILES
                   for fn in _normal_calls(path.read_text(), "normal"))
    assert set(where) <= {"optics.detector_noise", "maskmodel.realize_mask"}
    assert "optics.detector_noise" in where


def test_every_eps_draw_is_made_where_the_loss_samples_are_drawn():
    # eps has one draw site in training, trainer._draws, and the gradient
    # suite draws its own fixed eps for the end-to-end check
    assert _normal_calls("def f(r):\n    return r.normal(1) + r.standard_normal(2)\n",
                         "standard_normal") == ["f"]
    where = {f"{path.stem}.{fn}" for path in FILES
             for fn in _normal_calls(path.read_text(), "standard_normal")}
    assert where == {"trainer._draws", "harness._end_to_end_check"}


def test_every_config_key_is_read_outside_its_class():
    # config_text and load_config reach every field through fields(), so
    # only an attribute read elsewhere shows that a key changes a run
    from casskit.harness import ScenarioSpec
    from casskit.trainer import TrainConfig

    classes = (TrainConfig, ScenarioSpec)
    names = {k.__name__ for k in classes}
    read = set()
    for path in FILES:
        tree = ast.parse(path.read_text())
        inside = {
            id(n) for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and c.name in names
            for n in ast.walk(c)
        }
        read |= {
            n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and id(n) not in inside
        }
    unread = [f"{k.__name__}.{f.name}" for k in classes for f in fields(k) if f.name not in read]
    assert unread == []


def test_tracer_counts_every_tensor_and_its_grad_buffer():
    # the tracer reads t.grad.nbytes as each tensor is made, so a grad
    # that could not be read would fail every traced benchmark run
    import numpy as np

    from casskit import ndgrad, trainer
    from casskit.gstnet import gst_forward
    from casskit.optics import Mask

    cfg = trainer.TrainConfig(bands=2, d=1, backbone_channels=4, backbone_blocks=1,
                              gst_channels=4, gst_proj_channels=2)
    state = trainer.make_state(cfg)
    rng = np.random.default_rng(0)
    scenes = [rng.random((6, 6, 2)) for _ in range(2)]
    mask = Mask(rng.random((6, 6)))
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        loss = trainer.recon_loss(state.theta, gst_forward(mask, state.phi), scenes,
                                  mask, cfg, rng)
        ndgrad.backward(loss)
    m = tracer.layer_metrics()
    assert m["ndgrad.tensors"][0] > 0
    assert m["ndgrad.grad_alloc_mb"][0] > 0
