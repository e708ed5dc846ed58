"""End-to-end and per-layer timings of casskit, written to BENCH_<tag>.json.

    python3 benchmarks/bench.py --tag NAME [--root DIR] [--base DIR] [--out DIR]

``--root`` is the checkout to measure (default: the one holding this
script).  ``--base`` names a second checkout, such as a ``git archive``
of an earlier commit, for a before/after pair: each child then runs on
both checkouts in turn, alternating which goes first, so a slow spell of
a shared host falls on both sides.  The base side is written to
``BENCH_<NAME>-parent.json``.  Every child runs ``REPEATS`` times per
checkout; each numeric field is recorded as its median, min and max
beside the raw repeats in ``runs``.  Every measurement runs in a fresh
``python3`` subprocess with one BLAS thread, so peak RSS belongs to that
measurement alone:

- ``train_full_seed{0,1,2}``: wall time, peak RSS, minor page faults and
  system CPU seconds of one default-scale ``run_training(mode="full")``;
- ``train_gst32_seed3``: the same for one ``full`` run shaped like
  perfbench's ``train-gst32`` workload (32x32 scenes, 4 train and 4
  validation scenes, ``t_init`` 4, 12 rounds), where an activation is as
  large as glibc's default mmap threshold;
- ``evaluate``: wall time of ``evaluate`` at default scale and seed 0;
- ``step_128x128x28``: wall time, peak RSS, minor page faults and system
  CPU seconds of one batch-4 loss and backward at 128x128 pixels and 28
  bands, with g from the deviation network on the tape, as in a phi step;
- ``tier1``: wall time of the tier-1 test suite and its summary line;
- ``layers``: per-layer figures of the seed-0 full run, read through
  ``perfbench/tracer.py``.

The tier-1 suite runs once per checkout.  Uses only the standard
library and numpy.  Takes about four minutes per checkout on a 2-core
x86 machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPEATS = 3  # runs of each child per checkout
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _usage_since(r0):
    """Minor page faults and system CPU seconds since the getrusage snapshot r0."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return {"minflt": r.ru_minflt - r0.ru_minflt, "sys_s": r.ru_stime - r0.ru_stime}


GST32 = ({"t_init": 4, "rounds": 12},
         {"scene_h": 32, "scene_w": 32, "scenes_train": 4, "scenes_val": 4})


def _train(seed, cfg_kw=None, spec_kw=None):
    from casskit.harness import ScenarioSpec, build_experiment, run_training
    from casskit.trainer import TrainConfig

    exp = build_experiment(TrainConfig(seed=seed, **(cfg_kw or {})), ScenarioSpec(**(spec_kw or {})))
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    run_training(exp, mode="full")
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(), **_usage_since(r0)}


def _evaluate():
    from casskit.harness import ScenarioSpec, build_experiment, evaluate, run_training
    from casskit.trainer import TrainConfig

    # the weights do not change the work evaluate does
    exp = build_experiment(TrainConfig(seed=0), ScenarioSpec())
    state = run_training(exp, mode="untrained")
    t0 = time.perf_counter()
    evaluate(state, exp, "bench")
    return {"wall_s": time.perf_counter() - t0}


def _step():
    from casskit.backbone import srn_init
    from casskit.gstnet import gst_forward, gst_init
    from casskit.harness import gen_synth_scenes
    from casskit.ndgrad import backward
    from casskit.optics import Mask
    from casskit.trainer import TrainConfig, recon_loss

    cfg = TrainConfig(bands=28)
    rng = np.random.default_rng(0)
    batch = gen_synth_scenes(cfg.batch, 128, 128, cfg.bands, rng)
    mask = Mask(rng.uniform(0.05, 0.95, (128, 128)))
    theta = srn_init(cfg.bands, cfg.backbone_channels, cfg.backbone_blocks, rng)
    phi = gst_init(cfg.gst_channels, cfg.gst_proj_channels, rng)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    loss = recon_loss(theta, gst_forward(mask, phi), batch, mask, cfg, rng)
    backward(loss)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(), **_usage_since(r0)}


def _layers():
    from casskit import harness
    from casskit.trainer import TrainConfig
    from tracer import Tracer

    exp = harness.build_experiment(TrainConfig(seed=0), harness.ScenarioSpec())
    tracer = Tracer()
    with tracer.installed():
        # looked up on the module, so the call goes through the tracer's rebinding
        state = harness.run_training(exp, mode="full")
    # the tracer times Adam steps but not whose they are; as in perfbench's
    # worker, the split comes from the returned state
    tracer.counts["steps_theta"] = state.adam_theta.t
    tracer.counts["steps_phi"] = state.adam_phi.t
    return {name: value for name, (value, _unit) in tracer.layer_metrics().items()}


CHILDREN = {
    "train_full_seed0": lambda: _train(0),
    "train_full_seed1": lambda: _train(1),
    "train_full_seed2": lambda: _train(2),
    "train_gst32_seed3": lambda: _train(3, *GST32),
    "evaluate": _evaluate,
    "step_128x128x28": _step,
    "layers": _layers,
}


def _env():
    return dict(os.environ, **{k: "1" for k in BLAS_ENV})


def _run_child(root, name):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name, "--root", str(root)]
    out = subprocess.run(cmd, cwd=root, env=_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(runs):
    """Median, min and max of each numeric field, beside the raw runs."""
    out = {"runs": runs}
    for key, value in runs[0].items():
        if isinstance(value, (int, float)):
            vals = [r[key] for r in runs]
            out[key] = {"median": statistics.median(vals), "min": min(vals), "max": max(vals)}
    return out


def _tier1(root):
    env = _env()
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": out.returncode, "summary": lines[-1] if lines else ""}


def _machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": 1, "platform": platform.platform()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", help="names the output file BENCH_<tag>.json")
    ap.add_argument("--root", type=Path, default=HERE.parent, help="checkout to measure")
    ap.add_argument("--base", type=Path, help="second checkout measured alternately with --root")
    ap.add_argument("--out", type=Path, default=HERE, help="directory for the output file")
    ap.add_argument("--child", choices=sorted(CHILDREN), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.child:
        sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
        print(json.dumps(CHILDREN[args.child]()))
        return 0
    if not args.tag:
        ap.error("--tag is required")
    sides = {args.tag: root}
    if args.base:
        sides[f"{args.tag}-parent"] = args.base.resolve()
    runs = {tag: {name: [] for name in CHILDREN} for tag in sides}
    for name in CHILDREN:
        for i in range(REPEATS):
            order = list(sides) if i % 2 else list(sides)[::-1]  # the base first on even repeats
            for tag in order:
                print(f"bench: {name} {i + 1}/{REPEATS} {tag}", file=sys.stderr)
                runs[tag][name].append(_run_child(sides[tag], name))
    args.out.mkdir(parents=True, exist_ok=True)
    for tag, side_root in sides.items():
        result = {"tag": tag, "machine": _machine(), "repeats": REPEATS}
        result.update({name: _summary(r) for name, r in runs[tag].items()})
        print(f"bench: tier1 {tag}", file=sys.stderr)
        result["tier1"] = _tier1(side_root)
        path = args.out / f"BENCH_{tag}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
