"""Run one benchmark workload in this process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

Each workload is a closed loop with one caller: the next optimizer step
or reconstruction starts only when the previous one has returned.  A
*unit* is one fixed piece of the workload's work: a whole training run,
a checkpoint round trip, an evaluation and a set of uncertainty maps.
One untimed unit warms up; timed units then repeat while the next one is
expected to end within ``--seconds``, at least once.  With ``--trace 1``
one more unit runs under the span tracer; the per-layer figures replace
the end-to-end ones, and the tracing overhead compares the traced unit
with the timed untraced ones.

Writes ``DIR/result.json``, and with ``--trace 1`` the spans to
``DIR/spans.json``.  ``DIR/progress.json`` is rewritten around
every unit, so that if this process dies its parent can still count the
operations it did not finish as failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# Set-ups timed before each timed unit.  The host's speed switches between
# states lasting seconds, so set-ups spread over the run give a steadier
# median than the same number timed back to back.
SETUPS_PER_UNIT = 2
# Step latency tail: p90, so a run needs at least 100 timed steps.
TAIL = 90

# name: (TrainConfig overrides, ScenarioSpec overrides).  Units last about
# 7-12 s on a 2-core x86 machine, so a run of --seconds 45 holds four to six
# and the metrics can take medians over them.  Why each workload exists is in
# README.md.
WORKLOADS = {
    "train-small": ({"rounds": 5}, {}),
    "train-gst32": (
        {"t_init": 4, "rounds": 12},
        {"scene_h": 32, "scene_w": 32, "scenes_train": 4, "scenes_val": 4},
    ),
}


def _casskit_modules():
    return {n: m for n, m in sys.modules.items() if n == "casskit" or n.startswith("casskit.")}


def _load_casskit():
    """(Re)import casskit from this checkout's src/ and return the package."""
    for name in _casskit_modules():
        del sys.modules[name]
    ck = importlib.import_module("casskit")
    if not Path(ck.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"casskit imported from {ck.__file__}, not from {ROOT / 'src'}")
    return ck


def _diffs_ms(start, ticks):
    edges = [start] + ticks
    return [1e3 * (b - a) for a, b in zip(edges, edges[1:])]


def same_state(a, b):
    """True when two TrainStates agree bit for bit in everything a resume reads."""

    def arrays_equal(x, y):
        return x.shape == y.shape and x.tobytes() == y.tobytes()

    def adam_equal(x, y):
        if x is None or y is None:
            return x is y
        return x.t == y.t and all(
            arrays_equal(x.m[n], y.m[n]) and arrays_equal(x.v[n], y.v[n]) for n, _ in x.named
        )

    def params_equal(x, y):
        if x is None or y is None:
            return x is y
        px, py = x.parameters(), y.parameters()
        return [n for n, _ in px] == [n for n, _ in py] and all(
            arrays_equal(s.data, t.data) for (_, s), (_, t) in zip(px, py)
        )

    return (
        params_equal(a.theta, b.theta)
        and params_equal(a.phi, b.phi)
        and adam_equal(a.adam_theta, b.adam_theta)
        and adam_equal(a.adam_phi, b.adam_phi)
        and a.rngs.keys() == b.rngs.keys()
        and all(a.rngs[k].bit_generator.state == b.rngs[k].bit_generator.state for k in a.rngs)
        and (a.epoch, a.round, a.log) == (b.epoch, b.round, b.log)
    )


class Workload:
    def __init__(self, name, seed, out):
        self.name = name
        self.seed = seed
        self.out = out
        self.cfg_kw, self.spec_kw = WORKLOADS[name]
        self.min_ops = -(-10 * 100 // (100 - TAIL))  # ten samples beyond the tail
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self.step_ticks = []
        self.recon_ticks = []
        self.setups = []

    # -- bookkeeping -----------------------------------------------------------

    def check(self, name, fn):
        """Run one correctness check; ``fn`` returns (ok, detail)."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as e:  # a check that raises has failed; keep going
            ok, detail = False, f"{type(e).__name__}: {e}"
        if not ok:
            self.failed += 1
        self.checks.append([name, bool(ok), str(detail)])

    def progress(self, pending=0):
        """Record counts as if ``pending`` operations in flight will all fail."""
        (self.out / "progress.json").write_text(json.dumps(
            {"attempted": self.attempted + pending, "failed": self.failed + pending}))

    # -- set-up ----------------------------------------------------------------

    def setup(self):
        """Import casskit, build the experiment, make a fresh state; time it."""
        t0 = time.perf_counter()
        ck = _load_casskit()
        cfg = ck.trainer.TrainConfig(seed=self.seed, **self.cfg_kw)
        spec = ck.harness.ScenarioSpec(**self.spec_kw)
        exp = ck.harness.build_experiment(cfg, spec)
        ck.trainer.make_state(cfg)
        self.setups.append(time.perf_counter() - t0)
        return ck, exp

    def sample_setup(self):
        """Time one more set-up, then put back the casskit modules in use."""
        in_use = _casskit_modules()
        self.setup()
        for name in _casskit_modules():
            del sys.modules[name]
        sys.modules.update(in_use)

    def install_ticks(self):
        """Timestamp each finished optimizer step and reconstruction."""
        adam = self.ck.trainer.Adam
        step = adam.step
        recon = self.ck.harness.reconstruct_scene
        steps, recons = self.step_ticks, self.recon_ticks

        def ticking_step(opt, lr):
            step(opt, lr)
            steps.append(time.perf_counter())

        def ticking_recon(*args):
            out = recon(*args)
            recons.append(time.perf_counter())
            return out

        adam.step = ticking_step
        self.ck.harness.reconstruct_scene = ticking_recon

    def unit_ops(self, exp):
        """(optimizer steps, reconstructions, training samples) in one unit."""
        cfg, spec = exp.cfg, exp.spec
        ntr, nval = spec.scenes_train, spec.scenes_val
        recons = spec.scenes_test * (spec.trials + len(exp.test_masks))
        per = lambda n: -(-n // cfg.batch)  # noqa: E731  batches per epoch
        steps = cfg.t_init * per(ntr) + cfg.rounds * (cfg.t_trn * per(ntr) + cfg.t_val * per(nval))
        samples = cfg.t_init * ntr + cfg.rounds * (cfg.t_trn * ntr + cfg.t_val * nval)
        return steps, recons, samples

    # -- units -----------------------------------------------------------------

    def run_unit(self, exp):
        """One unit; on failure count what it did not finish as failed."""
        steps, recons, samples = self.unit_ops(exp)
        planned = steps + recons
        self.step_ticks.clear()
        self.recon_ticks.clear()
        self.progress(pending=planned)
        t0 = time.perf_counter()
        try:
            u = self.train_unit(exp)
        except Exception as e:  # counted, reported, and the run stops timing
            traceback.print_exc()
            done = len(self.step_ticks) + len(self.recon_ticks)
            self.attempted += planned
            self.failed += planned - done
            self.checks.append(["unit", False, f"{type(e).__name__}: {e}"])
            self.progress()
            return None
        u["wall_s"] = time.perf_counter() - t0
        u["samples"] = samples
        self.attempted += planned
        self.progress()
        return u

    def train_unit(self, exp):
        h, t = self.ck.harness, self.ck.trainer
        t0 = time.perf_counter()
        state = h.run_training(exp, mode="full")
        seconds = time.perf_counter() - t0
        op_ms = _diffs_ms(t0, list(self.step_ticks))
        path = str(self.out / "state.ckp")
        t.save_state(state, path)
        loaded = t.load_state(path)
        report = h.evaluate(state, exp, "full")
        maps = h.uncertainty_maps(state, exp, str(self.out / "maps"))
        return {"seconds": seconds, "op_ms": op_ms, "state": state, "loaded": loaded,
                "rows": report.rows, "psnr": report.aggregate()["overall"]["psnr_mean"],
                "maps": maps}

    # -- checks ----------------------------------------------------------------

    def gradient_suite(self):
        rows = self.ck.harness.run_gradient_suite(quick=True)
        bad = [f"{name} {err:.2e} >= {tol:.0e}" for name, err, tol, ok in rows if not ok]
        return not bad, f"{len(rows)} rows" + (": " + "; ".join(bad) if bad else "")

    def output_checks(self, units, untrained_psnr, exp):
        first = units[0]
        io, trainer = self.ck.io, self.ck.trainer

        def losses_finite():
            losses = [e["loss"] for u in units for e in u["state"].log]
            return all(map(math.isfinite, losses)), f"{len(losses)} logged losses"

        def gst_oracle():
            rng = np.random.default_rng([self.seed, 1])
            m = exp.train_masks[int(rng.integers(len(exp.train_masks)))].values
            phi = first["state"].phi
            got = self.ck.gstnet.gst_forward(m, phi).data
            ok, err = oracles.check_close(got, oracles.gst_reference(oracles.param_arrays(phi), m))
            return ok, f"max relative error {err:.2e} (tol {oracles.RTOL:.0e})"

        def backbone_oracle():
            rng = np.random.default_rng([self.seed, 2])
            x = exp.test_scenes[int(rng.integers(len(exp.test_scenes)))]
            m = exp.test_masks[int(rng.integers(len(exp.test_masks)))]
            y = self.ck.optics.encode(x, m, exp.cfg.d)
            got = trainer.reconstruct_scene(first["state"].theta, y, m)
            ref = oracles.backbone_reference(
                oracles.param_arrays(first["state"].theta), y.values, m.values,
                exp.cfg.d, exp.cfg.bands)
            ok, err = oracles.check_close(got, ref)
            return ok, f"max relative error {err:.2e} (tol {oracles.RTOL:.0e})"

        def metrics_valid():
            rows = [r for u in units for r in u["rows"]]
            ok = all(math.isfinite(p) and -1.0 <= s <= 1.0 for _, _, p, s in rows)
            return ok, f"{len(rows)} (psnr, ssim) rows"

        def maps_valid():
            for i, (var, mean) in enumerate(first["maps"]):
                if not (np.all(np.isfinite(var)) and np.all(var >= 0.0) and np.all(np.isfinite(mean))):
                    return False, f"scene {i}: variance not finite and >= 0"
                back = io.load_cube(str(self.out / "maps" / f"scene{i}_variance.hsc"))
                if not np.array_equal(back, var.astype(np.float32).astype(np.float64)):
                    return False, f"scene {i}: written variance cube does not read back"
            return True, f"{len(first['maps'])} scenes"

        self.check("losses-finite", losses_finite)
        self.check("beats-untrained", lambda: (
            first["psnr"] > untrained_psnr,
            f"heldout {first['psnr']:.3f} dB vs untrained {untrained_psnr:.3f} dB"))
        self.check("checkpoint-roundtrip", lambda: (
            all(same_state(u["state"], u["loaded"]) for u in units),
            "params, Adam state, RNG streams, counters and log"))
        self.check("gst-oracle", gst_oracle)
        self.check("backbone-oracle", backbone_oracle)
        self.check("metrics-valid", metrics_valid)
        self.check("maps-valid", maps_valid)

    # -- the run -----------------------------------------------------------------

    def run(self, seconds, trace):
        self.ck, exp = self.setup()
        self.check("gradient-suite", self.gradient_suite)
        h = self.ck.harness
        untrained = h.evaluate(h.run_training(exp, mode="untrained"), exp, "untrained")
        untrained_psnr = untrained.aggregate()["overall"]["psnr_mean"]
        self.install_ticks()

        gc.collect()
        # The first unit warms the allocator and caches and is not timed: the
        # first unit of a fresh process is about 20% slower, and mixing it into
        # the medians made the figures depend on how many units fit in a run.
        # Timed units repeat while the next one, as long as the median one so
        # far, still ends within --seconds; so a run measures for close to
        # --seconds and never much longer, whatever the unit length.
        units = [self.run_unit(exp)]
        start = time.perf_counter()
        while units[-1] is not None and (
                len(units) < 2
                or sum(len(u["op_ms"]) for u in units[1:]) < self.min_ops
                or time.perf_counter() - start
                + statistics.median(u["wall_s"] for u in units[1:]) <= seconds):
            for _ in range(SETUPS_PER_UNIT):
                self.sample_setup()
            units.append(self.run_unit(exp))
        units = [u for u in units if u is not None]
        timed = units[1:]

        metrics = {}
        tracer = None
        if timed and trace:
            tracer = Tracer()
            gc.collect()
            with tracer.installed():
                traced_exp = h.build_experiment(exp.cfg, exp.spec)
                traced = self.run_unit(traced_exp)
            if traced is not None:
                tracer.counts["steps_theta"] = traced["state"].adam_theta.t
                tracer.counts["steps_phi"] = traced["state"].adam_phi.t
                base = statistics.median(u["wall_s"] for u in timed)
                units.append(traced)
                metrics = tracer.layer_metrics()
                metrics["trace.overhead_pct"] = (100.0 * (traced["wall_s"] / base - 1.0), "%")
                (self.out / "spans.json").write_text(json.dumps(
                    {"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}))

        if units:
            self.check("units-identical", lambda: (
                all(u["rows"] == units[0]["rows"] and u["state"].log == units[0]["state"].log
                    for u in units),
                f"{len(units)} units{' (last traced)' if tracer else ''}"))
            self.output_checks(units, untrained_psnr, exp)
            if timed and not trace:
                ops = [x for u in timed for x in u["op_ms"]]
                metrics = {
                    "setup_s": (statistics.median(self.setups), "s"),
                    "samples_per_s": (statistics.median(
                        u["samples"] / u["seconds"] for u in timed), "1/s"),
                    "op_ms_p50": (float(np.percentile(ops, 50)), "ms"),
                    "op_ms_tail": (float(np.percentile(ops, TAIL)), "ms"),
                }
        return {"workload": self.name, "seed": self.seed, "units": len(units),
                "attempted": self.attempted, "failed": self.failed, "checks": self.checks,
                "metrics": {k: [float(v), u] for k, (v, u) in metrics.items()},
                "env": env_info()}


def env_info():
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    result = Workload(args.workload, args.seed, args.out).run(args.seconds, args.trace)
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
