"""Command-line front end.

Subcommands mirror the library surface: ``gen-masks`` writes the
scenario's train and test masks, ``train`` produces a checkpoint,
``eval`` scores it on held-out masks, ``ablate`` runs the controls,
``uncertainty`` writes mask-variation variance maps, and ``gradcheck``
runs the finite-difference verification of the gradient engine.

Exit codes: 0 success, 2 usage/config/data errors (message on stderr),
1 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, io
from .trainer import REGIMES, config_text, load_state, save_state, train_regime

__all__ = ["main"]


def _read_config(args):
    """The run's (TrainConfig, ScenarioSpec): ``--config``, then ``--seed``."""
    text = ""
    if args.config is not None:
        try:
            with open(args.config) as f:
                text = f.read()
        except OSError as e:
            raise io.ConfigError(f"cannot read config {args.config!r}: {e}") from None
    cfg, spec = harness.load_config(text)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg, spec


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out-dir", required=True, help="output directory")


def _cmd_gen_masks(args):
    cfg, spec = _read_config(args)
    exp = harness.build_experiment(cfg, spec)
    harness.write_masks(args.out_dir, exp)
    print(
        f"wrote {len(exp.train_masks)} train and {len(exp.test_masks)} test masks "
        f"to {args.out_dir}"
    )
    return 0


def _check_resume_config(cfg, spec, state):
    """Refuse to resume on other data or settings than the checkpoint's.

    The training config and the scenario, which picks the scenes and
    masks, must both match.  Only ``rounds`` may differ, and only upward:
    that trains the run further.
    """
    if state.scenario is None:
        raise io.ConfigError(
            "--resume: the checkpoint records no scenario; it needs the "
            "'meta/scenario' blob"
        )
    ours = io.parse_config(harness.run_config_text(cfg, spec))
    theirs = io.parse_config(config_text(state.cfg) + state.scenario)
    keys = sorted(
        k for k in ours
        if ours[k] != theirs.get(k)
        and not (k == "rounds" and cfg.rounds > state.cfg.rounds)
    )
    if keys:
        raise io.ConfigError(
            "--resume: config differs from the checkpoint's in "
            + ", ".join(f"{k} (given {ours[k]}, checkpoint {theirs.get(k)})" for k in keys)
            + "; only rounds may change, and only upward"
        )


def _cmd_train(args):
    cfg, spec = _read_config(args)
    spec.require_evaluable()  # eval would refuse the checkpoint
    exp = harness.build_experiment(cfg, spec)
    if args.resume:
        # the checkpoint's own regime; --mode does not apply
        state = load_state(args.resume)
        _check_resume_config(cfg, spec, state)
        state.cfg = cfg
        train_regime(state, exp.train_scenes, exp.val_scenes, exp.train_masks)
    else:
        state = harness.run_training(exp, mode=args.mode)
    os.makedirs(args.out_dir, exist_ok=True)
    save_state(state, os.path.join(args.out_dir, "checkpoint.ckp"))
    io.write_loss_log_csv(os.path.join(args.out_dir, "loss_log.csv"), state.log)
    with open(os.path.join(args.out_dir, "config.txt"), "w", newline="") as f:
        f.write(harness.run_config_text(cfg, spec))
    last = state.log[-1]["loss"] if state.log else float("nan")
    print(f"trained to epoch {state.epoch} (round {state.round}); last loss {last:.6g}")
    print(f"checkpoint: {os.path.join(args.out_dir, 'checkpoint.ckp')}")
    return 0


def _cmd_eval(args):
    cfg, spec = _read_config(args)
    state = load_state(args.checkpoint)
    exp = harness.build_experiment(cfg, spec)
    report = harness.evaluate(state, exp, spec.kind)
    os.makedirs(args.out_dir, exist_ok=True)
    io.write_metrics_csv(os.path.join(args.out_dir, "metrics.csv"), report.rows)
    harness.write_summary(os.path.join(args.out_dir, "summary.csv"), report)
    agg = report.aggregate()["overall"]
    print(
        f"{len(report.rows)} rows; psnr {agg['psnr_mean']:.3f} dB "
        f"(std {agg['psnr_std']:.3f}), ssim {agg['ssim_mean']:.4f}"
    )
    return 0


def _cmd_ablate(args):
    cfg, spec = _read_config(args)
    results = harness.run_ablation(args.kind, cfg, spec, out_dir=args.out_dir)
    for label, report in results.items():
        agg = report.aggregate()["overall"]
        print(f"{label}: psnr {agg['psnr_mean']:.3f} dB, ssim {agg['ssim_mean']:.4f}")
    return 0


def _cmd_uncertainty(args):
    cfg, spec = _read_config(args)
    state = load_state(args.checkpoint)
    exp = harness.build_experiment(cfg, spec)
    maps = harness.uncertainty_maps(state, exp, out_dir=args.out_dir)
    for scene_id, (var, _mean) in enumerate(maps):
        print(f"scene {scene_id}: variance mean {var.mean():.6g}, max {var.max():.6g}")
    return 0


def _cmd_gradcheck(args):
    rows = harness.run_gradient_suite(quick=args.quick)
    bad = 0
    for name, err, tol, ok in rows:
        mark = "ok " if ok else "FAIL"
        print(f"{mark} {name:12s} max rel err {err:.3e} (tol {tol:.0e})")
        bad += 0 if ok else 1
    return 0 if bad == 0 else 2


def _build_parser():
    p = argparse.ArgumentParser(
        prog="casskit",
        description="coded-aperture snapshot spectral imaging toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("gen-masks", help="write the scenario's train/test masks")
    _add_common(q)
    q.set_defaults(fn=_cmd_gen_masks)

    q = sub.add_parser("train", help="train and write a checkpoint")
    _add_common(q)
    q.add_argument(
        "--mode",
        default="full",
        # fixed-variance needs its spread g0, which only `ablate` sets
        choices=[m for m in REGIMES if m not in ("untrained", "fixed-variance")],
        help="training regime",
    )
    q.add_argument(
        "--resume",
        help="checkpoint to continue in its own regime (ignores --mode); its "
        "config and scenario keys must match, except that rounds may grow",
    )
    q.set_defaults(fn=_cmd_train)

    q = sub.add_parser("eval", help="score a checkpoint on held-out masks")
    _add_common(q)
    q.add_argument("--checkpoint", required=True)
    q.set_defaults(fn=_cmd_eval)

    q = sub.add_parser("ablate", help="run a control experiment family")
    _add_common(q)
    q.add_argument(
        "--kind",
        required=True,
        choices=harness.ABLATIONS,
    )
    q.set_defaults(fn=_cmd_ablate)

    q = sub.add_parser("uncertainty", help="write mask-variation variance maps")
    _add_common(q)
    q.add_argument("--checkpoint", required=True)
    q.set_defaults(fn=_cmd_uncertainty)

    q = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    q.add_argument("--quick", action="store_true", help="fewer random trials")
    q.set_defaults(fn=_cmd_gradcheck)

    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (io.FormatError, io.ConfigError, ValueError, OSError) as e:
        print(f"casskit: error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
