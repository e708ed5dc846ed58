"""Scenario harness and command-line flows on micro-sized problems.

Everything here trains for at most a couple of epochs on 6x6 scenes; the
point is wiring (routing, budgets, emitted files, exit codes), not
reconstruction quality.
"""

import json
import re
import shlex
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from casskit import harness
from casskit.cli import _build_parser, main
from casskit.harness import (
    ABLATIONS,
    ScenarioSpec,
    build_experiment,
    evaluate,
    gen_synth_scenes,
    load_config,
    run_ablation,
    run_gradient_suite,
    run_scenario,
    run_training,
    uncertainty_maps,
    write_summary,
)
from casskit.io import (
    ConfigError,
    coerce_dataclass,
    load_checkpoint,
    load_cube,
    load_mask,
    parse_config,
    save_checkpoint,
)
from casskit.metrics import TrialReport
from casskit.optics import Mask
from casskit.trainer import (
    REGIMES,
    TrainConfig,
    TrainingDiverged,
    config_text,
    load_state,
    make_state,
    save_state,
    state_blobs,
    state_from_blobs,
)


def tiny_cfg(**kw):
    base = dict(
        bands=2, d=1, backbone_channels=4, backbone_blocks=1,
        gst_channels=4, gst_proj_channels=2, batch=2,
        t_init=1, t_trn=1, t_val=1, rounds=1, seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


def tiny_spec(**kw):
    # 12x12 is the smallest comfortable size: ssim needs 11x11 windows
    base = dict(
        scene_h=12, scene_w=12, scenes_train=2, scenes_val=1, scenes_test=1,
        mask_base_h=24, mask_base_w=24, k_train=2, k_test=2, trials=2,
    )
    base.update(kw)
    return ScenarioSpec(**base)


# -- scenario spec and config routing ---------------------------------------

def test_spec_kind_validation():
    with pytest.raises(ValueError, match="unknown scenario kind"):
        tiny_spec(kind="sideways").validate()
    with pytest.raises(ValueError, match="one-to-one requires"):
        tiny_spec(kind="one-to-one", k_train=2, k_test=1).validate()
    with pytest.raises(ValueError, match="one-to-many requires k_train = 1"):
        tiny_spec(kind="one-to-many", k_train=3).validate()
    tiny_spec(kind="one-to-one", k_train=1, k_test=1).validate()
    tiny_spec(kind="one-to-many", k_train=1, k_test=4).validate()


def test_spec_geometry_validation():
    with pytest.raises(ValueError, match="mask base"):
        tiny_spec(mask_base_h=4).validate()
    with pytest.raises(ValueError, match="density"):
        tiny_spec(mask_density=1.5).validate()
    with pytest.raises(ValueError, match="trials"):
        tiny_spec(trials=0).validate()
    with pytest.raises(ValueError, match="at least 4x4"):
        tiny_spec(scene_h=3).validate()


def test_load_config_routes_between_dataclasses():
    cfg, spec = load_config("alpha0=0.001\ntrials=3\nbands=5\nscene_h=8\nscene_w=8\n")
    assert cfg.alpha0 == 0.001
    assert cfg.bands == 5
    assert spec.trials == 3
    assert spec.scene_h == 8


@pytest.mark.parametrize("line", [
    "noise_mode=fixed", "noise_max=0.05", "eps_mean=0.0", "eps_std=1.0",
    "perturb_encode=true", "loss_scale=mean", "pretrain_perturb=true", "entropy_flip=false",
])
def test_deleted_config_keys_are_rejected_by_name(line):
    # training noise is noise_std alone, eps is N(0, 1),
    # measurements are always re-encoded through the perturbed mask, the
    # loss is always a mean, pretrain always perturbs through phi, and the
    # sign of the entropy term is the sign of beta
    key = line.partition("=")[0]
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
        load_config(line + "\n")
    blobs = state_blobs(make_state(tiny_cfg()))
    blobs["meta/config"] += line + "\n"
    with pytest.raises(ConfigError, match=key):
        state_from_blobs(blobs)


@pytest.mark.parametrize("line", [
    "beta=nan", "alpha1=nan", "noise_std=inf", "prior_sigma=nan", "prior_mu=-inf",
    "eval_noise_std=nan", "mask_density=nan",
])
def test_nonfinite_config_floats_are_rejected_by_name(line):
    # "x < 0" is False for nan, so every range check alone would let one through
    key = line.partition("=")[0]
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        load_config(line + "\n")
    if key in {f.name for f in fields(TrainConfig)}:
        blobs = state_blobs(make_state(tiny_cfg()))
        blobs["meta/config"] = re.sub(rf"^{key}=.*$", line, blobs["meta/config"],
                                      flags=re.M)
        assert line in blobs["meta/config"].splitlines()
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            state_from_blobs(blobs)


@pytest.mark.parametrize("cls", [TrainConfig, ScenarioSpec])
def test_config_fields_refuse_a_value_of_another_type(cls):
    # a float in an int field trains, then writes a checkpoint its own loader refuses;
    # an int may fill a float field, and a bool fills neither
    cases = [(f.name, bad) for f in fields(cls) if type(f.default) is int for bad in (2.0, True)]
    cases += [(f.name, True) for f in fields(cls) if type(f.default) is float]
    assert len(cases) > 10
    for key, bad in cases:
        with pytest.raises(ValueError, match=key):
            cls(**{key: bad}).validate()


@pytest.mark.parametrize("cfg, spec", [
    (TrainConfig(), ScenarioSpec()),
    (tiny_cfg(beta=-0.25, noise_std=0, prior_mu=1), tiny_spec(kind="one-to-many", k_train=1)),
])
def test_config_text_of_both_parts_reads_back(cfg, spec):
    cfg.validate()
    spec.validate()
    items = parse_config(config_text(cfg, spec))
    assert coerce_dataclass(items, TrainConfig, ScenarioSpec) == (cfg, spec)


def test_load_config_empty_gives_defaults():
    cfg, spec = load_config("")
    assert cfg == TrainConfig()
    assert spec == ScenarioSpec()


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: warp"):
        load_config("warp=1\n")


# -- synthetic scenes -------------------------------------------------------

def test_scenes_shape_range_and_peak():
    rng = np.random.default_rng(7)
    scenes = gen_synth_scenes(3, 8, 10, 4, rng)
    assert len(scenes) == 3
    for x in scenes:
        assert x.values.shape == (8, 10, 4)
        assert x.values.min() >= 0.0
        assert x.values.max() == 1.0


def test_scenes_deterministic_per_seed():
    a = gen_synth_scenes(2, 6, 6, 2, np.random.default_rng(5))
    b = gen_synth_scenes(2, 6, 6, 2, np.random.default_rng(5))
    c = gen_synth_scenes(2, 6, 6, 2, np.random.default_rng(6))
    for xa, xb in zip(a, b):
        np.testing.assert_array_equal(xa.values, xb.values)
    assert not np.array_equal(a[0].values, c[0].values)


def test_scenes_argument_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="4x4"):
        gen_synth_scenes(1, 3, 8, 2, rng)
    with pytest.raises(ValueError, match="bands"):
        gen_synth_scenes(1, 8, 8, 0, rng)


# -- experiment assembly ----------------------------------------------------

def test_build_experiment_counts_and_validity():
    exp = build_experiment(tiny_cfg(), tiny_spec())
    assert len(exp.train_scenes) == 2
    assert len(exp.val_scenes) == 1
    assert len(exp.test_scenes) == 1
    assert len(exp.train_masks) == 2
    assert len(exp.test_masks) == 2


def test_build_experiment_masks_disjoint_many_to_many():
    exp = build_experiment(tiny_cfg(), tiny_spec())
    for tr in exp.train_masks:
        for te in exp.test_masks:
            assert not np.array_equal(tr.values, te.values)


def test_build_experiment_one_to_one_shares_the_mask():
    spec = tiny_spec(kind="one-to-one", k_train=1, k_test=1)
    exp = build_experiment(tiny_cfg(), spec)
    assert len(exp.train_masks) == 1
    assert len(exp.test_masks) == 1
    np.testing.assert_array_equal(
        exp.train_masks[0].values, exp.test_masks[0].values
    )


def test_build_experiment_masks_are_tuples_of_scene_shaped_masks():
    for kind, k_train, k_test in (("one-to-one", 1, 1), ("one-to-many", 1, 3),
                                  ("many-to-many", 2, 2)):
        spec = tiny_spec(kind=kind, k_train=k_train, k_test=k_test)
        exp = build_experiment(tiny_cfg(), spec)
        assert type(exp.train_masks) is tuple and type(exp.test_masks) is tuple, kind
        assert len(exp.train_masks) == k_train >= 1, kind
        assert all(isinstance(m, Mask) and m.values.shape == (spec.scene_h, spec.scene_w)
                   for m in exp.train_masks + exp.test_masks), kind
        if kind == "one-to-one":
            assert exp.test_masks is exp.train_masks
            continue
        assert len(exp.test_masks) == k_test, kind
        for te in exp.test_masks:
            assert not any(np.array_equal(te.values, tr.values) for tr in exp.train_masks), kind


def test_build_experiment_deterministic():
    a = build_experiment(tiny_cfg(), tiny_spec())
    b = build_experiment(tiny_cfg(), tiny_spec())
    np.testing.assert_array_equal(a.train_scenes[0].values, b.train_scenes[0].values)
    np.testing.assert_array_equal(a.train_masks[0].values, b.train_masks[0].values)


# -- training regimes -------------------------------------------------------

def test_run_training_budgets_and_modes():
    cfg = tiny_cfg()
    exp = build_experiment(cfg, tiny_spec())

    untrained = run_training(exp, mode="untrained")
    assert untrained.epoch == 0 and untrained.log == []

    full = run_training(exp, mode="full")
    assert full.round == cfg.rounds
    phases = {row["phase"] for row in full.log}
    assert phases == {"pretrain", "train", "val"}

    ensemble = run_training(exp, mode="fixed-variance")
    assert ensemble.phi is None
    assert ensemble.epoch == cfg.t_init + cfg.rounds * cfg.t_trn

    joint = run_training(exp, mode="no-bilevel")
    assert joint.epoch == cfg.t_init + cfg.rounds * cfg.t_trn
    assert {row["phase"] for row in joint.log} == {"pretrain", "joint"}

    with pytest.raises(ValueError, match="regime .*'mode': 'sideways'.* must have a mode in"):
        run_training(exp, mode="sideways")


def test_fixed_variance_uses_g0():
    cfg = tiny_cfg()
    exp = build_experiment(cfg, tiny_spec())
    a = state_blobs(run_training(exp, mode="fixed-variance", fixed_g=0.0))
    b = state_blobs(run_training(exp, mode="fixed-variance", fixed_g=0.3))
    same = all(
        np.array_equal(v, b[k])
        for k, v in a.items()
        if isinstance(v, np.ndarray) and k.startswith("theta/")
    )
    assert not same


# -- evaluation and emitted files -------------------------------------------

def test_evaluate_row_count_and_determinism():
    spec = tiny_spec()
    exp = build_experiment(tiny_cfg(), spec)
    state = run_training(exp, mode="untrained")
    r1 = evaluate(state, exp, "a")
    r2 = evaluate(state, exp, "a")
    assert len(r1.rows) == spec.trials * len(exp.test_scenes)
    assert r1.rows == r2.rows


def test_evaluate_noise_changes_scores():
    cfg = tiny_cfg()
    exp_clean = build_experiment(cfg, tiny_spec())
    exp_noisy = build_experiment(cfg, tiny_spec(eval_noise_std=0.05))
    state = run_training(exp_clean, mode="untrained")
    clean = evaluate(state, exp_clean, "a").rows
    noisy = evaluate(state, exp_noisy, "a").rows
    assert clean != noisy


def test_write_summary_layout(tmp_path):
    spec = tiny_spec(scenes_test=2, trials=3)
    exp = build_experiment(tiny_cfg(), spec)
    state = run_training(exp, mode="untrained")
    report = evaluate(state, exp, "a")
    p = tmp_path / "summary.csv"
    write_summary(p, report)
    lines = p.read_text().splitlines()
    assert lines[0] == "scope,psnr_mean,psnr_std,ssim_mean,ssim_std,n"
    assert len(lines) == 1 + 1 + 2
    assert lines[1].startswith("overall,")
    assert lines[2].startswith("scene0,") and lines[3].startswith("scene1,")


def test_write_summary_bytes(tmp_path):
    # floats at 9 decimals, inf and nan spelled out, one line per scene
    report = TrialReport("a")
    for row in ((0, 0, 20.0, 0.5), (0, 1, 22.5, 0.75), (1, 0, 30.25, 0.875), (1, 1, 29.0, 0.8)):
        report.add(*row)
    p = tmp_path / "summary.csv"
    write_summary(p, report)
    assert p.read_bytes() == (
        b"scope,psnr_mean,psnr_std,ssim_mean,ssim_std,n\n"
        b"overall,25.437500000,4.302524695,0.731250000,0.140729128,4\n"
        b"scene0,21.250000000,1.250000000,0.625000000,0.125000000,2\n"
        b"scene1,29.625000000,0.625000000,0.837500000,0.037500000,2\n"
    )
    # an exact reconstruction's PSNR is inf: equal values spread by 0, and
    # unequal ones that include an inf by inf, without a numpy warning
    perfect = TrialReport("a")
    perfect.add(0, 0, float("inf"), 1.0)
    mixed = TrialReport("a")
    for row in ((0, 0, float("inf"), 1.0), (0, 1, float("inf"), 1.0),
                (1, 0, float("inf"), 1.0), (1, 1, 30.5, 0.75)):
        mixed.add(*row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_summary(p, perfect)
        assert p.read_text().splitlines()[1:] == [
            "overall,inf,0.000000000,1.000000000,0.000000000,1",
            "scene0,inf,0.000000000,1.000000000,0.000000000,1",
        ]
        write_summary(p, mixed)
    assert p.read_text().splitlines()[1:] == [
        "overall,inf,inf,0.937500000,0.108253175,4",
        "scene0,inf,0.000000000,1.000000000,0.000000000,2",
        "scene1,inf,inf,0.875000000,0.125000000,2",
    ]


def test_run_scenario_emits_complete_tree(tmp_path):
    cfg, spec = tiny_cfg(), tiny_spec()
    out = tmp_path / "run"
    state, report = run_scenario(cfg, spec, out_dir=out, mode="untrained")
    for name in ("config.txt", "checkpoint.ckp", "loss_log.csv", "metrics.csv", "summary.csv"):
        assert (out / name).is_file(), name
    for name in ("train_00.msk", "train_01.msk", "test_00.msk", "test_01.msk"):
        assert (out / "masks" / name).is_file(), name
    # every artifact must parse back with the public readers
    assert load_checkpoint(out / "checkpoint.ckp")
    m = load_mask(out / "masks" / "train_00.msk")
    assert m.shape == (spec.scene_h, spec.scene_w)
    assert parse_config((out / "config.txt").read_text()) == parse_config(
        config_text(cfg, spec)
    )
    assert len(report.rows) == spec.trials * spec.scenes_test


def test_run_scenario_refuses_scenes_below_the_ssim_window_before_training(monkeypatch):
    from casskit import harness

    def no_training(*args, **kw):
        raise AssertionError("trained before refusing the scene size")

    monkeypatch.setattr(harness, "run_training", no_training)
    for h, w in ((8, 8), (12, 10)):
        spec = tiny_spec(scene_h=h, scene_w=w)
        with pytest.raises(ValueError, match=f"{h}x{w} are smaller than the 11x11 ssim"):
            run_scenario(tiny_cfg(), spec)
        with pytest.raises(ValueError, match="11x11 ssim"):
            run_ablation("no-bilevel", tiny_cfg(), spec)


def test_run_ablation_fixed_variance_labels(tmp_path):
    results = run_ablation("fixed-variance", tiny_cfg(), tiny_spec(), out_dir=tmp_path)
    assert set(results) == {"fixed-variance-g0", "fixed-variance-g0.1"}
    for label, report in results.items():
        assert len(report.rows) == 2
        assert (tmp_path / label / "summary.csv").is_file()


def test_prior_study_variants_rebuild_from_their_own_config(tmp_path):
    # a variant's config.txt records its prior: it rebuilds the variant's
    # masks, and eval under it reproduces the variant's reported summary
    results = run_ablation("prior-study", tiny_cfg(), tiny_spec(), out_dir=tmp_path)
    assert sorted(results) == [
        "prior-mu0-sigma1", "prior-mu0.006-sigma0.005", "prior-mu0.006-sigma0.1",
    ]
    for label in results:
        run = tmp_path / label
        cfg, spec = load_config((run / "config.txt").read_text())
        assert label == f"prior-mu{cfg.prior_mu:g}-sigma{cfg.prior_sigma:g}"
        assert load_state(run / "checkpoint.ckp").cfg == cfg
        exp = build_experiment(cfg, spec)
        for role, masks in (("train", exp.train_masks), ("test", exp.test_masks)):
            for i, m in enumerate(masks):
                np.testing.assert_array_equal(
                    load_mask(run / "masks" / f"{role}_{i:02d}.msk"),
                    m.values.astype(np.float32), err_msg=f"{label} {role} {i}",
                )
        out = tmp_path / f"{label}-eval"
        assert main(["eval", "--config", str(run / "config.txt"),
                     "--checkpoint", str(run / "checkpoint.ckp"),
                     "--out-dir", str(out)]) == 0
        assert (out / "summary.csv").read_text() == (run / "summary.csv").read_text()


def test_run_ablation_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown ablation"):
        run_ablation("everything", tiny_cfg(), tiny_spec())


def test_uncertainty_maps_outputs(tmp_path):
    cfg, spec = tiny_cfg(), tiny_spec()
    exp = build_experiment(cfg, spec)
    state = run_training(exp, mode="untrained")
    maps = uncertainty_maps(state, exp, out_dir=tmp_path)
    assert len(maps) == len(exp.test_scenes)
    var, mean = maps[0]
    assert var.shape == (spec.scene_h, spec.scene_w, cfg.bands)
    assert var.min() >= 0.0
    for name in (
        "scene0_variance.hsc", "scene0_mean.hsc",
        "scene0_var_band00.pgm", "scene0_var_band01.pgm", "scene0_stats.csv",
    ):
        assert (tmp_path / name).is_file(), name
    np.testing.assert_array_equal(
        load_cube(tmp_path / "scene0_variance.hsc"),
        var.astype("<f4").astype(np.float64),
    )


def test_uncertainty_stats_csv_lines(tmp_path):
    cfg, spec = tiny_cfg(), tiny_spec(scenes_test=2)
    exp = build_experiment(cfg, spec)
    maps = uncertainty_maps(run_training(exp, mode="untrained"), exp, out_dir=tmp_path)
    for scene_id, (var, _mean) in enumerate(maps):
        want = ["band,var_min,var_max,var_mean"] + [
            f"{band},{vb.min():.12g},{vb.max():.12g},{vb.mean():.12g}"
            for band, vb in enumerate(np.moveaxis(var, 2, 0))
        ]
        assert (tmp_path / f"scene{scene_id}_stats.csv").read_text() == "\n".join(want) + "\n"


def test_gradient_suite_quick_all_green():
    rows = run_gradient_suite(quick=True)
    names = [r[0] for r in rows]
    assert "end-to-end" in names
    for name, worst, tol, ok in rows:
        assert ok, f"{name}: {worst:.3e} >= {tol:.0e}"


# -- command line -----------------------------------------------------------

@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg, spec = tiny_cfg(seed=5), tiny_spec()
    cfg_path = root / "run.cfg"
    cfg_path.write_text(config_text(cfg, spec))
    train_dir = root / "train"
    rc = main(["train", "--config", str(cfg_path), "--out-dir", str(train_dir)])
    assert rc == 0
    return {"root": root, "cfg": cfg_path, "train": train_dir, "spec": spec}


def test_cli_gen_masks(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(config_text(tiny_cfg(), tiny_spec()))
    out = tmp_path / "masks"
    rc = main(["gen-masks", "--config", str(cfg_path), "--out-dir", str(out)])
    assert rc == 0
    assert "2 train and 2 test" in capsys.readouterr().out
    for name in ("train_00.msk", "train_01.msk", "test_00.msk", "test_01.msk"):
        assert load_mask(out / name).shape == (12, 12)


@pytest.mark.parametrize("kind", ["one-to-one", "one-to-many", "many-to-many"])
def test_cli_gen_masks_writes_the_experiments_masks(tmp_path, kind):
    # the written masks are the ones training and evaluation use, at float32
    k_train, k_test = {"one-to-one": (1, 1), "one-to-many": (1, 2)}.get(kind, (2, 2))
    cfg, spec = tiny_cfg(), tiny_spec(kind=kind, k_train=k_train, k_test=k_test)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(config_text(cfg, spec))
    out = tmp_path / "masks"
    assert main(["gen-masks", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    exp = build_experiment(cfg, spec)
    want = {f"train_{i:02d}.msk": m for i, m in enumerate(exp.train_masks)}
    want.update({f"test_{i:02d}.msk": m for i, m in enumerate(exp.test_masks)})
    assert sorted(p.name for p in out.iterdir()) == sorted(want)
    for name, m in want.items():
        np.testing.assert_array_equal(load_mask(out / name), m.values.astype(np.float32))


def test_cli_train_outputs(cli_env):
    train = cli_env["train"]
    for name in ("checkpoint.ckp", "loss_log.csv", "config.txt"):
        assert (train / name).is_file(), name
    text = (train / "loss_log.csv").read_text().splitlines()
    assert text[0] == "phase,round,epoch,loss,entropy"
    assert len(text) > 1


def test_cli_eval(cli_env, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main([
        "eval", "--config", str(cli_env["cfg"]),
        "--checkpoint", str(cli_env["train"] / "checkpoint.ckp"),
        "--out-dir", str(out),
    ])
    assert rc == 0
    spec = cli_env["spec"]
    rows = (out / "metrics.csv").read_text().splitlines()
    assert len(rows) == 1 + spec.trials * spec.scenes_test
    assert "psnr" in capsys.readouterr().out


def test_cli_uncertainty(cli_env, tmp_path, capsys):
    out = tmp_path / "unc"
    rc = main([
        "uncertainty", "--config", str(cli_env["cfg"]),
        "--checkpoint", str(cli_env["train"] / "checkpoint.ckp"),
        "--out-dir", str(out),
    ])
    assert rc == 0
    assert (out / "scene0_variance.hsc").is_file()
    assert "variance mean" in capsys.readouterr().out


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_and_run_scenario_write_one_run_tree(cli_env, tmp_path):
    # gen-masks, train and eval into one directory give run_scenario's tree, byte for byte
    cfg_path = str(cli_env["cfg"])
    with open(cfg_path) as f:
        cfg, spec = load_config(f.read())
    ref, out = tmp_path / "ref", tmp_path / "cli"
    run_scenario(cfg, spec, out_dir=ref, mode="full")
    for argv in (["gen-masks", "--out-dir", str(out / "masks")],
                 ["train", "--out-dir", str(out)],
                 ["eval", "--checkpoint", str(out / "checkpoint.ckp"), "--out-dir", str(out)]):
        assert main(argv[:1] + ["--config", cfg_path] + argv[1:]) == 0, argv[0]
    want = _tree(ref)
    assert {"config.txt", "checkpoint.ckp", "loss_log.csv", "metrics.csv", "summary.csv",
            "masks/train_00.msk", "masks/test_01.msk"} <= set(want)
    assert _tree(out) == want


def _same_blobs(got, want, what):
    assert set(got) == set(want), what
    for k, v in want.items():
        if isinstance(v, np.ndarray):
            np.testing.assert_array_equal(got[k], v, err_msg=f"{what} {k}")
        else:
            assert got[k] == v, (what, k)


def _train(cfg_path, mode, out_dir):
    """Train like ``casskit train --mode``; fixed-variance, which the CLI
    trains at the spread 0 only, is trained at 0.3 through the library."""
    if mode != "fixed-variance":
        assert main(["train", "--config", str(cfg_path), "--mode", mode,
                     "--out-dir", str(out_dir)]) == 0
        return
    with open(cfg_path) as f:
        cfg, spec = load_config(f.read())
    out_dir.mkdir(parents=True)
    save_state(run_training(build_experiment(cfg, spec), "fixed-variance", fixed_g=0.3),
               out_dir / "checkpoint.ckp")


def test_cli_train_resume_of_finished_run_is_a_noop(cli_env, tmp_path):
    # each checkpoint resumes in its own regime; --mode is not repeated
    cfg = str(cli_env["cfg"])
    for mode in ("full", "no-bilevel", "fixed-variance"):
        done, more = tmp_path / mode / "done", tmp_path / mode / "more"
        _train(cfg, mode, done)
        first = load_checkpoint(done / "checkpoint.ckp")
        assert json.loads(first["meta/regime"])["mode"] == mode
        rc = main(["train", "--config", cfg, "--resume", str(done / "checkpoint.ckp"),
                   "--out-dir", str(more)])
        assert rc == 0, mode
        _same_blobs(load_checkpoint(more / "checkpoint.ckp"), first, mode)


def test_cli_train_fixed_variance_is_the_zero_spread_baseline(cli_env, tmp_path, capsys):
    # `train --mode fixed-variance` writes the mask-ensemble baseline, spread 0,
    # in one step, and its --resume changes nothing; a checkpoint of the removed
    # no-gst regime is refused by its meta/regime blob
    cfg = str(cli_env["cfg"])
    done, more = tmp_path / "done", tmp_path / "more"
    assert main(["train", "--config", cfg, "--mode", "fixed-variance",
                 "--out-dir", str(done)]) == 0
    first = load_checkpoint(done / "checkpoint.ckp")
    assert json.loads(first["meta/regime"]) == {"fixed_g": 0.0, "mode": "fixed-variance"}
    with open(cfg) as f:
        exp = build_experiment(*load_config(f.read()))
    _same_blobs(first, state_blobs(run_training(exp, "fixed-variance")), "library")
    assert main(["train", "--config", cfg, "--resume", str(done / "checkpoint.ckp"),
                 "--out-dir", str(more)]) == 0
    _same_blobs(load_checkpoint(more / "checkpoint.ckp"), first, "resume")
    old = tmp_path / "old.ckp"
    save_checkpoint(old, {**first, "meta/regime": '{"fixed_g": null, "mode": "no-gst"}'})
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--checkpoint", str(old),
                 "--out-dir", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert "'meta/regime'" in err and "fixed-variance" in err


def test_cli_train_resume_without_regime_names_the_blob(cli_env, tmp_path, capsys):
    blobs = load_checkpoint(cli_env["train"] / "checkpoint.ckp")
    del blobs["meta/regime"]
    old = tmp_path / "old.ckp"
    save_checkpoint(old, blobs)
    rc = main(["train", "--config", str(cli_env["cfg"]), "--resume", str(old),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "meta/regime" in capsys.readouterr().err


_ROW = {"phase": "pretrain", "round": -1, "epoch": 1, "loss": 0.5, "entropy": None}
_MT19937 = np.random.MT19937(0).state
_MT19937["state"]["key"] = _MT19937["state"]["key"].tolist()


def test_cli_eval_names_a_missing_or_mistyped_blob(cli_env, tmp_path, capsys):
    # a damaged checkpoint is a data error (exit 2) that names the blob, or
    # the regime that its networks do not fit; a callable edits the blob's text
    def config_line(key, line):
        return lambda text: re.sub(rf"^{key}=.*$", line, text, flags=re.M)

    for name, value, want in (
            ("opt_theta/t", None, None), ("meta/counters", np.zeros(2), None),
            ("meta/counters", "[]", None), ("meta/counters", "{}", None),
            ("meta/counters", '{"epoch": "3", "round": 0}', None),
            ("meta/counters", '{"epoch": -1, "round": 0}', None),
            ("meta/regime", "[]", None), ("meta/regime", None, None),
            ("opt_theta/t", "[]", None),
            ("opt_theta/t", "-3", None), ("opt_theta/t", "2.5", None),
            ("opt_theta/t", '"4"', None),
            ("meta/log", "{}", None), ("meta/log", "[1]", None), ("meta/log", "[{}]", None),
            ("meta/log", json.dumps([{**_ROW, "loss": "abc"}]), None),
            ("meta/config", lambda text: text + "bogus=1\n", "unknown config keys: bogus"),
            ("meta/config", config_line("batch", "batch=four"), "config key 'batch'"),
            ("meta/config", config_line("bands", "bands=0"), "bands must be >= 1"),
            ("meta/config", config_line("prior_sigma", "prior_sigma=0.0"),
             "prior_sigma must be > 0"),
            ("meta/rng/eps", "[]", None),
            ("meta/rng/eps", '{"bit_generator": "PCG64"}', None),
            ("meta/rng/eps", json.dumps(_MT19937), None),
            ("phi/", None, None),
            ("meta/regime", '{"mode": "fixed-variance", "fixed_g": 0.0}',
             "'fixed-variance' regime, which trains without the phi/ blobs")):
        blobs = load_checkpoint(cli_env["train"] / "checkpoint.ckp")
        if name == "phi/":  # a full checkpoint without its deviation network
            blobs = {k: v for k, v in blobs.items() if not k.startswith(("phi/", "opt_phi/"))}
        elif value is None:
            del blobs[name]
        else:
            blobs[name] = value(blobs[name]) if callable(value) else value
        bad = tmp_path / "bad.ckp"
        save_checkpoint(bad, blobs)
        for command in ("eval", "train"):
            args = (["--checkpoint", str(bad)] if command == "eval"
                    else ["--resume", str(bad)])
            rc = main([command, "--config", str(cli_env["cfg"]), *args,
                       "--out-dir", str(tmp_path / command)])
            assert rc == 2, (command, name, value)
            err = capsys.readouterr().err
            assert repr(name) in err or name == "phi/", (command, name, err)
            assert want is None or want in err, (command, name, err)
            assert not (tmp_path / command).exists(), (command, name)


@pytest.mark.parametrize("command", ["eval", "uncertainty"])
def test_cli_scores_a_checkpoint_only_under_its_own_optics(cli_env, tmp_path, capsys, command):
    ckpt = str(cli_env["train"] / "checkpoint.ckp")
    for kw, want in (({"d": 2}, "d (given 2, checkpoint 1)"),
                     ({"bands": 3}, "bands (given 3, checkpoint 2)")):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(config_text(tiny_cfg(seed=5, **kw), cli_env["spec"]))
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg), "--checkpoint", ckpt, "--out-dir", str(out)])
        assert rc == 2, kw
        assert want in capsys.readouterr().err
        assert not out.exists()
    # other masks are the deployment case and are scored
    cfg.write_text(config_text(tiny_cfg(seed=5), tiny_spec(mask_density=0.3)))
    assert main([command, "--config", str(cfg), "--checkpoint", ckpt,
                 "--out-dir", str(tmp_path / "ok")]) == 0


def test_cli_train_refuses_scenes_below_the_ssim_window(tmp_path, capsys):
    # eval would refuse the checkpoint, so train refuses before any epoch
    cfg = tmp_path / "small.cfg"
    cfg.write_text(config_text(tiny_cfg(), tiny_spec(scene_h=8, scene_w=10)))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "8x10" in err and "11x11 ssim window" in err
    assert not out.exists()


def test_cli_train_refuses_a_prior_sigma_phi_cannot_start_from(tmp_path, capsys):
    # softplus^-1(800) overflows: a config error by name, not a traceback at the
    # first step; a regime without phi never takes that inverse and trains
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(config_text(tiny_cfg(prior_sigma=800.0), tiny_spec()))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "prior_sigma must be > 0 and at most about 709.78" in err and "got 800.0" in err
    assert not out.exists()
    assert main(["train", "--config", str(cfg), "--mode", "fixed-variance",
                 "--out-dir", str(out)]) == 0


def test_cli_train_resume_rejects_another_config(cli_env, tmp_path, capsys):
    cfg = str(cli_env["cfg"])
    done = tmp_path / "seed5"
    assert main(["train", "--config", cfg, "--seed", "5", "--out-dir", str(done)]) == 0
    capsys.readouterr()
    rc = main(["train", "--config", cfg, "--seed", "6", "--resume",
               str(done / "checkpoint.ckp"), "--out-dir", str(tmp_path / "seed6")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "seed" in err and "given 6, checkpoint 5" in err
    assert not (tmp_path / "seed6").exists()


def _write_cfg(path, **kw):
    path.write_text(config_text(tiny_cfg(seed=5, **kw), tiny_spec()))
    return str(path)


def test_cli_train_resume_extends_rounds(tmp_path):
    # a run trained for 1 round and resumed with rounds=3 ends where a
    # straight 3-round run ends, in every regime
    one = _write_cfg(tmp_path / "r1.cfg", rounds=1)
    three = _write_cfg(tmp_path / "r3.cfg", rounds=3)
    for mode in ("full", "no-bilevel", "fixed-variance"):
        short, longer, straight = (tmp_path / mode / n for n in ("short", "longer", "straight"))
        _train(one, mode, short)
        _train(three, mode, straight)
        rc = main(["train", "--config", three, "--resume", str(short / "checkpoint.ckp"),
                   "--out-dir", str(longer)])
        assert rc == 0, mode
        got = load_checkpoint(longer / "checkpoint.ckp")
        assert got["meta/counters"] != load_checkpoint(short / "checkpoint.ckp")["meta/counters"]
        _same_blobs(got, load_checkpoint(straight / "checkpoint.ckp"), mode)


def test_cli_train_resume_rejects_fewer_rounds(tmp_path, capsys):
    done = tmp_path / "r2"
    assert main(["train", "--config", _write_cfg(tmp_path / "r2.cfg", rounds=2),
                 "--out-dir", str(done)]) == 0
    capsys.readouterr()
    rc = main(["train", "--config", _write_cfg(tmp_path / "r1.cfg", rounds=1),
               "--resume", str(done / "checkpoint.ckp"), "--out-dir", str(tmp_path / "r1")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rounds (given 1, checkpoint 2)" in err and "only upward" in err
    assert not (tmp_path / "r1").exists()


def test_cli_train_resume_rejects_another_scenario(tmp_path, capsys):
    # the scenario picks the scenes and masks, so it must match like the config
    done, first, other = tmp_path / "done", tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text(config_text(tiny_cfg(rounds=1),
                                     tiny_spec(scene_h=16, scenes_train=4)))
    other.write_text(config_text(tiny_cfg(rounds=2),
                                     tiny_spec(scene_h=20, scenes_train=8)))
    assert main(["train", "--config", str(first), "--out-dir", str(done)]) == 0
    capsys.readouterr()
    rc = main(["train", "--config", str(other), "--resume", str(done / "checkpoint.ckp"),
               "--out-dir", str(tmp_path / "more")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scene_h (given 20, checkpoint 16)" in err
    assert "scenes_train (given 8, checkpoint 4)" in err
    assert "rounds" not in err.split(";")[0]
    assert not (tmp_path / "more").exists()


def test_cli_train_resume_without_scenario_names_the_blob(cli_env, tmp_path, capsys):
    blobs = load_checkpoint(cli_env["train"] / "checkpoint.ckp")
    del blobs["meta/scenario"]
    old = tmp_path / "old.ckp"
    save_checkpoint(old, blobs)
    rc = main(["train", "--config", str(cli_env["cfg"]), "--resume", str(old),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "meta/scenario" in capsys.readouterr().err


def test_cli_ablate(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(config_text(tiny_cfg(), tiny_spec()))
    out = tmp_path / "abl"
    rc = main([
        "ablate", "--kind", "no-bilevel", "--config", str(cfg_path),
        "--out-dir", str(out),
    ])
    assert rc == 0
    assert "no-bilevel" in capsys.readouterr().out
    assert (out / "no-bilevel" / "summary.csv").is_file()


def test_cli_choices_are_the_librarys(capsys):
    # `train` offers fixed-variance at its spread 0; the removed no-gst is refused
    for argv, choices in (
        (["train", "--help"], [m for m in REGIMES if m != "untrained"]),
        (["ablate", "--help"], ABLATIONS),
    ):
        with pytest.raises(SystemExit):
            main(argv)
        assert "{" + ",".join(choices) + "}" in capsys.readouterr().out
    for argv in (["train", "--mode", "no-gst"], ["ablate", "--kind", "no-gst"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "invalid choice: 'no-gst'" in capsys.readouterr().err


def test_readme_commands_parse(capsys):
    # a CLI choice or option that goes cannot stay in the README's examples
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("casskit ")]
    assert len(lines) >= 6
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}\n{capsys.readouterr().err}")


def test_cli_gradcheck_quick(capsys):
    rc = main(["gradcheck", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "end-to-end" in out
    assert "FAIL" not in out


def test_cli_error_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("warp=1\n")
    rc = main(["gen-masks", "--config", str(bad_cfg), "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("casskit: error:")

    rc = main(["gen-masks", "--config", str(tmp_path / "missing.cfg"),
               "--out-dir", str(tmp_path / "y")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err

    rc = main(["eval", "--checkpoint", str(tmp_path / "missing.ckp"),
               "--out-dir", str(tmp_path / "z")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("casskit: error:")


def test_cli_train_that_diverges_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    # a huge step size overflows the weights within the first steps; the tape's
    # finite check names the op, and the command reports it like a config error
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("alpha0=1e200\nt_init=3\nrounds=0\nscenes_train=4\nscenes_val=1\n"
                   "scenes_test=1\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow notes
        rc = main(["train", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "casskit: error: non-finite backward root; the first non-finite value on its "
        "tape is the output of op 'conv2d', shape (16, 16, 16)"]
    assert not out.exists()

    # a non-finite gradient under a finite loss is the optimizer's refusal
    def diverged(exp, mode):
        raise TrainingDiverged("non-finite gradient in 'head_w' at optimizer step 1")

    monkeypatch.setattr(harness, "run_training", diverged)
    rc = main(["train", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "casskit: error: non-finite gradient in 'head_w' at optimizer step 1"]


@pytest.mark.parametrize("config_seed, flag, want", [(11, ["--seed", "-1"], -1), (-3, [], -3)])
def test_cli_names_a_negative_seed(tmp_path, capsys, config_seed, flag, want):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(tiny_cfg(seed=config_seed), tiny_spec()))
    rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")] + flag)
    assert rc == 2
    assert f"seed must be >= 0, got {want}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_names_the_file_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\nseed=1\n")
    assert main(["gen-masks", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == 2
    assert f"cannot read config {str(cfg)!r}" in capsys.readouterr().err
    ckpt = tmp_path / "bad.ckp"
    save_checkpoint(ckpt, {"meta/config": "\xff"})  # one text blob
    ckpt.write_bytes(ckpt.read_bytes().replace("\xff".encode("utf-8"), b"\xff\xff"))
    assert main(["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "e")]) == 2
    assert (f"checkpoint file {ckpt}: text payload of 'meta/config' is not utf-8 at offset 32"
            in capsys.readouterr().err)


def test_cli_corrupt_checkpoint(tmp_path, capsys):
    junk = tmp_path / "junk.ckp"
    junk.write_bytes(b"not a checkpoint")
    rc = main(["eval", "--checkpoint", str(junk), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "bad magic" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
