"""Scenario harness and command-line flows on micro-sized problems.

Everything here trains for at most a couple of epochs on 6x6 scenes; the
point is wiring (routing, budgets, emitted files, exit codes), not
reconstruction quality.
"""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from casskit.cli import main
from casskit.harness import (
    ABLATIONS,
    ScenarioSpec,
    build_experiment,
    evaluate,
    gen_synth_scenes,
    load_config,
    run_ablation,
    run_config_text,
    run_gradient_suite,
    run_scenario,
    run_training,
    uncertainty_maps,
    write_summary,
)
from casskit.io import (
    ConfigError,
    load_checkpoint,
    load_cube,
    load_mask,
    parse_config,
    save_checkpoint,
)
from casskit.trainer import (
    REGIMES,
    TrainConfig,
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
    "perturb_encode=true", "loss_scale=mean", "pretrain_perturb=true",
])
def test_deleted_config_keys_are_rejected_by_name(line):
    # training noise is noise_std alone, eps is N(0, 1),
    # measurements are always re-encoded through the perturbed mask, the
    # loss is always a mean, and pretrain always perturbs through phi
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

    ensemble = run_training(exp, mode="no-gst")
    assert ensemble.phi is None
    assert ensemble.epoch == cfg.t_init + cfg.rounds * cfg.t_trn

    joint = run_training(exp, mode="no-bilevel")
    assert joint.epoch == cfg.t_init + cfg.rounds * cfg.t_trn
    assert {row["phase"] for row in joint.log} == {"pretrain", "joint"}

    with pytest.raises(ValueError, match="unknown training mode"):
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
        run_config_text(cfg, spec)
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
            run_ablation("no-gst", tiny_cfg(), spec)


def test_run_ablation_fixed_variance_labels(tmp_path):
    results = run_ablation(
        "fixed-variance", tiny_cfg(), tiny_spec(),
        out_dir=tmp_path, g0_values=(0.0, 0.1),
    )
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
    cfg_path.write_text(run_config_text(cfg, spec))
    train_dir = root / "train"
    rc = main(["train", "--config", str(cfg_path), "--out-dir", str(train_dir)])
    assert rc == 0
    return {"root": root, "cfg": cfg_path, "train": train_dir, "spec": spec}


def test_cli_gen_masks(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(run_config_text(tiny_cfg(), tiny_spec()))
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
    cfg_path.write_text(run_config_text(cfg, spec))
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


def _train(cfg_path, mode, out_dir):
    """Train like ``casskit train --mode``; fixed-variance, which the CLI
    cannot start, is trained at the spread 0.3 through the library."""
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
    for mode in ("full", "no-gst", "no-bilevel", "fixed-variance"):
        done, more = tmp_path / mode / "done", tmp_path / mode / "more"
        _train(cfg, mode, done)
        first = load_checkpoint(done / "checkpoint.ckp")
        assert json.loads(first["meta/regime"])["mode"] == mode
        rc = main(["train", "--config", cfg, "--resume", str(done / "checkpoint.ckp"),
                   "--out-dir", str(more)])
        assert rc == 0, mode
        second = load_checkpoint(more / "checkpoint.ckp")
        assert set(second) == set(first), mode
        for k, v in first.items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(second[k], v, err_msg=f"{mode} {k}")
            else:
                assert second[k] == v, (mode, k)


def test_cli_train_resume_without_regime_names_the_blob(cli_env, tmp_path, capsys):
    blobs = load_checkpoint(cli_env["train"] / "checkpoint.ckp")
    del blobs["meta/regime"]
    old = tmp_path / "old.ckp"
    save_checkpoint(old, blobs)
    rc = main(["train", "--config", str(cli_env["cfg"]), "--resume", str(old),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "meta/regime" in capsys.readouterr().err


def test_cli_eval_names_a_missing_or_mistyped_blob(cli_env, tmp_path, capsys):
    # a damaged checkpoint is a data error (exit 2) that names the blob
    for name, value in (("opt_theta/t", None), ("meta/counters", np.zeros(2)),
                        ("meta/counters", "[]"), ("meta/counters", "{}"),
                        ("meta/counters", '{"epoch": "3", "round": 0}'),
                        ("meta/counters", '{"epoch": -1, "round": 0}'),
                        ("meta/regime", "[]")):
        blobs = load_checkpoint(cli_env["train"] / "checkpoint.ckp")
        if value is None:
            del blobs[name]
        else:
            blobs[name] = value
        bad = tmp_path / "bad.ckp"
        save_checkpoint(bad, blobs)
        rc = main(["eval", "--config", str(cli_env["cfg"]), "--checkpoint", str(bad),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2, name
        assert repr(name) in capsys.readouterr().err


def test_cli_train_refuses_scenes_below_the_ssim_window(tmp_path, capsys):
    # eval would refuse the checkpoint, so train refuses before any epoch
    cfg = tmp_path / "small.cfg"
    cfg.write_text(run_config_text(tiny_cfg(), tiny_spec(scene_h=8, scene_w=10)))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "8x10" in err and "11x11 ssim window" in err
    assert not out.exists()


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
    path.write_text(run_config_text(tiny_cfg(seed=5, **kw), tiny_spec()))
    return str(path)


def test_cli_train_resume_extends_rounds(tmp_path):
    # a run trained for 1 round and resumed with rounds=3 ends where a
    # straight 3-round run ends, in every regime
    one = _write_cfg(tmp_path / "r1.cfg", rounds=1)
    three = _write_cfg(tmp_path / "r3.cfg", rounds=3)
    for mode in ("full", "no-gst", "no-bilevel", "fixed-variance"):
        short, longer, straight = (tmp_path / mode / n for n in ("short", "longer", "straight"))
        _train(one, mode, short)
        _train(three, mode, straight)
        rc = main(["train", "--config", three, "--resume", str(short / "checkpoint.ckp"),
                   "--out-dir", str(longer)])
        assert rc == 0, mode
        want = load_checkpoint(straight / "checkpoint.ckp")
        got = load_checkpoint(longer / "checkpoint.ckp")
        assert set(got) == set(want), mode
        assert got["meta/counters"] != load_checkpoint(short / "checkpoint.ckp")["meta/counters"]
        for k, v in want.items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(got[k], v, err_msg=f"{mode} {k}")
            else:
                assert got[k] == v, (mode, k)


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
    first.write_text(run_config_text(tiny_cfg(rounds=1),
                                     tiny_spec(scene_h=16, scenes_train=4)))
    other.write_text(run_config_text(tiny_cfg(rounds=2),
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
    cfg_path.write_text(run_config_text(tiny_cfg(), tiny_spec()))
    out = tmp_path / "abl"
    rc = main([
        "ablate", "--kind", "no-gst", "--config", str(cfg_path),
        "--out-dir", str(out),
    ])
    assert rc == 0
    assert "no-gst" in capsys.readouterr().out
    assert (out / "no-gst" / "summary.csv").is_file()


def test_cli_choices_are_the_librarys(capsys):
    # fixed-variance needs a spread g0, so `ablate` alone starts it
    for argv, choices in (
        (["train", "--help"], [m for m in REGIMES if m not in ("untrained", "fixed-variance")]),
        (["ablate", "--help"], ABLATIONS),
    ):
        with pytest.raises(SystemExit):
            main(argv)
        assert "{" + ",".join(choices) + "}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--mode", "fixed-variance"])
    assert exit_.value.code == 2
    assert "invalid choice: 'fixed-variance'" in capsys.readouterr().err


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
