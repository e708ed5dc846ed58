"""Losses, optimizer, schedules, the alternating loop, and checkpoints.

Adam is checked against a two-step hand computation; the losses against
scale identities that must hold exactly; the loop against its freezing
and determinism contracts, which are all bitwise.
"""

import copy
import dataclasses
import gc
import json
import math

import numpy as np
import pytest

from casskit.gstnet import gst_forward
from casskit.harness import ScenarioSpec, build_experiment, run_training
from casskit.maskmodel import LOG_SQRT_2PIE
from casskit.ndgrad import Tensor, backward, mul
from casskit.optics import Mask
from casskit.trainer import (
    REGIMES,
    Adam,
    TrainConfig,
    TrainingDiverged,
    config_text,
    load_state,
    lr_schedule,
    make_state,
    recon_loss,
    reconstruct_scene,
    save_state,
    state_blobs,
    state_from_blobs,
    total_loss,
    train_regime,
)

RNG = np.random.default_rng(2023)


def tiny_cfg(**kw):
    base = dict(
        bands=2, d=1, backbone_channels=4, backbone_blocks=1,
        gst_channels=4, gst_proj_channels=2, batch=2,
        t_init=1, t_trn=1, t_val=1, rounds=1, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


TINY_SPEC = ScenarioSpec(
    scene_h=6, scene_w=6, scenes_train=4, scenes_val=2, scenes_test=1,
    mask_base_h=12, mask_base_w=12, k_train=2, k_test=1, trials=1,
)


def tiny_problem(cfg, n_scenes=4, n_masks=2, seed=0):
    rng = np.random.default_rng(seed)
    scenes = [rng.random((6, 6, cfg.bands)) for _ in range(n_scenes)]
    masks = [Mask((rng.random((6, 6)) < 0.5).astype(float)) for _ in range(n_masks)]
    return scenes, masks


# -- schedule ---------------------------------------------------------------

def test_lr_schedule_halving_points():
    assert lr_schedule(4e-4, 0) == 4e-4
    assert lr_schedule(4e-4, 49) == 4e-4
    assert lr_schedule(4e-4, 50) == 2e-4
    assert lr_schedule(4e-4, 99) == 2e-4
    assert lr_schedule(4e-4, 149) == 1e-4
    assert lr_schedule(4e-4, 150) == 5e-5
    assert lr_schedule(1.0, 10, period=5) == 0.25


def test_lr_schedule_argument_errors():
    with pytest.raises(ValueError):
        lr_schedule(1.0, -1)
    with pytest.raises(ValueError):
        lr_schedule(1.0, 0, period=0)


def test_every_regime_runs_its_schedule(monkeypatch):
    # the exact epoch sequence of each regime: phase, round, both rates,
    # the constant spread and whether theta's epochs perturb through phi.
    # Halving every 2 epochs tells apart theta's own epoch count (full)
    # from the shared one (phi, and every rate of the controls).
    from casskit import trainer

    a0, a1, a2 = 8e-4, 4e-4, 2e-5
    cfg = tiny_cfg(t_init=2, t_trn=2, t_val=2, rounds=2, lr_halve_period=2,
                   alpha0=a0, alpha1=a1, alpha2=a2)
    exp = build_experiment(cfg, TINY_SPEC)
    real_epoch = trainer._epoch
    calls = []

    def epoch(state, scenes, masks, phase, rnd=-1, **kw):
        calls.append((phase, rnd, kw.get("lr_theta"), kw.get("lr_phi"),
                      kw.get("fixed_g"), kw.get("phi") is state.phi))
        real_epoch(state, scenes, masks, phase, rnd, **kw)

    monkeypatch.setattr(trainer, "_epoch", epoch)
    pre = [("pretrain", -1, a0, None, None, True)] * 2
    want = {
        "full": pre
        + [("train", 0, a1 / 2, None, None, True)] * 2
        + [("val", 0, None, a2 / 4, None, False)] * 2
        + [("train", 1, a1 / 4, None, None, True)] * 2
        + [("val", 1, None, a2 / 16, None, False)] * 2,
        "no-bilevel": pre
        + [("joint", -1, a1 / 2, a2 / 2, None, False)] * 2
        + [("joint", -1, a1 / 4, a2 / 4, None, False)] * 2,
        "no-gst": [("baseline", -1, a1 / 2**(e // 2), None, 0.0, True)
                   for e in range(6)],
        "fixed-variance": [("baseline", -1, a1 / 2**(e // 2), None, 0.2, True)
                           for e in range(6)],
        "untrained": [],
    }
    for mode, sequence in want.items():
        calls.clear()
        state = run_training(exp, mode=mode, fixed_g=0.2)
        assert calls == sequence, mode
        assert state.epoch == len(sequence), mode


def test_no_gst_is_the_zero_spread():
    # the unperturbed baseline and the constant spread 0 train alike and
    # draw alike; only the recorded regime tells their checkpoints apart
    exp = build_experiment(tiny_cfg(noise_std=0.01, rounds=2), TINY_SPEC)
    a = state_blobs(run_training(exp, mode="no-gst"))
    b = state_blobs(run_training(exp, mode="fixed-variance", fixed_g=0.0))
    assert set(a) == set(b)
    differ = [k for k, v in a.items()
              if not (np.array_equal(v, b[k]) if isinstance(v, np.ndarray) else v == b[k])]
    assert differ == ["meta/regime"]


@pytest.mark.parametrize("mode", ["full", "no-bilevel", "no-gst", "fixed-variance"])
def test_regime_and_networks_must_agree_before_any_epoch(mode):
    # a checkpoint whose regime needs phi but holds none, or holds a phi
    # its regime never reads, is refused before it trains an epoch
    cfg = tiny_cfg()
    exp = build_experiment(cfg, TINY_SPEC)
    blobs = state_blobs(make_state(cfg))
    if REGIMES[mode]:
        blobs = {k: v for k, v in blobs.items() if not k.startswith(("phi/", "opt_phi/"))}
    blobs["meta/regime"] = json.dumps({"mode": mode, "fixed_g": None})
    state = state_from_blobs(blobs)
    held = "holds none" if REGIMES[mode] else "holds one"
    with pytest.raises(ValueError, match=f"'{mode}'.*deviation network.*{held}"):
        train_regime(state, exp.train_scenes, exp.val_scenes, exp.train_masks)
    assert state.epoch == 0 and state.log == []


def test_default_schedule_constants():
    cfg = TrainConfig()
    assert (cfg.alpha0, cfg.alpha1, cfg.alpha2) == (4e-4, 4e-4, 1e-5)
    assert (cfg.t_init, cfg.t_trn, cfg.t_val) == (20, 5, 3)
    assert cfg.lr_halve_period == 50
    assert cfg.rounds == 20
    assert (cfg.prior_mu, cfg.prior_sigma) == (0.006, 0.005)
    assert cfg.beta == 1e-3


# -- optimizer --------------------------------------------------------------

def adam_reference(x0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam, one scalar parameter, bias-corrected."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        x = x - lr * mhat / (math.sqrt(vhat) + eps)
    return x


def test_adam_matches_reference_two_steps():
    p = Tensor(np.array([1.0]))
    opt = Adam([("p", p)])
    grads = [0.3, -0.7]
    for g in grads:
        p.grad[...] = g
        opt.step(1e-2)
        opt.zero_grad()
    want = adam_reference(1.0, grads, 1e-2)
    assert p.data[0] == pytest.approx(want, abs=1e-15)
    assert opt.t == 2


def test_adam_zero_lr_is_bitwise_noop_on_params():
    p = Tensor(RNG.random(4))
    before = p.data.copy()
    opt = Adam([("p", p)])
    p.grad[...] = 1.0
    opt.step(0.0)
    assert np.array_equal(p.data, before)


def test_adam_nan_gradient_diverges():
    p = Tensor(np.array([1.0]))
    opt = Adam([("p", p)])
    p.grad[...] = np.nan
    with pytest.raises(TrainingDiverged):
        opt.step(1e-3)


def test_adam_inf_gradient_diverges():
    p = Tensor(np.array([1.0, 2.0]))
    opt = Adam([("p", p)])
    p.grad[...] = np.inf
    with pytest.raises(TrainingDiverged, match="non-finite gradient in 'p'"):
        opt.step(1e-3)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_diverged_step_touches_no_state():
    # a is listed first with a finite gradient: a half-applied step would
    # move it, its moments and t before reaching b
    a = Tensor(np.array([1.0]))
    b = Tensor(np.array([2.0]))
    opt = Adam([("a", a), ("b", b)])
    a.grad[...] = 0.5
    b.grad[...] = np.inf
    with pytest.raises(TrainingDiverged, match="'b' at optimizer step 1"):
        opt.step(0.1)
    assert np.array_equal(a.data, [1.0])
    assert np.array_equal(b.data, [2.0])
    assert opt.t == 0
    for n in ("a", "b"):
        assert np.array_equal(opt.m[n], [0.0])
        assert np.array_equal(opt.v[n], [0.0])


# -- losses -----------------------------------------------------------------

def test_recon_loss_zero_for_perfect_model():
    # theta = zeros reconstructs zeros; zero scenes give exactly zero loss
    cfg = tiny_cfg()
    state = make_state(cfg)
    for _, t in state.theta.parameters():
        t.data[...] = 0.0
    scenes = [np.zeros((6, 6, cfg.bands))]
    mask = Mask(np.ones((6, 6)))
    loss = recon_loss(state.theta, Tensor(np.zeros((6, 6))), scenes, mask, cfg,
                      np.random.default_rng(0))
    assert float(loss.data) == 0.0


def test_recon_loss_batch_duplication_invariance():
    cfg = tiny_cfg()
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    eps = [RNG.standard_normal((6, 6)) for _ in range(2)]
    g = gst_forward(masks[0], state.phi)
    loss1 = recon_loss(state.theta, g, scenes[:2], masks[0], cfg, eps_list=eps)
    loss2 = recon_loss(state.theta, g, scenes[:2] * 3, masks[0], cfg,
                       eps_list=eps * 3)
    assert float(loss2.data) == pytest.approx(float(loss1.data), rel=1e-12)


def test_theta_epochs_under_a_gst_leave_phi_grads_zero():
    # theta-only epochs perturb masks with the GST's map taken off the
    # tape; nothing zeroes phi's grads there, so a taped map would leave
    # them nonzero
    cfg = tiny_cfg(t_init=2, t_val=0)
    state = run_training(build_experiment(cfg, TINY_SPEC), mode="full")
    assert [row["phase"] for row in state.log] == ["pretrain", "pretrain", "train"]
    assert all(np.all(t.grad == 0.0) for _, t in state.phi.parameters())


def test_theta_epochs_compute_frozen_g_once_per_mask_and_phi(monkeypatch):
    from casskit import trainer

    cfg = tiny_cfg(t_init=2, t_trn=2, t_val=2, rounds=3)
    exp = build_experiment(cfg, TINY_SPEC)
    real_gst, real_epoch, real_recon = trainer.gst_forward, trainer._epoch, trainer.recon_loss
    now = {}
    calls = []  # (phase, mask values, phi values) per gst_forward call
    fed = []  # (round, mask, g) per theta-epoch loss of the rounds
    phi_before = {}  # round -> phi as its theta epochs find it

    def key(params):
        return b"".join(t.data.tobytes() for _, t in params.parameters())

    def gst(m, params):
        calls.append((now["phase"], m.values.tobytes(), key(params)))
        return real_gst(m, params)

    def epoch(state, scenes, masks, phase, rnd=-1, **kw):
        now["phase"] = phase
        if phase == "train":
            phi_before.setdefault(rnd, copy.deepcopy(state.phi))
        real_epoch(state, scenes, masks, phase, rnd, **kw)

    def recon(theta, g, batch, mask, *args, **kw):
        if now["phase"] == "train":
            fed.append((len(phi_before) - 1, mask, g.data.copy()))
        return real_recon(theta, g, batch, mask, *args, **kw)

    monkeypatch.setattr(trainer, "gst_forward", gst)
    monkeypatch.setattr(trainer, "_epoch", epoch)
    monkeypatch.setattr(trainer, "recon_loss", recon)
    run_training(exp, mode="full")

    theta_calls = [(m, p) for phase, m, p in calls if phase != "val"]
    assert theta_calls and len(set(theta_calls)) == len(theta_calls)
    # pretrain and round 0 share phi, so k_train masks times (1 + rounds) at most
    assert len(theta_calls) <= TINY_SPEC.k_train * (1 + cfg.rounds)
    phi_batches = -(-TINY_SPEC.scenes_val // cfg.batch)
    assert sum(phase == "val" for phase, _, _ in calls) == cfg.rounds * cfg.t_val * phi_batches
    phis = [key(phi) for phi in phi_before.values()]
    assert len(set(phis)) == cfg.rounds  # phi moved in every round's phi epochs
    assert fed and {r for r, _, _ in fed} == set(range(cfg.rounds))
    for r, m, g in fed:
        assert np.array_equal(g, real_gst(m, phi_before[r]).data)


def test_recon_loss_attached_reaches_phi():
    cfg = tiny_cfg()
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    eps = [RNG.standard_normal((6, 6)) * 0.5 for _ in range(2)]
    loss = recon_loss(state.theta, gst_forward(masks[0], state.phi), scenes[:2],
                      masks[0], cfg, eps_list=eps)
    backward(loss)
    assert any(np.any(t.grad != 0.0) for _, t in state.phi.parameters())


def test_recon_loss_needs_eps_or_rng_and_nonempty_batch():
    cfg = tiny_cfg()
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    with pytest.raises(ValueError):
        recon_loss(state.theta, gst_forward(masks[0], state.phi), scenes[:1],
                   masks[0], cfg)
    with pytest.raises(ValueError):
        recon_loss(state.theta, Tensor(np.zeros((6, 6))), [], masks[0], cfg)
    with pytest.raises(ValueError, match="requires an rng"):  # noise needs its stream
        recon_loss(state.theta, Tensor(np.zeros((6, 6))), scenes[:1], masks[0],
                   tiny_cfg(noise_std=0.01), np.random.default_rng(0))


def test_recon_loss_draws_measurement_noise_from_noise_rng():
    # one N(0, noise_std^2) field per sample, drawn in the batch's order
    cfg = tiny_cfg(noise_std=0.05)
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    g = Tensor(np.zeros((6, 6)))
    eps = [np.zeros((6, 6))] * 2

    def loss(c, noise_rng=None):
        return float(recon_loss(state.theta, g, scenes[:2], masks[0], c, eps_list=eps,
                                noise_rng=noise_rng).data)

    rng = np.random.default_rng(9)
    noisy = loss(cfg, rng)
    assert noisy == loss(cfg, np.random.default_rng(9))
    assert noisy != loss(tiny_cfg())
    taken = np.random.default_rng(9)
    taken.normal(0.0, 0.05, size=(6, 7))
    taken.normal(0.0, 0.05, size=(6, 7))
    assert rng.bit_generator.state == taken.bit_generator.state


def test_total_loss_beta_zero_is_recon_object():
    cfg = tiny_cfg(beta=0.0)
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    eps = [RNG.standard_normal((6, 6)) for _ in range(2)]
    total, recon, ent = total_loss(state.theta, gst_forward(masks[0], state.phi),
                                   scenes[:2], masks[0], cfg, eps_list=eps)
    assert total is recon
    assert ent is not None  # still reported for the log


def test_total_loss_adds_weighted_entropy():
    cfg = tiny_cfg(beta=1e-2)
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    eps = [RNG.standard_normal((6, 6)) for _ in range(2)]
    g = gst_forward(masks[0], state.phi)
    total, recon, ent = total_loss(state.theta, g, scenes[:2], masks[0], cfg,
                                   eps_list=eps)
    assert ent == pytest.approx(np.mean(np.log(g.data)) + LOG_SQRT_2PIE, abs=1e-15)
    assert float(total.data) == pytest.approx(
        float(recon.data) + 1e-2 * ent, rel=1e-12
    )
    flip = dataclasses.replace(cfg, entropy_flip=True)
    total_f, recon_f, _ = total_loss(state.theta, g, scenes[:2], masks[0], flip,
                                     eps_list=eps)
    assert float(total_f.data) == pytest.approx(
        float(recon_f.data) - 1e-2 * ent, rel=1e-12
    )


def test_loss_graph_frees_without_the_cycle_collector():
    # a backward closure that captured its own output would make every
    # step's graph a reference cycle, left for the cyclic collector
    cfg = tiny_cfg(beta=1e-2)
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    rng = np.random.default_rng(0)
    gc.collect()
    gc.disable()
    try:
        total, recon, _ = total_loss(state.theta, gst_forward(masks[0], state.phi),
                                     scenes[:2], masks[0], cfg, rng)
        backward(total)
        del total, recon
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("steps", ["theta", "phi", "both"])
def test_epoch_frees_each_batch_tape_before_the_next_forward(monkeypatch, steps):
    import weakref

    from casskit import trainer

    cfg = tiny_cfg(beta=1e-2)
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)  # two batches
    real = trainer.recon_loss
    made = []

    def recon(*args, **kw):
        # the tape is acyclic, so a dropped one is already freed here
        assert all(ref() is None for ref in made), "an earlier batch's tape is alive"
        loss = real(*args, **kw)
        made.append(weakref.ref(loss.data))
        return loss

    monkeypatch.setattr(trainer, "recon_loss", recon)
    kw = {"theta": dict(lr_theta=1e-3, phi=state.phi), "phi": dict(lr_phi=1e-3),
          "both": dict(lr_theta=1e-3, lr_phi=1e-3)}[steps]
    trainer._epoch(state, scenes, masks, "train", **kw)
    assert len(made) == 2


# -- state, determinism, freezing -------------------------------------------

def test_make_state_deterministic_per_seed():
    a = make_state(tiny_cfg(seed=3))
    b = make_state(tiny_cfg(seed=3))
    c = make_state(tiny_cfg(seed=4))
    for (na, ta), (_, tb) in zip(a.theta.parameters(), b.theta.parameters()):
        assert np.array_equal(ta.data, tb.data), na
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.theta.parameters(), c.theta.parameters())
    )
    # theta and phi draw from separate streams: same-seed phi also matches
    for (_, ta), (_, tb) in zip(a.phi.parameters(), b.phi.parameters()):
        assert np.array_equal(ta.data, tb.data)


def test_pretrain_updates_theta_keeps_phi_bitwise():
    cfg = tiny_cfg(t_init=2, rounds=0)
    fresh = make_state(cfg)
    state = run_training(build_experiment(cfg, TINY_SPEC), mode="full")
    assert any(
        not np.array_equal(f.data, t.data)
        for (_, f), (_, t) in zip(fresh.theta.parameters(), state.theta.parameters())
    )
    for (_, f), (_, t) in zip(fresh.phi.parameters(), state.phi.parameters()):
        assert np.array_equal(f.data, t.data)
    assert state.epoch == 2
    assert [row["phase"] for row in state.log] == ["pretrain", "pretrain"]


def test_bilevel_phase_freezing_and_log_shape():
    cfg = tiny_cfg(t_init=0, t_trn=2, t_val=2, rounds=2)
    state = run_training(build_experiment(cfg, TINY_SPEC), mode="full")
    phases = [row["phase"] for row in state.log]
    assert phases == ["train", "train", "val", "val"] * 2
    rounds = [row["round"] for row in state.log]
    assert rounds == [0, 0, 0, 0, 1, 1, 1, 1]
    assert state.epoch == 8
    assert all(
        row["entropy"] is not None for row in state.log if row["phase"] == "val"
    )
    assert all(row["entropy"] is None for row in state.log if row["phase"] == "train")


def test_alpha2_zero_freezes_phi_exactly():
    cfg = tiny_cfg(alpha2=0.0, rounds=2)
    fresh = make_state(cfg)
    state = run_training(build_experiment(cfg, TINY_SPEC), mode="full")
    for (_, f), (_, t) in zip(fresh.phi.parameters(), state.phi.parameters()):
        assert np.array_equal(f.data, t.data)


def test_theta_frozen_during_phi_steps():
    cfg = tiny_cfg()
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    eps = [RNG.standard_normal((6, 6)) for _ in range(2)]
    total, _, _ = total_loss(state.theta, gst_forward(masks[0], state.phi),
                             scenes[:2], masks[0], cfg, eps_list=eps)
    backward(total)
    theta_before = [t.data.copy() for _, t in state.theta.parameters()]
    state.adam_phi.step(1e-3)
    for a, (_, t) in zip(theta_before, state.theta.parameters()):
        assert np.array_equal(a, t.data)


def test_phi_epochs_leave_theta_grads_and_values_alone():
    # a phi-only sweep asks for phi's gradients alone: theta's grads are
    # neither computed nor zeroed there
    cfg = tiny_cfg(t_init=0, t_trn=0, t_val=2)
    exp = build_experiment(cfg, TINY_SPEC)
    # a fresh full-regime state, trained on by extending its budget
    state = run_training(dataclasses.replace(exp, cfg=dataclasses.replace(cfg, rounds=0)))
    state.cfg = cfg
    for _, t in state.theta.parameters():
        t.grad[...] = 7.0
    theta_before = [t.data.copy() for _, t in state.theta.parameters()]
    phi_before = [t.data.copy() for _, t in state.phi.parameters()]
    train_regime(state, exp.train_scenes, exp.val_scenes, exp.train_masks)
    assert [row["phase"] for row in state.log] == ["val", "val"]
    assert state.adam_theta.t == 0 and state.adam_phi.t > 0
    for a, (_, t) in zip(theta_before, state.theta.parameters()):
        assert np.array_equal(a, t.data)
        assert np.all(t.grad == 7.0)
    assert any(not np.array_equal(a, t.data)
               for a, (_, t) in zip(phi_before, state.phi.parameters()))


def test_same_seed_same_trajectory():
    exp = build_experiment(tiny_cfg(rounds=2), TINY_SPEC)
    a, b = run_training(exp), run_training(exp)
    for (na, ta), (_, tb) in zip(a.theta.parameters(), b.theta.parameters()):
        assert np.array_equal(ta.data, tb.data), na
    for (na, ta), (_, tb) in zip(a.phi.parameters(), b.phi.parameters()):
        assert np.array_equal(ta.data, tb.data), na
    assert a.log == b.log


def test_full_theta_matches_no_gst_baseline_when_masks_are_unperturbed(monkeypatch):
    # Drawing through g * 0 makes every perturbed mask m' equal m (eps is
    # still drawn), so the full model's theta epochs and the equal-budget
    # baseline run the same arithmetic: same rate per theta epoch (the
    # schedule halves every 2 theta epochs) and same batches and masks
    # (phi epochs draw from their own streams).
    from casskit import trainer

    real = trainer.sample_perturbed
    monkeypatch.setattr(trainer, "sample_perturbed",
                        lambda m, g, eps=None, rng=None: real(m, mul(g, 0.0), eps, rng))
    cfg = tiny_cfg(lr_halve_period=2, t_trn=2, t_val=2, rounds=3)
    exp = build_experiment(cfg, TINY_SPEC)
    full = run_training(exp, mode="full")
    base = run_training(exp, mode="no-gst")
    assert full.epoch == cfg.t_init + cfg.rounds * (cfg.t_trn + cfg.t_val)
    assert base.epoch == cfg.t_init + cfg.rounds * cfg.t_trn
    for (n, tf), (_, tb) in zip(full.theta.parameters(), base.theta.parameters()):
        assert np.array_equal(tf.data, tb.data), n


def test_phi_epochs_leave_theta_streams_alone():
    # A fixed-variance control draws order, mask, eps and noise only in
    # its theta epochs; the full model's theta-side streams must end at
    # the same positions, so phi epochs draw from none of them.
    cfg = tiny_cfg(noise_std=0.01, t_trn=2, t_val=2, rounds=2)
    exp = build_experiment(cfg, TINY_SPEC)
    full = run_training(exp, mode="full")
    ctrl = run_training(exp, mode="fixed-variance", fixed_g=0.01)
    for role in ("order", "mask", "eps", "noise"):
        assert (full.rngs[role].bit_generator.state
                == ctrl.rngs[role].bit_generator.state), role


def test_no_bilevel_gets_the_full_theta_budget_and_draws_noise():
    # The single-loop control steps theta as often as the full method, and
    # its joint epochs draw measurement noise like every other theta epoch.
    cfg = tiny_cfg(noise_std=0.01, t_trn=2, t_val=2, rounds=2)
    exp = build_experiment(cfg, TINY_SPEC)
    full = run_training(exp, mode="full")
    joint = run_training(exp, mode="no-bilevel")
    assert joint.adam_theta.t == full.adam_theta.t
    warm = run_training(dataclasses.replace(exp, cfg=dataclasses.replace(cfg, rounds=0)),
                        mode="no-bilevel")
    assert [row["phase"] for row in warm.log] == ["pretrain"]
    assert (joint.rngs["noise"].bit_generator.state
            != warm.rngs["noise"].bit_generator.state)


def test_noise_std_alone_sets_training_noise():
    # noise_std > 0 is the whole switch for training measurement noise;
    # 0 draws nothing, so the noise stream stays at its seeded state
    exp = build_experiment(tiny_cfg(), TINY_SPEC)
    quiet = run_training(exp, mode="no-gst")
    loud = run_training(dataclasses.replace(exp, cfg=tiny_cfg(noise_std=0.01)),
                        mode="no-gst")
    assert (quiet.rngs["noise"].bit_generator.state
            == make_state(tiny_cfg()).rngs["noise"].bit_generator.state)
    assert (loud.rngs["noise"].bit_generator.state
            != quiet.rngs["noise"].bit_generator.state)
    assert any(
        not np.array_equal(tq.data, tl.data)
        for (_, tq), (_, tl) in zip(quiet.theta.parameters(), loud.theta.parameters())
    )


def test_fresh_deviation_map_starts_near_prior_sigma():
    for seed in (0, 1, 2):
        cfg = TrainConfig(seed=seed)
        exp = build_experiment(cfg, ScenarioSpec())
        state = make_state(cfg)
        g = gst_forward(exp.train_masks[0], state.phi).data
        assert np.all(g > 0.0)
        assert np.all(g < 10.0 * cfg.prior_sigma), (seed, float(g.max()))


def test_make_state_needs_positive_prior_sigma_for_gst():
    cfg = tiny_cfg(prior_sigma=0.0)
    with pytest.raises(ValueError, match="prior_sigma"):
        make_state(cfg)
    assert make_state(cfg, with_gst=False).phi is None
    build_experiment(cfg, TINY_SPEC)  # a noiseless fabrication prior stays legal


def test_pretrain_loss_decreases_on_easy_problem():
    cfg = tiny_cfg(t_init=12, batch=4, rounds=0)
    state = run_training(build_experiment(cfg, TINY_SPEC), mode="full")
    losses = [row["loss"] for row in state.log]
    assert losses[-1] < losses[0]


def test_reconstruct_scene_shape():
    cfg = tiny_cfg()
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)
    from casskit.optics import encode

    y = encode(scenes[0], masks[0], cfg.d)
    xhat = reconstruct_scene(state.theta, y, masks[0])
    assert xhat.shape == scenes[0].shape


# -- config file round trip -------------------------------------------------

def test_config_text_roundtrip():
    from casskit import io

    cfg = tiny_cfg(beta=0.25, entropy_flip=True)
    text = config_text(cfg)
    items = io.parse_config(text)
    back = io.coerce_dataclass(items, TrainConfig)
    assert back == cfg


def test_config_validate_errors():
    with pytest.raises(ValueError):
        tiny_cfg(bands=0).validate()
    with pytest.raises(ValueError):
        tiny_cfg(d=-1).validate()
    with pytest.raises(ValueError):
        tiny_cfg(noise_std=-0.01).validate()
    with pytest.raises(ValueError):
        tiny_cfg(alpha1=-1e-4).validate()
    with pytest.raises(ValueError):
        tiny_cfg(batch=0).validate()
    with pytest.raises(ValueError):
        tiny_cfg(beta=-0.1).validate()
    with pytest.raises(ValueError):
        tiny_cfg(lr_halve_period=0).validate()
    for key in ("prior_sigma", "backbone_blocks", "alpha0", "t_init", "rounds"):
        with pytest.raises(ValueError, match=f"{key} must be >= 0, got -1"):
            tiny_cfg(**{key: -1}).validate()


# -- checkpointing ----------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    state = run_training(build_experiment(tiny_cfg(rounds=1), TINY_SPEC), mode="full")
    path = tmp_path / "run.ckp"
    save_state(state, path)
    loaded = load_state(path)

    assert loaded.cfg == state.cfg
    assert loaded.epoch == state.epoch and loaded.round == state.round
    assert loaded.log == state.log
    for (n, ta), (_, tb) in zip(state.theta.parameters(), loaded.theta.parameters()):
        assert np.array_equal(ta.data, tb.data), n
    for (n, ta), (_, tb) in zip(state.phi.parameters(), loaded.phi.parameters()):
        assert np.array_equal(ta.data, tb.data), n
    assert state.adam_theta.t == loaded.adam_theta.t
    for n in state.adam_theta.m:
        assert np.array_equal(state.adam_theta.m[n], loaded.adam_theta.m[n])
        assert np.array_equal(state.adam_theta.v[n], loaded.adam_theta.v[n])
    # rng streams continue identically
    for role in state.rngs:
        a = state.rngs[role].standard_normal(4)
        b = loaded.rngs[role].standard_normal(4)
        assert np.array_equal(a, b), role


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = tiny_cfg(rounds=2)
    exp = build_experiment(cfg, TINY_SPEC)
    straight = run_training(exp, mode="full")

    short = dataclasses.replace(exp, cfg=dataclasses.replace(cfg, rounds=1))
    save_state(run_training(short, mode="full"), tmp_path / "mid.ckp")  # stop after round 1
    resumed = load_state(tmp_path / "mid.ckp")
    resumed.cfg = cfg  # restore the full budget
    train_regime(resumed, exp.train_scenes, exp.val_scenes, exp.train_masks)

    assert resumed.epoch == straight.epoch
    for (n, ta), (_, tb) in zip(straight.theta.parameters(),
                                resumed.theta.parameters()):
        assert np.array_equal(ta.data, tb.data), n
    for (n, ta), (_, tb) in zip(straight.phi.parameters(),
                                resumed.phi.parameters()):
        assert np.array_equal(ta.data, tb.data), n
    assert straight.log == resumed.log


def test_no_gst_resume_matches_uninterrupted_run(tmp_path):
    cfg = tiny_cfg(rounds=3)
    exp = build_experiment(cfg, TINY_SPEC)
    straight = run_training(exp, mode="no-gst")

    short = dataclasses.replace(exp, cfg=dataclasses.replace(cfg, rounds=1))
    part = run_training(short, mode="no-gst")
    assert 0 < part.epoch < straight.epoch
    save_state(part, tmp_path / "mid.ckp")
    resumed = load_state(tmp_path / "mid.ckp")
    resumed.cfg = cfg  # restore the full budget
    train_regime(resumed, exp.train_scenes, exp.val_scenes, exp.train_masks)

    ba, bb = state_blobs(straight), state_blobs(resumed)
    assert set(ba) == set(bb)
    for k, v in ba.items():
        if isinstance(v, np.ndarray):
            assert np.array_equal(v, bb[k]), k
        else:
            assert v == bb[k], k


def test_checkpoint_records_the_regime(tmp_path):
    exp = build_experiment(tiny_cfg(), TINY_SPEC)
    save_state(run_training(exp, mode="fixed-variance", fixed_g=0.3), tmp_path / "fv.ckp")
    assert load_state(tmp_path / "fv.ckp").regime == {
        "mode": "fixed-variance", "fixed_g": 0.3,
    }


def test_state_blobs_structure_and_corruption_detection():
    cfg = tiny_cfg()
    state = make_state(cfg)
    blobs = state_blobs(state)
    assert "meta/config" in blobs and "meta/counters" in blobs
    assert any(k.startswith("theta/") for k in blobs)
    assert any(k.startswith("phi/") for k in blobs)
    assert any(k.startswith("meta/rng/") for k in blobs)
    back = state_from_blobs(blobs)
    assert back.cfg == cfg

    bad = dict(blobs)
    name = next(k for k in bad if k.startswith("theta/"))
    bad[name] = np.zeros((2, 2))  # wrong shape for that parameter
    with pytest.raises(ValueError):
        state_from_blobs(bad)


@pytest.mark.parametrize("prefix", ["theta/", "phi/", "opt_theta/m/", "opt_phi/v/"])
def test_state_from_blobs_names_a_nonfinite_blob(prefix):
    blobs = state_blobs(make_state(tiny_cfg()))
    name = next(k for k in blobs if k.startswith(prefix))
    bad = dict(blobs)
    bad[name] = blobs[name].copy()
    bad[name].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"{name!r} holds non-finite"):
        state_from_blobs(bad)


@pytest.mark.parametrize("name, value", [
    ("meta/config", None), ("meta/counters", None), ("meta/log", None),
    ("opt_theta/t", None), ("opt_phi/t", None), ("theta/head_w", None),
    ("phi/out_b", None), ("opt_theta/m/head_w", None), ("opt_phi/v/out_b", None),
    ("meta/counters", np.zeros(2)), ("opt_theta/t", np.zeros(())),
    ("theta/head_w", "0.0"), ("opt_phi/m/out_w", "[]"),
])
def test_load_state_names_a_missing_or_mistyped_blob(tmp_path, name, value):
    from casskit import io

    blobs = state_blobs(make_state(tiny_cfg()))
    assert name in blobs
    if value is None:
        del blobs[name]
        want = f"lacks the '{name}' blob"
    else:
        want = f"blob '{name}' must be {'an array' if isinstance(value, str) else 'text'}"
        blobs[name] = value
    io.save_checkpoint(tmp_path / "bad.ckp", blobs)
    with pytest.raises(ValueError, match=want):
        load_state(tmp_path / "bad.ckp")


@pytest.mark.parametrize("name, text", [
    ("meta/counters", "[]"), ("meta/counters", "{}"),
    ("meta/counters", '{"epoch": "3", "round": 0}'),
    ("meta/counters", '{"epoch": -1, "round": 0}'),
    ("meta/regime", "[]"),
])
def test_load_state_checks_what_the_meta_blobs_hold(tmp_path, name, text):
    from casskit import io

    blobs = state_blobs(make_state(tiny_cfg()))
    blobs[name] = text
    io.save_checkpoint(tmp_path / "bad.ckp", blobs)
    with pytest.raises(ValueError, match=f"blob '{name}' must be a JSON object"):
        load_state(tmp_path / "bad.ckp")


def test_load_state_names_missing_rng_stream(tmp_path):
    from casskit import io

    blobs = state_blobs(make_state(tiny_cfg()))
    del blobs["meta/rng/phi_order"]
    io.save_checkpoint(tmp_path / "old.ckp", blobs)
    with pytest.raises(ValueError, match="meta/rng/phi_order"):
        load_state(tmp_path / "old.ckp")


def test_checkpoint_without_gst(tmp_path):
    cfg = tiny_cfg()
    state = make_state(cfg, with_gst=False)
    save_state(state, tmp_path / "plain.ckp")
    loaded = load_state(tmp_path / "plain.ckp")
    assert loaded.phi is None and loaded.adam_phi is None
