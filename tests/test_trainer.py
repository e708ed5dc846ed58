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
import re
import warnings

import numpy as np
import pytest

from casskit import helpers, trainer
from casskit.gstnet import gst_forward
from casskit.harness import ScenarioSpec, build_experiment, run_training
from casskit.maskmodel import LOG_SQRT_2PIE, entropy_term
from casskit.ndgrad import Tensor, add, backward, mul
from casskit.optics import Mask
from casskit.trainer import (
    REGIMES,
    Adam,
    TrainConfig,
    TrainingDiverged,
    TrainState,
    config_text,
    load_state,
    lr_schedule,
    make_state,
    recon_loss,
    reconstruct_scene,
    save_state,
    state_blobs,
    state_from_blobs,
    train_regime,
)

RNG = np.random.default_rng(2023)
# a loss-log row as a pretrain epoch writes it
_ROW = {"phase": "pretrain", "round": -1, "epoch": 1, "loss": 0.5, "entropy": None}
_MT19937 = json.dumps({**np.random.MT19937(0).state, "state": {
    "key": np.random.MT19937(0).state["state"]["key"].tolist(), "pos": 624}})


def _pcg64(**counters):
    """A PCG64 state blob with some of state, inc, has_uint32 and uinteger replaced."""
    real = np.random.PCG64(0).state
    inner = {k: counters.pop(k, v) for k, v in real["state"].items()}
    return json.dumps({**real, **counters, "state": inner})


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


def in_process(monkeypatch):
    """Run every sample of a batch in this process, where a monkeypatch is seen."""
    monkeypatch.setattr(helpers, "usable_cores", lambda: 1)


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
    # the constant spread of a control's table and whether the epoch reads
    # the schedule's table of theta-only maps.
    # Halving every 2 epochs tells apart theta's own epoch count (full)
    # from the shared one (phi, and every rate of the controls).
    from casskit import trainer

    a0, a1, a2 = 8e-4, 4e-4, 2e-5
    cfg = tiny_cfg(t_init=2, t_trn=2, t_val=2, rounds=2, lr_halve_period=2,
                   alpha0=a0, alpha1=a1, alpha2=a2)
    exp = build_experiment(cfg, TINY_SPEC)
    real_epoch = trainer._epoch
    calls = []

    def spread(frozen):
        # the one value a control's table holds; None for phi's maps or no table
        values = {float(v) for g in (frozen or {}).values() for v in np.unique(g.data)}
        return values.pop() if len(values) == 1 else None

    def epoch(state, scenes, masks, phase, rnd=-1, **kw):
        frozen = kw.get("frozen")
        calls.append((phase, rnd, kw.get("lr_theta"), kw.get("lr_phi"),
                      spread(frozen), frozen is not None))
        if spread(frozen) is not None:
            assert sorted(frozen) == list(range(len(masks)))
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
        "fixed-variance": [("baseline", -1, a1 / 2**(e // 2), None, 0.2, True)
                           for e in range(6)],
        "untrained": [],
    }
    for mode, sequence in want.items():
        calls.clear()
        state = run_training(exp, mode=mode, fixed_g=0.2)
        assert calls == sequence, mode
        assert state.epoch == len(sequence), mode


@pytest.mark.parametrize("mode", ["full", "no-bilevel", "fixed-variance"])
def test_regime_and_networks_must_agree_before_any_epoch(mode):
    # a checkpoint whose regime needs phi but holds none, or holds a phi
    # its regime never reads, is refused at load, so it cannot train an epoch
    blobs = state_blobs(make_state(tiny_cfg(), "fixed-variance", 0.0) if REGIMES[mode]
                        else make_state(tiny_cfg()))
    g0 = 0.1 if mode == "fixed-variance" else None
    blobs["meta/regime"] = json.dumps({"mode": mode, "fixed_g": g0})
    want = ("lacks the 'phi/" if REGIMES[mode]
            else f"'{mode}' regime, which trains without the phi/ blobs")
    with pytest.raises(ValueError, match=want):
        state_from_blobs(blobs)


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


def _adam_per_array(named, grads_per_step, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one update per parameter array: the reference for the flat step."""
    data = {n: t.data.copy() for n, t in named}
    m = {n: np.zeros_like(a) for n, a in data.items()}
    v = {n: np.zeros_like(a) for n, a in data.items()}
    for step, (grads, lr) in enumerate(zip(grads_per_step, lrs), start=1):
        c1 = 1.0 - beta1**step
        c2 = 1.0 - beta2**step
        for n, g in grads.items():
            m[n] *= beta1
            m[n] += (1.0 - beta1) * g
            v[n] *= beta2
            v[n] += (1.0 - beta2) * g * g
            data[n] -= lr * (m[n] / c1) / (np.sqrt(v[n] / c2) + eps)
    return data, m, v


def test_adam_step_matches_the_per_array_formula_bitwise():
    rng = np.random.default_rng(8)
    named = [("w", Tensor(rng.normal(size=(3, 2, 3, 3)))), ("b", Tensor(rng.normal(size=3))),
             ("s", Tensor(rng.normal(size=(1,))))]
    steps = [{n: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=t.data.shape)
              for n, t in named} for _ in range(5)]
    lrs = [1e-3, 1e-3, 4e-4, 0.0, 2e-3]
    data, m, v = _adam_per_array(named, steps, lrs)
    opt = Adam(named)
    for grads, lr in zip(steps, lrs):
        for n, t in named:
            t.grad[...] = grads[n]
        opt.step(lr)
        opt.zero_grad()
    assert opt.t == len(steps)
    for n, t in named:
        assert t.data.tobytes() == data[n].tobytes(), n
        assert opt.m[n].tobytes() == m[n].tobytes(), n
        assert opt.v[n].tobytes() == v[n].tobytes(), n


def test_adam_diverged_step_after_steps_names_the_parameter_and_moves_nothing():
    rng = np.random.default_rng(9)
    named = [(n, Tensor(rng.normal(size=s))) for n, s in (("a", (2, 3)), ("b", (4,)), ("c", (2,)))]
    opt = Adam(named)
    for _ in range(3):
        for _, t in named:
            t.grad[...] = rng.normal(size=t.data.shape)
        opt.step(1e-2)
    before = ([t.data.copy() for _, t in named], {n: opt.m[n].copy() for n, _ in named},
              {n: opt.v[n].copy() for n, _ in named})
    for _, t in named:
        t.grad[...] = 1.0
    named[1][1].grad[2] = np.nan
    named[2][1].grad[0] = -np.inf
    with pytest.raises(TrainingDiverged, match="non-finite gradient in 'b' at optimizer step 4"):
        opt.step(1e-2)
    assert opt.t == 3
    for a, (n, t) in zip(before[0], named):
        assert np.array_equal(a, t.data), n
        assert np.array_equal(before[1][n], opt.m[n]), n
        assert np.array_equal(before[2][n], opt.v[n]), n


def test_a_trained_state_holds_no_gradient_buffers():
    for mode in ("full", "fixed-variance"):
        state = run_training(build_experiment(tiny_cfg(rounds=1), TINY_SPEC), mode=mode)
        nets = [state.theta] + ([state.phi] if state.phi is not None else [])
        assert all(t._grad is None for net in nets for _, t in net.parameters()), mode


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
    real_gst, real_epoch, real_sample = trainer.gst_forward, trainer._epoch, trainer._sample_loss
    now = {}
    calls = []  # (phase, mask values, phi values) per gst_forward call
    fed = []  # (round, mask, g) per theta-epoch loss sample of the rounds
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

    def sample(theta, g, xv, mask, *args, **kw):
        if now["phase"] == "train":
            fed.append((len(phi_before) - 1, mask, g.data.copy()))
        return real_sample(theta, g, xv, mask, *args, **kw)

    monkeypatch.setattr(trainer, "gst_forward", gst)
    monkeypatch.setattr(trainer, "_epoch", epoch)
    monkeypatch.setattr(trainer, "_sample_loss", sample)
    in_process(monkeypatch)
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
    # a beta = 0 phi epoch scores the reconstruction loss alone, bit for
    # bit, and still logs the entropy; one batch of two, one mask
    cfg = tiny_cfg(beta=0.0)
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg, n_scenes=2, n_masks=1)
    ref = make_state(cfg)
    order, pick, eps = (ref.rngs["phi_" + role] for role in ("order", "mask", "eps"))
    batch = [scenes[int(i)] for i in order.permutation(2)]
    m = masks[int(pick.integers(1))]
    want = recon_loss(ref.theta, gst_forward(m, ref.phi), batch, m, cfg, eps)
    trainer._epoch(state, scenes, masks, "val", lr_phi=0.0)
    row = state.log[-1]
    assert row["loss"] == float(want.data)
    ent = entropy_term(gst_forward(m, state.phi))
    assert row["entropy"] == float(ent.data)  # still reported for the log


def test_total_loss_adds_weighted_entropy():
    # at rate 0 phi stays put, so the phi epochs score the same reconstruction
    # losses and differ only by beta times the same entropy, of either sign
    rows = {}
    for beta in (0.0, 1e-2, -1e-2):
        cfg = tiny_cfg(beta=beta)
        state = make_state(cfg)
        scenes, masks = tiny_problem(cfg)
        trainer._epoch(state, scenes, masks[:1], "val", lr_phi=0.0)
        rows[beta] = state.log[-1]
    g = gst_forward(masks[0], state.phi)
    ent = rows[0.0]["entropy"]
    assert ent == pytest.approx(np.mean(np.log(g.data)) + LOG_SQRT_2PIE, abs=1e-15)
    assert ent < 0.0  # g starts near prior_sigma, below (2*pi*e)**-0.5
    assert rows[-1e-2]["loss"] > rows[0.0]["loss"] > rows[1e-2]["loss"]
    for beta in (1e-2, -1e-2):
        assert rows[beta]["entropy"] == ent
        assert rows[beta]["loss"] == pytest.approx(rows[0.0]["loss"] + beta * ent, rel=1e-12)


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
        g = gst_forward(masks[0], state.phi)
        total = add(recon_loss(state.theta, g, scenes[:2], masks[0], cfg, rng),
                    mul(entropy_term(g), cfg.beta))
        backward(total)
        del total, g
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("steps", ["theta", "phi", "both"])
def test_epoch_frees_each_batch_tape_before_the_next_forward(monkeypatch, steps):
    import weakref

    from casskit import trainer

    cfg = tiny_cfg(beta=1e-2)
    state = make_state(cfg)
    scenes, masks = tiny_problem(cfg)  # two batches of two
    real = trainer._sample_loss
    made = []  # each sample's loss
    maps = []  # the deviation map each sample saw

    def sample(theta, g, *args, **kw):
        # the tape is acyclic, so a dropped one is already freed here
        assert all(ref() is None for ref in made), "an earlier sample's tape is alive"
        if steps != "theta":  # theta epochs reuse one frozen map per mask
            assert all(ref() is None or ref() is g.data for ref in maps), \
                "an earlier batch's deviation network tape is alive"
        loss = real(theta, g, *args, **kw)
        made.append(weakref.ref(loss.data))
        maps.append(weakref.ref(g.data))
        return loss

    monkeypatch.setattr(trainer, "_sample_loss", sample)
    in_process(monkeypatch)
    kw = {"theta": dict(lr_theta=1e-3, frozen={}), "phi": dict(lr_phi=1e-3),
          "both": dict(lr_theta=1e-3, lr_phi=1e-3)}[steps]
    trainer._epoch(state, scenes, masks, "train", **kw)
    assert len(made) == 4


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
    g = gst_forward(masks[0], state.phi)
    total = add(recon_loss(state.theta, g, scenes[:2], masks[0], cfg, eps_list=eps),
                mul(entropy_term(g), cfg.beta))
    backward(total)
    theta_before = [t.data.copy() for _, t in state.theta.parameters()]
    state.adam_phi.step(1e-3)
    for a, (_, t) in zip(theta_before, state.theta.parameters()):
        assert np.array_equal(a, t.data)


def test_phi_epochs_leave_theta_grads_and_values_alone(monkeypatch):
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
    grads_after_epochs = []
    run_epoch = trainer._epoch

    def epoch(st, *args, **kwargs):
        run_epoch(st, *args, **kwargs)
        grads_after_epochs.append([t.grad.copy() for _, t in st.theta.parameters()])

    monkeypatch.setattr(trainer, "_epoch", epoch)
    train_regime(state, exp.train_scenes, exp.val_scenes, exp.train_masks)
    assert [row["phase"] for row in state.log] == ["val", "val"]
    assert state.adam_theta.t == 0 and state.adam_phi.t > 0
    assert len(grads_after_epochs) == 2
    for a, (_, t) in zip(theta_before, state.theta.parameters()):
        assert np.array_equal(a, t.data)
    for grads in grads_after_epochs:
        assert all(np.all(g == 7.0) for g in grads)
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
                        lambda m, g, eps: real(m, mul(g, 0.0), eps))
    in_process(monkeypatch)
    cfg = tiny_cfg(lr_halve_period=2, t_trn=2, t_val=2, rounds=3)
    exp = build_experiment(cfg, TINY_SPEC)
    full = run_training(exp, mode="full")
    base = run_training(exp, mode="fixed-variance")
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
    quiet = run_training(exp, mode="fixed-variance")
    loud = run_training(dataclasses.replace(exp, cfg=tiny_cfg(noise_std=0.01)),
                        mode="fixed-variance")
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
    assert make_state(cfg, "fixed-variance", 0.0).phi is None
    build_experiment(cfg, TINY_SPEC)  # a noiseless fabrication prior stays legal


def test_make_state_refuses_a_prior_sigma_whose_bias_is_not_finite():
    # phi's output bias is softplus^-1(prior_sigma), which overflows past ~709.78
    cfg = tiny_cfg(prior_sigma=800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy's overflow warning is not printed
        for mode in ("full", "no-bilevel", "untrained"):
            with pytest.raises(ValueError, match=r"prior_sigma must be > 0 and at most "
                                                 r"about 709\.78, got 800\.0"):
                make_state(cfg, mode)
        assert make_state(cfg, "fixed-variance", 0.0).phi is None
        bias = make_state(tiny_cfg(prior_sigma=709.0)).phi.out_b.data
    assert np.all(bias == np.log(np.expm1(709.0)))


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

    cfg = tiny_cfg(beta=-0.25)
    text = config_text(cfg)
    items = io.parse_config(text)
    (back,) = io.coerce_dataclass(items, TrainConfig)
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
        tiny_cfg(lr_halve_period=0).validate()
    tiny_cfg(beta=-0.1).validate()  # the sign of beta is the sign of the entropy term
    for key in ("prior_sigma", "backbone_blocks", "alpha0", "t_init", "rounds", "seed"):
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


def test_zero_spread_resume_matches_uninterrupted_run(tmp_path):
    # the mask-ensemble baseline, fixed-variance at spread 0, resumes bit-exact
    cfg = tiny_cfg(rounds=3)
    exp = build_experiment(cfg, TINY_SPEC)
    straight = run_training(exp, mode="fixed-variance")

    short = dataclasses.replace(exp, cfg=dataclasses.replace(cfg, rounds=1))
    part = run_training(short, mode="fixed-variance")
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


@pytest.mark.parametrize("g0", [-0.5, math.nan, math.inf])
def test_run_training_refuses_a_spread_that_is_not_finite_and_nonnegative(g0):
    exp = build_experiment(tiny_cfg(), TINY_SPEC)
    with pytest.raises(ValueError, match=rf"regime .*'fixed_g': {g0}.* must have a mode "
                                         r"in .* a finite number >= 0"):
        run_training(exp, mode="fixed-variance", fixed_g=g0)


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
    ("theta/head_w", "0.0"), ("opt_phi/m/out_w", "[]"), ("meta/regime", None),
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


@pytest.mark.parametrize("name, shape", [
    ("opt_theta/m/head_b", (3,)), ("opt_theta/v/tail_w", (2, 2)),
    ("opt_phi/m/out_w", (1,)),  # would broadcast into any shape
])
def test_load_state_checks_the_shape_of_each_moment_blob(tmp_path, name, shape):
    from casskit import io

    blobs = state_blobs(make_state(tiny_cfg()))
    want = blobs[name].shape
    blobs[name] = np.zeros(shape)
    io.save_checkpoint(tmp_path / "bad.ckp", blobs)
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {name} has shape {shape}, "
                                                   f"expected {want}")):
        load_state(tmp_path / "bad.ckp")


@pytest.mark.parametrize("name, text", [
    ("meta/counters", "[]"), ("meta/counters", "{}"),
    ("meta/counters", '{"epoch": "3", "round": 0}'),
    ("meta/counters", '{"epoch": -1, "round": 0}'),
    ("meta/regime", "[]"), ("meta/regime", '{"fixed_g": null}'),
    ("meta/regime", '{"mode": "sideways", "fixed_g": null}'),
    ("meta/regime", '{"mode": "fixed-variance", "fixed_g": NaN}'),
    ("meta/regime", '{"mode": "fixed-variance", "fixed_g": Infinity}'),
    ("meta/regime", '{"mode": "fixed-variance", "fixed_g": "abc"}'),
    ("meta/regime", '{"mode": "fixed-variance", "fixed_g": -0.5}'),
    ("meta/regime", '{"mode": "fixed-variance", "fixed_g": true}'),
    ("meta/regime", '{"mode": "fixed-variance"}'),
    ("meta/regime", '{"mode": "no-gst", "fixed_g": null}'),  # a regime since removed
    ("meta/regime", '{"mode": "full", "fixed_g": 0.0}'),
    ("opt_theta/t", "[]"), ("opt_theta/t", "-3"), ("opt_theta/t", "2.5"),
    ("opt_theta/t", '"4"'), ("opt_phi/t", "-1"), ("opt_phi/t", "true"),
    ("meta/log", "{}"), ("meta/log", "[1]"), ("meta/log", "[{}]"),
    ("meta/log", json.dumps([_ROW, {**_ROW, "loss": "abc"}])),
    ("meta/log", json.dumps([{**_ROW, "loss": True}])),
    ("meta/log", json.dumps([{**_ROW, "phase": 3}])),
    ("meta/log", json.dumps([{**_ROW, "round": 0.0}])),
    ("meta/log", json.dumps([{**_ROW, "epoch": False}])),
    ("meta/log", json.dumps([{**_ROW, "entropy": "0.1"}])),
    ("meta/log", json.dumps([{**_ROW, "loss": float("nan")}])),
    ("meta/log", json.dumps([{**_ROW, "loss": -float("inf")}])),
    ("meta/log", json.dumps([{**_ROW, "entropy": float("inf")}])),
    ("meta/log", json.dumps([{k: v for k, v in _ROW.items() if k != "entropy"}])),
    ("meta/rng/eps", "[]"), ("meta/rng/eps", '{"bit_generator": "PCG64"}'),
    ("meta/rng/phi_noise", _MT19937), ("meta/rng/order", "{"),
    # numpy would truncate each of these counters to an integer without a word
    ("meta/rng/eps", _pcg64(state=1.5)), ("meta/rng/eps", _pcg64(state=2**64 + 0.5)),
    ("meta/rng/eps", _pcg64(state=True)), ("meta/rng/mask", _pcg64(inc=3.0)),
    ("meta/rng/noise", _pcg64(has_uint32=True)), ("meta/rng/order", _pcg64(uinteger=0.5)),
])
def test_load_state_checks_what_the_meta_blobs_hold(tmp_path, name, text):
    from casskit import io

    blobs = state_blobs(make_state(tiny_cfg()))
    blobs[name] = text
    io.save_checkpoint(tmp_path / "bad.ckp", blobs)
    want = ("be a JSON integer" if name.endswith("/t")
            else "hold a PCG64 state" if name.startswith("meta/rng/")
            else "be a JSON (object|list)")
    with pytest.raises(ValueError, match=f"blob '{name}' must {want}"):
        load_state(tmp_path / "bad.ckp")


def test_load_state_takes_the_log_rows_a_run_writes():
    # null and numeric entropy, an integer loss, and the pretrain round -1
    blobs = state_blobs(make_state(tiny_cfg()))
    log = [_ROW, {**_ROW, "phase": "val", "round": 0, "epoch": 2, "loss": 1, "entropy": -3}]
    blobs["meta/log"] = json.dumps(log)
    assert state_from_blobs(blobs).log == log


def _same(a, b):
    """Bit-for-bit equality of two values of TrainState fields."""
    if isinstance(a, Adam):
        return a.t == b.t and _same(a.m, b.m) and _same(a.v, b.v)
    if isinstance(a, np.random.Generator):
        return a.bit_generator.state == b.bit_generator.state
    if hasattr(a, "parameters"):
        return _same(dict(a.parameters()), dict(b.parameters()))
    if isinstance(a, Tensor):
        return _same(a.data, b.data)
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("mode, rounds", [("full", 0), ("full", 1), ("fixed-variance", 1)])
def test_a_checkpoint_restores_every_state_field(mode, rounds):
    # every field of a trained state comes back from its blobs, so a
    # run-local cache kept on the state would fail here; a full run that
    # ends in pretrain ends with its theta-only maps computed
    exp = build_experiment(tiny_cfg(rounds=rounds), TINY_SPEC)
    state = run_training(exp, mode=mode, fixed_g=0.3)
    back = state_from_blobs(state_blobs(state))
    for f in dataclasses.fields(TrainState):
        assert _same(getattr(state, f.name), getattr(back, f.name)), f.name


def test_load_state_names_missing_rng_stream(tmp_path):
    from casskit import io

    blobs = state_blobs(make_state(tiny_cfg()))
    del blobs["meta/rng/phi_order"]
    io.save_checkpoint(tmp_path / "old.ckp", blobs)
    with pytest.raises(ValueError, match="meta/rng/phi_order"):
        load_state(tmp_path / "old.ckp")


def test_checkpoint_without_gst(tmp_path):
    cfg = tiny_cfg()
    state = make_state(cfg, "fixed-variance", 0.0)
    save_state(state, tmp_path / "plain.ckp")
    loaded = load_state(tmp_path / "plain.ckp")
    assert loaded.phi is None and loaded.adam_phi is None
