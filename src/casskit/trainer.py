"""Training of the reconstruction network and the mask-deviation model.

``train_regime`` is the one schedule.  It runs the regime recorded in the
state over one epoch helper that steps theta, phi or both and logs one
row, all sharing one Monte-Carlo reconstruction loss:

* ``full`` warms up the reconstruction weights theta alone under masks
  perturbed through the frozen phi, then alternates rounds: a few epochs
  updating theta on the training scenes (deviation map treated as
  constant), then a few epochs updating the deviation network phi on
  held-out validation scenes using the reconstruction loss plus a
  weighted mask-entropy term.
* ``no-bilevel`` warms up the same way, then steps theta and phi together
  on the training scenes, the single-loop control.
* ``fixed-variance`` is mask-ensemble training of theta alone under a
  constant perturbation spread; ``no-gst`` is the spread 0.
* ``untrained`` keeps the fresh weights.

Each part trains until its counter reaches the budget in the config, so
a state loaded from a checkpoint continues in its own regime by the same
call.  The controls get the full method's theta budget,
``t_init + rounds * t_trn`` epochs.

The epoch helper alone decides the deviation map g of each batch: on the
tape from phi when phi steps, a frozen copy of it, or a constant when
only theta steps.  The losses only score the map they are given.
Each loss sample redraws the mask: m' = clamp01(m + g * eps), re-encodes
the scene through m', and reconstructs from the windowed initialization,
so gradients reach phi through both the measurement and the conditioning.
eps is N(0, 1).  Training measurement noise is N(0, ``noise_std``^2) per
detector pixel, drawn by :func:`casskit.optics.encode_tape` from the
epoch's noise stream; ``noise_std = 0`` draws none.

Every random draw comes from a role-named generator stream (data order,
mask choice, eps, measurement noise), so runs are reproducible and a
checkpoint can capture the exact position of every stream.  Epochs that
step theta draw from ``order``, ``mask``, ``eps`` and ``noise``; epochs
that step only phi draw from their own ``phi_order``, ``phi_mask``,
``phi_eps`` and ``phi_noise``.  So the theta epochs of the full model
see the same batches and masks as the equal-budget baseline, and the
comparison between the two stays paired.

A training step splits its batch across the cores this process may run
on (``os.sched_getaffinity``), capped at the batch size: the batch is
cut into contiguous chunks, this process runs the first and helper
processes (:mod:`casskit.helpers`) run the others.  Each sample does its
forward and backward on its own tape, seeded with 1/B, so its gradient
terms are exactly those of the one tape :func:`recon_loss` builds.  That
tape's sweep adds the samples' terms into every theta leaf, and into g,
in sample order 0..B-1, and then the entropy term's.  The step adds the
per-sample gradients in the same order (a helper returns its samples'
gradients apart, never summed), then runs one sweep through the
deviation network seeded with the summed dL/dg and the entropy term.  So
every sum, and every output, is bit for bit what a single process
computes, whatever the core count.  This process draws every eps and
every measurement noise with the calls of the one-tape loss and in its
order: a sample receives its eps and a copy of the noise generator taken
before its draw, and the epoch's stream is advanced by the same draw, so
every stream ends where a serial step leaves it.  Helpers start at the
first step with more than one sample to split on a machine with more
than one usable core, never at import or set-up, number at most one
fewer than the usable cores, and live until the interpreter exits; see
:mod:`casskit.helpers`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import io
from .backbone import SrnParams, reconstruct, srn_init
from .gstnet import GstParams, gst_forward, gst_init
from .maskmodel import entropy_term, sample_perturbed
from .ndgrad import Tensor, add, backward, check_finite, mul, neg, tmean, tsum
from .optics import (
    _cube_values,
    _mask_values,
    cube_to_chw,
    chw_to_cube,
    encode_tape,
    init_input,
    init_input_tape,
)

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "Adam",
    "lr_schedule",
    "recon_loss",
    "total_loss",
    "TrainState",
    "make_state",
    "REGIMES",
    "train_regime",
    "reconstruct_scene",
    "save_state",
    "load_state",
    "config_text",
]

# New roles go at the end so that existing streams keep their seeds.
_RNG_ROLES = (
    "init_theta", "init_phi", "order", "mask", "eps", "noise",
    "phi_order", "phi_mask", "phi_eps", "phi_noise",
)

# training regime -> whether its state carries the deviation network phi
REGIMES = {
    "full": True, "no-gst": False, "no-bilevel": True,
    "fixed-variance": False, "untrained": True,
}


class TrainingDiverged(RuntimeError):
    """A gradient went non-finite; the offending parameter is named in the message."""


@dataclass
class TrainConfig:
    """Everything the training loops read; flat so it maps 1:1 to config files."""

    # data / optics
    bands: int = 4
    d: int = 2
    noise_std: float = 0.0  # training measurement noise; 0 draws none
    # mask fabrication prior N(prior_mu, prior_sigma^2)
    prior_mu: float = 0.006
    prior_sigma: float = 0.005
    # networks
    backbone_channels: int = 16
    backbone_blocks: int = 4
    gst_channels: int = 8
    gst_proj_channels: int = 4
    # optimization
    alpha0: float = 4e-4  # pretrain lr
    alpha1: float = 4e-4  # lower-level (theta) lr
    alpha2: float = 1e-5  # upper-level (phi) lr
    t_init: int = 20
    t_trn: int = 5
    t_val: int = 3
    rounds: int = 20
    batch: int = 4
    beta: float = 1e-3
    lr_halve_period: int = 50
    entropy_flip: bool = False  # subtract the entropy term instead of adding it
    seed: int = 0

    def validate(self):
        io.check_finite_fields(self)
        if self.bands < 1:
            raise ValueError(f"bands must be >= 1, got {self.bands}")
        if self.d < 0:
            raise ValueError(f"dispersion step must be >= 0, got {self.d}")
        if min(self.backbone_channels, self.gst_channels, self.gst_proj_channels) < 1:
            raise ValueError("channel counts must be >= 1")
        for name in ("noise_std", "prior_sigma", "backbone_blocks", "alpha0", "alpha1",
                     "alpha2", "t_init", "t_trn", "t_val", "rounds", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.lr_halve_period < 1:
            raise ValueError(f"lr_halve_period must be >= 1, got {self.lr_halve_period}")
        return self


def config_text(cfg):
    """Render a config as sorted key=value lines (the config-file format)."""
    d = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    return io.format_config(d)


def lr_schedule(base, epoch, period=50):
    """Halve the base rate once per ``period`` completed epochs."""
    if period < 1:
        raise ValueError(f"schedule period must be >= 1, got {period}")
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return base * 0.5 ** (epoch // period)


class Adam(object):
    """Adam over named parameter tensors; reads grads in place."""

    def __init__(self, named_params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named = list(named_params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in self.named}
        self.v = {n: np.zeros_like(t.data) for n, t in self.named}

    def zero_grad(self):
        for _, t in self.named:
            t.grad[...] = 0.0

    def step(self, lr):
        # every gradient is checked before any state moves, so a diverged
        # step leaves parameters, moments and t as they were
        for n, t in self.named:
            if not np.all(np.isfinite(t.grad)):
                raise TrainingDiverged(
                    f"non-finite gradient in {n!r} at optimizer step {self.t + 1}")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for n, t in self.named:
            g = t.grad
            m = self.m[n]
            v = self.v[n]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            t.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _sample_loss(theta, g, xv, mask, cfg, eps=None, rng=None, noise_rng=None):
    """One Monte-Carlo sample's loss: the mean squared error over its pixels.

    Draws the perturbed mask m' = clamp01(m + g * eps) (``eps`` drawn from
    ``rng`` when not given), encodes the scene values ``xv`` through m',
    drawing measurement noise from ``noise_rng`` when ``cfg.noise_std >
    0``, and reconstructs from the windowed initialization.
    """
    m_t = sample_perturbed(mask, g, eps=eps, rng=rng)
    y = encode_tape(xv, m_t, cfg.d, cfg.noise_std, noise_rng)
    x_in = init_input_tape(y, m_t, cfg.d, xv.shape[2])
    xhat = reconstruct(x_in, theta)
    diff = add(xhat, neg(Tensor(cube_to_chw(xv))))
    return tmean(mul(diff, diff))


def recon_loss(theta, g, batch, mask, cfg, rng=None, *, eps_list=None,
               noise_rng=None):
    """Monte-Carlo reconstruction loss over one batch and one mask.

    ``g`` is the per-pixel deviation map, a Tensor.  Each sample draws
    its own perturbed mask m' = clamp01(m + g * eps), encodes the scene
    through m' and reconstructs from the windowed initialization, so the
    loss reaches whatever ``g`` hangs from on the tape.  ``eps_list``
    overrides the eps draws from ``rng``; with ``cfg.noise_std > 0`` each
    encode draws its measurement noise from ``noise_rng``.  The loss is
    the mean over batch and pixels.  This one tape is the reference the
    training step's per-sample sweeps reproduce bit for bit.
    """
    scenes = [_cube_values(x) for x in batch]
    if not scenes:
        raise ValueError("empty batch")
    terms = [
        _sample_loss(theta, g, xv, mask, cfg, None if eps_list is None else eps_list[i],
                     rng, noise_rng)
        for i, xv in enumerate(scenes)
    ]
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return mul(acc, 1.0 / len(scenes))


def total_loss(theta, g, batch, mask, cfg, rng=None, *, eps_list=None,
               noise_rng=None):
    """Reconstruction loss plus beta-weighted mask entropy of ``g``.

    Returns (total, recon, mean_entropy_float).  With beta == 0 the total
    IS the recon loss object, so the two are bit-identical.
    """
    loss = recon_loss(theta, g, batch, mask, cfg, rng, eps_list=eps_list,
                      noise_rng=noise_rng)
    ent = entropy_term(g)
    total = loss
    if cfg.beta != 0.0:
        total = add(loss, mul(ent, -cfg.beta if cfg.entropy_flip else cfg.beta))
    return total, loss, float(ent.data)


@dataclass
class TrainState:
    """Everything a run needs to continue: params, optimizers, streams, counters."""

    cfg: TrainConfig
    theta: SrnParams
    phi: GstParams | None
    adam_theta: Adam
    adam_phi: Adam | None
    rngs: dict
    epoch: int = 0
    round: int = 0
    log: list = field(default_factory=list)
    # {"mode": one of REGIMES, "fixed_g": float or None}; None if not recorded
    regime: dict | None = None
    # the scenario trained on, as key=value lines; None if not recorded
    scenario: str | None = None
    # (phi's values, {mask values: frozen g}) memo of theta-only epochs;
    # run-local, never checkpointed (see _frozen_g)
    g_memo: tuple | None = field(default=None, repr=False, compare=False)


def make_state(cfg, with_gst=True):
    """Fresh parameters and optimizer/stream state from ``cfg.seed``.

    The deviation network's output bias starts at softplus^-1(prior_sigma),
    so the initial map g sits near the fabrication prior's spread rather
    than at softplus(0) ~ 0.69.
    """
    cfg.validate()
    if with_gst and cfg.prior_sigma <= 0.0:
        raise ValueError(
            f"prior_sigma must be > 0 to start the deviation network, got "
            f"{cfg.prior_sigma}: softplus^-1(0) is -inf and the entropy term "
            f"needs g > 0"
        )
    kids = np.random.SeedSequence(cfg.seed).spawn(len(_RNG_ROLES))
    rngs = {role: np.random.default_rng(k) for role, k in zip(_RNG_ROLES, kids)}
    theta = srn_init(
        cfg.bands, cfg.backbone_channels, cfg.backbone_blocks, rngs["init_theta"]
    )
    phi = None
    if with_gst:
        phi = gst_init(cfg.gst_channels, cfg.gst_proj_channels, rngs["init_phi"])
        phi.out_b.data[...] = np.log(np.expm1(cfg.prior_sigma))
    adam_theta = Adam(theta.parameters())
    adam_phi = Adam(phi.parameters()) if phi is not None else None
    return TrainState(cfg, theta, phi, adam_theta, adam_phi, rngs)


def _batches(scenes, batch, rng):
    idx = rng.permutation(len(scenes))
    for s in range(0, len(idx), batch):
        yield [scenes[int(i)] for i in idx[s : s + batch]]


def _pick_mask(masks, rng):
    return masks[int(rng.integers(len(masks)))]


def _frozen_g(state, m, phi):
    """``gst_forward(m, phi)`` taken off the tape, computed once per (m, phi).

    While only theta steps, phi is frozen and g is a constant of the mask,
    so all of pretrain and each round's theta epochs reuse one g per train
    mask.  The memo is keyed on phi's values and dropped as soon as they
    change; a resumed run rebuilds it, so it never reaches a checkpoint.
    """
    phi_key = b"".join(t.data.tobytes() for _, t in phi.parameters())
    if state.g_memo is None or state.g_memo[0] != phi_key:
        state.g_memo = (phi_key, {})
    by_mask = state.g_memo[1]
    mask_key = _mask_values(m).tobytes()
    if mask_key not in by_mask:
        by_mask[mask_key] = Tensor(gst_forward(m, phi).data)
    return by_mask[mask_key]


def _epoch(state, scenes, masks, phase, rnd=-1, *, lr_theta=None, lr_phi=None,
           phi=None, fixed_g=0.0):
    """One pass over ``scenes`` stepping theta, phi or both; logs one row.

    This is where the deviation map g of each batch is decided.  Epochs
    that step phi put ``gst_forward(m, state.phi)`` on the tape and score
    the loss of :func:`total_loss`.  Theta-only epochs score the loss of
    :func:`recon_loss` with g from the frozen ``phi`` taken off the tape,
    or else with the constant spread ``fixed_g``; the frozen g is computed
    once per train mask and phi state (:func:`_frozen_g`), not per batch.
    Epochs that step only phi draw batch order, mask, eps and noise from
    the ``phi_*`` streams; every other epoch draws from the theta streams.

    Each batch's samples are swept one by one, split across the usable
    cores (:func:`casskit.helpers.batch_backward`), against a leaf copy
    of g.  When phi steps, the summed dL/dg then seeds one sweep through
    the deviation network together with the beta-weighted entropy, added
    after the samples as in :func:`total_loss`'s tape.  Each sweep
    computes the gradients of the stepped parameters alone.
    """
    from . import helpers  # not at import, so set-up does not compile it

    cfg = state.cfg
    scenes = list(scenes)
    family = "phi_" if lr_theta is None else ""
    order, pick, eps, noise_rng = (
        state.rngs[family + role] for role in ("order", "mask", "eps", "noise")
    )
    stepped = [(opt, lr) for opt, lr in ((state.adam_theta, lr_theta),
                                         (state.adam_phi, lr_phi)) if lr is not None]
    phi_wrt = [t for _, t in state.adam_phi.named] if lr_phi is not None else []
    weight = -cfg.beta if cfg.entropy_flip else cfg.beta
    tot = 0.0
    ent_tot = 0.0
    nb = 0
    for batch in _batches(scenes, cfg.batch, order):
        m = _pick_mask(masks, pick)
        if lr_phi is not None:
            g = gst_forward(m, state.phi)
            ent = entropy_term(g)
            g_leaf = Tensor(g.data)  # the samples' sweeps end here, not in the network
        elif phi is not None:
            g_leaf = _frozen_g(state, m, phi)
        else:
            g_leaf = Tensor(np.full(_mask_values(m).shape, fixed_g, dtype=np.float64))
        loss = helpers.batch_backward(state.theta, g_leaf, batch, m, cfg, eps, noise_rng,
                                      lr_theta is not None, lr_phi is not None)
        if lr_phi is not None:
            root = tsum(mul(g, Tensor(g_leaf.grad)))
            if cfg.beta != 0.0:
                root = add(root, mul(ent, weight))
                loss += float(ent.data) * weight
            backward(root, phi_wrt)
            ent_tot += float(ent.data)
        for opt, lr in stepped:
            opt.step(lr)
            opt.zero_grad()
        tot += loss
        nb += 1
        # these names hold the deviation network's tape: free it before the next forward
        g = g_leaf = root = ent = None
    state.epoch += 1
    state.log.append(
        {"phase": phase, "round": rnd, "epoch": state.epoch,
         "loss": tot / max(nb, 1),
         "entropy": None if lr_phi is None else ent_tot / max(nb, 1)}
    )


def train_regime(state, train_scenes, val_scenes, masks):
    """Run the regime recorded in ``state.regime`` until its budgets are met.

    Every part trains until its counter reaches the budget in
    ``state.cfg``, so the same call trains a fresh state, continues a
    loaded checkpoint, and leaves a finished run as it is.

    ``full`` runs rounds ``state.round`` .. ``cfg.rounds``; phi is bitwise
    frozen during theta epochs and vice versa.  Theta's rate is scheduled
    on theta's own epoch count (pretrain epochs plus theta epochs so far),
    so theta epoch e runs at the same rate as epoch e of the controls.
    Phi's rate is scheduled on the shared ``state.epoch``, which counts
    every epoch of both kinds.  The controls schedule every rate on
    ``state.epoch``, which there counts only theta epochs.
    """
    if state.regime is None:
        raise ValueError(
            "the state records no training regime; a checkpoint needs the "
            "'meta/regime' blob to be resumed"
        )
    mode = state.regime.get("mode")
    if mode not in REGIMES:
        raise ValueError(f"unknown training mode {mode!r}")
    if REGIMES[mode] != (state.phi is not None):
        raise ValueError(
            f"the {mode!r} regime {'needs' if REGIMES[mode] else 'trains without'} "
            f"the deviation network, but the state "
            f"{'holds none' if state.phi is None else 'holds one'}"
        )
    cfg = state.cfg

    def lr(base, epoch):
        return lr_schedule(base, epoch, cfg.lr_halve_period)

    budget = cfg.t_init + cfg.rounds * cfg.t_trn  # theta epochs of the full method
    if mode in ("full", "no-bilevel"):
        while state.epoch < cfg.t_init:
            _epoch(state, train_scenes, masks, "pretrain",
                   lr_theta=lr(cfg.alpha0, state.epoch), phi=state.phi)
    if mode == "full":
        while state.round < cfg.rounds:
            r = state.round
            for _ in range(cfg.t_trn):
                # every round so far ran t_val phi epochs after its theta epochs
                _epoch(state, train_scenes, masks, "train", r,
                       lr_theta=lr(cfg.alpha1, state.epoch - r * cfg.t_val), phi=state.phi)
            for _ in range(cfg.t_val):
                _epoch(state, val_scenes, masks, "val", r,
                       lr_phi=lr(cfg.alpha2, state.epoch))
            state.round += 1
    elif mode == "no-bilevel":
        while state.epoch < budget:
            _epoch(state, train_scenes, masks, "joint",
                   lr_theta=lr(cfg.alpha1, state.epoch), lr_phi=lr(cfg.alpha2, state.epoch))
    elif mode in ("no-gst", "fixed-variance"):
        g0 = state.regime.get("fixed_g") or 0.0  # no-gst records none: the spread 0
        while state.epoch < budget:
            _epoch(state, train_scenes, masks, "baseline",
                   lr_theta=lr(cfg.alpha1, state.epoch), fixed_g=g0)
    return state


def reconstruct_scene(theta, y, m):
    """Measurement + mask -> reconstructed cube (H x W x bands array)."""
    x_in = init_input(y, m)
    xhat = reconstruct(Tensor(cube_to_chw(x_in)), theta)
    return chw_to_cube(check_finite(xhat, "reconstruction"))


# -- checkpoint plumbing ----------------------------------------------------

def _networks(state):
    """(blob prefix, parameters, optimizer) of theta and, if present, phi."""
    nets = [("theta", state.theta, state.adam_theta)]
    if state.phi is not None:
        nets.append(("phi", state.phi, state.adam_phi))
    return nets


def _blob(blobs, name, kind=np.ndarray):
    """``blobs[name]``: text for ``kind=str``, else an all-finite array."""
    want = "text" if kind is str else "an array"
    if name not in blobs:
        raise ValueError(f"checkpoint lacks the {name!r} blob ({want})")
    value = blobs[name]
    if not isinstance(value, kind):
        raise ValueError(f"checkpoint blob {name!r} must be {want}")
    if kind is not str and not np.all(np.isfinite(value)):
        raise ValueError(f"checkpoint blob {name!r} holds non-finite values")
    return value


def state_blobs(state):
    """Flatten a TrainState into named arrays/strings for the checkpoint file."""
    blobs = {"meta/config": config_text(state.cfg)}
    blobs["meta/counters"] = json.dumps({"epoch": state.epoch, "round": state.round})
    blobs["meta/log"] = json.dumps(state.log)
    if state.regime is not None:
        blobs["meta/regime"] = json.dumps(state.regime, sort_keys=True)
    if state.scenario is not None:
        blobs["meta/scenario"] = state.scenario
    for role, gen in state.rngs.items():
        blobs[f"meta/rng/{role}"] = json.dumps(gen.bit_generator.state)
    for prefix, params, adam in _networks(state):
        for n, t in params.parameters():
            blobs[f"{prefix}/{n}"] = t.data
        blobs[f"opt_{prefix}/t"] = json.dumps(adam.t)
        for n, _ in adam.named:
            blobs[f"opt_{prefix}/m/{n}"] = adam.m[n]
            blobs[f"opt_{prefix}/v/{n}"] = adam.v[n]
    return blobs


def _json_blob(blobs, name, ok, want):
    """The JSON value a text blob holds, if ``ok(value)``; else a ValueError naming it."""
    value = json.loads(_blob(blobs, name, str))
    if not ok(value):
        raise ValueError(f"checkpoint blob {name!r} must be {want}, got {value!r}")
    return value


def _count(value):
    return type(value) is int and value >= 0


def state_from_blobs(blobs):
    """Rebuild a TrainState; inverse of :func:`state_blobs`."""
    cfg_items = io.parse_config(_blob(blobs, "meta/config", str))
    cfg = io.coerce_dataclass(cfg_items, TrainConfig)
    with_gst = any(k.startswith("phi/") for k in blobs)
    state = make_state(cfg, with_gst=with_gst)
    counters = _json_blob(
        blobs, "meta/counters",
        lambda c: isinstance(c, dict) and all(_count(c.get(k)) for k in ("epoch", "round")),
        "a JSON object with integer epoch and round >= 0")
    state.epoch = counters["epoch"]
    state.round = counters["round"]
    state.log = _json_blob(blobs, "meta/log",
                           lambda log: isinstance(log, list)
                           and all(isinstance(row, dict) for row in log),
                           "a JSON list of objects")
    if "meta/regime" in blobs:
        state.regime = _json_blob(blobs, "meta/regime", lambda r: isinstance(r, dict),
                                  "a JSON object")
    if "meta/scenario" in blobs:
        state.scenario = _blob(blobs, "meta/scenario", str)
    for role, gen in state.rngs.items():
        gen.bit_generator.state = json.loads(_blob(blobs, f"meta/rng/{role}", str))
    for prefix, params, adam in _networks(state):
        for n, t in params.parameters():
            arr = _blob(blobs, f"{prefix}/{n}")
            if arr.shape != t.data.shape:
                raise ValueError(f"checkpoint {prefix}/{n} has shape {arr.shape}, "
                                 f"expected {t.data.shape}")
            t.data[...] = arr
        adam.t = _json_blob(blobs, f"opt_{prefix}/t", _count, "a JSON integer >= 0")
        for n, _ in adam.named:
            adam.m[n] = np.array(_blob(blobs, f"opt_{prefix}/m/{n}"))
            adam.v[n] = np.array(_blob(blobs, f"opt_{prefix}/v/{n}"))
    return state


def save_state(state, path):
    io.save_checkpoint(path, state_blobs(state))


def load_state(path):
    return state_from_blobs(io.load_checkpoint(path))
