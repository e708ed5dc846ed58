"""Training of the reconstruction network and the mask-deviation model.

``train_regime`` is the one schedule.  It runs the regime recorded in the
state over one epoch helper that steps theta, phi or both and logs one
row, all sharing one Monte-Carlo reconstruction loss:

* ``full`` warms up the reconstruction weights theta alone under masks
  perturbed through the frozen phi, then alternates rounds: a few epochs
  updating theta on the training scenes (deviation map treated as
  constant), then a few epochs updating the deviation network phi on
  held-out validation scenes using the reconstruction loss plus the
  mask entropy weighted by the signed ``beta``.
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
tape from phi when phi steps, else from the schedule's table of one map
per train mask, which holds the frozen phi's maps (each computed once
between phi epochs) or a control's constant spread.  The losses only
score the map they are given.
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
import math
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

_REGIME = (f"a mode in {sorted(REGIMES)} and a fixed_g that is null, or under "
           f"fixed-variance a finite number >= 0")


def _regime(value):
    """Whether ``value`` is a regime :func:`train_regime` can run: see ``_REGIME``."""
    if not isinstance(value, dict) or value.get("mode") not in REGIMES:
        return False
    g0 = value.get("fixed_g")
    if value["mode"] != "fixed-variance":
        return g0 is None
    return type(g0) in (int, float) and 0.0 <= g0 < math.inf


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
    beta: float = 1e-3  # signed weight of the entropy term: beta < 0 is an entropy bonus
    lr_halve_period: int = 50
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
                     "alpha2", "t_init", "t_trn", "t_val", "rounds", "seed"):
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


# parameter count -> (gradients, update), the flat temporaries of every
# Adam over that many values.  Shared rather than per optimizer, because
# a process may keep many trained states alive at once.
_ADAM_SCRATCH = {}


class Adam(object):
    """Adam over named parameter tensors; reads grads in place.

    The moments of all parameters are two flat vectors; ``m[name]`` and
    ``v[name]`` are views into them in the parameter's shape.  A step
    gathers the gradients into one flat vector and updates every
    parameter in one pass of whole-vector operations.
    """

    def __init__(self, named_params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.named = list(named_params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        ends = np.cumsum([t.data.size for _, t in self.named]).tolist()
        spans = [(n, t, a, b) for (n, t), a, b in zip(self.named, [0] + ends, ends)]
        total = ends[-1] if ends else 0
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self.m = {n: self._m[a:b].reshape(t.data.shape) for n, t, a, b in spans}
        self.v = {n: self._v[a:b].reshape(t.data.shape) for n, t, a, b in spans}
        if total not in _ADAM_SCRATCH:
            _ADAM_SCRATCH[total] = (np.empty(total), np.empty(total))
        self._scratch = grads, upd = _ADAM_SCRATCH[total]
        # (name, parameter, its slice of the gradients, of the update)
        self._parts = [(n, t, grads[a:b].reshape(t.data.shape), upd[a:b].reshape(t.data.shape))
                       for n, t, a, b in spans]

    def zero_grad(self):
        for _, t in self.named:
            t.grad[...] = 0.0

    def step(self, lr):
        # every gradient is checked before any state moves, so a diverged
        # step leaves parameters, moments and t as they were
        grads, upd = self._scratch
        for _, t, gv, _ in self._parts:
            np.copyto(gv, t.grad)
        if not np.all(np.isfinite(grads)):
            n = next(n for n, _, gv, _ in self._parts if not np.all(np.isfinite(gv)))
            raise TrainingDiverged(
                f"non-finite gradient in {n!r} at optimizer step {self.t + 1}")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        m, v = self._m, self._v
        # lr * (m / c1) / (sqrt(v / c2) + eps), one ufunc at a time in the order
        # the per-array expression evaluates, so every value is bit for bit the same
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=upd)
        m += upd
        v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=upd)
        upd *= grads
        v += upd
        np.divide(m, c1, out=upd)
        upd *= lr
        den = grads  # the gradients are spent
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        upd /= den
        for _, t, _, uv in self._parts:
            t.data -= uv


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


@dataclass
class TrainState:
    """Everything a run needs to continue: params, optimizers, streams, counters."""

    cfg: TrainConfig
    theta: SrnParams
    phi: GstParams | None
    adam_theta: Adam
    adam_phi: Adam | None
    rngs: dict
    # {"mode": one of REGIMES, "fixed_g": the spread >= 0 under "fixed-variance",
    # else None}
    regime: dict
    epoch: int = 0
    round: int = 0
    log: list = field(default_factory=list)
    # the scenario trained on, as key=value lines; None if not recorded
    scenario: str | None = None


def make_state(cfg, mode="full", fixed_g=None):
    """A fresh state from ``cfg.seed`` in a regime that :func:`_regime` accepts.

    Phi, made exactly when ``REGIMES[mode]``, starts with its output bias at
    softplus^-1(prior_sigma), so the initial map g sits near the fabrication
    prior's spread rather than at softplus(0) ~ 0.69.
    """
    cfg.validate()
    regime = {"mode": mode, "fixed_g": fixed_g}
    if not _regime(regime):
        raise ValueError(f"the training regime {regime!r} must have {_REGIME}")
    if REGIMES[mode] and cfg.prior_sigma <= 0.0:
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
    if REGIMES[mode]:
        phi = gst_init(cfg.gst_channels, cfg.gst_proj_channels, rngs["init_phi"])
        phi.out_b.data[...] = np.log(np.expm1(cfg.prior_sigma))
    adam_theta = Adam(theta.parameters())
    adam_phi = Adam(phi.parameters()) if phi is not None else None
    return TrainState(cfg, theta, phi, adam_theta, adam_phi, rngs, regime)


def _batches(scenes, batch, rng):
    idx = rng.permutation(len(scenes))
    for s in range(0, len(idx), batch):
        yield [scenes[int(i)] for i in idx[s : s + batch]]


def _epoch(state, scenes, masks, phase, rnd=-1, *, lr_theta=None, lr_phi=None,
           frozen=None):
    """One pass over ``scenes`` stepping theta, phi or both; logs one row.

    This is where the deviation map g of each batch is decided.  Epochs
    that step phi put ``gst_forward(m, state.phi)`` on the tape and score
    the loss of :func:`recon_loss` plus ``cfg.beta`` times the mask entropy
    of g, the term left out at beta 0.  Theta-only epochs score the loss of
    :func:`recon_loss` with g from ``frozen``, the schedule's table from
    train-mask index to a g leaf; an index not yet in it gets
    ``gst_forward(m, state.phi)`` taken off the tape, so a map is computed
    once per train mask while phi stays put, not per batch.
    Epochs that step only phi draw batch order, mask, eps and noise from
    the ``phi_*`` streams; every other epoch draws from the theta streams.

    Each batch's samples are swept one by one, split across the usable
    cores (:func:`casskit.helpers.batch_backward`), against a leaf copy
    of g.  When phi steps, the summed dL/dg then seeds one sweep through
    the deviation network together with the beta-weighted entropy, added
    after the samples as on the one tape that adds it to
    :func:`recon_loss`.  Each sweep
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
    tot = 0.0
    ent_tot = 0.0
    nb = 0
    for batch in _batches(scenes, cfg.batch, order):
        i = int(pick.integers(len(masks)))
        m = masks[i]
        if lr_phi is not None:
            g = gst_forward(m, state.phi)
            ent = entropy_term(g)
            g_leaf = Tensor(g.data)  # the samples' sweeps end here, not in the network
        else:
            if i not in frozen:
                frozen[i] = Tensor(gst_forward(m, state.phi).data)
            g_leaf = frozen[i]
        loss = helpers.batch_backward(state.theta, g_leaf, batch, m, cfg, eps, noise_rng,
                                      lr_theta is not None, lr_phi is not None)
        if lr_phi is not None:
            root = tsum(mul(g, Tensor(g_leaf.grad)))
            if cfg.beta != 0.0:
                root = add(root, mul(ent, cfg.beta))
                loss += float(ent.data) * cfg.beta
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

    The returned state's parameters hold no gradient buffers: they are
    made again, as zeros, when a step next needs them.
    """
    mode = state.regime["mode"]
    cfg = state.cfg
    # train-mask index -> the theta-only epochs' g leaf: a control's constant
    # spread, or phi's frozen map, made on first use and dropped when phi moves
    frozen = {}
    if mode in ("no-gst", "fixed-variance"):
        g0 = state.regime["fixed_g"] if mode == "fixed-variance" else 0.0
        frozen = {i: Tensor(np.full(_mask_values(m).shape, g0, dtype=np.float64))
                  for i, m in enumerate(masks)}

    def lr(base, epoch):
        return lr_schedule(base, epoch, cfg.lr_halve_period)

    budget = cfg.t_init + cfg.rounds * cfg.t_trn  # theta epochs of the full method
    if mode in ("full", "no-bilevel"):
        while state.epoch < cfg.t_init:
            _epoch(state, train_scenes, masks, "pretrain",
                   lr_theta=lr(cfg.alpha0, state.epoch), frozen=frozen)
    if mode == "full":
        while state.round < cfg.rounds:
            r = state.round
            for _ in range(cfg.t_trn):
                # every round so far ran t_val phi epochs after its theta epochs
                _epoch(state, train_scenes, masks, "train", r,
                       lr_theta=lr(cfg.alpha1, state.epoch - r * cfg.t_val), frozen=frozen)
            for _ in range(cfg.t_val):
                _epoch(state, val_scenes, masks, "val", r,
                       lr_phi=lr(cfg.alpha2, state.epoch))
            frozen.clear()  # phi moved
            state.round += 1
    elif mode == "no-bilevel":
        while state.epoch < budget:
            _epoch(state, train_scenes, masks, "joint",
                   lr_theta=lr(cfg.alpha1, state.epoch), lr_phi=lr(cfg.alpha2, state.epoch))
    elif mode in ("no-gst", "fixed-variance"):
        while state.epoch < budget:
            _epoch(state, train_scenes, masks, "baseline",
                   lr_theta=lr(cfg.alpha1, state.epoch), frozen=frozen)
    for _, params, _ in _networks(state):
        for _, t in params.parameters():
            t.grad = None  # all zeros after the last step; the next sweep makes them again
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


def _load_into(dest, blobs, name):
    """Copy the array blob ``name`` into ``dest``, whose shape it must have."""
    arr = _blob(blobs, name)
    if arr.shape != dest.shape:
        raise ValueError(f"checkpoint {name} has shape {arr.shape}, expected {dest.shape}")
    dest[...] = arr


# what every row of a checkpoint's loss log must be; JSON booleans are no numbers
_LOG_ROW = ("objects with a string phase, integer round and epoch, a number loss and "
            "a number or null entropy")


def _log_row(row):
    return (isinstance(row, dict) and type(row.get("phase")) is str
            and all(type(row.get(k)) is int for k in ("round", "epoch"))
            and type(row.get("loss")) in (int, float)
            and type(row.get("entropy", "")) in (int, float, type(None)))


def state_from_blobs(blobs):
    """Rebuild a TrainState in its ``meta/regime``; inverse of :func:`state_blobs`."""
    regime = _json_blob(blobs, "meta/regime", _regime, f"a JSON object with {_REGIME}")
    if not REGIMES[regime["mode"]] and any(k.startswith(("phi/", "opt_phi/")) for k in blobs):
        raise ValueError(f"checkpoint blob 'meta/regime' records the {regime['mode']!r} "
                         f"regime, which trains without the phi/ blobs the checkpoint holds")
    text = _blob(blobs, "meta/config", str)
    try:  # the regime is sound, so only the config can fail make_state
        state = make_state(io.coerce_dataclass(io.parse_config(text), TrainConfig),
                           regime["mode"], regime["fixed_g"])
    except ValueError as e:
        raise type(e)(f"checkpoint blob 'meta/config': {e}") from None
    counters = _json_blob(
        blobs, "meta/counters",
        lambda c: isinstance(c, dict) and all(_count(c.get(k)) for k in ("epoch", "round")),
        "a JSON object with integer epoch and round >= 0")
    state.epoch = counters["epoch"]
    state.round = counters["round"]
    state.log = _json_blob(blobs, "meta/log", lambda log: isinstance(log, list), "a JSON list")
    for i, row in enumerate(state.log):
        if not _log_row(row):
            raise ValueError(f"checkpoint blob 'meta/log' must be a JSON list of {_LOG_ROW}; "
                             f"row {i} is {row!r}")
    if "meta/scenario" in blobs:
        state.scenario = _blob(blobs, "meta/scenario", str)
    for role, gen in state.rngs.items():
        name = f"meta/rng/{role}"
        text = _blob(blobs, name, str)
        try:
            gen.bit_generator.state = json.loads(text)
        except (TypeError, KeyError, ValueError, OverflowError) as e:
            raise ValueError(f"checkpoint blob {name!r} must hold a PCG64 state "
                             f"({type(e).__name__}: {e})") from None
    for prefix, params, adam in _networks(state):
        for n, t in params.parameters():
            _load_into(t.data, blobs, f"{prefix}/{n}")
        adam.t = _json_blob(blobs, f"opt_{prefix}/t", _count, "a JSON integer >= 0")
        for n, _ in adam.named:
            for kind, moments in (("m", adam.m), ("v", adam.v)):
                _load_into(moments[n], blobs, f"opt_{prefix}/{kind}/{n}")
    return state


def save_state(state, path):
    io.save_checkpoint(path, state_blobs(state))


def load_state(path):
    return state_from_blobs(io.load_checkpoint(path))
