"""End-to-end experiment harness: data synthesis, scenarios, ablations.

A scenario bundles synthetic scene generation, mask fabrication, training
(full method by default), and a trial loop that scores reconstructions on
held-out masks.  Scenario kinds name the train/test mask relationship:

* ``one-to-one``   train on one mask, test on that same mask;
* ``one-to-many``  train on one mask, test on unseen masks;
* ``many-to-many`` train on a mask set, test on unseen masks.

Ablations reuse the same bundle with the training regime swapped out:
``no-bilevel`` (joint single-loop optimization of both networks on the
training scenes), ``fixed-variance`` (mask-ensemble training under each
constant spread of ``_STUDY_SPREADS``; spread 0 is the plain baseline), and
``prior-study`` (full method under each fabrication-error prior of
``_STUDY_PRIORS``, set through ``prior_mu`` and ``prior_sigma``).
Every variant is one :func:`run_scenario` on its own config.  Its
``config.txt`` holds the config and the scenario, but not the regime:
the mode, and a ``fixed-variance`` spread, live only in the
checkpoint's ``meta/regime`` blob.  The harness holds no training loop:
``run_training`` makes a fresh state in its regime and hands it to
:func:`casskit.trainer.train_regime`; every control gets the full
method's theta budget.  Reports land as deterministic CSV files,
uncertainty maps as PGM images plus raw cube dumps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import io
from .backbone import srn_init
from .gstnet import gst_forward, gst_init
from .maskmodel import build_mask_sets, entropy_term, realize_mask, synthesize_clean_mask
from .metrics import SSIM_WINDOW, TrialReport, epistemic_map, psnr, ssim
from .ndgrad import Tensor, add, grad_check, mul, tsum
from .optics import HsiCube, Mask, encode
from .trainer import (
    TrainConfig,
    config_text,
    make_state,
    recon_loss,
    reconstruct_scene,
    save_state,
    train_regime,
)

__all__ = [
    "ABLATIONS",
    "ScenarioSpec",
    "Experiment",
    "gen_synth_scenes",
    "build_experiment",
    "run_training",
    "evaluate",
    "run_scenario",
    "run_ablation",
    "uncertainty_maps",
    "load_config",
    "write_summary",
    "write_masks",
    "write_run",
    "write_report",
    "run_gradient_suite",
]

_KINDS = ("one-to-one", "one-to-many", "many-to-many")
ABLATIONS = ("no-bilevel", "fixed-variance", "prior-study")
_STUDY_SPREADS = (0.0, 0.1)  # fixed-variance study; 0 is the mask-ensemble baseline
# (prior_mu, prior_sigma) of the prior study: the default, wide, standard normal
_STUDY_PRIORS = ((0.006, 0.005), (0.006, 0.1), (0.0, 1.0))

# fixed role indices for deriving independent generator streams from one seed
_ROLE_SCENES = 1
_ROLE_MASKS = 2
_ROLE_TRIALS = 4
_ROLE_EVAL_NOISE = 5


def _role_rng(seed, role):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(role)]))


@dataclass
class ScenarioSpec:
    """Experiment geometry: scenes, masks, and the trial protocol."""

    kind: str = "many-to-many"
    scene_h: int = 16
    scene_w: int = 16
    scenes_train: int = 20
    scenes_val: int = 6
    scenes_test: int = 4
    mask_base_h: int = 48
    mask_base_w: int = 48
    mask_density: float = 0.5
    k_train: int = 6
    k_test: int = 4
    trials: int = 16
    eval_noise_std: float = 0.0

    def validate(self):
        io.check_fields(self)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; one of {_KINDS}")
        if min(self.scene_h, self.scene_w) < 4:
            raise ValueError("scenes must be at least 4x4")
        if min(self.scenes_train, self.scenes_val) < 1 or self.scenes_test < 1:
            raise ValueError("scene counts must be >= 1")
        if self.mask_base_h < self.scene_h or self.mask_base_w < self.scene_w:
            raise ValueError("mask base must be at least the scene size")
        if not 0.0 <= self.mask_density <= 1.0:
            raise ValueError(f"mask density must be in [0, 1], got {self.mask_density}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.eval_noise_std < 0:
            raise ValueError("eval noise std must be >= 0")
        if self.kind == "one-to-one":
            if self.k_train != 1 or self.k_test != 1:
                raise ValueError("one-to-one requires k_train = k_test = 1")
        elif self.kind == "one-to-many":
            if self.k_train != 1:
                raise ValueError("one-to-many requires k_train = 1")
            if self.k_test < 1:
                raise ValueError("one-to-many requires k_test >= 1")
        else:
            if self.k_train < 1 or self.k_test < 1:
                raise ValueError("many-to-many requires k_train, k_test >= 1")
        return self

    def require_evaluable(self):
        """Refuse scenes smaller than the ssim window, before any training."""
        if min(self.scene_h, self.scene_w) < SSIM_WINDOW:
            raise ValueError(f"scenes of {self.scene_h}x{self.scene_w} are smaller than "
                             f"the {SSIM_WINDOW}x{SSIM_WINDOW} ssim window evaluation needs")
        return self


def load_config(text):
    """One flat config file -> (TrainConfig, ScenarioSpec).

    Keys are routed to whichever dataclass declares them; a key neither
    declares raises :class:`casskit.io.ConfigError`.
    """
    cfg, spec = io.coerce_dataclass(io.parse_config(text), TrainConfig, ScenarioSpec)
    cfg.validate()
    spec.validate()
    return cfg, spec


def gen_synth_scenes(count, h, w, bands, rng):
    """Random scenes: sums of spatial Gaussian blobs with smooth spectra.

    Each blob is a 2-D Gaussian bump times a smooth spectral curve, so
    neighbouring bands stay strongly correlated, as in natural
    hyperspectral data.  Scenes are normalized to peak 1.
    """
    if min(h, w) < 4:
        raise ValueError("scenes must be at least 4x4")
    if bands < 1:
        raise ValueError("bands must be >= 1")
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    lam = np.arange(bands, dtype=np.float64)
    scenes = []
    for _ in range(count):
        vol = np.zeros((h, w, bands))
        for _b in range(int(rng.integers(3, 7))):
            cy = rng.uniform(0, h - 1)
            cx = rng.uniform(0, w - 1)
            sig = rng.uniform(min(h, w) / 8.0, min(h, w) / 3.0)
            amp = rng.uniform(0.4, 1.0)
            center = rng.uniform(0, bands - 1) if bands > 1 else 0.0
            bsig = rng.uniform(max(bands / 3.0, 0.75), max(bands, 1.5))
            spatial = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sig**2))
            spectrum = np.exp(-((lam - center) ** 2) / (2.0 * bsig**2))
            vol += amp * spatial[:, :, None] * spectrum[None, None, :]
        vol /= vol.max()
        scenes.append(HsiCube(vol))
    return scenes


@dataclass
class Experiment:
    """Generated inputs for one scenario run."""

    cfg: TrainConfig
    spec: ScenarioSpec
    train_scenes: list
    val_scenes: list
    test_scenes: list
    train_masks: tuple  # of Mask, non-empty
    test_masks: tuple  # of Mask; under one-to-one, train_masks itself


def build_experiment(cfg, spec):
    """Generate the scene splits; fabricate masks under the config's prior."""
    cfg.validate()
    spec.validate()
    scene_rng = _role_rng(cfg.seed, _ROLE_SCENES)
    n = spec.scenes_train + spec.scenes_val + spec.scenes_test
    scenes = gen_synth_scenes(n, spec.scene_h, spec.scene_w, cfg.bands, scene_rng)
    trn = scenes[: spec.scenes_train]
    val = scenes[spec.scenes_train : spec.scenes_train + spec.scenes_val]
    tst = scenes[spec.scenes_train + spec.scenes_val :]

    mask_rng = _role_rng(cfg.seed, _ROLE_MASKS)
    clean = synthesize_clean_mask(
        spec.mask_base_h, spec.mask_base_w, spec.mask_density, mask_rng
    )
    base = realize_mask(clean, cfg.prior_mu, cfg.prior_sigma, mask_rng)
    if spec.kind == "one-to-one":
        train_masks, _ = build_mask_sets(
            base, (spec.scene_h, spec.scene_w), 1, 0, mask_rng
        )
        test_masks = train_masks
    else:
        train_masks, test_masks = build_mask_sets(
            base, (spec.scene_h, spec.scene_w), spec.k_train, spec.k_test, mask_rng
        )

    return Experiment(cfg, spec, trn, val, tst, train_masks, test_masks)


def run_training(exp, mode="full", fixed_g=0.0):
    """Train on an experiment bundle under one regime; returns the state.

    Modes: "full" (pretrain + alternating bilevel), "no-bilevel",
    "fixed-variance" (uses ``fixed_g``, a finite spread >= 0; the default 0
    is the mask-ensemble baseline), "untrained" (fresh weights only).
    Epoch budgets of the controls match the full method's theta budget.
    The regime and the scenario are recorded in the state, so its
    checkpoint resumes in the one and can be checked against the other.
    """
    state = make_state(exp.cfg, mode, float(fixed_g) if mode == "fixed-variance" else None)
    state.scenario = config_text(exp.spec)
    return train_regime(state, exp.train_scenes, exp.val_scenes, exp.train_masks)


def evaluate(state, exp, label):
    """Trial loop: score test scenes on masks drawn from the test set."""
    spec = exp.spec
    cfg = exp.cfg
    trial_rng = _role_rng(cfg.seed, _ROLE_TRIALS)
    noise_rng = _role_rng(cfg.seed, _ROLE_EVAL_NOISE)
    report = TrialReport(label)
    for trial in range(spec.trials):
        m = exp.test_masks[int(trial_rng.integers(len(exp.test_masks)))]
        for scene_id, x in enumerate(exp.test_scenes):
            y = encode(x, m, cfg.d, noise_std=spec.eval_noise_std, rng=noise_rng)
            xhat = reconstruct_scene(state.theta, y, m)
            report.add(scene_id, trial, psnr(xhat, x.values), ssim(xhat, x.values))
    return report


def write_summary(path, report):
    agg = report.aggregate()
    scopes = [("overall", agg["overall"])]
    scopes += [(f"scene{scene}", s) for scene, s in agg["per_scene"].items()]
    io.write_csv(path, "scope,psnr_mean,psnr_std,ssim_mean,ssim_std,n",
                 ((scope, s["psnr_mean"], s["psnr_std"], s["ssim_mean"], s["ssim_std"], s["n"])
                  for scope, s in scopes))


def write_masks(mask_dir, exp):
    """Write the experiment's masks as ``train_NN.msk`` and ``test_NN.msk``."""
    os.makedirs(mask_dir, exist_ok=True)
    for role, masks in (("train", exp.train_masks), ("test", exp.test_masks)):
        for i, m in enumerate(masks):
            io.save_mask(os.path.join(mask_dir, f"{role}_{i:02d}.msk"), m.values)


def write_run(out_dir, exp, state):
    """Write a trained run: ``config.txt``, ``checkpoint.ckp`` and ``loss_log.csv``."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w", newline="") as f:
        f.write(config_text(exp.cfg, exp.spec))
    save_state(state, os.path.join(out_dir, "checkpoint.ckp"))
    io.write_loss_log_csv(os.path.join(out_dir, "loss_log.csv"), state.log)


def write_report(out_dir, report):
    """Write a scored run: ``metrics.csv`` and ``summary.csv``."""
    os.makedirs(out_dir, exist_ok=True)
    io.write_metrics_csv(os.path.join(out_dir, "metrics.csv"), report.rows)
    write_summary(os.path.join(out_dir, "summary.csv"), report)


def run_scenario(cfg, spec, out_dir=None, mode="full", fixed_g=0.0):
    """Build, train, evaluate, emit (given ``out_dir``); returns (state, report)."""
    spec.require_evaluable()
    exp = build_experiment(cfg, spec)
    state = run_training(exp, mode=mode, fixed_g=fixed_g)
    report = evaluate(state, exp, f"{spec.kind}/{mode}")
    if out_dir is not None:
        write_masks(os.path.join(out_dir, "masks"), exp)
        write_run(out_dir, exp, state)
        write_report(out_dir, report)
    return state, report


def run_ablation(kind, cfg, spec, out_dir=None):
    """Run one ablation family; returns {variant label: TrialReport}.

    Each variant is one :func:`run_scenario`, emitted to ``out_dir/<label>``.
    """
    if kind not in ABLATIONS:
        raise ValueError(f"unknown ablation {kind!r}; one of {ABLATIONS}")
    if kind == "fixed-variance":
        variants = [(f"fixed-variance-g{g0:g}", cfg, kind, g0) for g0 in _STUDY_SPREADS]
    elif kind == "prior-study":
        variants = [(f"prior-mu{mu:g}-sigma{sigma:g}",
                     replace(cfg, prior_mu=mu, prior_sigma=sigma), "full", 0.0)
                    for mu, sigma in _STUDY_PRIORS]
    else:
        variants = [(kind, cfg, kind, 0.0)]
    results = {}
    for label, variant_cfg, mode, g0 in variants:
        sub = None if out_dir is None else os.path.join(out_dir, label)
        results[label] = run_scenario(variant_cfg, spec, sub, mode, fixed_g=g0)[1]
    return results


def uncertainty_maps(state, exp, out_dir=None):
    """Mask-variation variance maps for each test scene.

    Reconstructs every test scene under every test mask and reports the
    per-pixel variance across masks.  Writes per-band PGM images, raw cube
    dumps of the variance and mean, and per-band stats when ``out_dir``
    is given.
    """
    theta = state.theta

    def model(y, m):
        return reconstruct_scene(theta, y, m)

    cfg = exp.cfg
    out = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for scene_id, x in enumerate(exp.test_scenes):
        var, mean = epistemic_map(model, x, exp.test_masks, cfg.d)
        out.append((var, mean))
        if out_dir is not None:
            io.save_cube(os.path.join(out_dir, f"scene{scene_id}_variance.hsc"), var)
            io.save_cube(os.path.join(out_dir, f"scene{scene_id}_mean.hsc"), mean)
            bands = np.moveaxis(var, 2, 0)
            for band, vb in enumerate(bands):
                io.write_pgm(os.path.join(out_dir, f"scene{scene_id}_var_band{band:02d}.pgm"), vb)
            io.write_csv(os.path.join(out_dir, f"scene{scene_id}_stats.csv"),
                         "band,var_min,var_max,var_mean",
                         ((band, f"{vb.min():.12g}", f"{vb.max():.12g}", f"{vb.mean():.12g}")
                          for band, vb in enumerate(bands)))
    return out


# -- gradient verification --------------------------------------------------

def run_gradient_suite(quick=False, h=1e-5):
    """Finite-difference checks of every op plus the full training chain.

    Returns (name, worst_rel_err, tolerance, ok) rows.  Inputs are drawn
    away from relu/clamp kinks, where a subgradient and a finite
    difference legitimately disagree.
    """
    from . import ndgrad as nd

    rows = []
    rng = np.random.default_rng(20240817)
    trials = 5 if quick else 20

    def check(name, make, tol):
        worst = 0.0
        for _ in range(trials):
            params, builder = make()
            worst = max(worst, grad_check(builder, params, h=h))
        rows.append((name, worst, tol, worst < tol))

    def away_from(vals, *kinks, margin=1e-3):
        out = vals
        for kk in kinks:
            near = np.abs(out - kk) < margin
            out = np.where(near, kk + margin * np.sign(out - kk + 0.5), out)
        return out

    def rnd(shape, lo=-2.0, hi=2.0):
        return rng.uniform(lo, hi, size=shape)

    shape = (3, 4)

    def unary(op, data_fn):
        def make():
            a = Tensor(data_fn())
            return [a], lambda ps: tsum(op(ps[0]))

        return make

    check("add", lambda: (
        [Tensor(rnd(shape)), Tensor(rnd(shape))],
        lambda ps: tsum(nd.add(ps[0], ps[1])),
    ), 1e-6)
    check("add-scalar", lambda: (
        [Tensor(rnd(shape)), Tensor(rnd(()))],
        lambda ps: tsum(nd.add(ps[0], ps[1])),
    ), 1e-6)
    check("mul", lambda: (
        [Tensor(rnd(shape)), Tensor(rnd(shape))],
        lambda ps: tsum(nd.mul(ps[0], ps[1])),
    ), 1e-6)
    check("neg", unary(nd.neg, lambda: rnd(shape)), 1e-6)
    check("relu", unary(nd.relu, lambda: away_from(rnd(shape), 0.0)), 1e-6)
    check("sigmoid", unary(nd.sigmoid, lambda: rnd(shape, -4, 4)), 1e-6)
    check("softplus", unary(nd.softplus, lambda: rnd(shape, -4, 4)), 1e-6)
    check("log", unary(nd.log, lambda: rnd(shape, 0.1, 3.0)), 1e-6)
    check("clamp01", unary(
        nd.clamp01, lambda: away_from(rng.uniform(-0.5, 1.5, shape), 0.0, 1.0)
    ), 1e-6)
    check("matmul", lambda: (
        [Tensor(rnd((3, 4))), Tensor(rnd((4, 2)))],
        lambda ps: tsum(nd.matmul(ps[0], ps[1])),
    ), 1e-6)
    check("conv2d", lambda: (
        [Tensor(rnd((2, 5, 7))), Tensor(rnd((3, 2, 3, 3), -0.5, 0.5)),
         Tensor(rnd((3,)))],
        lambda ps: tsum(nd.conv2d(ps[0], ps[1], ps[2])),
    ), 1e-6)

    def conv_squared(ps):
        c = nd.conv2d(ps[0], ps[1], ps[2])
        return tsum(nd.mul(c, c))

    # one input channel, as in the GST net's first layer, and a 5x5 kernel,
    # whose row stack pads by 2
    check("conv2d-1ch-k5", lambda: (
        [Tensor(rnd((1, 6, 8))), Tensor(rnd((2, 1, 5, 5), -0.5, 0.5)),
         Tensor(rnd((2,)))],
        conv_squared,
    ), 1e-6)
    check("sum", unary(nd.tsum, lambda: rnd(shape)), 1e-6)
    check("mean", unary(nd.tmean, lambda: rnd(shape)), 1e-6)
    check("reshape", lambda: (
        [Tensor(rnd((2, 6)))],
        lambda ps: tsum(nd.mul(nd.reshape(ps[0], (3, 4)), nd.reshape(ps[0], (3, 4)))),
    ), 1e-6)
    check("transpose", lambda: (
        [Tensor(rnd((3, 4)))],
        lambda ps: tsum(nd.matmul(nd.transpose(ps[0]), ps[0])),
    ), 1e-6)

    rows.append(_end_to_end_check(h))
    return rows


def _end_to_end_check(h=1e-5):
    """FD check of the whole loss chain, measurement noise included, on a 4x4x2
    instance; the noise stream is re-seeded per evaluation, so all see one draw."""
    cfg = TrainConfig(
        bands=2, d=1, noise_std=0.01, backbone_channels=4, backbone_blocks=1,
        gst_channels=4, gst_proj_channels=2, batch=2, beta=1e-3,
    )
    rng = np.random.default_rng(7)
    scenes = gen_synth_scenes(2, 4, 4, 2, rng)
    mask = Mask((rng.random((4, 4)) < 0.5).astype(float) * 0.9 + 0.05)
    theta = srn_init(cfg.bands, cfg.backbone_channels, cfg.backbone_blocks,
                     np.random.default_rng(11))
    phi = gst_init(cfg.gst_channels, cfg.gst_proj_channels, np.random.default_rng(12))
    eps_list = [rng.standard_normal(mask.values.shape) * 0.3 for _ in scenes]
    params = [t for _, t in theta.parameters()] + [t for _, t in phi.parameters()]

    def builder(_ps):
        g = gst_forward(mask, phi)
        loss = recon_loss(theta, g, scenes, mask, cfg, eps_list=eps_list,
                          noise_rng=np.random.default_rng(13))
        return add(loss, mul(entropy_term(g), cfg.beta))

    worst = grad_check(builder, params, h=h)
    return ("end-to-end", worst, 1e-4, worst < 1e-4)
