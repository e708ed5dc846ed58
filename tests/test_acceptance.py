"""Release acceptance: ten criteria, one test and one printed line each.

Each test records a PASS/FAIL line with the measured numbers; the
conftest hook replays them as a scorecard at the end of the run.  The
heavy part (bilevel training over three seeds at the default toy scale)
runs once in a module fixture and feeds criteria 5, 6, and 7.

Criterion 6 compares full self-tuned training against the plain
mask-ensemble baseline at equal theta budget; the median margin over
three seeds must stay above -0.1 dB.  The two runs are paired: theta's
rate follows theta's own epoch count, phi epochs draw from their own
random streams, and the deviation map starts near the fabrication
prior's sigma, so the full model's theta sees the baseline's batches and
masks under a small learned jitter.
"""

import dataclasses
import math
import os
import statistics
import time

import numpy as np
import pytest

from casskit.harness import (
    ScenarioSpec,
    build_experiment,
    evaluate,
    gen_synth_scenes,
    run_gradient_suite,
    run_scenario,
    run_training,
)
from casskit.maskmodel import entropy_term, realize_mask, sample_perturbed
from casskit.metrics import epistemic_map, psnr, spectral_correlation, ssim
from casskit.ndgrad import Tensor
from casskit.optics import HsiCube, Mask, encode
from casskit.trainer import (
    TrainConfig,
    load_state,
    make_state,
    reconstruct_scene,
    save_state,
    state_blobs,
    train_regime,
)

RESULTS = {}


def record(num, ok, detail):
    RESULTS[num] = (ok, detail)
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def micro_cfg(**kw):
    base = dict(
        bands=2, d=1, backbone_channels=4, backbone_blocks=1,
        gst_channels=4, gst_proj_channels=2, batch=2,
        t_init=1, t_trn=1, t_val=1, rounds=1, seed=7,
    )
    base.update(kw)
    return TrainConfig(**base)


def micro_spec(**kw):
    base = dict(
        scene_h=12, scene_w=12, scenes_train=2, scenes_val=1, scenes_test=1,
        mask_base_h=24, mask_base_w=24, k_train=2, k_test=2, trials=2,
    )
    base.update(kw)
    return ScenarioSpec(**base)


# -- criterion 1: forward model vs nested-loop oracle -----------------------

def test_criterion_01_forward_model_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        bands = int(rng.integers(1, 6))
        d = int(rng.integers(0, 3))
        x = rng.random((h, w, bands))
        m = rng.random((h, w))
        y = encode(HsiCube(x), Mask(m), d).values
        ref = np.zeros((h, w + d * (bands - 1)))
        for i in range(h):
            for j in range(w):
                for c in range(bands):
                    ref[i, j + d * c] += x[i, j, c] * m[i, j]
        worst = max(worst, float(np.max(np.abs(y - ref))))
    dt = time.perf_counter() - t0
    record(
        1,
        worst <= 1e-9 and dt < 5.0,
        f"encoder vs loop oracle on 100 instances: max err {worst:.2e} "
        f"(tol 1e-9), {dt:.2f}s (<5s)",
    )


# -- criterion 2: finite-difference gradient suite --------------------------

def test_criterion_02_gradient_suite():
    t0 = time.perf_counter()
    rows = run_gradient_suite(quick=False)
    dt = time.perf_counter() - t0
    ops = [r for r in rows if r[0] != "end-to-end"]
    e2e = next(r for r in rows if r[0] == "end-to-end")
    worst_op = max(ops, key=lambda r: r[1])
    ok = (
        all(r[1] < 1e-6 for r in ops)
        and e2e[1] < 1e-4
        and dt < 60.0
    )
    record(
        2,
        ok,
        f"gradient checks: worst op {worst_op[0]} {worst_op[1]:.2e} (<1e-6), "
        f"end-to-end {e2e[1]:.2e} (<1e-4), {dt:.1f}s (<60s)",
    )


# -- criterion 3: entropy closed form ---------------------------------------

def test_criterion_03_entropy_closed_form():
    # entropy_term on the tape, as training calls it
    want = math.log(0.005 * math.sqrt(2.0 * math.pi * math.e))
    got = float(entropy_term(Tensor(np.full((5, 5), 0.005))).data)
    err_value = abs(got - want)
    zero_g = (2.0 * math.pi * math.e) ** -0.5
    err_zero = abs(float(entropy_term(Tensor(np.full((5, 5), zero_g))).data))
    record(
        3,
        err_value <= 1e-12 and err_zero <= 1e-12,
        f"entropy term: |err| at g=0.005 {err_value:.2e}, at the zero point "
        f"{err_zero:.2e} (tol 1e-12)",
    )


# -- criterion 4: reparameterized draw statistics ---------------------------

def test_criterion_04_sampling_statistics():
    # sample_perturbed on the tape, drawing its own eps, as training calls it;
    # at m = 0.5, g = 0.05 the clamp never fires, so post is m + g * eps
    n = 100_000
    m_val, g_val = 0.5, 0.05
    shape = (250, 400)  # n pixels, all sharing one (m, g)
    rng = np.random.default_rng(404)
    post = sample_perturbed(np.full(shape, m_val), Tensor(np.full(shape, g_val)),
                            rng=rng).data
    mean_err = abs(post.mean() - m_val)
    std_err = abs(post.std() - g_val)
    mean_tol = 4.0 * g_val / math.sqrt(n)
    std_tol = 0.02 * g_val
    post_active = sample_perturbed(
        np.full(shape, 0.02), Tensor(np.full(shape, 0.5)), rng=rng
    ).data
    in_range = (
        post.min() >= 0.0 and post.max() <= 1.0
        and post_active.min() >= 0.0 and post_active.max() <= 1.0
    )
    record(
        4,
        mean_err <= mean_tol and std_err <= std_tol and in_range,
        f"1e5 draws at one pixel: |mean err| {mean_err:.2e} "
        f"(tol {mean_tol:.2e}), |std err| {std_err:.2e} (tol {std_tol:.2e}), "
        f"clamped samples in [0,1]: {in_range}",
    )


# -- criteria 5-7: default-scale bilevel training, three seeds --------------

@pytest.fixture(scope="module")
def trained_seeds():
    out = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(seed=seed)
        spec = ScenarioSpec()
        exp = build_experiment(cfg, spec)
        t0 = time.perf_counter()
        full = run_training(exp, mode="full")
        full_s = time.perf_counter() - t0
        base = run_training(exp, mode="no-gst")
        fresh = run_training(exp, mode="untrained")
        t1 = time.perf_counter()
        psnr_full = evaluate(full, exp, "full").aggregate()["overall"]["psnr_mean"]
        eval_s = time.perf_counter() - t1
        psnr_base = evaluate(base, exp, "no-gst").aggregate()["overall"]["psnr_mean"]
        psnr_fresh = (
            evaluate(fresh, exp, "untrained").aggregate()["overall"]["psnr_mean"]
        )
        val = [r for r in full.log if r["phase"] == "val"]
        rounds = sorted({r["round"] for r in val})
        first = [r for r in val if r["round"] == rounds[0]]
        last = [r for r in val if r["round"] == rounds[-1]]
        out.append({
            "seed": seed,
            "loss_ratio": (sum(r["loss"] for r in last) / len(last))
            / (sum(r["loss"] for r in first) / len(first)),
            "ent_first": sum(r["entropy"] for r in first) / len(first),
            "ent_last": sum(r["entropy"] for r in last) / len(last),
            "psnr_full": psnr_full,
            "psnr_base": psnr_base,
            "psnr_fresh": psnr_fresh,
            "elapsed": full_s + eval_s,
        })
    return out


def test_criterion_05_training_effectiveness(trained_seeds):
    ratio = statistics.median(r["loss_ratio"] for r in trained_seeds)
    gain = statistics.median(
        r["psnr_full"] - r["psnr_fresh"] for r in trained_seeds
    )
    budget = sum(r["elapsed"] for r in trained_seeds)
    record(
        5,
        ratio <= 0.5 and gain >= 5.0 and budget < 600.0,
        f"3-seed training: median final/first validation loss ratio "
        f"{ratio:.3f} (<=0.5), median gain over untrained {gain:+.2f} dB "
        f"(>=5), {budget:.0f}s (<600s)",
    )


def test_criterion_06_full_vs_mask_ensemble(trained_seeds):
    margins = [r["psnr_full"] - r["psnr_base"] for r in trained_seeds]
    med = statistics.median(margins)
    per_seed = ", ".join(f"{m:+.2f}" for m in margins)
    record(
        6,
        med >= -0.1,
        f"self-tuned vs mask-ensemble baseline at equal budget: median "
        f"margin {med:+.2f} dB (floor -0.10 dB); absolute gap per seed "
        f"[{per_seed}] dB",
    )


def test_criterion_07_entropy_decreases(trained_seeds):
    drops = [r["ent_last"] - r["ent_first"] for r in trained_seeds]
    med = statistics.median(drops)
    per_seed = ", ".join(f"{d:+.2e}" for d in drops)
    record(
        7,
        med < 0.0,
        f"variance entropy, final minus first round: median {med:+.3e} "
        f"(<0); per seed [{per_seed}]",
    )


# -- criterion 8: mask-variation uncertainty maps ---------------------------

def test_criterion_08_epistemic_map_sanity():
    cfg = micro_cfg()
    state = make_state(cfg, with_gst=True)

    def model(y, m):
        return reconstruct_scene(state.theta, y, m)

    rng = np.random.default_rng(808)
    x = gen_synth_scenes(1, 8, 8, cfg.bands, rng)[0]
    masks = [
        realize_mask((rng.random((8, 8)) < 0.5).astype(float), cfg.prior_mu,
                     cfg.prior_sigma, rng)
        for _ in range(3)
    ]
    var_same, _ = epistemic_map(model, x, [masks[0]] * 3, cfg.d)
    all_zero = bool(np.all(var_same == 0.0))
    var_a, mean_a = epistemic_map(model, x, masks, cfg.d)
    var_b, mean_b = epistemic_map(model, x, [masks[2], masks[0], masks[1]], cfg.d)
    permuted_same = (
        var_a.tobytes() == var_b.tobytes() and mean_a.tobytes() == mean_b.tobytes()
    )
    record(
        8,
        all_zero and permuted_same,
        f"uncertainty maps: identical masks give exact zeros ({all_zero}), "
        f"mask order never changes a map bit ({permuted_same})",
    )


# -- criterion 9: metric closed forms ---------------------------------------

def _pearson_sums(a, b):
    n = a.size
    sx, sy = a.sum(), b.sum()
    num = n * (a * b).sum() - sx * sy
    den = math.sqrt(
        (n * (a * a).sum() - sx * sx) * (n * (b * b).sum() - sy * sy)
    )
    return num / den


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(909)
    x = rng.uniform(0.0, 0.9, size=(16, 16, 3))
    err_psnr = abs(psnr(x + 0.1, x) - 20.0)

    y = rng.random((16, 16, 3))
    err_ssim = abs(ssim(y, y) - 1.0)

    cube = rng.random((9, 7, 4))
    got = spectral_correlation(cube)
    flat = cube.reshape(-1, 4)
    err_corr = 0.0
    for i in range(4):
        for j in range(4):
            want = 1.0 if i == j else _pearson_sums(flat[:, i], flat[:, j])
            err_corr = max(err_corr, abs(got[i, j] - want))
    record(
        9,
        err_psnr <= 1e-9 and err_ssim <= 1e-12 and err_corr <= 1e-12,
        f"metrics: psnr at mse 0.01 err {err_psnr:.2e} (tol 1e-9), "
        f"ssim self err {err_ssim:.2e} (tol 1e-12), band correlation vs "
        f"sum oracle err {err_corr:.2e} (tol 1e-12)",
    )


# -- criterion 10: determinism and persistence ------------------------------

def _tree_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for fn in files:
            p = os.path.join(dirpath, fn)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = f.read()
    return out


def test_criterion_10_determinism_and_resume(tmp_path):
    cfg, spec = micro_cfg(), micro_spec()
    run_scenario(cfg, spec, out_dir=tmp_path / "a", mode="full")
    run_scenario(micro_cfg(), micro_spec(), out_dir=tmp_path / "b", mode="full")
    ta, tb = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    trees_same = set(ta) == set(tb) and all(ta[k] == tb[k] for k in ta)

    cfg2 = micro_cfg(rounds=2)
    exp = build_experiment(cfg2, spec)
    straight = run_training(exp, mode="full")

    part = run_training(dataclasses.replace(exp, cfg=dataclasses.replace(cfg2, rounds=1)),
                        mode="full")
    ckp = tmp_path / "mid.ckp"
    save_state(part, ckp)
    resumed = load_state(ckp)
    resumed.cfg = cfg2
    train_regime(resumed, exp.train_scenes, exp.val_scenes, exp.train_masks)

    ba, bb = state_blobs(straight), state_blobs(resumed)
    resume_exact = set(ba) == set(bb) and all(
        np.array_equal(v, bb[k]) if isinstance(v, np.ndarray) else v == bb[k]
        for k, v in ba.items()
    )
    record(
        10,
        trees_same and resume_exact,
        f"two identical runs wrote byte-identical trees of {len(ta)} files "
        f"({trees_same}); save/resume matches uninterrupted training bitwise "
        f"({resume_exact})",
    )
