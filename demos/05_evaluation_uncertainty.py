"""Score a trained model on masks it never saw, then map its uncertainty.

The evaluation protocol is the whole point of this package: the test
masks are disjoint crops, so every number here is a miscalibration
number.  The uncertainty map is the per-pixel variance of the
reconstruction as the mask varies; it is exactly zero when the masks
are identical and grows where reconstructions disagree.
"""

import os
import tempfile

from casskit.harness import (
    ScenarioSpec, build_experiment, evaluate, run_training, uncertainty_maps,
)
from casskit.trainer import TrainConfig

cfg = TrainConfig(
    bands=3, d=1, backbone_channels=8, backbone_blocks=1,
    gst_channels=8, gst_proj_channels=4, batch=2,
    t_init=30, t_trn=4, t_val=1, rounds=10, seed=2,
)
spec = ScenarioSpec(
    scene_h=12, scene_w=12, scenes_train=4, scenes_val=2, scenes_test=2,
    mask_base_h=24, mask_base_w=24, k_train=3, k_test=3, trials=6,
)

exp = build_experiment(cfg, spec)
trained = run_training(exp, mode="full")
fresh = run_training(exp, mode="untrained")

for label, state in (("trained", trained), ("untrained", fresh)):
    agg = evaluate(state, exp, label).aggregate()["overall"]
    print(f"{label:9s}: psnr {agg['psnr_mean']:6.2f} +- {agg['psnr_std']:.2f} dB   "
          f"ssim {agg['ssim_mean']:.4f}   ({agg['n']} trials)")

with tempfile.TemporaryDirectory(prefix="casskit_demo_") as tmp:
    out = os.path.join(tmp, "maps")
    maps = uncertainty_maps(trained, exp, out_dir=out)
    for scene_id, (var, mean) in enumerate(maps):
        print(f"scene {scene_id}: variance mean {var.mean():.3e}, "
              f"hottest pixel {var.max():.3e}")
    print(f"wrote cubes, per-band PGM images, and stats to {out}")
    print(sorted(os.listdir(out))[:6], "...")
