"""Masks as distributions: fabrication noise and reparameterized draws.

A real coded aperture is never the binary pattern you asked the fab for.
We model a measured mask as clean pattern + N(mu, sigma^2) error, with
(mu, sigma) the config's ``prior_mu`` and ``prior_sigma``, and training
perturbs masks further with a per-pixel deviation map g via
m' = clamp01(m + g * eps), eps ~ N(0, 1).  Bigger g, blurrier histogram,
higher entropy.  Draws and entropy run on the gradient tape, as in
training; ``.data`` reads their values.
"""

import numpy as np

from casskit.maskmodel import (
    entropy_term,
    mask_histogram,
    realize_mask,
    sample_perturbed,
    synthesize_clean_mask,
)
from casskit.ndgrad import Tensor
from casskit.trainer import TrainConfig

cfg = TrainConfig()
rng = np.random.default_rng(3)


def spread(g, shape):
    return Tensor(np.full(shape, g))


clean = synthesize_clean_mask(32, 32, 0.5, rng)
real = realize_mask(clean, cfg.prior_mu, cfg.prior_sigma, rng)
shape = real.values.shape
print(f"clean mask: values {sorted(set(clean.values.ravel()))}")
print(f"realized  : range [{real.values.min():.4f}, {real.values.max():.4f}], "
      f"prior mu={cfg.prior_mu} sigma={cfg.prior_sigma}")

for g in (0.01, 0.1, 0.3):
    draw = sample_perturbed(real, spread(g, shape), rng=rng).data
    counts, edges = mask_histogram(draw, 10)
    bar = "".join(str(min(int(c / 20), 9)) for c in counts)
    print(f"g={g:<5} entropy {float(entropy_term(spread(g, shape)).data):+.3f}  "
          f"histogram(10 bins) {bar}  clipped at 0/1: "
          f"{int((draw == 0).sum() + (draw == 1).sum())} px")

# the entropy term is the mean differential entropy ln(g sqrt(2 pi e));
# it crosses zero at g = (2 pi e)^-1/2 ~ 0.242
g0 = (2 * np.pi * np.e) ** -0.5
print(f"\nentropy zero point: g={g0:.6f} -> "
      f"{float(entropy_term(spread(g0, (4, 4))).data):+.2e}")

# draws average back to the mask: mean of many samples ~ m (away from clamps)
samples = np.stack([sample_perturbed(real, spread(0.05, shape), rng=rng).data
                    for _ in range(2000)])
err = np.abs(samples.mean(axis=0) - real.values).max()
print(f"2000-draw mean vs mask: max abs err {err:.4f}")
