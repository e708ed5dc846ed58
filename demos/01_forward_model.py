"""Walk through the optical forward model on a toy scene.

A snapshot spectral camera multiplies each spectral band of the scene by
a coded mask, shifts band c sideways by d*c pixels (the disperser), and
sums everything onto a single 2-D sensor.  This script builds one scene,
encodes it, and shows the geometry and a sanity identity.
"""

import numpy as np

from casskit.harness import gen_synth_scenes
from casskit.maskmodel import synthesize_clean_mask
from casskit.optics import Mask, encode, init_input

rng = np.random.default_rng(42)

h, w, bands, d = 16, 16, 4, 2
scene = gen_synth_scenes(1, h, w, bands, rng)[0]
mask = Mask(synthesize_clean_mask(h, w, 0.5, rng).values)

print(f"scene  : {scene.values.shape}  range [{scene.values.min():.3f}, {scene.values.max():.3f}]")
print(f"mask   : {mask.values.shape}  open fraction {mask.values.mean():.3f}")

y = encode(scene, mask, d)
print(f"sensor : {y.values.shape}  (width grows by d*(bands-1) = {d * (bands - 1)})")

# the measurement is a sum over bands, so total flux is conserved:
# sum(y) == sum over bands of sum(masked band)
flux_in = sum((scene.values[:, :, c] * mask.values).sum() for c in range(bands))
print(f"flux   : sensor {y.values.sum():.6f}  vs  masked scene {flux_in:.6f}")

# with d=0 the disperser is off and the sensor is just the masked band sum
y0 = encode(scene, mask, 0)
direct = (scene.values * mask.values[:, :, None]).sum(axis=2)
print(f"d=0 check: max |y - sum of masked bands| = {np.abs(y0.values - direct).max():.3e}")

# the reconstruction network does not eat y directly; it gets one window
# per band, cut at that band's shift offset and re-masked
x_in = init_input(y, mask)
print(f"net input: {x_in.shape}  (one {h}x{w} window per band)")
for c in range(bands):
    window = y.values[:, d * c : d * c + w] * mask.values
    print(f"  band {c}: window at offset {d * c:2d}, max err {np.abs(x_in[:, :, c] - window).max():.1e}")
