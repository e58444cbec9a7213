"""Walk a synthetic fruit photo through the visual preprocessing.

Builds a portable pixmap with a bright disc on a dark gradient, then
shows decoding, bilinear resizing, and the standardized 224x224x3
network input produced by the one-shot helper.
"""

import numpy as np

from pineq.image import (
    TARGET_SIZE,
    preprocess_image,
    read_image,
    resize_bilinear,
    write_ppm,
)

# --- synthesize a 160x120 photo -------------------------------------------
h, w = 120, 160
yy, xx = np.mgrid[0:h, 0:w]
disc = ((yy - 70) ** 2 + (xx - 95) ** 2) < 35 ** 2
img = np.stack([
    0.15 + 0.2 * xx / w + 0.6 * disc,          # red: gradient plus disc
    0.10 + 0.5 * disc,                          # green: disc only
    0.05 + 0.1 * yy / h,                        # blue: faint gradient
], axis=-1).clip(0.0, 1.0)
ppm_bytes = write_ppm(img)
print(f"encoded: {len(ppm_bytes)} bytes of PPM, {w}x{h}")

# --- stage by stage --------------------------------------------------------
decoded = read_image(ppm_bytes)
print(f"decoded: {decoded.shape}, range [{decoded.min():.3f}, "
      f"{decoded.max():.3f}]")

resized = resize_bilinear(decoded, TARGET_SIZE, TARGET_SIZE)
print(f"resized: {resized.shape}")

# --- the one-shot helper: decode, resize, standardize ---------------------
feat = preprocess_image(ppm_bytes)
print(f"network input: {feat.shape}, dtype {feat.dtype}, "
      f"range [{feat.min():.3f}, {feat.max():.3f}]  (standardized)")
assert np.array_equal(feat, ((resized - 0.5) / 0.5).astype(np.float32))
print("preprocess_image == decode + resize + standardize: OK")
