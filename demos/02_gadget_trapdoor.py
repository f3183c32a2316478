"""The gadget trapdoor: sampling a matrix that looks uniform but decodes
noisy linear samples.

A = [Abar; G - R*Abar] hides the powers-of-two gadget G behind a uniform
block; whoever knows the ternary R can collapse A*s + e to G*s + small
noise and read s off blockwise with nearest-plane decoding.
"""

import math

import numpy as np

from clawrand.gaussians import TruncGaussian
from clawrand.modq import ModRing, gadget_matrix
from clawrand.trapdoor import OVER_BOUND, gen_trap, invert, measure_decode_radius

ring = ModRing(61)
rng = np.random.default_rng(1)
key = gen_trap(ring, n=8, m=56, rng=rng)
print(f"sampled trapdoor key: A is {key.A.shape}, R is {key.R.shape}, q = {ring.q}")

RI = np.hstack([key.R, np.eye(key.w, dtype=np.int64)])
print("[R | I] @ A == gadget:", np.array_equal(ring.matmul(RI, key.A), gadget_matrix(ring, 8)))

noise = TruncGaussian(ring, 2.0)
bound = 2.0 * math.sqrt(56)
S, E = [], []
for _ in range(2000):
    S.append(ring.uniform(rng, 8))
    E.append(ring.centered(noise.sample_vec(rng, 56)))
S, E = np.array(S), np.array(E)
# the 2000 samples decode as one stack, row by row
S2, E2, path = invert(key, ring.reduce(ring.matmul(S, key.A.T) + E), max_norm=bound)
ok = (path < OVER_BOUND) & (S2 == S).all(axis=1) & (E2 == E).all(axis=1)
print(f"round-trip on 2000 noisy samples: {ok.sum()}/2000 exact recoveries")

garbage = np.array([ring.uniform(rng, 56) for _ in range(200)])
fails = (invert(key, garbage, max_norm=bound)[2] >= OVER_BOUND).sum()
print(f"uniform garbage flagged: {fails}/200")

radius = measure_decode_radius(key, rng, trials=100)
print(f"measured usable noise radius for this key: {radius:.1f} "
      f"(width-2 samples have typical norm {2 * math.sqrt(56) * 0.4:.1f})")
