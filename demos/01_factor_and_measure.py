"""Factor a matrix with a randomized range sketch and measure the error.
=========================================================================

The pipeline has three steps: multiply the target F by a seeded Gaussian
test matrix (the sketch), orthonormalize the sketch to get a basis H, and
project F onto it (T = H^t F).  The product H @ T is then a rank-(r+s)
approximation of F.
"""

import tempfile
from pathlib import Path

import numpy as np

from randlr import (
    GeneratorSpec,
    approximation_error,
    factorize,
    frobenius_norm,
    generate,
    load_factored,
    save_factored,
    singular_values,
    tail_energy,
)

# A 80x60 matrix whose singular values decay geometrically: sigma_i = 0.7^i.
spectrum = tuple(0.7**i for i in range(1, 25))
F = generate(
    GeneratorSpec(dims=(80, 60), kind="prescribed-spectrum", spectrum=spectrum, seed=42)
)
print(f"target matrix: {F.shape[0]}x{F.shape[1]}, ||F|| = {frobenius_norm(F):.6f}")

# Factor at target rank 5 with oversampling 4: the basis gets 9 columns.
approx = factorize(F, r=5, s=4, seed=7)
print(f"method = {approx.method}, basis is {approx.basis.shape[0]}x{approx.basis.shape[1]}")

err = approximation_error(F, approx)
print(f"||F - HT|| = {err:.3e}")

# The error can never beat the optimal rank-9 approximation (the square
# root of the tail energy past index 9).
floor = tail_energy(singular_values(F), approx.width) ** 0.5
print(f"optimal rank-{approx.width} error (floor) = {floor:.3e}")
print(f"ratio to floor = {err / floor:.3f}")

# More oversampling buys accuracy; the same seed keeps runs reproducible.
print("\n  s   ||F - HT||")
for s in (2, 4, 8, 16):
    e = approximation_error(F, factorize(F, r=5, s=s, seed=7))
    print(f" {s:3d}  {e:.6e}")

# The factored form round-trips through Matrix Market files plus a JSON
# sidecar with the metadata.
with tempfile.TemporaryDirectory() as tmp:
    paths = save_factored(Path(tmp) / "randlr_demo", approx)
    back = load_factored(Path(tmp) / "randlr_demo")
print("\nserialized to:", ", ".join(Path(p).name for p in paths))
print("round-trip exact:", bool(np.array_equal(back.basis, approx.basis)))
