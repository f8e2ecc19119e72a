"""Pick the oversampling that meets an error budget.
====================================================

The expected squared error of the randomized factorization at target rank
r with oversampling s is bounded by (1 + r/(s-1)) * tau, where tau is the
tail energy: the sum of squared singular values past index r, and also the
squared error of the best possible rank-r approximation.  The planner
searches for the least s whose guarantee beats a budget epsilon.
"""

import numpy as np

from randlr import SingularSpectrum, choose_oversampling, expected_error_bound, plan, tail_energy

spectrum = SingularSpectrum(
    values=np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05]),
    source_dims=(40, 30),
)
r = 3
tau = tail_energy(spectrum, r)
print(f"tail energy past rank {r}: tau = {tau:.4f}")
print(f"(no rank-{r} approximation has squared error below tau)")

# The bound factor 1 + r/(s-1) shrinks toward 1 as s grows.
print("\n  s   bound (1 + r/(s-1)) * tau")
for s in (2, 3, 5, 9, 17):
    print(f" {s:3d}  {expected_error_bound(r, s, tau):.4f}")

# Budgets: a comfortable one, a tight one, and one below the floor.
for epsilon in (4.0, 1.7, 1.0):
    result = plan(spectrum, r, epsilon)
    if result.feasible:
        print(
            f"\nbudget {epsilon}: s = {result.oversampling}, "
            f"predicted bound = {result.predicted_bound:.4f}"
            + (" (bumped off an exact-integer boundary)" if result.strictness_bumped else "")
        )
    else:
        print(f"\nbudget {epsilon}: infeasible ({result.reason}; tau = {result.tail_energy:.4f})")

# choose_oversampling is the bare selection rule when tau is already known.
print("\nbare rule: r=10, tau=1, epsilon=2 ->", choose_oversampling(10, 1.0, 2.0))
print("(the bound equals epsilon exactly at s = 11, and s is the least value")
print(" whose computed bound is strictly below epsilon, so it is 12)")
