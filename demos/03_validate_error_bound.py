"""Monte Carlo validation of the expected-error bound.
======================================================

The bound (1 + r/(s-1)) * tau constrains the *expectation* of the squared
error.  Here we run 500 independent factorizations per configuration and
check that the empirical mean sits below the bound plus three standard
errors.  Everything is keyed by a master seed: trial i draws its own
substream, so the report is reproducible bit for bit.
"""

from randlr import GeneratorSpec, generate, monte_carlo

spectrum = tuple(0.5**i for i in range(1, 21))
F = generate(
    GeneratorSpec(dims=(100, 100), kind="prescribed-spectrum", spectrum=spectrum, seed=2025)
)

print("matrix 100x100 with sigma_i = 0.5^i (20 values), 500 trials per row\n")
print("  r   s   mean ||F-HT||^2   bound          verdict")
for r, s in [(2, 3), (5, 3), (5, 6), (10, 6), (10, 12)]:
    rep = monte_carlo(F, r, s, trials=500, master_seed=4242)
    print(
        f" {r:3d} {s:3d}   {rep.mean_squared_error:.6e}   {rep.bound:.6e}   {rep.verdict}"
    )

print("\nThe empirical mean is typically far below the bound: the guarantee")
print("is loose, which is exactly what makes it safe to plan with.")

# Reports carry the raw per-trial errors for external analysis.
rep = monte_carlo(F, 5, 6, trials=500, master_seed=4242)
errs = rep.per_trial_errors
print(f"\nper-trial errors: n={len(errs)}, min={min(errs):.3e}, max={max(errs):.3e}")
print(f"standard error of the mean (squared units): {rep.std_error:.3e}")
