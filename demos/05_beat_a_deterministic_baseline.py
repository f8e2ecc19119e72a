"""Beat a deterministic approximation end to end.
=================================================

Given any deterministic rank-r approximation F* with error epsilon above
the optimal floor, the planner can pick an oversampling s whose expected-
error guarantee undercuts epsilon, and the randomized factorization then
beats F* on average.  The one opponent this cannot work against is the
truncated SVD: its error *is* the floor, so no budget below it exists.
"""

from randlr import GeneratorSpec, beat_baseline_experiment
from randlr.experiments import gen_signal_plus_noise

# Signal-plus-noise target: exact rank-5 signal, perturbation of norm 0.05.
F = gen_signal_plus_noise(
    GeneratorSpec(
        dims=(100, 80), kind="signal-plus-noise", signal_rank=5, noise_level=0.05, seed=21
    )
)

# Opponent 1: greedy column selection (deterministic, suboptimal).
rep = beat_baseline_experiment(F, r=5, baseline="column-select", trials=300, master_seed=999)
eps = rep.config["baseline_error"]
print("opponent: greedy column selection at rank 5")
print(f"  baseline error epsilon       = {eps:.6f} (squared: {eps**2:.6f})")
print(f"  tail energy (optimal floor)  = {rep.config['tail_energy']:.6f}")
print(f"  planned oversampling         = {rep.config['oversampling']}")
print(f"  predicted bound              = {rep.bound:.6f}")
print(f"  mean squared error, 300 runs = {rep.mean_squared_error:.6f}")
print(f"  fraction of runs below eps^2 = {rep.fraction_below_epsilon:.3f}")
print(f"  verdict: {rep.verdict}")

# Opponent 2: the truncated SVD (optimal).  By Eckart-Young its squared
# error is the tail energy, so its budget is the floor itself and the
# planner reports the attempt as infeasible.
rep2 = beat_baseline_experiment(F, r=5, baseline="truncated-svd", trials=300, master_seed=999)
print("\nopponent: truncated SVD at rank 5")
print(f"  baseline error squared = {rep2.epsilon:.6f}")
print(f"  tail energy            = {rep2.config['tail_energy']:.6f}")
print(f"  verdict: {rep2.verdict} ({rep2.config['plan']['reason']})")
print("\nAn optimal opponent leaves no room above the floor: the premise")
print("epsilon > tau fails, and the run reports that instead of pretending.")
