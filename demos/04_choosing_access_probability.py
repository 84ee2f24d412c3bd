"""Two ways to pick the access probability, and why they agree.

A network engineer would pick the p that maximizes expected throughput.
Someone running distributed averaging would pick the p that minimizes
the consensus rate, the spectral radius that governs how fast
disagreement dies out. These are different objectives over different
math, yet their optimizers land nearly on top of each other.
"""

import numpy as np

from radsgd.mac import expected_throughput, optimal_access_probability
from radsgd.mixing import consensus_rate, default_epsilon, spectral_optimal_probability
from radsgd.topology import erdos_renyi, ring

for name, g in (("ring(20)", ring(20)), ("erdos_renyi(20, 0.3, seed=0)", erdos_renyi(20, 0.3, seed=0))):
    eps = default_epsilon(g)
    print(f"--- {name}")
    print("      p   throughput   consensus rate")
    for p in np.arange(0.05, 1.0, 0.1):
        print(f"  {p:5.2f}   {expected_throughput(g, p):10.4f}   {consensus_rate(g, eps, p):14.6f}")

    p_thr = optimal_access_probability(g)
    p_spec = spectral_optimal_probability(g, eps)
    print(f"  throughput-optimal p: {p_thr:.4f}")
    print(f"  spectral-optimal p:   {p_spec:.4f}")
    print(f"  gap: {abs(p_thr - p_spec):.4f}")

# Both optimizers are p = 1/(1 + a weighted mean degree): the throughput
# weighs node i by S_i d_i, with S_i = p(1-p)^{d_i}, and the consensus rate
# by y_i^2, for lambda_2's eigenvector y. On the ring every degree is 2, so
# both sit at exactly 1/3. On irregular graphs the two weightings differ
# only a little, so the gap stays small, and tuning the channel for raw
# packet delivery is already a good proxy for tuning it for fast averaging.
