"""Decentralized SGD over the lossy channel, end to end.

Each node holds data nobody else sees (here: noisy observations of a
node-specific bias, deliberately non-iid) and can only exchange models
through the random-access channel. At p=0 nobody talks and every node
overfits its own shard; at p=1 every packet collides, which is just as
isolating. In between, gossip averaging pulls the nodes toward the
model that is good for the whole network.
"""

import numpy as np

from radsgd.learning import generate_regression_data, regression_task, train
from radsgd.mac import AccessPolicy, optimal_access_probability
from radsgd.topology import ring

g = ring(20)
task = regression_task()
data, test = generate_regression_data(g.n, samples_per_node=100, seed=0)

biases = data.labels.mean(axis=1)
print(f"per-node label means range from {biases.min():.2f} to {biases.max():.2f},")
print("so no single node can learn the network-wide optimum alone.\n")

print("final average test loss after 200 iterations:")
for p in (0.0, optimal_access_probability(g), 1.0):
    trace = train(g, AccessPolicy.uniform(g.n, p), task, data, test, iterations=200, step_size=0.01, seed=0)
    print(
        f"  p={p:.3f}: loss={trace.avg_test_loss[-1]:7.4f}  "
        f"consensus distance={trace.consensus_distance[-1]:8.4f}"
    )

# The p=0 and p=1 runs match exactly: both degenerate to isolated
# gradient descent, since a collision delivers nothing. The interior p
# cuts the loss by well over a third and keeps the nodes close together.

trace = train(g, AccessPolicy.uniform(g.n, 1 / 3), task, data, test, iterations=200, step_size=0.01, seed=0)
print("\nloss trajectory at p=1/3 (every 25 iterations):")
for i in range(0, len(trace.iterations), 25):
    print(f"  t={trace.iterations[i]:4d}  loss={trace.avg_test_loss[i]:.4f}")
