"""Tour of the graph constructors and their spectral fingerprints.

Builds a ring, a complete graph, and a connected Erdos-Renyi sample,
then prints the degree profile and the Laplacian spectrum of each. The
second-smallest Laplacian eigenvalue (algebraic connectivity) is the
usual one-number summary of how well a topology supports averaging.
"""

import numpy as np

from radsgd.topology import complete, erdos_renyi, laplacian, ring, to_edge_list

graphs = {
    "ring(8)": ring(8),
    "complete(8)": complete(8),
    "erdos_renyi(8, 0.35, seed=1)": erdos_renyi(8, 0.35, seed=1),
}

for name, g in graphs.items():
    spectrum = np.linalg.eigvalsh(laplacian(g))
    print(f"--- {name}")
    print(f"    nodes={g.n} edges={g.edge_count} degrees={list(g.degrees)}")
    print(f"    laplacian spectrum: {np.round(spectrum, 4) + 0.0}")  # + 0.0 turns -0.0 into 0.0
    print(f"    algebraic connectivity: {spectrum[1]:.4f}")

# The ring is the sparse extreme: two links per node, connectivity
# 2(1 - cos(2*pi/n)) which shrinks like 1/n^2. The complete graph is the
# dense extreme with connectivity n. A sparse random graph usually lands
# in between with far fewer links than the complete graph.

# Graphs round-trip through a plain text edge list, handy for pinning a
# sampled topology in an experiment config.
sample = erdos_renyi(6, 0.4, seed=3)
print("--- edge list for erdos_renyi(6, 0.4, seed=3)")
print(to_edge_list(sample), end="")
