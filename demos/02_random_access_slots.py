"""Slot-by-slot walk through the random-access broadcast channel.

Every slot, each node broadcasts with its access probability. A node
hears a packet only if it stays silent and exactly one neighbor talks;
two or more talking neighbors collide and the slot is wasted for that
receiver. No acknowledgements, no retransmissions.
"""

import numpy as np

from radsgd.mac import (
    AccessPolicy,
    expected_throughput,
    link_decoder,
    link_success_prob,
    sample_broadcast,
    transmission_matrix,
)
from radsgd.topology import from_edge_list

# A small graph where collisions are easy to stage: node 4 hears both
# 0 and 3, so it goes deaf whenever they talk in the same slot.
g = from_edge_list("n 5\n0 1\n0 4\n3 2\n3 4\n")
policy = AccessPolicy.uniform(g.n, 0.4)
rng = np.random.default_rng(11)

print("ten slots at p=0.4 (b = who broadcast, arrows = delivered packets)")
for slot in range(10):
    b = sample_broadcast(policy, rng)
    t = transmission_matrix(g, b)
    arrows = [f"{j}->{i}" for i in range(g.n) for j in range(g.n) if i != j and t[i, j]]
    print(f"  slot {slot}: b={b.tolist()} {' '.join(arrows) if arrows else '(nothing delivered)'}")

# Closed form for a single link: sender talks, receiver is silent, and
# every other neighbor of the receiver is silent too.
p = 0.4
print(f"\nlink 0->4 success probability: {link_success_prob(g, policy, 4, 0):.4f}")
print(f"by hand, p(1-p)^2 = {p * (1 - p) ** 2:.4f}  (receiver 4 has two neighbors)")

# Empirical check over many slots: one draw of the whole block, the same
# rows as that many one-slot draws, decoded by one bound decoder.
slots = 50_000
links = link_decoder(g)(sample_broadcast(policy, rng, slots))
receivers, senders = (np.concatenate(side) for side in zip(*links))
hits = np.count_nonzero((receivers == 4) & (senders == 0))
print(f"empirical 0->4 frequency over {slots} slots: {hits / slots:.4f}")

# Throughput (expected delivered packets per slot) is zero at both ends:
# nobody talks at p=0, everybody collides at p=1.
print("\nexpected throughput vs p:")
for q in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
    print(f"  p={q:.1f}: {expected_throughput(g, q):.3f}")
