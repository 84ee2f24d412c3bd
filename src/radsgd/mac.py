"""Random-access broadcast channel with success-or-collision reception.

Each slot, node j broadcasts with probability probs[j]. A node decodes a
packet only when it is silent itself and exactly one of its neighbors
broadcasts; any simultaneous neighbor transmissions collide and deliver
nothing. The analytical side gives per-link success probabilities, the
expected number of successful deliveries per slot, and the access
probability that maximizes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, InvalidLinkError
from .topology import Graph

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# 2^n enumeration cap for the exact-throughput oracle.
MAX_BRUTE_FORCE_NODES = 20


@dataclass(frozen=True)
class AccessPolicy:
    """Per-node broadcast probabilities for one slot."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.shape[0] < 1:
            raise DimensionError(f"probs must be a nonempty vector, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
            raise DomainError("broadcast probabilities must lie in [0, 1]")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, n: int, p: float) -> "AccessPolicy":
        """All n nodes broadcast with the same probability p."""
        return cls(np.full(n, float(p)))

    @property
    def n(self) -> int:
        return self.probs.shape[0]


def sample_broadcast(policy: AccessPolicy, rng: np.random.Generator) -> np.ndarray:
    """One slot of independent Bernoulli broadcast decisions (0/1 vector)."""
    return (rng.random(policy.n) < policy.probs).astype(np.int64)


def decoding_links(g: Graph, b) -> tuple[np.ndarray, np.ndarray]:
    """Receivers that decode a packet in a slot with broadcast vector b, and their senders.

    Receiver i decodes iff it is silent and exactly one of its neighbors
    broadcasts; that neighbor is its sender. Returns (receivers, senders),
    with receivers ascending. Costs O(|E|), not O(n^2).
    """
    bits = np.asarray(b)
    if bits.shape != (g.n,):
        raise DimensionError(f"broadcast vector shape {bits.shape} does not match n={g.n}")
    heads, tails = g.arcs
    heard = bits[tails] != 0  # arcs whose tail broadcasts
    loads = np.bincount(heads[heard], minlength=g.n)  # broadcasting neighbors per receiver
    decodes = (bits == 0) & (loads == 1)
    # A decoding receiver hears exactly one arc, so these are unique and
    # come out sorted by receiver.
    keep = heard & decodes[heads]
    return heads[keep], tails[keep]


def transmission_matrix(g: Graph, b) -> np.ndarray:
    """Per-slot success indicators for broadcast decision vector b.

    Entry (i, j), i != j, is 1 iff (i, j) is an edge, j broadcasts, and
    receiver i is silent with no other broadcasting neighbor. The diagonal
    is all ones (a node always keeps its own value), and each row carries
    at most one off-diagonal 1 since a node can decode at most one packet.
    The dense form of decoding_links.
    """
    receivers, senders = decoding_links(g, b)
    t = np.eye(g.n, dtype=np.int64)
    t[receivers, senders] = 1
    return t


def link_success_prob(g: Graph, policy: AccessPolicy, receiver: int, sender: int) -> float:
    """Probability that `receiver` decodes the packet broadcast by `sender`.

    Success requires the sender to broadcast while the receiver and all of
    the receiver's other neighbors stay silent; under a uniform access
    probability p this equals p (1-p)^{d_receiver}. Note the asymmetry: the
    exponent is the receiver's degree, so the two directions of an edge
    generally have different success probabilities.
    """
    if g.adjacency[receiver, sender] == 0:
        raise InvalidLinkError(f"({receiver}, {sender}) is not an edge")
    q = policy.probs
    others = [k for k in g.neighbors(receiver) if k != sender]
    return float(q[sender] * (1.0 - q[receiver]) * np.prod(1.0 - q[others]))


def success_probability_matrix(g: Graph, policy: AccessPolicy) -> np.ndarray:
    """Matrix of link success probabilities; entry (i, j) is receiver i <- sender j.

    Zero on the diagonal and on non-edges. Computed with leave-one-out
    products per receiver, so per-node probabilities of 1 are handled
    without dividing by zero.
    """
    if policy.n != g.n:
        raise DimensionError(f"policy size {policy.n} does not match n={g.n}")
    q = policy.probs
    s = np.zeros((g.n, g.n))
    for i in range(g.n):
        nbrs = g.neighbors(i)
        silent = 1.0 - q[nbrs]
        prefix = np.concatenate(([1.0], np.cumprod(silent[:-1])))
        suffix = np.concatenate((np.cumprod(silent[::-1])[-2::-1], [1.0]))
        s[i, nbrs] = q[nbrs] * (1.0 - q[i]) * prefix * suffix
    return s


def expected_throughput(g: Graph, p: float) -> float:
    """Expected number of successful deliveries in one slot under uniform p.

    Equals p * sum_i d_i (1-p)^{d_i}: each of node i's d_i incoming links
    succeeds with probability p (1-p)^{d_i}.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"access probability must lie in [0, 1], got {p}")
    d = g.degrees
    return float(p * np.sum(d * (1.0 - p) ** d))


def throughput_derivative(g: Graph, p: float) -> float:
    """First derivative of expected_throughput in p.

    Equals sum_i d_i (1-p)^{d_i - 1} (1 - p (1 + d_i)); positive below
    1/(1 + d_max), negative above 1/(1 + d_min).
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"derivative requires 0 <= p < 1, got {p}")
    d = g.degrees
    return float(np.sum(d * (1.0 - p) ** (d - 1) * (1.0 - p * (1.0 + d))))


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi]."""
    a, b = float(lo), float(hi)
    if not a < b:
        raise DomainError(f"bracket [{lo}, {hi}] is empty")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_access_probability(g: Graph) -> float:
    """Uniform access probability maximizing the expected throughput.

    The maximizer lies in [1/(1 + d_max), 1/(1 + d_min)]: every summand of
    the throughput increases below the lower end and decreases above the
    upper end. Uniform-degree graphs collapse the bracket to exactly
    1/(1 + d); otherwise golden-section search resolves the maximum to
    better than 1e-6.
    """
    d = g.degrees
    lo = 1.0 / (1.0 + d.max())
    hi = 1.0 / (1.0 + d.min())
    if lo == hi:
        return lo
    return golden_section_max(lambda p: expected_throughput(g, p), lo, hi, tol=1e-9)


def brute_force_expected_throughput(g: Graph, policy: AccessPolicy) -> float:
    """Exact expected throughput by enumerating all 2^n broadcast vectors.

    Serves as a testing oracle for the closed form; cost grows as 2^n, so
    the size is capped. Works for arbitrary per-node probabilities.
    """
    n = g.n
    if n > MAX_BRUTE_FORCE_NODES:
        raise DimensionError(
            f"enumeration over 2^{n} broadcast vectors is not supported "
            f"(max n={MAX_BRUTE_FORCE_NODES})"
        )
    if policy.n != n:
        raise DimensionError(f"policy size {policy.n} does not match n={n}")
    q = policy.probs
    a = g.adjacency
    total = 0.0
    block = 1 << 14
    for start in range(0, 1 << n, block):
        codes = np.arange(start, min(start + block, 1 << n), dtype=np.int64)
        bits = ((codes[:, np.newaxis] >> np.arange(n)) & 1).astype(float)
        weights = np.prod(np.where(bits == 1.0, q, 1.0 - q), axis=1)
        loads = bits @ a  # adjacency is symmetric
        decodes = (bits == 0.0) & (loads == 1.0)
        # A decoding receiver gets exactly one packet, so successful links
        # per slot is just the count of decoding receivers.
        total += float(weights @ decodes.sum(axis=1))
    return total
