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
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, InvalidLinkError
from .topology import Graph, check_fits

# 2^n enumeration cap for the exact-throughput oracle.
MAX_BRUTE_FORCE_NODES = 20

# One slot's decoded links: int64 (receivers, senders), receivers ascending.
Links = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
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


def sample_broadcast(policy: AccessPolicy, rng: np.random.Generator, slots: int | None = None) -> np.ndarray:
    """Independent Bernoulli broadcast decisions, bool, True for a broadcast.

    With slots None, one slot's (n,) vector; otherwise the (slots, n) rows
    of that many slots, one slot per row. The rows equal, bit for bit,
    slots one-slot calls on the same generator in turn, and leave it in
    the same state: one rng.random draws the slots' uniforms in the order
    the calls would.
    """
    shape = policy.n if slots is None else (slots, policy.n)
    return rng.random(shape) < policy.probs


def slots_per_word(g: Graph) -> int:
    """How many slots link_decoder(g) packs into one uint64 word per node: 64 // bit_length(2n(d_max + 1)).

    Node i's arc codes sum to below 2n(d_i + 1): d_i neighbour codes below
    2n and its own code 2n. So a field of bit_length(2n(d_max + 1)) bits
    holds any node's sum in any slot.
    """
    return 64 // (2 * g.n * (int(g.degrees.max()) + 1)).bit_length()


def link_decoder(g: Graph) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """decoding_links bound to g, for a block of broadcast vectors.

    The returned decode(b) maps a block b (slots, n) of vectors, one slot
    per row, to one flat record (receivers, senders, bounds): row s's
    links, as decoding_links gives them, are entries bounds[s]:bounds[s + 1]
    of the int64 receivers and senders, so np.diff(bounds) counts them.

    Node i's closed neighbourhood is laid out as one segment: an arc to
    each neighbour j, coded n + j, then an arc to itself, coded 2n. The
    codes of the arcs whose end broadcasts sum to a value in [n, 2n)
    exactly when i is silent and one neighbour j broadcasts, and the value
    is then n + j; silence everywhere sums to 0, and a broadcast by i or
    by two neighbours to at least 2n.

    The slots go in words: each node's broadcasts in k = slots_per_word(g)
    slots are the bits of one uint64, slot s at bit s * (64 // k), so that
    each slot owns a field of at least the bit length of every code sum.
    Multiplying a word by an arc's code then puts the code in the field of
    each slot in which that arc's end broadcasts, and a sum of such
    products adds each slot's codes in its own field without a carry into
    the next. So a block costs one gather over its words and the 2|E| + n
    arcs, one product and one segmented sum per word, not per slot; the
    fields are then cut out to the (slots, n) sums, and one nonzero over
    them finds the values in [n, 2n).

    An unchecked per-slot internal: the bound function checks only the
    shape of b (DimensionError unless it is (slots, n)), and any entry
    other than 0 counts as a broadcast.
    """
    n = g.n
    heads, tails = g.arcs
    nodes = np.arange(n)
    # Segment i holds degree + 1 arcs and ends at cumsum(degrees)[i] + i:
    # arc k of head h (heads ascending) moves to k + h, and node i's own
    # arc is the last of its segment.
    own = np.cumsum(g.degrees) + nodes
    starts = own - g.degrees
    moved = np.arange(heads.size) + heads
    sources = np.empty(heads.size + n, dtype=np.intp)  # the node each arc listens to
    sources[moved] = tails
    sources[own] = nodes
    codes = np.empty(heads.size + n, dtype=np.uint64)
    codes[moved] = n + tails
    codes[own] = 2 * n
    per_word = slots_per_word(g)
    width = 64 // per_word
    shifts = range(0, per_word * width, width)
    ones = np.left_shift(np.uint64(1), np.array(shifts, dtype=np.uint64))  # a broadcast in every slot
    field = (1 << width) - 1

    def decode(b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        bits = np.asarray(b)
        if bits.ndim != 2 or bits.shape[1] != n:
            raise DimensionError(f"broadcast block shape {bits.shape} does not match n={n} as (slots, n)")
        slots = bits.shape[0]
        words = -(-slots // per_word)
        # value is rebound at each stage, so each stage's input is freed
        # once read. Assigning b into a bool array is b != 0; the rows past
        # the block fill its last word with silent slots.
        value = np.zeros((words * per_word, n), dtype=bool)
        value[:slots] = bits
        value = np.matmul(ones, value.reshape(words, per_word, n))  # (words, n) packed broadcasts
        value = np.take(value, sources, axis=1)  # C-ordered, one contiguous pass per word
        value *= codes
        value = np.add.reduceat(value, starts, axis=1)
        # One shift per field: numpy copies a broadcast array of shifts to
        # the output's size, a scalar it does not.
        fields = np.empty((words, per_word, n), dtype=np.uint64)
        for s, shift in enumerate(shifts):
            np.right_shift(value, shift, out=fields[:, s])
        value = fields.reshape(-1)[:bits.size]
        value &= field
        value -= n
        # Values below n wrap to above it, so one compare keeps exactly
        # the values in [0, n).
        flat = (value < n).nonzero()[0]
        senders = value[flat].view(np.int64)
        # flat holds the positions slot * n + receiver, ascending; the
        # receivers overwrite them once the slots' bounds are found.
        bounds = np.searchsorted(flat, np.arange(0, bits.size + 1, n))
        return np.remainder(flat, n, out=flat), senders, bounds

    return decode


def decoding_links(g: Graph, b) -> Links:
    """Receivers that decode a packet in a slot with broadcast vector b, and their senders.

    Receiver i decodes iff it is silent and exactly one of its neighbors
    broadcasts; that neighbor is its sender. Returns int64 (receivers,
    senders), with receivers ascending. The one-shot form of link_decoder
    for one vector b (n,): it binds in O(n + |E|), then runs the
    decoder's kernel on b as a block of one slot, one gather and one
    segmented sum over the 2|E| + n arcs of the closed neighbourhoods,
    not O(n^2).
    """
    bits = np.asarray(b)
    if bits.ndim != 1 or bits.shape[0] != g.n:
        raise DimensionError(f"broadcast vector shape {bits.shape} does not match n={g.n}")
    return link_decoder(g)(bits[np.newaxis])[:2]


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
    nbrs = g.neighbors(receiver)
    if sender not in nbrs:
        raise InvalidLinkError(f"({receiver}, {sender}) is not an edge")
    q = policy.probs
    others = nbrs[nbrs != sender]
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


def over_probabilities(p, f):
    """f(p flattened), shaped as p (a float for a float p); DomainError names the first p NaN or outside [0, 1]."""
    ps = np.asarray(p, dtype=float)
    bad = ~((ps >= 0.0) & (ps <= 1.0))
    if bad.any():
        raise DomainError(f"access probability must lie in [0, 1], got {ps[bad].flat[0]}")
    values = f(ps.ravel()).reshape(ps.shape)
    return float(values) if ps.ndim == 0 else values


def _degree_histogram(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The distinct degrees of g, ascending, and how many nodes have each."""
    counts = np.bincount(g.degrees)
    return np.flatnonzero(counts), counts[counts > 0]


def expected_throughput(g: Graph, p):
    """Expected number of successful deliveries in one slot under uniform p.

    Equals p * sum_i d_i (1-p)^{d_i}: each of node i's d_i incoming links
    succeeds with probability p (1-p)^{d_i}. Summed over the degree
    histogram, p * sum_d count_d d (1-p)^d, it has no node order. A float p
    gives a float, an array an array of its shape; each point is one row of
    one (points, distinct degrees) array, so each entry is bit-identical to
    the float call. Raises DomainError naming the first p that is NaN or
    outside [0, 1], or when that array does not fit (check_fits).
    """
    degrees, counts = _degree_histogram(g)
    check_fits(8 * np.size(p) * degrees.size, f"the throughput at {np.size(p)} access probabilities", DomainError)
    weights = counts * degrees
    return over_probabilities(p, lambda ps: ps * np.add.reduce(weights * (1.0 - ps[:, np.newaxis]) ** degrees, axis=1))


def throughput_derivative(g: Graph, p: float) -> float:
    """First derivative of expected_throughput in p.

    Equals sum_i d_i (1-p)^{d_i - 1} (1 - p (1 + d_i)), summed over the
    degree histogram; positive below 1/(1 + d_max), negative above 1/(1 + d_min).
    """
    if not 0.0 <= p < 1.0:
        raise DomainError(f"derivative requires 0 <= p < 1, got {p}")
    return float(_throughput_slope(g)(np.array([p]))[0])


def _throughput_slope(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """throughput_derivative bound to g's degree histogram, on a 1-D array of p in [0, 1)."""
    d, counts = _degree_histogram(g)
    return lambda ps: np.add.reduce(counts * d * (1.0 - ps[:, None]) ** (d - 1) * (1.0 - ps[:, None] * (1.0 + d)), axis=1)


def sign_change(f, lo: float, hi: float) -> float:
    """Where f turns from positive to negative in [lo, hi]: for the derivative of a function with one maximum there, its maximizer.

    f maps a 1-D array of points to their values. One call takes both ends,
    and lo is returned if f(lo) <= 0, hi if f(hi) >= 0. Each later call
    takes one point of a bracket a < b with f(a) > 0 > f(b), a float or more
    inside it: the regula falsi point with the value at an end kept twice
    in a row halved (Illinois), or the midpoint after three steps that did
    not halve the bracket, so any f, a jump too, costs at most four calls a
    halving. It returns an exact 0 of f, or at adjacent floats the end of
    smaller |f|. Raises DomainError for a bracket not finite or lo > hi.
    """
    a, b = float(lo), float(hi)
    if not -np.inf < a <= b < np.inf:
        raise DomainError(f"bracket [{lo}, {hi}] must be finite with lo <= hi")
    if a == b:
        return a
    fa, fb = (float(v) for v in f(np.array([a, b])))
    if not (fa > 0.0 and fb < 0.0):
        return b if fa > 0.0 else a
    halved, stalled, kept = b - a, 0, None
    while True:
        x = a + (b - a) * (fa / (fa - fb)) if stalled < 3 else a + 0.5 * (b - a)
        x = float(min(max(x, np.nextafter(a, b)), np.nextafter(b, a)))
        if not a < x < b:
            return a if abs(fa) <= abs(fb) else b
        fx = float(f(np.array([x]))[0])
        if fx == 0.0:
            return x
        if fx > 0.0:
            a, fa, fb, kept = x, fx, fb * (0.5 if kept == "b" else 1.0), "b"
        else:
            b, fb, fa, kept = x, fx, fa * (0.5 if kept == "a" else 1.0), "a"
        stalled += 1
        if b - a <= 0.5 * halved:
            halved, stalled = b - a, 0


def optimal_access_probability(g: Graph) -> float:
    """Uniform access probability maximizing the expected throughput.

    The root of throughput_derivative, p = 1/(1 + sum_i w_i d_i) for w_i
    proportional to S_i d_i, S_i = p (1-p)^{d_i}, found by sign_change in
    [1/(1 + d_max), 1/(1 + d_min)] on the degree histogram, bound once: the
    same float however the nodes are numbered, and 1/(1 + d) if all degrees are d.
    """
    return sign_change(_throughput_slope(g), 1.0 / (1.0 + g.degrees.max()), 1.0 / (1.0 + g.degrees.min()))


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
