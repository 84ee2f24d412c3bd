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

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# 2^n enumeration cap for the exact-throughput oracle.
MAX_BRUTE_FORCE_NODES = 20

# link_decoder multiplies and sums its arc codes in int32 while every
# node's code sum stays below this bound, and in int64 otherwise.
INT32_CODE_LIMIT = 1 << 31

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
    """Independent Bernoulli broadcast decisions, int64 0/1.

    With slots None, one slot's (n,) vector; otherwise the (slots, n) rows
    of that many slots, one slot per row. The rows equal, bit for bit,
    slots one-slot calls on the same generator in turn, and leave it in
    the same state: one rng.random draws the slots' uniforms in the order
    the calls would.
    """
    shape = policy.n if slots is None else (slots, policy.n)
    return (rng.random(shape) < policy.probs).astype(np.int64)


def code_dtype(g: Graph) -> np.dtype:
    """The integer type in which link_decoder(g) computes: int32 or int64.

    Node i's arc codes sum to below 2n(d_i + 1): d_i neighbour codes below
    2n and its own code 2n. int32 holds every sum while 2n(d_max + 1) is
    below INT32_CODE_LIMIT.
    """
    bound = 2 * g.n * (int(g.degrees.max()) + 1)
    return np.dtype(np.int32 if bound < INT32_CODE_LIMIT else np.int64)


def link_decoder(g: Graph) -> Callable[[np.ndarray], list[Links]]:
    """decoding_links bound to g, for a block of broadcast vectors.

    The returned decode(b) maps a block b (slots, n) of vectors, one slot
    per row, to the list of their (receivers, senders) pairs, row by row,
    as decoding_links gives them for each row.

    Node i's closed neighbourhood is laid out as one segment: an arc to
    each neighbour j, coded n + j, then an arc to itself, coded 2n. The
    codes of the arcs whose end broadcasts sum to a value in [n, 2n)
    exactly when i is silent and one neighbour j broadcasts, and the value
    is then n + j; silence everywhere sums to 0, and a broadcast by i or
    by two neighbours to at least 2n. So a block costs one gather of
    b != 0 over its slots and the 2|E| + n arcs, one segmented sum over
    each slot's arcs, and one nonzero over the (slots, n) values. The
    product and the sums are in code_dtype(g), int32 on any graph whose
    sums fit.

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
    codes = np.empty(heads.size + n, dtype=code_dtype(g))
    unsigned = np.dtype(f"u{codes.itemsize}")
    codes[moved] = n + tails
    codes[own] = 2 * n

    def decode(b) -> list[Links]:
        bits = np.asarray(b)
        if bits.ndim != 2 or bits.shape[1] != n:
            raise DimensionError(f"broadcast block shape {bits.shape} does not match n={n} as (slots, n)")
        # astype(bool) is b != 0, in one pass without a scalar operand; a
        # take along the arc axis returns the gather C-ordered, so the
        # product and the sums stay one contiguous pass per slot.
        # The sums keep the codes' type; add.reduceat would widen int32.
        value = np.add.reduceat(
            np.take(bits.astype(bool), sources, axis=1) * codes, starts, axis=1, dtype=codes.dtype,
        )
        value -= n
        # Negative values wrap to above the signed maximum as unsigned, so
        # one compare keeps exactly the values in [0, n).
        value = value.ravel()
        flat = (value.view(unsigned) < n).nonzero()[0]
        senders = value[flat].astype(np.int64, copy=False)
        # flat holds the positions slot * n + receiver, ascending.
        bounds = np.searchsorted(flat, np.arange(0, bits.size + 1, n)).tolist()
        receivers = flat % n
        return [(receivers[lo:hi], senders[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

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
    return link_decoder(g)(bits[np.newaxis])[0]


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
    d, counts = _degree_histogram(g)
    return float(np.sum(counts * d * (1.0 - p) ** (d - 1) * (1.0 - p * (1.0 + d))))


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-9, lookahead: int = 0) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi].

    f maps a 1-D array of points to the array of their values. The search
    keeps a bracket [a, b] with inner points c < d, narrows it to [a, d] when
    f(c) >= f(d) and to [c, b] otherwise, and stops once b - a <= tol or
    an inner point rounds onto an end, where a step would no longer shrink
    the bracket: any tol >= 0 stops at float resolution. Raises DomainError
    for an empty or non-finite bracket and a NaN or negative tol or lookahead.

    A call of f evaluates the point the search needs next together with
    every point that its next `lookahead` evaluations could need, on both
    sides of each comparison whose values are not yet known: at most
    2^(lookahead + 1) - 1 points. The search then replays its comparisons
    on the cached values, so every lookahead visits the same points and,
    when f gives a point the same value in any call, returns the same
    float. Lookahead 0 asks for one point per call.
    """
    a, b = float(lo), float(hi)
    if not -np.inf < a < b < np.inf:
        raise DomainError(f"bracket [{lo}, {hi}] must be finite and nonempty")
    if not (tol >= 0.0 and lookahead >= 0):
        raise DomainError(f"tol and lookahead must be at least 0, got {tol} and {lookahead}")
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    known = {}
    while _open(a, b, c, d, tol):
        while c not in known or d not in known:
            points = _upcoming_points(a, b, c, d, known, tol, lookahead + 1)
            known.update(zip(points, f(np.array(points))))
        a, b, c, d = _narrow(a, b, c, d, known[c] >= known[d])
    return 0.5 * (a + b)


def search_lookahead(n: int, block_bytes: int) -> int:
    """The deepest golden_section_max lookahead whose calls fit an (n, points) float64 block of block_bytes.

    A call holds at most 2^(lookahead + 1) - 1 points; the lookahead is 0
    when fewer than 3 points fit.
    """
    width = max(1, block_bytes // (8 * n))
    return (width + 1).bit_length() - 2


def _narrow(a, b, c, d, left: bool) -> tuple:
    """One golden-section step: the bracket [a, d] when left, else [c, b], with its new inner points."""
    if left:
        return a, d, d - _INVPHI * (d - a), c
    return c, b, d, c + _INVPHI * (b - c)


def _open(a, b, c, d, tol: float) -> bool:
    """Whether golden_section_max compares on (a, b, c, d): b - a > tol, c and d strictly inside."""
    return b - a > tol and a < c and d < b


def _upcoming_points(a, b, c, d, known: dict, tol: float, levels: int) -> list:
    """The points golden_section_max may evaluate in its next `levels` evaluations from the bracket (a, b, c, d).

    First the inner points without a known value, c before d; each later
    level holds the new point of each side of every comparison still open,
    where the narrowed bracket is still open (else the search stops there
    and never compares it).
    """
    points = [x for x in (c, d) if x not in known][:levels]
    brackets = [(a, b, c, d)]
    for _ in range(levels - len(points)):
        # A left step makes a new c (index 2), a right step a new d (index 3).
        steps = [(_narrow(*q, left), 2 if left else 3) for q in brackets for left in (True, False)]
        steps = [(q, new) for q, new in steps if _open(*q, tol)]
        brackets = [q for q, _ in steps]
        points += [q[new] for q, new in steps]
    return points


def optimal_access_probability(g: Graph) -> float:
    """Uniform access probability maximizing the expected throughput.

    The maximizer lies in [1/(1 + d_max), 1/(1 + d_min)]: every summand of
    the throughput increases below the lower end and decreases above the
    upper end. Uniform-degree graphs collapse the bracket to exactly
    1/(1 + d); otherwise golden-section search resolves the maximum to
    better than 1e-6, the same float however the nodes are numbered.
    """
    lo, hi = 1.0 / (1.0 + g.degrees.max()), 1.0 / (1.0 + g.degrees.min())
    if lo == hi:
        return lo
    # The throughput sums over distinct degrees, so a round of up to 7 points costs about one point's call.
    return golden_section_max(lambda ps: expected_throughput(g, ps), lo, hi, tol=1e-9, lookahead=2)


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
