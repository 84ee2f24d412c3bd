"""Undirected connectivity graphs: construction, validation, matrix views.

Every graph is connected, simple (no self-loops), and unweighted. Node ids
are 0-indexed everywhere, including the edge-list text format. A graph
stores its sorted edge list; the dense n x n views are built only when
read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EdgeListError, GenerationError, GraphError

# Resample budget for conditioning random graphs on connectivity.
MAX_GENERATION_ATTEMPTS = 1000

# Uniforms drawn at once by erdos_renyi: a block of whole rows of the
# n x n draw, at most this many values (and at least one row).
_DRAW_BLOCK = 1 << 16

# Bytes that building a Graph may allocate per edge, with a margin: its
# sort keys, arcs and connectivity arrays peak at 121-153 bytes per edge
# for rings and complete graphs, at 177 for erdos_renyi with its draws.
_BYTES_PER_EDGE = 256


def physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_fits(nbytes: float, what: str, error: type[Exception] = GraphError):
    """Raise error unless numpy can index nbytes and they fit in physical memory.

    Every allocation that grows with the input passes this one guard before
    it is made: the system may grant an allocation past physical memory and
    kill the process once it is touched. nbytes may be a float, so a count
    that overflowed to inf fails.
    """
    physical = physical_memory()
    if nbytes > np.iinfo(np.intp).max:
        limit = "one array can hold"
    elif nbytes > physical:
        limit = f"the {physical / 2 ** 30:.3g} GiB of physical memory"
    else:
        return
    raise error(f"{what} takes {nbytes / 2 ** 30:.3g} GiB, more than {limit}")


def _check_edges_fit(n: int, edge_count: float):
    """check_fits for building a graph of edge_count edges."""
    check_fits(int(edge_count) * _BYTES_PER_EDGE, f"building a graph of {n} nodes and {int(edge_count)} edges")


def _square(n: int):
    """GraphError unless numpy can index n x n 8-byte entries, as Graph's edge keys u * n + v need."""
    if int(n) ** 2 * 8 > np.iinfo(np.intp).max:
        raise GraphError(f"n={n} gives an adjacency matrix larger than one array can hold")


def _dense_shape(n: int) -> tuple[int, int]:
    """The shape (n, n), once one n x n matrix of 8-byte entries passes check_fits."""
    check_fits(int(n) ** 2 * 8, f"one {n} x {n} matrix")
    return n, n


def _is_connected(n: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the edges (lo[k], hi[k]) join nodes 0..n-1 into one component.

    Hooking with pointer jumping: every node points to a node of its
    component with an id no larger than its own, and after each round
    every pointer leads straight to its tree's root. In a round, each root
    hooks onto the smallest root across its edges. A tree that neither
    hooks nor is hooked onto is hooked the round after, so the number of
    trees at least halves every two rounds: O(log n) rounds of O(n + |E|)
    array work, where a search needs one round per level.
    """
    parent = np.arange(n)
    while True:
        pu, pv = parent[lo], parent[hi]
        differ = pu != pv
        if not differ.any():
            return bool((parent == parent[0]).all())
        pu, pv = pu[differ], pv[differ]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected undirected graph on nodes 0..n-1, stored as its edge list.

    edges is an (E, 2) array of integer node ids. Pairs may come in either
    order and may repeat; they are stored as u < v, sorted, without
    duplicates. Construction checks ids and self-loops in O(n + |E|),
    connectivity in O(log n) rounds of that, n against the largest matrix
    one array can hold, so the edge keys u * n + v stay indexable, and its
    own working memory against physical memory. The dense views pass
    check_fits when first read. Every array is read-only, so instances can
    be shared freely across threads; they compare and hash by identity.

    arcs holds both directions of every edge as (heads, tails), sorted by
    head, then tail; per-slot channel code works on these 2|E| arcs.
    """

    n: int
    edges: np.ndarray
    arcs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    degrees: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise GraphError(f"a graph needs n >= 1 nodes, got {n}")
        _square(n)
        e = np.asarray(self.edges)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError(f"edges must have shape (E, 2), got {e.shape}")
        # Cheap necessary condition, tested before any O(n) allocation.
        if e.shape[0] < n - 1:
            raise GraphError(f"graph must be connected, but {e.shape[0]} edges cannot join {n} nodes")
        _check_edges_fit(n, e.shape[0])
        if e.dtype.kind not in "iuf":
            raise GraphError(f"node ids must be integers, got dtype {e.dtype}")
        with np.errstate(invalid="ignore"):
            ids = e.astype(np.int64)
        if not np.array_equal(ids, e):
            raise GraphError("node ids must be integers")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise GraphError(f"node id out of range 0..{n - 1}")
        if np.any(ids[:, 0] == ids[:, 1]):
            raise GraphError("self-loops are not allowed")
        # Each edge as the key u * n + v with u < v; n * n fits by _square.
        lo, hi = ids.min(axis=1), ids.max(axis=1)
        keys = np.sort(lo * n + hi)
        first = np.ones(keys.shape, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        lo, hi = keys // n, keys % n
        if not _is_connected(n, lo, hi):
            raise GraphError("graph must be connected")
        edges = np.stack((lo, hi), axis=1)
        # Both directions of every edge, sorted by (head, tail).
        arc_keys = np.sort(np.concatenate((keys, hi * n + lo)))
        heads, tails = arc_keys // n, arc_keys % n
        degrees = np.bincount(heads, minlength=n)
        offsets = np.concatenate(([0], np.cumsum(degrees)))
        for array in (edges, heads, tails, degrees, offsets):
            array.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "arcs", (heads, tails))
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_offsets", offsets)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i (a read-only view); IndexError unless 0 <= i < n."""
        if not 0 <= i < self.n:
            raise IndexError(f"node {i} out of range 0..{self.n - 1}")
        return self.arcs[1][self._offsets[i]:self._offsets[i + 1]]

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix, built on first access and read-only.

        Float64, the dtype its readers compute with, so reading it as
        floats copies nothing.
        """
        a = np.zeros(_dense_shape(self.n))
        a[self.arcs] = 1.0
        a.setflags(write=False)
        return a

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Graph Laplacian D - A as floats (zero row sums), built on first access and read-only."""
        lap = np.zeros(_dense_shape(self.n))
        lap[self.arcs] = -1.0
        lap[np.diag_indices(self.n)] = self.degrees
        lap.setflags(write=False)
        return lap


def ring(n: int) -> Graph:
    """Cycle graph: node i adjacent to (i - 1) mod n and (i + 1) mod n."""
    if n < 3:
        raise GraphError(f"ring requires n >= 3, got {n}")
    _square(n)
    _check_edges_fit(n, n)
    u = np.arange(n)
    return Graph(n, np.stack((u, (u + 1) % n), axis=1))


def complete(n: int) -> Graph:
    """Complete graph: every pair of distinct nodes is an edge."""
    if n < 2:
        raise GraphError(f"complete graph requires n >= 2, got {n}")
    _check_edges_fit(n, n * (n - 1) // 2)
    return Graph(n, np.stack(np.triu_indices(n, k=1), axis=1))


def erdos_renyi(n: int, edge_prob: float, seed: int) -> Graph:
    """G(n, p) random graph conditioned on connectivity.

    Each unordered pair is an edge independently with probability
    edge_prob; the whole graph is resampled until connected, which keeps
    the conditional distribution exact. Deterministic for fixed
    (n, edge_prob, seed): an attempt reads the n x n uniforms of
    rng.random((n, n)) in row order, pair (i, j), i < j, from entry
    (i, j), but holds only a block of rows at a time. Raises GraphError
    when the expected edges would exceed physical memory, or the n x n
    uniforms of one attempt would if held at once: an attempt that large
    takes minutes to days.
    """
    if n < 2:
        raise GraphError(f"erdos_renyi requires n >= 2, got {n}")
    if not 0.0 < edge_prob <= 1.0:
        raise GraphError(f"edge_prob must lie in (0, 1], got {edge_prob}")
    if seed < 0:
        raise GraphError(f"seed must be nonnegative, got {seed}")
    check_fits(int(n) ** 2 * 8, f"drawing the {n} x {n} uniforms of one attempt")
    _check_edges_fit(n, edge_prob * n * (n - 1) / 2)
    rows = max(1, _DRAW_BLOCK // n)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        pairs = []
        for start in range(0, n, rows):
            block = rng.random((min(rows, n - start), n)) < edge_prob
            # The pairs in row order: a flat nonzero and a divmod take a
            # fraction of the time of numpy's 2-D nonzero.
            u, v = np.divmod(np.flatnonzero(block), n)
            u += start
            upper = u < v
            pairs.append(np.stack((u[upper], v[upper]), axis=1))
        edges = np.concatenate(pairs)
        _check_edges_fit(n, edges.shape[0])
        try:
            return Graph(n, edges)
        except GraphError:  # the only check left that random pairs can fail: connectivity
            pass
    raise GenerationError(
        f"no connected graph after {MAX_GENERATION_ATTEMPTS} attempts "
        f"(n={n}, edge_prob={edge_prob}); connectivity typically requires "
        f"edge_prob above ~2 ln(n)/n = {2 * np.log(n) / n:.4f}"
    )


def from_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a validated Graph.

    Format: the first significant line is ``n <count>``; every following
    non-empty, non-``#`` line is ``<u> <v>`` with 0 <= u, v < n and u != v.
    Duplicate edges are idempotent. Node ids are 0-indexed.
    """
    n = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise EdgeListError(
                    f"expected header 'n <count>', got {line!r}", lineno
                )
            try:
                n = int(fields[1])
            except ValueError:
                raise EdgeListError(f"node count {fields[1]!r} is not an integer", lineno)
            if n < 1:
                raise EdgeListError(f"node count must be positive, got {n}", lineno)
            continue
        if len(fields) != 2:
            raise EdgeListError(f"expected '<u> <v>', got {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(f"node ids must be integers, got {line!r}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"node id out of range 0..{n - 1}: {line!r}", lineno)
        if u == v:
            raise EdgeListError(f"self-loop {u} {v} is not allowed", lineno)
        pairs.append((u, v))
    if n is None:
        raise EdgeListError("document contains no 'n <count>' header")
    return Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def to_edge_list(g: Graph) -> str:
    """Serialize a graph to the canonical edge-list text (sorted edges)."""
    lines = [f"n {g.n}"] + [f"{u} {v}" for u, v in g.edges.tolist()]
    return "\n".join(lines) + "\n"
