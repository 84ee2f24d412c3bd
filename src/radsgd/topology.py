"""Undirected connectivity graphs: construction, validation, matrix views.

Every graph is connected, simple (no self-loops), and unweighted. Node ids
are 0-indexed everywhere, including the edge-list text format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EdgeListError, GenerationError, GraphError

# Resample budget for conditioning random graphs on connectivity.
MAX_GENERATION_ATTEMPTS = 1000


def _is_connected(adjacency: np.ndarray) -> bool:
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & ~seen)
        seen[frontier] = True
    return bool(seen.all())


@dataclass(frozen=True)
class Graph:
    """Connected undirected graph on nodes 0..n-1.

    The adjacency matrix is validated on construction (symmetric, 0/1
    entries, zero diagonal, connected) and then frozen read-only, so
    instances can be shared freely across threads.
    """

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if self.n < 1 or a.shape != (self.n, self.n):
            raise GraphError(
                f"adjacency shape {a.shape} does not match n={self.n}"
            )
        if not ((a == 0) | (a == 1)).all():
            raise GraphError("adjacency entries must be 0 or 1")
        a = a.astype(np.int64)
        if not np.array_equal(a, a.T):
            raise GraphError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise GraphError("self-loops are not allowed")
        if not _is_connected(a):
            raise GraphError("graph must be connected")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector (row sums of the adjacency), computed once and read-only."""
        d = self.adjacency.sum(axis=1)
        d.setflags(write=False)
        return d

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Graph Laplacian D - A as floats, computed once and read-only (see laplacian(g))."""
        lap = np.diag(self.degrees).astype(float) - self.adjacency.astype(float)
        lap.setflags(write=False)
        return lap

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions of every edge as (heads, tails), sorted by head.

        Computed once per graph; per-slot channel code works on these 2|E|
        arcs instead of the n x n adjacency.
        """
        heads, tails = np.nonzero(self.adjacency)
        heads.setflags(write=False)
        tails.setflags(write=False)
        return heads, tails

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i."""
        return np.flatnonzero(self.adjacency[i])


def _square(n: int) -> tuple[int, int]:
    """The shape (n, n), or GraphError when numpy cannot index the bytes of an n x n matrix."""
    if int(n) ** 2 * 8 > np.iinfo(np.intp).max:
        raise GraphError(f"n={n} gives an adjacency matrix larger than one array can hold")
    return n, n


def ring(n: int) -> Graph:
    """Cycle graph: node i adjacent to (i - 1) mod n and (i + 1) mod n."""
    if n < 3:
        raise GraphError(f"ring requires n >= 3, got {n}")
    a = np.zeros(_square(n), dtype=np.int64)
    idx = np.arange(n)
    a[idx, (idx + 1) % n] = 1
    a[(idx + 1) % n, idx] = 1
    return Graph(n, a)


def complete(n: int) -> Graph:
    """Complete graph: every pair of distinct nodes is an edge."""
    if n < 2:
        raise GraphError(f"complete graph requires n >= 2, got {n}")
    a = np.ones(_square(n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return Graph(n, a)


def erdos_renyi(n: int, edge_prob: float, seed: int) -> Graph:
    """G(n, p) random graph conditioned on connectivity.

    Each unordered pair is an edge independently with probability
    edge_prob; the whole graph is resampled until connected, which keeps
    the conditional distribution exact. Deterministic for fixed
    (n, edge_prob, seed).
    """
    if n < 2:
        raise GraphError(f"erdos_renyi requires n >= 2, got {n}")
    if not 0.0 < edge_prob <= 1.0:
        raise GraphError(f"edge_prob must lie in (0, 1], got {edge_prob}")
    if seed < 0:
        raise GraphError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        upper = np.triu(rng.random(_square(n)) < edge_prob, k=1)
        a = (upper | upper.T).astype(np.int64)
        if _is_connected(a):
            return Graph(n, a)
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
    adjacency = None
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
            adjacency = np.zeros(_square(n), dtype=np.int64)
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
        adjacency[u, v] = 1
        adjacency[v, u] = 1
    if n is None:
        raise EdgeListError("document contains no 'n <count>' header")
    return Graph(n, adjacency)


def to_edge_list(g: Graph) -> str:
    """Serialize a graph to the canonical edge-list text (sorted edges)."""
    lines = [f"n {g.n}"]
    for u in range(g.n):
        for v in g.neighbors(u):
            if u < v:
                lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def laplacian(g: Graph) -> np.ndarray:
    """Graph Laplacian D - A: symmetric, zero row sums, degrees on the diagonal; read-only."""
    return g.laplacian
