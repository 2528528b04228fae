"""Scale-free social networks grown by preferential attachment.

A network is an undirected simple graph stored in compressed sparse row
form (``indptr``/``indices``), which keeps the simulation's per-cycle
neighbor averaging a single ``add.reduceat``.  Generation follows the
classic growth process: a small complete seed, then each arriving node
links to ``attach_count`` distinct existing nodes chosen with probability
proportional to current degree.  With attach_count = 2 on 256 nodes this
gives 509 edges, i.e. average degree just under 4.

Hop distances come from a level-synchronous frontier BFS over the CSR
arrays: each level marks all unvisited neighbors of the frontier at once.
The connectivity check of every generated network is the same BFS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Network",
    "from_edges",
    "generate_pa_network",
    "bfs_distances",
    "find_node_with_degree",
    "edge_array",
]


@dataclass(frozen=True)
class Network:
    """Immutable undirected simple graph in CSR form.

    ``indices[indptr[i]:indptr[i+1]]`` lists the neighbors of node i in
    ascending order.  Treat the arrays as read-only; runs share networks
    freely across processes.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.indices.size // 2)

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


def from_edges(n: int, edges) -> Network:
    """Build a Network from an iterable of (u, v) pairs.

    Rejects self loops, parallel edges, and out-of-range ids.
    """
    if n < 1:
        raise ValueError(f"node count must be positive, got {n!r}")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"parallel edge ({u}, {v})")
        seen.add(key)
    if seen:
        e = np.array(sorted(seen), dtype=np.int64)
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
    else:
        src = dst = np.empty(0, dtype=np.int64)
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return Network(n=n, indptr=indptr, indices=dst, degrees=degrees)


def generate_pa_network(n: int, attach_count: int, rng: np.random.Generator) -> Network:
    """Grow a preferential-attachment network on ``n`` nodes.

    The seed is the complete graph on attach_count + 1 nodes (the minimal
    connected start); every later node draws attach_count distinct targets
    with probability proportional to current degree, redrawing duplicates
    so the graph stays simple.  The result is connected with minimum
    degree attach_count.
    """
    if attach_count < 1:
        raise ValueError(f"attach_count must be at least 1, got {attach_count!r}")
    if n < attach_count + 1:
        raise ValueError(f"need n >= attach_count + 1, got n={n!r}, attach_count={attach_count!r}")

    seed_size = attach_count + 1
    edges = [(i, j) for i in range(seed_size) for j in range(i + 1, seed_size)]
    # One entry per unit of degree; drawing an index uniformly from this
    # list is a degree-proportional draw over nodes.
    repeated = [i for i in range(seed_size) for _ in range(attach_count)]
    for new in range(seed_size, n):
        targets: set[int] = set()
        while len(targets) < attach_count:
            targets.add(repeated[rng.integers(len(repeated))])
        for t in sorted(targets):
            edges.append((new, t))
            repeated.append(t)
        repeated.extend([new] * attach_count)

    net = from_edges(n, edges)
    if int(net.degrees.min()) < attach_count:
        raise RuntimeError("preferential attachment produced a degree below attach_count")
    if not _is_connected(net):
        raise RuntimeError("preferential attachment produced a disconnected graph")
    return net


def _bfs(net: Network, source: int) -> np.ndarray:
    # Hop distance from source, -1 where unreachable.  owner[k] is the node
    # whose neighbor list holds indices[k], so indices[frontier[owner]] are
    # all neighbors of the frontier, duplicates included.
    owner = np.repeat(np.arange(net.n), net.degrees)
    dist = np.full(net.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = dist == 0
    level = 0
    while True:
        reached = net.indices[frontier[owner]]
        reached = reached[dist[reached] < 0]
        if reached.size == 0:
            return dist
        level += 1
        dist[reached] = level
        frontier = dist == level


def _is_connected(net: Network) -> bool:
    return bool(np.all(_bfs(net, 0) >= 0))


def bfs_distances(net: Network, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every node (requires connectivity)."""
    if not 0 <= source < net.n:
        raise ValueError(f"source {source!r} out of range for n={net.n}")
    dist = _bfs(net, source)
    if np.any(dist < 0):
        raise ValueError("graph is not connected; distances are undefined")
    return dist


def find_node_with_degree(net: Network, target_degree: int, rng: np.random.Generator):
    """Uniformly random node of exactly ``target_degree``, or None."""
    if target_degree < 1:
        raise ValueError(f"target_degree must be at least 1, got {target_degree!r}")
    candidates = np.flatnonzero(net.degrees == target_degree)
    if candidates.size == 0:
        return None
    return int(candidates[rng.integers(candidates.size)])


def edge_array(net: Network) -> np.ndarray:
    """Edges as an (E, 2) array with src < dst, sorted; for CSV export."""
    src = np.repeat(np.arange(net.n, dtype=np.int64), net.degrees)
    keep = src < net.indices
    return np.column_stack([src[keep], net.indices[keep]])
