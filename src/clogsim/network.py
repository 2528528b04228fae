"""Scale-free social networks grown by preferential attachment.

A network is an undirected simple graph stored in compressed sparse row
form (``indptr``/``indices``), which keeps the simulation's per-cycle
neighbor averaging a single ``add.reduceat``.  :func:`from_edges` is the
one CSR builder and validator: numpy checks every edge, and a single sort
of the directed edge keys lays out the rows.

Generation follows the classic growth process: a small complete seed,
then each arriving node links to ``attach_count`` distinct existing nodes
chosen with probability proportional to current degree.  With
attach_count = 2 on 256 nodes this gives 509 edges, i.e. average degree
just under 4.  The bound of every draw is known in advance, so a batch of
nodes draws its targets with one ``rng.integers`` call over per-element
bounds, consuming the stream exactly as one scalar call per target; a
duplicate target rewinds the stream, replays it up to the node that drew
it and redraws that node scalar-wise.  Networks and the generator's state
after growth are therefore the same as with scalar draws.

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

    @property
    def owner(self) -> np.ndarray:
        """``owner[k]`` is the node whose neighbor list holds ``indices[k]``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)


def from_edges(n: int, edges) -> Network:
    """Build a Network from (u, v) pairs: an iterable or an (E, 2) array.

    Rejects ids that are not integers, out-of-range ids, self loops and
    parallel edges; a range, loop or parallel-edge error names the first
    offending edge in input order.
    """
    if n < 1:
        raise ValueError(f"node count must be positive, got {n!r}")
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if e.size == 0:
        e = e.reshape(0, 2)
    elif e.dtype.kind not in "iu":
        raise ValueError(f"edge ids must be int64 integers, got {e.dtype} values")
    e = e.astype(np.int64, copy=False)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got an array of shape {e.shape}")
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    # src * n + dst of both directions of every edge: unique when all edges
    # are valid, and rows in ascending (src, dst) order once sorted.  The
    # stable sort keeps numpy's SIMD sort code, about 0.4 MB of peak RSS
    # per process, out of memory.
    key = lo * n + hi
    directed = np.sort(np.concatenate([key, hi * n + lo]), kind="stable")
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    if bad.any() or np.any(directed[1:] == directed[:-1]):
        # A key an out-of-range edge shares with another can only flag an
        # edge at or after a bad one.
        repeat = np.ones(key.size, dtype=bool)
        repeat[np.unique(key, return_index=True)[1]] = False
        i = int(np.argmax(bad | repeat))
        u, v = e[i].tolist()
        if lo[i] < 0 or hi[i] >= n:
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self loop at node {u}")
        raise ValueError(f"parallel edge ({u}, {v})")
    degrees = np.bincount(e.ravel(), minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return Network(n=n, indptr=indptr, indices=directed % n, degrees=degrees)


# Nodes whose targets one ``rng.integers`` call draws.  A duplicate target
# makes the batch's later draws void, so shorter batches waste fewer draws
# and longer ones make fewer calls; 64 was the fastest of 16 to 256 on
# 256 nodes with attach_count 2.
_BATCH_NODES = 64


def generate_pa_network(n: int, attach_count: int, rng: np.random.Generator) -> Network:
    """Grow a preferential-attachment network on ``n`` nodes.

    The seed is the complete graph on attach_count + 1 nodes (the minimal
    connected start); every later node draws attach_count distinct targets
    with probability proportional to current degree, redrawing duplicates
    so the graph stays simple.  The result is connected with minimum
    degree attach_count.

    Draws come in batches of nodes, one ``rng.integers(0, bounds)`` call
    per batch with each target's own bound.  When a node draws a duplicate
    target, the generator's state is restored to the batch start, one
    array call replays the draws of the nodes before it, and the node
    draws its targets one at a time; the next batch starts after it.
    The stream is consumed exactly as by one scalar call per target, so
    the network and the generator's state afterwards do not depend on
    the batching.
    """
    if attach_count < 1:
        raise ValueError(f"attach_count must be at least 1, got {attach_count!r}")
    if n < attach_count + 1:
        raise ValueError(f"need n >= attach_count + 1, got n={n!r}, attach_count={attach_count!r}")

    a = attach_count
    seed_size = a + 1
    # One entry per unit of degree; drawing an index uniformly from this
    # list is a degree-proportional draw over nodes.  Each arriving node
    # appends its sorted targets, then a copies of itself, so node v draws
    # from the first a * (2v - seed_size) entries: bounds[v*a : (v+1)*a].
    repeated = [i for i in range(seed_size) for _ in range(a)]
    bounds = np.repeat(a * (2 * np.arange(n) - seed_size), a)
    bits = rng.bit_generator
    node = seed_size
    while node < n:
        first, end = node, min(n, node + _BATCH_NODES)
        batch = bounds[first * a : end * a]
        snapshot = bits.state
        draws = rng.integers(0, batch).tolist()
        targets = []
        for d in draws:
            t = repeated[d]
            if t in targets:
                break
            targets.append(t)
            if len(targets) == a:
                targets.sort()
                repeated += targets
                repeated += [node] * a
                node += 1
                targets = []
        if node < end:
            # node drew a duplicate: replay the stream up to its first
            # draw, then redraw its targets one at a time.
            bits.state = snapshot
            if node > first:
                rng.integers(0, batch[: (node - first) * a])
            targets = set()
            while len(targets) < a:
                targets.add(repeated[rng.integers(len(repeated))])
            repeated += sorted(targets)
            repeated += [node] * a
            node += 1

    # Row v - seed_size of grown holds v's targets, then a copies of v.
    grown = np.array(repeated, dtype=np.int64)[seed_size * a :].reshape(-1, 2, a)
    edges = np.concatenate([
        np.array([(i, j) for i in range(seed_size) for j in range(i + 1, seed_size)]),
        np.column_stack([grown[:, 1].ravel(), grown[:, 0].ravel()]),
    ])
    net = from_edges(n, edges)
    if int(net.degrees.min()) < attach_count:
        raise RuntimeError("preferential attachment produced a degree below attach_count")
    if not _is_connected(net):
        raise RuntimeError("preferential attachment produced a disconnected graph")
    return net


def _bfs(net: Network, source: int) -> np.ndarray:
    # Hop distance from source, -1 where unreachable.  indices[frontier[owner]]
    # are all neighbors of the frontier, duplicates included.
    owner = net.owner
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
    src = net.owner
    keep = src < net.indices
    return np.column_stack([src[keep], net.indices[keep]])
