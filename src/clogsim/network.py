"""Scale-free social networks grown by preferential attachment.

A network is an undirected simple graph stored in compressed sparse row
form (``indptr``/``indices``), which keeps the simulation's per-cycle
neighbor sums a single ``bincount``.  :func:`from_edges` is the
one CSR builder and validator: numpy checks every edge, and a single sort
of the directed edge keys lays out the rows.

Generation follows the classic growth process: a small complete seed,
then each arriving node links to ``attach_count`` distinct existing nodes
chosen with probability proportional to current degree.  With
attach_count = 2 on 256 nodes this gives 509 edges, i.e. average degree
just under 4.  Targets come from raw 32-bit words, turned into indices as
numpy's bounded ``rng.integers`` does, so a network and the generator's
state after it are those of one scalar call per target.  A grown
network's CSR arrays are built, and its connectivity checked, only when
something reads them: a network rejected for lacking a node of the
wanted degree never pays for them.

Hop distances come from a level-synchronous frontier BFS over the CSR
arrays: each level marks all unvisited neighbors of the frontier at once.
The connectivity check of a grown network is the same BFS.
"""

from __future__ import annotations

import numbers
from functools import cached_property

import numpy as np

__all__ = [
    "Network",
    "from_edges",
    "generate_pa_network",
    "bfs_distances",
    "find_node_with_degree",
    "edge_array",
]


class Network:
    """Immutable undirected simple graph in CSR form.

    ``indices[indptr[i]:indptr[i+1]]`` lists the neighbors of node i in
    ascending order.  Treat the arrays as read-only; runs share networks
    freely across processes.

    A network from :func:`generate_pa_network` holds its degrees and its
    degree-unit list; :func:`from_edges` builds its ``indptr`` and
    ``indices``, and its connectivity is checked, on their first read.
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray):
        vars(self).update(n=n, indptr=indptr, indices=indices, degrees=degrees)

    @classmethod
    def _grown(cls, n: int, degrees: np.ndarray, units: np.ndarray, attach_count: int) -> Network:
        net = cls.__new__(cls)
        vars(net).update(n=n, degrees=degrees, _units=units, _attach_count=attach_count)
        return net

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Network is immutable")

    @cached_property
    def _checked(self) -> Network:
        """A grown network's CSR form, built and checked for connectivity."""
        # Row v - seed_size of grown holds v's targets, then a copies of v.
        a = self._attach_count
        seed_size = a + 1
        grown = self._units[seed_size * a :].reshape(-1, 2, a)
        net = from_edges(self.n, np.concatenate([
            np.array([(i, j) for i in range(seed_size) for j in range(i + 1, seed_size)]),
            np.column_stack([grown[:, 1].ravel(), grown[:, 0].ravel()]),
        ]))
        if not _is_connected(net):
            raise RuntimeError("preferential attachment produced a disconnected graph")
        return net

    @cached_property
    def indptr(self) -> np.ndarray:
        return self._checked.indptr

    @cached_property
    def indices(self) -> np.ndarray:
        return self._checked.indices

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
    _require_integers(1, n=n)
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


def _require_integers(low=None, /, **values) -> None:
    """Raise a ValueError naming the first of ``values`` that is not an
    integer (numpy integers included) or, when ``low`` is given, is below it."""
    for key, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ValueError(f"{key} must be at least {low}, got {value!r}")


def _rejected(low: int, b: int) -> bool:
    """Whether numpy rejects word w in a draw below b < 2**32, ``low`` being
    the low half of ``w * b``.  By Lemire's method numpy takes the index
    ``(w * b) >> 32`` unless ``low < 2**32 % b``, which needs ``low < b``.
    """
    return low < (1 << 32) % b


def generate_pa_network(n: int, attach_count: int, rng: np.random.Generator) -> Network:
    """Grow a preferential-attachment network on ``n`` nodes.

    The seed is the complete graph on attach_count + 1 nodes (the minimal
    connected start); every later node draws attach_count distinct targets
    with probability proportional to current degree, redrawing duplicates
    so the graph stays simple.  The result is connected with minimum
    degree attach_count.

    Each target takes words as ``rng.integers(0, b)`` does (see
    :func:`_rejected`).  When the words run out, one call draws a word per
    target still to draw, never more than are used: the network and the
    generator's state afterwards are those of one scalar call per target.
    """
    _require_integers(1, attach=attach_count)
    _require_integers(attach_count + 1, n=n)
    if n * attach_count >= 1 << 30:
        # Keeps every bound below 2**31, on numpy's 32-bit bounded draw.
        raise ValueError(f"n must be at most {((1 << 30) - 1) // attach_count} "
                         f"(n * attach < 2**30), got {n!r}")

    a = attach_count
    seed_size = a + 1
    # One entry per unit of degree; drawing an index uniformly from this
    # list is a degree-proportional draw over nodes.  Each arriving node
    # appends its sorted targets, then a copies of itself.
    repeated = [i for i in range(seed_size) for _ in range(a)]
    words = iter(())
    for node in range(seed_size, n):
        # node draws k more targets below bound b; a duplicate target or a
        # rejected word takes the next word.
        b, targets, k = len(repeated), [], a
        while k:
            for w in words:
                m = w * b
                if m & 0xFFFFFFFF < b and _rejected(m & 0xFFFFFFFF, b):
                    continue
                t = repeated[m >> 32]
                if t not in targets:
                    targets.append(t)
                    k -= 1
                    if not k:
                        break
            else:
                words = iter(rng.integers(0, 1 << 32, size=(n - node - 1) * a + k).tolist())
        targets.sort()
        repeated += targets
        repeated += [node] * a

    units = np.fromiter(repeated, dtype=np.int64, count=len(repeated))
    return Network._grown(n, np.bincount(units, minlength=n), units, attach_count)


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
    _require_integers(0, source=source)
    if source >= net.n:
        raise ValueError(f"source {source!r} out of range for n={net.n}")
    dist = _bfs(net, source)
    if np.any(dist < 0):
        raise ValueError("graph is not connected; distances are undefined")
    return dist


def find_node_with_degree(net: Network, target_degree: int, rng: np.random.Generator):
    """Uniformly random node of exactly ``target_degree``, or None."""
    _require_integers(1, target_degree=target_degree)
    candidates = np.flatnonzero(net.degrees == target_degree)
    if candidates.size == 0:
        return None
    return int(candidates[rng.integers(candidates.size)])


def edge_array(net: Network) -> np.ndarray:
    """Edges as an (E, 2) array with src < dst, sorted; for CSV export."""
    src = net.owner
    keep = src < net.indices
    return np.column_stack([src[keep], net.indices[keep]])
