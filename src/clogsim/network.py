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
just under 4.  A node's targets are drawn from raw 32-bit words, as
numpy's bounded ``rng.integers`` turns a word into an index, so networks
and the generator's state after growth are the same as with one scalar
call per target.  A grown network's CSR arrays are built, and its
connectivity checked, only when something reads them: a network that is
only asked for its degrees, such as one rejected for lacking a node of
the wanted degree, never pays for them.

Hop distances come from a level-synchronous frontier BFS over the CSR
arrays: each level marks all unvisited neighbors of the frontier at once.
The connectivity check of every grown network that is read is the same
BFS.
"""

from __future__ import annotations

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


def _word_targets(words: np.ndarray, bounds: np.ndarray, rejects: np.ndarray):
    """What ``rng.integers(0, bounds)`` makes of raw 32-bit ``words``.

    numpy draws below a bound b < 2**32 by Lemire's method: a word w gives
    the index ``(w * b) >> 32``, unless the low 32 bits of ``w * b`` fall
    below ``rejects = 2**32 % b``; then numpy rejects w and draws another
    word for the same bound.  ``rng.integers(0, 2**32)`` returns these
    words, a buffered half of a 64-bit output first.  All three arrays
    are int64, and bounds below 2**31 keep ``w * b`` exact.  Returns the
    indices as a list and the rejected mask.
    """
    m = words * bounds
    return (m >> 32).tolist(), m % (1 << 32) < rejects


# Nodes whose targets one multiply turns from words into indices.  A
# duplicate target, seven to nine per 256-node network at attach_count 2,
# or a rejected word voids the batch's later indices: shorter batches
# convert fewer words in vain, longer ones make fewer numpy calls.  32
# and 64 were the fastest of 16 to 256 on 256 nodes with attach_count 2.
_BATCH_NODES = 64


def generate_pa_network(n: int, attach_count: int, rng: np.random.Generator) -> Network:
    """Grow a preferential-attachment network on ``n`` nodes.

    The seed is the complete graph on attach_count + 1 nodes (the minimal
    connected start); every later node draws attach_count distinct targets
    with probability proportional to current degree, redrawing duplicates
    so the graph stays simple.  The result is connected with minimum
    degree attach_count.

    Targets are drawn from raw 32-bit words as ``rng.integers(0, b)``
    draws them (see :func:`_word_targets`).  Every target takes at least
    one word, so one call draws a word per target up front, and another a
    word per target still to draw whenever the words run out: the stream
    is consumed exactly as by one scalar call per target, and the network
    and the generator's state afterwards are the same.  A batch of
    targets turns its words into indices with one multiply; a duplicate
    target or a rejected word ends the batch, and the next one starts at
    the word after it.

    The returned network carries its degrees; its CSR arrays are built,
    and its connectivity checked, on their first read.
    """
    if attach_count < 1:
        raise ValueError(f"attach_count must be at least 1, got {attach_count!r}")
    if n < attach_count + 1:
        raise ValueError(f"need n >= attach_count + 1, got n={n!r}, attach_count={attach_count!r}")
    if n * attach_count >= 1 << 30:
        # Keeps every bound below 2**31, and so _word_targets exact.
        raise ValueError(f"need n * attach_count < 2**30, got n={n!r}, attach_count={attach_count!r}")

    a = attach_count
    seed_size = a + 1
    # One entry per unit of degree; drawing an index uniformly from this
    # list is a degree-proportional draw over nodes.  Each arriving node
    # appends its sorted targets, then a copies of itself, so node v draws
    # from the first a * (2v - seed_size) entries: the bound of its
    # targets bounds[(v - seed_size) * a : (v - seed_size + 1) * a].
    repeated = [i for i in range(seed_size) for _ in range(a)]
    bounds = np.repeat(a * (2 * np.arange(seed_size, n) - seed_size), a)
    rejects = (1 << 32) % bounds

    words, pos = np.zeros(0, dtype=np.int64), 0
    node, slot, targets = seed_size, 0, []
    while slot < bounds.size:
        # slot is the next target's index into bounds; targets holds the
        # ones node has drawn so far.
        k = min(_BATCH_NODES * a, bounds.size - slot)
        if words.size - pos < k:
            # One word per target left, counting the words in hand.
            more = rng.integers(0, 1 << 32, size=bounds.size - slot - words.size + pos)
            words, pos = np.concatenate([words[pos:], more]), 0
        draws, rejected = _word_targets(
            words[pos : pos + k], bounds[slot : slot + k], rejects[slot : slot + k]
        )
        if rejected.any():
            del draws[int(rejected.argmax()) :]
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
        done = (node - seed_size) * a + len(targets)
        # A duplicate target or a rejected word is one more word used; the
        # next batch starts at the word after it, with the same target.
        pos += done - slot + (done - slot < k)
        slot = done

    units = np.fromiter(repeated, dtype=np.int64, count=len(repeated))
    degrees = np.bincount(units, minlength=n)
    if int(degrees.min()) < attach_count:
        raise RuntimeError("preferential attachment produced a degree below attach_count")
    return Network._grown(n, degrees, units, attach_count)


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
