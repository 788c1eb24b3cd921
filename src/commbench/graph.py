"""Undirected graphs in compressed sparse row (CSR) form, and node
partitions.

Node ids are dense integers 0..n-1; external labels must be mapped at the
I/O boundary. Graphs and partitions are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _components


class Graph:
    """Undirected graph over nodes 0..node_count-1 in CSR form.

    Four read-only arrays hold it: row v of the adjacency is
    `indices[indptr[v]:indptr[v+1]]`, sorted by node id, with the edge
    weights in `weights`; every edge is stored in both of its rows.
    `self_loops[v]` is node v's self-loop weight, which counts once toward
    its strength. Graphs built from an edge list are simple, with unit
    weights and no self-loops; quotient graphs carry summed weights.
    """

    __slots__ = ("indptr", "indices", "weights", "self_loops", "_row_view")

    def __init__(self, node_count, edges):
        """Simple graph from (u, v) pairs, or an (m, 2) integer array of
        them; self-loops, duplicate edges and out-of-range ids are rejected."""
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        n = int(node_count)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
        if bad.any():
            u, v = pairs[np.argmax(bad)].tolist()
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        key = np.sort(lo * n + hi)
        dup = np.flatnonzero(key[1:] == key[:-1])
        if len(dup):
            raise ValueError(f"duplicate edge {divmod(int(key[dup[0]]), n)}")
        rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        self._assign(n, rows, cols, np.ones(len(rows)), np.zeros(n))

    @classmethod
    def _from_entries(cls, node_count, rows, cols, weights, self_loops):
        """Graph from (row, col, weight) entries that list every edge in
        both directions, duplicates summed; skips __init__ and its checks."""
        graph = cls.__new__(cls)
        graph._assign(node_count, rows, cols, weights, self_loops)
        return graph

    def _assign(self, node_count, rows, cols, weights, self_loops):
        csr = sp.csr_matrix((weights, (rows, cols)), shape=(node_count, node_count))
        csr.sum_duplicates()
        arrays = (csr.indptr, csr.indices, csr.data, np.asarray(self_loops, dtype=float))
        for name, array in zip(self.__slots__, arrays):
            array.flags.writeable = False
            setattr(self, name, array)
        self._row_view = None

    @property
    def node_count(self):
        return len(self.indptr) - 1

    @property
    def edge_count(self):
        """Number of adjacent node pairs (self-loops excluded)."""
        return len(self.indices) // 2

    @property
    def edges(self):
        """Edges as sorted (u, v) pairs with u < v."""
        return list(zip(*node_lists(self.node_count, *self.edge_ends())))

    def edge_ends(self):
        """(us, vs): the two ends of each edge as integer arrays, in the
        order of `edges`."""
        rows = self.rows()
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    def rows(self):
        """The row (source node) of each entry of `indices`."""
        return np.repeat(np.arange(self.node_count), np.diff(self.indptr))

    def _row_bounds(self, node):
        if not 0 <= node < len(self.indptr) - 1:
            raise ValueError(f"node {node} out of range for n={self.node_count}")
        return self.indptr[node], self.indptr[node + 1]

    def degree(self, node):
        start, stop = self._row_bounds(node)
        return int(stop - start)

    def degrees(self):
        return np.diff(self.indptr).tolist()

    def neighbors(self, node):
        """Adjacent nodes in increasing id order, self excluded."""
        start, stop = self._row_bounds(node)
        return self.indices[start:stop].tolist()

    @property
    def row_view(self):
        """Per node, a tuple of its adjacent nodes in increasing id order
        (no weights); built on first access and cached."""
        if self._row_view is None:
            bounds = self.indptr.tolist()
            (flat,) = node_lists(self.node_count, self.indices)
            self._row_view = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._row_view

    def strengths(self):
        """Per-node summed edge weight plus self-loop weight."""
        n = self.node_count
        return np.bincount(self.rows(), weights=self.weights, minlength=n) + self.self_loops

    @property
    def total_strength(self):
        """Sum of node strengths: 2m for a graph of m unit edges and for
        each of its quotients."""
        return float(self.weights.sum() + self.self_loops.sum())

    def adjacency(self):
        """The weighted adjacency as a scipy CSR matrix sharing this
        graph's arrays (read-only, self-loops excluded)."""
        n = self.node_count
        return sp.csr_matrix((self.weights, self.indices, self.indptr), shape=(n, n), copy=False)

    def __repr__(self):
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def node_lists(node_count, *ids):
    """Each integer array in `ids` as a list of Python ints drawn from one
    table of node_count int objects, so the lists hold pointers to shared
    objects rather than an int object per entry."""
    table = np.arange(node_count).astype(object)
    return [table[x].tolist() for x in ids]


class Partition:
    """Total assignment of nodes to mutually exclusive communities.

    Community ids are contiguous 0..c-1 and every community is non-empty.
    """

    __slots__ = ("_membership", "_sizes")

    def __init__(self, membership):
        member = tuple(int(c) for c in membership)
        if not member:
            raise ValueError("partition over empty node set")
        c = max(member) + 1
        if min(member) < 0:
            raise ValueError("negative community id")
        sizes = [0] * c
        for cid in member:
            sizes[cid] += 1
        if any(s == 0 for s in sizes):
            raise ValueError("community ids must be contiguous with no empty community")
        self._membership = member
        self._sizes = tuple(sizes)

    @classmethod
    def from_labels(cls, labels):
        """Compact arbitrary hashable labels to contiguous community ids
        (numbered by first appearance)."""
        remap = {}
        member = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            member.append(remap[lab])
        return cls(member)

    @property
    def membership(self):
        return self._membership

    @property
    def community_sizes(self):
        return self._sizes

    @property
    def num_communities(self):
        return len(self._sizes)

    @property
    def node_count(self):
        return len(self._membership)

    def communities(self):
        """Communities as lists of node ids, indexed by community id."""
        out = [[] for _ in self._sizes]
        for v, cid in enumerate(self._membership):
            out[cid].append(v)
        return out

    def __eq__(self, other):
        return isinstance(other, Partition) and self._membership == other._membership

    def __hash__(self):
        return hash(self._membership)

    def __repr__(self):
        return f"Partition(n={len(self._membership)}, c={len(self._sizes)})"


def edge_triangle_count(graph, u, v):
    """Number of triangles containing the edge {u, v} (= common neighbors)."""
    around_u = set(graph.neighbors(u))
    if v not in around_u:
        raise ValueError(f"({u},{v}) is not an edge")
    return len(around_u.intersection(graph.neighbors(v)))


def connected_components(graph) -> Partition:
    """Partition whose communities are the connected components, numbered
    by their smallest node."""
    _, labels = _components(graph.adjacency(), directed=False)
    return Partition.from_labels(labels.tolist())


def quotient_graph(graph, partition) -> Graph:
    """Collapse communities to single nodes.

    Self-loop weights are twice the intra-community edge weight (plus the
    members' self-loops) and inter-community weights are the summed cross
    weights, so node strengths (and their total) are conserved.
    """
    if partition.node_count != graph.node_count:
        raise ValueError("partition does not cover the graph's node set")
    member = np.asarray(partition.membership)
    c = partition.num_communities
    rows, cols = member[graph.rows()], member[graph.indices]
    intra = rows == cols
    self_loops = np.bincount(member, weights=graph.self_loops, minlength=c) + np.bincount(
        rows[intra], weights=graph.weights[intra], minlength=c
    )
    cross = ~intra
    return Graph._from_entries(c, rows[cross], cols[cross], graph.weights[cross], self_loops)


def read_edge_list(path, node_count=None):
    """Read a graph from text: one edge per line, two whitespace-separated
    0-based node ids; lines starting with '#' are ignored.

    node_count defaults to max id + 1; pass it explicitly when trailing
    nodes are isolated.
    """
    edges = []
    max_id = -1
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            u, v = int(parts[0]), int(parts[1])
            edges.append((u, v))
            max_id = max(max_id, u, v)
    if node_count is None:
        if max_id < 0:
            raise ValueError("empty edge list and no node_count given")
        node_count = max_id + 1
    return Graph(node_count, edges)


def _write_pairs(path, count, firsts, seconds):
    """Write one "first second" line per pair of ids below `count`, joining
    one shared string per id."""
    names = list(map(str, range(count)))
    pairs = zip(map(names.__getitem__, firsts), map(names.__getitem__, seconds))
    text = "\n".join(map(" ".join, pairs))
    with open(path, "w") as fh:
        fh.write(text + "\n" if text else "")


def write_edge_list(graph, path):
    us, vs = graph.edge_ends()
    _write_pairs(path, graph.node_count, us.tolist(), vs.tolist())


def read_membership(path):
    """Read a partition from text: one "node-id community-id" line per node."""
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed membership line: {line!r}")
            pairs.append((int(parts[0]), int(parts[1])))
    if not pairs:
        raise ValueError("empty membership file")
    if any(v < 0 for v, _ in pairs):
        raise ValueError(f"negative node id {min(v for v, _ in pairs)}")
    if any(c < 0 for _, c in pairs):
        raise ValueError(f"negative community id {min(c for _, c in pairs)}")
    n = max(v for v, _ in pairs) + 1
    member = [-1] * n
    for v, cid in pairs:
        if member[v] >= 0:
            raise ValueError(f"node {v} assigned twice")
        member[v] = cid
    if any(c < 0 for c in member):
        raise ValueError("membership does not cover 0..n-1")
    return Partition.from_labels(member)


def write_membership(partition, path):
    n = partition.node_count
    _write_pairs(path, n, range(n), partition.membership)
