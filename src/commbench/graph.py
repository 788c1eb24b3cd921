"""Undirected simple graphs, weighted community-level graphs, and node
partitions.

Node ids are dense integers 0..n-1; external labels must be mapped at the
I/O boundary. Graphs and partitions are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

from collections import deque


class Graph:
    """Undirected simple graph over nodes 0..node_count-1.

    Self-loops and duplicate edges are rejected. Adjacency lists are kept
    sorted so iteration order never depends on construction order.
    """

    __slots__ = ("_n", "_edges", "_adj")

    def __init__(self, node_count, edges):
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self._n = int(node_count)
        canon = []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self._n and 0 <= v < self._n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self._n}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for i in range(1, len(canon)):
            if canon[i] == canon[i - 1]:
                raise ValueError(f"duplicate edge {canon[i]}")
        self._edges = canon
        adj = [[] for _ in range(self._n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        self._adj = adj

    @property
    def node_count(self):
        return self._n

    @property
    def edge_count(self):
        return len(self._edges)

    @property
    def edges(self):
        """Edges as sorted (u, v) pairs with u < v."""
        return self._edges

    def degree(self, node):
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} out of range for n={self._n}")
        return len(self._adj[node])

    def degrees(self):
        return [len(lst) for lst in self._adj]

    def neighbors(self, node):
        if not 0 <= node < self._n:
            raise ValueError(f"node {node} out of range for n={self._n}")
        return self._adj[node]

    def weighted(self):
        """This graph as a WeightedGraph with unit edge weights and no
        self-loops, in the constructor's sorted neighbour order."""
        lift = WeightedGraph.__new__(WeightedGraph)
        lift._n = self._n
        lift._self_loops = [0.0] * self._n
        lift._adj = [[(v, 1.0) for v in lst] for lst in self._adj]
        lift._strength = [float(len(lst)) for lst in self._adj]
        return lift

    def __repr__(self):
        return f"Graph(n={self._n}, m={len(self._edges)})"


class WeightedGraph:
    """Graph with edge and self-loop weights: the aggregation levels of the
    local-moving detectors, from a Graph's unit-weight lift up through its
    quotient graphs.

    A self-loop of weight s contributes s to its node's strength, so the
    quotient of a graph with 2m stub ends conserves total strength 2m.
    """

    __slots__ = ("_n", "_self_loops", "_adj", "_strength")

    def __init__(self, node_count, cross_weights, self_loops):
        """Build from inter-node weights {(u, v): w} with u < v and a
        per-node self-loop weight sequence."""
        self._n = int(node_count)
        self._self_loops = [float(w) for w in self_loops]
        if len(self._self_loops) != self._n:
            raise ValueError("self_loops length must equal node_count")
        adj = [[] for _ in range(self._n)]
        for (u, v), w in sorted(cross_weights.items()):
            if u == v or not (0 <= u < v < self._n):
                raise ValueError(f"bad cross-weight key ({u},{v})")
            w = float(w)
            adj[u].append((v, w))
            adj[v].append((u, w))
        self._adj = adj
        self._strength = [
            self._self_loops[v] + sum(w for _, w in adj[v]) for v in range(self._n)
        ]

    @property
    def node_count(self):
        return self._n

    @property
    def self_loops(self):
        return self._self_loops

    def neighbors(self, node):
        """Weighted neighbors as (node, weight) pairs, self excluded."""
        return self._adj[node]

    def strength(self, node):
        return self._strength[node]

    @property
    def total_strength(self):
        """Sum of node strengths; equals 2m for a unit-weight quotient."""
        return sum(self._strength)

    def weighted(self):
        """Itself, so either graph kind can be lifted the same way."""
        return self

    def __repr__(self):
        return f"WeightedGraph(n={self._n})"


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


def degree(graph, node):
    """Number of neighbors of `node`."""
    return graph.degree(node)


def edge_triangle_count(graph, u, v):
    """Number of triangles containing the edge {u, v} (= common neighbors)."""
    around_u = set(graph.neighbors(u))
    if v not in around_u:
        raise ValueError(f"({u},{v}) is not an edge")
    return len(around_u.intersection(graph.neighbors(v)))


def connected_components(graph) -> Partition:
    """Partition whose communities are the connected components."""
    n = graph.node_count
    comp = [-1] * n
    cid = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = cid
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if comp[w] < 0:
                    comp[w] = cid
                    queue.append(w)
        cid += 1
    return Partition(comp)


def quotient_graph(graph, partition) -> WeightedGraph:
    """Collapse communities to single nodes of a Graph or WeightedGraph.

    Self-loop weights are twice the intra-community edge weight and
    inter-community weights are the summed cross weights, so node strengths
    (and their total) are conserved.
    """
    if partition.node_count != graph.node_count:
        raise ValueError("partition does not cover the graph's node set")
    graph = graph.weighted()
    c = partition.num_communities
    member = partition.membership
    self_loops = [0.0] * c
    cross = {}
    for v in range(graph.node_count):
        cv = member[v]
        self_loops[cv] += graph.self_loops[v]
        for w, wt in graph.neighbors(v):
            if w < v:
                continue
            cw = member[w]
            if cv == cw:
                self_loops[cv] += 2.0 * wt
            else:
                key = (cv, cw) if cv < cw else (cw, cv)
                cross[key] = cross.get(key, 0.0) + wt
    return WeightedGraph(c, cross, self_loops)


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


def write_edge_list(graph, path):
    with open(path, "w") as fh:
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


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
    with open(path, "w") as fh:
        for v, cid in enumerate(partition.membership):
            fh.write(f"{v} {cid}\n")
