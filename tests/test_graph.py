import random

import numpy as np
import pytest

from commbench.graph import (
    Graph,
    Partition,
    connected_components,
    edge_triangle_count,
    quotient_graph,
    read_edge_list,
    read_membership,
    write_edge_list,
    write_membership,
)

from commbench.lfr import LfrConfig, generate
from commbench.metrics import modularity

from conftest import clique_edges, make_clique_pair


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    @pytest.mark.parametrize(
        "edges, match",
        [
            ([(1, 2), (0, 0)], r"^self-loop at node 0$"),
            ([(0, 1), (1, 2), (1, 0)], r"^duplicate edge \(0, 1\)$"),
            ([(0, 1), (0, 3)], r"^edge \(0,3\) out of range for n=3$"),
            ([(0, 1), (-1, 2)], r"^edge \(-1,2\) out of range for n=3$"),
        ],
    )
    def test_array_rejected_as_list_is(self, edges, match):
        for given in (edges, np.array(edges)):
            with pytest.raises(ValueError, match=match):
                Graph(3, given)

    def test_array_builds_same_graph_as_list(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng.randrange(1, 30), rng.random(), rng)
            edges = g.edges
            rng.shuffle(edges)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            for given in (np.array(edges, dtype=np.int64).reshape(-1, 2),
                          np.array(edges, dtype=np.int32).reshape(-1, 2)):
                a, b = Graph(g.node_count, given), Graph(g.node_count, edges)
                for name in ("indptr", "indices", "weights", "self_loops"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
                    assert getattr(a, name).dtype == getattr(b, name).dtype
                assert a.row_view == b.row_view

    def test_arrays_read_only_and_shared_by_sparse_view(self, triangle):
        with pytest.raises(ValueError):
            triangle.indices[0] = 2
        view = triangle.adjacency()
        for mine, theirs in ((triangle.indptr, view.indptr), (triangle.indices, view.indices),
                             (triangle.weights, view.data)):
            assert np.shares_memory(mine, theirs)

    def test_degree_sum_equals_twice_edge_count(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng.randrange(1, 30), rng.random(), rng)
            assert sum(g.degrees()) == 2 * g.edge_count


class TestDegree:
    def test_triangle_every_node(self, triangle):
        for v in range(3):
            assert triangle.degree(v) == 2

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert g.degree(0) == 1

    def test_isolated_node(self):
        g = Graph(2, [])
        assert g.degree(0) == 0

    def test_out_of_range_errors(self, triangle):
        with pytest.raises(ValueError):
            triangle.degree(3)


class TestEdgeTriangleCount:
    def test_triangle_edge(self, triangle):
        assert edge_triangle_count(triangle, 0, 1) == 1

    def test_path_edge_has_no_closure(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert edge_triangle_count(g, 0, 1) == 0

    def test_complete_four(self):
        g = Graph(4, clique_edges(range(4)))
        for u, v in g.edges:
            assert edge_triangle_count(g, u, v) == 2

    def test_non_edge_errors(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="not an edge"):
            edge_triangle_count(g, 0, 2)

    def test_bounded_by_min_degree(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_graph(rng.randrange(2, 25), rng.random(), rng)
            for u, v in g.edges:
                assert edge_triangle_count(g, u, v) <= min(g.degree(u), g.degree(v)) - 1


class TestConnectedComponents:
    def test_two_cliques(self, two_triangles):
        part = connected_components(two_triangles)
        assert part.num_communities == 2
        assert sorted(part.community_sizes) == [3, 3]

    def test_path_is_one_component(self):
        g = Graph(5, [(i, i + 1) for i in range(4)])
        assert connected_components(g).num_communities == 1

    def test_edgeless_graph_is_all_singletons(self):
        g = Graph(4, [])
        part = connected_components(g)
        assert part.num_communities == 4

    def test_idempotent_on_each_component(self, two_triangles):
        part = connected_components(two_triangles)
        # Re-running on the subgraph induced by each component yields one
        # community per component.
        for nodes in part.communities():
            idx = {v: i for i, v in enumerate(nodes)}
            sub_edges = [
                (idx[u], idx[v])
                for u, v in two_triangles.edges
                if u in idx and v in idx
            ]
            sub = Graph(len(nodes), sub_edges)
            assert connected_components(sub).num_communities == 1

    def test_ids_numbered_by_smallest_node(self):
        # Components {0, 5}, {1, 3}, {2}, {4, 6}: ids follow each
        # component's smallest node.
        g = Graph(7, [(3, 1), (6, 4), (5, 0)])
        assert connected_components(g).membership == (0, 1, 2, 1, 3, 0, 3)


class TestQuotientGraph:
    def test_bridged_cliques(self, bridged_triangles):
        part = Partition([0, 0, 0, 1, 1, 1])
        q = quotient_graph(bridged_triangles, part)
        assert q.node_count == 2
        assert q.self_loops.tolist() == [6.0, 6.0]
        assert q.neighbors(0) == [1]
        assert q.weights.tolist() == [1.0, 1.0]

    def test_singleton_partition_copies_graph(self, triangle):
        part = Partition([0, 1, 2])
        q = quotient_graph(triangle, part)
        assert q.self_loops.tolist() == [0.0, 0.0, 0.0]
        assert q.neighbors(0) == [1, 2]
        assert q.weights.tolist() == [1.0] * 6

    def test_all_in_one(self, bridged_triangles):
        part = Partition([0] * 6)
        q = quotient_graph(bridged_triangles, part)
        assert q.self_loops.tolist() == [2.0 * bridged_triangles.edge_count]

    def test_total_strength_conserved(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng.randrange(2, 20), 0.4, rng)
            member = [rng.randrange(3) for _ in range(g.node_count)]
            part = Partition.from_labels(member)
            q = quotient_graph(g, part)
            assert q.total_strength == pytest.approx(2 * g.edge_count)

    def test_weighted_quotient_of_quotient(self, bridged_triangles):
        # Collapsing twice conserves strength as well.
        part = Partition([0, 0, 0, 1, 1, 1])
        q = quotient_graph(bridged_triangles, part)
        q2 = quotient_graph(q, Partition([0, 0]))
        assert q2.self_loops.tolist() == [2.0 * bridged_triangles.edge_count]


def lfr_graph(seed):
    return generate(
        LfrConfig(n=300, avg_degree=10, max_degree=30, gamma=2.0, beta=2.0, mu=0.3, seed=seed)
    ).graph


class TestSingletonQuotient:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_graph_arrays(self, seed):
        g = lfr_graph(seed)
        q = quotient_graph(g, Partition(range(g.node_count)))
        for name in ("indptr", "indices", "weights", "self_loops"):
            assert np.array_equal(getattr(q, name), getattr(g, name)), name
        assert q.edges == g.edges

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_modularity_of_collapsed_partition(self, seed):
        g = lfr_graph(seed)
        rng = random.Random(seed)
        part = Partition.from_labels([rng.randrange(12) for _ in range(g.node_count)])
        q = quotient_graph(g, part)
        singletons = Partition(range(q.node_count))
        assert modularity(q, singletons) == pytest.approx(modularity(g, part), abs=1e-12)


class TestRowView:
    def test_unit_weight_view_holds_no_weight_objects(self):
        # The weights stay in the CSR array; the view holds node tuples
        # whose entries are the node ints alone.
        g = lfr_graph(1)
        view = g.row_view
        assert {type(row) for row in view} == {tuple}
        assert {type(u) for row in view for u in row} == {int}
        assert sum(map(len, view)) == len(g.indices)


class TestAgainstNetworkx:
    """Differential checks against networkx on LFR graphs."""

    @pytest.fixture(params=[1, 2])
    def pair(self, request):
        nx = pytest.importorskip("networkx")
        g = lfr_graph(request.param)
        ref = nx.Graph()
        ref.add_nodes_from(range(g.node_count))
        ref.add_edges_from(g.edges)
        return g, ref

    def test_degrees_and_neighbors(self, pair):
        g, ref = pair
        assert g.edge_count == ref.number_of_edges()
        nbrs = g.row_view
        assert type(nbrs) is tuple and len(nbrs) == g.node_count
        for v in range(g.node_count):
            assert g.degree(v) == ref.degree(v)
            assert g.neighbors(v) == sorted(ref.neighbors(v))
            assert type(nbrs[v]) is tuple
            assert list(nbrs[v]) == g.neighbors(v)
        assert g.row_view is g.row_view

    def test_rows_and_edges_share_one_int_per_node(self, pair):
        g, _ = pair
        nbrs = g.row_view
        ends = [u for edge in g.edges for u in edge]
        for ids in ([u for row in nbrs for u in row], ends):
            assert len({id(u) for u in ids}) == len(set(ids))

    def test_connected_components(self, pair):
        nx = pytest.importorskip("networkx")
        g, _ = pair
        # Keep a random 30% of the edges so there are several components.
        rng = random.Random(9)
        kept = [e for e in g.edges if rng.random() < 0.3]
        sparse = Graph(g.node_count, kept)
        sparse_ref = nx.Graph(kept)
        sparse_ref.add_nodes_from(range(g.node_count))
        expected = sorted(sorted(c) for c in nx.connected_components(sparse_ref))
        assert len(expected) > 1
        assert sorted(connected_components(sparse).communities()) == expected

    def test_edge_triangle_count(self, pair):
        g, ref = pair
        for u, v in g.edges:
            assert edge_triangle_count(g, u, v) == len(set(ref[u]) & set(ref[v]))

    def test_quotient_weights(self, pair):
        g, ref = pair
        rng = random.Random(4)
        part = Partition.from_labels([rng.randrange(8) for _ in range(g.node_count)])
        q = quotient_graph(g, part)
        member = part.membership
        loops = [0.0] * q.node_count
        cross = {}
        for u, v in ref.edges():
            a, b = sorted((member[u], member[v]))
            if a == b:
                loops[a] += 2.0
            else:
                cross[(a, b)] = cross.get((a, b), 0.0) + 1.0
        assert q.self_loops.tolist() == loops
        assert q.edges == sorted(cross)
        for a, b in q.edges:
            row = q.neighbors(a)
            assert q.weights[q.indptr[a] + row.index(b)] == cross[(a, b)]
        nbrs = q.row_view
        for a in range(q.node_count):
            assert list(nbrs[a]) == q.neighbors(a)
            row = q.weights[q.indptr[a]:q.indptr[a + 1]].tolist()
            assert row == [cross[(min(a, b), max(a, b))] for b in nbrs[a]]


class TestPartition:
    def test_rejects_gap_in_ids(self):
        with pytest.raises(ValueError):
            Partition([0, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Partition([])

    def test_from_labels_compacts(self):
        part = Partition.from_labels(["b", "a", "b", "c"])
        assert part.membership == (0, 1, 0, 2)
        assert part.community_sizes == (2, 1, 1)

    def test_sizes_sum_to_node_count(self):
        part = Partition([0, 1, 1, 2, 0])
        assert sum(part.community_sizes) == part.node_count

    def test_communities_listing(self):
        part = Partition([0, 1, 0])
        assert part.communities() == [[0, 2], [1]]


class TestIO:
    def test_edge_list_round_trip(self, tmp_path, bridged_triangles):
        path = tmp_path / "g.edges"
        write_edge_list(bridged_triangles, path)
        back = read_edge_list(path)
        assert back.node_count == bridged_triangles.node_count
        assert back.edges == bridged_triangles.edges

    def test_edge_list_ignores_comments(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n0 1\n\n1 2\n")
        g = read_edge_list(path)
        assert g.node_count == 3
        assert g.edges == [(0, 1), (1, 2)]

    def test_edge_list_explicit_node_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n")
        assert read_edge_list(path, node_count=4).node_count == 4

    def test_writers_match_per_line_output(self, tmp_path):
        net = generate(LfrConfig(n=200, avg_degree=8, max_degree=24, gamma=3.0, beta=2.0,
                                 mu=0.3, seed=4))
        write_edge_list(net.graph, tmp_path / "g.edges")
        write_membership(net.planted, tmp_path / "p.membership")
        with open(tmp_path / "want.edges", "w") as fh:
            for u, v in net.graph.edges:
                fh.write(f"{u} {v}\n")
        with open(tmp_path / "want.membership", "w") as fh:
            for v, cid in enumerate(net.planted.membership):
                fh.write(f"{v} {cid}\n")
        for got, want in (("g.edges", "want.edges"), ("p.membership", "want.membership")):
            assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()

    def test_writers_match_joined_f_strings(self, tmp_path):
        # Four-digit ids and isolated trailing nodes, whose names the
        # membership file still needs.
        net = generate(LfrConfig(n=1500, avg_degree=10, max_degree=30, gamma=3.0, beta=2.0,
                                 mu=0.4, seed=9))
        graph = Graph(1600, net.graph.edges)
        planted = Partition(list(net.planted.membership) + list(range(100)))
        write_edge_list(graph, tmp_path / "g.edges")
        write_membership(planted, tmp_path / "p.membership")
        want_edges = "".join(f"{u} {v}\n" for u, v in graph.edges)
        want_member = "".join(f"{v} {cid}\n" for v, cid in enumerate(planted.membership))
        assert (tmp_path / "g.edges").read_text() == want_edges
        assert (tmp_path / "p.membership").read_text() == want_member

    def test_edgeless_graph_writes_empty_file(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(Graph(3, []), path)
        assert path.read_bytes() == b""

    def test_membership_round_trip(self, tmp_path):
        part = Partition([0, 1, 1, 0, 2])
        path = tmp_path / "p.membership"
        write_membership(part, path)
        assert read_membership(path) == part

    def test_membership_rejects_negative_node_id(self, tmp_path):
        path = tmp_path / "p.membership"
        path.write_text("1 0\n-2 1\n")
        with pytest.raises(ValueError, match="negative node id"):
            read_membership(path)

    @pytest.mark.parametrize(
        "text", ["0 -1\n0 2\n1 2\n", "0 -1\n1 0\n"], ids=["node-twice", "one-per-node"]
    )
    def test_membership_rejects_negative_community_id(self, tmp_path, text):
        path = tmp_path / "p.membership"
        path.write_text(text)
        with pytest.raises(ValueError, match="negative community id -1"):
            read_membership(path)

    def test_membership_rejects_double_assignment(self, tmp_path):
        path = tmp_path / "p.membership"
        path.write_text("0 0\n0 1\n1 0\n")
        with pytest.raises(ValueError, match="twice"):
            read_membership(path)
