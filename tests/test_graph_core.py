import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmpdag import (
    DirectedCycleError,
    GraphError,
    GraphParseError,
    Pdag,
    bucket_decomposition,
    cpdag_from_dag,
    parents,
    parse_graph,
    random_er_dag,
    unshielded_colliders,
)

from .oracles import (
    exists_proper_possibly_causal_path_starting_undirected,
    exists_start_undirected_path,
    random_mpdag,
)


@st.composite
def small_pdags(draw):
    n = draw(st.integers(2, 6))
    names = [f"V{i}" for i in range(n)]
    directed, undirected = [], []
    order = draw(st.permutations(list(range(n))))
    for i in range(n):
        for j in range(i + 1, n):
            mark = draw(st.sampled_from(["none", "fwd", "und"]))
            a, b = names[order[i]], names[order[j]]
            if mark == "fwd":
                directed.append((a, b))
            elif mark == "und":
                undirected.append((a, b))
    return Pdag(names, directed=directed, undirected=undirected)


class TestParse:
    def test_basic_edges(self):
        g = parse_graph("A -> B\nB -- C")
        assert g.directed_edges == (("A", "B"),)
        assert g.undirected_edges == (("B", "C"),)

    def test_directed_cycle_rejected(self):
        with pytest.raises(GraphError, match="directed cycle"):
            parse_graph("A -> B\nB -> A")
        with pytest.raises(DirectedCycleError, match="directed cycle"):
            parse_graph("A -> B\nB -> C\nC -> A")

    def test_star_triangle(self, star_triangle):
        assert set(star_triangle.directed_edges) == {("A", "X1"), ("A", "X2"), ("A", "X3")}
        assert set(star_triangle.undirected_edges) == {
            ("X1", "X2"),
            ("X1", "X3"),
            ("X2", "X3"),
        }

    def test_duplicate_edge_names_line(self):
        for text, message in (
            ("A -> B\nB -> A", "directed cycle between 'B' and 'A'"),
            ("A -> B\nB -- A", "duplicate edge between 'B' and 'A'"),
            ("A -> B\nA -> B", "duplicate edge between 'A' and 'B'"),
            ("A -- B\nB -> A", "duplicate edge between 'B' and 'A'"),
            ("A -- B\nA -- B", "duplicate edge between 'A' and 'B'"),
        ):
            with pytest.raises(GraphParseError, match=f"^{message}$") as exc:
                parse_graph(text)
            assert exc.value.line == 2

    def test_self_edge(self):
        with pytest.raises(GraphParseError, match="self-edge"):
            parse_graph("A -> A")

    def test_unknown_token(self):
        with pytest.raises(GraphParseError, match="unknown token"):
            parse_graph("A => B")

    def test_comments_and_isolated_nodes(self):
        g = parse_graph("# header\nnode Z\nA -> B  # trailing\n")
        assert g.names == ("Z", "A", "B")
        assert g.directed_edges == (("A", "B"),)

    def test_vertex_order_is_file_order(self):
        g = parse_graph("B -> C\nA -- B")
        assert g.names == ("B", "C", "A")

    def test_roundtrip(self, nine_buckets):
        assert parse_graph(nine_buckets.to_text()) == nine_buckets
        for d, s in ((10, 20), (40, 100), (120, 360)):
            cpdag = cpdag_from_dag(random_er_dag(d, s, seed=d))
            assert parse_graph(cpdag.to_text()) == cpdag


def test_from_arrays_rejects_what_init_rejects():
    z2, z3 = np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool)
    with pytest.raises(GraphError, match="^duplicate vertex names$"):
        Pdag(["A", "A"])
    with pytest.raises(GraphError, match="^duplicate vertex names$"):
        Pdag.from_arrays(["A", "A"], z2, z2)
    with pytest.raises(GraphError, match="^mark matrices must be 2 x 2$"):
        Pdag.from_arrays(["A", "B"], z3, z3)
    z23 = np.zeros((2, 3), dtype=bool)
    with pytest.raises(GraphError, match="^mark matrices must be 2 x 2$"):
        Pdag.from_arrays(["A", "B"], z23, z23)
    with pytest.raises(GraphError, match="^mark matrices must be 2 x 2$"):
        Pdag.from_arrays(["A", "B"], np.zeros(2, dtype=bool), np.zeros(2, dtype=bool))
    with pytest.raises(GraphError, match="^mark matrices must be 2 x 2$"):
        Pdag.from_arrays(["A", "B"], [[False, True], [False]], z2)
    for marks in (np.zeros((2, 2)), np.zeros((2, 2), dtype=int), [[0, 1], [0, 0]]):
        with pytest.raises(GraphError, match="^mark matrices must be boolean$"):
            Pdag.from_arrays(["A", "B"], marks, z2)
    loop = np.array([[False, False], [False, True]])
    with pytest.raises(GraphError, match="^self-edge at 'B'$"):
        Pdag(["A", "B"], directed=[("B", "B")])
    with pytest.raises(GraphError, match="^self-edge at 'B'$"):
        Pdag.from_arrays(["A", "B"], loop, z2)
    with pytest.raises(GraphError, match="^self-edge at 'B'$"):
        Pdag.from_arrays(["A", "B"], z2, loop)
    arrow, both_arrows = np.array([[0, 1], [0, 0]], bool), np.array([[0, 1], [1, 0]], bool)
    # two arrows, an arrow and a line, a line marked one way only
    for dmat, umat in ((both_arrows, z2), (arrow, both_arrows), (z2, arrow)):
        with pytest.raises(GraphError, match="^inconsistent marks between 'A' and 'B'$"):
            Pdag.from_arrays(["A", "B"], dmat, umat)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_from_arrays_copies_a_graph_exactly(seed):
    _, _, g = random_mpdag(np.random.default_rng(seed))
    dmat, umat = g.directed_mask.copy(), g.undirected_mask.copy()
    copy = Pdag.from_arrays(g.names, dmat, umat)
    dmat[:] = True
    umat[:] = False
    twin = Pdag(g.names, g.directed_edges, g.undirected_edges)
    assert copy == g == twin
    assert hash(copy) == hash(g) == hash(twin)


class TestUnshieldedColliders:
    def test_collider(self):
        assert unshielded_colliders(parse_graph("X -> Z\nY -> Z")) == {("X", "Z", "Y")}

    def test_chain(self):
        assert unshielded_colliders(parse_graph("X -> Y\nY -> Z")) == set()

    def test_complete_dag_has_none(self, star_triangle_dag):
        # every collider in a complete graph is shielded
        assert unshielded_colliders(star_triangle_dag) == set()

    def test_pdag_colliders_come_from_directed_edges_only(self):
        # W - Z and V - X would be colliders at Z and X if they were directed
        g = parse_graph("X -> Z\nY -> Z\nW -- Z\nV -- X")
        assert unshielded_colliders(g) == {("X", "Z", "Y")}


class TestStartUndirectedPath:
    def test_star_triangle_sensitive_is_settled(self, star_triangle):
        assert not exists_proper_possibly_causal_path_starting_undirected(
            star_triangle, ["A"], ["X1", "X2", "X3"]
        )

    def test_single_undirected_edge(self):
        g = parse_graph("A -- B")
        assert exists_proper_possibly_causal_path_starting_undirected(g, ["A"], ["B"])

    def test_nine_buckets_intervened_pair(self, nine_buckets):
        rest = [v for v in nine_buckets.names if v not in ("A", "E")]
        assert not exists_proper_possibly_causal_path_starting_undirected(
            nine_buckets, ["A", "E"], rest
        )

    def test_matches_exhaustive_path_search(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            _, _, g = random_mpdag(rng, max_n=7)
            nodes = list(g.names)
            src = [nodes[0]]
            dst = nodes[1:3]
            got = exists_proper_possibly_causal_path_starting_undirected(g, src, dst)
            assert got == exists_start_undirected_path(g, src, dst)

    @given(small_pdags())
    @settings(max_examples=40, deadline=None)
    def test_false_on_dags(self, g):
        if g.undirected_edges:
            return
        names = list(g.names)
        assert not exists_proper_possibly_causal_path_starting_undirected(
            g, names[:1], names[1:]
        )


class TestBucketDecomposition:
    def test_star_triangle(self, star_triangle):
        got = bucket_decomposition(star_triangle, star_triangle.names)
        assert set(got) == {frozenset({"A"}), frozenset({"X1", "X2", "X3"})}

    def test_dag_gives_singletons(self, star_triangle_dag):
        got = bucket_decomposition(star_triangle_dag, star_triangle_dag.names)
        assert all(len(b) == 1 for b in got) and len(got) == 4

    def test_nine_buckets_partition(self, nine_buckets):
        got = set(bucket_decomposition(nine_buckets, nine_buckets.names))
        assert got == {
            frozenset({"A", "E"}),
            frozenset({"B", "C"}),
            frozenset({"M", "L"}),
            frozenset({"D"}),
            frozenset({"R"}),
            frozenset({"N"}),
        }

    def test_connectivity_restricted_to_node_set(self):
        # X and Z connect only through Y; without Y they split
        g = parse_graph("X -- Y\nY -- Z")
        assert set(bucket_decomposition(g, ["X", "Z"])) == {
            frozenset({"X"}),
            frozenset({"Z"}),
        }
        assert bucket_decomposition(g, ["X", "Y", "Z"]) == (frozenset({"X", "Y", "Z"}),)

    @given(small_pdags(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, g, rnd):
        nodes = [v for v in g.names if rnd.random() < 0.7]
        buckets = bucket_decomposition(g, nodes)
        flat = [v for b in buckets for v in b]
        assert sorted(flat) == sorted(nodes)  # disjoint cover
        for b in buckets:
            for other in buckets:
                if b is not other:
                    # maximality: no undirected edge joins two buckets
                    assert not any(
                        g.has_undirected(x, y) for x in b for y in other
                    )


class TestNeighborhoods:
    def test_nine_buckets_parents(self, nine_buckets):
        assert parents(nine_buckets, ["N"]) == ("A", "M", "L", "R")
        assert parents(nine_buckets, ["D"]) == ("B", "E")

    def test_root_has_no_parents(self, star_triangle):
        assert parents(star_triangle, ["A"]) == ()

    def test_set_parents_exclude_members(self, nine_buckets):
        assert parents(nine_buckets, ["R", "N"]) == ("A", "E", "M", "L")

    def test_children_and_siblings(self, nine_buckets):
        assert nine_buckets.children_of("E") == ("D", "R")
        assert nine_buckets.siblings_of("A") == ("E",)
        assert nine_buckets.siblings_of("N") == ()
