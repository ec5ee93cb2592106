import numpy as np
import pytest

from fairmpdag import (
    GraphError,
    NotIdentifiableError,
    Pdag,
    augment_with_prediction,
    bucket_decomposition,
    enumerate_dags_in_class,
    enumerate_valid_orientations,
    exists_proper_possibly_causal_path_starting_undirected,
    identification_formula,
    is_identifiable,
    parents,
    parse_graph,
    pco,
)

from .oracles import (
    naive_extensions,
    pair_weights,
    population_cov,
    population_do_means,
    random_mpdag,
)


class TestPco:
    def test_nine_buckets_golden_order(self, nine_buckets):
        ordering = pco(nine_buckets.names, nine_buckets)
        assert ordering.buckets == (
            frozenset({"B", "C"}),
            frozenset({"A", "E"}),
            frozenset({"M", "L"}),
            frozenset({"D"}),
            frozenset({"R"}),
            frozenset({"N"}),
        )

    def test_star_triangle(self, star_triangle):
        ordering = pco(star_triangle.names, star_triangle)
        assert ordering.buckets == (
            frozenset({"A"}),
            frozenset({"X1", "X2", "X3"}),
        )

    def test_dag_gives_topological_singletons(self, star_triangle_dag):
        ordering = pco(star_triangle_dag.names, star_triangle_dag)
        assert all(len(b) == 1 for b in ordering.buckets)
        seq = [next(iter(b)) for b in ordering.buckets]
        for a, b in star_triangle_dag.directed_edges:
            assert seq.index(a) < seq.index(b)

    def test_subset_keeps_relative_order(self, nine_buckets):
        ordering = pco(["N", "B", "C", "R"], nine_buckets)
        assert ordering.buckets == (
            frozenset({"B", "C"}),
            frozenset({"R"}),
            frozenset({"N"}),
        )

    def test_unknown_node_rejected(self, nine_buckets):
        with pytest.raises(GraphError, match="unknown vertex"):
            pco(["A", "ZZ"], nine_buckets)

    def test_ordering_respects_directed_edges(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            _, _, g = random_mpdag(rng)
            ordering = pco(g.names, g)
            assert set(ordering.buckets) == set(bucket_decomposition(g, g.names))
            position = {v: k for k, b in enumerate(ordering.buckets) for v in b}
            for a, b in g.directed_edges:
                assert position[a] <= position[b]
            for a, b in g.undirected_edges:
                assert position[a] == position[b]


class TestIdentifiable:
    def test_star_triangle_sensitive(self, star_triangle):
        assert is_identifiable(star_triangle, ["A"])

    def test_single_undirected_edge(self):
        assert not is_identifiable(parse_graph("A -- X"), ["A"])

    def test_nine_buckets_pair(self, nine_buckets):
        assert is_identifiable(nine_buckets, ["A", "E"])

    def test_undirected_inside_set_is_fine(self, nine_buckets):
        # A -- E lies inside the intervened set and does not hurt
        assert is_identifiable(nine_buckets, ["A", "E"])
        assert not is_identifiable(nine_buckets, ["A"])

    def test_is_perkovic_criterion_on_augmented_graph(self):
        rng = np.random.default_rng(37)
        fired = 0
        for _ in range(200):
            _, _, g = random_mpdag(rng)
            s = [v for v in g.names if rng.random() < 0.4]
            path = exists_proper_possibly_causal_path_starting_undirected(
                augment_with_prediction(g), s, ["Yhat"]
            )
            assert is_identifiable(g, s) == (not path)
            fired += path
        assert fired > 0


def formula_of(g, intervened):
    return identification_formula(g, intervened, pco(g.names, g))


class TestIdentificationFormula:
    def test_nine_buckets_golden_text(self, nine_buckets):
        f = formula_of(nine_buckets, ["A", "E"])
        assert f.as_text() == "f(n|a,m,l,r) f(r|e) f(d|b,e) f(m,l) f(b,c)"
        assert f.fixed == ("A", "E")
        assert set(f.integrated_out) == set("BCDMLRN")

    def test_star_triangle_single_factor(self, star_triangle):
        f = formula_of(star_triangle, ["A"])
        assert f.factors == ((("X1", "X2", "X3"), ("A",)),)
        assert f.as_text() == "f(x1,x2,x3|a)"

    def test_intervening_everything_leaves_no_factors(self, nine_buckets):
        f = formula_of(nine_buckets, nine_buckets.names)
        assert f.factors == () and f.integrated_out == ()

    def test_not_identifiable_raises(self):
        with pytest.raises(NotIdentifiableError):
            formula_of(parse_graph("A -- X"), ["A"])

    def test_partial_ordering_rejected(self, nine_buckets):
        with pytest.raises(GraphError, match="every vertex"):
            identification_formula(nine_buckets, ["A", "E"], pco(["A", "E"], nine_buckets))

    def test_conditioning_matches_graph_parents(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            _, _, g = random_mpdag(rng)
            s = [g.names[0]]
            if not is_identifiable(g, s):
                continue
            f = formula_of(g, s)
            for bucket, conditioning in f.factors:
                assert conditioning == parents(g, bucket)


class TestEnumerateValidOrientations:
    def test_single_edge_two_candidates(self):
        g = parse_graph("A -- X")
        got = enumerate_valid_orientations(g, ["A"])
        assert {c.directed_edges for c in got} == {(("A", "X"),), (("X", "A"),)}

    def test_identifiable_input_rejected(self, star_triangle):
        with pytest.raises(GraphError, match="already identifiable"):
            enumerate_valid_orientations(star_triangle, ["A"])

    def test_chain_neighborhood_three_candidates(self):
        # X - A - W with X, W nonadjacent: the double-collider orientation fails
        g = parse_graph("X -- A\nA -- W")
        got = enumerate_valid_orientations(g, ["A"])
        assert len(got) == 3
        assert all(is_identifiable(c, ["A"]) for c in got)

    def test_triangle_neighborhood_four_candidates(self):
        # orienting only the two intervened-incident edges of the triangle:
        # four assignments, all consistent, two leave X - W open
        g = parse_graph("A -- X\nA -- W\nX -- W")
        got = enumerate_valid_orientations(g, ["A"])
        assert len(got) == 4
        assert all(is_identifiable(c, ["A"]) for c in got)
        undirected_left = sorted(len(c.undirected_edges) for c in got)
        assert undirected_left == [0, 0, 1, 1]

    def test_candidate_classes_partition_the_class(self):
        # every member DAG of g belongs to exactly one candidate's class
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(60):
            _, _, g = random_mpdag(rng, max_n=7)
            s = [g.names[int(rng.integers(g.n))]]
            if is_identifiable(g, s):
                continue
            candidates = enumerate_valid_orientations(g, s)
            members = {d for d in naive_extensions(g)}
            covered = []
            for c in candidates:
                covered.extend(naive_extensions(c))
            assert len(covered) == len(set(covered)), "candidate classes overlap"
            assert set(covered) == members
            checked += 1
        assert checked >= 20


class TestEnumerateDagsInClass:
    def test_single_undirected_edge(self):
        got = enumerate_dags_in_class(parse_graph("X -- Y"))
        assert {d.directed_edges for d in got} == {(("X", "Y"),), (("Y", "X"),)}

    def test_chain_excludes_new_collider(self):
        got = enumerate_dags_in_class(parse_graph("X -- Y\nY -- Z"))
        assert len(got) == 3
        forbidden = {("X", "Y"), ("Z", "Y")}
        assert not any(forbidden <= set(d.directed_edges) for d in got)

    def test_star_triangle_six_members(self, star_triangle):
        assert len(enumerate_dags_in_class(star_triangle)) == 6

    def test_guard_on_large_graphs(self):
        names = [f"V{i}" for i in range(13)]
        with pytest.raises(GraphError, match="guard"):
            enumerate_dags_in_class(Pdag(names))

    def test_matches_naive_orientation_filter(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            _, _, g = random_mpdag(rng, max_n=7)
            assert set(enumerate_dags_in_class(g)) == set(naive_extensions(g))


class TestIdentificationUniqueness:
    def test_identifiable_members_share_do_means(self, star_triangle):
        rng = np.random.default_rng(47)
        members = enumerate_dags_in_class(star_triangle)
        weights = pair_weights(star_triangle, rng)
        sigma = population_cov(members[0], weights)
        rows = [population_do_means(m, sigma, {"A": 1.0}) for m in members]
        for v in star_triangle.names:
            values = [r[v] for r in rows]
            assert max(values) - min(values) < 1e-9

    def test_non_identifiable_members_differ(self):
        g = parse_graph("A -- X")
        members = enumerate_dags_in_class(g)
        sigma = population_cov(members[0], {("A", "X"): 0.5})
        values = sorted(
            population_do_means(m, sigma, {"A": 1.0})["X"] for m in members
        )
        assert values[1] - values[0] >= 0.1
