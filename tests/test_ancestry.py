import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmpdag import (
    AncestralRelation,
    ancestral_relations,
    critical_sets,
    cpdag_from_dag,
    construct_mpdag,
    definite_nondescendants,
    parse_graph,
)

from .conftest import BK_DEMO_KNOWLEDGE
from .oracles import (
    chordless_possibly_causal_first_steps,
    descendants,
    enumerate_dags_in_class,
    random_mpdag,
)


@pytest.fixture
def bk_demo_mpdag(bk_demo_dag):
    return construct_mpdag(cpdag_from_dag(bk_demo_dag), BK_DEMO_KNOWLEDGE)


class TestCriticalSets:
    def test_unique_causal_chain(self):
        g = parse_graph("A -> X\nX -> T")
        assert critical_sets(g, "A") == {"X": ("X",), "T": ("X",)}

    def test_no_path_gives_empty_set(self):
        g = parse_graph("A -> X\nnode T")
        assert critical_sets(g, "A")["T"] == ()

    def test_bk_demo_non_descendant(self, bk_demo_mpdag):
        assert critical_sets(bk_demo_mpdag, "A")["E"] == ()

    def test_adjacent_target(self):
        assert critical_sets(parse_graph("A -> X"), "A") == {"X": ("X",)}
        assert critical_sets(parse_graph("A -- X"), "A") == {"X": ("X",)}

    def test_source_is_not_a_key(self, star_triangle):
        relations = ancestral_relations(star_triangle, "A")
        assert "A" not in relations
        assert list(relations) == ["X1", "X2", "X3"]

    def test_subset_of_neighbors_and_matches_path_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(80):
            _, _, g = random_mpdag(rng, max_n=7)
            names = list(g.names)
            s, t = names[0], names[-1]
            got = set(critical_sets(g, s)[t])
            assert got <= {v for v in names if g.adjacent(s, v)}
            assert got == chordless_possibly_causal_first_steps(g, s, t)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_one_search_gives_every_targets_critical_set(seed):
    # the DAG, its CPDAG and an MPDAG between them, every ordered pair
    for g in random_mpdag(np.random.default_rng(seed)):
        for s in g.names:
            crit = critical_sets(g, s)
            assert list(crit) == [t for t in g.names if t != s]
            for t in crit:
                assert set(crit[t]) == chordless_possibly_causal_first_steps(g, s, t)
                assert crit[t] == g.sort_vertices(crit[t])


class TestAncestralRelation:
    def test_bk_demo_definite_non_descendant(self, bk_demo_mpdag):
        got = ancestral_relations(bk_demo_mpdag, "A")["E"]
        assert got is AncestralRelation.DEFINITE_NON_DESCENDANT

    def test_direct_arrow(self):
        got = ancestral_relations(parse_graph("A -> X"), "A")["X"]
        assert got is AncestralRelation.DEFINITE_DESCENDANT

    def test_single_undirected_edge_undecided(self):
        g = parse_graph("A -- X")
        assert ancestral_relations(g, "A")["X"] is AncestralRelation.POSSIBLE_DESCENDANT
        # cross-check against the two member DAGs
        members = enumerate_dags_in_class(g)
        verdicts = {"X" in descendants(d, "A") for d in members}
        assert verdicts == {True, False}

    def test_incomplete_critical_set_forces_descendance(self):
        # two undirected routes that cannot both point back without a collider
        g = parse_graph("A -- X\nA -- W\nX -> T\nW -> T")
        assert ancestral_relations(g, "A")["T"] is AncestralRelation.DEFINITE_DESCENDANT

    def test_matches_class_enumeration(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            _, _, g = random_mpdag(rng, max_n=7)
            members = enumerate_dags_in_class(g)
            for s in g.names:
                down = [descendants(d, s) for d in members]
                relations = ancestral_relations(g, s)
                assert list(relations) == [t for t in g.names if t != s]
                for t, got in relations.items():
                    flags = {t in d for d in down}
                    if flags == {True}:
                        expected = AncestralRelation.DEFINITE_DESCENDANT
                    elif flags == {False}:
                        expected = AncestralRelation.DEFINITE_NON_DESCENDANT
                    else:
                        expected = AncestralRelation.POSSIBLE_DESCENDANT
                    assert got is expected


class TestDefiniteNondescendants:
    def test_bk_demo(self, bk_demo_mpdag):
        assert definite_nondescendants(bk_demo_mpdag, "A") == ("E",)

    def test_star_triangle_everything_reachable(self, star_triangle):
        assert definite_nondescendants(star_triangle, "A") == ()

    def test_disconnected_vertex_included(self):
        g = parse_graph("A -> X\nnode W")
        assert definite_nondescendants(g, "A") == ("W",)

    def test_matches_ancestral_relation(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            _, _, g = random_mpdag(rng)
            s = g.names[int(rng.integers(g.n))]
            expected = tuple(
                t
                for t, kind in ancestral_relations(g, s).items()
                if kind is AncestralRelation.DEFINITE_NON_DESCENDANT
            )
            assert definite_nondescendants(g, s) == expected
