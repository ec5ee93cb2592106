import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmpdag import (
    BackgroundKnowledgeConflict,
    DirectedCycleError,
    GraphError,
    Pdag,
    augment_with_prediction,
    construct_mpdag,
    cpdag_from_dag,
    meek_closure,
    parse_background_knowledge,
    parse_graph,
    pattern_of_dag,
    random_er_dag,
)
from fairmpdag.meek_engine import (
    _closure_arrays,
    _fires_r1,
    _fires_r2,
    _fires_r3,
    _fires_r4,
    check_mpdag,
)

from .conftest import BK_DEMO_KNOWLEDGE
from .oracles import (
    all_dags,
    class_key,
    collider_pattern,
    full_round_closure_arrays,
    full_round_construct_mpdag,
    naive_extensions,
    random_mpdag,
    sequential_meek_closure,
    union_graph,
)


def fired(matcher, g: Pdag) -> set[tuple[str, str]]:
    """The orientations ``tail -> head`` that one rule matcher fires on ``g``."""
    fire = matcher(g.directed_mask, g.undirected_mask, g.adjacency_mask, new=g.directed_mask)
    return {(g.names[i], g.names[j]) for i, j in np.argwhere(fire)}


R1_TO_R3 = [_fires_r1, _fires_r2, _fires_r3]


class TestMeekClosure:
    def test_r1_orients_away_from_arrowhead(self):
        g = parse_graph("X -> Y\nY -- Z")
        assert fired(_fires_r1, g) == {("Y", "Z")}
        assert meek_closure(g) == parse_graph("X -> Y\nY -> Z")

    def test_r2_prevents_cycle(self):
        g = parse_graph("X -> Y\nY -> Z\nX -- Z")
        assert fired(_fires_r2, g) == {("X", "Z")}
        assert meek_closure(g) == parse_graph("X -> Y\nY -> Z\nX -> Z")

    def test_r3_two_nonadjacent_chains(self):
        g = parse_graph("A -- B\nA -- C\nA -- D\nC -> B\nD -> B")
        assert fired(_fires_r3, g) == {("A", "B")}
        closed = meek_closure(g)
        assert closed.has_directed("A", "B")
        assert set(closed.undirected_edges) == {("A", "C"), ("A", "D")}

    @pytest.mark.parametrize("witnesses", [255, 256, 257])
    def test_r1_counts_every_witness(self, witnesses):
        # A0..Ak -> B, B -- C: a witness count that wrapped at 256 left B -- C
        parents = [f"A{i}" for i in range(witnesses)]
        g = Pdag(parents + ["B", "C"], directed=[(a, "B") for a in parents],
                 undirected=[("B", "C")])
        assert meek_closure(g).has_directed("B", "C")

    @pytest.mark.parametrize("witnesses", [255, 256])
    def test_r2_counts_every_witness(self, witnesses):
        # A -> Ci -> B for each i, A -- B: a wrapped count left A -- B
        mids = [f"C{i}" for i in range(witnesses)]
        directed = [("A", c) for c in mids] + [(c, "B") for c in mids]
        g = Pdag(["A", "B"] + mids, directed=directed, undirected=[("A", "B")])
        assert fired(_fires_r2, g) == {("A", "B")}
        assert meek_closure(g).has_directed("A", "B")

    def test_r4_chain_with_adjacent_anchor(self):
        g = parse_graph("A -- B\nA -- C\nC -> D\nD -> B\nA -- D")
        assert fired(_fires_r4, g) == {("A", "B")}
        closed = meek_closure(g)
        assert closed.has_directed("A", "B")

    def test_r4_requires_anchor_adjacency(self):
        # not a closed pattern (R1 would orient B -> A and then a cycle), so
        # only the R4 matcher is asked
        g = parse_graph("A -- B\nA -- C\nC -> D\nD -> B")
        assert fired(_fires_r4, g) == set()

    def test_fixpoint_without_match(self, star_triangle):
        assert meek_closure(star_triangle) == star_triangle

    def test_skeleton_preserved_and_directed_grow(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dag = random_er_dag(6, 8, int(rng.integers(2**32)))
            g = pattern_of_dag(dag)
            closed = meek_closure(g)
            assert set(closed.directed_edges) >= set(g.directed_edges)
            assert {tuple(sorted(e)) for e in closed.directed_edges} | set(
                closed.undirected_edges
            ) == {tuple(sorted(e)) for e in g.directed_edges} | set(g.undirected_edges)

    def test_order_invariance_under_shuffles(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            dag = random_er_dag(7, 10, int(rng.integers(2**32)))
            g = pattern_of_dag(dag)
            batch = meek_closure(g)
            for _ in range(20):
                assert sequential_meek_closure(g, R1_TO_R3, rng) == batch


@st.composite
def er_dags(draw, max_d=12):
    d = draw(st.integers(2, max_d))
    s = draw(st.integers(0, d * (d - 1) // 2))
    return random_er_dag(d, s, draw(st.integers(0, 2**32 - 1)))


@given(er_dags(max_d=25))
@example(random_er_dag(25, 0, seed=1))
@example(random_er_dag(25, 300, seed=1))  # complete
@settings(max_examples=100, deadline=None)
def test_pattern_keeps_exactly_the_collider_edges(dag):
    assert pattern_of_dag(dag) == collider_pattern(dag)


@given(er_dags(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_r4_never_fires_on_a_cpdag(dag, seed):
    # Meek (1995): R4 is not needed to close a pattern, so the one closure
    # that also runs R4 gives the R1-R3 CPDAG
    cpdag = cpdag_from_dag(dag)
    assert fired(_fires_r4, cpdag) == set()
    rng = np.random.default_rng(seed)
    assert sequential_meek_closure(pattern_of_dag(dag), R1_TO_R3, rng) == cpdag


class TestPatternAndCpdag:
    def test_collider_preserved(self):
        d = parse_graph("X -> Z\nY -> Z")
        assert pattern_of_dag(d) == d
        assert cpdag_from_dag(d) == d

    def test_chain_fully_undirected(self):
        d = parse_graph("X -> Y\nY -> Z")
        assert pattern_of_dag(d) == parse_graph("X -- Y\nY -- Z")
        assert cpdag_from_dag(d) == parse_graph("X -- Y\nY -- Z")

    def test_pattern_rejects_pdag(self):
        with pytest.raises(GraphError, match="fully directed"):
            pattern_of_dag(parse_graph("A -- B"))

    def test_bk_demo_cpdag(self, bk_demo_dag):
        c = cpdag_from_dag(bk_demo_dag)
        assert set(c.undirected_edges) == {
            ("A", "B"), ("A", "C"), ("A", "D"), ("A", "N"), ("B", "F"), ("C", "N"),
        }
        assert set(c.directed_edges) == {
            ("A", "L"), ("B", "M"), ("C", "L"), ("C", "M"), ("E", "L"), ("F", "L"),
        }

    def test_matches_equivalence_class_union_on_small_dags(self):
        groups = {}
        for d in all_dags(4):
            groups.setdefault(class_key(d), []).append(d)
        for members in groups.values():
            expected = union_graph(members)
            for d in members:
                assert cpdag_from_dag(d) == expected


class TestConstructMpdag:
    def test_single_statement_plus_r1(self):
        g = parse_graph("X -- Y\nY -- Z")
        assert construct_mpdag(g, [("X", "Y")]) == parse_graph("X -> Y\nY -> Z")

    def test_bk_demo_mpdag(self, bk_demo_dag):
        c = cpdag_from_dag(bk_demo_dag)
        g = construct_mpdag(c, BK_DEMO_KNOWLEDGE)
        assert g.undirected_edges == (("C", "N"),)
        assert set(g.directed_edges) == set(bk_demo_dag.directed_edges) - {("C", "N")}

    def test_reversed_statement_fails(self):
        with pytest.raises(BackgroundKnowledgeConflict, match="other way"):
            construct_mpdag(parse_graph("X -> Y"), [("Y", "X")])

    def test_absent_edge_fails(self):
        with pytest.raises(BackgroundKnowledgeConflict, match="not present"):
            construct_mpdag(parse_graph("X -- Y\nnode Z"), [("X", "Z")])

    def test_contradictory_statements_fail(self):
        with pytest.raises(BackgroundKnowledgeConflict):
            construct_mpdag(parse_graph("X -- Y"), [("X", "Y"), ("Y", "X")])

    def test_empty_background_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = cpdag_from_dag(random_er_dag(6, 7, int(rng.integers(2**32))))
            assert construct_mpdag(c, ()) == c

    def test_matches_constrained_class_union(self):
        # The MPDAG must orient exactly the edges all background-consistent
        # members agree on; this exercises R4, which CPDAG closure never needs.
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = int(rng.integers(4, 8))
            s = int(rng.integers(3, d * (d - 1) // 2 + 1))
            dag = random_er_dag(d, s, int(rng.integers(2**32)))
            cpdag = cpdag_from_dag(dag)
            members = naive_extensions(cpdag)
            assert dag in members
            bk = [
                (a, b) if dag.has_directed(a, b) else (b, a)
                for a, b in cpdag.undirected_edges
                if rng.random() < 0.5
            ]
            consistent = [
                d for d in members if all(d.has_directed(*stmt) for stmt in bk)
            ]
            expected = union_graph(consistent)
            assert construct_mpdag(cpdag, bk) == expected


class TestAugment:
    def test_star_triangle_augmented(self, star_triangle):
        g = augment_with_prediction(star_triangle, "Yhat")
        assert g.names[-1] == "Yhat"
        assert set(g.parents_of("Yhat")) == set(star_triangle.names)
        assert g.induced_subgraph(star_triangle.names) == star_triangle

    def test_single_vertex(self):
        g = augment_with_prediction(Pdag(("V",)), "Yhat")
        assert g.directed_edges == (("V", "Yhat"),)

    def test_nine_buckets_augmented(self, nine_buckets):
        g = augment_with_prediction(nine_buckets, "Yhat")
        assert len(g.directed_edges) == len(nine_buckets.directed_edges) + 9
        assert g.undirected_edges == nine_buckets.undirected_edges

    def test_name_clash(self, star_triangle):
        with pytest.raises(GraphError, match="already present"):
            augment_with_prediction(star_triangle, "A")

    def test_augment_commutes_with_orientation(self):
        # augment-then-orient equals orient-then-augment, exactly
        rng = np.random.default_rng(23)
        for _ in range(60):
            d = int(rng.integers(3, 11))
            s = int(rng.integers(1, d * (d - 1) // 2 + 1))
            dag = random_er_dag(d, s, int(rng.integers(2**32)))
            cpdag = cpdag_from_dag(dag)
            bk = [
                (a, b) if dag.has_directed(a, b) else (b, a)
                for a, b in cpdag.undirected_edges
                if rng.random() < 0.5
            ]
            left = augment_with_prediction(construct_mpdag(cpdag, bk))
            bk_star = list(bk) + [(v, "Yhat") for v in dag.names]
            right = construct_mpdag(
                cpdag_from_dag(augment_with_prediction(dag)), bk_star
            )
            assert left == right


def test_parse_background_knowledge():
    assert parse_background_knowledge("# c\nA -> B\n\nC -> D # x\n") == (
        ("A", "B"),
        ("C", "D"),
    )
    from fairmpdag import GraphParseError

    with pytest.raises(GraphParseError, match="^expected 'NAME -> NAME'") as exc:
        parse_background_knowledge("# c\nA -- B")
    assert exc.value.line == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_closure_idempotent_and_keeps_skeleton(seed):
    # a random MPDAG with some further true orientations added, not closed
    rng = np.random.default_rng(seed)
    dag, _, g = random_mpdag(rng)
    extra = [e for e in g.undirected_edges if rng.random() < 0.5]
    directed = list(g.directed_edges) + [
        (a, b) if dag.has_directed(a, b) else (b, a) for a, b in extra
    ]
    undirected = sorted(set(g.undirected_edges) - set(extra))
    partial = Pdag(g.names, directed=directed, undirected=undirected)
    closed = meek_closure(partial)
    assert meek_closure(closed) == closed
    assert closed.names == partial.names
    assert np.array_equal(closed.adjacency_mask, partial.adjacency_mask)
    assert set(closed.directed_edges) >= set(partial.directed_edges)


def true_statements(dag, edges, rng, share=0.5):
    """The true orientation of each of ``edges`` kept with probability ``share``."""
    return [(a, b) if dag.has_directed(a, b) else (b, a) for a, b in edges if rng.random() < share]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_mpdag_does_not_depend_on_statement_order(seed):
    # the same true statements, shuffled, repeated, or split into two
    # batches applied one after the other, give the same MPDAG
    rng = np.random.default_rng(seed)
    dag, cpdag, _ = random_mpdag(rng)
    bk = true_statements(dag, cpdag.undirected_edges, rng)
    want = construct_mpdag(cpdag, bk)
    shuffled = [bk[i] for i in rng.permutation(len(bk))]
    assert construct_mpdag(cpdag, shuffled) == want
    assert construct_mpdag(cpdag, shuffled + bk[: len(bk) // 2]) == want
    cut = int(rng.integers(len(bk) + 1))
    assert construct_mpdag(construct_mpdag(cpdag, shuffled[:cut]), shuffled[cut:]) == want


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_augment_commutes_with_orientation_on_random_mpdags(seed):
    # further true statements on a random MPDAG: orienting then augmenting
    # equals augmenting then orienting, and equals the MPDAG of the augmented
    # DAG's CPDAG under every orientation the MPDAG holds plus v -> Yhat
    rng = np.random.default_rng(seed)
    dag, _, g = random_mpdag(rng)
    bk = true_statements(dag, g.undirected_edges, rng)
    left = augment_with_prediction(construct_mpdag(g, bk))
    assert construct_mpdag(augment_with_prediction(g), bk) == left
    stated = list(g.directed_edges) + bk + [(v, "Yhat") for v in dag.names]
    assert construct_mpdag(cpdag_from_dag(augment_with_prediction(dag)), stated) == left


def outcome(build, *args):
    """What ``build(*args)`` returns, or the type and message of its graph error."""
    try:
        return build(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def closed_by(closure, g: Pdag, *new):
    return lambda: Pdag.from_arrays(
        g.names, *closure(g.directed_mask.copy(), g.undirected_mask.copy(), *new)
    )


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["cpdag", "pattern", "skeleton"]),
    st.sampled_from([0.0, 0.1, 0.3]),
)
@settings(max_examples=300, deadline=None)
def test_closure_matches_the_full_round_oracle(seed, kind, reversed_share):
    # each round looks only where the round before oriented an edge (the
    # first treats every directed edge as new), and a statement's closure
    # only from its edge; the oracle looks everywhere every round. Inputs:
    # CPDAGs, unclosed patterns and undirected skeletons, with true
    # statements on a share of the adjacent pairs, some of them reversed
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 16))
    s = int(rng.integers(d - 1, min(3 * d, d * (d - 1) // 2) + 1))
    dag = random_er_dag(d, s, int(rng.integers(2**32)))
    if kind == "cpdag":
        g = cpdag_from_dag(dag)
    elif kind == "pattern":
        g = pattern_of_dag(dag)
    else:
        g = Pdag(dag.names, undirected=dag.directed_edges)
    bk = true_statements(dag, dag.directed_edges, rng, share=rng.uniform(0.2, 0.8))
    bk = [(b, a) if rng.random() < reversed_share else (a, b) for a, b in bk]
    assert outcome(construct_mpdag, g, bk) == outcome(full_round_construct_mpdag, g, bk)
    delta = closed_by(_closure_arrays, g, g.directed_mask)
    assert outcome(delta) == outcome(closed_by(full_round_closure_arrays, g))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_check_mpdag_accepts_cpdags_and_mpdags(seed):
    dag, cpdag, mpdag = random_mpdag(np.random.default_rng(seed))
    for g in (dag, cpdag, mpdag):
        assert check_mpdag(g) is g


def random_pdag(rng, max_n=6):
    """An acyclic PDAG on 2-``max_n`` vertices with a random share of adjacent
    pairs, of which a random share is directed; not closed in general."""
    names = [f"V{i}" for i in range(int(rng.integers(2, max_n + 1)))]
    p_edge, p_directed = rng.uniform(0.3, 0.7), rng.uniform(0.0, 0.5)
    while True:
        directed, undirected = [], []
        for a, b in itertools.combinations(names, 2):
            if rng.random() >= p_edge:
                continue
            if rng.random() < p_directed:
                directed.append((a, b) if rng.random() < 0.5 else (b, a))
            else:
                undirected.append((a, b))
        try:
            return Pdag(names, directed=directed, undirected=undirected)
        except DirectedCycleError:
            continue


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_check_mpdag_rejects_exactly_unclosed_or_unextendable(seed):
    # small random PDAGs: rejected exactly when the closure orients an edge
    # (or fails) or no DAG extends the graph, by exhaustive orientation; about
    # 6 % of the draws are closed and have no extension
    g = random_pdag(np.random.default_rng(seed))
    try:
        closed = meek_closure(g) == g
    except GraphError:
        closed = False
    mpdag = closed and bool(naive_extensions(g))
    try:
        check_mpdag(g)
    except GraphError as exc:
        assert not mpdag
        assert str(exc).startswith("no consistent extension" if closed else "not closed")
    else:
        assert mpdag
