import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fairmpdag import (
    Dataset,
    Pdag,
    Scm,
    definite_nondescendants,
    mmd2,
    median_bandwidth,
    parse_graph,
    random_er_dag,
    random_linear_scm,
    random_nonlinear_scm,
    sample_interventional_truth,
    sample_observational,
)
from fairmpdag.scm_lab import MECHANISMS, SPLIT_82, SPLIT_811, child_rng, sigmoid, split_rows

from .oracles import (
    listed_er_dag,
    masked_subset,
    permutation_null_quantile,
    split_tags,
    two_branch_sample,
)


# identity mechanisms for the two-vertex graph A -> X
LINEAR = {"A": ("linear",), "X": ("linear",)}


def two_vertex_scm(beta=0.5):
    dag = parse_graph("A -> X")
    return Scm(
        dag=dag,
        weights={("A", "X"): beta},
        mechanism=LINEAR,
        sensitive="A",
        sensitive_levels=2,
        outcome="X",
    )


class TestRandomErDag:
    def test_counts_and_acyclicity(self):
        g = random_er_dag(5, 8, seed=1)
        assert g.n == 5 and len(g.directed_edges) == 8 and g.is_dag()

    def test_two_vertices_single_edge(self):
        g = random_er_dag(2, 1, seed=2)
        assert len(g.directed_edges) == 1

    def test_complete_triangle(self):
        g = random_er_dag(3, 3, seed=3)
        assert len(g.directed_edges) == 3 and g.is_dag()

    def test_infeasible_edge_count(self):
        with pytest.raises(ValueError, match="cannot place"):
            random_er_dag(4, 7, seed=4)

    def test_seed_determinism(self):
        assert random_er_dag(6, 9, seed=5) == random_er_dag(6, 9, seed=5)
        assert random_er_dag(6, 9, seed=5) != random_er_dag(6, 9, seed=6)

    @given(st.integers(0, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_same_graphs_as_listing_every_pair(self, d, seed):
        for s in range(d * (d - 1) // 2 + 1):
            assert random_er_dag(d, s, seed) == listed_er_dag(d, s, seed)

    def test_few_edges_on_many_vertices_list_no_pairs(self):
        # listing all 1,999,000 pairs of d = 2000 as tuples peaks above 200 MiB;
        # the graph's own n x n mark matrices take 4 MB each
        tracemalloc.start()
        try:
            g = random_er_dag(2000, 3, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.directed_edges) == 3
        assert peak < 48 * 2**20


class TestRandomScm:
    def test_weight_magnitudes(self):
        for seed in range(5):
            scm = random_linear_scm(random_er_dag(8, 14, seed), seed=seed)
            assert all(0.1 <= abs(b) <= 1.0 for b in scm.weights.values())

    def test_seed_determinism(self):
        dag = random_er_dag(7, 11, seed=9)
        a = random_linear_scm(dag, seed=1)
        b = random_linear_scm(dag, seed=1)
        assert a.weights == b.weights and a.sensitive == b.sensitive

    def test_designations(self):
        for seed in range(8):
            scm = random_linear_scm(random_er_dag(6, 8, seed), seed=seed)
            assert scm.outcome != scm.sensitive
            assert not scm.dag.parents_of(scm.sensitive)
            assert not scm.dag.children_of(scm.outcome)
            assert scm.sensitive_levels in (2, 3)

    def test_nonlinear_mechanism_tags(self):
        scm = random_nonlinear_scm(random_er_dag(8, 12, seed=3), seed=3)
        for tags in scm.mechanism.values():
            assert 1 <= len(tags) <= 2
            assert all(t in MECHANISMS for t in tags)

    def test_validation_rejects_bad_weight(self):
        dag = parse_graph("A -> X")
        with pytest.raises(ValueError, match="outside"):
            Scm(dag, {("A", "X"): 0.01}, LINEAR, "A", 2, "X")

    @pytest.mark.parametrize(
        "mechanism, message",
        [
            ({"A": ("linear",), "X": ("relu",)}, "bad mechanism"),
            ({"A": ("linear",), "X": ("sin", "cos", "tanh")}, "bad mechanism"),
            ({"X": ("linear",)}, "mechanism must be keyed"),
        ],
    )
    def test_validation_rejects_bad_tables(self, mechanism, message):
        dag = parse_graph("A -> X")
        with pytest.raises(ValueError, match=message):
            Scm(dag, {("A", "X"): 0.5}, mechanism, "A", 2, "X")


class TestSampling:
    def test_analytic_group_difference(self):
        scm = two_vertex_scm(beta=0.5)
        data = sample_observational(scm, 4000, seed=11)
        a, x = data.columns["A"], data.columns["X"]
        diff = x[a == 1].mean() - x[a == 0].mean()
        assert abs(diff - 0.5) < 0.15

    def test_clt_residual(self):
        scm = two_vertex_scm(beta=0.5)
        n = 4000
        data = sample_observational(scm, n, seed=13)
        resid = data.columns["X"] - 0.5 * data.columns["A"]
        assert abs(resid.mean()) < 3 / np.sqrt(n)

    def test_split_sizes(self):
        scm = two_vertex_scm()
        data = sample_observational(scm, 1000, seed=17)
        assert data.subset("train").n == 800
        assert data.subset("val").n == 100
        assert data.subset("test").n == 100

    def test_sensitive_levels_uniformish(self):
        dag = parse_graph("A -> X")
        scm = Scm(dag, {("A", "X"): 0.5}, LINEAR, "A", 3, "X")
        data = sample_observational(scm, 3000, seed=23)
        counts = np.bincount(data.columns["A"].astype(int), minlength=3)
        assert counts.min() > 800

    def test_seeded_bit_determinism(self):
        scm = two_vertex_scm()
        a = sample_observational(scm, 64, seed=29)
        b = sample_observational(scm, 64, seed=29)
        assert all(np.array_equal(a.columns[k], b.columns[k]) for k in a.columns)


class TestInterventionalTruth:
    def test_do_shifts_child_mean(self):
        scm = two_vertex_scm(beta=0.5)
        data = sample_interventional_truth(scm, {"A": 1.0}, 4000, seed=31)
        assert np.all(data.columns["A"] == 1.0)
        assert abs(data.columns["X"].mean() - 0.5) < 0.1

    def test_protocol_sizes(self):
        scm = two_vertex_scm()
        data = sample_interventional_truth(scm, {"A": 0.0}, 1000, seed=37)
        assert data.n == 1000 and data.split == (("test", 1000),)

    def test_sink_intervention_leaves_other_marginals(self):
        scm = two_vertex_scm(beta=0.5)
        done = sample_interventional_truth(scm, {"X": 2.0}, 1500, seed=41)
        obs = sample_observational(scm, 1500, seed=43)
        # A is upstream of the clamp; its distribution must not move
        assert abs(done.columns["A"].mean() - obs.columns["A"].mean()) < 0.06

    def test_unknown_vertex_rejected(self):
        with pytest.raises(Exception):
            sample_interventional_truth(two_vertex_scm(), {"Q": 1.0}, 10, seed=1)

    def test_nondescendant_distribution_invariant_under_do(self):
        # W a definite non-descendant of A: clamping A must leave W alone
        rng = np.random.default_rng(47)
        dag = random_er_dag(6, 9, seed=53)
        scm = random_linear_scm(dag, seed=53)
        from fairmpdag import cpdag_from_dag, construct_mpdag

        observed = [v for v in scm.dag.names if v != scm.outcome]
        sub = scm.dag.induced_subgraph(observed)
        mpdag = construct_mpdag(
            cpdag_from_dag(sub),
            [
                (a, b) if sub.has_directed(a, b) else (b, a)
                for a, b in cpdag_from_dag(sub).undirected_edges
            ],
        )
        dnd = [v for v in definite_nondescendants(mpdag, scm.sensitive)]
        if not dnd:
            pytest.skip("sensitive vertex dominates this draw")
        w = dnd[0]
        obs = sample_observational(scm, 1200, seed=59)
        done = sample_interventional_truth(scm, {scm.sensitive: 1.0}, 1200, seed=61)
        pooled = np.concatenate([obs.columns[w], done.columns[w]])
        sigma = median_bandwidth(pooled)
        stat = mmd2(obs.columns[w], done.columns[w], sigma)
        null95 = permutation_null_quantile(
            obs.columns[w], done.columns[w], n_permutations=200, seed=67
        )
        assert stat < null95


class TestNonlinearSampling:
    def test_outputs_finite(self):
        for seed in range(4):
            scm = random_nonlinear_scm(random_er_dag(8, 14, seed), seed=seed)
            data = sample_observational(scm, 500, seed=seed)
            for col in data.columns.values():
                assert np.isfinite(col).all()

    def test_bounded_mechanisms_bounded_output(self):
        dag = parse_graph("A -> X")
        mechanism = {"A": ("linear",), "X": ("tanh",)}
        scm = Scm(dag, {("A", "X"): 1.0}, mechanism, "A", 2, "X")
        data = sample_observational(scm, 400, seed=71)
        assert np.all(np.abs(data.columns["X"]) <= 1.0)

    def test_composite_mechanism_applies_in_order(self):
        dag = parse_graph("A -> X")
        mechanism = {"A": ("linear",), "X": ("sigmoid", "sin")}
        scm = Scm(dag, {("A", "X"): 1.0}, mechanism, "A", 2, "X")
        data = sample_observational(scm, 400, seed=73)
        # sin of a sigmoid stays within sin([0, 1])
        assert np.all(data.columns["X"] >= 0.0)
        assert np.all(data.columns["X"] <= np.sin(1.0) + 1e-12)


class TestSigmoid:
    def test_within_two_ulp_of_scipy_expit(self):
        # expit is the same formula over the C library's exp; numpy's exp is
        # within 1 ulp of that, which the sum and the reciprocal can make 2
        rng = np.random.default_rng(79)
        for scale in (1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4):
            x = scale * rng.standard_normal(20_000)
            got, want = sigmoid(x), expit(x)
            # both lie in [0, 1], where adjacent doubles have adjacent bit patterns
            ulps = np.abs(got.view(np.int64) - want.view(np.int64))
            assert ulps.max() <= 2, scale

    def test_equals_scipy_expit_at_special_values(self):
        x = np.array([0.0, np.inf, -np.inf, np.nan, -1000.0])
        np.testing.assert_array_equal(sigmoid(x), expit(x))
        assert sigmoid(-1000.0) == 0.0 and sigmoid(0.0) == 0.5

    def test_no_overflow_warning_far_below_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(-1000.0) == 0.0
            assert sigmoid(np.full(3, -1000.0)).tolist() == [0.0, 0.0, 0.0]


MAKERS = {"linear": random_linear_scm, "nonlinear": random_nonlinear_scm}


@given(
    kind=st.sampled_from(sorted(MAKERS)),
    d=st.integers(2, 8),
    edge_share=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
    extra_clamp=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_samples_bit_identical_to_two_branch_reference(kind, d, edge_share, seed, extra_clamp):
    dag = random_er_dag(d, round(edge_share * (d * (d - 1) // 2)), seed)
    scm = MAKERS[kind](dag, seed)
    n = 40
    pairs = [(sample_observational(scm, n, seed), child_rng(seed, 3), {})]
    clamp = {scm.sensitive: float(scm.sensitive_levels - 1)}
    if extra_clamp:
        clamp[scm.dag.topological_order()[-1]] = 0.7
    done = sample_interventional_truth(scm, clamp, n, seed)
    pairs.append((done, child_rng(seed, 4), clamp))
    for data, rng, assigned in pairs:
        expected = two_branch_sample(scm, kind, n, rng, assigned)
        for v in scm.dag.names:
            assert data.columns[v].tobytes() == expected[v].tobytes(), v


# each split scheme with the smallest n that leaves none of its runs empty
SCHEMES = {SPLIT_811: 10, SPLIT_82: 5, (("test", 1),): 1}


class TestDataset:
    def test_split_rows_82(self):
        assert split_rows(1000, SPLIT_82) == (("train", 800), ("val", 200))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(SCHEMES)), st.data())
    def test_runs_match_per_row_tags(self, scheme, draw):
        n = draw.draw(st.integers(SCHEMES[scheme], 20_000), label="n")
        tags = split_tags(n, scheme)
        runs = split_rows(n, scheme)
        assert [t for t, _ in runs] == [t for t, _ in scheme]
        assert np.array_equal(np.repeat([t for t, _ in runs], [c for _, c in runs]), tags)
        rng = np.random.default_rng(n)
        columns = {"a": rng.standard_normal(n), "b": rng.integers(0, 3, n).astype(float)}
        data = Dataset(columns, runs)
        for tag, _ in scheme:
            got, want = data.subset(tag), masked_subset(columns, tags, tag)
            assert got.split == ((tag, len(want["a"])),) and got.n > 0
            for name, col in want.items():
                assert got.columns[name].tobytes() == col.tobytes()
                assert np.shares_memory(got.columns[name], columns[name])

    def test_repeated_tag_rejected(self):
        with pytest.raises(ValueError, match="^split 'train' appears more than once$"):
            Dataset({"a": np.zeros(4)}, (("train", 2), ("val", 0), ("train", 2)))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="^split 'val' has a negative row count -1$"):
            Dataset({"a": np.zeros(3)}, (("train", 4), ("val", -1)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^column 'a' has 3 rows; the split sums to 4$"):
            Dataset({"a": np.zeros(3)}, (("train", 4),))

    def test_absent_tag_rejected(self):
        data = Dataset({"a": np.zeros(3)}, (("train", 2), ("val", 1)))
        with pytest.raises(ValueError, match=r"^no split 'test' among \['train', 'val'\]$"):
            data.subset("test")

    def test_empty_run_gives_empty_subset(self):
        data = Dataset({"a": np.arange(9.0)}, split_rows(9, SPLIT_811))
        assert data.split == (("train", 9), ("val", 0), ("test", 0))
        assert data.subset("val").n == 0 and len(data.subset("test").columns["a"]) == 0

    def test_matrix_column_order(self):
        d = Dataset(
            {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, (("train", 2),)
        )
        assert np.array_equal(d.matrix(["b", "a"]), np.array([[3.0, 1.0], [4.0, 2.0]]))

    def test_matrix_of_no_columns_keeps_rows(self):
        d = Dataset({"a": np.array([1.0, 2.0])}, (("train", 1), ("val", 1)))
        assert d.matrix(()).shape == (2, 0)
