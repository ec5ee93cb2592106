import numpy as np
import pytest

from fairmpdag import (
    Dataset,
    LinearScm,
    NonlinearScm,
    Pdag,
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
from fairmpdag.scm_lab import MECHANISMS, SPLIT_82, split_tags

from .oracles import permutation_null_quantile


def two_vertex_scm(beta=0.5, noise=1.0):
    dag = parse_graph("A -> X")
    return LinearScm(
        dag=dag,
        weights={("A", "X"): beta},
        noise_std={"A": 1.0, "X": noise},
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
            LinearScm(dag, {("A", "X"): 0.01}, {"A": 1.0, "X": 1.0}, "A", 2, "X")


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

    def test_noise_free_is_deterministic_map(self):
        scm = two_vertex_scm(beta=0.5, noise=0.0)
        data = sample_observational(scm, 100, seed=19)
        assert np.allclose(data.columns["X"], 0.5 * data.columns["A"])

    def test_sensitive_levels_uniformish(self):
        dag = parse_graph("A -> X")
        scm = LinearScm(dag, {("A", "X"): 0.5}, {"A": 1.0, "X": 1.0}, "A", 3, "X")
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
        assert data.n == 1000 and set(data.split) == {"test"}

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
        scm = NonlinearScm(dag, {"A": ("linear",), "X": ("tanh",)}, "A", 2, "X")
        data = sample_observational(scm, 400, seed=71)
        assert np.all(np.abs(data.columns["X"]) <= 1.0)

    def test_composite_mechanism_applies_in_order(self):
        dag = parse_graph("A -> X")
        scm = NonlinearScm(dag, {"A": ("linear",), "X": ("sigmoid", "sin")}, "A", 2, "X")
        data = sample_observational(scm, 400, seed=73)
        # sin of a sigmoid stays within sin([0, 1])
        assert np.all(data.columns["X"] >= 0.0)
        assert np.all(data.columns["X"] <= np.sin(1.0) + 1e-12)


class TestDataset:
    def test_split_tags_82(self):
        tags = split_tags(1000, SPLIT_82)
        assert (tags == "train").sum() == 800 and (tags == "val").sum() == 200

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset({"a": np.zeros(3)}, np.array(["train"] * 4))

    def test_matrix_column_order(self):
        d = Dataset(
            {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])},
            np.array(["train", "train"]),
        )
        assert np.array_equal(d.matrix(["b", "a"]), np.array([[3.0, 1.0], [4.0, 2.0]]))
