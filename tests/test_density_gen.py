import numpy as np
import pytest

from fairmpdag import (
    LinearScm,
    enumerate_valid_orientations,
    fit_bucket_conditionals,
    generate_interventional,
    identification_formula,
    models_from_json,
    models_to_json,
    parse_graph,
    pco,
    sample_interventional_truth,
    sample_observational,
)

from .oracles import permutation_null_quantile
from .test_scm_lab import two_vertex_scm


@pytest.fixture
def two_vertex_fit():
    scm = two_vertex_scm(beta=0.5)
    obs = sample_observational(scm, 1000, seed=101)
    g = scm.dag
    ordering = pco(g.names, g)
    models = fit_bucket_conditionals(obs, ordering, g)
    return scm, obs, g, models


class TestFit:
    def test_recovers_linear_coefficient(self, two_vertex_fit):
        _, _, _, models = two_vertex_fit
        by_bucket = {m.bucket: m for m in models}
        assert abs(by_bucket[("X",)].coef[0, 0] - 0.5) < 0.1

    def test_parentless_intercept_is_column_mean(self, two_vertex_fit):
        _, obs, _, models = two_vertex_fit
        by_bucket = {m.bucket: m for m in models}
        assert abs(by_bucket[("A",)].intercept[0] - obs.columns["A"].mean()) < 1e-12

    def test_star_triangle_bucket_shapes(self, star_triangle):
        rng = np.random.default_rng(5)
        n = 500
        a = rng.integers(0, 2, n).astype(float)
        cols = {"A": a}
        for k, name in enumerate(("X1", "X2", "X3")):
            cols[name] = 0.3 * a + rng.standard_normal(n) + 0.1 * k
        from fairmpdag.scm_lab import Dataset, split_tags

        data = Dataset(cols, split_tags(n, (("train", 1),)))
        models = fit_bucket_conditionals(data, pco(star_triangle.names, star_triangle), star_triangle)
        by_bucket = {m.bucket: m for m in models}
        triple = by_bucket[("X1", "X2", "X3")]
        assert triple.parents == ("A",)
        assert triple.coef.shape == (3, 1)
        assert triple.residual_cov.shape == (3, 3)
        eigvals = np.linalg.eigvalsh(triple.residual_cov)
        assert eigvals.min() >= -1e-9

    def test_collinear_design_uses_ridge(self):
        from fairmpdag.scm_lab import Dataset, split_tags

        n = 200
        rng = np.random.default_rng(9)
        a = rng.standard_normal(n)
        # identical regressors A and B make the design rank-deficient
        g = parse_graph("A -> X\nB -> X")
        data = Dataset(
            {"A": a, "B": a.copy(), "X": a + 0.1 * rng.standard_normal(n)},
            split_tags(n, (("train", 1),)),
        )
        models = fit_bucket_conditionals(data, pco(g.names, g), g)
        x_model = {m.bucket: m for m in models}[("X",)]
        assert np.isfinite(x_model.coef).all()
        pred = x_model.intercept + data.matrix(x_model.parents) @ x_model.coef.T
        assert abs((pred.ravel() - data.columns["X"]).mean()) < 0.05


class TestGenerate:
    def test_matches_truth_mean(self, two_vertex_fit):
        scm, _, g, models = two_vertex_fit
        formula = identification_formula(g, ["A"], pco(g.names, g))
        gen = generate_interventional(models, formula, {"A": 1.0}, 10_000, seed=103)
        truth = sample_interventional_truth(scm, {"A": 1.0}, 10_000, seed=105)
        assert abs(gen.columns["X"].mean() - truth.columns["X"].mean()) < 0.1
        assert np.all(gen.columns["A"] == 1.0)

    def test_split_82(self, two_vertex_fit):
        _, _, g, models = two_vertex_fit
        formula = identification_formula(g, ["A"], pco(g.names, g))
        gen = generate_interventional(models, formula, {"A": 0.0}, 1000, seed=107)
        assert gen.subset("train").n == 800 and gen.subset("val").n == 200

    def test_intervening_sink_leaves_rest_observational(self, two_vertex_fit):
        _, obs, g, models = two_vertex_fit
        formula = identification_formula(g, ["X"], pco(g.names, g))
        gen = generate_interventional(models, formula, {"X": 3.0}, 8000, seed=109)
        assert abs(gen.columns["A"].mean() - obs.columns["A"].mean()) < 0.05

    def test_deterministic(self, two_vertex_fit):
        _, _, g, models = two_vertex_fit
        formula = identification_formula(g, ["A"], pco(g.names, g))
        a = generate_interventional(models, formula, {"A": 1.0}, 256, seed=111)
        b = generate_interventional(models, formula, {"A": 1.0}, 256, seed=111)
        assert all(np.array_equal(a.columns[k], b.columns[k]) for k in a.columns)

    def test_missing_assignment_rejected(self, two_vertex_fit):
        _, _, g, models = two_vertex_fit
        formula = identification_formula(g, ["A"], pco(g.names, g))
        with pytest.raises(ValueError, match="missing assignment"):
            generate_interventional(models, formula, {}, 10, seed=1)

    def test_model_formula_mismatch_rejected(self, two_vertex_fit):
        _, _, g, models = two_vertex_fit
        other = parse_graph("A -> X\nA -> W\nW -> X")
        formula = identification_formula(other, ["A"], pco(other.names, other))
        with pytest.raises(ValueError, match="no fitted conditional"):
            generate_interventional(models, formula, {"A": 1.0}, 10, seed=1)


class TestNondescendantInvariance:
    def test_generated_nondescendant_columns_match_observational(self):
        # W precedes A causally, so do(A) must leave the generated W marginal
        # at its observational distribution
        from fairmpdag import LinearScm, median_bandwidth, mmd2

        g = parse_graph("W -> X\nA -> X")
        scm = LinearScm(
            dag=parse_graph("W -> X\nA -> X\nX -> Y"),
            weights={("W", "X"): 0.8, ("A", "X"): 0.6, ("X", "Y"): 0.9},
            noise_std={v: 1.0 for v in "WAXY"},
            sensitive="A",
            sensitive_levels=2,
            outcome="Y",
        )
        obs = sample_observational(scm, 2000, seed=210)
        ordering = pco(g.names, g)
        models = fit_bucket_conditionals(obs, ordering, g)
        formula = identification_formula(g, ["A"], ordering)
        gen = generate_interventional(models, formula, {"A": 1.0}, 2000, seed=211)
        sigma = median_bandwidth(
            np.concatenate([obs.columns["W"], gen.columns["W"]])
        )
        stat = mmd2(obs.columns["W"], gen.columns["W"], sigma)
        null95 = permutation_null_quantile(
            obs.columns["W"], gen.columns["W"], n_permutations=200, seed=212
        )
        assert stat < null95


class TestUnidentifiable:
    def test_two_orientations_differ_under_do(self):
        # truth A -> X with strong effect; candidate A <- X severs it
        scm = two_vertex_scm(beta=0.9)
        obs = sample_observational(scm, 4000, seed=115)
        g = parse_graph("A -- X")
        candidates = enumerate_valid_orientations(g, ["A"])
        sets = []
        for c in candidates:
            ordering = pco(c.names, c)
            models = fit_bucket_conditionals(obs, ordering, c)
            formula = identification_formula(c, ["A"], ordering)
            sets.append(generate_interventional(models, formula, {"A": 1.0}, 6000, seed=117))
        means = sorted(d.columns["X"].mean() for d in sets)
        # f(x) leaves the mean near E[X] ~ 0.45; f(x|a) pushes it to ~0.9
        assert means[1] - means[0] > 0.3


class TestJson:
    def test_roundtrip(self, two_vertex_fit):
        _, _, g, models = two_vertex_fit
        back = models_from_json(models_to_json(models))
        assert len(back) == len(models)
        for m, b in zip(models, back):
            assert m.bucket == b.bucket and m.parents == b.parents
            assert np.allclose(m.coef, b.coef)
            assert np.allclose(m.intercept, b.intercept)
            assert np.allclose(m.residual_cov, b.residual_cov)
