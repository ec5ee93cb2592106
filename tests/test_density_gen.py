import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmpdag import (
    BucketConditional,
    enumerate_valid_orientations,
    fit_bucket_conditionals,
    generate_interventional,
    identification_formula,
    models_to_json,
    parse_graph,
    pco,
    sample_interventional_truth,
    sample_observational,
)

from fairmpdag import harness
from fairmpdag.harness import ExperimentConfig, GraphSetting, build_case
from fairmpdag.scm_lab import Dataset, split_rows

from .oracles import per_call_generate_interventional, permutation_null_quantile
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
        from fairmpdag.scm_lab import Dataset, split_rows

        data = Dataset(cols, split_rows(n, (("train", 1),)))
        models = fit_bucket_conditionals(data, pco(star_triangle.names, star_triangle), star_triangle)
        by_bucket = {m.bucket: m for m in models}
        triple = by_bucket[("X1", "X2", "X3")]
        assert triple.parents == ("A",)
        assert triple.coef.shape == (3, 1)
        assert triple.residual_cov.shape == (3, 3)
        eigvals = np.linalg.eigvalsh(triple.residual_cov)
        assert eigvals.min() >= -1e-9

    def test_collinear_design_gets_finite_least_squares_fit(self):
        from fairmpdag.scm_lab import Dataset, split_rows

        n = 200
        rng = np.random.default_rng(9)
        a = rng.standard_normal(n)
        # identical regressors A and B make the design rank-deficient
        g = parse_graph("A -> X\nB -> X")
        data = Dataset(
            {"A": a, "B": a.copy(), "X": a + 0.1 * rng.standard_normal(n)},
            split_rows(n, (("train", 1),)),
        )
        models = fit_bucket_conditionals(data, pco(g.names, g), g)
        x_model = {m.bucket: m for m in models}[("X",)]
        assert np.isfinite(x_model.coef).all()
        pred = x_model.intercept + data.matrix(x_model.parents) @ x_model.coef.T
        assert abs((pred.ravel() - data.columns["X"]).mean()) < 0.05

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
    def test_psd_check_does_not_depend_on_units(self, scale):
        # B = 3A in one bucket: the residual covariance has rank one, and its
        # zero eigenvalue comes out of eigh with a rounding error that grows
        # with the data's units (below -1e-9 at scale 1e4 for several seeds)
        g = parse_graph("A -- B")
        for seed in range(20):
            a = scale * np.random.default_rng(seed).standard_normal(800)
            data = Dataset({"A": a, "B": 3 * a}, split_rows(800, (("train", 1),)))
            (model,) = fit_bucket_conditionals(data, pco(g.names, g), g)
            assert model.bucket == ("A", "B")
            assert abs(model.residual_cov[1, 1] / model.residual_cov[0, 0] - 9) < 1e-9


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

    @pytest.mark.parametrize("kind, seed", [("linear", 4), ("nonlinear", 36)])
    def test_matches_a_factorisation_per_call_byte_for_byte(self, kind, seed, monkeypatch):
        # d = 120 graph-scale cases with one-member buckets and buckets of
        # 2, 3 and 5 members, 2 and 3 sensitive levels; the oracle redoes
        # each bucket's eigendecomposition on every call
        setting = GraphSetting(120, 180, 1, 2)
        cfg = ExperimentConfig((setting,), seed=seed, bk_fraction=0.5, scm_kind=kind)
        case = build_case(cfg, 0, 0)
        assert {1, 2, 3, 5} <= {len(m.bucket) for m in case.conditionals[0]}
        monkeypatch.setattr(harness, "generate_interventional", per_call_generate_interventional)
        want = build_case(cfg, 0, 0)
        assert len(case.train_sets) == len(want.train_sets) == len(case.levels)
        for got, expected in zip(case.train_sets, want.train_sets):
            assert got.sensitive_value == expected.sensitive_value
            assert list(got.data.columns) == list(expected.data.columns)
            for v, col in expected.data.columns.items():
                assert got.data.columns[v].tobytes() == col.tobytes(), v

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
        from fairmpdag import Scm, median_bandwidth, mmd2

        g = parse_graph("W -> X\nA -> X")
        scm = Scm(
            dag=parse_graph("W -> X\nA -> X\nX -> Y"),
            weights={("W", "X"): 0.8, ("A", "X"): 0.6, ("X", "Y"): 0.9},
            mechanism={v: ("linear",) for v in "WAXY"},
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


@given(st.floats(allow_nan=True, allow_infinity=True))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2e-308)
@example(1e308)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@settings(max_examples=200, deadline=None)
def test_eigh_of_a_one_by_one_matrix_is_its_entry_and_one(c):
    # a one-member bucket skips eigh on this: if a LAPACK breaks it, the
    # fit and the generated data change
    cov = np.array([[c]])
    eigvals, eigvecs = np.linalg.eigh(cov)
    assert eigvals.tobytes() == cov[0].tobytes()
    assert eigvecs.tobytes() == np.ones((1, 1)).tobytes()


def models_from_json(text: str) -> list[BucketConditional]:
    """Read back what ``models_to_json`` wrote."""
    payload = json.loads(text)["bucket_conditionals"]
    return [
        BucketConditional(
            bucket=tuple(item["bucket"]),
            parents=tuple(item["parents"]),
            coef=np.asarray(item["coef"], dtype=float).reshape(
                len(item["bucket"]), len(item["parents"])
            ),
            intercept=np.asarray(item["intercept"], dtype=float),
            residual_cov=np.asarray(item["residual_cov"], dtype=float),
        )
        for item in payload
    ]


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
