from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmpdag import (
    Dataset,
    EmptyFeatureSetError,
    EvalRecord,
    FairPredictor,
    InterventionalSet,
    TrainConfig,
    Variant,
    admissible_intervention_values,
    evaluate,
    feature_set,
    median_bandwidth,
    mmd2,
    parse_graph,
    sample_interventional_truth,
    sample_observational,
    train_predictor,
)
from fairmpdag.fair_train import (
    _context_mmd2,
    _init_params,
    _kernel_block,
    _objective_and_grads,
    _stack,
)
from fairmpdag.scm_lab import child_rng, split_tags

from .conftest import train_from_json
from .oracles import naive_mmd2
from .test_scm_lab import two_vertex_scm


class TestMmd2:
    def test_identical_samples_vanish(self):
        v = np.array([0.3, -1.2, 4.0])
        assert mmd2(v, v, bandwidth=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_singletons_closed_form(self):
        assert mmd2([0.0], [1.0], bandwidth=1.0) == pytest.approx(
            2.0 - 2.0 * np.exp(-1.0), abs=1e-12
        )

    def test_batched_equals_naive_double_loop(self):
        rng = np.random.default_rng(211)
        for _ in range(5):
            ya = rng.normal(size=rng.integers(2, 40))
            yb = rng.normal(size=rng.integers(2, 40))
            sigma = float(rng.uniform(0.2, 3.0))
            assert mmd2(ya, yb, sigma) == pytest.approx(
                naive_mmd2(ya, yb, sigma), abs=1e-10
            )

    def test_symmetry_exact(self):
        rng = np.random.default_rng(223)
        ya, yb = rng.normal(size=17), rng.normal(size=23)
        assert mmd2(ya, yb, 1.3) == mmd2(yb, ya, 1.3)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=12),
        st.lists(st.floats(-5, 5), min_size=1, max_size=12),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonnegative(self, ya, yb, sigma):
        assert mmd2(ya, yb, sigma) >= -1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mmd2([], [1.0], 1.0)


class TestContextMmd2:
    @pytest.mark.parametrize("sizes", [(7, 12), (5, 9, 14), (3, 8, 6, 11)])
    def test_equals_per_pair_naive_sum(self, sizes):
        rng = np.random.default_rng(233 + len(sizes))
        preds = [rng.normal(loc=0.3 * i, size=n) for i, n in enumerate(sizes)]
        sigma = 1.1
        pairs = list(combinations(range(len(preds)), 2))
        want = sum(naive_mmd2(preds[i], preds[j], sigma) for i, j in pairs) / len(pairs)
        value, grads = _context_mmd2(preds, sigma, want_grads=True)
        assert value == pytest.approx(want, abs=1e-12)
        assert [len(g) for g in grads] == list(sizes)

    @pytest.mark.parametrize("sizes", [(7, 12), (5, 9, 14), (3, 8, 6, 11)])
    def test_value_only_path_matches_gradient_path(self, sizes):
        rng = np.random.default_rng(239)
        preds = [rng.normal(size=n) for n in sizes]
        value, grads = _context_mmd2(preds, 0.7)
        assert grads is None
        assert value == _context_mmd2(preds, 0.7, want_grads=True)[0]

    def test_chunked_float32_gradient_block_matches_one_pass(self):
        # 300 x 400 entries: float32 and several row chunks; the row and
        # column sums must equal those of the whole block built at once
        rng = np.random.default_rng(241)
        pa = rng.normal(size=300).astype(np.float32)
        pb = (rng.normal(size=400) + 0.2).astype(np.float32)
        sigma = 1.3
        diff = pa[:, None] - pb[None, :]
        prod = diff * np.exp(-(diff * diff) * np.float32(1.0 / sigma))
        _, rows, cols = _kernel_block(pa, pb, sigma, want_grads=True, symmetric=False)
        assert np.array_equal(rows, prod.sum(axis=1).astype(np.float64))
        assert np.array_equal(cols, prod.sum(axis=0).astype(np.float64))


class TestGradients:
    def test_mmd2_grads_match_finite_differences(self):
        rng = np.random.default_rng(227)
        preds = [rng.normal(size=7), rng.normal(size=5), rng.normal(size=6) + 0.4]
        sigma = 0.9
        pairs = list(combinations(range(len(preds)), 2))

        def pair_mean(ps):
            return sum(mmd2(ps[i], ps[j], sigma) for i, j in pairs) / len(pairs)

        _, grads = _context_mmd2(preds, sigma, want_grads=True)
        eps = 1e-6
        for level, p in enumerate(preds):
            for k in range(len(p)):
                up = [q.copy() for q in preds]
                dn = [q.copy() for q in preds]
                up[level][k] += eps
                dn[level][k] -= eps
                fd = (pair_mean(up) - pair_mean(dn)) / (2 * eps)
                assert grads[level][k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_penalized_objective_grad_on_five_parameter_model(self):
        # hidden width 1 over two features: 2 + 1 + 1 + 1 = 5 parameters;
        # one cell of two levels, then two cells of three levels each
        rng = np.random.default_rng(229)
        one_cell = [(9, 8)]
        two_cells = [(6, 9, 4), (7, 5, 8)]
        for layout in (one_cell, two_cells):
            params = _init_params(2, 1, child_rng(0, 8))
            y = rng.normal(size=12)
            blocks, cells, start = [rng.normal(size=(12, 2))], [], 12
            for sizes in layout:
                cells.append([])
                for level, n in enumerate(sizes):
                    blocks.append(rng.normal(size=(n, 2)) + 0.5 * level)
                    cells[-1].append(slice(start, start + n))
                    start += n
            x = np.concatenate(blocks)
            assert_objective_grads_match_finite_differences(params, x, y, cells, 3.0, 1.7)


def assert_objective_grads_match_finite_differences(params, x, y, cells, lam, sigma):
    _, grads = _objective_and_grads(params, x, y, cells, lam, sigma, binary=False)
    eps = 1e-6
    for key in params:
        flat = params[key]
        it = np.nditer(flat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = _objective_and_grads(
                params, x, y, cells, lam, sigma, binary=False, want_grads=False
            )
            flat[idx] = orig - eps
            dn, _ = _objective_and_grads(
                params, x, y, cells, lam, sigma, binary=False, want_grads=False
            )
            flat[idx] = orig
            fd = (up - dn) / (2 * eps)
            rel = abs(grads[key][idx] - fd) / max(abs(fd), 1e-8)
            assert rel < 1e-4, (key, idx, grads[key][idx], fd)


class TestFeatureSets:
    def test_variants(self, star_triangle):
        assert feature_set(Variant.FULL, star_triangle, "A") == ("A", "X1", "X2", "X3")
        assert feature_set(Variant.EPS_IFAIR, star_triangle, "A") == (
            "A", "X1", "X2", "X3",
        )
        assert feature_set(Variant.UNAWARE, star_triangle, "A") == ("X1", "X2", "X3")

    def test_ifair_empty_raises(self, star_triangle):
        with pytest.raises(EmptyFeatureSetError):
            feature_set(Variant.IFAIR, star_triangle, "A")

    def test_ifair_uses_nondescendants_plus_admissible(self):
        g = parse_graph("W -> A\nA -> X")
        assert feature_set(Variant.IFAIR, g, "A") == ("W",)
        assert feature_set(Variant.IFAIR, g, "A", admissible=("X",)) == ("W", "X")


class TestTraining:
    def _setup(self, beta=0.5, n=400, seed=300):
        scm = two_vertex_scm(beta=beta)
        obs = sample_observational(scm, n, seed=seed)
        truth = [
            InterventionalSet(
                sample_interventional_truth(scm, {"A": float(a)}, 300, seed=seed + a),
                float(a),
            )
            for a in range(2)
        ]
        return scm, obs, truth

    def test_lambda_zero_eps_ifair_equals_full(self):
        scm, obs, _ = self._setup()
        kw = dict(
            graph=scm.dag,
            sensitive="A",
            outcome="X",
            config=TrainConfig(epochs=60, patience=30, hidden_width=8),
            seed=7,
        )
        eps = train_predictor(Variant.EPS_IFAIR, 0.0, obs, [], **kw)
        full = train_predictor(Variant.FULL, 0.0, obs, [], **kw)
        assert eps.features == full.features
        assert all(np.array_equal(eps.weights[k], full.weights[k]) for k in eps.weights)

    def test_training_learns_the_map(self):
        scm, obs, _ = self._setup(beta=0.9, n=600)
        model = train_predictor(
            Variant.FULL,
            0.0,
            obs,
            [],
            graph=scm.dag,
            sensitive="A",
            outcome="X",
            config=TrainConfig(epochs=400, patience=100),
            seed=1,
        )
        test = obs.subset("test")
        rmse = np.sqrt(((model.predict(test) - test.columns["X"]) ** 2).mean())
        assert rmse < 1.15  # close to the noise floor

    def test_determinism(self):
        scm, obs, _ = self._setup()
        kw = dict(
            graph=scm.dag, sensitive="A", outcome="X",
            config=TrainConfig(epochs=40, patience=20), seed=5,
        )
        a = train_predictor(Variant.FULL, 0.0, obs, [], **kw)
        b = train_predictor(Variant.FULL, 0.0, obs, [], **kw)
        assert all(np.array_equal(a.weights[k], b.weights[k]) for k in a.weights)

    def test_penalty_reduces_unfairness(self):
        # strong sensitive effect; generated interventional data from truth
        scm, obs, truth = self._setup(beta=0.9, n=600)
        gen = [
            InterventionalSet(
                sample_interventional_truth(
                    scm, {"A": float(a)}, 500, seed=44 + a, split=(("train", 8), ("val", 2)),
                ),
                float(a),
            )
            for a in range(2)
        ]
        kw = dict(
            graph=scm.dag, sensitive="A", outcome="X",
            config=TrainConfig(epochs=300, patience=100), seed=3,
        )
        low = train_predictor(Variant.EPS_IFAIR, 0.0, obs, gen, **kw)
        high = train_predictor(Variant.EPS_IFAIR, 100.0, obs, gen, **kw)
        rec_low = evaluate(low, obs.subset("test"), truth, outcome="X")
        rec_high = evaluate(high, obs.subset("test"), truth, outcome="X")
        assert rec_high.mmd2 < rec_low.mmd2

    def test_ifair_ignores_excluded_columns_bitwise(self):
        g = parse_graph("A -> X\nW -> Y\nA -> Y\nX -> Y")
        from fairmpdag import LinearScm

        scm = LinearScm(
            dag=g,
            weights={e: 0.5 for e in g.directed_edges},
            noise_std={v: 1.0 for v in g.names},
            sensitive="A",
            sensitive_levels=2,
            outcome="Y",
        )
        obs = sample_observational(scm, 300, seed=77)
        model = train_predictor(
            Variant.IFAIR,
            0.0,
            obs,
            [],
            graph=g.induced_subgraph(["W", "A", "X"]),
            sensitive="A",
            outcome="Y",
            config=TrainConfig(epochs=50, patience=20),
            seed=11,
        )
        assert model.features == ("W",)
        test = obs.subset("test")
        base = model.predict(test)
        perturbed = Dataset(
            {
                k: (v + 99.0 if k in ("A", "X") else v.copy())
                for k, v in test.columns.items()
            },
            test.split,
        )
        assert np.array_equal(model.predict(perturbed), base)


class TestBinaryOutcomeMode:
    def test_logistic_output_and_mean_diff_penalty(self):
        rng = np.random.default_rng(431)
        n = 300
        a = rng.integers(0, 2, n).astype(float)
        x = 0.8 * a + rng.standard_normal(n)
        label = (x + 0.5 * a + 0.3 * rng.standard_normal(n) > 0).astype(float)
        obs = Dataset({"A": a, "X": x, "Y": label}, split_tags(n, (("train", 8), ("val", 1), ("test", 1))))
        gen = [
            InterventionalSet(
                Dataset(
                    {"A": np.full(200, float(v)), "X": 0.8 * v + rng.standard_normal(200)},
                    split_tags(200, (("train", 8), ("val", 2))),
                ),
                float(v),
            )
            for v in range(2)
        ]
        g = parse_graph("A -> X")
        cfg = TrainConfig(epochs=120, patience=60, binary_outcome=True)
        fair = train_predictor(
            Variant.EPS_IFAIR, 50.0, obs, gen, graph=g, sensitive="A", outcome="Y",
            config=cfg, seed=2,
        )
        plain = train_predictor(
            Variant.EPS_IFAIR, 0.0, obs, gen, graph=g, sensitive="A", outcome="Y",
            config=cfg, seed=2,
        )
        for model in (fair, plain):
            p = model.predict(obs)
            assert np.all((p >= 0) & (p <= 1))
        gap = lambda m: abs(m.predict(gen[0].data).mean() - m.predict(gen[1].data).mean())
        assert gap(fair) < gap(plain)


class TestEvaluate:
    def test_constant_predictor(self):
        rng = np.random.default_rng(401)
        y = rng.normal(loc=2.0, scale=1.5, size=500)
        data = Dataset({"A": rng.normal(size=500), "Y": y}, split_tags(500, (("test", 1),)))
        model = FairPredictor(
            variant=Variant.FULL,
            features=("A",),
            admissible=(),
            weights={
                "w1": np.zeros((1, 4)),
                "b1": np.zeros(4),
                "w2": np.zeros((4, 1)),
                "b2": np.array([y.mean()]),
            },
            lam=0.0,
            seed=0,
        )
        truth = [
            InterventionalSet(data, 0.0),
            InterventionalSet(data, 1.0),
        ]
        rec = evaluate(model, data, truth, outcome="Y")
        assert rec.mmd2 == pytest.approx(0.0, abs=1e-12)
        assert rec.rmse == pytest.approx(y.std(), abs=1e-12)

    def test_three_levels_pair_count(self):
        rng = np.random.default_rng(409)

        def mk(shift):
            return Dataset(
                {"A": rng.normal(size=50) + shift},
                split_tags(50, (("train", 8), ("val", 2))),
            )

        sets = [InterventionalSet(mk(float(a)), float(a)) for a in range(3)]
        x_obs = rng.normal(size=(6, 1))
        x, cells = _stack(x_obs, sets, ("A",), "train")
        # one cell with one row slice per level, after the observational rows
        assert len(cells) == 1 and len(cells[0]) == 3
        assert np.array_equal(x[:6], x_obs)
        for s, level in zip(cells[0], sets):
            assert np.array_equal(x[s], level.data.subset("train").matrix(("A",)))
        # three unordered level pairs enter the average
        assert len(list(combinations(range(3), 2))) == 3

    def test_two_groups_three_levels_match_naive_pair_means(self):
        rng = np.random.default_rng(421)
        model = FairPredictor(
            variant=Variant.FULL,
            features=("A", "B"),
            admissible=(),
            weights=_init_params(2, 5, child_rng(4, 8)),
            lam=0.0,
            seed=0,
        )

        def mk(n, shift):
            cols = {"A": rng.normal(size=n) + shift, "B": rng.normal(size=n)}
            return Dataset(cols, split_tags(n, (("test", 1),)))

        sizes = {0: (11, 7, 15), 1: (9, 13, 6)}
        sets = [
            InterventionalSet(mk(n, 0.4 * level), float(level), group=group)
            for group, ns in sizes.items()
            for level, n in enumerate(ns)
        ]
        obs = mk(23, 0.0)
        obs.columns["Y"] = rng.normal(size=23)
        sigma = 0.8
        rec = evaluate(model, obs, sets, outcome="Y", bandwidth_mode=sigma)

        def pair_mean(group):
            preds = [model.predict(s.data) for s in sets if s.group == group]
            pairs = list(combinations(range(3), 2))
            return sum(naive_mmd2(preds[i], preds[j], sigma) for i, j in pairs) / 3

        want = (pair_mean(0) + pair_mean(1)) / 2
        assert rec.mmd2 == pytest.approx(want, abs=1e-12)
        resid = model.predict(obs) - obs.columns["Y"]
        assert rec.rmse == pytest.approx(float(np.sqrt(np.mean(resid**2))), abs=1e-12)


class TestHelpers:
    def test_admissible_values_are_train_means(self):
        scm = two_vertex_scm()
        data = sample_observational(scm, 500, seed=419)
        got = admissible_intervention_values(data, ["X"])
        assert got == {"X": float(data.subset("train").columns["X"].mean())}
        assert admissible_intervention_values(data, []) == {}

    def test_median_bandwidth_fallbacks(self):
        assert median_bandwidth(np.array([1.0])) == 1.0
        assert median_bandwidth(np.zeros(10)) == 1.0
        assert median_bandwidth(np.array([0.0, 2.0])) == 4.0
        assert median_bandwidth(np.array([0.0, np.nan, 1.0, 3.0])) == 1.0

    @pytest.mark.parametrize("n", [2, 511, 512, 2400])
    def test_median_bandwidth_bit_identical_to_triu_formula(self, n):
        values = np.random.default_rng(n).normal(size=n)
        v = values if n <= 512 else values[np.linspace(0, n - 1, 512).astype(int)]
        d2 = (v[:, None] - v[None, :]) ** 2
        assert median_bandwidth(values) == float(np.median(d2[np.triu_indices(len(v), 1)]))

    def test_train_config_from_json(self):
        cfg = train_from_json('{"hidden_width": 8, "lambda_grid": [0, 1.5]}')
        assert cfg.hidden_width == 8 and cfg.lambda_grid == (0, 1.5)
        assert type(cfg.lambda_grid[0]) is int  # run names keep "lam0"
        assert cfg.lr == TrainConfig().lr
        with pytest.raises(ValueError, match="train: unknown key 'ignored'"):
            train_from_json('{"hidden_width": 8, "ignored": 3}')

    @pytest.mark.parametrize("mode", ['"mediam"', '"1.5"', "0", "-2.0", "true", "NaN", "Infinity"])
    def test_train_config_rejects_bad_bandwidth_mode(self, mode):
        with pytest.raises(ValueError, match="train: bandwidth_mode"):
            train_from_json(f'{{"bandwidth_mode": {mode}}}')

    def test_train_config_accepts_median_and_positive_bandwidth(self):
        assert train_from_json('{"bandwidth_mode": "median"}').bandwidth_mode == "median"
        assert train_from_json('{"bandwidth_mode": 2}').bandwidth_mode == 2

    def test_predictor_json_roundtrip(self):
        p = FairPredictor(
            variant=Variant.IFAIR,
            features=("W",),
            admissible=(),
            weights={
                "w1": np.ones((1, 2)),
                "b1": np.zeros(2),
                "w2": np.ones((2, 1)),
                "b2": np.zeros(1),
            },
            lam=0.5,
            seed=3,
        )
        q = FairPredictor.from_json(p.to_json())
        assert q.variant is p.variant and q.features == p.features
        x = np.array([[0.2], [1.4]])
        assert np.allclose(p.predict_matrix(x), q.predict_matrix(x))
