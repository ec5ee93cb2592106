"""Acceptance suite: one pass/fail line per criterion (run with ``pytest -s``).

Criteria 1-7 and 9 are exact-oracle or golden checks; criterion 8 reproduces
the synthetic accuracy-fairness trade-off at the 10-node/20-edge setting with
the default training configuration, and criterion 10 repeats the monotone
trend in the candidate-averaged (unidentifiable) mode. The two trade-off
criteria dominate the runtime (tens of minutes).
"""
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import fairmpdag as fm
from fairmpdag.fair_train import TrainConfig, Variant
from fairmpdag.harness import (
    ExperimentConfig,
    GraphSetting,
    build_case,
    run_case,
    run_plan,
)

from .conftest import BK_DEMO_KNOWLEDGE, NINE_BUCKETS
from .oracles import (
    all_dags,
    class_key,
    class_members_vectorized,
    descendants,
    naive_mmd2,
    pair_weights,
    permutation_null_quantile,
    population_cov,
    population_do_means,
    random_mpdag,
    union_graph,
)


def report(num: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_cpdag_oracle():
    t0 = time.time()
    checked = 0
    for n in (2, 3, 4, 5):
        groups = {}
        for d in all_dags(n):
            groups.setdefault(class_key(d), []).append(d)
        for members in groups.values():
            expected = union_graph(members)
            for d in members:
                assert fm.cpdag_from_dag(d) == expected
                checked += 1
    rng = np.random.default_rng(1001)
    for _ in range(200):
        d = int(rng.integers(6, 9))
        s = int(rng.integers(d - 1, min(12, d * (d - 1) // 2) + 1))
        dag = fm.random_er_dag(d, s, int(rng.integers(2**32)))
        assert fm.cpdag_from_dag(dag) == union_graph(class_members_vectorized(dag))
    elapsed = time.time() - t0
    report(
        "1",
        elapsed < 60,
        f"CPDAG equals class union on {checked} exhaustive + 200 random DAGs in {elapsed:.1f}s",
    )


def test_criterion_2_augment_orientation_commutes():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    for _ in range(200):
        d = int(rng.integers(3, 11))
        s = int(rng.integers(1, d * (d - 1) // 2 + 1))
        dag = fm.random_er_dag(d, s, int(rng.integers(2**32)))
        cpdag = fm.cpdag_from_dag(dag)
        bk = [
            (a, b) if dag.has_directed(a, b) else (b, a)
            for a, b in cpdag.undirected_edges
            if rng.random() < 0.5
        ]
        left = fm.augment_with_prediction(fm.construct_mpdag(cpdag, bk))
        right = fm.construct_mpdag(
            fm.cpdag_from_dag(fm.augment_with_prediction(dag)),
            list(bk) + [(v, "Yhat") for v in dag.names],
        )
        assert left == right
    elapsed = time.time() - t0
    report(
        "2",
        elapsed < 60,
        f"augment-then-orient equals orient-then-augment on 200 pairs in {elapsed:.1f}s",
    )


def test_criterion_3_pco_golden():
    g = fm.parse_graph(NINE_BUCKETS)
    ordering = fm.pco(g.names, g)
    order_text = " < ".join(
        "{" + ",".join(g.sort_vertices(b)) + "}" for b in ordering.buckets
    )
    formula = fm.identification_formula(g, ["A", "E"], fm.pco(g.names, g)).as_text()
    ok = (
        order_text == "{B,C} < {A,E} < {M,L} < {D} < {R} < {N}"
        and formula == "f(n|a,m,l,r) f(r|e) f(d|b,e) f(m,l) f(b,c)"
    )
    report("3", ok, f"ordering '{order_text}', factors '{formula}'")


def test_criterion_4_identification_uniqueness():
    rng = np.random.default_rng(1004)
    identifiable_checked = 0
    nontrivial = 0
    while identifiable_checked < 50:
        d = int(rng.integers(3, 7))
        s = int(rng.integers(d - 1, d * (d - 1) // 2 + 1))
        dag = fm.random_er_dag(d, s, int(rng.integers(2**32)))
        cpdag = fm.cpdag_from_dag(dag)
        target = dag.names[int(rng.integers(d))]
        bk = [
            (a, b) if dag.has_directed(a, b) else (b, a)
            for a, b in cpdag.undirected_edges
            if a == target or b == target
        ]
        g = fm.construct_mpdag(cpdag, bk)
        assert fm.is_identifiable(g, [target])
        members = fm.enumerate_dags_in_class(g)
        weights = pair_weights(g, rng)
        sigma = population_cov(members[0], weights)
        rows = [population_do_means(m, sigma, {target: 1.0}) for m in members]
        spread = max(
            max(r[v] for r in rows) - min(r[v] for r in rows) for v in g.names
        )
        assert spread <= 1e-9, spread
        identifiable_checked += 1
        nontrivial += len(members) > 1
    pair = fm.parse_graph("A -- X")
    members = fm.enumerate_dags_in_class(pair)
    sigma = population_cov(members[0], {("A", "X"): 0.5})
    values = sorted(population_do_means(m, sigma, {"A": 1.0})["X"] for m in members)
    gap = values[1] - values[0]
    report(
        "4",
        gap >= 0.1 and nontrivial >= 20,
        f"do-means agree within 1e-9 on 50 identifiable pairs ({nontrivial} with >1 member); "
        f"undirected pair differs by {gap:.2f}",
    )


def test_criterion_5_generated_matches_truth():
    # Conditionals are fitted from 10k observational rows so the check
    # isolates generator fidelity; at the experiment's n=1000 the OLS noise
    # itself already approaches the 0.1 mean tolerance on deep graphs.
    t0 = time.time()
    worst = 0.0
    for setting_idx, (d, s) in enumerate(((5, 8), (10, 20))):
        for gid in range(10):
            seed = fm.derive_seed(1005, setting_idx, gid)
            dag = fm.random_er_dag(d, s, fm.derive_seed(seed, 0))
            scm = fm.random_linear_scm(dag, fm.derive_seed(seed, 1))
            obs = fm.sample_observational(scm, 10_000, fm.derive_seed(seed, 2))
            observed = [v for v in scm.dag.names if v != scm.outcome]
            true_dag = scm.dag.induced_subgraph(observed)
            cpdag = fm.cpdag_from_dag(true_dag)
            bk = [
                (a, b) if true_dag.has_directed(a, b) else (b, a)
                for a, b in cpdag.undirected_edges
                if scm.sensitive in (a, b)
            ]
            g = fm.construct_mpdag(cpdag, bk)
            ordering = fm.pco(g.names, g)
            models = fm.fit_bucket_conditionals(obs, ordering, g)
            formula = fm.identification_formula(g, [scm.sensitive], ordering)
            for level in range(scm.sensitive_levels):
                assign = {scm.sensitive: float(level)}
                gen = fm.generate_interventional(
                    models, formula, assign, 10_000, fm.derive_seed(seed, 3, level)
                )
                truth = fm.sample_interventional_truth(
                    scm, assign, 10_000, fm.derive_seed(seed, 4, level)
                )
                for v in g.names:
                    worst = max(
                        worst, abs(gen.columns[v].mean() - truth.columns[v].mean())
                    )
    elapsed = time.time() - t0
    report(
        "5",
        worst < 0.1 and elapsed < 300,
        f"max interventional mean gap {worst:.3f} over 20 linear models in {elapsed:.1f}s",
    )


def test_criterion_6_ancestral_oracle(bk_demo_dag):
    rng = np.random.default_rng(1006)
    for _ in range(200):
        _, _, g = random_mpdag(rng, max_n=8)
        members = fm.enumerate_dags_in_class(g)
        s = g.names[int(rng.integers(g.n))]
        down = [descendants(d, s) for d in members]
        for t in g.names:
            if t == s:
                continue
            flags = {t in dd for dd in down}
            if flags == {True}:
                expected = fm.AncestralRelation.DEFINITE_DESCENDANT
            elif flags == {False}:
                expected = fm.AncestralRelation.DEFINITE_NON_DESCENDANT
            else:
                expected = fm.AncestralRelation.POSSIBLE_DESCENDANT
            assert fm.ancestral_relation(g, s, t) is expected
    demo = fm.construct_mpdag(fm.cpdag_from_dag(bk_demo_dag), BK_DEMO_KNOWLEDGE)
    golden = fm.definite_nondescendants(demo, "A")
    report(
        "6",
        golden == ("E",),
        f"200 random graphs match class enumeration; demo non-descendants {golden}",
    )


def test_criterion_7_mmd_and_gradient():
    closed = fm.mmd2([0.0], [1.0], bandwidth=1.0)
    ok_singleton = abs(closed - (2.0 - 2.0 * np.exp(-1.0))) < 1e-12
    rng = np.random.default_rng(1007)
    ok_naive = True
    for _ in range(10):
        ya = rng.normal(size=int(rng.integers(2, 30)))
        yb = rng.normal(size=int(rng.integers(2, 30)))
        sigma = float(rng.uniform(0.3, 2.0))
        ok_naive &= abs(fm.mmd2(ya, yb, sigma) - naive_mmd2(ya, yb, sigma)) < 1e-10

    from fairmpdag.fair_train import _init_params, _objective_and_grads
    from fairmpdag.scm_lab import child_rng

    params = _init_params(2, 1, child_rng(3, 8))  # five parameters
    # stacked block: 10 observational rows, then two levels of 8 and 7 rows
    obs = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    x = np.concatenate([obs, rng.normal(size=(8, 2)), rng.normal(size=(7, 2)) + 0.4])
    contexts = [[slice(10, 18), slice(18, 25)]]
    _, grads = _objective_and_grads(params, x, y, contexts, 2.5, 1.3, binary=False)
    eps, worst_rel = 1e-6, 0.0
    for key in params:
        it = np.nditer(params[key], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[key][idx]
            params[key][idx] = orig + eps
            up, _ = _objective_and_grads(
                params, x, y, contexts, 2.5, 1.3, binary=False, want_grads=False
            )
            params[key][idx] = orig - eps
            dn, _ = _objective_and_grads(
                params, x, y, contexts, 2.5, 1.3, binary=False, want_grads=False
            )
            params[key][idx] = orig
            fd = (up - dn) / (2 * eps)
            worst_rel = max(worst_rel, abs(grads[key][idx] - fd) / max(abs(fd), 1e-8))
    report(
        "7",
        ok_singleton and ok_naive and worst_rel < 1e-4,
        f"closed form ok, naive-loop match ok, gradient rel err {worst_rel:.2e}",
    )


ACCEPT_SEED = 2024


@pytest.fixture(scope="module")
def tradeoff_sweep():
    """Full-scale 10-node/20-edge sweep with the default training config."""
    cfg = ExperimentConfig(
        graph_settings=(GraphSetting(d=10, s=20, count=10),),
        seed=ACCEPT_SEED,
        sample_n=1000,
        interventional_n=1000,
        train=TrainConfig(),
    )
    t0 = time.time()
    rows = []
    cases = []
    for gid in range(10):
        case = build_case(cfg, 0, gid)
        cases.append(case)
        for variant, lam in run_plan(cfg):
            record, model = run_case(cfg, case, variant, lam, gid)
            rows.append((gid, variant, lam, record, model))
    return cfg, cases, rows, time.time() - t0


def _mean(values):
    return float(np.mean(values))


@pytest.mark.slow
def test_criterion_8_tradeoff(tradeoff_sweep):
    cfg, cases, rows, elapsed = tradeoff_sweep
    by = {}
    for gid, variant, lam, record, model in rows:
        by.setdefault((variant, lam), []).append((gid, record, model))

    ifair_mmd2 = _mean([r.mmd2 for _, r, _ in by[(Variant.IFAIR, 0.0)]])
    nulls = []
    for gid, _, model in by[(Variant.IFAIR, 0.0)]:
        case = cases[gid]
        preds = [model.predict(s.data) for s in case.truth_sets]
        for i in range(len(preds)):
            for j in range(i + 1, len(preds)):
                nulls.append(
                    permutation_null_quantile(
                        preds[i],
                        preds[j],
                        n_permutations=200,
                        seed=1008,
                        bandwidth=case.eval_bandwidth,
                    )
                )
    cond_a = ifair_mmd2 < _mean(nulls)

    full_mmd2 = _mean([r.mmd2 for _, r, _ in by[(Variant.FULL, 0.0)]])
    cond_b = full_mmd2 > 3.0 * ifair_mmd2

    lam_grid = sorted(cfg.train.lambda_grid)
    lam_means = [
        _mean([r.mmd2 for _, r, _ in by[(Variant.EPS_IFAIR, lam)]]) for lam in lam_grid
    ]
    rho = float(spearmanr(lam_grid, lam_means).statistic)
    cond_c = rho <= -0.8

    eps0_rmse = _mean([r.rmse for _, r, _ in by[(Variant.EPS_IFAIR, 0.0)]])
    ifair_rmse = _mean([r.rmse for _, r, _ in by[(Variant.IFAIR, 0.0)]])
    y_std = _mean(
        [c.obs.subset("test").columns[c.outcome].std() for c in cases]
    )
    cond_d = eps0_rmse <= ifair_rmse - 0.05 * y_std

    cond_time = elapsed < 1800
    report(
        "8",
        cond_a and cond_b and cond_c and cond_d and cond_time,
        f"(a) ifair {ifair_mmd2:.5f} < null95 {_mean(nulls):.5f}: {cond_a}; "
        f"(b) full {full_mmd2:.5f} > 3x ifair: {cond_b}; "
        f"(c) spearman {rho:.3f} <= -0.8: {cond_c}; "
        f"(d) rmse {eps0_rmse:.3f} <= {ifair_rmse:.3f} - 0.05*{y_std:.3f}: {cond_d}; "
        f"runtime {elapsed:.0f}s < 1800s: {cond_time}",
    )


@pytest.mark.slow
def test_criterion_9_excluded_columns_cannot_leak(tradeoff_sweep):
    _, cases, rows, _ = tradeoff_sweep
    checked = 0
    for gid, variant, lam, record, model in rows:
        if variant is not Variant.IFAIR:
            continue
        case = cases[gid]
        test = case.obs.subset("test")
        base = model.predict(test)
        excluded = [v for v in test.names if v not in model.features]
        rng = np.random.default_rng(gid)
        noisy = fm.Dataset(
            {
                k: (v + rng.uniform(1.0, 50.0) if k in excluded else v.copy())
                for k, v in test.columns.items()
            },
            test.split,
        )
        assert np.array_equal(model.predict(noisy), base)
        checked += 1
    report("9", checked > 0, f"bit-identical outputs under perturbation on {checked} models")


def _unidentifiable_case(truth_edges, outcome_edges, n_expected, seed):
    """Ground-truth SCM plus candidate graphs for a non-identifiable MPDAG."""
    vertex_edges = truth_edges + outcome_edges
    dag = fm.parse_graph("\n".join(f"{a} -> {b}" for a, b in vertex_edges))
    weights = {}
    rng = np.random.default_rng(seed)
    for e in dag.directed_edges:
        weights[e] = float(rng.uniform(0.5, 1.0))
    scm = fm.LinearScm(
        dag=dag,
        weights=weights,
        noise_std={v: 1.0 for v in dag.names},
        sensitive="A",
        sensitive_levels=2,
        outcome="Y",
    )
    obs = fm.sample_observational(scm, 1000, fm.derive_seed(seed, 1))
    observed = [v for v in dag.names if v != "Y"]
    g = fm.cpdag_from_dag(dag.induced_subgraph(observed))
    assert not fm.is_identifiable(g, ["A"])
    candidates = fm.enumerate_valid_orientations(g, ["A"])
    assert len(candidates) == n_expected, (len(candidates), n_expected)
    train_sets = []
    for group, cand in enumerate(candidates):
        ordering = fm.pco(cand.names, cand)
        models = fm.fit_bucket_conditionals(obs.subset("train"), ordering, cand)
        formula = fm.identification_formula(cand, ["A"], ordering)
        for a in (0.0, 1.0):
            data = fm.generate_interventional(
                models, formula, {"A": a}, 1000, fm.derive_seed(seed, 2, group, int(a))
            )
            train_sets.append(fm.InterventionalSet(data, a, group=group))
    truth_sets = [
        fm.InterventionalSet(
            fm.sample_interventional_truth(scm, {"A": a}, 1000, fm.derive_seed(seed, 3, int(a))),
            a,
        )
        for a in (0.0, 1.0)
    ]
    return scm, g, obs, train_sets, truth_sets


@pytest.mark.slow
def test_criterion_10_unidentifiable_mode():
    from fairmpdag.fair_train import evaluate, median_bandwidth, train_predictor

    grid = TrainConfig().lambda_grid
    all_ok = True
    details = []
    for truth_edges, outcome_edges, n_candidates, seed in (
        # A - X in the CPDAG: two candidate orientations
        ((("A", "X"), ("X", "W")), (("X", "Y"), ("W", "Y"), ("A", "Y")), 2, 510),
        # undirected triangle at A: four candidates
        ((("A", "X"), ("A", "W"), ("X", "W")), (("X", "Y"), ("W", "Y"), ("A", "Y")), 4, 520),
    ):
        scm, g, obs, train_sets, truth_sets = _unidentifiable_case(
            truth_edges, outcome_edges, n_candidates, seed
        )
        bandwidth = median_bandwidth(obs.subset("test").columns["Y"])
        means = []
        for lam in grid:
            model = train_predictor(
                Variant.EPS_IFAIR,
                lam,
                obs,
                train_sets,
                graph=g,
                sensitive="A",
                outcome="Y",
                config=TrainConfig(),
                seed=seed,
            )
            rec = evaluate(
                model, obs.subset("test"), truth_sets, outcome="Y", bandwidth_mode=bandwidth
            )
            means.append(rec.mmd2)
        rho = float(spearmanr(sorted(grid), [m for _, m in sorted(zip(grid, means))]).statistic)
        details.append(f"{n_candidates} candidates: spearman {rho:.3f}")
        all_ok &= rho <= -0.8
    report("10", all_ok, "; ".join(details))
