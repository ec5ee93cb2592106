import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from fairmpdag.fair_train import TrainConfig, Variant
from fairmpdag.harness import (
    ExperimentConfig,
    GraphSetting,
    _dump_predictions,
    build_case,
    run_case,
    run_experiment,
    run_plan,
)

from .conftest import train_from_json


def small_config(**overrides):
    base = dict(
        graph_settings=(GraphSetting(d=5, s=6, count=2),),
        seed=11,
        sample_n=300,
        interventional_n=200,
        train=TrainConfig(epochs=30, patience=15, lambda_grid=(0.0, 5.0)),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBuildCase:
    def test_identifiable_by_construction(self):
        from fairmpdag import is_identifiable

        cfg = small_config()
        for gid in range(2):
            case = build_case(cfg, 0, gid)
            assert len(case.candidates) == 1
            assert is_identifiable(case.mpdag, [case.sensitive, *case.admissible])

    def test_levels_match_scm(self):
        case = build_case(small_config(), 0, 0)
        assert len(case.levels) == case.scm.sensitive_levels
        assert len(case.truth_sets) == len(case.levels)
        assert len(case.train_sets) == len(case.levels) * len(case.candidates)

    def test_admissible_context_clamped(self):
        cfg = small_config(
            graph_settings=(GraphSetting(d=6, s=8, count=1, admissible_count=1),)
        )
        case = build_case(cfg, 0, 0)
        assert len(case.admissible) == 1
        adm = case.admissible[0]
        for s in case.train_sets + case.truth_sets:
            assert np.ptp(s.data.columns[adm]) == 0.0  # clamped column
        assert dict(case.train_sets[0].context).keys() == {adm}

    def test_deterministic_rebuild(self):
        cfg = small_config()
        a = build_case(cfg, 0, 0)
        b = build_case(cfg, 0, 0)
        assert a.mpdag == b.mpdag
        assert all(
            np.array_equal(a.obs.columns[k], b.obs.columns[k]) for k in a.obs.columns
        )

    def test_external_cpdag_file(self, tmp_path):
        from fairmpdag import cpdag_from_dag

        cfg = small_config()
        derived = build_case(cfg, 0, 0)
        observed = [v for v in derived.scm.dag.names if v != derived.outcome]
        true_cpdag = cpdag_from_dag(derived.scm.dag.induced_subgraph(observed))
        (tmp_path / "5nodes6edges_g0.graph").write_text(true_cpdag.to_text())
        loaded = build_case(small_config(cpdag_dir=str(tmp_path)), 0, 0)
        assert loaded.mpdag == derived.mpdag

    def test_external_cpdag_with_wrong_skeleton_still_runs(self, tmp_path):
        from fairmpdag import Pdag, cpdag_from_dag

        cfg = small_config()
        derived = build_case(cfg, 0, 0)
        observed = [v for v in derived.scm.dag.names if v != derived.outcome]
        true_cpdag = cpdag_from_dag(derived.scm.dag.induced_subgraph(observed))
        # drop one edge and add a spurious undirected one, as a discovery
        # algorithm might
        directed = list(true_cpdag.directed_edges)
        undirected = list(true_cpdag.undirected_edges)
        dropped = (directed or undirected).pop()
        spur_pool = [
            (a, b)
            for a in true_cpdag.names
            for b in true_cpdag.names
            if a < b and not true_cpdag.adjacent(a, b)
        ]
        undirected.append(spur_pool[0])
        learned = Pdag(true_cpdag.names, directed=directed, undirected=undirected)
        (tmp_path / "5nodes6edges_g0.graph").write_text(learned.to_text())
        case = build_case(small_config(cpdag_dir=str(tmp_path)), 0, 0)
        rec, _ = run_case(cfg, case, Variant.EPS_IFAIR, 5.0, 0)
        assert np.isfinite(rec.rmse)

    def test_nonlinear_kind_runs(self):
        cfg = small_config(scm_kind="nonlinear", seed=21)
        case = build_case(cfg, 0, 0)
        assert case.scm.mechanism  # nonlinear ground truth
        rec, _ = run_case(cfg, case, Variant.EPS_IFAIR, 5.0, 0)
        assert np.isfinite(rec.rmse) and rec.mmd2 >= -1e-9

    def test_bk_fraction_orients_more(self):
        few = build_case(small_config(bk_fraction=0.0, seed=29), 0, 0)
        more = build_case(small_config(bk_fraction=1.0, seed=29), 0, 0)
        assert len(more.mpdag.undirected_edges) <= len(few.mpdag.undirected_edges)
        # full background knowledge recovers the true DAG
        observed = [v for v in more.scm.dag.names if v != more.outcome]
        assert more.mpdag == more.scm.dag.induced_subgraph(observed)


class TestUnidentifiableMode:
    def test_candidates_enumerated_and_trainable(self):
        cfg = small_config(unidentifiable_mode=True, seed=2)
        case = build_case(cfg, 0, 0)
        assert len(case.candidates) == 2
        groups = {s.group for s in case.train_sets}
        assert groups == set(range(len(case.candidates)))
        rec, model = run_case(cfg, case, Variant.EPS_IFAIR, 5.0, 0)
        assert np.isfinite(rec.rmse) and rec.mmd2 >= -1e-9


def config_json(train=None, setting=None, **top) -> str:
    """Config text with one small graph setting, changed by the arguments."""
    raw = {"graph_settings": [{"d": 4, "s": 3, "count": 1} | (setting or {})]} | top
    if train is not None:
        raw["train"] = train
    return json.dumps(raw)


GOOD = config_json()
# each text and the start of the error it must raise: the section, then the key
BAD_CONFIGS = [
    ("[]", "config: expected an object"),
    ("{}", "config: missing key 'graph_settings'"),
    (config_json(sampl_n=50), "config: unknown key 'sampl_n'"),
    (config_json(lambda_grid=[0, 9]), "config: unknown key 'lambda_grid'"),
    (
        '{"sampl_n": 50, "train": {"epoch": 3, "lr": -1, "lambda_grid": []}}',
        "config: unknown key 'sampl_n'",
    ),
    (config_json(train={"epoch": 3}), "train: unknown key 'epoch'"),
    (config_json(train=[]), "train: expected an object"),
    (config_json(train=5), "train: expected an object"),
    (
        config_json(graph_settings=[{"d": 4, "s": 3, "count": 1}, {"d": 4, "edges": 3}]),
        "graph_settings[1]: unknown key 'edges'",
    ),
    ('{"graph_settings": [{"d": 4, "count": 1}]}', "graph_settings[0]: missing key 's'"),
    ('{"graph_settings": [7]}', "graph_settings[0]: expected an object"),
    ('{"graph_settings": {"d": 4, "s": 3, "count": 1}}', "config: graph_settings must be a list"),
    (config_json(graph_settings=[]), "config: graph_settings must be"),
    (config_json(seed=-1), "config: seed must be"),
    (config_json(seed=1.5), "config: seed must be"),
    (config_json(seed=True), "config: seed must be"),
    (config_json(max_candidates=-1), "config: max_candidates must be"),
    (config_json(sample_n=9), "config: sample_n must be"),
    (config_json(bk_fraction="0.5"), "config: bk_fraction must be"),
    (config_json(unidentifiable_mode="false"), "config: unidentifiable_mode must be"),
    (config_json(setting={"d": 1, "s": 0}), "graph_settings[0]: d must be"),
    (config_json(setting={"d": True}), "graph_settings[0]: d must be"),
    (config_json(setting={"s": 7}), "graph_settings[0]: s must be an integer in [0, 6]"),
    (config_json(setting={"s": -1}), "graph_settings[0]: s must be"),
    (config_json(setting={"count": 0}), "graph_settings[0]: count must be"),
    (config_json(setting={"admissible_count": -1}), "graph_settings[0]: admissible_count must be"),
    (config_json(train={"hidden_width": 0}), "train: hidden_width must be"),
    (config_json(train={"epochs": 0}), "train: epochs must be"),
    (config_json(train={"epochs": True}), "train: epochs must be"),
    (config_json(train={"epochs": 30.0}), "train: epochs must be"),
    (config_json(train={"lr": -1}), "train: lr must be"),
    (config_json(train={"lr": 0}), "train: lr must be"),
    (config_json(train={"lr": float("inf")}), "train: lr must be"),
    (config_json(train={"momentum": 1}), "train: momentum must be"),
    (config_json(train={"momentum": -0.1}), "train: momentum must be"),
    (config_json(train={"patience": -1}), "train: patience must be"),
    (config_json(train={"lambda_grid": []}), "train: lambda_grid must be"),
    (config_json(train={"lambda_grid": [0, -1]}), "train: lambda_grid must be"),
    (config_json(train={"lambda_grid": [float("nan")]}), "train: lambda_grid must be"),
    (config_json(train={"lambda_grid": 5}), "train: lambda_grid must be"),
    (config_json(train={"seeds": []}), "train: seeds must be"),
    (config_json(train={"binary_outcome": 0}), "train: binary_outcome must be"),
]


def test_good_config_loads():
    cfg = ExperimentConfig.from_json(GOOD)
    assert cfg.graph_settings == (GraphSetting(d=4, s=3, count=1),)
    assert cfg.train == TrainConfig()


@pytest.mark.parametrize("text, message", BAD_CONFIGS)
def test_bad_config_names_section_and_key(text, message):
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_json(text)
    assert str(exc.value).startswith(message)


class TestRunExperiment:
    @pytest.mark.parametrize("field, small", [("sample_n", 9), ("interventional_n", 4)])
    def test_config_rejects_samples_that_leave_a_split_empty(self, field, small):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: small})

    def test_smallest_samples_give_finite_rows(self, tmp_path):
        cfg = small_config(
            graph_settings=(GraphSetting(d=5, s=6, count=1),),
            sample_n=10,
            interventional_n=5,
            train=TrainConfig(epochs=5, patience=5, lambda_grid=(5.0,)),
        )
        rows = run_experiment(cfg, tmp_path).rows
        assert rows
        assert all(np.isfinite(float(r[k])) for r in rows for k in ("rmse", "mmd2"))

    @pytest.mark.parametrize("seeds", ["[true]", "[1.0]", '["0"]', "[-1]", "[0, 2, 0]"])
    def test_train_config_rejects_bad_seeds(self, seeds):
        with pytest.raises(ValueError, match="train: seeds"):
            train_from_json(f'{{"seeds": {seeds}}}')

    def test_seed_values_drive_the_run_seed(self, tmp_path):
        def rows(seeds):
            cfg = small_config(
                graph_settings=(GraphSetting(d=5, s=6, count=1),),
                train=TrainConfig(epochs=20, patience=10, lambda_grid=(5.0,), seeds=seeds),
            )
            found = run_experiment(cfg, tmp_path / str(seeds)).rows
            return {(r["model"], r["lambda"], r["seed"]): r["rmse"] for r in found}

        # seeds 0..k-1 keep the numbers of the earlier replicate-index seeding
        pair = rows((0, 1))
        before = {
            ("full", 0.0, 0): 1.1932737297632028,
            ("full", 0.0, 1): 1.0519011065657906,
            ("eps_ifair", 5.0, 0): 1.317684340170069,
            ("eps_ifair", 5.0, 1): 1.2586708942285605,
        }
        for key, rmse in before.items():
            assert float(pair[key]) == pytest.approx(rmse, rel=1e-9)
        zero = rows((0,))
        seven = rows((7,))
        assert zero.keys() and len(zero) == len(seven)
        for (model, lam, _), rmse in zero.items():
            assert seven[(model, lam, 7)] != rmse

    def test_plan_covers_baselines_and_grid(self):
        cfg = small_config()
        plan = run_plan(cfg)
        assert plan[:3] == [
            (Variant.FULL, 0.0),
            (Variant.UNAWARE, 0.0),
            (Variant.IFAIR, 0.0),
        ]
        assert [lam for v, lam in plan[3:]] == [0.0, 5.0]

    def test_rows_or_failures_for_every_run(self, tmp_path):
        cfg = small_config()
        result = run_experiment(cfg, tmp_path)
        expected = 2 * len(run_plan(cfg)) * len(cfg.train.seeds)
        assert len(result.rows) + len(
            [f for f in result.failures if f["stage"] == "train"]
        ) == expected - 5 * len(
            [f for f in result.failures if f["stage"] == "build"]
        )
        assert (tmp_path / "tradeoff.csv").exists()
        assert (tmp_path / "failures.csv").exists()
        conditionals = list((tmp_path / "models").glob("*conditionals*"))
        assert conditionals

    def test_failures_recorded_not_raised(self, tmp_path):
        # an infeasible candidate cap turns unidentifiable graphs into
        # recorded build failures instead of aborting the sweep
        cfg = small_config(unidentifiable_mode=True, max_candidates=0, seed=2)
        result = run_experiment(cfg, tmp_path)
        assert any(f["stage"] == "build" for f in result.failures)
        assert "exceed the candidate cap" in result.failures[0]["error"]


def test_dump_predictions_matches_csv_writer_bytes(tmp_path):
    preds = {
        0.0: np.array([-0.0, 1e-300, 1e16, 0.1, -2.5, 123456.789, np.nan, np.inf]),
        2.0: np.array([1.0, -1e-7, 5e-324]),
    }
    case = SimpleNamespace(
        truth_sets=[SimpleNamespace(sensitive_value=a, data=a) for a in (0.0, 2.0)]
    )
    model = SimpleNamespace(predict=lambda data: preds[data])
    got = tmp_path / "got.csv"
    _dump_predictions(got, case, model)

    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sensitive_value", "prediction"])
        for s in case.truth_sets:
            for value in model.predict(s.data):
                writer.writerow([repr(float(s.sensitive_value)), repr(float(value))])
    assert got.read_bytes() == expected.read_bytes()
