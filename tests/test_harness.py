import csv
import dataclasses
import io
import json
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmpdag import fair_train, harness
from fairmpdag.fair_train import TrainConfig, Variant, evaluate
from fairmpdag.harness import (
    ExperimentConfig,
    GraphSetting,
    NonFiniteMetricError,
    _dump_predictions,
    build_case,
    run_case,
    run_experiment,
    run_graph,
    run_plan,
)
from fairmpdag.scm_lab import derive_seed

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
        tags = {t for mechanism in case.scm.mechanism.values() for t in mechanism}
        assert tags - {"linear"}  # nonlinear ground truth
        rec, _ = run_case(cfg, case, Variant.EPS_IFAIR, 5.0, 0)
        assert np.isfinite(rec.rmse) and rec.mmd2 >= -1e-9

    def test_bk_fraction_orients_more(self):
        few = build_case(small_config(bk_fraction=0.0, seed=29), 0, 0)
        more = build_case(small_config(bk_fraction=1.0, seed=29), 0, 0)
        assert len(more.mpdag.undirected_edges) <= len(few.mpdag.undirected_edges)
        # full background knowledge recovers the true DAG
        observed = [v for v in more.scm.dag.names if v != more.outcome]
        assert more.mpdag == more.scm.dag.induced_subgraph(observed)

    def test_bk_fraction_draws_only_from_edges_not_required(self, monkeypatch):
        # at d >= 10 index order and string order of vertex names differ
        # (X6 before X10), so the split must not re-sort the pairs
        calls = []

        def record(g, bk):
            calls.append((g, list(bk)))
            return construct_mpdag(g, bk)

        construct_mpdag = harness.construct_mpdag
        monkeypatch.setattr(harness, "construct_mpdag", record)
        fraction = 0.5
        cfg = small_config(
            graph_settings=(GraphSetting(d=30, s=45, count=6, admissible_count=2),),
            seed=1,
            sample_n=100,
            interventional_n=20,
            bk_fraction=fraction,
        )
        for gid in range(6):
            case = build_case(cfg, 0, gid)
            cpdag, bk = calls[-1]
            intervened = {case.sensitive, *case.admissible}
            touching = [e for e in cpdag.undirected_edges if intervened & set(e)]
            rest = len(cpdag.undirected_edges) - len(touching)
            assert len(set(bk)) == len(bk) == len(touching) + round(fraction * rest)
            assert {frozenset(e) for e in touching} <= {frozenset(e) for e in bk}


class TestUnidentifiableMode:
    def test_candidates_enumerated_and_trainable(self):
        cfg = small_config(unidentifiable_mode=True, seed=2)
        case = build_case(cfg, 0, 0)
        assert len(case.candidates) == 2
        groups = {s.group for s in case.train_sets}
        assert groups == set(range(len(case.candidates)))
        rec, model = run_case(cfg, case, Variant.EPS_IFAIR, 5.0, 0)
        assert np.isfinite(rec.rmse) and rec.mmd2 >= -1e-9


    def test_max_candidates_is_the_one_cap(self):
        at_cap = small_config(unidentifiable_mode=True, seed=2, max_candidates=2)
        assert len(build_case(at_cap, 0, 0).candidates) == 2
        below = small_config(unidentifiable_mode=True, seed=2, max_candidates=1)
        with pytest.raises(RuntimeError, match="more than 1 candidate graphs exceed the candidate cap"):
            build_case(below, 0, 0)

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
    (
        config_json(graph_settings=[{"d": 5, "s": 5, "count": 1}, {"d": 6, "s": 5, "count": 1},
                                    {"d": 5, "s": 5, "count": 1, "admissible_count": 1}]),
        "config: graph_settings[2]: same d and s as graph_settings[0]",
    ),
    ('{"graph_settings": [7]}', "graph_settings[0]: expected an object"),
    # a repeated key is rejected, not read as its last value
    (
        '{"graph_settings":[{"d":4,"s":3,"count":1}],"seed":1,"seed":2,'
        '"train":{"epochs":5,"epochs":7}}',
        "config: repeated key 'seed'",
    ),
    (
        '{"graph_settings":[{"d":4,"s":3,"count":1}],"train":{"epochs":5,"epochs":7}}',
        "train: repeated key 'epochs'",
    ),
    ('{"graph_settings":[{"d":4,"s":3,"s":4,"count":1}]}', "graph_settings[0]: repeated key 's'"),
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
    # sizes past the load-time bound; loading builds nothing
    (config_json(setting={"d": 1000000}), "graph_settings[0]: d must be an integer in [2, 4096]"),
    (config_json(sample_n=10**9), "config: sample_n must be at most 4194304 (an n x d"),
    (config_json(interventional_n=10**9), "config: interventional_n must be at most 4194304"),
    (config_json(setting={"admissible_count": -1}), "graph_settings[0]: admissible_count must be"),
    # only the d - 2 vertices other than the outcome and the sensitive one
    (
        config_json(setting={"d": 5, "s": 6, "admissible_count": 9}),
        "graph_settings[0]: admissible_count must be an integer in [0, 3]",
    ),
    (config_json(setting={"admissible_count": 3}), "graph_settings[0]: admissible_count must be"),
    (config_json(train={"epochs": 0}), "train: epochs must be"),
    (config_json(train={"epochs": True}), "train: epochs must be"),
    (config_json(train={"epochs": 30.0}), "train: epochs must be"),
    (config_json(train={"patience": -1}), "train: patience must be"),
    (config_json(train={"lambda_grid": []}), "train: lambda_grid must be"),
    (config_json(train={"lambda_grid": [0, -1]}), "train: lambda_grid must be"),
    (config_json(train={"lambda_grid": [float("nan")]}), "train: lambda_grid must be"),
    (config_json(train={"lambda_grid": 5}), "train: lambda_grid must be"),
    (config_json(train={"lambda_grid": [0.5, 0.5]}), "train: lambda_grid must be"),
    (config_json(train={"lambda_grid": [0, 5, 0.0]}), "train: lambda_grid must be"),
    # JSON allows an int past the float range; it is not a finite number
    (config_json(train={"lambda_grid": [0, 10**400]}), "train: lambda_grid must be"),
    (config_json(bk_fraction=10**400), "config: bk_fraction must be"),
    (config_json(train={"seeds": []}), "train: seeds must be"),
    # the binary-outcome mode is gone, and its key with it
    (config_json(train={"binary_outcome": False}), "train: unknown key 'binary_outcome'"),
    # training always takes the median-heuristic bandwidth, and the key is gone
    (config_json(train={"bandwidth_mode": "median"}), "train: unknown key 'bandwidth_mode'"),
    (config_json(train={"bandwidth_mode": 2}), "train: unknown key 'bandwidth_mode'"),
    # every run trains the same network and optimiser, and their keys are gone
    (config_json(train={"hidden_width": 32}), "train: unknown key 'hidden_width'"),
    (config_json(train={"lr": 0.01}), "train: unknown key 'lr'"),
    (config_json(train={"momentum": 0.9}), "train: unknown key 'momentum'"),
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


def readme_config() -> str:
    """The README's example experiment config: its one JSON block with graph settings."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (text,) = [b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if "graph_settings" in b]
    return text


def test_readme_example_config_loads_and_spells_out_the_defaults():
    cfg = ExperimentConfig.from_json(readme_config())
    assert cfg == ExperimentConfig(graph_settings=(GraphSetting(d=10, s=20, count=10),))


SECTIONS = {"config": ExperimentConfig, "train": TrainConfig, "graph_settings": GraphSetting}
# any JSON value, with ints past the float range and the schema's own keys
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=12) | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from([f.name for cls in SECTIONS.values() for f in dataclasses.fields(cls)])
        | st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _positions(raw, path=()):
    """The path of every value in the parsed JSON ``raw``, the root included."""
    yield path
    if isinstance(raw, (dict, list)):
        for key, value in raw.items() if isinstance(raw, dict) else enumerate(raw):
            yield from _positions(value, path + (key,))


def _replaced(raw, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(raw))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_mutated_config_loads_or_names_section_and_key(data):
    raw = json.loads(readme_config())
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_positions(raw))))
        raw = _replaced(raw, path, data.draw(JSON_VALUES))
    try:
        ExperimentConfig.from_json(json.dumps(raw))
    except ValueError as exc:  # any other exception fails the test
        message = str(exc)
        found = re.match(r"(config|train|graph_settings)(?:\[\d+\])?: (\w+)", message)
        assert found, message
        section, word = found.groups()
        keys = {f.name for f in dataclasses.fields(SECTIONS[section])}
        whole = re.match(r"\S+ (expected an object|(unknown|missing|repeated) key ')", message)
        assert word in keys or whole, message


@pytest.mark.parametrize("cpdag_dir, missing", [("none", "none"), (".", "4nodes3edges_g0.graph")])
def test_cpdag_dir_check_stops_at_the_first_missing_path(tmp_path, cpdag_dir, missing):
    # listing 10^9 file names first would take hours
    text = config_json(setting={"count": 10**9}, cpdag_dir=str(tmp_path / cpdag_dir))
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_json(text)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == f"config: cpdag_dir: no such file or directory '{tmp_path / missing}'"


def test_cpdag_dir_name_too_long_for_the_system_is_a_message():
    with pytest.raises(ValueError, match="config: cpdag_dir: no such file or directory"):
        ExperimentConfig.from_json(config_json(cpdag_dir="a" * 300))


def test_size_bounds_hold_at_their_limits():
    d = harness.MAX_D
    assert 8 * d * d <= harness.MAX_ARRAY_BYTES < 8 * (d + 1) ** 2
    rows = harness.MAX_ARRAY_BYTES // (8 * d)
    cfg = ExperimentConfig.from_json(
        config_json(setting={"d": d}, sample_n=rows, interventional_n=rows)
    )
    assert (cfg.graph_settings[0].d, cfg.sample_n, cfg.interventional_n) == (d, rows, rows)
    for key in ("sample_n", "interventional_n"):
        # the largest d of all settings sets the row bound
        raw = json.loads(config_json(**{key: rows + 1}))
        raw["graph_settings"].append({"d": d, "s": 3, "count": 1})
        with pytest.raises(ValueError, match=f"config: {key} must be at most {rows} "):
            ExperimentConfig.from_json(json.dumps(raw))


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
            [f for f in result.failures if f["stage"] in ("train", "eval")]
        ) == expected - 5 * len(
            [f for f in result.failures if f["stage"] == "build"]
        )
        assert (tmp_path / "tradeoff.csv").exists()
        assert (tmp_path / "failures.csv").exists()
        conditionals = list((tmp_path / "models").glob("*conditionals*"))
        assert conditionals

    def test_a_second_sweep_into_the_same_directory_leaves_no_stale_run(self, tmp_path):
        # lambda grid (0, 5) and then (0) into one directory: the second sweep
        # leaves exactly what it writes into a fresh one, plus files not
        # named like its own
        def sweep(grid, out):
            cfg = small_config(
                graph_settings=(GraphSetting(d=5, s=6, count=1),),
                train=TrainConfig(epochs=10, patience=5, lambda_grid=grid),
            )
            return run_experiment(cfg, out)

        out = tmp_path / "out"
        sweep((0, 5.0), out)
        stale = "5nodes6edges_g0_eps_ifair_lam5.0_s0"
        assert (out / "predictions" / f"{stale}.csv").exists()
        assert (out / "models" / f"{stale}.json").exists()
        (out / "config.json").write_text("{}")
        (out / "predictions" / "notes.csv").write_text("kept")
        (out / "models" / "other.json").write_text("kept")
        result = sweep((0,), out)
        sweep((0,), tmp_path / "fresh")
        assert {row["lambda"] for row in result.rows} == {0}
        kept = _graph_files(out)
        assert kept.pop("predictions/notes.csv") == b"kept"
        assert kept.pop("models/other.json") == b"kept"
        assert kept == _graph_files(tmp_path / "fresh")
        assert (out / "config.json").read_text() == "{}"
        fresh = (tmp_path / "fresh" / "tradeoff.csv").read_text()
        assert (out / "tradeoff.csv").read_text() == fresh

    def test_failures_recorded_not_raised(self, tmp_path):
        # an infeasible candidate cap turns unidentifiable graphs into
        # recorded build failures instead of aborting the sweep
        cfg = small_config(unidentifiable_mode=True, max_candidates=0, seed=2)
        result = run_experiment(cfg, tmp_path)
        assert any(f["stage"] == "build" for f in result.failures)
        assert "exceed the candidate cap" in result.failures[0]["error"]

    def test_non_finite_metrics_are_eval_failures_not_rows(self, tmp_path, monkeypatch):
        # an infinite output bias makes every prediction inf: rmse inf, mmd2 NaN
        train = harness.train_predictor

        def inf_when_penalised(variant, lam, *args, **kwargs):
            model = train(variant, lam, *args, **kwargs)
            if lam > 0:
                model.weights["b2"] = np.array([np.inf])
            return model

        monkeypatch.setattr(harness, "train_predictor", inf_when_penalised)
        cfg = small_config(graph_settings=(GraphSetting(d=5, s=6, count=1),))
        case = build_case(cfg, 0, 0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteMetricError, match="rmse=inf mmd2=nan"):
                run_case(cfg, case, Variant.EPS_IFAIR, 5.0, 0)
            result = run_experiment(cfg, tmp_path)
        assert [(f["model"], f["lambda"], f["stage"]) for f in result.failures] == [
            ("eps_ifair", 5.0, "eval")
        ]
        assert len(result.rows) == len(run_plan(cfg)) - 1
        assert all(np.isfinite(float(r[k])) for r in result.rows for k in ("rmse", "mmd2"))
        with open(tmp_path / "failures.csv", newline="") as fh:
            assert [r["stage"] for r in csv.DictReader(fh)] == ["eval"]
        assert not list((tmp_path / "predictions").glob("*lam5.0*"))

    def test_eps_ifair_at_zero_reuses_the_full_run(self, tmp_path, monkeypatch):
        # unpenalised, eps-IFair is the Full predictor: one training fewer per
        # graph and seed, and the same row, dump and model file as training it
        calls = []
        train = harness.train_predictor

        def counted(variant, lam, *args, **kwargs):
            calls.append((variant, lam))
            return train(variant, lam, *args, **kwargs)

        monkeypatch.setattr(harness, "train_predictor", counted)
        dumps = []
        dump_predictions = harness._dump_predictions
        monkeypatch.setattr(
            harness, "_dump_predictions", lambda *a: dumps.append(a) or dump_predictions(*a)
        )
        cfg = small_config(
            train=TrainConfig(epochs=30, patience=15, lambda_grid=(0, 5.0), seeds=(0, 1))
        )
        result = run_experiment(cfg, tmp_path / "out")
        assert not result.failures
        graphs_and_seeds = cfg.graph_settings[0].count * len(cfg.train.seeds)
        assert len(calls) == graphs_and_seeds * (len(run_plan(cfg)) - 1)
        assert (Variant.EPS_IFAIR, 0) not in calls
        assert len(dumps) == len(calls)  # the copy reuses the Full run's dump text
        monkeypatch.setattr(harness, "train_predictor", train)
        for gid in range(cfg.graph_settings[0].count):
            case = build_case(cfg, 0, gid)
            for seed in cfg.train.seeds:
                run_seed = derive_seed(cfg.seed, 5, 0, gid, seed)
                record, model = run_case(cfg, case, Variant.EPS_IFAIR, 0, run_seed)
                name = f"5nodes6edges_g{gid}_eps_ifair_lam0_s{seed}"
                written = (tmp_path / "out" / "models" / f"{name}.json").read_text()
                assert written == model.to_json()
                dump = tmp_path / "out" / "predictions" / f"{name}.csv"
                assert dump.read_bytes() == _dump_predictions(case, model).encode()
                [row] = [
                    r for r in result.rows
                    if (r["graph_id"], r["model"], r["lambda"], r["seed"])
                    == (gid, "eps_ifair", 0, seed)
                ]
                assert (row["rmse"], row["mmd2"]) == (repr(record.rmse), repr(record.mmd2))

    def test_eps_ifair_at_zero_trains_when_the_full_run_failed(self, tmp_path, monkeypatch):
        train = harness.train_predictor

        def full_fails(variant, lam, *args, **kwargs):
            if variant is Variant.FULL:
                raise RuntimeError("full run failed")
            return train(variant, lam, *args, **kwargs)

        monkeypatch.setattr(harness, "train_predictor", full_fails)
        cfg = small_config(
            graph_settings=(GraphSetting(d=5, s=6, count=1),),
            train=TrainConfig(epochs=30, patience=15, lambda_grid=(0, 5.0)),
        )
        result = run_experiment(cfg, tmp_path)
        assert [(f["model"], f["stage"]) for f in result.failures] == [("full", "train")]
        assert [(r["model"], r["lambda"]) for r in result.rows][-2:] == [
            ("eps_ifair", 0), ("eps_ifair", 5.0)
        ]

    def test_cpdag_dir_checked_at_load_and_parse_errors_located(self, tmp_path):
        text = config_json(setting={"count": 2}, cpdag_dir=str(tmp_path))
        paths = [tmp_path / f"4nodes3edges_g{gid}.graph" for gid in range(2)]
        paths[0].write_text("A -> B\nA => C\n")
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.from_json(text)
        assert str(exc.value) == f"config: cpdag_dir: no such file or directory '{paths[1]}'"
        paths[1].write_text("A -> B\nA => C\n")
        result = run_experiment(ExperimentConfig.from_json(text), tmp_path / "out")
        assert [(f["stage"], f["error"]) for f in result.failures] == [
            ("build", f"{path}:2: unknown token in 'A => C'") for path in paths
        ]

    def test_cpdag_dir_files_must_be_mpdags(self, tmp_path):
        # the learned graph is checked where it enters; the derived CPDAG is not
        text = config_json(setting={"count": 4}, cpdag_dir=str(tmp_path))
        paths = [tmp_path / f"4nodes3edges_g{gid}.graph" for gid in range(4)]
        paths[0].write_text("A -> B\nB -- C\n")
        paths[1].write_text("A -- B\nB -- C\nC -- D\nD -- A\n")
        # graph 2 observes X1, X2 and X4, graph 3 X2, X3 and X4 (the rest is the outcome)
        paths[2].write_text("X1 -> X2\nA -> B\n")
        paths[3].write_text("X2 -> X4\n")
        result = run_experiment(ExperimentConfig.from_json(text), tmp_path / "out")
        observed = "must hold exactly the observed vertices"
        assert [(f["stage"], f["error"]) for f in result.failures] == [
            ("build", f"{paths[0]}: not closed under Meek's rules: they orient B -> C"),
            ("build", f"{paths[1]}: no consistent extension: none of A, B, C, D can come last"),
            ("build", f"{paths[2]}: {observed}: missing X4; extra A, B"),
            ("build", f"{paths[3]}: {observed}: missing X3; extra none"),
        ]


def _csv_text(fields, rows) -> str:
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def _graph_files(out) -> dict[str, bytes]:
    """Every file of a sweep's output directory but the two CSVs."""
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in out.glob("*/*")}


class TestRunGraph:
    @pytest.mark.parametrize("overrides", [
        {},
        # graph 0 has two candidate graphs, graph 1 is a candidate-cap failure
        {"unidentifiable_mode": True, "max_candidates": 2, "seed": 4},
    ])
    def test_touches_no_file_and_returns_what_the_sweep_writes(
        self, tmp_path, monkeypatch, overrides
    ):
        cfg = small_config(**overrides)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        graphs = [run_graph(cfg, 0, gid) for gid in range(2)]
        assert list(work.iterdir()) == []
        result = run_experiment(cfg, tmp_path / "out")
        rows = [row for rows, _, _ in graphs for row in rows]
        failures = [row for _, failures, _ in graphs for row in failures]
        files = {name: text.encode() for _, _, files in graphs for name, text in files.items()}
        assert (result.rows, result.failures) == (rows, failures)
        assert _graph_files(tmp_path / "out") == files
        tradeoff = (tmp_path / "out" / "tradeoff.csv").read_text()
        assert tradeoff == _csv_text(harness.TRADEOFF_FIELDS, rows)
        written = (tmp_path / "out" / "failures.csv").read_text()
        assert written == _csv_text(harness.FAILURE_FIELDS, failures)

    def test_interrupted_sweep_keeps_every_finished_graph(self, tmp_path, monkeypatch):
        cfg = small_config()  # one setting, count=2
        finished_rows, finished_failures, finished_files = run_graph(cfg, 0, 0)
        built, build, run = [], harness.build_case, harness.run_case

        def remember(cfg, setting_idx, graph_id):
            built.append(graph_id)
            return build(cfg, setting_idx, graph_id)

        def interrupted(*args):
            if built[-1] == 1:
                raise KeyboardInterrupt
            return run(*args)

        monkeypatch.setattr(harness, "build_case", remember)
        monkeypatch.setattr(harness, "run_case", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, out)
        assert built == [0, 1]
        assert (out / "tradeoff.csv").read_text() == _csv_text(
            harness.TRADEOFF_FIELDS, finished_rows
        )
        assert (out / "failures.csv").read_text() == _csv_text(
            harness.FAILURE_FIELDS, finished_failures
        )
        assert finished_rows and all(row["graph_id"] == 0 for row in finished_rows)
        assert _graph_files(out) == {
            name: text.encode() for name, text in finished_files.items()
        }


def test_runs_leave_the_case_data_unwritten():
    # every split a run reads is a view of the case's columns, so a run that
    # wrote into its rows would change the data of every later run
    cfg = small_config()
    case = build_case(cfg, 0, 0)
    datasets = [case.obs] + [s.data for s in case.train_sets + case.truth_sets]

    def snapshot():
        return [{name: col.tobytes() for name, col in d.columns.items()} for d in datasets]

    before = snapshot()
    _, model = run_case(cfg, case, Variant.EPS_IFAIR, 5.0, 0)
    evaluate(model, case.obs.subset("test"), case.truth_sets, outcome=case.outcome)
    assert snapshot() == before


def test_penalised_run_never_takes_the_exact_kernel(monkeypatch):
    # the exact moments are the fallback for contexts wider than _SPAN_CAP
    # kernel widths; a short penalised run on a small graph stays under it in
    # training, validation and evaluation
    spans, exact = [], []
    interpolated, exact_moments = fair_train._interpolated_moments, fair_train._exact_moments
    monkeypatch.setattr(fair_train, "_interpolated_moments",
                        lambda *a: spans.append(a[-1]) or interpolated(*a))
    monkeypatch.setattr(fair_train, "_exact_moments",
                        lambda *a: exact.append(a) or exact_moments(*a))
    cfg = small_config()
    record, _ = run_case(cfg, build_case(cfg, 0, 0), Variant.EPS_IFAIR, 5.0, 0)
    assert np.isfinite(record.mmd2)
    assert len(exact) == 0
    assert spans and max(spans) <= fair_train._SPAN_CAP


@pytest.mark.parametrize("overrides", [
    # a 3-level sensitive vertex; a 2-level one with two candidate graphs
    {"graph_settings": (GraphSetting(d=10, s=20, count=1),), "seed": 0},
    {"graph_settings": (GraphSetting(d=10, s=12, count=1),), "seed": 2,
     "unidentifiable_mode": True},
])
def test_penalised_run_never_lists_every_gap(monkeypatch, overrides):
    # bench-shaped contexts (1000 rows per sample and interventional set) find
    # the median gap inside the bias-corrected bracket; listing every gap is
    # the fallback
    brackets = []
    gaps_between = fair_train._gaps_between
    monkeypatch.setattr(fair_train, "_gaps_between",
                        lambda s, lo, hi: brackets.append((lo, hi)) or gaps_between(s, lo, hi))
    cfg = small_config(
        sample_n=1000, interventional_n=1000,
        train=TrainConfig(epochs=10, lambda_grid=(5.0,)), **overrides,
    )
    case = build_case(cfg, 0, 0)
    assert (len(case.levels), len(case.candidates)) in ((3, 1), (2, 2))
    record, _ = run_case(cfg, case, Variant.EPS_IFAIR, 5.0, 0)
    assert np.isfinite(record.mmd2)
    assert len(brackets) >= 20
    assert (-np.inf, np.inf) not in brackets


def test_dump_predictions_matches_csv_writer_bytes(tmp_path):
    preds = {
        0.0: np.array([-0.0, 1e-300, 1e16, 0.1, -2.5, 123456.789, np.nan, np.inf]),
        2.0: np.array([1.0, -1e-7, 5e-324]),
    }
    case = SimpleNamespace(
        truth_sets=[SimpleNamespace(sensitive_value=a, data=a) for a in (0.0, 2.0)]
    )
    model = SimpleNamespace(predict=lambda data: preds[data])
    got = _dump_predictions(case, model)

    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sensitive_value", "prediction"])
        for s in case.truth_sets:
            for value in model.predict(s.data):
                writer.writerow([repr(float(s.sensitive_value)), repr(float(value))])
    assert got.encode() == expected.read_bytes()


def test_dump_predictions_matches_row_formatter_bytes():
    # a built case and a trained model: the joined rows equal one formatted
    # line per prediction
    cfg = small_config(train=TrainConfig(epochs=5, patience=5))
    case = build_case(cfg, 0, 0)
    _, model = run_case(cfg, case, Variant.FULL, 0.0, 0)
    got = _dump_predictions(case, model)
    expected = "sensitive_value,prediction\n" + "".join(
        f"{float(s.sensitive_value)!r},{v!r}\n"
        for s in case.truth_sets
        for v in model.predict(s.data).tolist()
    )
    assert got == expected
