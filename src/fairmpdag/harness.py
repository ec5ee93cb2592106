"""Synthetic accuracy-fairness experiment pipeline.

For each graph setting: draw ER DAGs, build structural models, sample
observational data, recover the CPDAG from the known DAG, add the background
knowledge needed to identify the intervention (plus an optional fraction of
the remaining true orientations), fit bucket conditionals, generate
interventional training data from the identification formula, train every
predictor variant over the lambda grid, and score each run against
ground-truth interventional samples. Results land in ``tradeoff.csv`` with
per-run prediction dumps and serialized models; failures are recorded per
run instead of aborting the sweep.
"""
from __future__ import annotations

import csv
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .causal_ident import (
    enumerate_valid_orientations,
    identification_formula,
    is_identifiable,
    pco,
)
from .density_gen import fit_bucket_conditionals, generate_interventional, models_to_json
from .fair_train import (
    EvalRecord,
    InterventionalSet,
    TrainConfig,
    Variant,
    _check,
    _check_int,
    _is_finite,
    admissible_intervention_values,
    evaluate,
    median_bandwidth,
    train_predictor,
)
from .graph_core import Pdag, parse_graph
from .meek_engine import construct_mpdag, cpdag_from_dag
from .scm_lab import (
    Dataset,
    child_rng,
    derive_seed,
    random_er_dag,
    random_linear_scm,
    random_nonlinear_scm,
    sample_interventional_truth,
    sample_observational,
)


@dataclass(frozen=True)
class GraphSetting:
    d: int
    s: int
    count: int
    admissible_count: int = 0

    def __post_init__(self):
        _check_int("d", self.d, 2)  # the outcome and the sensitive vertex
        most = self.d * (self.d - 1) // 2
        ok = type(self.s) is int and 0 <= self.s <= most
        _check("s", self.s, ok, f"an integer in [0, {most}]")
        _check_int("count", self.count, 1)
        _check_int("admissible_count", self.admissible_count, 0)

    @property
    def label(self) -> str:
        return f"{self.d}nodes{self.s}edges"


@dataclass(frozen=True)
class ExperimentConfig:
    graph_settings: tuple[GraphSetting, ...]
    seed: int = 0
    sample_n: int = 1000
    interventional_n: int = 1000
    bk_fraction: float = 0.0
    scm_kind: str = "linear"
    unidentifiable_mode: bool = False
    max_candidates: int = 64
    cpdag_dir: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        settings = self.graph_settings
        ok = isinstance(settings, tuple) and settings
        _check("graph_settings", settings, ok, "a nonempty list")
        _check_int("seed", self.seed, 0)
        # smaller samples leave a split empty: 8:1:1 observational, 8:2 generated
        _check_int("sample_n", self.sample_n, 10)
        _check_int("interventional_n", self.interventional_n, 5)
        fraction = self.bk_fraction
        _check("bk_fraction", fraction, _is_finite(fraction) and 0 <= fraction <= 1, "in [0, 1]")
        kind = self.scm_kind
        _check("scm_kind", kind, kind in ("linear", "nonlinear"), "'linear' or 'nonlinear'")
        mode = self.unidentifiable_mode
        _check("unidentifiable_mode", mode, type(mode) is bool, "a bool")
        _check_int("max_candidates", self.max_candidates, 0)
        path = self.cpdag_dir
        _check("cpdag_dir", path, path is None or isinstance(path, str), "a path or null")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return _load(
            cls, json.loads(text), "config", graph_settings=[GraphSetting], train=TrainConfig
        )


def _load(cls, raw, section: str, **nested):
    """Build the config dataclass ``cls`` from the JSON object ``raw``.

    The dataclass is the schema: every key must be a field of ``cls``, and
    every field without a default must be given. ``nested`` maps a key to the
    dataclass of its object, or ``[dataclass]`` for a list of objects. Other
    lists become tuples; every other value is passed on as parsed (an int
    stays an int) for ``__post_init__`` to check. Errors name the section
    (``config``, ``train``, ``graph_settings[1]``) and the key.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{section}: expected an object, got {json.dumps(raw)}")
    declared = {f.name: f for f in fields(cls)}
    values = {}
    for key, value in raw.items():
        if key not in declared:
            raise ValueError(f"{section}: unknown key {key!r}")
        kind = nested.get(key)
        if isinstance(kind, list):
            if not isinstance(value, list):
                raise ValueError(f"{section}: {key} must be a list, got {json.dumps(value)}")
            value = [_load(kind[0], item, f"{key}[{i}]") for i, item in enumerate(value)]
        elif kind is not None:
            value = _load(kind, value, key)
        values[key] = tuple(value) if isinstance(value, list) else value
    for name, f in declared.items():
        if name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{section}: missing key {name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None


@dataclass(frozen=True)
class GraphCase:
    """Everything one graph contributes to the sweep."""

    setting: GraphSetting
    graph_id: int
    scm: object
    obs: Dataset
    mpdag: Pdag
    candidates: tuple[Pdag, ...]
    sensitive: str
    outcome: str
    admissible: tuple[str, ...]
    levels: tuple[float, ...]
    conditionals: tuple[tuple, ...]
    train_sets: tuple[InterventionalSet, ...]
    truth_sets: tuple[InterventionalSet, ...]
    eval_bandwidth: float


def build_case(cfg: ExperimentConfig, setting_idx: int, graph_id: int) -> GraphCase:
    """Generate data, graphs and interventional sets for one graph id."""
    setting = cfg.graph_settings[setting_idx]
    case_seed = derive_seed(cfg.seed, setting_idx, graph_id)
    dag_full = random_er_dag(setting.d, setting.s, derive_seed(case_seed, 0))
    make_scm = random_linear_scm if cfg.scm_kind == "linear" else random_nonlinear_scm
    scm = make_scm(dag_full, derive_seed(case_seed, 1))
    obs = sample_observational(scm, cfg.sample_n, derive_seed(case_seed, 2))

    observed = [v for v in scm.dag.names if v != scm.outcome]
    true_dag = scm.dag.induced_subgraph(observed)
    if cfg.cpdag_dir is not None:
        # externally learned graph (e.g. from a discovery algorithm) instead
        # of the CPDAG derived from the known DAG
        path = Path(cfg.cpdag_dir) / f"{setting.label}_g{graph_id}.graph"
        cpdag = parse_graph(path.read_text())
        if set(cpdag.names) != set(true_dag.names):
            raise ValueError(f"{path} does not cover the observed vertices")
    else:
        cpdag = cpdag_from_dag(true_dag)
    rng = child_rng(case_seed, 9)
    pool = [v for v in true_dag.names if v != scm.sensitive]
    k = min(setting.admissible_count, len(pool))
    admissible = true_dag.sort_vertices(
        pool[i] for i in rng.choice(len(pool), size=k, replace=False)
    )
    intervened = true_dag.sort_vertices({scm.sensitive, *admissible})

    # orientations can only be supplied for edges the ground truth also has;
    # a learned graph may carry spurious edges, which simply stay undirected
    undirected = sorted(
        (a, b) for a, b in cpdag.undirected_edges if true_dag.adjacent(a, b)
    )
    required = []
    if not cfg.unidentifiable_mode:
        required = [
            _true_orientation(true_dag, a, b)
            for a, b in undirected
            if a in intervened or b in intervened
        ]
    remaining = [
        (a, b) for a, b in undirected if (a, b) not in {tuple(sorted(e)) for e in required}
    ]
    n_extra = int(round(cfg.bk_fraction * len(remaining)))
    extra_idx = rng.choice(len(remaining), size=n_extra, replace=False) if n_extra else []
    extra = [_true_orientation(true_dag, *remaining[i]) for i in sorted(extra_idx)]
    mpdag = construct_mpdag(cpdag, required + extra)

    if is_identifiable(mpdag, intervened):
        candidates: tuple[Pdag, ...] = (mpdag,)
    else:
        loose = sum(
            1 for a, b in mpdag.undirected_edges if (a in intervened) != (b in intervened)
        )
        if 2**loose > 4 * cfg.max_candidates:
            raise RuntimeError(f"{2**loose} orientation assignments exceed the candidate cap")
        found = enumerate_valid_orientations(mpdag, intervened)
        if len(found) > cfg.max_candidates:
            raise RuntimeError(f"{len(found)} candidate graphs exceed the candidate cap")
        candidates = tuple(found)

    levels = tuple(float(a) for a in range(scm.sensitive_levels))
    context = admissible_intervention_values(obs, admissible)
    context_key = tuple(sorted(context.items()))
    obs_train = obs.subset("train")

    train_sets = []
    conditionals = []
    for group, graph in enumerate(candidates):
        ordering = pco(graph.names, graph)
        models = fit_bucket_conditionals(obs_train, ordering, graph)
        conditionals.append(tuple(models))
        formula = identification_formula(graph, intervened, ordering)
        for li, a in enumerate(levels):
            data = generate_interventional(
                models,
                formula,
                {scm.sensitive: a, **context},
                cfg.interventional_n,
                derive_seed(case_seed, 3, group, li),
            )
            train_sets.append(
                InterventionalSet(data, a, context=context_key, group=group)
            )
    truth_sets = []
    for li, a in enumerate(levels):
        data = sample_interventional_truth(
            scm,
            {scm.sensitive: a, **context},
            cfg.interventional_n,
            derive_seed(case_seed, 4, li),
        )
        truth_sets.append(InterventionalSet(data, a, context=context_key, group=0))

    return GraphCase(
        setting=setting,
        graph_id=graph_id,
        scm=scm,
        obs=obs,
        mpdag=mpdag,
        candidates=candidates,
        sensitive=scm.sensitive,
        outcome=scm.outcome,
        admissible=admissible,
        levels=levels,
        conditionals=tuple(conditionals),
        train_sets=tuple(train_sets),
        truth_sets=tuple(truth_sets),
        # one kernel bandwidth per graph so every run is scored with the
        # same unfairness metric; taken from the held-out outcome spread
        eval_bandwidth=median_bandwidth(obs.subset("test").columns[scm.outcome]),
    )


def _true_orientation(dag: Pdag, a: str, b: str) -> tuple[str, str]:
    return (a, b) if dag.has_directed(a, b) else (b, a)


def run_plan(cfg: ExperimentConfig) -> list[tuple[Variant, float]]:
    baselines = [(Variant.FULL, 0.0), (Variant.UNAWARE, 0.0), (Variant.IFAIR, 0.0)]
    return baselines + [(Variant.EPS_IFAIR, lam) for lam in cfg.train.lambda_grid]


def run_case(
    cfg: ExperimentConfig, case: GraphCase, variant: Variant, lam: float, seed: int
) -> tuple[EvalRecord, "FairPredictor"]:
    model = train_predictor(
        variant,
        lam,
        case.obs,
        case.train_sets,
        graph=case.mpdag,
        sensitive=case.sensitive,
        outcome=case.outcome,
        admissible=case.admissible,
        config=cfg.train,
        seed=seed,
    )
    record = evaluate(
        model,
        case.obs.subset("test"),
        case.truth_sets,
        outcome=case.outcome,
        bandwidth_mode=case.eval_bandwidth,
    )
    return record, model


@dataclass
class ExperimentResult:
    rows: list[dict]
    failures: list[dict]


TRADEOFF_FIELDS = ("setting", "graph_id", "model", "lambda", "seed", "rmse", "mmd2")
FAILURE_FIELDS = ("setting", "graph_id", "model", "lambda", "seed", "stage", "error")


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentResult:
    """Run the full sweep, writing tradeoff.csv, failures.csv, predictions/, models/."""
    out = Path(out_dir)
    (out / "predictions").mkdir(parents=True, exist_ok=True)
    (out / "models").mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    failures: list[dict] = []
    for setting_idx, setting in enumerate(cfg.graph_settings):
        for graph_id in range(setting.count):
            base = {"setting": setting.label, "graph_id": graph_id}
            try:
                case = build_case(cfg, setting_idx, graph_id)
            except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                failures.append(
                    base | {"model": "", "lambda": "", "seed": "", "stage": "build", "error": str(exc)}
                )
                continue
            for group, models in enumerate(case.conditionals):
                path = out / "models" / f"{setting.label}_g{graph_id}_conditionals_{group}.json"
                path.write_text(models_to_json(models))
            for variant, lam in run_plan(cfg):
                for seed in cfg.train.seeds:
                    run_seed = derive_seed(cfg.seed, 5, setting_idx, graph_id, seed)
                    tag = base | {"model": variant.value, "lambda": lam, "seed": seed}
                    try:
                        record, model = run_case(cfg, case, variant, lam, run_seed)
                    except Exception as exc:  # noqa: BLE001
                        failures.append(tag | {"stage": "train", "error": str(exc)})
                        continue
                    rows.append(tag | {"rmse": repr(record.rmse), "mmd2": repr(record.mmd2)})
                    run_name = f"{setting.label}_g{graph_id}_{variant.value}_lam{lam}_s{seed}"
                    _dump_predictions(out / "predictions" / f"{run_name}.csv", case, model)
                    (out / "models" / f"{run_name}.json").write_text(model.to_json())
    _write_csv(out / "tradeoff.csv", TRADEOFF_FIELDS, rows)
    _write_csv(out / "failures.csv", FAILURE_FIELDS, failures)
    return ExperimentResult(rows=rows, failures=failures)


def _dump_predictions(path: Path, case: GraphCase, model) -> None:
    # float reprs never need CSV quoting, so the rows are joined by hand
    with open(path, "w", newline="") as fh:
        fh.write("sensitive_value,prediction\n")
        for s in case.truth_sets:
            a = float(s.sensitive_value)
            fh.write("".join(f"{a!r},{v!r}\n" for v in model.predict(s.data).tolist()))


def _write_csv(path: Path, fields, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})
