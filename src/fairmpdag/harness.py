"""Synthetic accuracy-fairness experiment pipeline.

For each graph setting: draw ER DAGs, build structural models, sample
observational data, recover the CPDAG from the known DAG, add the background
knowledge needed to identify the intervention (plus an optional fraction of
the remaining true orientations), fit bucket conditionals, generate
interventional training data from the identification formula, train every
predictor variant over the lambda grid, and score each run against
ground-truth interventional samples. Results land in ``tradeoff.csv`` with
per-run prediction dumps and serialized models; failures are recorded per
run instead of aborting the sweep, and a run whose rmse or mmd2 is not
finite is a failure, never a row.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
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
    FairPredictor,
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
from .graph_core import Pdag, located_message, parse_graph
from .meek_engine import check_mpdag, construct_mpdag, cpdag_from_dag
from .scm_lab import (
    Dataset,
    Scm,
    child_rng,
    derive_seed,
    random_er_dag,
    random_linear_scm,
    random_nonlinear_scm,
    sample_interventional_truth,
    sample_observational,
)


# The largest float64 array a config may ask for, in bytes. A graph of d
# vertices takes d x d products in its Meek closure, and a dataset of n rows
# an n x d block; a config past the bound fails at load, naming the key,
# instead of exhausting memory in ``build_case``.
MAX_ARRAY_BYTES = 2**27
MAX_D = math.isqrt(MAX_ARRAY_BYTES // 8)  # 4096


@dataclass(frozen=True)
class GraphSetting:
    d: int
    s: int
    count: int
    admissible_count: int = 0

    def __post_init__(self):
        _check_int("d", self.d, 2, MAX_D)  # at least the outcome and the sensitive vertex
        _check_int("s", self.s, 0, self.d * (self.d - 1) // 2)
        _check_int("count", self.count, 1)
        # every vertex but the outcome and the sensitive one may be admissible
        _check_int("admissible_count", self.admissible_count, 0, self.d - 2)

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
        # the label names a setting's rows, dumps and cpdag_dir files
        labels = [s.label for s in settings]
        for i, label in enumerate(labels):
            if (first := labels.index(label)) < i:
                raise ValueError(f"graph_settings[{i}]: same d and s as graph_settings[{first}]")
        _check_int("seed", self.seed, 0)
        # smaller samples leave a split empty: 8:1:1 observational, 8:2 generated
        _check_int("sample_n", self.sample_n, 10)
        _check_int("interventional_n", self.interventional_n, 5)
        d = max(s.d for s in settings)
        rows = MAX_ARRAY_BYTES // (8 * d)
        for name in ("sample_n", "interventional_n"):
            n = getattr(self, name)
            _check(name, n, n <= rows, f"at most {rows} (an n x d float64 block "
                   f"within {MAX_ARRAY_BYTES} bytes at d = {d})")
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
        raw = json.loads(text, object_pairs_hook=_JsonObject)
        cfg = _load(cls, raw, "config", graph_settings=[GraphSetting], train=TrainConfig)
        if cfg.cpdag_dir is not None:
            # the directory, then each file up to the first missing one
            files = (cfg.cpdag_path(i, gid) for i, setting in enumerate(cfg.graph_settings)
                     for gid in range(setting.count))
            for path in itertools.chain([Path(cfg.cpdag_dir)], files):
                if not os.path.exists(path):  # False, not an error, for a bad name
                    raise ValueError(f"config: cpdag_dir: no such file or directory '{path}'")
        return cfg

    def cpdag_path(self, setting_idx: int, graph_id: int) -> Path:
        """The file in ``cpdag_dir`` holding the CPDAG of one graph id."""
        label = self.graph_settings[setting_idx].label
        return Path(self.cpdag_dir) / f"{label}_g{graph_id}.graph"


class _JsonObject(dict):
    """A parsed JSON object that keeps the keys given more than once."""

    def __init__(self, pairs):
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = [key for key in self if keys.count(key) > 1]


def _load(cls, raw, section: str, **nested):
    """Build the config dataclass ``cls`` from the JSON object ``raw``.

    The dataclass is the schema: every key must be a field of ``cls``, and
    every field without a default must be given. ``nested`` maps a key to the
    dataclass of its object, or ``[dataclass]`` for a list of objects. Other
    lists become tuples; every other value is passed on as parsed (an int
    stays an int) for ``__post_init__`` to check. Errors name the section
    (``config``, ``train``, ``graph_settings[1]``) and the key; a key given
    twice is an error, not the last of its values.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{section}: expected an object, got {json.dumps(raw)}")
    if raw.repeated:
        raise ValueError(f"{section}: repeated key {raw.repeated[0]!r}")
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
    scm: Scm
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
        # of the CPDAG derived from the known DAG; it must be an MPDAG
        path = cfg.cpdag_path(setting_idx, graph_id)
        try:
            cpdag = check_mpdag(parse_graph(path.read_text()))
        except ValueError as exc:
            raise ValueError(located_message(path, exc)) from None
        if set(cpdag.names) != set(true_dag.names):
            missing = ", ".join(true_dag.sort_vertices(set(true_dag.names) - set(cpdag.names)))
            extra = ", ".join(cpdag.sort_vertices(set(cpdag.names) - set(true_dag.names)))
            raise ValueError(f"{path}: must hold exactly the observed vertices: "
                             f"missing {missing or 'none'}; extra {extra or 'none'}")
    else:
        cpdag = cpdag_from_dag(true_dag)
    rng = child_rng(case_seed, 9)
    pool = [v for v in true_dag.names if v != scm.sensitive]
    admissible = true_dag.sort_vertices(
        pool[i] for i in rng.choice(len(pool), size=setting.admissible_count, replace=False)
    )
    intervened = true_dag.sort_vertices({scm.sensitive, *admissible})

    # orientations can only be supplied for edges the ground truth also has;
    # a learned graph may carry spurious edges, which simply stay undirected
    undirected = sorted(
        (a, b) for a, b in cpdag.undirected_edges if true_dag.adjacent(a, b)
    )
    required, remaining = [], []
    for a, b in undirected:
        if not cfg.unidentifiable_mode and (a in intervened or b in intervened):
            required.append(_true_orientation(true_dag, a, b))
        else:
            remaining.append((a, b))
    n_extra = int(round(cfg.bk_fraction * len(remaining)))
    extra_idx = rng.choice(len(remaining), size=n_extra, replace=False) if n_extra else []
    extra = [_true_orientation(true_dag, *remaining[i]) for i in sorted(extra_idx)]
    mpdag = construct_mpdag(cpdag, required + extra)

    if is_identifiable(mpdag, intervened):
        candidates: tuple[Pdag, ...] = (mpdag,)
    else:
        cap = cfg.max_candidates
        candidates = tuple(enumerate_valid_orientations(mpdag, intervened, limit=cap + 1))
        if len(candidates) > cap:
            raise RuntimeError(f"more than {cap} candidate graphs exceed the candidate cap")

    levels = tuple(float(a) for a in range(scm.sensitive_levels))
    context = admissible_intervention_values(obs, admissible)
    context_key = tuple(sorted(context.items()))
    train_sets, conditionals = [], []
    for group, graph in enumerate(candidates):
        ordering = pco(graph.names, graph)
        models = fit_bucket_conditionals(obs.subset("train"), ordering, graph)
        conditionals.append(tuple(models))
        formula = identification_formula(graph, intervened, ordering)
        for li, a in enumerate(levels):
            data = generate_interventional(models, formula, {scm.sensitive: a, **context},
                                           cfg.interventional_n, derive_seed(case_seed, 3, group, li))
            train_sets.append(InterventionalSet(data, a, context=context_key, group=group))
    truth_sets = []
    for li, a in enumerate(levels):
        data = sample_interventional_truth(scm, {scm.sensitive: a, **context},
                                           cfg.interventional_n, derive_seed(case_seed, 4, li))
        truth_sets.append(InterventionalSet(data, a, context=context_key, group=0))

    return GraphCase(
        setting=setting,
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


class NonFiniteMetricError(ValueError):
    """A trained model scored a NaN or infinite rmse or mmd2."""


def run_case(
    cfg: ExperimentConfig, case: GraphCase, variant: Variant, lam: float, seed: int
) -> tuple[EvalRecord, FairPredictor]:
    """Train one predictor and score it; raises ``NonFiniteMetricError`` when
    its rmse or mmd2 is not finite."""
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
    if not (math.isfinite(record.rmse) and math.isfinite(record.mmd2)):
        raise NonFiniteMetricError(f"rmse={record.rmse!r} mmd2={record.mmd2!r} is not finite")
    return record, model


@dataclass
class ExperimentResult:
    rows: list[dict]
    failures: list[dict]


TRADEOFF_FIELDS = ("setting", "graph_id", "model", "lambda", "seed", "rmse", "mmd2")
FAILURE_FIELDS = ("setting", "graph_id", "model", "lambda", "seed", "stage", "error")


def run_graph(cfg: ExperimentConfig, setting_idx: int, graph_id: int) -> tuple[list, list, dict]:
    """One graph's tradeoff rows, failure rows and output files (a path under
    the output directory mapped to its text); touches no file. eps-IFair at
    lambda 0 reuses the successful Full run of its graph and seed."""
    label = cfg.graph_settings[setting_idx].label
    base = {"setting": label, "graph_id": graph_id}
    try:
        case = build_case(cfg, setting_idx, graph_id)
    except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
        failure = {"model": "", "lambda": "", "seed": "", "stage": "build", "error": str(exc)}
        return [], [base | failure], {}
    rows, failures, files = [], [], {}
    for group, models in enumerate(case.conditionals):
        files[f"models/{label}_g{graph_id}_conditionals_{group}.json"] = models_to_json(models)
    full_runs = {}  # seed -> (record, model, dump) of the successful Full run
    for variant, lam in run_plan(cfg):
        for seed in cfg.train.seeds:
            run_seed = derive_seed(cfg.seed, 5, setting_idx, graph_id, seed)
            tag = base | {"model": variant.value, "lambda": lam, "seed": seed}
            try:
                if variant is Variant.EPS_IFAIR and lam == 0 and seed in full_runs:
                    # unpenalised on the same features and seed, it is
                    # the Full predictor bit for bit
                    record, full, dump = full_runs[seed]
                    model = replace(full, variant=variant, lam=lam)
                else:
                    record, model = run_case(cfg, case, variant, lam, run_seed)
                    dump = None
            except NonFiniteMetricError as exc:
                failures.append(tag | {"stage": "eval", "error": str(exc)})
                continue
            except Exception as exc:  # noqa: BLE001
                failures.append(tag | {"stage": "train", "error": str(exc)})
                continue
            if dump is None:
                dump = _dump_predictions(case, model)
            if variant is Variant.FULL:
                full_runs[seed] = record, model, dump
            rows.append(tag | {"rmse": repr(record.rmse), "mmd2": repr(record.mmd2)})
            run_name = f"{label}_g{graph_id}_{variant.value}_lam{lam}_s{seed}"
            files[f"predictions/{run_name}.csv"] = dump
            files[f"models/{run_name}.json"] = model.to_json()
    return rows, failures, files


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> ExperimentResult:
    """Run the sweep graph by graph in plan order, writing each graph's files
    under predictions/ and models/, then appending its rows to tradeoff.csv and
    failures.csv, so an interrupted sweep keeps every finished graph. Dumps and
    models of an earlier sweep into ``out_dir`` (named ``<d>nodes<s>edges_g<id>_...``)
    are removed first; other files there are left alone."""
    out = Path(out_dir)
    for folder, suffix in (("predictions", "csv"), ("models", "json")):
        (out / folder).mkdir(parents=True, exist_ok=True)
        for stale in (out / folder).glob(f"*nodes*edges_g*.{suffix}"):
            stale.unlink()
    result = ExperimentResult(rows=[], failures=[])
    # line-buffered: a graph's rows reach the files before the next graph starts
    with (
        open(out / "tradeoff.csv", "w", newline="", buffering=1) as rows_fh,
        open(out / "failures.csv", "w", newline="", buffering=1) as failures_fh,
    ):
        rows_csv = csv.DictWriter(rows_fh, TRADEOFF_FIELDS, lineterminator="\n")
        failures_csv = csv.DictWriter(failures_fh, FAILURE_FIELDS, lineterminator="\n")
        rows_csv.writeheader()
        failures_csv.writeheader()
        for setting_idx, setting in enumerate(cfg.graph_settings):
            for graph_id in range(setting.count):
                rows, failures, files = run_graph(cfg, setting_idx, graph_id)
                for name, text in files.items():
                    (out / name).write_text(text)
                rows_csv.writerows(rows)
                failures_csv.writerows(failures)
                result.rows += rows
                result.failures += failures
    return result


def _dump_predictions(case: GraphCase, model) -> str:
    # float reprs never need CSV quoting, so the rows are joined by hand
    lines = ["sensitive_value,prediction\n"]
    for s in case.truth_sets:
        head = f"{float(s.sensitive_value)!r},"
        values = map(repr, model.predict(s.data).tolist())
        lines.append(head + ("\n" + head).join(values) + "\n")
    return "".join(lines)
