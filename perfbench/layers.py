"""Where the benchmark looks into each layer, and the per-layer metrics.

Every hook wraps a public function at the lookup its caller uses, so the
span sits on the boundary between two modules. Counts are taken from the
arguments and results at the same boundary. Times are per pass: inclusive
per operation (``<layer>.<op>_s``) and exclusive per layer (``<layer>.self_s``).

Which end-to-end metric each layer should move, and where:

- ``fair_train.*`` (training, evaluation, bandwidth, epoch costs): ``wall_s``
  and ``cases_per_s`` on ``sweep-id`` and ``sweep-unid``; no change on
  ``graph-scale``, which never trains.
- ``harness.*``: ``wall_s`` on ``sweep-id``, where the harness writes CSV,
  prediction and model dumps.
- ``meek_engine.*``, ``causal_ident.*``, ``ancestry.*``, ``graph_core.*``:
  ``cases_per_s`` on ``graph-scale``; no change on the sweeps, where they
  take under 1 % of the time.
- ``density_gen.*`` and ``scm_lab.*``: ``cases_per_s`` on ``graph-scale``
  and ``wall_s`` on ``sweep-unid`` (one bucket fit per candidate graph).
"""
from __future__ import annotations

from collections import Counter, defaultdict

from fairmpdag import (
    causal_ident,
    cli,
    density_gen,
    fair_train,
    graph_core,
    harness,
    meek_engine,
    scm_lab,
)
from fairmpdag.fair_train import TrainConfig

from tracer import Hook, Span, Tracer, bind_arguments, self_times

LAYERS = (
    "graph_core",
    "meek_engine",
    "causal_ident",
    "ancestry",
    "scm_lab",
    "density_gen",
    "fair_train",
    "harness",
)

# inclusive time per pass of every span with the given name
SPAN_TIMES = {
    "fair_train.train_s": "fair_train.train",
    "fair_train.eval_s": "fair_train.eval",
    "fair_train.bandwidth_s": "fair_train.bandwidth",
    "harness.build_s": "harness.build",
    "harness.run_s": "harness.run",
    "meek_engine.cpdag_s": "meek_engine.cpdag",
    "meek_engine.mpdag_s": "meek_engine.mpdag",
    "causal_ident.pco_s": "causal_ident.pco",
    "causal_ident.identify_s": "causal_ident.identify",
    "causal_ident.enumerate_s": "causal_ident.enumerate",
    "ancestry.dnd_s": "ancestry.dnd",
    "graph_core.build_s": "graph_core.build",
    "density_gen.fit_s": "density_gen.fit",
    "density_gen.generate_s": "density_gen.generate",
    "scm_lab.sample_s": "scm_lab.sample",
}

# counts per pass, straight from the tracer's counters
COUNTS = (
    "fair_train.epochs",
    "fair_train.penalised_epochs",
    "fair_train.bandwidth_calls",
    "meek_engine.bk_statements",
    "causal_ident.candidates",
    "ancestry.dnd_calls",
    "graph_core.pdag_builds",
    "density_gen.rows",
    "scm_lab.rows",
)


def _count(counts: Counter, key: str, size=lambda args, kwargs, result: 1):
    def after(args, kwargs, result, seconds):
        counts[key] += size(args, kwargs, result)

    return after


def _arg_size(fn, name: str, measure=lambda value: value):
    bind = bind_arguments(fn)
    return lambda args, kwargs, result: measure(bind(args, kwargs)[name])


def trace_hooks(tracer: Tracer) -> list[Hook]:
    """Span and count hooks for a traced pass, innermost lookups included."""
    counts = tracer.counts
    bind_train = bind_arguments(fair_train.train_predictor)

    def train_after(args, kwargs, model, seconds):
        arguments = bind_train(args, kwargs)
        config: TrainConfig = arguments["config"]
        sets = arguments["interventional"]
        epochs = epochs_run(model.best_epoch, config)
        counts["fair_train.epochs"] += epochs
        if arguments["lam"] > 0 and len(sets) > 0:
            counts["fair_train.penalised_epochs"] += epochs
            counts["penalised_train_s"] += seconds
            if len({s.sensitive_value for s in sets}) >= 3:
                counts["penalised_epochs_3level"] += epochs
            if len({s.group for s in sets}) >= 2:
                counts["penalised_epochs_multicandidate"] += epochs
        else:
            counts["plain_epochs"] += epochs
            counts["plain_train_s"] += seconds

    statements = _count(
        counts, "meek_engine.bk_statements", _arg_size(meek_engine.construct_mpdag, "bk", len)
    )
    sampled = _count(counts, "scm_lab.rows", _arg_size(scm_lab.sample_observational, "n"))
    clamped = _count(
        counts, "scm_lab.rows", _arg_size(scm_lab.sample_interventional_truth, "n")
    )
    return [
        Hook(cli, "run_experiment", "harness.experiment"),
        Hook(harness, "build_case", "harness.build"),
        Hook(harness, "run_case", "harness.run"),
        Hook(harness, "random_er_dag", "scm_lab.model"),
        Hook(harness, "random_linear_scm", "scm_lab.model"),
        Hook(harness, "sample_observational", "scm_lab.sample", sampled),
        Hook(harness, "sample_interventional_truth", "scm_lab.sample", clamped),
        Hook(harness, "cpdag_from_dag", "meek_engine.cpdag"),
        Hook(harness, "construct_mpdag", "meek_engine.mpdag", statements),
        Hook(causal_ident, "construct_mpdag", "meek_engine.mpdag", statements),
        Hook(harness, "is_identifiable", "causal_ident.identify"),
        Hook(harness, "identification_formula", "causal_ident.identify"),
        Hook(harness, "pco", "causal_ident.pco"),
        Hook(causal_ident, "pco", "causal_ident.pco"),
        Hook(harness, "enumerate_valid_orientations", "causal_ident.enumerate",
             _count(counts, "causal_ident.candidates", lambda a, k, result: len(result))),
        Hook(harness, "fit_bucket_conditionals", "density_gen.fit"),
        Hook(harness, "generate_interventional", "density_gen.generate",
             _count(counts, "density_gen.rows",
                    _arg_size(density_gen.generate_interventional, "n"))),
        Hook(harness, "train_predictor", "fair_train.train", train_after),
        Hook(harness, "evaluate", "fair_train.eval"),
        Hook(fair_train, "median_bandwidth", "fair_train.bandwidth",
             _count(counts, "fair_train.bandwidth_calls")),
        Hook(fair_train, "definite_nondescendants", "ancestry.dnd",
             _count(counts, "ancestry.dnd_calls")),
        Hook(graph_core.Pdag, "from_arrays", "graph_core.build",
             _count(counts, "graph_core.pdag_builds")),
    ]


def epochs_run(best_epoch: int, config: TrainConfig) -> int:
    """Epochs ``train_predictor`` ran, from its early-stopping rule.

    Training stops once ``patience + 1`` epochs in a row fail to improve on
    the best validation objective, or at the epoch cap.
    """
    return min(best_epoch + config.patience + 1, config.epochs)


def layer_metrics(spans: list[Span], counts: Counter, passes: int) -> dict[str, float]:
    """Per-pass means of span times, layer self times and counts."""
    totals: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span_id, _, name, start, end, _ in spans:
        totals[name] += end - start
        layer_self[name.split(".", 1)[0]] += selfs[span_id]
    out = {metric: totals[name] / passes for metric, name in SPAN_TIMES.items()}
    out.update({f"{layer}.self_s": layer_self[layer] / passes for layer in LAYERS})
    out.update({key: counts[key] / passes for key in COUNTS})
    out["fair_train.penalised_epoch_ms"] = _ratio(
        1000 * counts["penalised_train_s"], counts["fair_train.penalised_epochs"]
    )
    out["fair_train.plain_epoch_ms"] = _ratio(
        1000 * counts["plain_train_s"], counts["plain_epochs"]
    )
    pen = counts["fair_train.penalised_epochs"]
    out["workload.penalised_share_3level"] = _ratio(counts["penalised_epochs_3level"], pen)
    out["workload.penalised_share_multicandidate"] = _ratio(
        counts["penalised_epochs_multicandidate"], pen
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
