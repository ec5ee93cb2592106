"""Self-tests of the benchmark's own arithmetic.

Every traced run runs them and reports a failure as incorrect output.
"""
from __future__ import annotations

from fairmpdag import harness
from fairmpdag.fair_train import TrainConfig, Variant
from fairmpdag.harness import ExperimentConfig, GraphSetting

from checks import same_outputs
from layers import trace_hooks
from tracer import Tracer, self_times


def epoch_accounting() -> list[str]:
    """``fair_train.epochs`` derived from the early-stopping rule must equal
    half the ``median_bandwidth`` calls the wrapper counted: with the median
    bandwidth, a penalised epoch makes one call for the training pass and one
    for the validation pass, per context, and this case has one context."""
    cfg = ExperimentConfig(
        graph_settings=(GraphSetting(d=6, s=8, count=1),),
        seed=3,
        sample_n=200,
        interventional_n=100,
        train=TrainConfig(epochs=400, patience=5),
    )
    case = harness.build_case(cfg, 0, 0)
    tracer = Tracer()
    with tracer.installed(trace_hooks(tracer)), tracer.recording_run(0):
        harness.run_case(cfg, case, Variant.EPS_IFAIR, 1.0, 0)
    epochs = tracer.counts["fair_train.epochs"]
    calls = tracer.counts["fair_train.bandwidth_calls"]
    problems = []
    if not 0 < epochs < cfg.train.epochs:
        problems.append(f"early stopping did not fire: {epochs} epochs")
    if 2 * epochs != calls:
        problems.append(f"{epochs} epochs derived, {calls} median_bandwidth calls counted")
    return problems


def self_time_arithmetic() -> list[str]:
    """Self time on a hand-built tree of nested spans."""
    spans = [
        (0, None, "root", 0.0, 10.0, 0),
        (1, 0, "a", 1.0, 4.0, 0),
        (2, 1, "a.child", 1.5, 2.5, 0),
        (3, 0, "b", 5.0, 7.0, 0),
        (4, 0, "c", 8.0, 9.0, 0),
    ]
    want = {0: 4.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0}
    got = self_times(spans)
    if any(abs(got[k] - v) > 1e-12 for k, v in want.items()):
        return [f"self times {got} != {want}"]
    return []


def nan_rows_compare_equal() -> list[str]:
    """A traced and a plain run that both give a NaN row give the same output."""
    nan_row = {"rmse": float("nan"), "mmd2": 0.5}
    problems = []
    if not same_outputs([nan_row], [dict(nan_row, rmse=float("nan"))]):
        problems.append("two NaN rows compare as different outputs")
    if same_outputs([nan_row], [dict(nan_row, mmd2=0.25)]):
        problems.append("rows with different mmd2 compare as the same output")
    return problems


def run_all() -> list[str]:
    return epoch_accounting() + self_time_arithmetic() + nan_rows_compare_equal()

