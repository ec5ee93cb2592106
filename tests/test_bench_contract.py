"""The benchmark in ``perfbench/`` wraps program functions by name.

Each hook replaces ``owner.attr`` through ``vars(owner)[attr]``, so a
refactor that drops or moves one of those names raises ``KeyError`` when the
hooks are installed. The untraced probe is installed on every run, so such a
refactor breaks every benchmark run, not only traced ones. Some hooks also
read call arguments by parameter name, so renaming a parameter breaks them
the same way. The workloads and output checks also call harness functions
with positional arguments and read fields of the cases and records they
return; those are checked here too, so a harness refactor that breaks the
benchmark fails the tests first.
"""
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

from fairmpdag import causal_ident, density_gen, fair_train, harness, meek_engine, scm_lab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from checks import Probe  # noqa: E402
from layers import trace_hooks  # noqa: E402
from selftest import epoch_accounting  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_every_hooked_name_is_defined_on_its_owner():
    hooks = trace_hooks(Tracer()) + Probe().hooks()
    missing = [
        f"{getattr(h.owner, '__name__', h.owner)}.{h.attr}"
        for h in hooks
        if h.attr not in vars(h.owner)
    ]
    assert not missing


def test_epoch_accounting_self_test_passes():
    # epochs derived from the early-stopping rule must equal half the
    # median_bandwidth calls: one per context in the training and in the
    # validation pass of each penalised epoch
    assert epoch_accounting() == []


BOUND_BY_NAME = [
    (harness, "construct_mpdag", {"g", "bk"}),
    (causal_ident, "construct_mpdag", {"g", "bk"}),
    (meek_engine, "construct_mpdag", {"g", "bk"}),
    (fair_train, "train_predictor", {"config", "interventional", "lam"}),
    (density_gen, "generate_interventional", {"n"}),
    (scm_lab, "sample_observational", {"n"}),
    (scm_lab, "sample_interventional_truth", {"n"}),
]


@pytest.mark.parametrize(
    "owner, attr, names",
    BOUND_BY_NAME,
    ids=[f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}" for owner, attr, _ in BOUND_BY_NAME],
)
def test_parameters_the_bench_binds_by_name(owner, attr, names):
    assert names <= set(inspect.signature(vars(owner)[attr]).parameters)


CALLED_POSITIONALLY = [
    (harness, "build_case", ["cfg", "setting_idx", "graph_id"]),
    (harness, "run_case", ["cfg", "case", "variant", "lam", "seed"]),
    (harness, "run_plan", ["cfg"]),
]


@pytest.mark.parametrize(
    "owner, attr, names", CALLED_POSITIONALLY, ids=[attr for _, attr, _ in CALLED_POSITIONALLY]
)
def test_parameters_the_bench_passes_by_position(owner, attr, names):
    assert list(inspect.signature(vars(owner)[attr]).parameters) == names


FIELDS_READ = [
    (harness.GraphCase, {"scm", "mpdag", "candidates", "sensitive", "admissible", "levels",
                         "setting", "train_sets", "truth_sets"}),
    (fair_train.InterventionalSet, {"context", "sensitive_value", "data"}),
    (fair_train.EvalRecord, {"rmse", "mmd2"}),
    (scm_lab.Scm, {"dag", "outcome"}),
    (scm_lab.Dataset, {"columns"}),
]


@pytest.mark.parametrize("cls, names", FIELDS_READ, ids=[cls.__name__ for cls, _ in FIELDS_READ])
def test_fields_the_bench_reads(cls, names):
    assert names <= {f.name for f in dataclasses.fields(cls)}
