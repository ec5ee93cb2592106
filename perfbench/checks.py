"""Output checks: every case the harness builds and every planned run.

The probe wraps three harness lookups for the whole benchmark, traced or
not: ``construct_mpdag`` (to keep the background knowledge a case was built
with), ``build_case`` (to keep the case) and ``run_case`` (to keep the type
of any exception, which ``failures.csv`` does not record). The wrappers only
append to lists; the checks run after a pass, outside its timing.
"""
from __future__ import annotations

import math

import numpy as np
from fairmpdag import harness
from fairmpdag.causal_ident import is_identifiable
from fairmpdag.meek_engine import meek_closure

from tracer import Hook, bind_arguments


class Probe:
    """Collects what the checks need while the harness runs."""

    def __init__(self) -> None:
        self.keep = True  # off while the benchmark screens graphs: those are not checked
        self.built: list[tuple[object, list]] = []  # (case, construct_mpdag calls)
        self.errors: list[dict] = []
        self._mpdag_calls: list[tuple[object, tuple, object]] = []

    def hooks(self) -> list[Hook]:
        bind = bind_arguments(harness.construct_mpdag)

        def mpdag_after(args, kwargs, result, seconds):
            arguments = bind(args, kwargs)
            self._mpdag_calls.append((arguments["g"], tuple(arguments["bk"]), result))

        def build_after(args, kwargs, case, seconds):
            if self.keep:
                self.built.append((case, self._mpdag_calls))
            self._mpdag_calls = []

        def failed(stage):
            def on_error(args, kwargs, exc):
                self._mpdag_calls = []
                self.errors.append(
                    {"stage": stage, "type": type(exc).__name__, "error": str(exc)}
                )

            return on_error

        return [
            Hook(harness, "construct_mpdag", "probe.mpdag", after=mpdag_after),
            Hook(harness, "build_case", "probe.build", build_after, failed("build")),
            Hook(harness, "run_case", "probe.run", on_error=failed("train")),
        ]

    def drain(self) -> list[tuple[object, list]]:
        built = self.built
        self.built, self.errors = [], []
        return built


def check_case(case, mpdag_calls) -> list[str]:
    """Graph and data invariants of one built case; returns the problems found."""
    problems = []
    scm = case.scm
    dag = scm.dag.induced_subgraph(v for v in scm.dag.names if v != scm.outcome)
    g = case.mpdag
    tag = f"{case.setting.label} graph (sensitive {case.sensitive})"
    if meek_closure(g) != g:
        problems.append(f"{tag}: MPDAG is not a fixpoint of meek_closure")
    if g.names != dag.names or not np.array_equal(g.adjacency_mask, dag.adjacency_mask):
        problems.append(f"{tag}: MPDAG skeleton differs from the DAG's")
    wrong = [(a, b) for a, b in g.directed_edges if not dag.has_directed(a, b)]
    if wrong:
        problems.append(f"{tag}: MPDAG orients {wrong[:3]} against the DAG")
    final = [call for call in mpdag_calls if call[2] is g]
    if len(final) != 1:
        problems.append(f"{tag}: expected one construct_mpdag call, saw {len(final)}")
    else:
        missed = [(t, h) for t, h in final[0][1] if not g.has_directed(t, h)]
        if missed:
            problems.append(f"{tag}: background knowledge {missed[:3]} not oriented")
    intervened = {case.sensitive, *case.admissible}
    for cand in case.candidates:
        if meek_closure(cand) != cand or not is_identifiable(cand, intervened):
            problems.append(f"{tag}: candidate graph is not a closed, identifying MPDAG")
    for s in case.train_sets + case.truth_sets:
        clamp = {case.sensitive: s.sensitive_value, **dict(s.context)}
        for v, value in clamp.items():
            if not np.all(s.data.columns[v] == value):
                problems.append(f"{tag}: clamped column {v} differs from {value}")
    return problems


def undirected_counts(mpdag_calls) -> tuple[int, int]:
    """Undirected edges before and after background knowledge for one case."""
    g, _, result = mpdag_calls[-1]
    return len(g.undirected_edges), len(result.undirected_edges)


def same_outputs(a: list[dict], b: list[dict]) -> bool:
    """Whether two runs of one pass gave the same rows. Values are compared
    by ``repr``, so a NaN in both runs counts as the same output."""

    def key(records):
        return [tuple(repr(r.get(k)) for k in ("rmse", "mmd2", "ifair_features"))
                for r in records]

    return key(a) == key(b)


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)
