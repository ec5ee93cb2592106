"""Ground-truth generative models and sampling.

Random ER DAGs and one structural model over them: each vertex is its
standard-normal noise plus the weighted sum of its parents, pushed through
a per-vertex mechanism. Linear models draw weights of magnitude 0.1..1 and
use the identity mechanism; nonlinear models use unit weights and a random
sin/cos/tanh/sigmoid mechanism, the sigmoid being 1 / (1 + exp(-x)).
Sampling is ancestral for observational data and by clamping for true
interventional data. The discrete sensitive vertex has its incoming edges
removed when a model is built so its uniform exogenous draw stays
consistent with the graph.

All randomness flows from a single integer seed through
:func:`numpy.random.SeedSequence` spawn keys, so any sampling step is
reproducible independently of the others.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph_core import GraphError, Pdag


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for stream ``key`` of the root ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def derive_seed(seed: int, *key: int) -> int:
    """Stable integer sub-seed for stream ``key`` of the root ``seed``."""
    state = np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)
    return int(state[0])


SPLIT_811 = (("train", 8), ("val", 1), ("test", 1))
SPLIT_82 = (("train", 8), ("val", 2))


def split_rows(n: int, scheme: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """(tag, rows) runs in row order, in proportion to the integer weights of
    ``scheme``; the remainder goes to the first run."""
    total = sum(w for _, w in scheme)
    counts = [n * w // total for _, w in scheme]
    counts[0] += n - sum(counts)
    return tuple((tag, count) for (tag, _), count in zip(scheme, counts))


@dataclass(frozen=True)
class Dataset:
    """Named columns of equal length, split into contiguous runs of rows:
    ``split`` holds one (tag, rows) run per tag, in row order."""

    columns: dict[str, np.ndarray]
    split: tuple[tuple[str, int], ...]

    def __post_init__(self):
        tags = [tag for tag, _ in self.split]
        for tag, rows in self.split:
            if tags.count(tag) > 1:
                raise ValueError(f"split {tag!r} appears more than once")
            if rows < 0:
                raise ValueError(f"split {tag!r} has a negative row count {rows}")
        n = self.n
        for name, col in self.columns.items():
            if len(col) != n:
                raise ValueError(f"column {name!r} has {len(col)} rows; the split sums to {n}")

    @property
    def n(self) -> int:
        return sum(rows for _, rows in self.split)

    def subset(self, tag: str) -> "Dataset":
        """The rows of the ``tag`` run; its columns are views of these, not copies."""
        start = 0
        for t, rows in self.split:
            if t == tag:
                cols = {name: col[start : start + rows] for name, col in self.columns.items()}
                return Dataset(cols, ((tag, rows),))
            start += rows
        raise ValueError(f"no split {tag!r} among {[t for t, _ in self.split]}")

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        if not names:
            return np.empty((self.n, 0))
        return np.column_stack([self.columns[name] for name in names])


# -- models ------------------------------------------------------------------


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)); 0.0 below about -709.78, where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


# Base mechanisms by tag; ``None`` marks the identity.
MECHANISMS = {"linear": None, "sin": np.sin, "cos": np.cos, "tanh": np.tanh, "sigmoid": sigmoid}


@dataclass(frozen=True)
class Scm:
    """Structural model with one discrete sensitive vertex.

    Every other vertex is its standard-normal noise plus the weighted sum of
    its parents, pushed through ``mechanism``: a tuple of one base tag, or two
    for the composite case (applied left to right).
    """

    dag: Pdag
    weights: dict[tuple[str, str], float]
    mechanism: dict[str, tuple[str, ...]]
    sensitive: str
    sensitive_levels: int
    outcome: str

    def __post_init__(self):
        if not self.dag.is_dag():
            raise GraphError("model graph must be fully directed")
        if self.sensitive == self.outcome:
            raise ValueError("sensitive and outcome must differ")
        if self.dag.parents_of(self.sensitive):
            raise ValueError("sensitive vertex must have no incoming edges")
        if self.dag.children_of(self.outcome):
            raise ValueError("outcome must be a sink")
        if self.sensitive_levels not in (2, 3):
            raise ValueError("sensitive_levels must be 2 or 3")
        if set(self.weights) != set(self.dag.directed_edges):
            raise ValueError("weights must be keyed exactly by the DAG edges")
        for edge, beta in self.weights.items():
            if not 0.1 <= abs(beta) <= 1.0:
                raise ValueError(f"|beta| outside [0.1, 1] on {edge}")
        if set(self.mechanism) != set(self.dag.names):
            raise ValueError("mechanism must be keyed exactly by the DAG vertices")
        for v, tags in self.mechanism.items():
            if not 1 <= len(tags) <= 2 or any(t not in MECHANISMS for t in tags):
                raise ValueError(f"bad mechanism {tags} for {v}")

    @cached_property
    def _sampling_plan(self) -> tuple:
        """Per vertex in topological order: (vertex, its (parent, weight)
        pairs, its mechanism functions other than the identity)."""
        return tuple(
            (v, tuple((p, self.weights[(p, v)]) for p in self.dag.parents_of(v)),
             tuple(MECHANISMS[t] for t in self.mechanism[v] if MECHANISMS[t] is not None))
            for v in self.dag.topological_order()
        )


# -- random generation --------------------------------------------------------


def random_er_dag(d: int, s: int, seed: int) -> Pdag:
    """Uniform DAG with ``d`` vertices and exactly ``s`` edges.

    A random vertex permutation fixes a topological order; ``s`` of the
    d(d-1)/2 order-respecting pairs are chosen uniformly. Rank k is the k-th
    pair (i, j), i < j, of positions in that order, row by row, so a rank
    maps to its pair without listing the pairs.
    """
    max_edges = d * (d - 1) // 2
    if not 0 <= s <= max_edges:
        raise ValueError(f"cannot place {s} edges on {d} vertices")
    rng = child_rng(seed, 0)
    order = rng.permutation(d)
    chosen = rng.choice(max_edges, size=s, replace=False)
    row_ends = np.cumsum(np.arange(d - 1, 0, -1))  # row i holds d - 1 - i pairs
    rows = np.searchsorted(row_ends, chosen, side="right")
    cols = chosen - (row_ends[rows] - (d - 1 - rows)) + rows + 1
    names = [f"X{i + 1}" for i in range(d)]
    directed = [(names[order[i]], names[order[j]]) for i, j in zip(rows, cols)]
    return Pdag(names, directed=directed)


def _designate(dag: Pdag, rng: np.random.Generator):
    outcome = dag.topological_order()[-1]
    others = [v for v in dag.names if v != outcome]
    sensitive = others[rng.integers(len(others))]
    levels = int(rng.integers(2, 4))
    kept = [(a, b) for a, b in dag.directed_edges if b != sensitive]
    trimmed = Pdag(dag.names, directed=kept)
    return trimmed, sensitive, levels, outcome


def random_linear_scm(dag: Pdag, seed: int) -> Scm:
    """Designate outcome/sensitive on ``dag`` and draw Uniform(±[0.1, 1]) weights."""
    rng = child_rng(seed, 1)
    trimmed, sensitive, levels, outcome = _designate(dag, rng)
    weights = {}
    for edge in trimmed.directed_edges:
        magnitude = rng.uniform(0.1, 1.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        weights[edge] = sign * magnitude
    mechanism = {v: ("linear",) for v in trimmed.names}
    return Scm(trimmed, weights, mechanism, sensitive, levels, outcome)


def random_nonlinear_scm(dag: Pdag, seed: int) -> Scm:
    """Unit weights and noise, with a random mechanism per vertex."""
    rng = child_rng(seed, 2)
    trimmed, sensitive, levels, outcome = _designate(dag, rng)
    tags = tuple(MECHANISMS)
    mechanism = {}
    for v in trimmed.names:
        if rng.random() < 1 / 6:
            mechanism[v] = tuple(str(t) for t in rng.choice(tags, size=2, replace=True))
        else:
            mechanism[v] = (str(rng.choice(tags)),)
    weights = {edge: 1.0 for edge in trimmed.directed_edges}
    return Scm(trimmed, weights, mechanism, sensitive, levels, outcome)


# -- sampling ------------------------------------------------------------------


def _ancestral_sample(
    scm: Scm, n: int, rng: np.random.Generator, clamp: Mapping[str, float]
) -> dict[str, np.ndarray]:
    columns: dict[str, np.ndarray] = {}
    for v, weighted, mechanisms in scm._sampling_plan:
        if v in clamp:
            columns[v] = np.full(n, float(clamp[v]))
            continue
        if v == scm.sensitive:
            columns[v] = rng.integers(0, scm.sensitive_levels, size=n).astype(float)
            continue
        value = rng.standard_normal(n)
        for p, w in weighted:
            value += w * columns[p]
        for f in mechanisms:
            value = f(value)
        columns[v] = value
    return {v: columns[v] for v in scm.dag.names}


def sample_observational(scm: Scm, n: int, seed: int) -> Dataset:
    """Ancestral sample of size ``n``, split 8:1:1 into train/val/test rows."""
    if n < 1:
        raise ValueError("need at least one row")
    rng = child_rng(seed, 3)
    return Dataset(_ancestral_sample(scm, n, rng, {}), split_rows(n, SPLIT_811))


def sample_interventional_truth(
    scm: Scm, assignments: Mapping[str, float], n: int, seed: int
) -> Dataset:
    """Sample with the assigned vertices clamped and their equations removed;
    every row is in the ``test`` split."""
    for v in assignments:
        scm.dag.index(v)
    rng = child_rng(seed, 4)
    return Dataset(_ancestral_sample(scm, n, rng, dict(assignments)), (("test", n),))
