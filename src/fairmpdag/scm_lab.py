"""Ground-truth generative models and sampling.

Random ER DAGs, linear structural equation models over them (standard-normal
noise, weights of magnitude 0.1..1), a nonlinear variant that pushes the
noisy parent sum through a random mechanism, ancestral observational
sampling, and true interventional sampling by clamping. The discrete
sensitive vertex has its incoming edges removed when a model is built so its
uniform exogenous draw stays consistent with the graph.

All randomness flows from a single integer seed through
:func:`numpy.random.SeedSequence` spawn keys, so any sampling step is
reproducible independently of the others.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
SPLIT_TEST = (("test", 1),)


def split_tags(n: int, scheme: Sequence[tuple[str, int]]) -> np.ndarray:
    """Contiguous split tags with proportions given by integer weights."""
    total = sum(w for _, w in scheme)
    counts = [n * w // total for _, w in scheme]
    counts[0] += n - sum(counts)
    tags = np.empty(n, dtype="<U8")
    at = 0
    for (tag, _), count in zip(scheme, counts):
        tags[at : at + count] = tag
        at += count
    return tags


@dataclass(frozen=True)
class Dataset:
    """Named columns of equal length plus a split tag per row."""

    columns: dict[str, np.ndarray]
    split: np.ndarray

    def __post_init__(self):
        lengths = {len(col) for col in self.columns.values()}
        if len(lengths) > 1 or (lengths and lengths != {len(self.split)}):
            raise ValueError("columns and split must share one length")

    @property
    def n(self) -> int:
        return len(self.split)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def subset(self, tag: str) -> "Dataset":
        mask = self.split == tag
        return Dataset(
            {name: col[mask] for name, col in self.columns.items()}, self.split[mask]
        )

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        return np.column_stack([self.columns[name] for name in names])


# -- models ------------------------------------------------------------------


@dataclass(frozen=True)
class LinearScm:
    """Linear-Gaussian structural model with one discrete sensitive vertex."""

    dag: Pdag
    weights: dict[tuple[str, str], float]
    noise_std: dict[str, float]
    sensitive: str
    sensitive_levels: int
    outcome: str

    def __post_init__(self):
        _check_model(self)
        if set(self.weights) != set(self.dag.directed_edges):
            raise ValueError("weights must be keyed exactly by the DAG edges")
        for edge, beta in self.weights.items():
            if not 0.1 <= abs(beta) <= 1.0:
                raise ValueError(f"|beta| outside [0.1, 1] on {edge}")


MECHANISMS = ("linear", "sin", "cos", "tanh", "sigmoid")


@dataclass(frozen=True)
class NonlinearScm:
    """Structural model applying a mechanism to the noisy parent sum.

    ``mechanism`` maps each vertex to a tuple of one base tag, or two for the
    composite case (applied left to right).
    """

    dag: Pdag
    mechanism: dict[str, tuple[str, ...]]
    sensitive: str
    sensitive_levels: int
    outcome: str

    def __post_init__(self):
        _check_model(self)
        for v, tags in self.mechanism.items():
            if not 1 <= len(tags) <= 2 or any(t not in MECHANISMS for t in tags):
                raise ValueError(f"bad mechanism {tags} for {v}")


def _check_model(scm) -> None:
    if not scm.dag.is_dag():
        raise GraphError("model graph must be fully directed")
    if scm.sensitive == scm.outcome:
        raise ValueError("sensitive and outcome must differ")
    if scm.dag.parents_of(scm.sensitive):
        raise ValueError("sensitive vertex must have no incoming edges")
    if scm.dag.children_of(scm.outcome):
        raise ValueError("outcome must be a sink")
    if scm.sensitive_levels not in (2, 3):
        raise ValueError("sensitive_levels must be 2 or 3")


# -- random generation --------------------------------------------------------


def random_er_dag(d: int, s: int, seed: int) -> Pdag:
    """Uniform DAG with ``d`` vertices and exactly ``s`` edges.

    A random vertex permutation fixes a topological order; ``s`` of the
    d(d-1)/2 order-respecting pairs are chosen uniformly.
    """
    max_edges = d * (d - 1) // 2
    if not 0 <= s <= max_edges:
        raise ValueError(f"cannot place {s} edges on {d} vertices")
    rng = child_rng(seed, 0)
    order = rng.permutation(d)
    pairs = [(order[i], order[j]) for i in range(d) for j in range(i + 1, d)]
    chosen = rng.choice(max_edges, size=s, replace=False) if s else []
    names = [f"X{i + 1}" for i in range(d)]
    directed = [(names[pairs[k][0]], names[pairs[k][1]]) for k in sorted(chosen)]
    return Pdag(names, directed=directed)


def _designate(dag: Pdag, rng: np.random.Generator, levels: int | None):
    outcome = dag.topological_order()[-1]
    others = [v for v in dag.names if v != outcome]
    sensitive = others[rng.integers(len(others))]
    if levels is None:
        levels = int(rng.integers(2, 4))
    kept = [(a, b) for a, b in dag.directed_edges if b != sensitive]
    trimmed = Pdag(dag.names, directed=kept)
    return trimmed, sensitive, levels, outcome


def random_linear_scm(dag: Pdag, seed: int, levels: int | None = None) -> LinearScm:
    """Designate outcome/sensitive on ``dag`` and draw Uniform(±[0.1, 1]) weights."""
    rng = child_rng(seed, 1)
    trimmed, sensitive, levels, outcome = _designate(dag, rng, levels)
    weights = {}
    for edge in trimmed.directed_edges:
        magnitude = rng.uniform(0.1, 1.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        weights[edge] = sign * magnitude
    noise_std = {v: 1.0 for v in trimmed.names}
    return LinearScm(trimmed, weights, noise_std, sensitive, levels, outcome)


def random_nonlinear_scm(dag: Pdag, seed: int, levels: int | None = None) -> NonlinearScm:
    """As :func:`random_linear_scm` but with random mechanisms per vertex."""
    rng = child_rng(seed, 2)
    trimmed, sensitive, levels, outcome = _designate(dag, rng, levels)
    mechanism = {}
    for v in trimmed.names:
        if rng.random() < 1 / 6:
            tags = tuple(str(t) for t in rng.choice(MECHANISMS, size=2, replace=True))
        else:
            tags = (str(rng.choice(MECHANISMS)),)
        mechanism[v] = tags
    return NonlinearScm(trimmed, mechanism, sensitive, levels, outcome)


# -- sampling ------------------------------------------------------------------


def _apply_mechanism(tags: tuple[str, ...], x: np.ndarray) -> np.ndarray:
    for tag in tags:
        if tag == "linear":
            continue
        if tag == "sin":
            x = np.sin(x)
        elif tag == "cos":
            x = np.cos(x)
        elif tag == "tanh":
            x = np.tanh(x)
        elif tag == "sigmoid":
            x = expit(x)
        else:
            raise ValueError(f"unknown mechanism {tag!r}")
    return x


def _ancestral_sample(
    scm: LinearScm | NonlinearScm,
    n: int,
    rng: np.random.Generator,
    clamp: Mapping[str, float],
) -> dict[str, np.ndarray]:
    columns: dict[str, np.ndarray] = {}
    for v in scm.dag.topological_order():
        if v in clamp:
            columns[v] = np.full(n, float(clamp[v]))
            continue
        if v == scm.sensitive:
            columns[v] = rng.integers(0, scm.sensitive_levels, size=n).astype(float)
            continue
        parents = scm.dag.parents_of(v)
        if isinstance(scm, LinearScm):
            value = scm.noise_std[v] * rng.standard_normal(n)
            for p in parents:
                value = value + scm.weights[(p, v)] * columns[p]
        else:
            total = rng.standard_normal(n)
            for p in parents:
                total = total + columns[p]
            value = _apply_mechanism(scm.mechanism[v], total)
        columns[v] = value
    return {v: columns[v] for v in scm.dag.names}


def sample_observational(
    scm: LinearScm | NonlinearScm,
    n: int,
    seed: int,
    split: Sequence[tuple[str, int]] = SPLIT_811,
) -> Dataset:
    """Ancestral sample of size ``n`` with split tags (default 8:1:1)."""
    if n < 1:
        raise ValueError("need at least one row")
    rng = child_rng(seed, 3)
    return Dataset(_ancestral_sample(scm, n, rng, {}), split_tags(n, split))


def sample_interventional_truth(
    scm: LinearScm | NonlinearScm,
    assignments: Mapping[str, float],
    n: int,
    seed: int,
    split: Sequence[tuple[str, int]] = SPLIT_TEST,
) -> Dataset:
    """Sample with the assigned vertices clamped and their equations removed."""
    for v in assignments:
        scm.dag.index(v)
    rng = child_rng(seed, 4)
    return Dataset(
        _ancestral_sample(scm, n, rng, dict(assignments)), split_tags(n, split)
    )
