"""Orientation-rule closure and graph construction.

Implements Meek's rules R1-R4, CPDAG construction from a DAG (pattern plus
R1-R3 closure), MPDAG construction from a CPDAG and direct-causal background
knowledge (orient each statement, then close under R1-R4, failing on
contradiction), and the prediction-vertex augmentation used to reason about
a learned predictor as a graph vertex.
"""
from __future__ import annotations

import enum
from collections.abc import Iterable

import numpy as np

from .graph_core import (
    DirectedCycleError,
    GraphError,
    GraphParseError,
    Pdag,
    _content_lines,
    unshielded_colliders,
)


class MeekRule(enum.Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"


CPDAG_RULES = frozenset({MeekRule.R1, MeekRule.R2, MeekRule.R3})
MPDAG_RULES = frozenset({MeekRule.R1, MeekRule.R2, MeekRule.R3, MeekRule.R4})

BackgroundKnowledge = Iterable[tuple[str, str]]


class BackgroundKnowledgeConflict(GraphError):
    """A required orientation contradicts the working graph."""

    def __init__(self, tail: str, head: str, reason: str):
        self.edge = (tail, head)
        super().__init__(f"background knowledge {tail} -> {head}: {reason}")


class OrientationConflictError(GraphError):
    """Rule closure demanded both directions of one edge (inconsistent input)."""


def _fires_r1(dmat: np.ndarray, umat: np.ndarray, adj: np.ndarray) -> np.ndarray:
    # a -> b, b - c, a and c nonadjacent  =>  b -> c
    n = adj.shape[0]
    nonadj = ~adj & ~np.eye(n, dtype=bool)
    counts = dmat.T.astype(np.uint8) @ nonadj.astype(np.uint8)
    return umat & (counts > 0)


def _fires_r2(dmat: np.ndarray, umat: np.ndarray, adj: np.ndarray) -> np.ndarray:
    # a -> c -> b with a - b  =>  a -> b
    two_step = (dmat.astype(np.uint8) @ dmat.astype(np.uint8)) > 0
    return umat & two_step


def _fires_r3(dmat: np.ndarray, umat: np.ndarray, adj: np.ndarray) -> np.ndarray:
    # a - b, a - c -> b, a - d -> b, c and d nonadjacent  =>  a -> b
    fire = np.zeros_like(umat)
    for a, b in np.argwhere(umat):
        mids = np.flatnonzero(umat[a] & dmat[:, b])
        if len(mids) < 2:
            continue
        sub = adj[np.ix_(mids, mids)]
        if not sub[~np.eye(len(mids), dtype=bool)].all():
            fire[a, b] = True
    return fire


def _fires_r4(dmat: np.ndarray, umat: np.ndarray, adj: np.ndarray) -> np.ndarray:
    # a - b, a - c, c -> d, d -> b, a and d adjacent, c and b nonadjacent  =>  a -> b
    fire = np.zeros_like(umat)
    for a, b in np.argwhere(umat):
        dvec = dmat[:, b] & adj[a]
        if not dvec.any():
            continue
        cands = np.flatnonzero(umat[a] & ~adj[:, b])
        for c in cands:
            if c != b and (dmat[c] & dvec).any():
                fire[a, b] = True
                break
    return fire


_RULE_MATCHERS = {
    MeekRule.R1: _fires_r1,
    MeekRule.R2: _fires_r2,
    MeekRule.R3: _fires_r3,
    MeekRule.R4: _fires_r4,
}


def _closure_arrays(
    dmat: np.ndarray, umat: np.ndarray, rules: frozenset[MeekRule]
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the enabled rules to fixpoint on mutable mark matrices."""
    adj = dmat | dmat.T | umat
    matchers = [_RULE_MATCHERS[r] for r in sorted(rules, key=lambda r: r.value)]
    while True:
        fire = np.zeros_like(umat)
        for matcher in matchers:
            fire |= matcher(dmat, umat, adj)
        if not fire.any():
            return dmat, umat
        if (fire & fire.T).any():
            raise OrientationConflictError("rules orient an edge both ways")
        dmat |= fire
        umat &= ~(fire | fire.T)


def meek_closure(g: Pdag, rules: Iterable[MeekRule] = MPDAG_RULES) -> Pdag:
    """Close ``g`` under the enabled orientation rules.

    The fixpoint is independent of scan order; rules only add directed marks,
    so the skeleton is preserved. Acyclicity of the result is checked and a
    violation fails hard (it can only arise from inconsistent input).
    """
    dmat, umat = _closure_arrays(
        g.directed_mask.copy(), g.undirected_mask.copy(), frozenset(rules)
    )
    try:
        return Pdag.from_arrays(g.names, dmat, umat)
    except DirectedCycleError as exc:
        raise OrientationConflictError("closure created a directed cycle") from exc


def pattern_of_dag(d: Pdag) -> Pdag:
    """Skeleton of a DAG with exactly the unshielded-collider edges re-directed."""
    if not d.is_dag():
        raise GraphError("graph is not fully directed")
    colliders = unshielded_colliders(d)
    n = d.n
    dmat = np.zeros((n, n), dtype=bool)
    for u, mid, v in colliders:
        dmat[d.index(u), d.index(mid)] = True
        dmat[d.index(v), d.index(mid)] = True
    umat = (d.directed_mask | d.directed_mask.T) & ~(dmat | dmat.T)
    return Pdag.from_arrays(d.names, dmat, umat)


def cpdag_from_dag(d: Pdag) -> Pdag:
    """Unique CPDAG of the Markov equivalence class containing ``d``."""
    return meek_closure(pattern_of_dag(d), CPDAG_RULES)


def construct_mpdag(g: Pdag, bk: BackgroundKnowledge) -> Pdag:
    """Refine a CPDAG or MPDAG with direct-causal background knowledge.

    Each statement ``tail -> head`` is oriented when the working graph holds
    ``tail - head`` or already ``tail -> head``; the rule closure (R1-R4) then
    runs to fixpoint. A statement whose edge is reversed or absent raises
    :class:`BackgroundKnowledgeConflict`, as does a closure conflict (which
    can only be caused by jointly inconsistent statements).
    """
    statements = sorted(set(bk))
    stated = set(statements)
    for tail, head in statements:
        if (head, tail) in stated:
            raise BackgroundKnowledgeConflict(tail, head, "both directions required")
    dmat = g.directed_mask.copy()
    umat = g.undirected_mask.copy()
    for tail, head in statements:
        i, j = g.index(tail), g.index(head)
        if umat[i, j]:
            umat[i, j] = umat[j, i] = False
            dmat[i, j] = True
            try:
                dmat, umat = _closure_arrays(dmat, umat, MPDAG_RULES)
            except OrientationConflictError as exc:
                raise BackgroundKnowledgeConflict(tail, head, str(exc)) from exc
        elif dmat[i, j]:
            continue
        elif dmat[j, i]:
            raise BackgroundKnowledgeConflict(tail, head, "edge oriented the other way")
        else:
            raise BackgroundKnowledgeConflict(tail, head, "edge not present")
    try:
        return Pdag.from_arrays(g.names, dmat, umat)
    except DirectedCycleError as exc:
        raise BackgroundKnowledgeConflict(*statements[0], "orientations force a cycle") from exc


def augment_with_prediction(g: Pdag, label: str = "Yhat") -> Pdag:
    """Add a prediction vertex receiving a directed edge from every vertex."""
    if g.has_vertex(label):
        raise GraphError(f"vertex {label!r} already present")
    n = g.n
    dmat = np.zeros((n + 1, n + 1), dtype=bool)
    umat = np.zeros((n + 1, n + 1), dtype=bool)
    dmat[:n, :n] = g.directed_mask
    umat[:n, :n] = g.undirected_mask
    dmat[:n, n] = True
    return Pdag.from_arrays(g.names + (label,), dmat, umat)


def parse_background_knowledge(text: str) -> tuple[tuple[str, str], ...]:
    """Parse one ``NAME -> NAME`` statement per line; ``#`` starts a comment."""
    out: list[tuple[str, str]] = []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] != "->":
            raise GraphParseError(f"expected 'NAME -> NAME', got {line!r}", lineno)
        out.append((tokens[0], tokens[2]))
    return tuple(out)
