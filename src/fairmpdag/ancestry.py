"""Ancestral-relation classification on MPDAGs.

Whether one vertex is a descendant of another can be settled for the whole
equivalence class from the *critical set*: the neighbors of the source that
lie on a chordless possibly-causal path to the target. An empty critical set
rules descendance out in every member DAG; a definite arrow into it, or an
incomplete induced subgraph over it, forces descendance in every member; the
remaining case is genuinely undetermined. These relations drive the feature
selection of the strictly fair predictor.
"""
from __future__ import annotations

import enum
from collections import deque

import numpy as np

from .graph_core import Pdag


class AncestralRelation(enum.Enum):
    DEFINITE_DESCENDANT = "definite_descendant"
    DEFINITE_NON_DESCENDANT = "definite_non_descendant"
    POSSIBLE_DESCENDANT = "possible_descendant"


def critical_sets(g: Pdag, s: str) -> dict[str, tuple[str, ...]]:
    """For every other vertex ``t``, the neighbors of ``s`` on at least one
    chordless possibly-causal path to ``t``.

    One breadth-first search over (first-edge neighbor, previous, current)
    triples. A step from ``cur`` to ``beta`` follows a directed or undirected
    edge, must keep the walk locally chordless (``beta`` nonadjacent to the
    previous vertex unless the step is directed) and must stay outside the
    neighborhood of ``s``. The step rule never reads the target, so ``t``'s
    critical set is the first-edge neighbors of the triples that reach it.
    """
    si = g.index(s)
    dmat, umat, adj = g.directed_mask, g.undirected_mask, g.adjacency_mask
    forward = dmat | umat
    reached = np.zeros((g.n, g.n), dtype=bool)  # [first-edge neighbor, vertex]
    queue: deque[tuple[int, int, int]] = deque((a, si, a) for a in np.flatnonzero(forward[si]))
    seen: set[tuple[int, int, int]] = set(queue)
    while queue:
        alpha, phi, tau = queue.popleft()
        reached[alpha, tau] = True
        for beta in np.flatnonzero(forward[tau]):
            if beta == si or adj[beta, si]:
                continue
            if not dmat[tau, beta] and adj[phi, beta]:
                continue
            triple = (alpha, int(tau), int(beta))
            if triple not in seen:
                seen.add(triple)
                queue.append(triple)
    return {t: tuple(g.names[a] for a in np.flatnonzero(reached[:, ti]))
            for ti, t in enumerate(g.names) if ti != si}


def ancestral_relations(g: Pdag, s: str) -> dict[str, AncestralRelation]:
    """Classify every other vertex relative to ``s`` across every DAG the
    graph represents, from one ``critical_sets`` search."""
    relations = {}
    for t, crit in critical_sets(g, s).items():
        if not crit:
            relations[t] = AncestralRelation.DEFINITE_NON_DESCENDANT
        elif any(g.has_directed(s, c) for c in crit) or _induces_incomplete(g, crit):
            relations[t] = AncestralRelation.DEFINITE_DESCENDANT
        else:
            relations[t] = AncestralRelation.POSSIBLE_DESCENDANT
    return relations


def _induces_incomplete(g: Pdag, nodes: tuple[str, ...]) -> bool:
    idx = [g.index(v) for v in nodes]
    sub = g.adjacency_mask[np.ix_(idx, idx)]
    return not sub[~np.eye(len(idx), dtype=bool)].all()


def definite_nondescendants(g: Pdag, s: str) -> tuple[str, ...]:
    """All vertices that are non-descendants of ``s`` in every member DAG:
    those with an empty critical set, from one search."""
    return tuple(t for t, crit in critical_sets(g, s).items() if not crit)
