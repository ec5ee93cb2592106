"""Orientation-rule closure and graph construction.

Implements one closure under Meek's rules R1-R4, CPDAG construction from a
DAG (its pattern, closed), MPDAG construction from a CPDAG and direct-causal
background knowledge (orient each statement, then close, failing on
contradiction), and the prediction-vertex augmentation used to reason about
a learned predictor as a graph vertex. R4 never fires on a pattern closed
under R1-R3 (Meek, UAI 1995), so the CPDAG is the same closure's fixpoint.
Each closure round looks only at the edges the round before oriented; the
first round treats every directed edge as new.
``check_mpdag`` is the one test that an input graph is an MPDAG.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .graph_core import (
    DirectedCycleError,
    GraphError,
    GraphParseError,
    Pdag,
    _content_lines,
)


BackgroundKnowledge = Iterable[tuple[str, str]]


class BackgroundKnowledgeConflict(GraphError):
    """A required orientation contradicts the working graph."""

    def __init__(self, tail: str, head: str, reason: str):
        self.edge = (tail, head)
        super().__init__(f"background knowledge {tail} -> {head}: {reason}")


class OrientationConflictError(GraphError):
    """Rule closure demanded both directions of one edge (inconsistent input)."""


def _witnessed(dmat: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """[b, c] is set iff some a -> b has a and c distinct and nonadjacent."""
    n = adj.shape[0]
    nonadj = ~adj & ~np.eye(n, dtype=bool)
    # witness counts in float64: exact up to 2**53, where uint8 wraps at 256
    return (dmat.T.astype(float) @ nonadj.astype(float)) > 0


def _fires_r1(dmat: np.ndarray, umat: np.ndarray, adj: np.ndarray, new: np.ndarray) -> np.ndarray:
    # a -> b, b - c, a and c nonadjacent  =>  b -> c
    heads = new.any(axis=0)
    fire = np.zeros_like(umat)
    fire[heads] = umat[heads] & _witnessed(dmat[:, heads], adj)
    return fire


def _fires_r2(dmat: np.ndarray, umat: np.ndarray, adj: np.ndarray, new: np.ndarray) -> np.ndarray:
    # a -> c -> b with a - b  =>  a -> b
    step = dmat.astype(float)
    tails, heads = new.any(axis=1), new.any(axis=0)
    fire = np.zeros_like(umat)
    fire[tails] = umat[tails] & ((step[tails] @ step) > 0)
    fire[:, heads] |= umat[:, heads] & ((step @ step[:, heads]) > 0)
    return fire


def _fires_r3(dmat: np.ndarray, umat: np.ndarray, adj: np.ndarray, new: np.ndarray) -> np.ndarray:
    # a - b, a - c -> b, a - d -> b, c and d nonadjacent  =>  a -> b
    heads = new.any(axis=0)
    fire = np.zeros_like(umat)
    for a, b in np.argwhere(umat & heads):
        mids = np.flatnonzero(umat[a] & dmat[:, b])
        if len(mids) < 2:
            continue
        sub = adj[np.ix_(mids, mids)]
        if not sub[~np.eye(len(mids), dtype=bool)].all():
            fire[a, b] = True
    return fire


def _fires_r4(dmat: np.ndarray, umat: np.ndarray, adj: np.ndarray, new: np.ndarray) -> np.ndarray:
    # a - b, a - c, c -> d, d -> b, a and d adjacent, c and b nonadjacent  =>  a -> b
    heads = new.any(axis=0)
    fire = np.zeros_like(umat)
    for a, b in np.argwhere(umat & (heads | dmat[heads].any(axis=0))):
        dvec = dmat[:, b] & adj[a]
        if not dvec.any():
            continue
        cands = np.flatnonzero(umat[a] & ~adj[:, b])
        for c in cands:
            if c != b and (dmat[c] & dvec).any():
                fire[a, b] = True
                break
    return fire


def _closure_arrays(
    dmat: np.ndarray, umat: np.ndarray, new: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply R1-R4 to fixpoint on mutable mark matrices.

    ``new`` marks the directed edges added since the graph was last closed,
    every directed edge if it never was. Each round looks only where an edge
    oriented by the round before is a directed premise of the rule, which is
    exact: marks only grow and undirected edges only shrink, so an instance
    with no new directed premise held in the round before and fired then.
    """
    adj = dmat | dmat.T | umat
    while True:
        fire = np.zeros_like(umat)
        for matcher in (_fires_r1, _fires_r2, _fires_r3, _fires_r4):
            fire |= matcher(dmat, umat, adj, new)
        if not fire.any():
            return dmat, umat
        if (fire & fire.T).any():
            raise OrientationConflictError("rules orient an edge both ways")
        dmat |= fire
        umat &= ~(fire | fire.T)
        new = fire


def meek_closure(g: Pdag) -> Pdag:
    """Close ``g`` under Meek's rules R1-R4.

    The fixpoint is independent of scan order; rules only add directed marks,
    so the skeleton is preserved. Acyclicity of the result is checked and a
    violation fails hard (it can only arise from inconsistent input).
    """
    dmat, umat = _closure_arrays(
        g.directed_mask.copy(), g.undirected_mask.copy(), g.directed_mask
    )
    try:
        return Pdag.from_arrays(g.names, dmat, umat)
    except DirectedCycleError as exc:
        raise OrientationConflictError("closure created a directed cycle") from exc


def check_mpdag(g: Pdag) -> Pdag:
    """Return ``g`` if it is an MPDAG, else raise :class:`GraphError`.

    An MPDAG is its own R1-R4 closure (the error names the first edge the
    closure orients) and has a consistent extension, a DAG with its skeleton,
    its directed edges and no new unshielded collider. The extension test is
    Dor & Tarsi's (1992): a vertex with no child among the remaining ones,
    each of whose undirected neighbours is adjacent to all its other
    neighbours, can come last; remove such vertices until none is left. A
    vertex that can come last still can after another is removed, so each
    round removes all of them. The error names the vertices left.
    """
    try:
        closed = meek_closure(g)
    except OrientationConflictError as exc:
        raise GraphError(f"not closed under Meek's rules: {exc}") from None
    if closed != g:
        tail, head = next(e for e in closed.directed_edges if not g.has_directed(*e))
        raise GraphError(f"not closed under Meek's rules: they orient {tail} -> {head}")
    dmat, umat = g.directed_mask, g.undirected_mask
    adj = dmat | dmat.T | umat
    near = adj | np.eye(g.n, dtype=bool)
    left = np.ones(g.n, dtype=bool)
    while left.any():
        last = [v for v in np.flatnonzero(left) if not (dmat[v] & left).any()
                and near[np.ix_(umat[v] & left, adj[v] & left)].all()]
        if not last:
            stuck = ", ".join(g.names[v] for v in np.flatnonzero(left))
            raise GraphError(f"no consistent extension: none of {stuck} can come last")
        left[last] = False
    return g


def pattern_of_dag(d: Pdag) -> Pdag:
    """Skeleton of a DAG with exactly the unshielded-collider edges re-directed."""
    if not d.is_dag():
        raise GraphError("graph is not fully directed")
    # u -> m is in an unshielded collider iff another parent of m is
    # nonadjacent to u: R1's witness matrix, transposed
    dmat = d.directed_mask & _witnessed(d.directed_mask, d.adjacency_mask).T
    umat = (d.directed_mask | d.directed_mask.T) & ~(dmat | dmat.T)
    return Pdag.from_arrays(d.names, dmat, umat)


def cpdag_from_dag(d: Pdag) -> Pdag:
    """Unique CPDAG of the Markov equivalence class containing ``d``."""
    return meek_closure(pattern_of_dag(d))


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
    new = dmat.copy()  # ``g`` need not be closed, so every edge is new at first
    for tail, head in statements:
        i, j = g.index(tail), g.index(head)
        if umat[i, j]:
            umat[i, j] = umat[j, i] = False
            dmat[i, j] = new[i, j] = True
            try:
                dmat, umat = _closure_arrays(dmat, umat, new)
            except OrientationConflictError as exc:
                raise BackgroundKnowledgeConflict(tail, head, str(exc)) from exc
            new = np.zeros_like(dmat)
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
