"""Partial causal ordering and interventional-effect identification on MPDAGs.

The central objects are the ordered bucket decomposition of the vertex set
(PCO, a tuple of buckets whose edges point from earlier to later), the
undirected-edge identifiability test for an intervened set, and the
symbolic truncated-factorization formula built from bucket conditionals.
For non-identifiable cases, candidate graphs enumerate the valid orientations
of the undirected edges at the intervened set.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    GraphError,
    Pdag,
    _kahn_order,
    _successor_lists,
    bucket_decomposition,
    parents,
)
from .meek_engine import BackgroundKnowledgeConflict, construct_mpdag


class NotIdentifiableError(GraphError):
    """The interventional density is not uniquely computable on this graph."""


@dataclass(frozen=True)
class IdentificationFormula:
    """Symbolic truncated factorization for an intervention.

    ``factors`` lists (bucket, conditioning) pairs written sinks-first, the
    order the factorization is conventionally printed; sampling consumes them
    in reverse. Conditioning sets are the bucket's graph parents. ``fixed``
    holds the intervened vertices whose values are supplied at evaluation
    time.
    """

    factors: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    fixed: tuple[str, ...]

    def as_text(self) -> str:
        parts = []
        for bucket, conditioning in self.factors:
            members = ",".join(v.lower() for v in bucket)
            if conditioning:
                parts.append(f"f({members}|{','.join(v.lower() for v in conditioning)})")
            else:
                parts.append(f"f({members})")
        return " ".join(parts)


def pco(nodes: Iterable[str], g: Pdag) -> tuple[frozenset[str], ...]:
    """Partial causal ordering of ``nodes`` in ``g``: a tuple of buckets, with
    every edge between two buckets pointing from the earlier to the later.

    The buckets of the full vertex set are sorted by (longest-path depth in
    the bucket condensation, max vertex index), and each bucket's
    intersection with ``nodes`` (when nonempty) is output in that order. The
    depth makes the order topological; the index makes it deterministic, and
    any tie-break yields a valid ordering.
    """
    node_set = set(nodes)
    for v in node_set:
        g.index(v)
    full = bucket_decomposition(g, g.names)
    n_buckets = len(full)
    members = [sorted(g.index(v) for v in bucket) for bucket in full]
    bucket_of = np.empty(g.n, dtype=int)
    for b, idx in enumerate(members):
        bucket_of[idx] = b

    # Condensation over buckets. A directed edge can join two vertices of one
    # bucket, so the diagonal is cleared.
    cond = np.zeros((n_buckets, n_buckets), dtype=bool)
    tails, heads = np.nonzero(g.directed_mask)
    cond[bucket_of[tails], bucket_of[heads]] = True
    np.fill_diagonal(cond, False)
    succ = _successor_lists(cond)

    depth = [0] * n_buckets
    for b in _kahn_order(cond):
        for c in succ[b]:
            depth[c] = max(depth[c], depth[b] + 1)

    ordered = []
    for b in sorted(range(n_buckets), key=lambda c: (depth[c], members[c][-1])):
        picked = frozenset(v for v in full[b] if v in node_set)
        if picked:
            ordered.append(picked)
    return tuple(ordered)


def is_identifiable(g: Pdag, intervened: Iterable[str]) -> bool:
    """True iff no undirected edge joins the intervened set to its complement."""
    s_idx = [g.index(v) for v in intervened]
    rest = [i for i in range(g.n) if i not in set(s_idx)]
    if not s_idx or not rest:
        return True
    return not g.undirected_mask[np.ix_(s_idx, rest)].any()


def identification_formula(
    g: Pdag, intervened: Iterable[str], ordering: tuple[frozenset[str], ...]
) -> IdentificationFormula:
    """Truncated-factorization formula for the intervened set.

    ``ordering`` is the PCO of every vertex of ``g``, ``pco(g.names, g)``,
    which callers already hold for fitting the bucket conditionals. The
    factors are its buckets of non-intervened vertices, each conditioned on
    its graph parents, whose intervened members are later fixed to the
    supplied intervention values.
    """
    s = set(intervened)
    if not is_identifiable(g, s):
        raise NotIdentifiableError(
            "undirected edge incident to the intervened set"
        )
    if sum(map(len, ordering)) != g.n:
        raise GraphError("ordering must be the PCO of every vertex of the graph")
    factors = []
    for bucket in ordering:
        if bucket & s:
            assert bucket <= s, "identifiable graphs cannot mix buckets"
            continue
        factors.append((g.sort_vertices(bucket), parents(g, bucket)))
    factors.reverse()
    return IdentificationFormula(factors=tuple(factors), fixed=g.sort_vertices(s))


def enumerate_valid_orientations(
    g: Pdag, intervened: Iterable[str], limit: int | None = None
) -> list[Pdag]:
    """Candidate MPDAGs for a non-identifiable intervention.

    A depth-first search orients the undirected edges between the intervened
    set and its complement one at a time, each step applying one orientation
    as background knowledge to the closed graph of the step before. Closure
    only adds marks, so a step the closure rejects (reversal or orientation
    conflict) ends its branch, an edge the closure already oriented is
    passed over, and every leaf is a candidate: identifiable for the
    intervened set, and distinct from the other leaves, which orient some
    crossing edge the other way. Edges are taken in sorted order from
    the last, ``a -> b`` before ``b -> a``. The search stops once ``limit``
    candidates are found; a graph with no candidate has no consistent
    extension and raises :class:`GraphError`.
    """
    s = set(intervened)
    if is_identifiable(g, s):
        raise GraphError("intervention is already identifiable")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    edges = sorted((a, b) for a, b in g.undirected_edges if (a in s) != (b in s))
    out: list[Pdag] = []
    # (closed graph, edges left to orient, statement to apply first)
    stack: list[tuple[Pdag, int, tuple[str, str] | None]] = [(g, len(edges), None)]
    while stack and (limit is None or len(out) < limit):
        graph, k, step = stack.pop()
        if step is not None:
            try:
                graph = construct_mpdag(graph, [step])
            except BackgroundKnowledgeConflict:
                continue
        if k == 0:
            out.append(graph)
            continue
        a, b = edges[k - 1]
        if graph.has_directed(a, b) or graph.has_directed(b, a):
            stack.append((graph, k - 1, None))  # the closure oriented it
        else:
            stack += [(graph, k - 1, (b, a)), (graph, k - 1, (a, b))]
    if not out:
        raise GraphError(
            f"do({','.join(g.sort_vertices(s))}): no orientation of the edges at the "
            "intervened set is consistent; the graph has no consistent extension"
        )
    return out
