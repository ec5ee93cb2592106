"""Partial causal ordering and interventional-effect identification on MPDAGs.

The central objects are the ordered bucket decomposition of the vertex set
(PCO), the undirected-edge identifiability test for an intervened set, and
the symbolic truncated-factorization formula built from bucket conditionals.
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
    unshielded_colliders,
)
from .meek_engine import (
    BackgroundKnowledgeConflict,
    MPDAG_RULES,
    _closure_arrays,
    construct_mpdag,
)


class NotIdentifiableError(GraphError):
    """The interventional density is not uniquely computable on this graph."""


@dataclass(frozen=True)
class CausalOrdering:
    """Ordered bucket list; edges between buckets point from earlier to later."""

    buckets: tuple[frozenset[str], ...]

    def __iter__(self):
        return iter(self.buckets)

    def __len__(self) -> int:
        return len(self.buckets)


@dataclass(frozen=True)
class IdentificationFormula:
    """Symbolic truncated factorization for an intervention.

    ``factors`` lists (bucket, conditioning) pairs written sinks-first, the
    order the factorization is conventionally printed; sampling consumes them
    in reverse. Conditioning sets are the bucket's graph parents. ``fixed``
    holds the intervened vertices whose values are supplied at evaluation
    time, and ``integrated_out`` the remaining vertices the predictor
    marginal integrates over.
    """

    factors: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    integrated_out: tuple[str, ...]
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


def pco(nodes: Iterable[str], g: Pdag) -> CausalOrdering:
    """Partial causal ordering of ``nodes`` in ``g``.

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
    return CausalOrdering(tuple(ordered))


def is_identifiable(g: Pdag, intervened: Iterable[str]) -> bool:
    """True iff no undirected edge joins the intervened set to its complement."""
    s_idx = [g.index(v) for v in intervened]
    rest = [i for i in range(g.n) if i not in set(s_idx)]
    if not s_idx or not rest:
        return True
    return not g.undirected_mask[np.ix_(s_idx, rest)].any()


def identification_formula(
    g: Pdag, intervened: Iterable[str], ordering: CausalOrdering
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
    if sum(map(len, ordering.buckets)) != g.n:
        raise GraphError("ordering must be the PCO of every vertex of the graph")
    factors = []
    for bucket in ordering.buckets:
        if bucket & s:
            assert bucket <= s, "identifiable graphs cannot mix buckets"
            continue
        factors.append((g.sort_vertices(bucket), parents(g, bucket)))
    factors.reverse()
    integrated = g.sort_vertices(v for v in g.names if v not in s)
    return IdentificationFormula(
        factors=tuple(factors),
        integrated_out=integrated,
        fixed=g.sort_vertices(s),
    )


def enumerate_valid_orientations(g: Pdag, intervened: Iterable[str]) -> list[Pdag]:
    """Candidate MPDAGs for a non-identifiable intervention.

    Every orientation assignment of the undirected edges incident to the
    intervened set is applied as background knowledge; assignments the
    closure rejects (missing edge, reversal, or orientation conflict) are
    dropped, and identical results are deduplicated preserving assignment
    order. Each surviving graph is identifiable for the intervened set by
    construction.
    """
    s = set(intervened)
    if is_identifiable(g, s):
        raise GraphError("intervention is already identifiable")
    edges = sorted(
        (a, b)
        for a, b in g.undirected_edges
        if (a in s) != (b in s)
    )
    out: list[Pdag] = []
    seen: set[Pdag] = set()
    for mask in range(2 ** len(edges)):
        bk = tuple(
            (a, b) if mask >> k & 1 == 0 else (b, a)
            for k, (a, b) in enumerate(edges)
        )
        try:
            candidate = construct_mpdag(g, bk)
        except BackgroundKnowledgeConflict:
            continue
        assert is_identifiable(candidate, s)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    assert out, "a valid MPDAG admits at least one consistent completion"
    return out


def enumerate_dags_in_class(g: Pdag) -> list[Pdag]:
    """All DAGs represented by ``g``: acyclic orientations of its undirected
    edges that neither destroy nor create an unshielded collider.

    Recursion orients one undirected edge at a time and closes under the
    orientation rules, which prunes hard; each leaf is verified against the
    collider criterion directly.
    """
    if g.n > 12:
        raise GraphError("class enumeration guarded to graphs with <= 12 vertices")
    target = unshielded_colliders(g)
    out: list[Pdag] = []

    def descend(dmat: np.ndarray, umat: np.ndarray) -> None:
        pairs = np.argwhere(np.triu(umat))
        if len(pairs) == 0:
            try:
                d = Pdag.from_arrays(g.names, dmat, umat)
            except GraphError:
                return
            if unshielded_colliders(d) == target:
                out.append(d)
            return
        i, j = pairs[0]
        for tail, head in ((i, j), (j, i)):
            d2, u2 = dmat.copy(), umat.copy()
            u2[i, j] = u2[j, i] = False
            d2[tail, head] = True
            try:
                d2, u2 = _closure_arrays(d2, u2, MPDAG_RULES)
            except GraphError:
                continue
            descend(d2, u2)

    descend(g.directed_mask.copy(), g.undirected_mask.copy())
    return out
