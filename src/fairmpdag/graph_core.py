"""Edge-marked graphs over named vertices.

A single :class:`Pdag` type represents DAGs, CPDAGs and MPDAGs: every edge
carries either a directed or an undirected mark, with at most one edge per
vertex pair. Graphs are immutable after construction; all operations return
fresh graphs or plain Python values, so values can be shared freely.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph structure or misuse of a graph operation."""


class GraphParseError(GraphError):
    """Malformed graph text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DirectedCycleError(GraphError):
    """The directed part of the graph contains a cycle."""


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


class Pdag:
    """Partially directed acyclic graph over named vertices.

    Vertex order is fixed at construction (file order for parsed graphs) and
    defines the index used to sort every set-valued result. Internally the
    graph is a dense pair-indexed mark table, which is the right trade-off
    for the graph sizes handled here (tens of vertices).
    """

    __slots__ = ("names", "_index", "_dir", "_und", "_adj", "_hash")

    def __init__(
        self,
        names: Sequence[str],
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
    ):
        names = tuple(names)
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise GraphError("duplicate vertex names")
        dmat = np.zeros((len(names), len(names)), dtype=bool)
        umat = np.zeros_like(dmat)
        edges = [(e, dmat) for e in directed] + [(e, umat) for e in undirected]
        for (a, b), marks in edges:
            i, j = _lookup(index, a), _lookup(index, b)
            if i == j:
                raise GraphError(f"self-edge at {a!r}")
            if dmat[i, j] or dmat[j, i] or umat[i, j] or umat[j, i]:
                raise GraphError(f"duplicate edge between {a!r} and {b!r}")
            marks[i, j] = True
        self._set_marks(names, index, dmat, umat | umat.T)

    @classmethod
    def from_arrays(cls, names: Sequence[str], dmat: np.ndarray, umat: np.ndarray) -> "Pdag":
        """Fast constructor from mark matrices; validates like __init__."""
        if (dmat & dmat.T).any() or (dmat & umat).any() or (umat != umat.T).any():
            raise GraphError("inconsistent mark matrices")
        if np.diagonal(dmat).any() or np.diagonal(umat).any():
            raise GraphError("self-edge")
        names = tuple(names)
        g = object.__new__(cls)
        g._set_marks(names, {name: i for i, name in enumerate(names)}, dmat.copy(), umat.copy())
        return g

    def _set_marks(
        self, names: tuple[str, ...], index: dict[str, int], dmat: np.ndarray, umat: np.ndarray
    ) -> None:
        """Shared tail of both constructors; ``dmat`` and ``umat`` are owned by the graph."""
        self.names = names
        self._index = index
        self._dir = _frozen(dmat)
        self._und = _frozen(umat)
        self._adj = _frozen(dmat | dmat.T | umat)
        self._hash: int | None = None
        if _has_directed_cycle(dmat):
            raise DirectedCycleError("directed cycle")

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def directed_mask(self) -> np.ndarray:
        """Read-only boolean matrix with [i, j] set iff names[i] -> names[j]."""
        return self._dir

    @property
    def undirected_mask(self) -> np.ndarray:
        """Read-only symmetric boolean matrix of undirected edges."""
        return self._und

    @property
    def adjacency_mask(self) -> np.ndarray:
        return self._adj

    def index(self, name: str) -> int:
        return _lookup(self._index, name)

    def has_vertex(self, name: str) -> bool:
        return name in self._index

    def has_directed(self, tail: str, head: str) -> bool:
        return bool(self._dir[self.index(tail), self.index(head)])

    def has_undirected(self, a: str, b: str) -> bool:
        return bool(self._und[self.index(a), self.index(b)])

    def adjacent(self, a: str, b: str) -> bool:
        return bool(self._adj[self.index(a), self.index(b)])

    def parents_of(self, v: str) -> tuple[str, ...]:
        return self._names_where(self._dir[:, self.index(v)])

    def children_of(self, v: str) -> tuple[str, ...]:
        return self._names_where(self._dir[self.index(v), :])

    def siblings_of(self, v: str) -> tuple[str, ...]:
        """Undirected neighbors of ``v``."""
        return self._names_where(self._und[self.index(v), :])

    @property
    def directed_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.names[i], self.names[j]) for i, j in np.argwhere(self._dir)
        )

    @property
    def undirected_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.names[i], self.names[j])
            for i, j in np.argwhere(np.triu(self._und))
        )

    def is_dag(self) -> bool:
        """True iff every edge is directed (acyclicity is a construction invariant)."""
        return not self._und.any()

    def topological_order(self) -> tuple[str, ...]:
        """Topological order of the directed part (undirected edges ignored)."""
        order = _kahn_order(self._dir)
        return tuple(self.names[i] for i in order)

    def induced_subgraph(self, keep: Iterable[str]) -> "Pdag":
        keep_set = set(keep)
        idx = [i for i, name in enumerate(self.names) if name in keep_set]
        missing = keep_set - set(self.names)
        if missing:
            raise GraphError(f"unknown vertices: {sorted(missing)}")
        sub = np.ix_(idx, idx)
        return Pdag.from_arrays(
            [self.names[i] for i in idx], self._dir[sub], self._und[sub]
        )

    def sort_vertices(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """Deterministic vertex order: sort by construction index."""
        return tuple(sorted(nodes, key=self.index))

    def _names_where(self, mask: np.ndarray) -> tuple[str, ...]:
        return tuple(self.names[i] for i in np.flatnonzero(mask))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pdag):
            return NotImplemented
        return (
            self.names == other.names
            and np.array_equal(self._dir, other._dir)
            and np.array_equal(self._und, other._und)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.names, self._dir.tobytes(), self._und.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Pdag({len(self.names)} vertices, {len(self.directed_edges)} directed, {len(self.undirected_edges)} undirected)"

    def to_text(self) -> str:
        """Serialize in the edge-list file format accepted by :func:`parse_graph`.

        Every vertex gets a ``node`` line so the vertex order survives a
        round-trip through :func:`parse_graph`.
        """
        lines = [f"node {name}" for name in self.names]
        for i, j in np.argwhere(self._dir):
            lines.append(f"{self.names[i]} -> {self.names[j]}")
        for i, j in np.argwhere(np.triu(self._und)):
            lines.append(f"{self.names[i]} -- {self.names[j]}")
        return "\n".join(lines) + ("\n" if lines else "")


def _lookup(index: dict[str, int], name: str) -> int:
    try:
        return index[name]
    except KeyError:
        raise GraphError(f"unknown vertex {name!r}") from None


def _has_directed_cycle(dmat: np.ndarray) -> bool:
    return len(_kahn_order(dmat)) != dmat.shape[0]


def _successor_lists(dmat: np.ndarray) -> list[list[int]]:
    """Row ``i`` lists the columns set in ``dmat[i]``, in increasing order."""
    succ: list[list[int]] = [[] for _ in range(dmat.shape[0])]
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(dmat))):
        succ[i].append(j)
    return succ


def _kahn_order(dmat: np.ndarray) -> list[int]:
    succ = _successor_lists(dmat)
    indeg = dmat.sum(axis=0).tolist()
    ready = deque(i for i, k in enumerate(indeg) if k == 0)
    order: list[int] = []
    while ready:
        i = ready.popleft()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    return order


# -- parsing ---------------------------------------------------------------


def _content_lines(text: str):
    """(line number, stripped text) of each line that is not empty once the
    ``#`` comment is cut; shared by the graph and background-knowledge formats."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph(text: str) -> Pdag:
    """Parse the edge-list format.

    One edge per line: ``NAME -> NAME`` (directed) or ``NAME -- NAME``
    (undirected); ``node NAME`` declares an isolated vertex; ``#`` starts a
    comment. Vertex indices follow first occurrence in the file.
    """
    names: list[str] = []
    seen: set[str] = set()
    # unordered vertex pair -> (tail, head, arrow) of the first edge on it
    edges: dict[frozenset[str], tuple[str, str, str]] = {}

    def visit(name: str, lineno: int) -> str:
        if not name or any(ch.isspace() for ch in name):
            raise GraphParseError(f"bad vertex name {name!r}", lineno)
        if name not in seen:
            seen.add(name)
            names.append(name)
        return name

    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 2:
                raise GraphParseError("expected 'node NAME'", lineno)
            visit(tokens[1], lineno)
            continue
        if len(tokens) != 3 or tokens[1] not in ("->", "--"):
            raise GraphParseError(f"unknown token in {line!r}", lineno)
        a = visit(tokens[0], lineno)
        b = visit(tokens[2], lineno)
        if a == b:
            raise GraphParseError(f"self-edge at {a!r}", lineno)
        pair = frozenset((a, b))
        if pair in edges:
            kind = "directed cycle" if edges[pair] == (b, a, "->") else "duplicate edge"
            raise GraphParseError(f"{kind} between {a!r} and {b!r}", lineno)
        edges[pair] = (a, b, tokens[1])
    directed = [(a, b) for a, b, arrow in edges.values() if arrow == "->"]
    undirected = [(a, b) for a, b, arrow in edges.values() if arrow == "--"]
    return Pdag(names, directed, undirected)


# -- structural operations ---------------------------------------------------


def unshielded_colliders(g: Pdag) -> set[tuple[str, str, str]]:
    """All triples (u, mid, v) with u -> mid <- v and u, v nonadjacent.

    Only directed edges form colliders, so on a PDAG this is the collider set
    of its directed part; on a DAG it is the usual one. Triples are
    canonicalized with index(u) < index(v).
    """
    out: set[tuple[str, str, str]] = set()
    dmat, adj = g.directed_mask, g.adjacency_mask
    for m in range(g.n):
        pa = np.flatnonzero(dmat[:, m])
        for ai in range(len(pa)):
            for bi in range(ai + 1, len(pa)):
                u, v = pa[ai], pa[bi]
                if not adj[u, v]:
                    out.add((g.names[u], g.names[m], g.names[v]))
    return out


def exists_proper_possibly_causal_path_starting_undirected(
    g: Pdag, src: Iterable[str], dst: Iterable[str]
) -> bool:
    """Whether a proper possibly-causal path from src to dst starts undirected.

    This is Perkovic's identifiability criterion for MPDAGs (UAI 2020): the
    effect of src on dst is identifiable iff no such path exists.
    :func:`fairmpdag.causal_ident.is_identifiable` is this criterion on the
    prediction-augmented MPDAG, with dst the prediction vertex, which every
    vertex points into.

    Proper: only the first vertex lies in src. The search walks forward along
    directed or undirected steps from each undirected neighbor of src while
    avoiding src; loop erasure turns any such walk into a qualifying path, so
    plain reachability is exact.
    """
    src_idx = {g.index(s) for s in src}
    dst_idx = {g.index(t) for t in dst}
    if src_idx & dst_idx:
        raise GraphError("src and dst must be disjoint")
    step = g.directed_mask | g.undirected_mask
    starts: set[int] = set()
    for s in src_idx:
        starts.update(j for j in np.flatnonzero(g.undirected_mask[s]) if j not in src_idx)
    visited: set[int] = set()
    frontier = deque(starts)
    while frontier:
        i = frontier.popleft()
        if i in visited:
            continue
        visited.add(i)
        if i in dst_idx:
            return True
        for j in np.flatnonzero(step[i]):
            if j not in visited and j not in src_idx:
                frontier.append(j)
    return False


def bucket_decomposition(g: Pdag, nodes: Iterable[str]) -> tuple[frozenset[str], ...]:
    """Partition ``nodes`` into maximal undirected-connected components.

    Two nodes share a bucket iff an undirected path joins them through
    members of ``nodes`` only. Buckets are returned sorted by their smallest
    vertex index for determinism.
    """
    node_idx = sorted(g.index(v) for v in nodes)
    node_set = set(node_idx)
    seen: set[int] = set()
    buckets: list[frozenset[str]] = []
    for start in node_idx:
        if start in seen:
            continue
        component = {start}
        frontier = deque([start])
        while frontier:
            i = frontier.popleft()
            for j in np.flatnonzero(g.undirected_mask[i]):
                if j in node_set and j not in component:
                    component.add(j)
                    frontier.append(j)
        seen |= component
        buckets.append(frozenset(g.names[i] for i in component))
    return tuple(buckets)


def parents(g: Pdag, nodes: Iterable[str]) -> tuple[str, ...]:
    """Directed-edge parents of a node set, excluding the set itself."""
    node_idx = [g.index(v) for v in nodes]
    mask = g.directed_mask[:, node_idx].any(axis=1)
    mask[node_idx] = False
    return tuple(g.names[i] for i in np.flatnonzero(mask))
