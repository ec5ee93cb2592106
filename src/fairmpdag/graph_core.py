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
    """Malformed graph text; ``line`` is the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


class DirectedCycleError(GraphError):
    """The directed part of the graph contains a cycle."""


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
        dmat = np.zeros((len(names), len(names)), dtype=bool)
        umat = np.zeros_like(dmat)
        edges = [(e, dmat) for e in directed] + [(e, umat) for e in undirected]
        for (a, b), marks in edges:
            i, j = _lookup(index, a), _lookup(index, b)
            if dmat[i, j] or dmat[j, i] or umat[i, j] or umat[j, i]:
                raise GraphError(f"duplicate edge between {a!r} and {b!r}")
            marks[i, j] = True
        self._set_marks(names, index, dmat, umat | umat.T)

    @classmethod
    def from_arrays(cls, names: Sequence[str], dmat: np.ndarray, umat: np.ndarray) -> "Pdag":
        """Fast constructor from mark matrices; validates like __init__."""
        names = tuple(names)
        try:
            dmat, umat = np.array(dmat), np.array(umat)
        except ValueError:  # a ragged nested list
            raise GraphError(f"mark matrices must be {len(names)} x {len(names)}") from None
        g = object.__new__(cls)
        index = {name: i for i, name in enumerate(names)}
        g._set_marks(names, index, dmat, umat)
        return g

    def _set_marks(
        self, names: tuple[str, ...], index: dict[str, int], dmat: np.ndarray, umat: np.ndarray
    ) -> None:
        """The one structural check, cheapest rule first; the graph owns the marks."""
        n = len(names)
        if len(index) != n:
            raise GraphError("duplicate vertex names")
        if dmat.shape != (n, n) or umat.shape != (n, n):
            raise GraphError(f"mark matrices must be {n} x {n}")
        if dmat.dtype != bool or umat.dtype != bool:
            raise GraphError("mark matrices must be boolean")
        loops = np.flatnonzero(np.diagonal(dmat) | np.diagonal(umat))
        if len(loops):
            raise GraphError(f"self-edge at {names[loops[0]]!r}")
        clash = (dmat & dmat.T) | (dmat & umat) | (umat != umat.T)
        if clash.any():
            i, j = np.argwhere(clash | clash.T)[0]
            raise GraphError(f"inconsistent marks between {names[i]!r} and {names[j]!r}")
        if len(_kahn_order(dmat)) != n:
            raise DirectedCycleError("directed cycle")
        self.names = names
        self._index = index
        self._dir, self._und, self._adj = dmat, umat, dmat | dmat.T | umat
        for marks in (self._dir, self._und, self._adj):
            marks.setflags(write=False)
        self._hash: int | None = None

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


def located_message(path, exc: Exception) -> str:
    """``path:line: message`` for an error raised while reading ``path``, or
    ``path: message`` when the error carries no ``line``."""
    line = getattr(exc, "line", None)
    where = str(path) if line is None else f"{path}:{line}"
    return f"{where}: {exc}"


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
            cycle = edges[pair] == (b, a, "->") and tokens[1] == "->"
            kind = "directed cycle" if cycle else "duplicate edge"
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
