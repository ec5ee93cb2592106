"""Brute-force reference implementations used to cross-check the engine.

Everything here is deliberately naive (exhaustive enumeration, double loops,
closed-form linear algebra) and independent of the code paths it validates.
"""
from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from fairmpdag import (
    DirectedCycleError,
    GraphError,
    Pdag,
    child_rng,
    cpdag_from_dag,
    median_bandwidth,
    random_er_dag,
    unshielded_colliders,
)
from fairmpdag.meek_engine import _closure_arrays


def all_dags(n: int):
    """Every labeled DAG on exactly n vertices (A, B, C, ...)."""
    names = [chr(65 + i) for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    for marks in itertools.product((0, 1, 2), repeat=len(pairs)):
        directed = []
        for (i, j), m in zip(pairs, marks):
            if m == 1:
                directed.append((names[i], names[j]))
            elif m == 2:
                directed.append((names[j], names[i]))
        try:
            yield Pdag(names, directed=directed)
        except DirectedCycleError:
            continue


def class_key(d: Pdag):
    skel = tuple(sorted(tuple(sorted(e)) for e in d.directed_edges))
    return skel, frozenset(unshielded_colliders(d))


def union_graph(members: list[Pdag]) -> Pdag:
    """Edge directed iff every member agrees; undirected otherwise."""
    agreed = set(members[0].directed_edges)
    for m in members[1:]:
        agreed &= set(m.directed_edges)
    undirected = sorted(
        {
            tuple(sorted(e))
            for e in members[0].directed_edges
            if e not in agreed and (e[1], e[0]) not in agreed
        }
    )
    return Pdag(members[0].names, directed=sorted(agreed), undirected=undirected)


def pdag_colliders(g: Pdag) -> frozenset:
    out = set()
    for m in g.names:
        pa = g.parents_of(m)
        for u, v in itertools.combinations(pa, 2):
            if not g.adjacent(u, v):
                out.add((u, m, v) if g.index(u) < g.index(v) else (v, m, u))
    return frozenset(out)


def naive_extensions(g: Pdag) -> list[Pdag]:
    """All DAG extensions of g by exhaustive orientation filtering."""
    target = pdag_colliders(g)
    edges = list(g.undirected_edges)
    out = []
    for marks in itertools.product((0, 1), repeat=len(edges)):
        directed = list(g.directed_edges)
        for (a, b), m in zip(edges, marks):
            directed.append((a, b) if m == 0 else (b, a))
        try:
            d = Pdag(g.names, directed=directed)
        except DirectedCycleError:
            continue
        if pdag_colliders(d) == target:
            out.append(d)
    return out


def class_members_vectorized(dag: Pdag) -> list[Pdag]:
    """Equivalence class of a DAG by batched orientation filtering.

    Enumerates every orientation of the skeleton at once in numpy, keeping
    the acyclic ones whose unshielded-collider tensor matches the input DAG.
    Practical up to ~14 edges.
    """
    n = dag.n
    pairs = [tuple(sorted((dag.index(a), dag.index(b)))) for a, b in dag.directed_edges]
    s = len(pairs)
    if s > 14:
        raise ValueError("too many edges for exhaustive orientation")
    k = 2**s
    bits = (np.arange(k, dtype=np.uint32)[:, None] >> np.arange(s)) & 1
    A = np.zeros((k, n, n), dtype=bool)
    for e, (i, j) in enumerate(pairs):
        fwd = bits[:, e] == 0
        A[fwd, i, j] = True
        A[~fwd, j, i] = True
    reach = A.astype(np.uint8)
    for _ in range(4):  # path lengths up to 2^4 >= n
        reach = np.minimum(reach + np.matmul(reach, reach), 1)
    acyclic = reach[:, np.arange(n), np.arange(n)].sum(axis=1) == 0
    offdiag = ~np.eye(n, dtype=bool)
    incoming = A.transpose(0, 2, 1)  # [k, m, u]: u -> m
    unshielded = (
        incoming[:, :, :, None]
        & incoming[:, :, None, :]
        & ~dag.adjacency_mask[None, None, :, :]
        & offdiag[None, None, :, :]
    )
    base = dag.directed_mask.T
    target = (
        base[:, :, None]
        & base[:, None, :]
        & ~dag.adjacency_mask[None, :, :]
        & offdiag[None, :, :]
    )
    match = (unshielded == target[None]).all(axis=(1, 2, 3))
    zeros = np.zeros((n, n), dtype=bool)
    return [
        Pdag.from_arrays(dag.names, A[i], zeros) for i in np.flatnonzero(acyclic & match)
    ]


def descendants(d: Pdag, s: str) -> set[str]:
    out = {s}
    stack = [s]
    while stack:
        v = stack.pop()
        for c in d.children_of(v):
            if c not in out:
                out.add(c)
                stack.append(c)
    out.discard(s)
    return out


def chordless_possibly_causal_first_steps(g: Pdag, s: str, t: str) -> set[str]:
    """First-step neighbors over all chordless possibly-causal paths s -> t."""
    found: set[str] = set()

    def extend(path: list[str]) -> None:
        tail = path[-1]
        if tail == t:
            found.add(path[1])
            return
        for nxt in set(g.children_of(tail)) | set(g.siblings_of(tail)):
            if nxt in path:
                continue
            if any(g.adjacent(nxt, p) for p in path[:-1]):
                continue  # chord against an earlier path vertex
            extend(path + [nxt])

    for first in set(g.children_of(s)) | set(g.siblings_of(s)):
        extend([s, first])
    return found


def exists_start_undirected_path(g: Pdag, src, dst) -> bool:
    """Exhaustive DFS over simple possibly-causal paths, first edge undirected."""
    src, dst = set(src), set(dst)

    def extend(path: list[str]) -> bool:
        tail = path[-1]
        if tail in dst:
            return True
        for nxt in set(g.children_of(tail)) | set(g.siblings_of(tail)):
            if nxt in path or nxt in src:
                continue
            if extend(path + [nxt]):
                return True
        return False

    for s in src:
        for first in g.siblings_of(s):
            if first in src:
                continue
            if extend([s, first]):
                return True
    return False


def exists_proper_possibly_causal_path_starting_undirected(
    g: Pdag, src, dst
) -> bool:
    """Whether a proper possibly-causal path from src to dst starts undirected.

    This is Perkovic's identifiability criterion for MPDAGs (UAI 2020): the
    effect of src on dst is identifiable iff no such path exists.
    ``fairmpdag.is_identifiable`` is this criterion on the
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
                d2, u2 = _closure_arrays(d2, u2)
            except GraphError:
                continue
            descend(d2, u2)

    descend(g.directed_mask.copy(), g.undirected_mask.copy())
    return out


def sequential_meek_closure(g: Pdag, matchers, rng: np.random.Generator) -> Pdag:
    """Apply one randomly chosen firing of the rule ``matchers`` (such as
    ``meek_engine._fires_r1``) at a time until none fires."""
    dmat = g.directed_mask.copy()
    umat = g.undirected_mask.copy()
    adj = dmat | dmat.T | umat
    while True:
        fires = []
        for rule_idx in rng.permutation(len(matchers)):
            fire = matchers[rule_idx](dmat, umat, adj)
            fires.extend((int(i), int(j)) for i, j in np.argwhere(fire))
        if not fires:
            break
        i, j = fires[rng.integers(len(fires))]
        dmat[i, j] = True
        umat[i, j] = umat[j, i] = False
    return Pdag.from_arrays(g.names, dmat, umat)


def naive_mmd2(ya, yb, sigma: float) -> float:
    ya = np.asarray(ya, dtype=float).ravel()
    yb = np.asarray(yb, dtype=float).ravel()
    k = lambda x, y: np.exp(-((x - y) ** 2) / sigma)
    saa = sum(k(a, b) for a in ya for b in ya) / len(ya) ** 2
    sbb = sum(k(a, b) for a in yb for b in yb) / len(yb) ** 2
    sab = sum(k(a, b) for a in ya for b in yb) / (len(ya) * len(yb))
    return float(saa + sbb - 2 * sab)


def dense_mmd2_value_grads(preds, sigma: float):
    """Mean MMD^2 over the level pairs of one context and its gradients with
    respect to each level's predictions, from whole float64 kernel blocks and
    (y_k - y_l) K[k, l] products, pair by pair."""
    preds = [np.asarray(p, dtype=float).ravel() for p in preds]

    def block(x, y):
        d = x[:, None] - y[None, :]
        k = np.exp(-d * d / sigma)
        return k.mean(), d * k

    pairs = list(itertools.combinations(range(len(preds)), 2))
    value, grads = 0.0, [np.zeros(len(p)) for p in preds]
    for i, j in pairs:
        ya, yb = preds[i], preds[j]
        kaa, paa = block(ya, ya)
        kbb, pbb = block(yb, yb)
        kab, pab = block(ya, yb)
        na, nb = len(ya), len(yb)
        cross = 4.0 / (sigma * na * nb)
        value += kaa + kbb - 2.0 * kab
        grads[i] += -4.0 / (sigma * na * na) * paa.sum(axis=1) + cross * pab.sum(axis=1)
        grads[j] += -4.0 / (sigma * nb * nb) * pbb.sum(axis=1) - cross * pab.sum(axis=0)
    return float(value) / len(pairs), [g / len(pairs) for g in grads]


def two_branch_sample(scm, kind: str, n: int, rng: np.random.Generator, clamp) -> dict:
    """Ancestral sample with one arithmetic branch per kind of model.

    ``"linear"`` scales the noise and adds the weighted parents, ignoring the
    mechanisms; ``"nonlinear"`` adds the unweighted parents to the unscaled
    noise and applies the mechanism tags through an if-chain, ignoring the
    weights and noise scales.
    """
    columns = {}
    for v in scm.dag.topological_order():
        if v in clamp:
            columns[v] = np.full(n, float(clamp[v]))
            continue
        if v == scm.sensitive:
            columns[v] = rng.integers(0, scm.sensitive_levels, size=n).astype(float)
            continue
        parents = scm.dag.parents_of(v)
        if kind == "linear":
            value = scm.noise_std[v] * rng.standard_normal(n)
            for p in parents:
                value = value + scm.weights[(p, v)] * columns[p]
        else:
            value = rng.standard_normal(n)
            for p in parents:
                value = value + columns[p]
            for tag in scm.mechanism[v]:
                if tag == "sin":
                    value = np.sin(value)
                elif tag == "cos":
                    value = np.cos(value)
                elif tag == "tanh":
                    value = np.tanh(value)
                elif tag == "sigmoid":
                    value = 1.0 / (1.0 + np.exp(-value))
        columns[v] = value
    return columns


# -- population linear-Gaussian machinery --------------------------------------


def permutation_null_quantile(
    ya: np.ndarray,
    yb: np.ndarray,
    *,
    n_permutations: int = 200,
    q: float = 0.95,
    seed: int = 0,
    bandwidth: float | None = None,
) -> float:
    """Null quantile of MMD^2 under random reassignment of the pooled sample.

    The pooled kernel matrix does not depend on the assignment, so it is
    built once and each permutation reduces to two matrix-vector products.
    """
    pooled = np.concatenate([np.ravel(ya), np.ravel(yb)])
    sigma = bandwidth if bandwidth is not None else median_bandwidth(pooled)
    na = len(np.ravel(ya))
    n = len(pooled)
    nb = n - na
    kernel = np.exp(-((pooled[:, None] - pooled[None, :]) ** 2) / sigma)
    rng = child_rng(seed, 7)
    draws = np.empty(n_permutations)
    for k in range(n_permutations):
        u = np.zeros(n)
        u[rng.permutation(n)[:na]] = 1.0
        ku = kernel @ u
        saa = u @ ku
        sab = ku.sum() - saa
        sbb = kernel.sum() - saa - 2 * sab
        draws[k] = saa / na**2 + sbb / nb**2 - 2 * sab / (na * nb)
    return float(np.quantile(draws, q))


def pair_weights(g: Pdag, rng: np.random.Generator) -> dict:
    """One shared weight per adjacent pair, magnitudes in [0.1, 1]."""
    pairs = {tuple(sorted(e)) for e in g.directed_edges} | set(g.undirected_edges)
    return {
        p: float(rng.uniform(0.1, 1.0) * (1 if rng.random() < 0.5 else -1))
        for p in sorted(pairs)
    }


def population_cov(dag: Pdag, weights: dict) -> np.ndarray:
    """Covariance of the zero-mean linear-Gaussian model a DAG induces."""
    n = dag.n
    B = np.zeros((n, n))
    for (a, b), w in weights.items():
        if dag.has_directed(a, b):
            B[dag.index(b), dag.index(a)] = w
        elif dag.has_directed(b, a):
            B[dag.index(a), dag.index(b)] = w
        else:
            raise GraphError(f"no directed edge for pair {(a, b)}")
    m = np.linalg.inv(np.eye(n) - B)
    return m @ m.T


def population_do_means(member: Pdag, sigma: np.ndarray, assignments: dict) -> dict:
    """Interventional means via the member's truncated factorization.

    Node-wise Gaussian conditionals are derived from the shared observational
    covariance by population regression, then evaluated in causal order with
    the intervened vertices clamped.
    """
    means: dict[str, float] = {}
    for v in member.topological_order():
        if v in assignments:
            means[v] = float(assignments[v])
            continue
        pa = member.parents_of(v)
        if not pa:
            means[v] = 0.0
            continue
        pi = [member.index(p) for p in pa]
        vi = member.index(v)
        coef = np.linalg.solve(sigma[np.ix_(pi, pi)], sigma[pi, vi])
        means[v] = float(coef @ [means[p] for p in pa])
    return means


def random_mpdag(rng: np.random.Generator, max_n: int = 8):
    """Random (true DAG, CPDAG, MPDAG) triple with consistent background knowledge."""
    d = int(rng.integers(4, max_n + 1))
    s = int(rng.integers(d - 1, min(2 * d, d * (d - 1) // 2) + 1))
    dag = random_er_dag(d, s, int(rng.integers(2**32)))
    cpdag = cpdag_from_dag(dag)
    bk = []
    for a, b in cpdag.undirected_edges:
        if rng.random() < 0.4:
            bk.append((a, b) if dag.has_directed(a, b) else (b, a))
    from fairmpdag import construct_mpdag

    return dag, cpdag, construct_mpdag(cpdag, bk)


def triu_median_bandwidth(values, cap: int = 512) -> float:
    """``median_bandwidth`` by partitioning every pairwise squared distance."""
    v = np.asarray(values, dtype=float).ravel()
    if len(v) > cap:
        v = v[np.linspace(0, len(v) - 1, cap).astype(int)]
    if len(v) < 2:
        return 1.0
    rows, cols = np.triu_indices(len(v), k=1)
    upper = np.subtract.outer(v, v).ravel()[rows * len(v) + cols]
    np.square(upper, out=upper)
    if np.isnan(upper).any():
        return 1.0  # as np.median and the mean would give NaN
    # np.median's partition at three positions is several times slower than
    # one partition and a max; the result is the same.
    half = len(upper) // 2
    part = np.partition(upper, half)
    med = float(part[half] if len(upper) % 2 else (part[:half].max() + part[half]) / 2)
    if med > 0:
        return med
    mean = float(upper.mean())
    return mean if mean > 0 else 1.0
