"""Penalized fair regression: predictor variants, MMD unfairness, training.

The trainable model is a one-hidden-layer tanh network fitted by full-batch
gradient descent with momentum. The training objective is mean squared error
on observational data plus ``lambda`` times the squared maximum mean
discrepancy between the model's predictions on generated interventional
datasets, averaged over sensitive-level pairs (and over intervention
contexts and candidate-graph groups where present). Unfairness at evaluation
time is the same MMD^2 average computed on ground-truth interventional data.

Every objective works on one stacked row block (``_stack``): the
observational rows first, then the rows of every (group, context) cell, one
row slice per sensitive level. Training, validation and evaluation each make
one forward pass over their block; the penalty turns each cell's adjacent
level slices into a value and adds its gradient with respect to the
predictions into one output gradient, and training then makes one backward
pass.

There is one penalty, ``_penalty``, for the training objective, the
validation pass, evaluation and ``mmd2``: per cell it picks the bandwidth
(fixed, or the median heuristic on the cell's predictions) and calls
``_context_mmd2`` on the cell's pooled predictions. Their level-pair mean
MMD^2 is one weighted kernel sum, so its value and gradient follow from
weighted row moments, which two providers compute. A context whose
predictions span at most 16 kernel widths sqrt(sigma) takes them from one
Chebyshev interpolant of the kernel (``_interpolated_moments``): the
predictions are scalars, and over a span of s widths the Gaussian kernel is
a rank-p product with p = 16 + ceil(6 s) to float64 rounding, so the
moments cost O(L n p) instead of O(L^2 n^2). A wider context, or one with a
NaN or infinite prediction, takes them from ``_exact_moments``, a loop over
row chunks of the whole kernel; at the median-heuristic bandwidth no
workload measured so far takes it.

Precision: everything is float64. The interpolated gradients match
whole-block float64 sums to 1e-12 in kernel units (the error times
P sqrt(sigma) n_i / (4 (L - 1)), P the number of level pairs), and the
values to 1e-14. The kernel raises a bandwidth below 2^-1000 to 2^-1000,
so its scale and gradient coefficients stay finite at every positive
bandwidth.

The median-heuristic bandwidth (``median_bandwidth``) is selected by
sorted-difference selection: the differences s[j] - s[i] (i < j) of the
sorted values are monotone in both indices, so counts below a threshold are
search positions and only the differences inside a bracket around the median
are listed. The bracket comes from the differences of an evenly spaced
subsample, read at the median rank less the near pairs the subsample cannot
hold, which removes its bias, and plus and minus 1/m for m subsample values.
A bracket that misses a median rank falls back to listing every difference.
The result is bit-identical to the median of all pairwise squared distances.
"""
from __future__ import annotations

import enum
import functools
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .ancestry import definite_nondescendants
from .graph_core import Pdag
from .scm_lab import Dataset, child_rng


class Variant(enum.Enum):
    FULL = "full"
    UNAWARE = "unaware"
    IFAIR = "ifair"
    EPS_IFAIR = "eps_ifair"


@dataclass(frozen=True)
class TrainConfig:
    hidden_width: int = 32
    lr: float = 1e-2
    momentum: float = 0.9
    epochs: int = 2000
    patience: int = 100
    lambda_grid: tuple[float, ...] = (0.0, 0.5, 5.0, 20.0, 60.0, 100.0)
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        _check_int("hidden_width", self.hidden_width, 1)
        _check_int("epochs", self.epochs, 1)
        _check_int("patience", self.patience, 0)
        lr, momentum, grid, seeds = self.lr, self.momentum, self.lambda_grid, self.seeds
        _check("lr", lr, _is_finite(lr) and lr > 0, "a positive finite number")
        _check("momentum", momentum, _is_finite(momentum) and 0 <= momentum < 1, "in [0, 1)")
        ok = isinstance(grid, tuple) and grid and all(_is_finite(x) and x >= 0 for x in grid)
        ok = ok and len(set(grid)) == len(grid)  # 0 and 0.0 are one value
        _check("lambda_grid", grid, ok, "a nonempty list of distinct finite numbers >= 0")
        ok = isinstance(seeds, tuple) and seeds and all(type(x) is int and x >= 0 for x in seeds)
        ok = ok and len(set(seeds)) == len(seeds)
        _check("seeds", seeds, ok, "a nonempty list of distinct nonnegative integers")


def _is_finite(value) -> bool:
    """True for a finite int or float, numpy scalars included; bools and
    strings are not numbers here."""
    number = isinstance(value, (int, float, np.integer, np.floating))
    return number and not isinstance(value, bool) and math.isfinite(value)


def _check(name: str, value, ok, rule: str) -> None:
    """Reject a config value, naming its field, unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_int(name: str, value, low: int) -> None:
    _check(name, value, type(value) is int and value >= low, f"an integer >= {low}")


def _check_bandwidth(name: str, value) -> None:
    ok = value == "median" or (_is_finite(value) and value > 0)
    _check(name, value, ok, "'median' or a positive finite number")


@dataclass(frozen=True)
class InterventionalSet:
    """One generated or ground-truth dataset for a single intervention.

    ``context`` carries the admissible-vertex assignment the dataset was
    generated under; ``group`` separates candidate-graph model sets in the
    unidentifiable mode.
    """

    data: Dataset
    sensitive_value: float
    context: tuple[tuple[str, float], ...] = ()
    group: int = 0


@dataclass(frozen=True)
class EvalRecord:
    rmse: float
    mmd2: float


@dataclass
class FairPredictor:
    variant: Variant
    features: tuple[str, ...]
    admissible: tuple[str, ...]
    weights: dict[str, np.ndarray]
    lam: float
    seed: int
    best_epoch: int = 0

    def predict(self, data: Dataset) -> np.ndarray:
        return _forward(self.weights, data.matrix(self.features))[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "variant": self.variant.value,
                "features": list(self.features),
                "admissible": list(self.admissible),
                "lambda": self.lam,
                "seed": self.seed,
                "best_epoch": self.best_epoch,
                "weights": {k: v.tolist() for k, v in self.weights.items()},
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FairPredictor":
        raw = json.loads(text)
        weights = {k: np.asarray(v, dtype=float) for k, v in raw["weights"].items()}
        # a model without inputs stores w1 as [], which loses its shape
        weights["w1"] = weights["w1"].reshape(len(raw["features"]), len(weights["b1"]))
        return cls(
            variant=Variant(raw["variant"]),
            features=tuple(raw["features"]),
            admissible=tuple(raw["admissible"]),
            weights=weights,
            lam=raw["lambda"],
            seed=raw["seed"],
            best_epoch=raw["best_epoch"],
        )


# -- MMD -----------------------------------------------------------------------

# The exact kernel (``_exact_moments``) is built in row chunks of about this
# many entries, which bounds its memory whatever the context's size.
_CHUNK_ENTRIES = 65536
# The kernel raises a smaller bandwidth to this floor. Below it, -1/sigma and
# the gradient coefficient 4/sigma overflow or come near it (at a subnormal
# sigma -1/sigma is -inf, at the smallest normal one 4/sigma is 2^1024); at
# it they are at most 2^1002. Kernel entries of predictions more
# than 8.3e-150 apart underflow to 0 at the floor as below it, so the floor
# changes only entries of predictions closer than that.
_MIN_BANDWIDTH = 2.0**-1000
# A context (``_context_mmd2``) whose pooled predictions span at most
# _SPAN_CAP kernel widths sqrt(sigma) goes through one Chebyshev interpolant
# of the kernel (``_interpolated_moments``) with
# _NODES_BASE + ceil(_NODES_PER_SPAN * span) nodes. The Chebyshev coefficients
# of exp(-(x - y)^2) over a span s fall like exp(-k^2 / s^2), so k = 6 s
# reaches the float64 rounding level; the 16 nodes on top cover small spans,
# where that estimate is loose. At the cap that is 112 nodes. Contexts span
# about 13 widths or less at the median-heuristic bandwidth; a wider one
# takes the exact moments.
_SPAN_CAP = 16.0
_NODES_BASE = 16
_NODES_PER_SPAN = 6.0
# The nodes cover the span and this many kernel widths on either side, so a
# context whose predictions are all equal (span 0) still has distinct nodes.
_NODE_MARGIN = 1.0 / 16


def _context_mmd2(pooled, sizes, sigma, want_grads=False):
    """Mean MMD^2 over all level pairs of one context, and optionally its
    gradient with respect to the predictions.

    ``pooled`` holds the predictions of every level one after another,
    ``sizes`` the number of rows of each level. Returns ``(value, grad)``;
    ``grad`` is None unless ``want_grads``. A bandwidth below
    ``_MIN_BANDWIDTH`` (2^-1000) is raised to it, so finite predictions give
    a finite value and finite gradients at any positive bandwidth.

    With L levels and P = L(L-1)/2 pairs the mean is one weighted kernel sum
    sum_{k,l} w[k, l] K[k, l], where w[k, l] is (L-1) / (P n_i^2) for rows k
    and l of the same level i and -1 / (P n_i n_j) for rows of levels i and
    j. From the weighted row moments m[k] = sum_l w[k, l] K[k, l] right[l],
    right = [1, p - c] with c the middle of the pooled span, the value is
    sum_k m[k, 0] and the gradient at row k is
    -(4 / sigma) ((p_k - c) m[k, 0] - m[k, 1]).

    Every caller, with or without ``want_grads``, takes the same moments: a
    context whose predictions span at most ``_SPAN_CAP`` kernel widths
    sqrt(sigma) through one Chebyshev interpolant of the kernel
    (``_interpolated_moments``), one with a wider span or a NaN or infinite
    prediction from the exact kernel (``_exact_moments``). The value is a mean
    of squared RKHS norms, so one that rounding makes negative is returned as
    0; a NaN value stays NaN.
    """
    sigma = max(sigma, _MIN_BANDWIDTH)
    levels = len(sizes)
    n = np.asarray(sizes, dtype=float)
    w = (levels * np.eye(levels) - 1.0) / (levels * (levels - 1) // 2 * np.outer(n, n))
    low, high = float(pooled.min()), float(pooled.max())
    span = (high - low) / math.sqrt(sigma)
    right = np.ones((len(pooled), 2))
    right[:, 1] = pooled - (low + (high - low) / 2)
    if span <= _SPAN_CAP:  # False for a NaN or infinite prediction
        m = _interpolated_moments(right, sizes, w, sigma, span)
    else:
        m = _exact_moments(pooled, sizes, w, sigma, right)
    value = max(float(m[:, 0].sum()), 0.0)  # max(nan, 0.0) is nan
    grad = (-4.0 / sigma) * (right[:, 1] * m[:, 0] - m[:, 1]) if want_grads else None
    return value, grad


def _exact_moments(pooled, sizes, w, sigma, right):
    """The weighted row moments of ``_context_mmd2`` from the exact kernel,
    one chunk of rows of about ``_CHUNK_ENTRIES`` entries at a time.

    A chunk is the differences of its rows to every pooled prediction,
    squared, scaled, exponentiated and weighted by w, times ``right``. A NaN
    or infinite prediction makes moments NaN (inf - inf on the diagonal), so
    the value is not finite.
    """
    level = np.repeat(np.arange(len(sizes)), sizes)
    moments = np.empty_like(right)
    step = max(1, _CHUNK_ENTRIES // len(pooled))
    for start in range(0, len(pooled), step):
        rows = slice(start, start + step)
        k = np.subtract.outer(pooled[rows], pooled)
        np.square(k, out=k)
        k *= -1.0 / sigma
        np.exp(k, out=k)
        k *= w[level[rows, None], level]
        moments[rows] = k @ right
    return moments


def _interpolated_moments(right, sizes, w, sigma, span):
    """The weighted row moments of ``_context_mmd2`` through one Chebyshev
    interpolant of the kernel, in O(L n p) for L levels of n rows and p nodes.

    On the scaled predictions x = (p - c) / sqrt(sigma), which lie in
    [-span/2, span/2], the kernel is exp(-(x - y)^2). Put p Chebyshev points
    t on the interval widened by ``_NODE_MARGIN`` and let b(x) be the
    barycentric Lagrange basis at them (Berrut & Trefethen, SIAM Review
    2004): exp(-(x - y)^2) ~ b(x)^T T b(y), T[a, c] = exp(-(t_a - t_c)^2).
    Stack level j's basis rows in B_j and take its moments
    M_j = B_j^T right_j (p x 2). Then the moments of a row k of level i are
    b(x_k)^T T W_i with W_i = sum_j w[i, j] M_j: one product per level, on
    one n x p basis (``_basis``) built once for all pooled rows.
    """
    nodes = _NODES_BASE + math.ceil(_NODES_PER_SPAN * span)
    t = (span / 2 + _NODE_MARGIN) * np.cos(np.arange(nodes) * (np.pi / (nodes - 1)))
    weights = np.ones(nodes)
    weights[1::2] = -1.0
    weights[[0, -1]] /= 2
    q, norm = _basis(right[:, 1] / math.sqrt(sigma), t, weights)
    levels = [slice(stop - n, stop) for n, stop in zip(sizes, np.cumsum(sizes))]
    scaled = right / norm[:, None]
    basis_moments = np.stack([q[rows].T @ scaled[rows] for rows in levels])
    basis_moments *= weights[:, None]
    kern = np.exp(-np.square(np.subtract.outer(t, t)))
    mixed = (w @ basis_moments.reshape(len(sizes), -1)).reshape(basis_moments.shape)
    products = (kern @ mixed) * weights[:, None]
    moments = np.empty_like(right)
    for rows, product in zip(levels, products):
        moments[rows] = q[rows] @ product
    moments /= norm[:, None]
    return moments


def _basis(x, t, weights):
    """The barycentric basis of the points ``x`` at the nodes ``t`` as
    ``(q, norm)``: row k is q[k] * weights / norm[k], with norm = q @ weights
    and q = 1 / (x - t) from the rank-2 product [x, 1] @ [1; -t] (each entry
    rounded once, as ``np.subtract.outer``, but 2-3 times faster). A point on
    a node, whose difference is 0 or so small that its reciprocal overflows,
    gets that node's unit row instead of inf / inf.
    """
    lead = np.ones((len(x), 2))
    lead[:, 0] = x
    trail = np.ones((2, len(t)))
    np.negative(t, out=trail[1])
    q = lead @ trail
    with np.errstate(divide="ignore", over="ignore"):
        np.reciprocal(q, out=q)
    norm = q @ weights
    hit = np.flatnonzero(~np.isfinite(norm))
    q[hit] = np.isinf(q[hit]) / weights
    norm[hit] = 1.0
    return q, norm


def mmd2(ya: Iterable[float], yb: Iterable[float], bandwidth: str | float) -> float:
    """Biased squared maximum mean discrepancy with kernel exp(-d^2/bandwidth),
    the bandwidth raised to at least 2^-1000 (``_context_mmd2``): the
    penalty (``_penalty``) of one cell with the two samples as its levels.

    ``bandwidth`` is a positive finite number, or ``"median"`` for the median
    heuristic on the pooled samples.
    """
    _check_bandwidth("bandwidth", bandwidth)
    pa = np.asarray(ya, dtype=float).ravel()
    pb = np.asarray(yb, dtype=float).ravel()
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("samples must be nonempty")
    cell = [slice(0, len(pa)), slice(len(pa), len(pa) + len(pb))]
    return _penalty(np.concatenate([pa, pb]), [cell], bandwidth, None)


_BANDWIDTH_SAMPLE = 512


def median_bandwidth(values: np.ndarray) -> float:
    """Median pairwise squared distance, on an even subsample past ``_BANDWIDTH_SAMPLE``.

    Falls back to the mean squared distance when the median is 0, and to 1.0
    when that is 0 too, when there are fewer than two values, or when a
    distance is NaN. The median distance is selected from the sorted values
    (``_select_gaps``) without forming all n(n-1)/2 distances; squaring is
    monotone, so its square is the median squared distance.
    """
    v = np.asarray(values, dtype=float).ravel()
    if len(v) > _BANDWIDTH_SAMPLE:
        v = v[_even_index(len(v))]
    n = len(v)
    if n < 2:
        return 1.0
    s = np.sort(v)
    if np.isnan(s[-1]) or s[1] == -np.inf or s[-2] == np.inf:
        return 1.0  # NaNs sort last; a repeated infinity: inf - inf is NaN
    # the at most two infinite values are an infinite distance from the rest
    finite = s[np.isfinite(s)]
    pairs = n * (n - 1) // 2
    ranks = [pairs // 2] if pairs % 2 else [pairs // 2 - 1, pairs // 2]
    within = len(finite) * (len(finite) - 1) // 2
    gaps = _select_gaps(finite, [r for r in ranks if r < within])
    squares = [g * g for g in gaps] + [math.inf] * (len(ranks) - len(gaps))
    med = squares[0] if len(squares) == 1 else (squares[0] + squares[1]) / 2
    if med > 0:
        return med
    upper = np.square(np.subtract.outer(v, v)[np.triu_indices(n, 1)])
    mean = float(upper.mean())
    return mean if mean > 0 else 1.0


@functools.lru_cache(maxsize=64)
def _even_index(n: int) -> np.ndarray:
    """The positions of ``_BANDWIDTH_SAMPLE`` evenly spaced values out of ``n``."""
    index = np.linspace(0, n - 1, _BANDWIDTH_SAMPLE).astype(int)
    index.flags.writeable = False
    return index


# ``_select_gaps`` brackets the wanted gaps with the gaps of at most this many
# evenly spaced sorted values.
_GAP_SAMPLE = 64


@functools.lru_cache(maxsize=_GAP_SAMPLE)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j out of ``m``, in row order."""
    rows, cols = np.triu_indices(m, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _select_gaps(s, ranks):
    """The ``ranks``-th smallest (from 0, ascending) of the gaps s[j] - s[i],
    i < j, of the sorted finite values ``s``, as floats; ``ranks`` is one
    rank or two consecutive ranks.

    The gaps of every k-th value of ``s`` (m values, k = ceil(n / 64)) give
    a bracket: their quantiles at the ranks' share of the gaps, less and
    plus 1/m. The subsample holds no pair closer than k positions, and those
    near pairs are mostly small gaps, so the ranks' share is taken after
    removing them from both the ranks and the gap count; without that the
    subsample's quantile sits about 1.3 % of all gaps high. ``_gaps_between``
    counts the gaps below the bracket and lists those in it, and one
    partition picks the ranks. A subsample can mislead: if the bracket
    misses a rank, every gap is listed.
    """
    if not ranks:
        return []
    n = len(s)
    k = math.ceil(n / _GAP_SAMPLE)
    sub = s[::k]
    m = len(sub)
    rows, cols = _upper_pairs(m)
    sample = sub[cols] - sub[rows]
    pairs = n * (n - 1) // 2
    near = (k - 1) * n - k * (k - 1) // 2  # pairs fewer than k positions apart
    lo_at = math.floor(((ranks[0] - near) / (pairs - near) - 1 / m) * len(sample))
    hi_at = math.ceil(((ranks[-1] - near) / (pairs - near) + 1 / m) * len(sample))
    sample = np.partition(sample, [max(lo_at, 0), min(hi_at, len(sample) - 1)])
    lo = sample[lo_at] if lo_at >= 0 else -math.inf
    hi = sample[hi_at] if hi_at < len(sample) else math.inf
    below, band = _gaps_between(s, lo, hi)
    if not below <= ranks[0] <= ranks[-1] < below + len(band):
        below, band = _gaps_between(s, -math.inf, math.inf)
    first = ranks[0] - below
    picked = np.partition(band, first)
    gaps = [float(picked[first])]
    if len(ranks) == 2:  # the next rank is the least gap above the first
        gaps.append(float(picked[first + 1 :].min()))
    return gaps


def _gaps_between(s, lo, hi):
    """The number of gaps s[j] - s[i] (i < j) of the sorted finite values
    ``s`` below ``lo``, and the gaps in [lo, hi], in no particular order."""
    after = np.arange(1, len(s) + 1)  # row i starts at column i + 1
    start = np.maximum(_gap_rank(s, lo, "left"), after)
    stop = np.maximum(_gap_rank(s, hi, "right"), after)
    counts = stop - start
    ends = np.cumsum(counts)
    cols = np.arange(ends[-1]) + np.repeat(start - ends + counts, counts)
    return int((start - after).sum()), s[cols] - np.repeat(s, counts)


def _gap_rank(s, t, side):
    """For each i, the number of j with s[j] - s[i] < t (``side="left"``) or
    <= t (``"right"``) over the sorted finite values ``s``, the differences
    rounded as floats.

    Rounding is monotone, so each row of differences is sorted and the count
    is a search position. Searching ``s`` for s[i] + t rounds that sum, so
    the position is checked against the exact differences on either side of
    it (-inf before ``s`` and inf after it), and a row that fails the check
    is counted in full.
    """
    if math.isinf(t):  # every finite gap is above -inf and below inf
        return np.full(len(s), 0 if t < 0 else len(s))
    below = np.less if side == "left" else np.less_equal
    pos = np.searchsorted(s, s + t, side)
    padded = np.concatenate(([-math.inf], s, [math.inf]))
    wrong = np.flatnonzero(~below(padded[pos] - s, t) | below(padded[pos + 1] - s, t))
    if len(wrong):
        pos[wrong] = np.count_nonzero(below(s - s[wrong, None], t), axis=1)
    return pos


# -- feature selection ----------------------------------------------------------


def feature_set(
    variant: Variant, g: Pdag, sensitive: str, admissible: Iterable[str] = ()
) -> tuple[str, ...]:
    """Predictor inputs for a variant, ordered by graph index.

    IFair may get no inputs at all (no definite non-descendants of the
    sensitive vertex and no admissible vertices); it is then the constant
    predictor.
    """
    admissible = tuple(admissible)
    if variant in (Variant.FULL, Variant.EPS_IFAIR):
        return tuple(g.names)
    if variant is Variant.UNAWARE:
        return tuple(v for v in g.names if v != sensitive)
    feats = set(definite_nondescendants(g, sensitive)) | set(admissible)
    feats.discard(sensitive)
    return g.sort_vertices(feats)


def admissible_intervention_values(
    data: Dataset, admissible: Iterable[str]
) -> dict[str, float]:
    """Clamp values for the admissible vertices: training-split column means."""
    rows = data.subset("train")
    return {v: float(rows.columns[v].mean()) for v in admissible}


# -- network ---------------------------------------------------------------------


def _init_params(n_in: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "w1": rng.standard_normal((n_in, hidden)) / np.sqrt(max(n_in, 1)),
        "b1": np.zeros(hidden),
        "w2": rng.standard_normal((hidden, 1)) / np.sqrt(hidden),
        "b2": np.zeros(1),
    }


def _forward(params, x):
    """Network output and hidden activations for the rows of ``x``.

    Works in place, as does ``_backward``: a stacked block has thousands of
    rows, and every block-sized temporary that the allocator hands back to
    the system costs fresh pages on the next call.
    """
    hidden = x @ params["w1"]
    hidden += params["b1"]
    np.tanh(hidden, out=hidden)
    return (hidden @ params["w2"] + params["b2"]).ravel(), hidden


def _backward(params, x, hidden, dout):
    """Parameter gradients given dL/d(output); returns a grad dict."""
    dz2 = dout[:, None]
    dhidden = np.square(hidden)
    np.subtract(1.0, dhidden, out=dhidden)
    dhidden *= dz2
    dhidden *= params["w2"].T
    return {
        "w1": x.T @ dhidden,
        "b1": dhidden.sum(axis=0),
        "w2": hidden.T @ dz2,
        "b2": dz2.sum(axis=0),
    }


def _stack(x, sets, features, tag):
    """One matrix of the observational rows ``x`` and the ``tag`` rows of every
    (group, context) cell of ``sets``.

    Returns the matrix and, for each cell with at least two sensitive levels,
    one row slice per level in sensitive-value order. The observational rows
    come first, so they are the first ``len(x)`` rows of the matrix.
    """
    keyed = sorted(sets, key=lambda s: (s.group, s.context, s.sensitive_value))
    blocks, cells = [x], []
    start = len(x)
    for _, members in groupby(keyed, key=lambda s: (s.group, s.context)):
        members = list(members)
        if len(members) < 2:
            continue
        slices = []
        for s in members:
            rows = s.data.subset(tag).matrix(features)
            blocks.append(rows)
            slices.append(slice(start, start + len(rows)))
            start += len(rows)
        cells.append(slices)
    return np.concatenate(blocks), cells


def _penalty(out, cells, bandwidth_mode, dout):
    """Mean over cells of the level-pair mean MMD^2 of each cell's predictions
    ``out``: the one fairness penalty of training, validation, evaluation and
    ``mmd2``.

    A cell's level slices are adjacent, so ``_context_mmd2`` gets one view of
    the cell's rows and the level sizes. Its bandwidth is ``bandwidth_mode``,
    or in ``"median"`` mode the median heuristic on those rows. Unless
    ``dout`` is None, the gradient of the mean with respect to the predictions
    is added into the cells' rows of ``dout``.
    """
    total = 0.0
    for slices in cells:
        rows = slice(slices[0].start, slices[-1].stop)
        sizes = [s.stop - s.start for s in slices]
        pooled = out[rows]
        sigma = median_bandwidth(pooled) if bandwidth_mode == "median" else float(bandwidth_mode)
        value, grad = _context_mmd2(pooled, sizes, sigma, dout is not None)
        total += value / len(cells)
        if dout is not None:
            dout[rows] += grad / len(cells)
    return total


def _objective_and_grads(params, x, y, cells, lam, bandwidth_mode, want_grads=True):
    """MSE on the first ``len(y)`` rows of the stacked block ``x`` plus ``lam``
    times the penalty over ``cells`` (see ``_stack``), from one forward pass
    and, with ``want_grads``, one backward pass."""
    out, hidden = _forward(params, x)
    resid = out[: len(y)] - y
    value = float((resid**2).mean())
    dout = np.zeros(len(out)) if want_grads else None
    if lam > 0 and cells:
        value += lam * _penalty(out, cells, bandwidth_mode, dout)
        if want_grads:
            dout *= lam  # only the cells' rows are set so far
    if not want_grads:
        return value, None
    dout[: len(y)] = 2.0 * resid / len(y)
    return value, _backward(params, x, hidden, dout)


def train_predictor(
    variant: Variant,
    lam: float,
    obs: Dataset,
    interventional: Sequence[InterventionalSet],
    *,
    graph: Pdag,
    sensitive: str,
    outcome: str,
    admissible: Iterable[str] = (),
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> FairPredictor:
    """Fit one predictor by momentum gradient descent with early stopping.

    Model selection tracks the validation objective (validation MSE plus the
    penalty on the validation rows of each interventional dataset). The
    penalty's bandwidth is the median heuristic on each cell; training
    stops after ``config.patience`` epochs without improvement and the best
    parameters are returned. Deterministic for a fixed seed.
    """
    admissible = tuple(admissible)
    features = feature_set(variant, graph, sensitive, admissible)
    sets = interventional if lam > 0 else ()
    obs_train = obs.subset("train")
    obs_val = obs.subset("val")
    y_train = obs_train.columns[outcome]
    y_val = obs_val.columns[outcome]
    x_train, train_cells = _stack(obs_train.matrix(features), sets, features, "train")
    x_val, val_cells = _stack(obs_val.matrix(features), sets, features, "val")

    rng = child_rng(seed, 8)
    params = _init_params(len(features), config.hidden_width, rng)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    best = {k: v.copy() for k, v in params.items()}
    best_val = np.inf
    best_epoch = 0
    stale = 0
    for epoch in range(config.epochs):
        _, grads = _objective_and_grads(params, x_train, y_train, train_cells, lam, "median")
        for k in params:
            velocity[k] = config.momentum * velocity[k] - config.lr * grads[k]
            params[k] = params[k] + velocity[k]
        val_value, _ = _objective_and_grads(
            params, x_val, y_val, val_cells, lam, "median", want_grads=False
        )
        if val_value < best_val - 1e-12:
            best_val = val_value
            best = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch + 1
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    return FairPredictor(
        variant=variant,
        features=features,
        admissible=admissible,
        weights=best,
        lam=lam,
        seed=seed,
        best_epoch=best_epoch,
    )


def evaluate(
    model: FairPredictor,
    obs_test: Dataset,
    truth_interventional: Sequence[InterventionalSet],
    *,
    outcome: str,
    bandwidth_mode: str | float = "median",
) -> EvalRecord:
    """RMSE on held-out observational rows plus MMD^2 unfairness.

    Unfairness is the squared MMD between the model's predictions across the
    ground-truth interventional datasets, averaged over unordered
    sensitive-level pairs and over intervention contexts and groups.
    ``bandwidth_mode`` is a positive finite number, or ``"median"`` for the
    median heuristic on each context's pooled predictions.
    """
    _check_bandwidth("bandwidth_mode", bandwidth_mode)
    x, cells = _stack(
        obs_test.matrix(model.features), truth_interventional, model.features, "test"
    )
    out = _forward(model.weights, x)[0]
    y = obs_test.columns[outcome]
    rmse = float(np.sqrt(((out[: len(y)] - y) ** 2).mean()))
    return EvalRecord(rmse=rmse, mmd2=_penalty(out, cells, bandwidth_mode, None))
