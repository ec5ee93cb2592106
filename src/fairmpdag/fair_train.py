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
one forward pass over their block; the penalty turns each cell's prediction
slices into a value and adds its gradient with respect to the predictions
into one output gradient, and training then makes one backward pass.

One kernel serves the training penalty, the validation pass, evaluation and
``mmd2``: ``_context_mmd2`` takes the predictions for every level of one
context and builds each self block K_ii and each cross block K_ij (i < j)
once, L + L(L-1)/2 blocks for L levels instead of three per level pair. The
gradient with respect to each level's predictions comes from the same
blocks; the validation pass and evaluation take the value-only path. Blocks
are built in cache-sized row chunks with two reused buffers. Precision
policy: only gradient blocks with more than 65536 entries are evaluated in
float32; every value-only block and every smaller gradient block is float64.
"""
from __future__ import annotations

import enum
import functools
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np
from scipy.special import expit

from .ancestry import definite_nondescendants
from .graph_core import Pdag
from .scm_lab import Dataset, child_rng


class Variant(enum.Enum):
    FULL = "full"
    UNAWARE = "unaware"
    IFAIR = "ifair"
    EPS_IFAIR = "eps_ifair"


class EmptyFeatureSetError(ValueError):
    """The variant's feature set is empty (no definite non-descendants)."""


@dataclass(frozen=True)
class TrainConfig:
    hidden_width: int = 32
    lr: float = 1e-2
    momentum: float = 0.9
    epochs: int = 2000
    patience: int = 100
    lambda_grid: tuple[float, ...] = (0.0, 0.5, 5.0, 20.0, 60.0, 100.0)
    seeds: tuple[int, ...] = (0,)
    bandwidth_mode: str | float = "median"
    binary_outcome: bool = False

    def __post_init__(self):
        _check_int("hidden_width", self.hidden_width, 1)
        _check_int("epochs", self.epochs, 1)
        _check_int("patience", self.patience, 0)
        lr, momentum, grid, seeds = self.lr, self.momentum, self.lambda_grid, self.seeds
        _check("lr", lr, _is_finite(lr) and lr > 0, "a positive finite number")
        _check("momentum", momentum, _is_finite(momentum) and 0 <= momentum < 1, "in [0, 1)")
        ok = isinstance(grid, tuple) and grid and all(_is_finite(x) and x >= 0 for x in grid)
        _check("lambda_grid", grid, ok, "a nonempty list of finite numbers >= 0")
        ok = isinstance(seeds, tuple) and seeds and all(type(x) is int and x >= 0 for x in seeds)
        ok = ok and len(set(seeds)) == len(seeds)
        _check("seeds", seeds, ok, "a nonempty list of distinct nonnegative integers")
        mode = self.bandwidth_mode
        ok = mode == "median" or (_is_finite(mode) and mode > 0)
        _check("bandwidth_mode", mode, ok, "'median' or a positive finite number")
        flag = self.binary_outcome
        _check("binary_outcome", flag, type(flag) is bool, "a bool")


def _is_finite(value) -> bool:
    """True for a finite int or float; bools and strings are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check(name: str, value, ok, rule: str) -> None:
    """Reject a config value, naming its field, unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_int(name: str, value, low: int) -> None:
    _check(name, value, type(value) is int and value >= low, f"an integer >= {low}")


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
    lam: float
    seed: int


@dataclass
class FairPredictor:
    variant: Variant
    features: tuple[str, ...]
    admissible: tuple[str, ...]
    weights: dict[str, np.ndarray]
    lam: float
    seed: int
    binary_outcome: bool = False
    best_epoch: int = 0

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        return _forward(self.weights, x, self.binary_outcome)[0]

    def predict(self, data: Dataset) -> np.ndarray:
        return self.predict_matrix(data.matrix(self.features))

    def to_json(self) -> str:
        return json.dumps(
            {
                "variant": self.variant.value,
                "features": list(self.features),
                "admissible": list(self.admissible),
                "lambda": self.lam,
                "seed": self.seed,
                "binary_outcome": self.binary_outcome,
                "best_epoch": self.best_epoch,
                "weights": {k: v.tolist() for k, v in self.weights.items()},
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FairPredictor":
        raw = json.loads(text)
        return cls(
            variant=Variant(raw["variant"]),
            features=tuple(raw["features"]),
            admissible=tuple(raw["admissible"]),
            weights={k: np.asarray(v, dtype=float) for k, v in raw["weights"].items()},
            lam=raw["lambda"],
            seed=raw["seed"],
            binary_outcome=raw["binary_outcome"],
            best_epoch=raw["best_epoch"],
        )


# -- MMD -----------------------------------------------------------------------

# Gradient blocks with more entries than this are evaluated in float32: the
# training loop only needs gradient direction, and halving the memory traffic
# roughly doubles throughput. Smaller gradient blocks and every value-only
# block (validation, evaluation, ``mmd2``) stay in float64.
_FLOAT32_BLOCK = 65536
# Kernel blocks are built in row chunks of about this many entries, so the
# chunk buffers stay in cache instead of each block allocating several
# block-sized temporaries.
_CHUNK_ENTRIES = 32768


def _kernel_block(pa, pb, sigma, want_grads, symmetric):
    """Mean of the Gaussian kernel block K[k, l] = exp(-(pa[k] - pb[l])^2 / sigma).

    With ``want_grads`` also returns the row sums of (pa[k] - pb[l]) K[k, l]
    and, unless the block is a self block (``symmetric``), the column sums,
    both in float64. The block is built in row chunks of about
    ``_CHUNK_ENTRIES`` entries, in two buffers reused for every chunk: the
    differences, which then hold the product, and the kernel.
    """
    big = want_grads and len(pa) * len(pb) > _FLOAT32_BLOCK
    dtype = np.float32 if big else np.float64
    pa = pa.astype(dtype, copy=False)
    pb = pb.astype(dtype, copy=False)
    scale = dtype(-1.0 / sigma)
    step = min(len(pa), max(1, _CHUNK_ENTRIES // len(pb)))
    # Row 0 of ``diff`` carries the column sums of the chunks before, so that
    # summing over axis 0 adds rows in the order one pass over the block would.
    diff = np.empty((step + 1, len(pb)), dtype)
    kern = np.empty((step, len(pb)), dtype)
    total = 0.0
    rows = np.empty(len(pa)) if want_grads else None
    cols = None
    for start in range(0, len(pa), step):
        chunk = pa[start:start + step]
        d = diff[1:1 + len(chunk)]
        k = kern[: len(chunk)]
        np.subtract.outer(chunk, pb, out=d)
        np.multiply(d, d, out=k)
        k *= scale
        np.exp(k, out=k)
        total += float(k.sum())
        if want_grads:
            d *= k
            rows[start:start + len(chunk)] = d.sum(axis=1)
            if not symmetric:
                cols = diff[int(start == 0):1 + len(chunk)].sum(axis=0)
                diff[0] = cols
    mean = total / (len(pa) * len(pb))
    if cols is not None:
        cols = cols.astype(np.float64)
    return mean, rows, cols


def _context_mmd2(preds, sigma, want_grads=False):
    """Mean MMD^2 over all level pairs of one context, and optionally its
    gradient with respect to each level's predictions.

    Each self block K_ii and each cross block K_ij (i < j) is built once: with
    L levels and P = L(L-1)/2 pairs the value is
    [(L-1) sum_i mean K_ii - 2 sum_{i<j} mean K_ij] / P, and the gradients
    follow from the same blocks. Returns ``(value, grads)``; ``grads`` is None
    unless ``want_grads``.
    """
    levels = len(preds)
    pairs = levels * (levels - 1) // 2
    sizes = [len(p) for p in preds]
    self_sum = cross_sum = 0.0
    grads = [np.zeros(n) for n in sizes] if want_grads else None
    for i in range(levels):
        mean, rows, _ = _kernel_block(preds[i], preds[i], sigma, want_grads, True)
        self_sum += mean
        if want_grads:
            grads[i] -= (4.0 * (levels - 1) / (pairs * sigma * sizes[i] ** 2)) * rows
    for i, j in combinations(range(levels), 2):
        mean, rows, cols = _kernel_block(preds[i], preds[j], sigma, want_grads, False)
        cross_sum += mean
        if want_grads:
            scale = 4.0 / (pairs * sigma * sizes[i] * sizes[j])
            grads[i] += scale * rows
            grads[j] -= scale * cols
    return ((levels - 1) * self_sum - 2.0 * cross_sum) / pairs, grads


def mmd2(ya: Iterable[float], yb: Iterable[float], bandwidth: float) -> float:
    """Biased squared maximum mean discrepancy with kernel exp(-d^2/bandwidth)."""
    pa = np.asarray(ya, dtype=float).ravel()
    pb = np.asarray(yb, dtype=float).ravel()
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("samples must be nonempty")
    return _context_mmd2([pa, pb], bandwidth)[0]


@functools.lru_cache(maxsize=8)
def _upper_flat_index(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix, row-major."""
    rows, cols = np.triu_indices(n, k=1)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def median_bandwidth(values: np.ndarray, cap: int = 512) -> float:
    """Median pairwise squared distance, on an even subsample past ``cap``."""
    v = np.asarray(values, dtype=float).ravel()
    if len(v) > cap:
        v = v[np.linspace(0, len(v) - 1, cap).astype(int)]
    if len(v) < 2:
        return 1.0
    upper = np.subtract.outer(v, v).ravel()[_upper_flat_index(len(v))]
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


# -- feature selection ----------------------------------------------------------


def feature_set(
    variant: Variant, g: Pdag, sensitive: str, admissible: Iterable[str] = ()
) -> tuple[str, ...]:
    """Predictor inputs for a variant, ordered by graph index."""
    admissible = tuple(admissible)
    if variant in (Variant.FULL, Variant.EPS_IFAIR):
        return tuple(g.names)
    if variant is Variant.UNAWARE:
        return tuple(v for v in g.names if v != sensitive)
    feats = set(definite_nondescendants(g, sensitive)) | set(admissible)
    feats.discard(sensitive)
    if not feats:
        raise EmptyFeatureSetError(
            f"no definite non-descendants of {sensitive!r} and no admissible vertices"
        )
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


def _forward(params, x, binary: bool):
    """Network output and hidden activations for the rows of ``x``.

    Works in place, as does ``_backward``: a stacked block has thousands of
    rows, and every block-sized temporary that the allocator hands back to
    the system costs fresh pages on the next call.
    """
    hidden = x @ params["w1"]
    hidden += params["b1"]
    np.tanh(hidden, out=hidden)
    raw = (hidden @ params["w2"] + params["b2"]).ravel()
    out = expit(raw) if binary else raw
    return out, hidden


def _backward(params, x, hidden, out, dout, binary: bool):
    """Parameter gradients given dL/d(output); returns a grad dict."""
    draw = dout * out * (1.0 - out) if binary else dout
    dz2 = draw[:, None]
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


def _mmd2_discrepancy(preds, want_grads, bandwidth_mode):
    """Mean MMD^2 over the level pairs of one context, bandwidth from the
    pooled predictions in ``"median"`` mode."""
    if bandwidth_mode == "median":
        sigma = median_bandwidth(np.concatenate(preds))
    else:
        sigma = float(bandwidth_mode)
    return _context_mmd2(preds, sigma, want_grads)


def _mean_diff_discrepancy(preds, want_grads):
    """Mean |difference of level means| over the level pairs of one context;
    the penalty used in the binary-outcome mode."""
    pairs = list(combinations(range(len(preds)), 2))
    total = 0.0
    grads = [np.zeros_like(p) for p in preds] if want_grads else None
    for i, j in pairs:
        delta = preds[i].mean() - preds[j].mean()
        total += abs(delta)
        if want_grads:
            sign = np.sign(delta) / len(pairs)
            grads[i] += sign / len(preds[i])
            grads[j] -= sign / len(preds[j])
    return total / len(pairs), grads


def _penalty(out, cells, discrepancy, dout):
    """Mean over cells of ``discrepancy`` on each cell's level slices of the
    predictions ``out``.

    ``discrepancy(preds, want_grads)`` returns the cell's value and, on
    request, its gradient with respect to each level's predictions. Unless
    ``dout`` is None, the gradient of the mean is added into its rows.
    """
    total = 0.0
    for slices in cells:
        value, dpreds = discrepancy([out[s] for s in slices], dout is not None)
        total += value / len(cells)
        if dout is not None:
            for s, g in zip(slices, dpreds):
                dout[s] += g / len(cells)
    return total


def _objective_and_grads(
    params, x, y, cells, lam, bandwidth_mode, binary, want_grads=True
):
    """MSE on the first ``len(y)`` rows of the stacked block ``x`` plus ``lam``
    times the penalty over ``cells`` (see ``_stack``), from one forward pass
    and, with ``want_grads``, one backward pass."""
    out, hidden = _forward(params, x, binary)
    resid = out[: len(y)] - y
    value = float((resid**2).mean())
    dout = np.zeros(len(out)) if want_grads else None
    if lam > 0 and cells:
        if binary:
            discrepancy = _mean_diff_discrepancy
        else:
            discrepancy = functools.partial(
                _mmd2_discrepancy, bandwidth_mode=bandwidth_mode
            )
        value += lam * _penalty(out, cells, discrepancy, dout)
        if want_grads:
            dout *= lam  # only the cells' rows are set so far
    if not want_grads:
        return value, None
    dout[: len(y)] = 2.0 * resid / len(y)
    return value, _backward(params, x, hidden, out, dout, binary)


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
    penalty on the validation rows of each interventional dataset); training
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
        _, grads = _objective_and_grads(
            params, x_train, y_train, train_cells, lam, config.bandwidth_mode,
            config.binary_outcome,
        )
        for k in params:
            velocity[k] = config.momentum * velocity[k] - config.lr * grads[k]
            params[k] = params[k] + velocity[k]
        val_value, _ = _objective_and_grads(
            params, x_val, y_val, val_cells, lam, config.bandwidth_mode,
            config.binary_outcome, want_grads=False,
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
        binary_outcome=config.binary_outcome,
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
    """
    x, cells = _stack(
        obs_test.matrix(model.features), truth_interventional, model.features, "test"
    )
    out = _forward(model.weights, x, model.binary_outcome)[0]
    y = obs_test.columns[outcome]
    rmse = float(np.sqrt(((out[: len(y)] - y) ** 2).mean()))
    mmd = functools.partial(_mmd2_discrepancy, bandwidth_mode=bandwidth_mode)
    unfairness = _penalty(out, cells, mmd, None)
    return EvalRecord(rmse=rmse, mmd2=unfairness, lam=model.lam, seed=model.seed)
