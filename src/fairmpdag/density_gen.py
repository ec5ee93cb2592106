"""Bucket-wise conditional Gaussians and Monte-Carlo interventional data.

Each bucket of the partial causal ordering gets an ordinary-least-squares
multivariate Gaussian conditional on its graph parents, fitted from
observational data. Interventional samples then follow the identification
formula: clamp the intervened vertices and draw the remaining buckets in
causal order from the fitted conditionals.
"""
from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .causal_ident import IdentificationFormula
from .graph_core import Pdag, parents
from .scm_lab import SPLIT_82, Dataset, child_rng, split_rows

@dataclass(frozen=True)
class BucketConditional:
    """Linear-Gaussian conditional of a bucket given its parents."""

    bucket: tuple[str, ...]
    parents: tuple[str, ...]
    coef: np.ndarray
    intercept: np.ndarray
    residual_cov: np.ndarray

    @cached_property
    def noise_factor(self) -> np.ndarray:
        """F with F F^T the residual covariance: eigenvectors times root eigenvalues."""
        eigvals, eigvecs = _eigh(self.residual_cov)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _eigh(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``, whose answer for a 1 x 1 matrix [[c]] is c and [[1.0]]."""
    if len(cov) == 1:
        return cov[0], np.ones((1, 1))
    return np.linalg.eigh(cov)


def fit_bucket_conditionals(
    data: Dataset, ordering: tuple[frozenset[str], ...], g: Pdag
) -> list[BucketConditional]:
    """OLS fit of every bucket on its graph parents.

    A rank-deficient design gets the minimum-norm least-squares solution.
    The residual covariance is the maximum-likelihood estimate, symmetrized
    with negative eigenvalues clipped to zero; an eigenvalue below -1e-9
    times the largest is not rounding and raises.
    """
    models = []
    for bucket in ordering:
        members = g.sort_vertices(bucket)
        pa = parents(g, bucket)
        y = data.matrix(members)
        n = y.shape[0]
        design = np.column_stack([np.ones(n)] + [data.columns[p] for p in pa])
        beta = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ beta
        cov = resid.T @ resid / n
        cov = (cov + cov.T) / 2
        eigvals, eigvecs = _eigh(cov)
        if eigvals.min(initial=0.0) < -1e-9 * eigvals.max(initial=0.0):
            raise ValueError("residual covariance is not numerically PSD")
        cov = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
        models.append(
            BucketConditional(
                bucket=members,
                parents=pa,
                coef=beta[1:].T.copy(),
                intercept=beta[0].copy(),
                residual_cov=cov,
            )
        )
    return models


def generate_interventional(
    models: Sequence[BucketConditional],
    formula: IdentificationFormula,
    assignments: Mapping[str, float],
    n: int,
    seed: int,
) -> Dataset:
    """Sample the identification formula with the intervened vertices clamped.

    Buckets are drawn sequentially in causal order, each from its fitted
    conditional given already-sampled or clamped parent values. Deterministic
    for a fixed seed and model set; rows are split 8:2 into train/val.
    """
    missing = [v for v in formula.fixed if v not in assignments]
    if missing:
        raise ValueError(f"missing assignment for {missing}")
    by_bucket = {frozenset(m.bucket): m for m in models}
    rng = child_rng(seed, 6)
    columns: dict[str, np.ndarray] = {
        v: np.full(n, float(assignments[v])) for v in formula.fixed
    }
    for bucket, conditioning in reversed(formula.factors):
        model = by_bucket.get(frozenset(bucket))
        if model is None or model.parents != conditioning:
            raise ValueError(f"no fitted conditional matching bucket {bucket}")
        mean = model.intercept
        if model.parents:
            pa_vals = np.column_stack([columns[p] for p in model.parents])
            mean = pa_vals @ model.coef.T + mean
        values = rng.standard_normal((n, len(bucket))) @ model.noise_factor.T
        values += mean
        for k, v in enumerate(bucket):
            columns[v] = values[:, k]
    return Dataset(columns, split_rows(n, SPLIT_82))


# -- serialization -------------------------------------------------------------


def models_to_json(models: Sequence[BucketConditional]) -> str:
    payload = [
        {
            "bucket": list(m.bucket),
            "parents": list(m.parents),
            "coef": m.coef.tolist(),
            "intercept": m.intercept.tolist(),
            "residual_cov": m.residual_cov.tolist(),
        }
        for m in models
    ]
    return json.dumps({"bucket_conditionals": payload}, indent=2)
