"""Matching conditions: when the inner and outer regions coincide.

The outer bound of :mod:`rdregion.regions` is tight whenever the scaled
level ``exp(-2 r_l) * theta(r)`` is nonincreasing along every rate axis.
This module provides distortion thresholds below which that monotonicity
is guaranteed, plus a direct grid scan that checks it numerically.

All thresholds are stated for the sum distortion criterion and grow out
of the spectrum of the weighted limiting precision
``W* = Gamma^-T (Sigma_X^-1 + A^T Sigma_N^-1 A) Gamma^-1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateInput, InfeasibleBudget, InfeasibleDistortion, InvalidInput
from .problems import DistortionCriterion, RemoteProblem, as_rates, posterior_precision
from .waterfill import waterfill_det

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
    return p.a_mat @ np.linalg.inv(p.gamma)


def weighted_spectrum(p: RemoteProblem, r) -> np.ndarray:
    """Ascending eigenvalues of ``Gamma^-T M(r) Gamma^-1``.

    ``M(r)`` is the posterior precision at auxiliary rates r; these
    eigenvalues are the reciprocals of the water-filling floors.
    """
    rates = as_rates(r, p.l)
    gamma_inv = np.linalg.inv(p.gamma)
    w = gamma_inv.T @ posterior_precision(p, rates) @ gamma_inv
    return np.linalg.eigvalsh(0.5 * (w + w.T))


def _limit_weighted(p: RemoteProblem) -> np.ndarray:
    gamma_inv = np.linalg.inv(p.gamma)
    m_inf = p.sigma_x_inv + p.a_mat.T @ (p.a_mat / p.noise_vars[:, None])
    w = gamma_inv.T @ m_inf @ gamma_inv
    return 0.5 * (w + w.T)


def limit_spectrum(p: RemoteProblem) -> np.ndarray:
    """Ascending eigenvalues of the weighted precision at unbounded rates."""
    return np.linalg.eigvalsh(_limit_weighted(p))


def _haar_fixing_axis(rng, k: int, axis: int) -> np.ndarray:
    # random orthogonal transform of the complement of one coordinate
    q, rmat = np.linalg.qr(rng.normal(size=(k - 1, k - 1)))
    q = q * np.sign(np.diag(rmat))
    out = np.eye(k)
    rest = [i for i in range(k) if i != axis]
    out[np.ix_(rest, rest)] = q
    return out


def rotation_bound(p: RemoteProblem, row: int, samples: int = 64, seed: int = 0) -> float:
    """Per-encoder alignment functional entering the rotation threshold.

    For observation row ``row`` (0-based), maximizes over the target axis k
    and over orthogonal transforms T aligning the weighted row with axis k::

        (1 + |c|^2 / a_max^2) / (C_kk - |c|^2 / a_max)

    where ``C = T^T W* T``, ``c`` is row k of C without its diagonal entry,
    and ``a_max`` is the top eigenvalue of W*. Transforms sharing the
    alignment differ by an orthogonal map of the complement of axis k; for
    up to two source coordinates that freedom is a sign flip and the value
    returned is exact, otherwise the complement is sampled (seeded) and the
    value is a certified lower estimate.
    """
    if not 0 <= row < p.l:
        raise InvalidInput(f"row must be in [0, {p.l})")
    w_star = _limit_weighted(p)
    a_max = np.linalg.eigvalsh(w_star)[-1]
    a_hat = weighted_rows(p)[row]
    if float(np.linalg.norm(a_hat)) <= 0.0:
        raise DegenerateInput("observation row vanishes in weighted coordinates")
    k = p.k
    rng = np.random.default_rng(seed)
    best = -math.inf
    for axis in range(k):
        base = linalg.householder_to_axis(a_hat, axis)
        if k <= 2:
            candidates = [base]
        else:
            candidates = [base] + [
                base @ _haar_fixing_axis(rng, k, axis) for _ in range(samples)
            ]
        for t in candidates:
            c_mat = t.T @ w_star @ t
            chi = c_mat[axis, axis]
            off = np.delete(c_mat[axis], axis)
            norm2 = float(off @ off)
            val = (1.0 + norm2 / a_max**2) / (chi - norm2 / a_max)
            if val > best:
                best = val
    return best


def threshold_rotation(p: RemoteProblem, samples: int = 64, seed: int = 0) -> float:
    """Sum-distortion threshold from the alignment functionals.

    Matching holds for budgets up to ``K / a_max + min_l rotation_bound(l)``.
    Exact for K <= 2; a certified lower estimate otherwise.
    """
    a_max = limit_spectrum(p)[-1]
    best = min(rotation_bound(p, row, samples=samples, seed=seed) for row in range(p.l))
    return p.k / a_max + best


def threshold_simplified(p: RemoteProblem) -> float:
    """Spectrum-only sum-distortion threshold ``(K + 1) / a_max``."""
    return (p.k + 1) / limit_spectrum(p)[-1]


def threshold_noise(p: RemoteProblem) -> float:
    """Sum-distortion threshold using the smallest weighted noise ratio.

    With ``tau_l = noise_var_l / |a_hat_l|^2`` and ``tau* = min_l tau_l``,
    matching holds for budgets up to
    ``K/a_max + (sqrt(1 + 4 a_max tau*) - 1) / (2 a_max)``.
    """
    a_max = limit_spectrum(p)[-1]
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
    outer regions built from these levels agree on the grid.
    """
    if points < 2:
        raise InvalidInput("md_scan needs at least two grid points per axis")
    if points**p.l > 100_000:
        raise InvalidInput("grid too large; reduce points or the number of encoders")
    axes = np.linspace(0.0, float(r_max), points)
    values = {}
    for idx in itertools.product(range(points), repeat=p.l):
        r = axes[list(idx)]
        try:
            values[idx] = waterfill_det(p, criterion, r)
        except (InfeasibleBudget, InfeasibleDistortion):
            values[idx] = None
    worst = 0.0
    pairs = 0
    for idx, th in values.items():
        if th is None:
            continue
        for l in range(p.l):
            if idx[l] + 1 >= points:
                continue
            nxt = idx[:l] + (idx[l] + 1,) + idx[l + 1 :]
            th2 = values[nxt]
            if th2 is None:
                continue
            v1 = math.exp(-2.0 * axes[idx[l]]) * th
            v2 = math.exp(-2.0 * axes[idx[l] + 1]) * th2
            worst = max(worst, (v2 - v1) / max(v1, 1e-300))
            pairs += 1
    return MdReport(holds=worst <= tol, worst=worst, pairs=pairs)
