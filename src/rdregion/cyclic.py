"""Sum-rate curves for shift-invariant observation ensembles.

When the observation covariance is unchanged by a cyclic rotation of the
encoder indices, the multiterminal sum-rate bounds collapse to scalar
water-filling over the covariance eigenvalues ``mu_l`` with an isotropic
noise split ``epsilon * I``. Everything is driven by a single balanced
rate r: the per-eigenvalue precisions ``beta(r)``, the balanced-path
distortion, the matched rate ``r_star`` where the distortion budget is
exactly spent, the converse objective along the path, certification
thresholds, and the closed-form (rate, distortion) curve that the bounds
share below the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, optimize
from .errors import DegenerateInput, InvalidInput, InvalidMatrix
from .waterfill import water_level

__all__ = [
    "CyclicInstance",
    "CyclicThresholds",
    "DerivativeReport",
    "CyclicCurve",
    "shift_residual",
    "cyclic_instance",
    "beta",
    "floor_total",
    "distortion_at",
    "rate_at",
    "r_star",
    "det_level",
    "sum_rate_bound",
    "thresholds",
    "derivative_condition",
    "parametric_curve",
]


@dataclass(frozen=True)
class CyclicInstance:
    """Shift-invariant covariance reduced to its eigenvalues.

    Built by :func:`cyclic_instance`. ``mu`` holds the eigenvalues in
    ascending order, ``mu_second`` the second largest counted with
    multiplicity, and ``tr_b`` the trace of the converse offset
    ``sum_l epsilon*mu_l/(mu_l - epsilon)``.
    """

    sigma_y: np.ndarray
    epsilon: float
    mu: np.ndarray
    mu_second: float
    tr_b: float

    @property
    def l(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class CyclicThresholds:
    """Certified range: rates above s_eps, distortions up to d_th."""

    s_eps: float
    d_th: float


@dataclass(frozen=True)
class DerivativeReport:
    """Sign test of the converse objective's slope at the matched rate."""

    satisfied: bool
    derivative: float


@dataclass(frozen=True)
class CyclicCurve:
    """Sampled (rate, distortion) curve with per-point certification."""

    r: np.ndarray
    rate: np.ndarray
    distortion: np.ndarray
    certified: np.ndarray


def shift_residual(sigma_y) -> float:
    """Largest entry change of the covariance under a one-step cyclic
    rotation of the indices; zero exactly for circulant matrices."""
    s = linalg.as_symmetric(sigma_y)
    rotated = np.roll(np.roll(s, 1, axis=0), 1, axis=1)
    return float(np.abs(rotated - s).max())


def cyclic_instance(sigma_y, epsilon: float | None = None) -> CyclicInstance:
    """Validate a shift-invariant covariance and fix the noise split.

    ``epsilon`` defaults to just below the smallest eigenvalue, which
    yields the widest certified distortion range; the endpoint itself is
    excluded because the implied source part ``sigma_y - epsilon*I`` must
    stay positive definite. Raises InvalidInput when the covariance is not
    shift invariant (residual above 1e-9) and DegenerateInput when the
    split consumes the smallest eigenvalue.
    """
    s = linalg.as_symmetric(sigma_y)
    mu = np.linalg.eigvalsh(s)
    if mu[0] <= 0.0:
        raise InvalidMatrix("sigma_y must be positive definite")
    resid = shift_residual(s)
    if resid > 1e-9:
        raise InvalidInput(
            f"sigma_y is not invariant under cyclic index rotation "
            f"(residual {resid:.3e})"
        )
    if epsilon is None:
        epsilon = float(mu[0]) * (1.0 - 1e-9)
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise InvalidInput("epsilon must be positive and finite")
    if epsilon >= mu[0]:
        raise DegenerateInput(
            "the noise split must stay strictly below the smallest "
            f"eigenvalue {mu[0]:.6g}"
        )
    mu_second = float(mu[-2]) if mu.shape[0] >= 2 else float(mu[-1])
    tr_b = float(np.sum(epsilon * mu / (mu - epsilon)))
    return CyclicInstance(
        sigma_y=s, epsilon=epsilon, mu=mu, mu_second=mu_second, tr_b=tr_b
    )


def _rate_scalar(r) -> float:
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise InvalidInput("rate must be nonnegative and finite")
    return r


def beta(ci: CyclicInstance, r) -> np.ndarray:
    """Per-eigenvalue precision coefficients at balanced rate r.

    ``beta_l(r) = (1/eps) * (1 - eps/mu_l) * (1 - (1 - eps/mu_l) e^{-2r})``,
    positive and strictly increasing in r. Their reciprocals are the
    water-filling floors of the converse program on the balanced path.
    """
    r = _rate_scalar(r)
    a = 1.0 - ci.epsilon / ci.mu
    g = np.expm1(2.0 * r) + ci.epsilon / ci.mu
    return a * g / (ci.epsilon * math.exp(2.0 * r))


def floor_total(ci: CyclicInstance, r) -> float:
    """Total of the water-filling floors ``sum_l 1/beta_l(r)``; strictly
    decreasing from ``tr(sigma_y) + tr_b`` at r = 0 down to ``tr_b``."""
    return float(np.sum(1.0 / beta(ci, r)))


def distortion_at(ci: CyclicInstance, r) -> float:
    """Balanced-path distortion ``sum_l eps*mu_l/(mu_l(e^{2r}-1)+eps)``.

    Equals ``floor_total(r) - tr_b`` but is evaluated per eigenvalue, so
    it stays accurate when the split sits close to the smallest eigenvalue
    and ``tr_b`` dwarfs the distortion.
    """
    r = _rate_scalar(r)
    g = np.expm1(2.0 * r) + ci.epsilon / ci.mu
    return float(np.sum(ci.epsilon / g))


def rate_at(ci: CyclicInstance, r) -> float:
    """Matched sum rate ``sum_l (1/2) log(1 + (mu_l/eps)(e^{2r}-1))``."""
    r = _rate_scalar(r)
    return float(np.sum(0.5 * np.log1p(ci.mu / ci.epsilon * np.expm1(2.0 * r))))


def r_star(ci: CyclicInstance, d) -> float:
    """Balanced rate at which the floors exactly spend the budget.

    Unique root of ``distortion_at(ci, r) = d``; the path distortion is
    strictly decreasing, so plain bisection on [1e-12, 60] applies. For d
    at or above the r = 0 distortion the root is clamped to 0.
    """
    d = float(d)
    if not math.isfinite(d) or d <= 0.0:
        raise InvalidInput("distortion must be positive and finite")
    if distortion_at(ci, 1e-12) < d:
        return 0.0
    return float(
        optimize.bisect_threshold(
            lambda r: distortion_at(ci, r) <= d, 1e-12, 60.0, iters=200
        )
    )


def _levels(ci: CyclicInstance, d, r):
    floors = 1.0 / beta(ci, r)
    budget = float(d) + ci.tr_b
    total = float(floors.sum())
    # exact-boundary clamp: at r = r_star rounding can leave the floor
    # total a hair above the budget
    if total > budget and total <= budget * (1.0 + 1e-9):
        budget = total
    return water_level(floors, budget).levels


def det_level(ci: CyclicInstance, d, r) -> float:
    """Water-filled determinant: product of the levels that spend
    ``d + tr_b`` over the floors ``1/beta_l(r)``. Raises InfeasibleBudget
    below the matched rate."""
    return float(np.prod(_levels(ci, d, r)))


def sum_rate_bound(ci: CyclicInstance, d, r) -> float:
    """Converse sum-rate objective on the balanced path.

    ``L r + (1/2) log(det(sigma_y + B) / det_level(d, r))`` for r at or
    above the matched rate; its minimum over r is the converse bound, and
    at ``r = r_star`` it coincides with the achievable rate
    :func:`rate_at`. Raises InfeasibleBudget for r below the matched rate.
    """
    r = _rate_scalar(r)
    levels = _levels(ci, d, r)
    logdet_shifted = float(np.sum(2.0 * np.log(ci.mu) - np.log(ci.mu - ci.epsilon)))
    return float(ci.l * r + 0.5 * (logdet_shifted - np.log(levels).sum()))


def thresholds(ci: CyclicInstance) -> CyclicThresholds:
    """Certified range of the closed-form curve.

    ``s_eps`` is the smallest balanced rate at which the matching argument
    applies; ``d_th`` is the corresponding distortion, so every distortion
    up to ``d_th`` has a certified matched solution. Both clamp at zero
    rate when the split is too large relative to the top eigenvalues.
    """
    mu_max = float(ci.mu[-1])
    first = max(0.0, 1.0 - ci.epsilon * (1.0 / ci.mu_second + 1.0 / mu_max))
    second = max(0.0, 1.0 - 4.0 * ci.epsilon / mu_max) / 3.0
    s_eps = 0.5 * math.log1p(min(first, second))
    return CyclicThresholds(s_eps=s_eps, d_th=distortion_at(ci, s_eps))


def derivative_condition(ci: CyclicInstance, d) -> DerivativeReport:
    """Right-hand slope of the converse objective at the matched rate.

    Closed form: with ``x = e^{2 r*}``, ``a_l = 1 - eps/mu_l``,
    ``g_l = x - a_l`` and ``l1`` the largest index attaining the maximal
    ``beta_l(r*)``, the slope is
    ``sum_l (x g_l - a_{l1} g_{l1}) / g_l^2``. A nonnegative slope means
    the converse minimum sits at ``r_star`` and the bounds are matched at
    this distortion.
    """
    rs = r_star(ci, d)
    x = math.exp(2.0 * rs)
    a = 1.0 - ci.epsilon / ci.mu
    g = np.expm1(2.0 * rs) + ci.epsilon / ci.mu
    b = a * g / (ci.epsilon * x)
    ties = np.flatnonzero(b >= b.max() * (1.0 - 1e-12))
    l1 = int(ties[-1])
    slope = float(np.sum((x * g - a[l1] * g[l1]) / (g * g)))
    return DerivativeReport(satisfied=bool(slope >= 0.0), derivative=slope)


def parametric_curve(ci: CyclicInstance, r_min, r_max, samples: int = 50) -> CyclicCurve:
    """Sample the closed-form (rate, distortion) curve on [r_min, r_max].

    The rate increases and the distortion decreases along the samples.
    Points below the threshold rate ``s_eps`` are still computed but
    carry ``certified=False``; above it the curve is the exact sum-rate
    trade-off.
    """
    samples = int(samples)
    if samples < 2:
        raise InvalidInput("parametric_curve needs at least two samples")
    r_lo, r_hi = float(r_min), float(r_max)
    if not (math.isfinite(r_lo) and math.isfinite(r_hi)):
        raise InvalidInput("rate range must be finite")
    if r_lo < 0.0 or r_hi > 100.0 or r_lo > r_hi:
        raise InvalidInput("rate range must satisfy 0 <= r_min <= r_max <= 100")
    rr = np.linspace(r_lo, r_hi, samples)
    rate = np.array([rate_at(ci, t) for t in rr])
    dist = np.array([distortion_at(ci, t) for t in rr])
    s_eps = thresholds(ci).s_eps
    certified = rr >= s_eps - 1e-12
    return CyclicCurve(r=rr, rate=rate, distortion=dist, certified=certified)
