"""Inner and outer rate regions over encoder subsets.

Every region here is a set of rate vectors ``R`` in R^L cut out by one
linear floor per nonempty encoder subset S::

    sum_{l in S} R_l  >=  f(S)

For the remote layout the inner floor ``rate_bound_inner`` and the outer
floor ``rate_bound_outer`` are driven by auxiliary rates ``r`` (nats); the
``mt_*`` variants evaluate the same geometry natively on a multiterminal
problem. Floors form a co-polymatroid (zero at the empty set, monotone,
supermodular), so weighted sum-rate minimization is solved exactly by a
greedy vertex walk.

Subsets are bitmasks: bit ``l-1`` set means encoder ``l`` belongs to S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    EmptySubset,
    InvalidInput,
    InvalidTheta,
    InvalidWeights,
    NotSupermodular,
    SubsetExplosion,
)
from .problems import (
    MultiterminalProblem,
    RemoteProblem,
    as_rates,
    mt_posterior_precision,
    posterior_precision,
)

__all__ = [
    "RegionSpec",
    "subsets",
    "subset_key",
    "parse_subset_key",
    "subset_sum",
    "rate_bound_inner",
    "rate_bound_outer",
    "region_inner",
    "region_outer",
    "mt_rate_bound_inner",
    "mt_rate_bound_outer",
    "mt_region_inner",
    "mt_region_outer",
    "check_co_polymatroid",
    "min_weighted_sum",
]

# Full region enumeration walks 2^L - 1 subsets; beyond this it is no
# longer a table a caller can reasonably consume.
_MAX_ENUM_L = 12


def subsets(l: int):
    """All nonempty encoder subsets of {1..l} as bitmasks, ascending."""
    return range(1, 1 << l)


def subset_key(mask: int, l: int) -> str:
    """Zero-padded binary key for a subset, e.g. mask 1, l 2 -> '0b01'."""
    return "0b" + format(mask, f"0{l}b")


def parse_subset_key(key: str, l: int) -> int:
    try:
        mask = int(key, 2)
    except (TypeError, ValueError):
        raise InvalidInput(f"bad subset key {key!r}") from None
    if not 1 <= mask < (1 << l):
        raise InvalidInput(f"subset key {key!r} out of range for l={l}")
    return mask


def _subset_members(mask: int, l: int) -> np.ndarray:
    if not isinstance(mask, (int, np.integer)):
        raise InvalidInput("subset must be an integer bitmask")
    if mask == 0:
        raise EmptySubset("subset must be nonempty")
    if not 0 < mask < (1 << l):
        raise InvalidInput(f"subset mask {mask} out of range for l={l}")
    return np.array([(mask >> i) & 1 for i in range(l)], dtype=bool)


def subset_sum(rates, mask: int) -> float:
    """Sum of the rate entries selected by a subset bitmask."""
    r = np.asarray(rates, dtype=float).ravel()
    members = _subset_members(mask, r.shape[0])
    return float(r[members].sum())


@dataclass(frozen=True)
class RegionSpec:
    """A rate region given by one floor per nonempty encoder subset.

    Attributes
    ----------
    l : int
        Number of encoders.
    kind : str
        Which bound produced the floors (e.g. ``"inner"`` or ``"outer"``).
    bounds : dict
        Map from subset bitmask to the floor value in nats.
    """

    l: int
    kind: str
    bounds: dict = field(default_factory=dict)

    def floor(self, mask: int) -> float:
        if mask == 0:
            return 0.0
        return self.bounds[mask]

    def contains(self, rates, tol: float = 1e-9) -> bool:
        """Whether a rate vector satisfies every subset floor within tol."""
        r = as_rates(rates, self.l)
        return all(
            float(r[_subset_members(m, self.l)].sum()) + tol >= v
            for m, v in self.bounds.items()
        )

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "kind": self.kind,
            "bounds": {subset_key(m, self.l): self.bounds[m] for m in sorted(self.bounds)},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegionSpec":
        try:
            l = int(d["l"])
            kind = str(d["kind"])
            raw = d["bounds"]
        except (KeyError, TypeError, ValueError):
            raise InvalidInput("region object needs fields 'l', 'kind', 'bounds'") from None
        bounds = {parse_subset_key(k, l): float(v) for k, v in raw.items()}
        return cls(l=l, kind=kind, bounds=bounds)


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta) or theta <= 0.0:
        raise InvalidTheta("theta must be positive and finite")
    return theta


def rate_bound_inner(p: RemoteProblem, r, subset: int) -> float:
    """Achievable rate floor for a subset of encoders at auxiliary rates r.

    Computes ``0.5*(logdet M(r) - logdet M_Sc(r)) + sum_{l in S} r_l`` where
    ``M(r)`` is the posterior precision of the hidden source and ``M_Sc``
    keeps only the complement encoders. Exactly zero when ``r_S == 0``.
    """
    rates = as_rates(r, p.l)
    members = _subset_members(subset, p.l)
    m_full = posterior_precision(p, rates)
    m_comp = posterior_precision(p, rates, keep=~members)
    gap = 0.5 * (linalg.logdet_pd(m_full) - linalg.logdet_pd(m_comp))
    return gap + float(rates[members].sum())


def rate_bound_outer(p: RemoteProblem, r, subset: int, theta: float) -> float:
    """Converse rate floor for a subset at auxiliary rates r and level theta.

    Computes ``max(0, sum_{l in S} r_l - 0.5*(log theta + logdet M_Sc(r)))``.
    ``theta`` is the distortion-constrained determinant level produced by
    :func:`rdregion.waterfill.waterfill_det`.
    """
    rates = as_rates(r, p.l)
    theta = _check_theta(theta)
    members = _subset_members(subset, p.l)
    m_comp = posterior_precision(p, rates, keep=~members)
    val = float(rates[members].sum()) - 0.5 * (
        math.log(theta) + linalg.logdet_pd(m_comp)
    )
    return max(0.0, val)


def _check_enum(l: int) -> None:
    if l > _MAX_ENUM_L:
        raise SubsetExplosion(
            f"region enumeration over {l} encoders needs {(1 << l) - 1} floors; "
            f"the limit is l={_MAX_ENUM_L}"
        )


def region_inner(p: RemoteProblem, r) -> RegionSpec:
    """Inner region of a remote problem at auxiliary rates r."""
    _check_enum(p.l)
    bounds = {m: rate_bound_inner(p, r, m) for m in subsets(p.l)}
    return RegionSpec(l=p.l, kind="inner", bounds=bounds)


def region_outer(p: RemoteProblem, r, theta: float) -> RegionSpec:
    """Outer region of a remote problem at auxiliary rates r and level theta."""
    _check_enum(p.l)
    bounds = {m: rate_bound_outer(p, r, m, theta) for m in subsets(p.l)}
    return RegionSpec(l=p.l, kind="outer", bounds=bounds)


def mt_rate_bound_inner(mp: MultiterminalProblem, r, subset: int) -> float:
    """Achievable rate floor for a subset, evaluated natively.

    Computes ``0.5*(logdet(Sigma_Y^-1 + Sigma_V(r)^-1) - logdet(... with
    only complement encoders))``. Exactly zero when ``r_S == 0``.
    """
    rates = as_rates(r, mp.l)
    members = _subset_members(subset, mp.l)
    full = mt_posterior_precision(mp, rates)
    comp = mt_posterior_precision(mp, rates, keep=~members)
    return 0.5 * (linalg.logdet_pd(full) - linalg.logdet_pd(comp))


def mt_rate_bound_outer(mp: MultiterminalProblem, r, subset: int, theta_tilde: float) -> float:
    """Converse rate floor for a subset, evaluated natively.

    ``theta_tilde`` is the offset determinant level ``det(Sigma_d + B)``
    produced by :func:`rdregion.duality.mt_det_level`. The floor is

        0.5 * log+ [ det(Sigma_Y + B) * exp(2 sum_l r_l)
                     / (theta_tilde * det Sigma_Y * det(Sigma_Y^-1 + Sigma_V_Sc^-1)) ]

    with the rate sum running over all encoders.
    """
    rates = as_rates(r, mp.l)
    theta_tilde = _check_theta(theta_tilde)
    members = _subset_members(subset, mp.l)
    comp = mt_posterior_precision(mp, rates, keep=~members)
    val = 0.5 * (
        mp.logdet_sigma_y_offset
        + 2.0 * float(rates.sum())
        - math.log(theta_tilde)
        - mp.logdet_sigma_y
        - linalg.logdet_pd(comp)
    )
    return max(0.0, val)


def mt_region_inner(mp: MultiterminalProblem, r) -> RegionSpec:
    """Native inner region of a multiterminal problem at auxiliary rates r."""
    _check_enum(mp.l)
    bounds = {m: mt_rate_bound_inner(mp, r, m) for m in subsets(mp.l)}
    return RegionSpec(l=mp.l, kind="inner", bounds=bounds)


def mt_region_outer(mp: MultiterminalProblem, r, theta_tilde: float) -> RegionSpec:
    """Native outer region of a multiterminal problem at rates r."""
    _check_enum(mp.l)
    bounds = {m: mt_rate_bound_outer(mp, r, m, theta_tilde) for m in subsets(mp.l)}
    return RegionSpec(l=mp.l, kind="outer", bounds=bounds)


def check_co_polymatroid(region: RegionSpec, tol: float = 1e-9) -> None:
    """Raise NotSupermodular unless the floors form a co-polymatroid.

    Checks nonnegativity, monotonicity under adding one encoder, and
    supermodularity ``f(S+l+m) + f(S) >= f(S+l) + f(S+m)`` within tol.
    """
    f = region.floor
    full = (1 << region.l) - 1
    for mask, val in region.bounds.items():
        if val < -tol:
            raise NotSupermodular(f"floor of subset {mask:#b} is negative: {val}")
    for mask in range(full + 1):
        for i in range(region.l):
            if mask >> i & 1:
                continue
            with_i = mask | (1 << i)
            if f(with_i) < f(mask) - tol:
                raise NotSupermodular(
                    f"floor drops when adding encoder {i + 1} to {mask:#b}"
                )
            for j in range(i + 1, region.l):
                if mask >> j & 1:
                    continue
                with_j = mask | (1 << j)
                both = with_i | (1 << j)
                lhs = f(both) + f(mask)
                rhs = f(with_i) + f(with_j)
                if lhs < rhs - tol:
                    raise NotSupermodular(
                        f"supermodularity fails at {mask:#b} with encoders "
                        f"{i + 1},{j + 1}: {lhs} < {rhs}"
                    )


def min_weighted_sum(region: RegionSpec, weights, verify: bool = True, tol: float = 1e-9):
    """Minimize ``weights @ R`` over the region; exact for co-polymatroids.

    Sorts the weights in descending order and walks the greedy vertex:
    encoder pi(i) gets the marginal floor ``f(top-i) - f(top-(i-1))``.

    Returns
    -------
    rates : (l,) ndarray
        The optimal vertex.
    value : float
        The achieved weighted sum.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != region.l:
        raise InvalidWeights(f"expected {region.l} weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise InvalidWeights("weights must be finite and nonnegative")
    if verify:
        check_co_polymatroid(region, tol=tol)
    order = np.argsort(-w, kind="stable")
    rates = np.zeros(region.l)
    mask = 0
    prev = 0.0
    for idx in order:
        mask |= 1 << int(idx)
        cur = region.floor(mask)
        rates[idx] = cur - prev
        prev = cur
    return rates, float(w @ rates)
