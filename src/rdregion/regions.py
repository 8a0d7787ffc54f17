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

A region is one stacked evaluation: the precisions of all 2^L - 1 subset
complements (and, for the inner floors, the full set as the first matrix
of the same stack) go through one batched Cholesky factorization. A
``rate_bound_*`` call is the one-mask case of the same computation and
returns exactly the floor its region reports for that subset.

Subsets are bitmasks: bit ``l-1`` set means encoder ``l`` belongs to S.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


@functools.cache
def _subset_keys(l: int) -> tuple[str, ...]:
    # subset_key of every nonempty subset in ``subsets`` order, built once
    # per l. Written out rather than calling the public functions, so the
    # first call makes the same public calls as every later one
    return tuple("0b" + format(m, f"0{l}b") for m in range(1, 1 << l))


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
        Map from subset bitmask to the floor value in nats, one entry per
        nonempty subset.
    """

    l: int
    kind: str
    bounds: dict

    def __post_init__(self):
        if len(self.bounds) != (1 << self.l) - 1:
            raise InvalidInput(
                f"a region needs one floor per nonempty subset: {(1 << self.l) - 1} "
                f"for l={self.l}, got {len(self.bounds)}"
            )

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
        floors = map(self.bounds.__getitem__, subsets(self.l))
        return {"l": self.l, "kind": self.kind, "bounds": dict(zip(_subset_keys(self.l), floors))}

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


def _all_members(l: int) -> np.ndarray:
    # (2^l - 1, l) membership matrix, one row per subset in ``subsets`` order
    masks = np.arange(1, 1 << l)
    return ((masks[:, None] >> np.arange(l)) & 1).astype(bool)


def _full_and_complements(members: np.ndarray) -> np.ndarray:
    # keep masks: the full set first, then the complement of each row. With
    # M(r) in the same stack as the complements, a silent subset (r_S == 0)
    # has a complement precision equal to M(r) bit for bit, so its inner
    # floor is exactly 0.0
    return np.vstack([np.ones((1, members.shape[1]), dtype=bool), ~members])


def _rate_sums(rates: np.ndarray, members: np.ndarray) -> np.ndarray:
    # sum_{l in S} r_l per row, every row summed over all l in the same order
    return np.where(members, rates, 0.0).sum(axis=1)


def _inner_floors(p: RemoteProblem, rates, members) -> np.ndarray:
    logdets = linalg.logdet_pd(
        posterior_precision(p, rates, keep=_full_and_complements(members))
    )
    return 0.5 * (logdets[0] - logdets[1:]) + _rate_sums(rates, members)


def _outer_floors(p: RemoteProblem, rates, members, theta: float) -> np.ndarray:
    logdets = linalg.logdet_pd(posterior_precision(p, rates, keep=~members))
    return np.maximum(0.0, _rate_sums(rates, members) - 0.5 * (math.log(theta) + logdets))


def _mt_inner_floors(mp: MultiterminalProblem, rates, members) -> np.ndarray:
    logdets = linalg.logdet_pd(
        mt_posterior_precision(mp, rates, keep=_full_and_complements(members))
    )
    return 0.5 * (logdets[0] - logdets[1:])


def _mt_outer_floors(mp: MultiterminalProblem, rates, members, theta_tilde: float) -> np.ndarray:
    logdets = linalg.logdet_pd(mt_posterior_precision(mp, rates, keep=~members))
    shared = (
        mp.logdet_sigma_y_offset
        + 2.0 * float(rates.sum())
        - math.log(theta_tilde)
        - mp.logdet_sigma_y
    )
    return np.maximum(0.0, 0.5 * (shared - logdets))


def _region(l: int, kind: str, floors: np.ndarray) -> RegionSpec:
    return RegionSpec(l=l, kind=kind, bounds=dict(zip(subsets(l), floors.tolist())))


def rate_bound_inner(p: RemoteProblem, r, subset: int) -> float:
    """Achievable rate floor for a subset of encoders at auxiliary rates r.

    Computes ``0.5*(logdet M(r) - logdet M_Sc(r)) + sum_{l in S} r_l`` where
    ``M(r)`` is the posterior precision of the hidden source and ``M_Sc``
    keeps only the complement encoders. Exactly zero when ``r_S == 0``.
    """
    rates = as_rates(r, p.l)
    members = _subset_members(subset, p.l)
    return float(_inner_floors(p, rates, members[None])[0])


def rate_bound_outer(p: RemoteProblem, r, subset: int, theta: float) -> float:
    """Converse rate floor for a subset at auxiliary rates r and level theta.

    Computes ``max(0, sum_{l in S} r_l - 0.5*(log theta + logdet M_Sc(r)))``.
    ``theta`` is the distortion-constrained determinant level produced by
    :func:`rdregion.waterfill.waterfill_det`.
    """
    rates = as_rates(r, p.l)
    theta = _check_theta(theta)
    members = _subset_members(subset, p.l)
    return float(_outer_floors(p, rates, members[None], theta)[0])


def _check_enum(l: int) -> None:
    if l > _MAX_ENUM_L:
        raise SubsetExplosion(
            f"region enumeration over {l} encoders needs {(1 << l) - 1} floors; "
            f"the limit is l={_MAX_ENUM_L}"
        )


def region_inner(p: RemoteProblem, r) -> RegionSpec:
    """Inner region of a remote problem at auxiliary rates r."""
    _check_enum(p.l)
    rates = as_rates(r, p.l)
    return _region(p.l, "inner", _inner_floors(p, rates, _all_members(p.l)))


def region_outer(p: RemoteProblem, r, theta: float) -> RegionSpec:
    """Outer region of a remote problem at auxiliary rates r and level theta."""
    _check_enum(p.l)
    rates = as_rates(r, p.l)
    theta = _check_theta(theta)
    return _region(p.l, "outer", _outer_floors(p, rates, _all_members(p.l), theta))


def mt_rate_bound_inner(mp: MultiterminalProblem, r, subset: int) -> float:
    """Achievable rate floor for a subset, evaluated natively.

    Computes ``0.5*(logdet(Sigma_Y^-1 + Sigma_V(r)^-1) - logdet(... with
    only complement encoders))``. Exactly zero when ``r_S == 0``.
    """
    rates = as_rates(r, mp.l)
    members = _subset_members(subset, mp.l)
    return float(_mt_inner_floors(mp, rates, members[None])[0])


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
    return float(_mt_outer_floors(mp, rates, members[None], theta_tilde)[0])


def mt_region_inner(mp: MultiterminalProblem, r) -> RegionSpec:
    """Native inner region of a multiterminal problem at auxiliary rates r."""
    _check_enum(mp.l)
    rates = as_rates(r, mp.l)
    return _region(mp.l, "inner", _mt_inner_floors(mp, rates, _all_members(mp.l)))


def mt_region_outer(mp: MultiterminalProblem, r, theta_tilde: float) -> RegionSpec:
    """Native outer region of a multiterminal problem at rates r."""
    _check_enum(mp.l)
    rates = as_rates(r, mp.l)
    theta_tilde = _check_theta(theta_tilde)
    return _region(mp.l, "outer", _mt_outer_floors(mp, rates, _all_members(mp.l), theta_tilde))


def _insert_zero_bit(x: np.ndarray, bit) -> np.ndarray:
    # spread x around a new zero bit at position ``bit``: maps 0, 1, 2, ...
    # to the ascending integers that lack that bit
    return ((x >> bit) << (bit + 1)) | (x & ((1 << bit) - 1))


def check_co_polymatroid(region: RegionSpec, tol: float = 1e-9) -> None:
    """Raise NotSupermodular unless the floors form a co-polymatroid.

    Checks nonnegativity, monotonicity under adding one encoder, and
    supermodularity ``f(S+l+m) + f(S) >= f(S+l) + f(S+m)`` within tol. The
    reported violation is the first in this order: negative floors in
    ``bounds`` order, then by subset S ascending, by the first added
    encoder ascending, with the monotonicity check before the pairs.
    """
    l, bounds = region.l, region.bounds
    vals = np.fromiter(bounds.values(), dtype=float, count=len(bounds))
    neg = np.flatnonzero(vals < -tol)
    if neg.size:
        mask, val = list(bounds.items())[neg[0]]
        raise NotSupermodular(f"floor of subset {mask:#b} is negative: {val}")
    f = np.zeros(1 << l)
    f[np.fromiter(bounds, dtype=np.int64, count=len(bounds))] = vals
    # s1[e]: every S without encoder e, ascending; s2[p]: every S without
    # either encoder of the pair (i[p], j[p]), ascending
    e = np.arange(l)
    s1 = _insert_zero_bit(np.arange((1 << l) >> 1), e[:, None])
    i, j = np.triu_indices(l, 1)
    s2 = _insert_zero_bit(_insert_zero_bit(np.arange((1 << l) >> 2), i[:, None]), j[:, None])
    drop = f[s1 | 1 << e[:, None]] < f[s1] - tol
    with_i, with_j = s2 | 1 << i[:, None], s2 | 1 << j[:, None]
    fails = f[with_i | with_j] + f[s2] < f[with_i] + f[with_j] - tol
    # rank each violation (S, a, b) as S*l*l + a*l + b, where a = b marks a
    # drop from adding a and b > a a failing pair: the loop order of the checks
    r1, c1 = np.nonzero(drop)
    r2, c2 = np.nonzero(fails)
    ranks = np.concatenate([(s1[r1, c1] * l + r1) * l + r1, (s2[r2, c2] * l + i[r2]) * l + j[r2]])
    if not ranks.size:
        return
    mask, rest = divmod(int(ranks.min()), l * l)
    a, b = divmod(rest, l)
    if a == b:
        raise NotSupermodular(f"floor drops when adding encoder {a + 1} to {mask:#b}")
    fl = region.floor
    lhs = fl(mask | 1 << a | 1 << b) + fl(mask)
    rhs = fl(mask | 1 << a) + fl(mask | 1 << b)
    raise NotSupermodular(
        f"supermodularity fails at {mask:#b} with encoders {a + 1},{b + 1}: {lhs} < {rhs}"
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
