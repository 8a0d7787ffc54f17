"""Distortion-constrained determinant levels.

The outer bounds in :mod:`rdregion.regions` are driven by a scalar level:
the largest determinant of an error covariance that dominates the
information floor ``M(r)^-1`` in the Loewner order while meeting the
distortion criterion. For the sum criterion the optimum is an exact
water-filling over the eigenvalues of the weighted floor; for
per-coordinate caps it is a capped determinant maximization; for a matrix
cap it is the cap's own determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InfeasibleBudget, InfeasibleDistortion, InvalidInput
from .problems import (
    DistortionCriterion,
    FeasibilityReport,
    MatrixCrit,
    RemoteProblem,
    SumCrit,
    VectorCrit,
    as_rates,
    check_criterion,
    criterion_margin,
    posterior_precision,
)

__all__ = [
    "WaterLevel",
    "OracleBracket",
    "water_level",
    "max_det_capped",
    "waterfill_det",
    "det_oracle",
    "feasible_at_rates",
]


@dataclass(frozen=True)
class WaterLevel:
    """Result of a scalar water-filling: the level and the filled values."""

    xi: float
    levels: np.ndarray


@dataclass(frozen=True)
class OracleBracket:
    """Grid-search estimate with a one-sided bracket width.

    ``value`` is a lower estimate of the optimum and ``value + err`` an
    upper one; ``err == 0`` marks an exact hit.
    """

    value: float
    err: float


def water_level(floors, budget: float) -> WaterLevel:
    """Fill positive floors up to a common level that spends the budget.

    Finds xi with ``sum(max(xi, floor_k)) == budget`` by an exact scan of
    the sorted breakpoints. Requires ``budget >= sum(floors)``; at equality
    the level is the smallest floor and nothing is raised above its floor.
    """
    c = np.asarray(floors, dtype=float).ravel()
    if c.size == 0:
        raise InvalidInput("water_level needs at least one floor")
    if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        raise InvalidInput("floors must be positive and finite")
    budget = float(budget)
    if not math.isfinite(budget):
        raise InvalidInput("budget must be finite")
    total = float(c.sum())
    if budget < total:
        raise InfeasibleBudget(
            f"budget {budget} is below the floor total {total}",
            deficit=total - budget,
        )
    s = np.sort(c)
    k = s.shape[0]
    # suffix sums: tail[j] = sum of floors strictly above the j-th breakpoint
    tail = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])
    best_xi, best_viol = None, math.inf
    for j in range(1, k + 1):
        xi = (budget - tail[j]) / j
        lo = s[j - 1]
        hi = s[j] if j < k else math.inf
        viol = max(lo - xi, xi - hi, 0.0)
        if viol <= 1e-12 * max(1.0, abs(xi)):
            best_xi = xi
            break
        if viol < best_viol:
            best_xi, best_viol = xi, viol
    return WaterLevel(xi=float(best_xi), levels=np.maximum(c, best_xi))


def max_det_capped(floor_mat, caps, offset=None) -> np.ndarray:
    """Maximize ``logdet(Z + offset)`` over ``Z >= floor_mat`` (Loewner)
    with per-coordinate caps ``diag(Z) <= caps``.

    The optimum always pins the diagonal at the caps. For two coordinates
    the off-diagonal entry is then the feasible value closest to
    ``-offset[0, 1]``, in closed form. In higher dimension the stationary
    matrix with that diagonal is returned when it dominates the floor;
    otherwise gradient ascent runs on a Gram factor of ``Z - floor_mat``,
    whose iterates are feasible by construction.
    """
    f = linalg.as_symmetric(floor_mat)
    k = f.shape[0]
    c = np.asarray(caps, dtype=float).ravel()
    if c.shape[0] != k:
        raise InvalidInput(f"expected {k} caps, got {c.shape[0]}")
    if not np.all(np.isfinite(c)):
        raise InvalidInput("caps must be finite")
    if offset is None:
        g_off = np.zeros((k, k))
    else:
        g_off = linalg.as_symmetric(offset)
        if g_off.shape != f.shape:
            raise InvalidInput("offset has the wrong shape")
    slack = c - np.diag(f)
    tol_vec = 1e-12 * np.maximum(1.0, np.abs(c))
    if np.any(slack < -tol_vec):
        raise InfeasibleDistortion("per-coordinate caps fall below the floor diagonal")
    return _max_det_capped(f, c, g_off, np.clip(slack, 0.0, None))


def _max_det_capped(f, c, g_off, slack) -> np.ndarray:
    # Trusted core of max_det_capped: f and g_off exactly symmetric with the
    # shape of f, c the caps, slack = c - diag(f) already checked against
    # the cap tolerance and clipped at zero.
    k = f.shape[0]
    z = f + np.diag(slack)
    if k == 1:
        return z
    if k == 2:
        # det(Z + offset) with the diagonal pinned is a downward parabola
        # in z12; Z - floor stays semidefinite while |z12 - f12| <= sqrt(s1 s2)
        half = math.sqrt(slack[0] * slack[1])
        z12 = min(max(-g_off[0, 1], f[0, 1] - half), f[0, 1] + half)
        z[0, 1] = z[1, 0] = z12
        return z
    # stationarity with the caps binding: (Z + offset)^-1 diagonal, i.e.
    # Z = diag(caps + diag(offset)) - offset; optimal whenever it
    # dominates the floor
    diag_full = c + np.diag(g_off)
    if np.all(diag_full > 0.0):
        z_int = np.diag(diag_full) - g_off
        if linalg.loewner_leq(f, z_int):
            return z_int
    l_fin, _ = _sphere_ascent(f + g_off, slack, np.diag(np.sqrt(slack)))
    z = f + l_fin @ l_fin.T
    return 0.5 * (z + z.T)


def _sphere_ascent(base, slack, l0):
    """Maximize ``logdet(base + L @ L.T)`` with row i of L pinned to norm
    ``sqrt(slack[i])``.

    Writing ``Z - floor = L @ L.T`` keeps every iterate feasible for the
    capped determinant problem by construction: the Gram term dominates
    zero and its diagonal equals the slack exactly, so the projection step
    is plain row renormalization and there are no cone corners to stall on.
    Backtracking gradient ascent with an adaptive step, for at most 1500
    steps; it stops early once three steps in a row gain less than 1e-14
    relative to the value.
    """
    tgt = np.sqrt(np.clip(np.asarray(slack, dtype=float), 0.0, None))

    def renorm(l_mat):
        nrm = np.sqrt((l_mat * l_mat).sum(axis=1))
        fac = np.where(nrm > 0.0, tgt / np.maximum(nrm, 1e-300), 0.0)
        return l_mat * fac[:, None]

    def value(l_mat):
        sign, logdet = np.linalg.slogdet(base + l_mat @ l_mat.T)
        return float(logdet) if sign > 0.0 else -math.inf

    l_mat = renorm(np.asarray(l0, dtype=float))
    cur = value(l_mat)
    step = 0.1
    stall = 0
    for _ in range(1500):
        h = np.linalg.inv(base + l_mat @ l_mat.T)
        grad = 2.0 * h @ l_mat
        g_nrm = float(np.sqrt((grad * grad).sum()))
        if not math.isfinite(g_nrm) or g_nrm <= 0.0:
            break
        grad = grad / g_nrm
        gain = 0.0
        for _ in range(30):
            trial = renorm(l_mat + step * grad)
            v = value(trial)
            if v > cur:
                gain = v - cur
                l_mat, cur = trial, v
                step = min(step * 1.6, 1e6)
                break
            step *= 0.5
        else:
            break
        if gain < 1e-14 * max(1.0, abs(cur)):
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
    return l_mat, cur


def _weighted_floor(p: RemoteProblem, rates) -> np.ndarray:
    cov = linalg.inv_pd(posterior_precision(p, rates))
    w = p.gamma @ cov @ p.gamma.T
    return 0.5 * (w + w.T)


def waterfill_det(p: RemoteProblem, criterion: DistortionCriterion, r) -> float:
    """Largest determinant of an error covariance meeting the criterion.

    Maximizes ``det(Sigma_d)`` over ``Sigma_d >= M(r)^-1`` subject to the
    distortion criterion; the result feeds
    :func:`rdregion.regions.rate_bound_outer`. Raises InfeasibleBudget or
    InfeasibleDistortion when no covariance qualifies at these rates.
    """
    rates = as_rates(r, p.l)
    check_criterion(criterion, p.k)
    return _waterfill_det(p, criterion, rates)


def _waterfill_det(p: RemoteProblem, criterion: DistortionCriterion, rates) -> float:
    # Trusted core of waterfill_det: rates already validated and the
    # criterion already checked against p.k.
    if isinstance(criterion, SumCrit):
        floors = np.linalg.eigvalsh(_weighted_floor(p, rates))
        wl = water_level(floors, criterion.d)
        return float(math.exp(float(np.log(wl.levels).sum()) - p.logdet_gamma2))
    if isinstance(criterion, VectorCrit):
        z = max_det_capped(_weighted_floor(p, rates), criterion.d_vec)
        return float(math.exp(linalg.logdet_pd(z) - p.logdet_gamma2))
    return _matrix_cap_det(p, criterion, rates)


def _matrix_cap_det(p: RemoteProblem, criterion: MatrixCrit, rates) -> float:
    cov = linalg.inv_pd(posterior_precision(p, rates))
    if not linalg.loewner_leq(cov, criterion.target):
        raise InfeasibleDistortion(
            "matrix distortion target does not dominate the floor at these rates"
        )
    return linalg.det_sym(criterion.target)


def det_oracle(p: RemoteProblem, criterion: DistortionCriterion, r,
               steps: int = 2000, starts: int = 16, seed: int = 0) -> OracleBracket:
    """Reference solver for :func:`waterfill_det` under any criterion.

    Sum criterion: scans candidate water levels on a uniform grid and
    reports the best feasible value together with the bracket width to the
    next grid point, so the true optimum lies in ``[value, value + err]``.

    Vector criterion: maximizes the determinant over Gram-factor
    parametrizations of the dominated covariance from ``starts`` seeded
    initial points, then fits Lagrange multipliers at the best point found;
    weak duality turns them into an upper bound on the optimum, so the true
    value lies in ``[value, value + err]`` whether or not the search
    converged.

    Matrix criterion: checks dominance and returns the cap determinant
    exactly (``err == 0``).
    """
    if steps < 2:
        raise InvalidInput("det_oracle needs at least two grid points")
    rates = as_rates(r, p.l)
    check_criterion(criterion, p.k)
    if isinstance(criterion, SumCrit):
        floors = np.linalg.eigvalsh(_weighted_floor(p, rates))
        total = float(floors.sum())
        if criterion.d < total:
            raise InfeasibleBudget(
                f"budget {criterion.d} is below the floor total {total}",
                deficit=total - criterion.d,
            )
        grid = np.linspace(floors.min(), criterion.d / floors.shape[0], steps)
        filled = np.maximum(grid[:, None], floors[None, :])
        spend = filled.sum(axis=1)
        vals = np.exp(np.log(filled).sum(axis=1) - p.logdet_gamma2)
        feas = spend <= criterion.d + 1e-12 * max(1.0, criterion.d)
        last = int(np.nonzero(feas)[0][-1])
        if last == steps - 1:
            return OracleBracket(value=float(vals[-1]), err=0.0)
        return OracleBracket(
            value=float(vals[last]), err=float(max(0.0, vals[last + 1] - vals[last]))
        )
    if isinstance(criterion, VectorCrit):
        f_mat = _weighted_floor(p, rates)
        best_log, gap = _ascend_det_capped(f_mat, criterion.d_vec, starts, seed)
        value = float(math.exp(best_log - p.logdet_gamma2))
        return OracleBracket(value=value, err=float(value * np.expm1(gap)))
    return OracleBracket(value=_matrix_cap_det(p, criterion, rates), err=0.0)


def _ascend_det_capped(f_mat, caps, starts, seed):
    # Multi-start ascent over Gram factors of Z - floor, plus a weak-duality
    # certificate fitted at the best point. The certificate bounds the
    # optimum from above whether or not the search converged, so the
    # returned (value, gap) pair is a valid bracket in log space.
    f = linalg.as_symmetric(f_mat)
    k = f.shape[0]
    c = np.asarray(caps, dtype=float).ravel()
    slack = c - np.diag(f)
    tol_vec = 1e-12 * np.maximum(1.0, np.abs(c))
    if np.any(slack < -tol_vec):
        raise InfeasibleDistortion("per-coordinate caps fall below the floor diagonal")
    slack = np.clip(slack, 0.0, None)
    rng = np.random.default_rng(seed)
    best_log, best_l = -math.inf, None
    for s in range(max(1, int(starts))):
        if s == 0:
            l0 = np.diag(np.sqrt(slack))
        else:
            l0 = rng.normal(size=(k, k))
        l_fin, cur = _sphere_ascent(f, slack, l0)
        if cur > best_log:
            best_log, best_l = cur, l_fin
    z_best = linalg.as_symmetric(f + best_l @ best_l.T)
    return best_log, _dual_gap_capped(f, c, z_best, best_log)


def _dual_gap_capped(f, c, z, primal_log):
    # Weak duality for max logdet(Z) over Z >= f, diag(Z) <= c: any nu >= 0
    # and lam >= 0 (Loewner) with s = diag(nu) - lam > 0 bound the optimum
    # above by -logdet(s) - k + nu.c - tr(lam f). The multipliers are
    # fitted from the stationarity conditions at the candidate and then
    # repaired into the feasible dual cone, so the gap never undercounts.
    k = f.shape[0]
    h = np.linalg.inv(z)
    w = 0.5 * ((z - f) + (z - f).T)
    wvals, wvecs = np.linalg.eigh(w)
    top = max(float(wvals[-1]), 0.0)
    span = wvecs[:, wvals > 1e-9 * max(top, 1e-300)]
    if span.shape[1] == 0:
        nu = np.diag(h).astype(float).copy()
    else:
        # lam @ (z - f) = 0 at an optimum, i.e. diag(nu) agrees with h on
        # the range of z - f; least squares row by row
        hu = h @ span
        num = (span * hu).sum(axis=1)
        den = (span * span).sum(axis=1)
        nu = np.where(den > 1e-14, num / np.maximum(den, 1e-300), np.diag(h))
    lam = np.diag(nu) - h
    lvals, lvecs = np.linalg.eigh(0.5 * (lam + lam.T))
    lam_pos = (lvecs * np.clip(lvals, 0.0, None)) @ lvecs.T
    nu = np.clip(nu, 0.0, None)
    s_mat = np.diag(nu) - lam_pos
    s_min = float(np.linalg.eigvalsh(0.5 * (s_mat + s_mat.T))[0])
    bump = max(0.0, -s_min) + 1e-12 * max(1.0, float(np.abs(s_mat).max()))
    nu = nu + bump
    s_mat = np.diag(nu) - lam_pos
    sign, logdet_s = np.linalg.slogdet(s_mat)
    if sign <= 0.0:
        return math.inf
    dual = -float(logdet_s) - k + float(nu @ c) - float((lam_pos * f).sum())
    return max(dual - primal_log, 0.0)


def feasible_at_rates(p: RemoteProblem, criterion: DistortionCriterion, r) -> FeasibilityReport:
    """Whether the criterion is reachable at finite auxiliary rates r."""
    rates = as_rates(r, p.l)
    cov = linalg.inv_pd(posterior_precision(p, rates))
    margin = criterion_margin(p, criterion, cov)
    return FeasibilityReport(feasible=margin > 0.0, margin=margin)
