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
    _posterior_precision,
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
    """Reference estimate with a one-sided bracket width.

    ``value`` is a lower estimate of the optimum and ``value + err`` an
    upper one; ``err == 0`` marks an exact hit.
    """

    value: float
    err: float


def water_level(floors, budget: float) -> WaterLevel:
    """Fill positive floors up to a common level that spends the budget.

    Finds xi with ``sum(max(xi, floor_k)) == budget`` by the exact
    breakpoint rule of :func:`_water_levels`, as the one-row case of the
    (S, K) floor stacks that :func:`rdregion.matching.md_scan` fills.
    Requires ``budget >= sum(floors)``; at equality the level is the
    smallest floor and nothing is raised above its floor.
    """
    c = np.asarray(floors, dtype=float).ravel()
    if c.size == 0:
        raise InvalidInput("water_level needs at least one floor")
    if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        raise InvalidInput("floors must be positive and finite")
    budget = float(budget)
    if not math.isfinite(budget):
        raise InvalidInput("budget must be finite")
    _require_budget(budget, float(c.sum()))
    xi = float(_water_levels(c[None, :], budget)[0])
    return WaterLevel(xi=xi, levels=np.maximum(c, xi))


def _require_budget(budget: float, total: float) -> None:
    if budget < total:
        raise InfeasibleBudget(
            f"budget {budget} is below the floor total {total}", deficit=total - budget
        )


def _water_levels(floors, budget: float) -> np.ndarray:
    # Water level of each row of an (S, K) stack of positive floors. With s
    # a row sorted ascending and tail[j] = sum(s[j:]) (accumulated from the
    # right into a reversed view; tail[k] = 0), the level s[j-1] costs
    # j*s[j-1] + tail[j], which grows with j; the level lies on segment j,
    # the count of breakpoints that fit the budget, at (budget - tail[j]) / j.
    # The clamp to j >= 1 covers a total equal to the budget up to rounding;
    # rows above the budget get no valid level.
    s = np.sort(floors, axis=-1)
    n, k = s.shape
    tail = np.zeros((n, k + 1))
    np.cumsum(s[:, ::-1], axis=1, out=tail[:, k - 1 :: -1])
    seg = np.maximum(((np.arange(1, k + 1) * s + tail[:, 1:]) <= budget).sum(axis=1), 1)
    return (budget - tail[np.arange(n), seg]) / seg


def max_det_capped(floor_mat, caps, offset=None) -> np.ndarray:
    """Maximize ``logdet(Z + offset)`` over ``Z >= floor_mat`` (Loewner)
    with per-coordinate caps ``diag(Z) <= caps``; ``floor_mat + offset``
    must be positive definite.

    The optimum always pins the diagonal at the caps. For two coordinates
    the off-diagonal entry is then the feasible value closest to
    ``-offset[0, 1]``, in closed form. In higher dimension the stationary
    matrix with that diagonal is returned when it dominates the floor;
    otherwise a log-barrier Newton method over the off-diagonal entries of
    ``Z - floor_mat`` solves this max-det program (Vandenberghe, Boyd & Wu,
    SIAM J. Matrix Anal. Appl. 19(2), 1998). Its iterates are feasible by
    construction, and it stops once explicit dual multipliers certify
    ``logdet(Z + offset)`` within 1e-10 of the optimum.
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
    if linalg.min_eig(f + g_off) <= 0.0:
        raise InvalidInput("floor_mat + offset must be positive definite")
    return _max_det_capped(f, c, g_off, _cap_slack(f, c))


def _cap_slack(f, c) -> np.ndarray:
    # c - diag(f), clipped at zero after a check against the cap tolerance
    slack = c - np.diag(f)
    tol_vec = 1e-12 * np.maximum(1.0, np.abs(c))
    if np.any(slack < -tol_vec):
        raise InfeasibleDistortion("per-coordinate caps fall below the floor diagonal")
    return np.clip(slack, 0.0, None)


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
        # loewner_leq's test and tolerance, on exactly symmetric operands
        gap = z_int - f
        if np.linalg.eigvalsh(gap)[0] >= -1e-9 * max(1.0, float(np.abs(gap).max())):
            return z_int
    return _max_det_newton(f, g_off, slack).z


@dataclass(frozen=True)
class _MaxDet:
    """Feasible ``z`` with ``logdet = logdet(z + offset)``, and the dual
    value at explicit multipliers ``nu >= 0``, ``lam >= 0`` (Loewner): the
    optimum lies in ``[logdet, dual]``. ``steps`` counts Newton steps."""

    z: np.ndarray
    logdet: float
    dual: float
    nu: np.ndarray
    lam: np.ndarray
    steps: int


_GAP = 1e-10  # a barrier path stops once nu / t reaches this gap
_MU = 50.0  # barrier weight growth per stage


def _path_step(dec2, t, stage, nu):
    # Stage rule of the barrier paths here and in sumrate: None once the
    # path ends, else the step and the next (t, stage). Steps are damped to
    # 1/(1 + lambda), lambda^2 = dec2, while lambda >= 1/4, so they stay in
    # the Dikin ellipsoid. A stage ends at lambda <= 1/2 (lambda^2 <= 2e-8
    # in the last) or after 40 steps; t grows by _MU until nu / t <= _GAP.
    last = nu / t <= _GAP
    if last and (dec2 <= 2e-8 or stage == 40):
        return None
    step = 1.0 if dec2 < 0.0625 else 1.0 / (1.0 + math.sqrt(dec2))
    stage += 1
    if not last and (dec2 <= 0.25 or stage == 40):
        t, stage = min(_MU * t, nu / _GAP), 0
    return step, t, stage


def _max_det_newton(f, g_off, slack) -> _MaxDet:
    # Barrier path for max logdet(A + Y), A = f + g_off, over Y >= 0 with
    # diag Y = slack. Rows without slack keep Y at zero, so only the free
    # block P carries unknowns, against the Schur complement A_c of A's
    # pinned block: Y_P = R C R with R = diag(sqrt(slack_P)) and C a
    # correlation matrix. Stage t minimizes -t logdet(A_c + Y_P) - logdet C
    # over C's off-diagonal entries by Newton steps under _path_step's rule,
    # with nu = |P|; a step inside the Dikin ellipsoid keeps C in the cone.
    # The Newton system lives in the frame of C = L L^T, never in C^-1,
    # whose error grows with t: with Q = R X_c^-1 R, L^T Q L = U diag(sig)
    # U^T and W = L U, the step is D = W H W^T for H = (diag(1 + t sig) -
    # W^T diag(w) W) / (1 + t sig sig^T), where the multiplier w of the
    # unit diagonal solves diag(D) = 0.
    k = f.shape[0]
    a = f + g_off
    free = slack > 0.0
    q = int(free.sum())
    cross = a[free][:, ~free]
    a_c = a[free][:, free] - cross @ np.linalg.solve(a[~free][:, ~free], cross.T)
    root = np.sqrt(slack[free])
    scale = root[:, None] * root
    corr = low = np.eye(q)
    t = 1.0 if q > 1 else 1.0 / _GAP
    steps = stage = 0
    while q:
        qs = scale * np.linalg.inv(a_c + scale * corr)
        sig, u = np.linalg.eigh(low.T @ qs @ low)
        w = low @ u
        ts = t * sig
        om = 1.0 + ts[:, None] * sig
        kr = (w[:, :, None] * w[:, None, :]).reshape(q, q * q)
        mult = np.linalg.solve((kr / om.ravel()) @ kr.T, (w * w) @ ((1.0 + ts) / (1.0 + ts * sig)))
        dhat = (w.T * -mult) @ w
        dhat.flat[:: q + 1] += 1.0 + ts
        dhat /= om
        delta = w @ dhat @ w.T
        delta = 0.5 * (delta + delta.T)
        np.fill_diagonal(delta, 0.0)
        dec2 = float((om * dhat * dhat).sum())
        rule = _path_step(dec2, t, stage, q)
        if rule is None:
            break
        step, t, stage = rule
        corr = corr + step * delta
        low = np.linalg.cholesky(corr)
        steps += 1
    # The certificate: the last Newton system's own dual estimate
    # lam_P = R^-1 (diag(w) / t - Q + Q D Q) R^-1 = (R W)^-T (I - H) (R W)^-1 / t
    # is >= 0 while lambda < 1 and leaves S = X^-1 - offdiag(E) on P, with
    # E = R^-1 Q D Q R^-1 of second order. Built from Q rather than C^-1, it
    # stays accurate at large t. A pinned row takes its row of S from X^-1
    # and a multiplier nu making lam >= 0 by its Schur complement (lam_P^-1
    # <= 2 t Y_P while lambda < 1/2); nu meets a zero slack in the dual.
    y = np.zeros((k, k))
    y[np.ix_(free, free)] = scale * corr
    x = a + y
    s_mat = np.linalg.inv(x)
    nu = np.zeros(k)
    if q:
        e = (qs @ delta @ qs) / scale
        nu[free] = mult / (t * slack[free]) + np.diag(e)
        s_mat[np.ix_(free, free)] -= e - np.diag(np.diag(e))
    if q < k:
        rows = s_mat[~free]
        nu[~free] = 2.0 * np.linalg.eigvalsh(rows[:, ~free] + t * rows @ y @ rows.T)[-1]
    sign, logdet_s = np.linalg.slogdet(s_mat)
    dual = math.inf
    if sign > 0.0 and (not q or dec2 < 0.25):
        dual = -logdet_s - k + float((s_mat * a).sum() + nu[free] @ slack[free])
    return _MaxDet(z=f + y, logdet=float(np.linalg.slogdet(x)[1]), dual=float(dual),
                   nu=nu, lam=np.diag(nu) - s_mat, steps=steps)


def _weighted_floor(p: RemoteProblem, rates) -> np.ndarray:
    """``gamma M(r)^-1 gamma^T`` at validated rates (L,), or the (S, K, K)
    stack at a rate stack (S, L); inverting before the sandwich keeps it
    accurate when gamma is ill-conditioned."""
    cov = linalg.inv_pd(_posterior_precision(p, rates))
    w = p.gamma @ cov @ p.gamma.T
    return 0.5 * (w + w.swapaxes(-1, -2))


def _sum_levels(p: RemoteProblem, budget: float, rates):
    # Sum-criterion determinant levels at validated rates (L,) or a stack
    # (S, L), with the floor total of each rate vector; the level is NaN
    # wherever the floor total exceeds the budget.
    floors = np.linalg.eigvalsh(_weighted_floor(p, rates))
    if not np.all(floors > 0.0):
        raise InvalidInput("floors must be positive and finite")
    xi = _water_levels(floors.reshape(-1, p.k), budget).reshape(floors.shape[:-1])
    logs = np.log(np.maximum(floors, xi[..., None])).sum(axis=-1)
    total = floors.sum(axis=-1)
    return np.where(total <= budget, np.exp(logs - p.logdet_gamma2), np.nan), total


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
        theta, total = _sum_levels(p, criterion.d, rates)
        _require_budget(criterion.d, float(total))
        return float(theta)
    if isinstance(criterion, VectorCrit):
        z = max_det_capped(_weighted_floor(p, rates), criterion.d_vec)
        return float(math.exp(linalg.logdet_pd(z) - p.logdet_gamma2))
    return _matrix_cap_det(p, criterion, rates)


def _matrix_cap_det(p: RemoteProblem, criterion: MatrixCrit, rates) -> float:
    cov = linalg.inv_pd(_posterior_precision(p, rates))
    if not linalg.loewner_leq(cov, criterion.target):
        raise InfeasibleDistortion(
            "matrix distortion target does not dominate the floor at these rates"
        )
    return linalg.det_sym(criterion.target)


def det_oracle(p: RemoteProblem, criterion: DistortionCriterion, r,
               steps: int = 2000) -> OracleBracket:
    """Reference solver for :func:`waterfill_det` under any criterion.

    Sum criterion: scans candidate water levels on a uniform grid of
    ``steps >= 2`` points and reports the best feasible value together
    with the bracket width to the next grid point, so the true optimum
    lies in ``[value, value + err]``.

    Vector criterion: runs the barrier Newton solver behind
    :func:`max_det_capped` at every dimension, without the closed forms
    and the stationarity shortcut taken there, so it checks them
    independently. ``value`` is the determinant at its feasible point and
    ``value + err`` the dual bound at its explicit multipliers; weak
    duality makes the bracket valid whether or not the path converged.

    Matrix criterion: checks dominance and returns the cap determinant
    exactly (``err == 0``).
    """
    rates = as_rates(r, p.l)
    check_criterion(criterion, p.k)
    if isinstance(criterion, SumCrit):
        if steps < 2:
            raise InvalidInput("det_oracle needs at least two grid points")
        floors = np.linalg.eigvalsh(_weighted_floor(p, rates))
        _require_budget(criterion.d, float(floors.sum()))
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
        sol = _max_det_newton(f_mat, np.zeros_like(f_mat), _cap_slack(f_mat, criterion.d_vec))
        value = math.exp(sol.logdet - p.logdet_gamma2)
        return OracleBracket(value=value, err=value * math.expm1(max(0.0, sol.dual - sol.logdet)))
    return OracleBracket(value=_matrix_cap_det(p, criterion, rates), err=0.0)


def feasible_at_rates(p: RemoteProblem, criterion: DistortionCriterion, r) -> FeasibilityReport:
    """Whether the criterion is reachable at finite auxiliary rates r."""
    rates = as_rates(r, p.l)
    cov = linalg.inv_pd(posterior_precision(p, rates))
    margin = criterion_margin(p, criterion, cov)
    return FeasibilityReport(feasible=margin > 0.0, margin=margin)
