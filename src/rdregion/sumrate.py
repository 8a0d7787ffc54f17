"""Sum-rate programs for the multiterminal problem.

The achievable (upper) program minimizes the mutual-information objective
``(1/2) log det((Sigma_Y^-1 + Sigma_V(r)^-1) Sigma_Y)`` over test-channel
rates subject to distortion caps on the posterior covariance, by a seeded
multi-start search whose feasible minima are valid but heuristic. The
converse (lower) program minimizes the full-set outer floor over the
admissible error covariances; in the noise levels ``delta_l = split_l
exp(-2 r_l)`` it is a max-det program, solved by one log-barrier Newton path
that reports a certified dual value. The module also houses the
sum-distortion matching thresholds, the two-source closed forms, and the
weighted supporting-hyperplane boundary batches.

Rates are in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, optimize
from .errors import (
    DegenerateInput,
    InfeasibleDistortion,
    InvalidAuxRate,
    InvalidCorrelation,
    InvalidInput,
    InvalidMatrix,
    InvalidWeights,
)
from .problems import MultiterminalProblem, as_rates, mt_posterior_precision
from .waterfill import _path_step, max_det_capped

__all__ = [
    "SumRateResult",
    "SumRateBounds",
    "BoundaryRow",
    "TwoTermSumRate",
    "sum_rate_upper",
    "sum_rate_lower",
    "sum_rate_bounds",
    "threshold_split",
    "threshold_weighted",
    "zeta",
    "twoterm_sum_rate",
    "twoterm_curve_point",
    "twoterm_curve_grid",
    "twoterm_region_curve",
    "boundary_batch",
]


@dataclass(frozen=True)
class SumRateResult:
    """A sum-rate value together with the rate vector that attains it.

    ``cov`` carries the maximizing error covariance of the converse
    program and is None for the achievable program.
    """

    value: float
    rates: np.ndarray
    cov: np.ndarray | None = None


@dataclass(frozen=True)
class SumRateBounds:
    """Paired converse/achievable sum rates and their arguments."""

    lower: float
    upper: float
    argmin_r_lower: np.ndarray
    argmin_r_upper: np.ndarray
    argmin_sigma_lower: np.ndarray
    gap: float


@dataclass(frozen=True)
class BoundaryRow:
    """One supporting-hyperplane probe: weighted distortion bounds at a
    fixed rate budget and the certification flag."""

    weights: np.ndarray
    d_upper: float
    d_lower: float
    certified: bool


class TwoTermSumRate(NamedTuple):
    """Closed-form two-source sum rate and the membership flag of the
    distortion set on which it is exact."""

    in_d: bool
    value: float


def _caps(mp: MultiterminalProblem, d_vec) -> np.ndarray:
    d = np.asarray(d_vec, dtype=float).ravel()
    if d.shape[0] != mp.l:
        raise InvalidInput(f"expected {mp.l} distortion caps, got {d.shape[0]}")
    if not np.all(np.isfinite(d)):
        raise InvalidInput("distortion caps must be finite")
    if np.any(d <= 0.0):
        raise InfeasibleDistortion("distortion caps must be positive")
    return d


# ---------------------------------------------------------------------------
# achievable (upper) program


def _upper_value(mp: MultiterminalProblem, prec: np.ndarray) -> float:
    return 0.5 * (linalg.logdet_pd(prec) + mp.logdet_sigma_y)


def _upper_complementarity(syi, d, p0, max_iter=400, damp=False):
    # Cyclic exact per-coordinate solves of the complementarity system
    # p_i = 0 or posterior diagonal_i = d_i: with the others fixed, the
    # diagonal entry is g_ii/(1 + delta*g_ii) after adding delta to p_i,
    # so the solving step is delta = 1/d_i - 1/g_ii, projected to p >= 0.
    p = np.clip(np.asarray(p0, dtype=float), 0.0, None)
    l = p.shape[0]
    for _ in range(max_iter):
        change = 0.0
        for i in range(l):
            g = linalg.inv_pd(syi + np.diag(p))
            new = max(0.0, p[i] + 1.0 / d[i] - 1.0 / g[i, i])
            if damp:
                new = 0.5 * (p[i] + new)
            change = max(change, abs(new - p[i]))
            p[i] = new
        if change <= 1e-13 * max(1.0, float(p.max())):
            break
    return p


def sum_rate_upper(mp: MultiterminalProblem, d_vec, starts: int = 16,
                   seed: int = 0) -> SumRateResult:
    """Achievable sum rate under per-coordinate distortion caps.

    Minimizes ``(1/2) log det((Sigma_Y^-1 + Sigma_V(r)^-1) Sigma_Y)`` over
    rates r >= 0 subject to ``diag((Sigma_Y^-1 + Sigma_V(r)^-1)^-1) <=
    d_vec``, by projected coordinate descent on the test-channel
    precisions with multiple seeded starts. The reported rates satisfy
    the caps within 1e-9 relative slack. For a diagonal ``sigma_y`` the
    program separates into ``sum_l (1/2) ln(sigma_l^2 / d_l)`` clamped at
    zero per coordinate.
    """
    d = _caps(mp, d_vec)
    syi = mp.sigma_y_inv
    rng = np.random.default_rng(seed)
    best_p, best_val = None, math.inf
    for s in range(max(1, int(starts))):
        p0 = np.zeros(mp.l) if s == 0 else rng.uniform(0.0, 1.0, mp.l) / d
        p = _upper_complementarity(syi, d, p0)
        prec = syi + np.diag(p)
        diag = np.diag(linalg.inv_pd(prec))
        if np.any(diag > d * (1.0 + 1e-9) + 1e-12):
            p = _upper_complementarity(syi, d, p, max_iter=4000, damp=True)
            prec = syi + np.diag(p)
            diag = np.diag(linalg.inv_pd(prec))
            if np.any(diag > d * (1.0 + 1e-9) + 1e-12):
                continue
        val = _upper_value(mp, prec)
        if val < best_val:
            best_p, best_val = p, val
    if best_p is None:
        best_p = _upper_bisect(syi, d)
        best_val = _upper_value(mp, syi + np.diag(best_p))
    rates = 0.5 * np.log1p(best_p * mp.split_sigma_n)
    return SumRateResult(value=max(0.0, best_val), rates=rates)


def _upper_bisect(syi, d):
    # Fallback: minimal-feasible coordinate bisection on the precisions.
    l = d.shape[0]

    def ok(p):
        return bool(np.all(np.diag(linalg.inv_pd(syi + np.diag(p))) <= d))

    p = 10.0 / d
    for _ in range(60):
        if ok(p):
            break
        p *= 100.0
    if not ok(p):
        raise InfeasibleDistortion("distortion caps unreachable at finite precision")
    for _ in range(200):
        change = 0.0
        for i in range(l):
            cur = p[i]

            def pred(t, i=i):
                trial = p.copy()
                trial[i] = t
                return ok(trial)

            new = 0.0 if pred(0.0) else optimize.bisect_threshold(pred, 0.0, cur, iters=60)
            change = max(change, abs(cur - new))
            p[i] = new
        if change <= 1e-12 * max(1.0, float(p.max())):
            break
    return p


# ---------------------------------------------------------------------------
# coordinate descent for the achievable trace program

# The feasible rate sets are upward closed, so each coordinate step
# bisects for the smallest feasible value and then golden-sections the
# objective on the feasible segment.


def _descend(f, feas, start, r_hi, step_tol=1e-7, xtol=1e-6, max_sweeps=60):
    rates = np.asarray(start, dtype=float).copy()
    l = rates.shape[0]
    best = f(rates)
    for _ in range(max_sweeps):
        prev = best
        anchor = rates.copy()
        for i in range(l):
            cur = rates[i]

            def at(t, i=i):
                trial = rates.copy()
                trial[i] = t
                return trial

            if feas(at(0.0)):
                t_min = 0.0
            else:
                t_min = optimize.bisect_threshold(lambda t: feas(at(t)), 0.0, cur, iters=40)
            hi = max(cur, r_hi)
            if hi - t_min <= xtol:
                x, fx = t_min, f(at(t_min))
            else:
                x, fx = optimize.golden_section(lambda t: f(at(t)), t_min, hi, tol=xtol)
                f_lo = f(at(t_min))
                if f_lo <= fx:
                    x, fx = t_min, f_lo
            if fx < best:
                rates[i] = x
                best = fx
        # pattern move along the sweep displacement; this collapses the slow
        # zig-zag that plain coordinate descent exhibits in narrow valleys
        direction = rates - anchor
        if np.any(direction != 0.0):
            scale = 1.0
            while scale <= 8.0:
                probe = np.clip(rates + scale * direction, 0.0, None)
                fp = f(probe)
                if fp < best:
                    rates, best = probe, fp
                    scale *= 2.0
                else:
                    break
        if prev - best < step_tol:
            break
    return rates, best


# ---------------------------------------------------------------------------
# converse (lower) program


@dataclass(frozen=True)
class _Converse:
    """A strictly feasible point (``rates``, ``sigma``) of the converse
    program and the dual function ``value`` at multipliers ``z``, ``lam``,
    ``mu``, below the optimum. ``steps`` counts Newton steps."""

    value: float
    rates: np.ndarray
    sigma: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    steps: int


def _converse(mp: MultiterminalProblem, rows, rhs) -> _Converse:
    # The converse program in the noise levels delta_l = split_l e^(-2 r_l)
    # and the error covariance Sigma, with D = diag(delta) and X = B - D:
    #   min (1/2)(sum log(split/delta) + logdet(Sigma_Y + B) - logdet(Sigma + B))
    #   s.t. N = [[X, D], [D, Sigma - D]] >= 0, tr(P_j Sigma) <= rhs_j, delta <= split.
    # N's Schur complement is Y = Sigma - floor(r), floor = (D^-1 - B^-1)^-1
    # = D + D X^-1 D as Sigma_Y^-1 = Sigma_N^-1 - B^-1: a max-det program
    # (Vandenberghe, Boyd & Wu, SIAM J. Matrix Anal. Appl. 19(2), 1998). N
    # is congruent to [[X, B], [B, Sigma + B]] but keeps B, large for a split
    # near the boundary, out of the block that goes singular at the optimum.
    # Stage t minimizes t (-sum log delta - logdet(Sigma + B)) - logdet N
    # - sum log(rhs - tr(P Sigma)) - sum log(split - delta), nu = 3L + m, by
    # Newton steps on delta and Sigma's upper triangle under waterfill's
    # stage rule; W = N^-1 comes from X^-1 and Y^-1. The certificate takes
    # the last step's multipliers Z = (W - W dN W) / 2t, lam = (1/s + a dx
    # / s^2) / 2t on the row slacks s and mu alike, projected onto the cones.
    # The Lagrangian's minimum is attained at delta = 1/2c, Sigma + B =
    # C^-1 / 2, with c = diag(Z11 - Z12 - Z21 + Z22) + mu, C = sum lam P - Z22.
    l = mp.l
    split, b = mp.split_sigma_n, mp.offset
    iu, ju = np.triu_indices(l)
    # along E_a = e_i e_j^T + e_j e_i^T (e_i e_i^T if i = j), -logdet V^-1
    # has gradient -r2g_a V_ij and Hessian gg_ab (V_ik V_jl + V_il V_jk)
    r2g = np.where(iu == ju, 1.0, 2.0)
    gg = 0.5 * np.outer(r2g, r2g)
    quad = np.stack((iu[:, None] * l + iu, ju[:, None] * l + ju, iu[:, None] * l + ju, ju[:, None] * l + iu))
    a = rows[:, iu, ju] * r2g  # a @ Sigma[iu, ju] = tr(P Sigma)
    nu = 3 * l + rhs.shape[0]
    n = l + iu.shape[0]
    # start at delta = theta split with theta quartered until the floor
    # clears every row, and Sigma halfway between floor and rows
    theta = 0.25
    while True:
        delta = theta * split
        xd = np.linalg.inv(b - np.diag(delta)) * delta
        floor = np.diag(delta) + delta[:, None] * xd
        room = rhs - a @ floor[iu, ju]
        if np.all(room > 0.0):
            break
        theta *= 0.25
    sigma = floor + 0.5 * float(np.min(room / np.trace(rows, axis1=1, axis2=2))) * np.eye(l)
    t, stage, steps = 1.0, 0, 0
    mats = np.empty((2, l, l))  # X = B - D and Sigma + B, then Y^-1 and (Sigma + B)^-1
    hess = np.empty((n, n))
    while True:
        mats[0] = b
        mats[0].flat[:: l + 1] -= delta
        np.add(sigma, b, out=mats[1])
        xi, mats[1] = np.linalg.inv(mats)
        xd = xi * delta
        y = sigma - delta[:, None] * xd
        y.flat[:: l + 1] -= delta
        # Y^-1 by its spectrum keeps the rounding of Y's small eigenvalues on
        # their eigenvectors; an LU inverse spreads it and stalls the path
        ev, u = np.linalg.eigh(y)
        mats[0] = w22 = (u / ev) @ u.T
        e = xd + np.eye(l)
        low = w22 @ e.T
        omega = xi + e @ low
        up = split - delta
        slack = rhs - a @ sigma[iu, ju]
        v = np.take(mats.reshape(2, -1), quad, axis=1)
        h = v[:, 0] * v[:, 1] + v[:, 2] * v[:, 3]
        hess[l:, l:] = gg * (h[0] + t * h[1]) + (a.T / slack**2) @ a
        grad = np.concatenate((omega.diagonal() - t / delta + 1.0 / up,
                               (1.0 / slack) @ a - r2g * (mats[0, iu, ju] + t * mats[1, iu, ju])))
        np.multiply(omega, omega, out=hess[:l, :l])
        hess.flat[: l * (n + 1) : n + 1] += t / delta**2 + 1.0 / up**2
        hess[l:, :l] = -r2g[:, None] * low[iu] * low[ju]
        hess[:l, l:] = hess[l:, :l].T
        dx = -np.linalg.solve(hess, grad)
        dec2 = -float(grad @ dx)
        rule = _path_step(dec2, t, stage, nu)
        if rule is None:
            break
        step, t, stage = rule
        delta = delta + step * dx[:l]
        sigma[iu, ju] += step * dx[l:]
        sigma[ju, iu] = sigma[iu, ju]
        steps += 1
    w12 = -xd @ w22
    w = np.block([[xi - w12 @ xd.T, w12], [w12.T, w22]])
    d_delta = np.diag(dx[:l])
    d_sigma = np.zeros((l, l))
    d_sigma[iu, ju] = d_sigma[ju, iu] = dx[l:]
    d_n = np.block([[-d_delta, d_delta], [d_delta, d_sigma - d_delta]])
    z = (w - w @ d_n @ w) / (2.0 * t)
    ev, vec = np.linalg.eigh(0.5 * (z + z.T))
    z = (vec * np.maximum(ev, 0.0)) @ vec.T
    z = 0.5 * (z + z.T)
    lam = np.maximum((1.0 / slack + (a @ dx[l:]) / slack**2) / (2.0 * t), 0.0)
    mu = np.maximum((1.0 / up + dx[:l] / up**2) / (2.0 * t), 0.0)
    z11, z22 = z[:l, :l], z[l:, l:]
    c = np.diag(z11 - z[:l, l:] - z[l:, :l] + z22) + mu
    cmat = np.tensordot(lam, rows, 1) - z22
    if not (np.all(c > 0.0) and np.linalg.eigvalsh(cmat)[0] > 0.0):
        raise DegenerateInput("converse multipliers leave the Lagrangian unbounded below")
    logs = float(np.log(split).sum()) + mp.logdet_sigma_y_offset
    value = 0.5 * (float(np.log(2.0 * c).sum()) + 2.0 * l + logs + np.linalg.slogdet(2.0 * cmat)[1])
    value -= float(((cmat + z11) * b).sum() + lam @ rhs + mu @ split)
    return _Converse(value=value, rates=0.5 * np.log(split / delta), sigma=sigma, z=z,
                     lam=lam, mu=mu, steps=steps)


def sum_rate_lower(mp: MultiterminalProblem, d_vec) -> SumRateResult:
    """Converse sum rate under per-coordinate distortion caps.

    Minimizes ``sum_l r_l + (1/2) log(det(Sigma_Y + B) / det(Sigma_d + B))``
    over rates r >= 0 and error covariances ``Sigma_d`` dominating the
    posterior floor with ``diag(Sigma_d) <= d_vec``, where ``B`` is the
    layout-transform offset. In the noise levels ``delta_l = split_l
    exp(-2 r_l)`` this is a max-det program, solved by one log-barrier
    Newton path. The value, clamped at zero, is the dual function at
    explicit multipliers: a lower bound on the optimum by weak duality, and
    within 1e-9 of it. ``rates`` is the path's strictly feasible end point,
    ``cov`` :func:`rdregion.waterfill.max_det_capped` at its floor.
    """
    d = _caps(mp, d_vec)
    sol = _converse(mp, np.eye(mp.l)[:, None] * np.eye(mp.l)[:, :, None], d)
    floor = linalg.inv_pd(mt_posterior_precision(mp, sol.rates))
    cov = max_det_capped(floor, d, offset=mp.offset)
    return SumRateResult(value=max(0.0, sol.value), rates=sol.rates, cov=cov)


def sum_rate_bounds(mp: MultiterminalProblem, d_vec, starts: int = 16,
                    seed: int = 0) -> SumRateBounds:
    """Both sum-rate bounds and their arguments for one cap vector;
    ``starts`` and ``seed`` drive the achievable search."""
    up = sum_rate_upper(mp, d_vec, starts=starts, seed=seed)
    lo = sum_rate_lower(mp, d_vec)
    return SumRateBounds(
        lower=lo.value,
        upper=up.value,
        argmin_r_lower=lo.rates,
        argmin_r_upper=up.rates,
        argmin_sigma_lower=lo.cov,
        gap=up.value - lo.value,
    )


# ---------------------------------------------------------------------------
# weighted-sum-distortion programs (supporting-hyperplane machinery)


def _trace_of(mp, gamma_eff, rates):
    fl = linalg.inv_pd(mt_posterior_precision(mp, rates))
    return float(np.trace(gamma_eff @ fl @ gamma_eff.T))


def _upper_at_trace(mp, gamma_eff, budget, starts, seed, r_hi, r_cap=12.0,
                    xtol=1e-4, step_tol=1e-6):
    # min of the achievable objective subject to tr[G floor(r) G^T] <= budget.
    # One coordinate is solved onto the constraint; the remaining ones are
    # searched. Returns (value, rates); value is +inf when unreachable.
    l = mp.l

    def u_val(rates):
        return _upper_value(mp, mt_posterior_precision(mp, rates))

    if _trace_of(mp, gamma_eff, np.zeros(l)) <= budget:
        return 0.0, np.zeros(l)
    if l == 1:
        if _trace_of(mp, gamma_eff, [r_cap]) > budget:
            return math.inf, None
        t = optimize.bisect_threshold(
            lambda t: _trace_of(mp, gamma_eff, [t]) <= budget, 0.0, r_cap, iters=60
        )
        return u_val([t]), np.array([t])
    rng = np.random.default_rng(seed)
    best, best_rates = math.inf, None

    def solve(free, ls):
        rates = np.insert(np.asarray(free, dtype=float), ls, 0.0)
        if _trace_of(mp, gamma_eff, rates) <= budget:
            return u_val(rates), rates
        capped = rates.copy()
        capped[ls] = r_cap
        if _trace_of(mp, gamma_eff, capped) > budget:
            return math.inf, None

        def pred(t, rates=rates, ls=ls):
            trial = rates.copy()
            trial[ls] = t
            return _trace_of(mp, gamma_eff, trial) <= budget

        rates[ls] = optimize.bisect_threshold(pred, 0.0, r_cap, iters=50)
        return u_val(rates), rates

    for s in range(max(1, int(starts))):
        ls = s % l

        def full(free, ls=ls):
            return solve(free, ls)[0]

        def feas_free(free, ls=ls):
            rates = np.insert(np.asarray(free, dtype=float), ls, r_cap)
            return _trace_of(mp, gamma_eff, rates) <= budget

        base = np.zeros(l - 1)
        if s > 0:
            base = rng.uniform(0.0, 1.0, l - 1)
        trial = base.copy()
        bumps = 0
        while not feas_free(trial) and bumps < 12:
            trial = trial + 0.5
            bumps += 1
        if not feas_free(trial):
            continue
        r_free, v = _descend(full, feas_free, trial, r_hi,
                             step_tol=step_tol, xtol=xtol)
        if v < best:
            best, best_rates = v, solve(r_free, ls)[1]
    return best, best_rates


def boundary_batch(mp: MultiterminalProblem, rate_budget, weight_grid,
                   starts: int = 2, seed: int = 0, d_iters: int = 40,
                   r_hi: float = 8.0) -> list[BoundaryRow]:
    """Minimum weighted distortions reachable at a fixed rate budget.

    For each weight vector gamma >= 1 in ``weight_grid`` the achievable
    and converse sum-rate curves under the weighted distortion
    ``sum_l gamma_l^2 D_l`` are inverted by bisection on the distortion at
    the given total rate, yielding one supporting-hyperplane probe
    ``(gamma, D_upper, D_lower)``. ``starts``, ``seed`` and ``r_hi`` drive
    the achievable search; each converse value is one certified barrier
    solve with a weighted-trace row, so ``D_lower <= D_upper`` by weak
    duality. The probe is certified as a boundary contact when ``D_upper <=
    zeta(sigma_y)``, the level below which the two curves provably agree.
    """
    budget = np.asarray(rate_budget, dtype=float).ravel()
    if budget.size == 1:
        r_total = float(budget[0])
        if not math.isfinite(r_total) or r_total < 0.0:
            raise InvalidAuxRate("rate budget must be finite and nonnegative")
    else:
        r_total = float(as_rates(rate_budget, mp.l).sum())
    z = zeta(mp.sigma_y)
    rows = []
    for w_vec in weight_grid:
        w = np.asarray(w_vec, dtype=float).ravel()
        if w.shape[0] != mp.l:
            raise InvalidInput(f"expected {mp.l} weights, got {w.shape[0]}")
        if not np.all(np.isfinite(w)) or np.any(w < 1.0):
            raise InvalidWeights("weights must be finite and >= 1")
        ge = np.diag(w) @ mp.gamma
        hi = float(np.trace(ge @ mp.sigma_y @ ge.T))
        trace_row = (ge.T @ ge)[None]

        def pred_u(dd, ge=ge):
            return _upper_at_trace(mp, ge, dd, starts, seed, r_hi)[0] <= r_total

        def pred_l(dd, trace_row=trace_row):
            # no error covariance meets a nonpositive weighted distortion
            if dd <= 0.0:
                return False
            return _converse(mp, trace_row, np.array([dd])).value <= r_total + 1e-9

        d_u = optimize.bisect_threshold(pred_u, 0.0, hi, iters=d_iters)
        d_l = optimize.bisect_threshold(pred_l, 0.0, d_u, iters=d_iters)
        rows.append(BoundaryRow(weights=w, d_upper=float(d_u), d_lower=float(d_l),
                                certified=bool(d_u <= z)))
    return rows


# ---------------------------------------------------------------------------
# matching thresholds for the sum criterion


def threshold_split(mp: MultiterminalProblem) -> float:
    """Distortion level below which the given split certifies matching.

    Evaluates ``(L+1) * min_eig(Gamma B Gamma^T) - tr[Gamma B Gamma^T]``
    with the layout-transform offset ``B = Sigma_N + Sigma_N Sigma_X^-1
    Sigma_N``. The value may be nonpositive, in which case this split
    certifies nothing.
    """
    td = mp.transform
    eigs = np.linalg.eigvalsh(td.offset_weighted)
    return float((mp.l + 1) * eigs[0] - td.offset_trace)


def threshold_weighted(sigma_y, gamma_weights) -> float:
    """Best split-free matching threshold for weighted distortions.

    For weights ``gamma_l >= 1`` returns ``eta_max eta_min / ((sqrt(L) +
    sqrt(L-1))^2 (eta_max - eta_min / gamma_max^2))`` where eta are the
    eigenvalues of ``sigma_y``; matching holds for weighted distortion
    levels up to this value. Returns ``inf`` when the denominator
    degenerates (all weights one and an isotropic spectrum).
    """
    sy = linalg.as_symmetric(np.asarray(sigma_y, dtype=float))
    w = np.asarray(gamma_weights, dtype=float).ravel()
    if w.shape[0] != sy.shape[0]:
        raise InvalidInput(f"expected {sy.shape[0]} weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)) or np.any(w < 1.0):
        raise InvalidWeights("weights must be finite and >= 1")
    eigs = np.linalg.eigvalsh(sy)
    if eigs[0] <= 0.0:
        raise InvalidMatrix("sigma_y must be positive definite")
    l = sy.shape[0]
    eta_min, eta_max = float(eigs[0]), float(eigs[-1])
    g_max = float(w.max())
    den = eta_max - eta_min / g_max**2
    if den <= 1e-15 * eta_max:
        return math.inf
    coeff = 1.0 / (math.sqrt(l) + math.sqrt(l - 1.0)) ** 2
    return coeff * eta_max * eta_min / den


def zeta(sigma_y) -> float:
    """Universal certified-matching distortion level of an observation
    covariance: ``eta_min / (sqrt(L) + sqrt(L-1))^2``."""
    sy = linalg.as_symmetric(np.asarray(sigma_y, dtype=float))
    eigs = np.linalg.eigvalsh(sy)
    if eigs[0] <= 0.0:
        raise InvalidMatrix("sigma_y must be positive definite")
    l = sy.shape[0]
    return float(eigs[0]) / (math.sqrt(l) + math.sqrt(l - 1.0)) ** 2


# ---------------------------------------------------------------------------
# two-source closed forms


def _check_twoterm(sigma1, sigma2, rho, d_l=None):
    if not (sigma1 > 0.0 and sigma2 > 0.0):
        raise InvalidInput("standard deviations must be positive")
    if not (0.0 <= rho < 1.0):
        raise InvalidCorrelation("correlation must lie in [0, 1)")
    if d_l is not None and not d_l > 0.0:
        raise InvalidInput("distortion must be positive")


def twoterm_sum_rate(sigma1: float, sigma2: float, rho: float, d1: float,
                     d2: float) -> TwoTermSumRate:
    """Closed-form two-source sum rate and its validity flag.

    ``value`` is ``(1/2) log[(1-rho^2)/2 * (x + sqrt(x^2 + c*x))]`` with
    ``x = sigma1^2 sigma2^2 / (d1 d2)`` and ``c = 4 rho^2 / (1-rho^2)^2``;
    it equals the optimal sum rate exactly when ``in_d`` holds, i.e. when
    ``max(u1, u2) <= min(1, rho^2 min(u1, u2) + 1 - rho^2)`` for the
    normalized distortions ``u_l = d_l / sigma_l^2``. The symmetric
    instance sigma1 = sigma2 = 1, rho = 1/2, d1 = d2 = 0.4 evaluates to
    exactly ``(1/2) ln 5``.
    """
    _check_twoterm(sigma1, sigma2, rho, d_l=min(d1, d2))
    u1 = d1 / sigma1**2
    u2 = d2 / sigma2**2
    rho2 = rho * rho
    in_d = max(u1, u2) <= min(1.0, rho2 * min(u1, u2) + 1.0 - rho2)
    x = (sigma1 * sigma2) ** 2 / (d1 * d2)
    c = 4.0 * rho2 / (1.0 - rho2) ** 2
    value = 0.5 * math.log(0.5 * (1.0 - rho2) * (x + math.sqrt(x * x + c * x)))
    return TwoTermSumRate(in_d=bool(in_d), value=value)


def twoterm_curve_point(sigma1: float, sigma2: float, rho: float, d_l: float,
                        which: int, s: float) -> tuple[float, float]:
    """One point of the single-cap two-source boundary curve.

    With source ``which`` capped at distortion ``d_l``, the boundary is
    parametrized by ``s`` in (0, 1]: the capped source needs
    ``(1/2) log+[(1-rho^2)(sigma^2/d_l)(1 + rho^2 s/(1-rho^2))]`` and the
    other one ``(1/2) log(1/s)``.
    """
    _check_twoterm(sigma1, sigma2, rho, d_l=d_l)
    if which not in (1, 2):
        raise InvalidInput("which must be 1 or 2")
    if not (0.0 < s <= 1.0):
        raise InvalidInput("curve parameter s must lie in (0, 1]")
    sigma_l = sigma1 if which == 1 else sigma2
    rho2 = rho * rho
    arg = (1.0 - rho2) * (sigma_l**2 / d_l) * (1.0 + rho2 * s / (1.0 - rho2))
    r_capped = 0.5 * math.log(max(1.0, arg))
    r_other = 0.5 * math.log(1.0 / s)
    return (r_capped, r_other) if which == 1 else (r_other, r_capped)


def twoterm_curve_grid(s_samples: int, s_min: float = 1e-6) -> list[float]:
    """The ``s_samples`` log-uniform curve parameters in [s_min, 1] at
    which :func:`twoterm_region_curve` samples the boundary."""
    if s_samples < 2:
        raise InvalidInput("s_samples must be at least 2")
    if not (0.0 < s_min <= 1.0):
        raise InvalidInput("s_min must lie in (0, 1]")
    return np.exp(np.linspace(math.log(s_min), 0.0, int(s_samples))).tolist()


def twoterm_region_curve(sigma1: float, sigma2: float, rho: float, d_l: float,
                         which: int, s_samples: int,
                         s_min: float = 1e-6) -> list[tuple[float, float]]:
    """Sample the single-cap boundary curve at log-uniform s in [s_min, 1]."""
    return [twoterm_curve_point(sigma1, sigma2, rho, d_l, which, s)
            for s in twoterm_curve_grid(s_samples, s_min)]
