"""Independent brute-force references used to pin down library outputs."""

import itertools
import json
import math

import numpy as np

from rdregion import linalg
from rdregion.errors import InfeasibleBudget, InfeasibleDistortion, NotSupermodular
from rdregion.problems import SumCrit, mt_posterior_precision
from rdregion.sumrate import _descend, sum_rate_upper
from rdregion.waterfill import _max_det_capped, waterfill_det


def min_weighted_sum_lp(bounds, l, weights, tol=1e-9):
    """Exhaustive vertex enumeration for min weights @ R over
    {R >= 0, sum_{i in S} R_i >= bounds[S] for all nonempty S}.

    Builds every choice of l active constraints, solves the linear system,
    keeps feasible vertices, and returns the best value. Only meant for
    small l.
    """
    w = np.asarray(weights, dtype=float)
    rows = []
    rhs = []
    for mask in range(1, 1 << l):
        rows.append([(mask >> i) & 1 for i in range(l)])
        rhs.append(bounds[mask])
    for i in range(l):
        unit = [0.0] * l
        unit[i] = 1.0
        rows.append(unit)
        rhs.append(0.0)
    rows = np.asarray(rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    best = None
    for combo in itertools.combinations(range(rows.shape[0]), l):
        a = rows[list(combo)]
        b = rhs[list(combo)]
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(rows @ x < rhs - tol):
            continue
        val = float(w @ x)
        if best is None or val < best:
            best = val
    return best


def water_level_scan(floors, budget):
    """Water level by a scan over the sorted breakpoints: the first segment
    whose candidate level lies inside it, up to 1e-12 relative, else the
    candidate with the smallest violation. Raises InfeasibleBudget below the
    floor total."""
    c = np.asarray(floors, dtype=float).ravel()
    total = float(c.sum())
    if budget < total:
        raise InfeasibleBudget(f"budget {budget} is below the floor total {total}",
                               deficit=total - budget)
    s = np.sort(c)
    k = s.shape[0]
    tail = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])
    best_xi, best_viol = None, math.inf
    for j in range(1, k + 1):
        xi = (budget - tail[j]) / j
        hi = s[j] if j < k else math.inf
        viol = max(s[j - 1] - xi, xi - hi, 0.0)
        if viol <= 1e-12 * max(1.0, abs(xi)):
            return xi
        if viol < best_viol:
            best_xi, best_viol = xi, viol
    return best_xi


def _limit_weighted(p):
    gamma_inv = np.linalg.inv(p.gamma)
    m_inf = p.sigma_x_inv + p.a_mat.T @ (p.a_mat / p.noise_vars[:, None])
    w = gamma_inv.T @ m_inf @ gamma_inv
    return 0.5 * (w + w.T)


def _householder_to_axis(vec, k):
    # orthogonal T with vec @ T = |vec| e_k
    n = vec.shape[0]
    nrm = float(np.linalg.norm(vec))
    u = vec.copy()
    u[k] -= nrm
    uu = float(u @ u)
    if uu <= (1e-15 * nrm) ** 2:
        return np.eye(n)
    return np.eye(n) - (2.0 / uu) * np.outer(u, u)


def rotation_bound_sampled(p, row, samples=64, seed=0):
    """Alignment functional of ``rdregion.matching.rotation_bound`` by
    explicit search: for every target axis k, the Householder reflection T
    taking the weighted row onto axis k, composed with ``samples`` seeded
    Haar rotations of the complement of k, scored by
    ``(1 + |c|^2 / a_max^2) / (C_kk - |c|^2 / a_max)`` with ``C = T^T W* T``.
    Returns the best score."""
    w_star = _limit_weighted(p)
    a_max = np.linalg.eigvalsh(w_star)[-1]
    a_hat = (p.a_mat @ np.linalg.inv(p.gamma))[row]
    k = p.k
    rng = np.random.default_rng(seed)
    best = -math.inf
    for axis in range(k):
        base = _householder_to_axis(a_hat, axis)
        candidates = [base]
        rest = [i for i in range(k) if i != axis]
        for _ in range(samples if k > 2 else 0):
            q, rmat = np.linalg.qr(rng.normal(size=(k - 1, k - 1)))
            haar = np.eye(k)
            haar[np.ix_(rest, rest)] = q * np.sign(np.diag(rmat))
            candidates.append(base @ haar)
        for t in candidates:
            c_mat = t.T @ w_star @ t
            chi = c_mat[axis, axis]
            off = np.delete(c_mat[axis], axis)
            norm2 = float(off @ off)
            best = max(best, (1.0 + norm2 / a_max**2) / (chi - norm2 / a_max))
    return best


def _sum_level_per_point(p, d, r):
    # determinant level of the sum criterion at one rate vector, from the
    # weighted floor's spectrum and the breakpoint scan
    m = p.sigma_x_inv + p.a_mat.T @ (p.a_mat * (-np.expm1(-2.0 * r) / p.noise_vars)[:, None])
    cov = np.linalg.inv(m)
    w = p.gamma @ (0.5 * (cov + cov.T)) @ p.gamma.T
    floors = np.linalg.eigvalsh(0.5 * (w + w.T))
    xi = water_level_scan(floors, d)
    return math.exp(float(np.log(np.maximum(floors, xi)).sum()) - p.logdet_gamma2)


def md_scan_per_point(p, criterion, r_max=8.0, points=6, tol=1e-9):
    """``rdregion.matching.md_scan`` one grid point and one neighbour pair
    at a time: returns ``(holds, worst, pairs)``. Sum criteria take their
    level from :func:`water_level_scan`, other criteria from
    ``waterfill_det``."""
    axes = np.linspace(0.0, float(r_max), points)
    values = {}
    for idx in itertools.product(range(points), repeat=p.l):
        r = axes[list(idx)]
        try:
            if isinstance(criterion, SumCrit):
                values[idx] = _sum_level_per_point(p, criterion.d, r)
            else:
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
            th2 = values[idx[:l] + (idx[l] + 1,) + idx[l + 1:]]
            if th2 is None:
                continue
            v1 = math.exp(-2.0 * axes[idx[l]]) * th
            v2 = math.exp(-2.0 * axes[idx[l] + 1]) * th2
            worst = max(worst, (v2 - v1) / max(v1, 1e-300))
            pairs += 1
    return worst <= tol, worst, pairs


def _sphere_ascent(base, slack, l0):
    # maximize logdet(base + L L^T) with row i of L pinned to norm
    # sqrt(slack[i]): backtracking gradient ascent with an adaptive step and
    # row renormalization, for at most 1500 steps, stopping once three steps
    # in a row gain less than 1e-14 relative to the value
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
    return cur


def max_det_ascent(floor_mat, caps, offset=None, starts=16, seed=0):
    """``max logdet(Z + offset)`` over ``Z >= floor_mat`` with
    ``diag(Z) <= caps`` by gradient ascent on a Gram factor L of
    ``Z - floor_mat``, whose rows are pinned to the slack norms, from the
    diagonal start and ``starts - 1`` seeded Gaussian ones. Returns the best
    log-determinant found: a feasible value, so a lower bound on the
    optimum."""
    f = np.asarray(floor_mat, dtype=float)
    base = f if offset is None else f + np.asarray(offset, dtype=float)
    slack = np.clip(np.asarray(caps, dtype=float) - np.diag(f), 0.0, None)
    rng = np.random.default_rng(seed)
    best = _sphere_ascent(base, slack, np.diag(np.sqrt(slack)))
    for _ in range(starts - 1):
        best = max(best, _sphere_ascent(base, slack, rng.normal(size=f.shape)))
    return best


def sum_rate_lower_search(mp, d_vec, starts=16, seed=0, r_hi=8.0, step_tol=1e-7, xtol=1e-6):
    """The converse sum rate of ``rdregion.sumrate.sum_rate_lower`` by a
    seeded multi-start coordinate search over the rates: the objective is
    ``sum(r) + (1/2) log(det(Sigma_Y + B) / det(Z + B))`` with Z the capped
    max-det covariance over the floor at r. The first start is the
    achievable argmin, the others add uniform jitter in [0, 1.5); each
    start runs ``rdregion.sumrate._descend``. Returns the best value found
    (clamped at zero): a local minimum, so it can only overstate the
    converse optimum."""
    d = np.asarray(d_vec, dtype=float)
    b = mp.offset
    tol_vec = 1e-12 * np.maximum(1.0, np.abs(d))

    def floor_at(rates):
        return linalg.inv_pd(mt_posterior_precision(mp, rates))

    def feas(rates):
        return bool(np.all(d - np.diag(floor_at(rates)) >= -tol_vec))

    def f(rates):
        fl = floor_at(rates)
        slack = d - np.diag(fl)
        if np.any(slack < -tol_vec):
            return math.inf
        z = _max_det_capped(fl, d, b, np.clip(slack, 0.0, None))
        return 0.5 * (mp.logdet_sigma_y_offset - linalg.logdet_pd(z + b)) + float(rates.sum())

    base = sum_rate_upper(mp, d, starts=min(int(starts), 4), seed=seed).rates
    if not feas(base):
        base = base + 1e-7
    rng = np.random.default_rng(seed)
    best = math.inf
    for s in range(max(1, int(starts))):
        start = base.copy() if s == 0 else base + rng.uniform(0.0, 1.5, size=mp.l)
        bumps = 0
        while not feas(start) and bumps < 10:
            start = start + 0.5
            bumps += 1
        if feas(start):
            best = min(best, _descend(f, feas, start, r_hi, step_tol=step_tol, xtol=xtol)[1])
    if math.isinf(best):
        raise InfeasibleDistortion("no feasible rate vector found for the caps")
    return max(0.0, best)


def trace_converse_objective(mp, gamma_eff, d, rates):
    """The converse sum-rate objective at fixed rates under the weighted
    distortion ``tr(G Sigma_d G^T) <= d``, G = ``gamma_eff``: ``sum(r) +
    (1/2)(logdet(Sigma_Y + B) - max logdet(Sigma_d + B))`` with the max
    over ``Sigma_d`` dominating the floor at r, by water-filling the
    eigenvalues of ``G (floor + B) G^T`` under the budget ``d + tr(G B
    G^T)`` with :func:`water_level_scan`. Returns inf when the floor alone
    exceeds the budget."""
    rates = np.asarray(rates, dtype=float)
    b = mp.offset
    budget = d + float(np.trace(gamma_eff @ b @ gamma_eff.T))
    fl = np.linalg.inv(mt_posterior_precision(mp, rates))
    w = gamma_eff @ (fl + b) @ gamma_eff.T
    floors = np.linalg.eigvalsh(0.5 * (w + w.T))
    if floors.sum() > budget:
        return math.inf
    xi = water_level_scan(floors, budget)
    log_w = float(np.log(np.maximum(floors, xi)).sum()) - 2.0 * np.linalg.slogdet(gamma_eff)[1]
    return float(rates.sum()) + 0.5 * (mp.logdet_sigma_y_offset - log_w)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, np.generic):
        return x.item()
    return x


def json_indent2(payload):
    """A CLI JSON payload as the standard library's pure-Python encoder
    writes it: numpy leaves converted to Python values, then
    ``json.dumps(..., indent=2)``."""
    return json.dumps(_jsonable(payload), indent=2)


def check_co_polymatroid_loop(region, tol=1e-9):
    """``rdregion.regions.check_co_polymatroid`` one subset and one encoder
    pair at a time: negative floors in ``bounds`` order, then every subset
    S ascending, every encoder i not in S ascending, the monotonicity check
    for S+i, then supermodularity with every encoder j > i not in S. Raises
    NotSupermodular at the first violation."""
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
