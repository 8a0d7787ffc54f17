"""Seeded instance generators for the benchmark workloads.

Every generator draws from a ``numpy.random.Generator`` and returns
instances in the order drawn. Problems come back as the JSON objects that
``rdregion.problems.problem_from_dict`` reads, so they can be written to
problem files verbatim. The two-source batch draws the continuous
parameters that set an instance's cost (correlation, scales, caps) one per
stratum of their range, which keeps the cost of a batch steady from seed
to seed without ever rejecting an instance for its run time. The only
rejections are the validity filters the test suite uses: a scan grid that
is feasible at its top rate and a positive matching threshold.
"""

from __future__ import annotations

import numpy as np

from rdregion import duality, matching, problems, sumrate, waterfill
from rdregion.problems import MultiterminalProblem, SumCrit


def strata(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one from each of n equal strata, in shuffled order."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def random_spd(rng, n: int, jitter: float) -> np.ndarray:
    """Well-conditioned random symmetric positive definite matrix."""
    w = rng.normal(size=(n, n))
    return w @ w.T + n * jitter * np.eye(n)


def remote_dict(sigma_x, a_mat, noise_vars, gamma) -> dict:
    k, l = sigma_x.shape[0], a_mat.shape[0]
    return {"k": k, "l": l, "sigma_x": sigma_x.tolist(), "a": a_mat.tolist(),
            "noise_vars": noise_vars.tolist(), "gamma": gamma.tolist()}


def mt_dict(sigma_y, split, gamma) -> dict:
    return {"l": sigma_y.shape[0], "sigma_y": sigma_y.tolist(),
            "split_sigma_n": split.tolist(), "gamma": gamma.tolist()}


def tight_split_pairs(rng, n: int) -> list[dict]:
    """Two-source instances with a near-maximal split and caps inside the
    set where the closed-form sum rate is exact.

    Each item carries ``problem``, the cap vector ``d`` and the closed-form
    parameters ``(s1, s2, rho)``. Normalized caps ``u_l = d_l / s_l^2``
    satisfy ``max(u) <= min(1, rho^2 min(u) + 1 - rho^2)``.
    """
    rho = 0.05 + 0.85 * strata(rng, n)
    s1 = 0.6 + 1.4 * strata(rng, n)
    s2 = 0.6 + 1.4 * strata(rng, n)
    u_lo = 0.15 + 0.85 * strata(rng, n)
    frac = strata(rng, n)
    swap = rng.uniform(size=n) < 0.5
    out = []
    for i in range(n):
        r2 = rho[i] * rho[i]
        cap = min(1.0, r2 * u_lo[i] + 1.0 - r2)
        u1, u2 = u_lo[i], u_lo[i] + frac[i] * (cap - u_lo[i])
        if swap[i]:
            u1, u2 = u2, u1
        off = rho[i] * s1[i] * s2[i]
        sigma_y = np.array([[s1[i] ** 2, off], [off, s2[i] ** 2]])
        split = 0.95 * (1.0 - rho[i]) * np.array([s1[i] ** 2, s2[i] ** 2])
        out.append({
            "problem": mt_dict(sigma_y, split, np.eye(2)),
            "d": [u1 * s1[i] ** 2, u2 * s2[i] ** 2],
            "closed_form": (float(s1[i]), float(s2[i]), float(rho[i])),
        })
    return out


def random_remote(rng, k: int, l: int) -> dict:
    """Remote problem with k hidden coordinates and l encoders."""
    return remote_dict(random_spd(rng, k, 0.25), rng.normal(size=(l, k)),
                       rng.uniform(0.3, 1.5, l), np.eye(k))


def random_mt(rng, l: int) -> dict:
    """Multiterminal problem with a valid diagonal split and diagonal
    distortion weights."""
    sigma_y = random_spd(rng, l, 0.4)
    low = float(np.linalg.eigvalsh(sigma_y)[0])
    split = rng.uniform(0.15, 0.85, l) * low
    return mt_dict(sigma_y, split, np.diag(rng.uniform(1.0, 1.5, l)))


def floor_cov(problem: dict, r) -> np.ndarray:
    """Weighted error-covariance floor of a remote problem at rates r."""
    p = problems.problem_from_dict(problem)
    cov = np.linalg.inv(problems.posterior_precision(p, r))
    return p.gamma @ cov @ p.gamma.T


def region_remote(rng, l: int) -> dict:
    """K=3 remote problem with l encoders and rates, plus a total
    distortion cap 5-60% above the floor trace and per-coordinate caps
    10-100% above the floor diagonal, so both outer levels are feasible."""
    problem = random_remote(rng, 3, l)
    r = rng.uniform(0.0, 2.0, l)
    floor = floor_cov(problem, r)
    d_sum = float(np.trace(floor)) * float(rng.uniform(1.05, 1.6))
    caps = np.diag(floor) * rng.uniform(1.1, 2.0, 3)
    return {"problem": problem, "r": r.tolist(), "d_sum": d_sum, "d": caps.tolist()}


def region_mt(rng, l: int) -> dict:
    """Multiterminal problem with l encoders and rates, for native and
    transformed floors."""
    return {"problem": random_mt(rng, l), "r": rng.uniform(0.0, 2.0, l).tolist()}


def matched_remote(rng, l: int, grid_r: float = 6.4, max_tries: int = 200) -> dict:
    """K=2 remote problem with l encoders and a total distortion at 90% of
    its matching threshold, kept only if the top block of the scan grid is
    feasible (the test suite's filter)."""
    for _ in range(max_tries):
        problem = random_remote(rng, 2, l)
        p = problems.problem_from_dict(problem)
        d = 0.9 * max(matching.threshold_simplified(p), matching.threshold_noise(p))
        if not np.isfinite(d) or d <= 0.0:
            continue
        probe = waterfill.feasible_at_rates(p, SumCrit(d), np.full(l, grid_r))
        if probe.feasible and probe.margin > 1e-6:
            return {"problem": problem, "d_sum": float(d)}
    raise RuntimeError("no feasible matched remote instance found")


def split_certified_mt(rng, l: int, grid_r: float = 6.4, max_tries: int = 2000) -> dict:
    """Near-isotropic multiterminal problem with a positive split threshold
    and a total distortion at 90% of it, kept only if the transformed scan
    grid is feasible at its top rate (the test suite's filter)."""
    for _ in range(max_tries):
        scale = float(rng.uniform(0.8, 1.6))
        w = rng.normal(size=(l, l))
        sigma_y = scale * np.eye(l) + 0.04 * scale * (w + w.T)
        eigs = np.linalg.eigvalsh(sigma_y)
        if eigs[0] <= 0.0:
            continue
        split = float(rng.uniform(0.2, 0.5)) * eigs[0] * rng.uniform(0.95, 1.05, l)
        mp = MultiterminalProblem(sigma_y=sigma_y, split_sigma_n=split, gamma=np.eye(l))
        threshold = sumrate.threshold_split(mp)
        if threshold <= 1e-6:
            continue
        d = 0.9 * threshold
        dual = duality.dual_remote(mp)
        crit = duality.dual_criterion(mp, SumCrit(d))
        probe = waterfill.feasible_at_rates(dual, crit, np.full(l, grid_r))
        if probe.feasible and probe.margin > 1e-6:
            return {"problem": mt_dict(sigma_y, split, np.eye(l)), "d_sum": float(d)}
    raise RuntimeError("no positive-split multiterminal instance found")

