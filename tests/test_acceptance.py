"""Acceptance suite: one test (one pass/fail line under ``pytest -v``) per
top-level behavioral guarantee of the package.

Each test prints a one-line summary with the observed worst case; run
with ``-s`` to see them on passing runs.
"""

import math
import time

import numpy as np

from conftest import (
    matched_remote,
    random_mt,
    random_remote,
    random_spd,
    split_certified_mt,
    tight_split_pair,
)
from rdregion import cyclic, duality, linalg, matching, regions, sumrate, waterfill
from rdregion.problems import (
    MultiterminalProblem,
    SumCrit,
    posterior_precision,
)


def test_01_subset_floors_form_co_polymatroid():
    """Inner-region floors: empty-set zero, monotone, supermodular (1e-9)."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    count = 0
    for _ in range(500):
        p = random_remote(rng, k_max=3, l_max=4)
        r = rng.uniform(0.0, 2.5, p.l)
        region = regions.region_inner(p, r)
        assert region.floor(0) == 0.0
        regions.check_co_polymatroid(region, tol=1e-9)
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"co-polymatroid floors: {count} instances clean in {elapsed:.1f}s")


def _det_sum_grid(floors, budget, steps):
    """Brute-force max of prod(x) over x >= floors, sum(x) <= budget, by
    gridding the slack-allocation simplex; returns (value, spacing)."""
    k = floors.shape[0]
    slack = budget - float(floors.sum())
    h = slack / steps
    grid = np.arange(steps + 1)
    if k == 1:
        return float(floors[0] + slack), h
    if k == 2:
        a = grid * h
        vals = (floors[0] + a) * (floors[1] + (slack - a))
        return float(vals.max()), h
    i, j = np.meshgrid(grid, grid, indexing="ij")
    keep = i + j <= steps
    a, b = i[keep] * h, j[keep] * h
    vals = (floors[0] + a) * (floors[1] + b) * (floors[2] + (slack - a - b))
    return float(vals.max()), h


def test_02_waterfill_matches_grid_oracle():
    """Total-budget determinant level equals a simplex-grid brute force
    within max(1e-6, grid error) on 200 random instances."""
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        p = random_remote(rng, k_max=3, l_max=3, weighted=True)
        r = rng.uniform(0.1, 2.0, p.l)
        floors = np.sort(1.0 / matching.weighted_spectrum(p, r))
        d = float(floors.sum()) * float(rng.uniform(1.05, 2.0))
        theta = waterfill.waterfill_det(p, SumCrit(d), r)
        gamma_det2 = math.exp(2.0 * np.linalg.slogdet(p.gamma)[1])
        theta_w = theta * gamma_det2
        grid_val, h = _det_sum_grid(floors, d, steps=400)
        # the grid scans feasible points, so it can never beat the solver
        assert grid_val <= theta_w * (1.0 + 1e-9) + 1e-12
        tol = max(1e-6, theta_w * -math.expm1(-p.k * h / float(floors.min())))
        diff = abs(theta_w - grid_val)
        worst = max(worst, diff / tol)
        assert diff <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"waterfill vs simplex grid: 200 instances, worst diff at {worst:.2e} of allowance, {elapsed:.1f}s")


def test_03_outer_floors_dominated_by_inner():
    """Converse floors never exceed achievable floors at admissible rates
    (1e-10), and both are exactly zero for subsets held at zero rate."""
    rng = np.random.default_rng(103)
    zero_checks = 0
    for _ in range(500):
        p = random_remote(rng, k_max=3, l_max=4)
        r = rng.uniform(0.0, 2.0, p.l)
        silent = int(rng.integers(0, 1 << p.l))
        for l in range(p.l):
            if silent >> l & 1:
                r[l] = 0.0
        cov = linalg.inv_sym(posterior_precision(p, r))
        bump = float(rng.uniform(0.0, 0.5)) * random_spd(rng, p.k, jitter=0.1)
        theta = linalg.det_sym(linalg.as_symmetric(cov + bump))
        inner = regions.region_inner(p, r)
        outer = regions.region_outer(p, r, theta)
        for mask, val in outer.bounds.items():
            assert val <= inner.bounds[mask] + 1e-10
        if silent:
            assert inner.bounds[silent] == 0.0
            assert outer.bounds[silent] == 0.0
            zero_checks += 1
    print(f"outer <= inner on 500 instances; {zero_checks} exact zero-rate vanishing checks")


def test_04_spectrum_derivative_identities():
    """Weighted-spectrum derivatives: per-eigenvalue slopes stay above
    -1e-8 and their sum matches the closed form to 1e-5 relative."""
    rng = np.random.default_rng(104)
    worst = 0.0
    h = 1e-5
    for _ in range(100):
        p = random_remote(rng, k_max=3, l_max=3, weighted=True)
        r = rng.uniform(0.1, 2.0, p.l)
        rows = matching.weighted_rows(p)
        for l in range(p.l):
            rp, rm = r.copy(), r.copy()
            rp[l] += h
            rm[l] -= h
            deriv = (matching.weighted_spectrum(p, rp) - matching.weighted_spectrum(p, rm)) / (2 * h)
            assert np.all(deriv >= -1e-8)
            total = float(deriv.sum())
            target = 2.0 * float(rows[l] @ rows[l]) * math.exp(-2.0 * r[l]) / p.noise_vars[l]
            rel = abs(total - target) / abs(target)
            worst = max(worst, rel)
            assert rel <= 1e-5
    print(f"spectrum derivative identities: 100 instances, worst relative error {worst:.2e}")


def test_05_native_and_transformed_routes_agree():
    """Multiterminal floors computed natively equal the values routed
    through the dual remote problem (1e-10); membership verdicts agree."""
    rng = np.random.default_rng(105)
    worst = 0.0
    members = 0
    for _ in range(200):
        mp = random_mt(rng, l_max=3, weighted=True)
        r = rng.uniform(0.0, 2.0, mp.l)
        native_in = regions.mt_region_inner(mp, r)
        routed_in = duality.mt_region_inner_transformed(mp, r)
        data = duality.transform_data(mp)
        dual = duality.dual_remote(mp)
        floor_trace = float(np.trace(
            dual.gamma @ linalg.inv_sym(posterior_precision(dual, r)) @ dual.gamma.T
        ))
        d_mt = max(floor_trace * float(rng.uniform(1.05, 1.6)) - data.offset_trace, 0.0)
        d_mt += 0.05 * floor_trace
        crit = SumCrit(d_mt)
        native_out = regions.mt_region_outer(mp, r, duality.mt_det_level(mp, crit, r))
        routed_out = duality.mt_region_outer_transformed(mp, crit, r)
        for mask in native_in.bounds:
            worst = max(worst, abs(native_in.bounds[mask] - routed_in.bounds[mask]))
            worst = max(worst, abs(native_out.bounds[mask] - routed_out.bounds[mask]))
        assert worst <= 1e-10
        scale = max(v for v in native_in.bounds.values()) + 0.2
        for _ in range(50):
            probe = rng.uniform(0.0, scale, mp.l)
            assert native_in.contains(probe) == routed_in.contains(probe)
            assert native_out.contains(probe) == routed_out.contains(probe)
            members += 1
    print(f"dual routes: 200 instances, worst floor gap {worst:.2e}, {members} membership checks")


def test_06_two_source_closed_form():
    """Achievable two-source sum rate matches the closed form within 1e-4
    nats inside its validity set, and within 1e-9 for independent sources."""
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        mp, d_vec, (s1, s2, rho) = tight_split_pair(rng)
        closed = sumrate.twoterm_sum_rate(s1, s2, rho, float(d_vec[0]), float(d_vec[1]))
        assert closed.in_d
        upper = sumrate.sum_rate_upper(mp, d_vec, starts=4, seed=0)
        diff = abs(upper.value - closed.value)
        worst = max(worst, diff)
        assert diff <= 1e-4
    worst_ind = 0.0
    for _ in range(10):
        s1, s2 = (float(v) for v in rng.uniform(0.6, 2.0, 2))
        u = rng.uniform(0.15, 1.0, 2)
        d_vec = u * np.array([s1**2, s2**2])
        mp = MultiterminalProblem(
            sigma_y=np.diag([s1**2, s2**2]),
            split_sigma_n=0.95 * np.array([s1**2, s2**2]),
            gamma=np.eye(2),
        )
        closed = sumrate.twoterm_sum_rate(s1, s2, 0.0, float(d_vec[0]), float(d_vec[1]))
        upper = sumrate.sum_rate_upper(mp, d_vec, starts=4, seed=0)
        diff = abs(upper.value - closed.value)
        worst_ind = max(worst_ind, diff)
        assert diff <= 1e-9
    print(f"two-source closed form: worst gap {worst:.2e} (correlated), {worst_ind:.2e} (independent)")


def test_07_two_encoder_bounds_close(monkeypatch):
    """Converse and achievable sum rates agree within 1e-9 nats on 50
    two-encoder instances with caps inside the closed-form set, and the
    certified converse never exceeds the achievable rate."""
    eig_calls = []
    eig_sym = linalg.eig_sym
    monkeypatch.setattr(linalg, "eig_sym", lambda m: eig_calls.append(1) or eig_sym(m))
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        mp, d_vec, _ = tight_split_pair(rng)
        upper = sumrate.sum_rate_upper(mp, d_vec, starts=2, seed=0)
        lower = sumrate.sum_rate_lower(mp, d_vec)
        assert lower.value <= upper.value
        gap = abs(upper.value - lower.value)
        worst = max(worst, gap)
        assert gap <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    # work guard beside the wall-clock bound: no eigendecomposition at all
    assert eig_calls == []
    print(f"two-encoder bounds: 50 instances, worst gap {worst:.2e} nats in {elapsed:.1f}s")


def test_08_matching_scans_hold_below_thresholds():
    """Monotonicity scans hold at 90% of the matching thresholds: native
    remote scans and transformed multiterminal scans, 6 points per axis."""
    rng = np.random.default_rng(108)
    pairs_remote = 0
    for _ in range(50):
        p, d = matched_remote(rng)
        report = matching.md_scan(p, SumCrit(d), r_max=8.0, points=6, tol=1e-9)
        assert report.holds
        assert report.pairs > 0
        pairs_remote += report.pairs
    rng = np.random.default_rng(109)
    pairs_mt = 0
    for _ in range(50):
        mp, d = split_certified_mt(rng)
        dual = duality.dual_remote(mp)
        crit = duality.dual_criterion(mp, SumCrit(d))
        report = matching.md_scan(dual, crit, r_max=8.0, points=6, tol=1e-9)
        assert report.holds
        assert report.pairs > 0
        pairs_mt += report.pairs
    print(f"matching scans: 50 remote ({pairs_remote} pairs) and 50 transformed ({pairs_mt} pairs) hold")


def _circulant(row):
    row = np.asarray(row, dtype=float)
    n = row.shape[0]
    return np.array([[row[(j - i) % n] for j in range(n)] for i in range(n)])


def test_09_cyclic_curves():
    """Shift-invariant curves: matched-rate equivalence, convex sum-rate
    bound, certified endpoint identity, and the isotropic hand values."""
    ci = cyclic.cyclic_instance(2.0 * np.eye(2), 1.0)
    rs = cyclic.r_star(ci, 1.0)
    assert abs(rs - 0.45815) <= 1e-5
    assert abs(cyclic.rate_at(ci, rs) - 1.38629) <= 1e-5
    rng = np.random.default_rng(110)
    worst_end = 0.0
    worst_second = 0.0
    for _ in range(20):
        m1 = float(rng.uniform(0.5, 1.5))
        m2 = m1 * float(rng.uniform(1.2, 3.0))
        eps = m1 * float(rng.uniform(0.05, 0.2))
        inst = cyclic.cyclic_instance(_circulant([(m1 + m2) / 2.0, (m2 - m1) / 2.0]), eps)
        # matched rate splits feasibility exactly
        d = cyclic.distortion_at(inst, float(rng.uniform(0.1, 1.5)))
        r0 = cyclic.r_star(inst, d)
        for off in (-0.5, -0.1, -1e-4, 1e-4, 0.1, 0.5):
            rr = r0 + off
            if rr < 0.0:
                continue
            assert (cyclic.distortion_at(inst, rr) <= d) == (off >= 0.0)
        # convex objective along the curve
        grid = r0 + np.linspace(0.0, 3.0, 40)
        vals = [cyclic.sum_rate_bound(inst, d, float(rr)) for rr in grid]
        second = np.diff(vals, 2)
        worst_second = min(worst_second, float(second.min()), 0.0)
        assert np.all(second >= -1e-9)
        # the certified start of the curve sits at the threshold distortion
        th = cyclic.thresholds(inst)
        curve = cyclic.parametric_curve(inst, th.s_eps, th.s_eps + 1.0, samples=5)
        end_err = abs(float(curve.distortion[0]) - th.d_th)
        worst_end = max(worst_end, end_err)
        assert end_err <= 1e-9
    print(f"cyclic curves: 20 instances, endpoint error {worst_end:.2e}, min second difference {worst_second:.2e}")


def test_10_test_channel_covariance_monte_carlo():
    """Analytic test-channel error covariance matches a 10^6-sample
    Monte Carlo linear-MMSE estimate within 3 standard errors per entry."""
    start = time.perf_counter()
    rng = np.random.default_rng(112)
    n = 1_000_000
    worst_z = 0.0
    for _ in range(3):
        p = random_remote(rng, k_max=3, l_max=4)
        r = rng.uniform(0.2, 2.0, p.l)
        prec = posterior_precision(p, r)
        cov = linalg.inv_sym(prec)
        lx = np.linalg.cholesky(p.sigma_x)
        x = rng.standard_normal((n, p.k)) @ lx.T
        tn_var = p.noise_vars / (-np.expm1(-2.0 * r))
        u = x @ p.a_mat.T + rng.standard_normal((n, p.l)) * np.sqrt(tn_var)
        gain = np.linalg.solve(prec, (p.a_mat / tn_var[:, None]).T)
        err = x - u @ gain.T
        c_hat = err.T @ err / n
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        z = np.abs(c_hat - cov) / se
        worst_z = max(worst_z, float(z.max()))
        assert np.all(z <= 3.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"test-channel covariance: 3 instances x 1e6 samples, worst entry at {worst_z:.2f} SE, {elapsed:.1f}s")
