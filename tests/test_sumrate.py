import math

import numpy as np
import pytest

from rdregion import cyclic, linalg, sumrate, waterfill
from rdregion.errors import (
    InfeasibleDistortion,
    InvalidAuxRate,
    InvalidCorrelation,
    InvalidInput,
    InvalidMatrix,
    InvalidWeights,
)
from rdregion.problems import MultiterminalProblem, mt_posterior_precision

from conftest import tight_split_pair
from oracles import sum_rate_lower_search, trace_converse_objective


def correlated_pair(s1=1.0, s2=1.0, rho=0.5, t1=0.3, t2=0.3):
    sy = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])
    return MultiterminalProblem(
        sigma_y=sy, split_sigma_n=[t1 * s1 * s1, t2 * s2 * s2], gamma=np.eye(2)
    )


def tight_pair(s1, s2, rho):
    # proportional split close to the positive-definite boundary; the
    # converse program is tight at such splits for rho <= 0.9
    t = 0.95 * (1.0 - rho)
    return correlated_pair(s1, s2, rho, t, t)


def diagonal_pair():
    return MultiterminalProblem(
        sigma_y=np.diag([2.0, 3.0]), split_sigma_n=[0.5, 0.5], gamma=np.eye(2)
    )


def matching_set_caps(rng, s1, s2, rho):
    # normalized distortions inside the set where the closed form holds:
    # max(u) <= min(1, rho^2 min(u) + 1 - rho^2)
    u1 = rng.uniform(0.15, 1.0)
    u2 = rng.uniform(u1, min(1.0, rho * rho * u1 + 1.0 - rho * rho))
    if rng.uniform() < 0.5:
        u1, u2 = u2, u1
    return np.array([u1 * s1 * s1, u2 * s2 * s2])


class TestSumRateUpper:
    def test_hand_instance(self):
        # unit variances, rho = 1/2, caps 0.4: the stationarity system gives
        # precision 4/3 per encoder, posterior determinant 3/20, and the
        # value (1/2) ln 5 exactly
        got = sumrate.sum_rate_upper(correlated_pair(), [0.4, 0.4])
        assert np.isclose(got.value, 0.5 * math.log(5.0), atol=1e-11)
        want_rate = 0.5 * math.log1p(0.3 * 4.0 / 3.0)
        assert np.allclose(got.rates, [want_rate, want_rate], atol=1e-9)

    def test_diagonal_separation(self):
        got = sumrate.sum_rate_upper(diagonal_pair(), [0.5, 1.0])
        want = 0.5 * math.log(2.0 / 0.5) + 0.5 * math.log(3.0 / 1.0)
        assert np.isclose(got.value, want, atol=1e-11)

    def test_zero_rate_at_full_variance(self):
        mp = diagonal_pair()
        got = sumrate.sum_rate_upper(mp, np.diag(mp.sigma_y))
        assert got.value == 0.0
        assert np.allclose(got.rates, 0.0, atol=1e-12)

    def test_caps_are_met(self):
        mp = correlated_pair(1.3, 0.8, 0.7, 0.2, 0.25)
        d = np.array([0.4, 0.3])
        got = sumrate.sum_rate_upper(mp, d)
        cov = linalg.inv_sym(mt_posterior_precision(mp, got.rates))
        assert np.all(np.diag(cov) <= d * (1.0 + 1e-9) + 1e-12)

    def test_monotone_in_caps(self):
        mp = correlated_pair(rho=0.6)
        vals = [
            sumrate.sum_rate_upper(mp, [dd, 0.7]).value
            for dd in (0.3, 0.5, 0.8, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_scale_invariance(self):
        mp = correlated_pair(rho=0.4)
        c2 = 7.3
        scaled = MultiterminalProblem(
            sigma_y=c2 * mp.sigma_y,
            split_sigma_n=c2 * mp.split_sigma_n,
            gamma=mp.gamma,
        )
        a = sumrate.sum_rate_upper(mp, [0.4, 0.5])
        b = sumrate.sum_rate_upper(scaled, [c2 * 0.4, c2 * 0.5])
        assert np.isclose(a.value, b.value, atol=1e-10)
        assert np.allclose(a.rates, b.rates, atol=1e-8)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            s1, s2 = rng.uniform(0.6, 2.0, 2)
            rho = rng.uniform(0.05, 0.9)
            d = matching_set_caps(rng, s1, s2, rho)
            mp = tight_pair(s1, s2, rho)
            got = sumrate.sum_rate_upper(mp, d).value
            want = sumrate.twoterm_sum_rate(s1, s2, rho, d[0], d[1])
            assert want.in_d
            assert np.isclose(got, want.value, atol=1e-9)

    def test_validation(self):
        mp = correlated_pair()
        with pytest.raises(InvalidInput):
            sumrate.sum_rate_upper(mp, [0.4])
        with pytest.raises(InvalidInput):
            sumrate.sum_rate_upper(mp, [0.4, math.nan])
        with pytest.raises(InfeasibleDistortion):
            sumrate.sum_rate_upper(mp, [0.4, -0.1])


def unit_rows(l):
    rows = np.zeros((l, l, l))
    rows[np.arange(l), np.arange(l), np.arange(l)] = 1.0
    return rows


def dual_value(mp, rows, rhs, sol):
    # the converse dual function, recomputed from the solver's multipliers
    # after checking that they qualify: Z >= 0 (Loewner), lam >= 0, mu >= 0,
    # c > 0 and C > 0
    l = mp.l
    z = sol.z
    assert np.array_equal(z, z.T)
    assert np.linalg.eigvalsh(z)[0] >= -1e-12 * max(1.0, np.abs(z).max())
    assert np.all(sol.lam >= 0.0) and np.all(sol.mu >= 0.0)
    c = np.diag(z[:l, :l] - z[:l, l:] - z[l:, :l] + z[l:, l:]) + sol.mu
    cmat = np.einsum("j,jab->ab", sol.lam, rows) - z[l:, l:]
    assert np.all(c > 0.0)
    assert np.linalg.eigvalsh(cmat)[0] > 0.0
    b = mp.offset
    return (0.5 * np.sum(1.0 + np.log(2.0 * c)) + 0.5 * l
            + 0.5 * np.linalg.slogdet(2.0 * cmat)[1]
            - np.sum((cmat + z[:l, :l]) * b) - sol.lam @ rhs - sol.mu @ mp.split_sigma_n
            + 0.5 * (np.log(mp.split_sigma_n).sum() + np.linalg.slogdet(mp.sigma_y + b)[1]))


def three_source():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(3, 3))
    sy = m @ m.T + np.eye(3)
    split = 0.5 * np.linalg.eigvalsh(sy)[0] * np.ones(3)
    mp = MultiterminalProblem(sigma_y=sy, split_sigma_n=split, gamma=np.eye(3))
    return mp, 0.4 * np.diag(sy)


# The TestSumRateLower instances, as (problem, caps)
LOWER_CASES = [
    (tight_pair(1.3, 0.8, 0.7), [0.5 * 1.3**2, 0.6 * 0.8**2]),
    (correlated_pair(1.3, 0.8, 0.7, 0.1, 0.1), [0.5 * 1.3**2, 0.6 * 0.8**2]),
    (diagonal_pair(), [0.5, 1.0]),
    (correlated_pair(rho=0.6), [1.5, 1.5]),
    (tight_pair(1.1, 0.9, 0.5), [0.4 * 1.1**2, 0.7 * 0.9**2]),
    (correlated_pair(1.2, 0.9, 0.55, 0.25, 0.3), [0.5, 0.45]),
    (correlated_pair(rho=0.6, t1=0.35, t2=0.3), [0.5, 0.45]),
]


class TestSumRateLower:
    def test_equals_upper_at_tight_split(self):
        mp = tight_pair(1.3, 0.8, 0.7)
        d = [0.5 * 1.3**2, 0.6 * 0.8**2]
        up = sumrate.sum_rate_upper(mp, d)
        lo = sumrate.sum_rate_lower(mp, d)
        assert 0.0 <= up.value - lo.value <= 1e-9

    def test_strictly_below_at_small_split(self):
        # small noise splits leave converse slack; guards that the converse
        # is a genuinely different program from the achievable one
        mp = correlated_pair(1.3, 0.8, 0.7, 0.1, 0.1)
        d = [0.5 * 1.3**2, 0.6 * 0.8**2]
        up = sumrate.sum_rate_upper(mp, d)
        lo = sumrate.sum_rate_lower(mp, d)
        assert up.value - lo.value >= 0.01

    def test_diagonal_collapse(self):
        mp = diagonal_pair()
        d = [0.5, 1.0]
        want = 0.5 * math.log(2.0 / 0.5) + 0.5 * math.log(3.0 / 1.0)
        lo = sumrate.sum_rate_lower(mp, d)
        assert np.isclose(lo.value, want, atol=1e-9)

    def test_zero_at_loose_caps(self):
        mp = correlated_pair(rho=0.6)
        lo = sumrate.sum_rate_lower(mp, 1.5 * np.diag(mp.sigma_y))
        assert lo.value == 0.0

    def test_cov_certificate(self):
        mp = tight_pair(1.1, 0.9, 0.5)
        d = np.array([0.4 * 1.1**2, 0.7 * 0.9**2])
        lo = sumrate.sum_rate_lower(mp, d)
        assert np.all(np.diag(lo.cov) <= d + 1e-9)
        floor = linalg.inv_sym(mt_posterior_precision(mp, lo.rates))
        assert linalg.loewner_leq(floor, lo.cov)

    @pytest.mark.parametrize("case", range(len(LOWER_CASES) + 1))
    def test_not_above_the_search(self, case):
        # the certified value never exceeds the multi-start search, whose
        # local minima can only overstate the converse
        mp, d = LOWER_CASES[case] if case < len(LOWER_CASES) else three_source()
        lo = sumrate.sum_rate_lower(mp, d)
        assert lo.value <= sum_rate_lower_search(mp, d, starts=2 if mp.l == 2 else 1) + 1e-12

    def test_meets_the_search_at_tight_splits(self):
        # on the first test_07 instances the search finds the converse
        # optimum, and the certified value sits within 1e-9 below it
        rng = np.random.default_rng(107)
        for _ in range(10):
            mp, d, _ = tight_split_pair(rng)
            lo = sumrate.sum_rate_lower(mp, d)
            ref = sum_rate_lower_search(mp, d, starts=2)
            assert ref - 1e-9 <= lo.value <= ref + 1e-12

    def test_certificate_recomputed_from_multipliers(self):
        cases = [(mp, unit_rows(mp.l), np.asarray(d, dtype=float)) for mp, d in LOWER_CASES]
        mp3, d3 = three_source()
        cases.append((mp3, unit_rows(3), d3))
        mp = correlated_pair(rho=0.5, t1=0.4, t2=0.4)
        ge = np.diag([1.0, 1.6]) @ mp.gamma
        cases += [(mp, (ge.T @ ge)[None], np.array([dd])) for dd in (0.2, 0.5, 1.0, 5.0)]
        for mp, rows, rhs in cases:
            sol = sumrate._converse(mp, rows, rhs)
            assert np.isclose(dual_value(mp, rows, rhs, sol), sol.value, rtol=0.0, atol=1e-12)
            # the objective at the end point: the certified gap
            primal = sol.rates.sum() + 0.5 * (np.linalg.slogdet(mp.sigma_y + mp.offset)[1]
                                              - np.linalg.slogdet(sol.sigma + mp.offset)[1])
            assert -1e-12 <= primal - sol.value <= 1e-9
            # the end point is strictly feasible: the floor clears every row
            floor = np.linalg.inv(mt_posterior_precision(mp, sol.rates))
            assert np.linalg.eigvalsh(sol.sigma - floor)[0] >= 0.0
            assert np.all(np.einsum("jab,ab->j", rows, sol.sigma) < rhs)

    def test_trace_program_below_the_old_search(self):
        # correlated_pair(rho=0.5, t=0.4) with weights (1, 1.6): the
        # multi-start trace search reported 2.708 / 1.810 / 1.143 at
        # D = 0.2 / 0.5 / 1.0; the certified values are 2.6296 / 1.7178 /
        # 1.0397, and the end rates reproduce them in the water-filled
        # objective
        mp = correlated_pair(rho=0.5, t1=0.4, t2=0.4)
        ge = np.diag([1.0, 1.6]) @ mp.gamma
        got = {}
        for dd in (0.2, 0.5, 1.0):
            sol = sumrate._converse(mp, (ge.T @ ge)[None], np.array([dd]))
            assert abs(trace_converse_objective(mp, ge, dd, sol.rates) - sol.value) <= 1e-9
            got[dd] = sol.value
        assert got[0.5] < 1.81 - 0.05
        assert np.allclose([got[0.2], got[0.5], got[1.0]], [2.629613, 1.717796, 1.039721], atol=1e-6)

    def test_newton_steps_are_pinned(self):
        # a work guard in counts, not seconds: Newton steps per solve
        rng = np.random.default_rng(107)
        mp, d, _ = tight_split_pair(rng)
        steps = [sumrate._converse(mp, unit_rows(2), d).steps]
        sy = np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]) / 3.0
        mp3 = MultiterminalProblem(sigma_y=sy, split_sigma_n=0.1 * np.ones(3), gamma=np.eye(3))
        d_total = cyclic.distortion_at(cyclic.cyclic_instance(sy, epsilon=0.1), 0.4)
        steps.append(sumrate._converse(mp3, unit_rows(3), np.full(3, d_total / 3.0)).steps)
        mp = correlated_pair(rho=0.5, t1=0.4, t2=0.4)
        ge = np.diag([1.0, 1.6]) @ mp.gamma
        steps.append(sumrate._converse(mp, (ge.T @ ge)[None], np.array([0.5])).steps)
        assert steps == CONVERSE_STEPS_PINNED

    def test_no_eigendecomposition(self, monkeypatch):
        # the converse runs on one barrier path: no spectrum through eig_sym,
        # and one capped max-det, for the covariance at the end point
        mp = correlated_pair(rho=0.6, t1=0.35, t2=0.3)
        eig_calls, public, core = [], [], []
        eig_sym = linalg.eig_sym
        monkeypatch.setattr(linalg, "eig_sym", lambda m: eig_calls.append(1) or eig_sym(m))
        wrapped = sumrate.max_det_capped
        monkeypatch.setattr(sumrate, "max_det_capped", lambda *a, **k: public.append(1) or wrapped(*a, **k))
        trusted = waterfill._max_det_capped
        monkeypatch.setattr(waterfill, "_max_det_capped", lambda *a: core.append(1) or trusted(*a))
        lo = sumrate.sum_rate_lower(mp, [0.5, 0.45])
        assert lo.value > 0.0
        assert eig_calls == []
        assert len(public) == 1 and len(core) == 1

    def test_infeasible_caps(self):
        mp = correlated_pair()
        with pytest.raises(InfeasibleDistortion):
            sumrate.sum_rate_lower(mp, [0.4, -0.4])


# Newton steps of the converse solves in test_newton_steps_are_pinned: the
# first test_07 instance, the test_three_encoders instance and a trace row
CONVERSE_STEPS_PINNED = [66, 81, 62]


class TestSumRateBounds:
    def test_container_invariants(self):
        mp = tight_pair(1.0, 1.4, 0.45)
        d = [0.5, 0.9]
        got = sumrate.sum_rate_bounds(mp, d, starts=3)
        assert got.lower <= got.upper + 1e-9
        assert np.isclose(got.gap, got.upper - got.lower, atol=1e-15)
        prec = mt_posterior_precision(mp, got.argmin_r_upper)
        redo = 0.5 * (linalg.logdet_sym(prec) + linalg.logdet_sym(mp.sigma_y))
        assert np.isclose(redo, got.upper, atol=1e-9)
        assert got.argmin_sigma_lower.shape == (2, 2)


class TestThresholds:
    def test_split_threshold_frozen(self):
        mp1 = MultiterminalProblem(
            sigma_y=1.5 * np.eye(2), split_sigma_n=[0.5, 0.5], gamma=np.eye(2)
        )
        mp2 = MultiterminalProblem(
            sigma_y=2.0 * np.eye(2), split_sigma_n=[1.0, 1.0], gamma=np.eye(2)
        )
        # isotropic cases: B = (s + s^2/(sigma^2-s)) I, threshold
        # (L+1) min_eig - trace = s + s^2/(sigma^2-s) at L = 2
        assert np.isclose(sumrate.threshold_split(mp1), 0.75, atol=1e-12)
        assert np.isclose(sumrate.threshold_split(mp2), 2.0, atol=1e-12)

    def test_split_threshold_can_be_negative(self):
        mp = MultiterminalProblem(
            sigma_y=np.diag([1.5, 10.0]), split_sigma_n=[0.5, 0.1], gamma=np.eye(2)
        )
        assert sumrate.threshold_split(mp) < 0.0

    def test_weighted_threshold_frozen(self):
        sy = np.array([[1.5, 0.5], [0.5, 1.5]])  # eigenvalues 1 and 2
        got = sumrate.threshold_weighted(sy, [1.0, 1.0])
        assert np.isclose(got, 2.0 / (3.0 + 2.0 * math.sqrt(2.0)), atol=1e-12)

    def test_weighted_threshold_unbounded_marker(self):
        # equal eigenvalues with unit weights: every distortion level is
        # certified, reported as +inf
        assert sumrate.threshold_weighted(np.eye(2), [1.0, 1.0]) == math.inf

    def test_weighted_threshold_large_weight_limit(self):
        sy = np.array([[1.5, 0.5], [0.5, 1.5]])
        got = sumrate.threshold_weighted(sy, [1.0, 1e9])
        assert np.isclose(got, sumrate.zeta(sy), rtol=1e-9)

    def test_zeta_frozen(self):
        sy = np.array([[1.5, 0.5], [0.5, 1.5]])
        assert np.isclose(sumrate.zeta(sy), 1.0 / (3.0 + 2.0 * math.sqrt(2.0)), atol=1e-12)

    def test_weighted_validation(self):
        sy = np.eye(2)
        with pytest.raises(InvalidWeights):
            sumrate.threshold_weighted(sy, [0.5, 1.0])
        with pytest.raises(InvalidInput):
            sumrate.threshold_weighted(sy, [1.0])
        with pytest.raises(InvalidMatrix):
            sumrate.threshold_weighted(np.diag([1.0, -1.0]), [1.0, 1.0])
        with pytest.raises(InvalidMatrix):
            sumrate.zeta(np.diag([1.0, 0.0]))


class TestTwoTerm:
    def test_hand_value_exact(self):
        got = sumrate.twoterm_sum_rate(1.0, 1.0, 0.5, 0.4, 0.4)
        assert got.in_d
        # x = 25/4, radicand x^2 + c*x = 7225/144, sqrt = 85/12, and
        # (3/8)(25/4 + 85/12) = 5: the value is (1/2) ln 5 exactly
        assert np.isclose(got.value, 0.5 * math.log(5.0), atol=1e-15)

    def test_rho_zero_product_form(self):
        got = sumrate.twoterm_sum_rate(1.2, 0.7, 0.0, 0.5, 0.3)
        want = 0.5 * math.log(1.2**2 / 0.5) + 0.5 * math.log(0.7**2 / 0.3)
        assert np.isclose(got.value, want, atol=1e-12)

    def test_outside_matching_set_flag(self):
        got = sumrate.twoterm_sum_rate(1.0, 1.0, 0.5, 0.9, 0.2)
        assert not got.in_d

    def test_validation(self):
        with pytest.raises(InvalidInput):
            sumrate.twoterm_sum_rate(-1.0, 1.0, 0.5, 0.4, 0.4)
        with pytest.raises(InvalidCorrelation):
            sumrate.twoterm_sum_rate(1.0, 1.0, 1.0, 0.4, 0.4)
        with pytest.raises(InvalidCorrelation):
            sumrate.twoterm_sum_rate(1.0, 1.0, -0.2, 0.4, 0.4)
        with pytest.raises(InvalidInput):
            sumrate.twoterm_sum_rate(1.0, 1.0, 0.5, 0.0, 0.4)

    def test_curve_point_frozen(self):
        # sigma = 1, D = 0.5, rho = 0.8, s = 1/4:
        # R1 = (1/2) log(0.36*2*(1 + 0.64*0.25/0.36)) = (1/2) log 1.04
        got = sumrate.twoterm_curve_point(1.0, 1.0, 0.8, 0.5, which=1, s=0.25)
        assert np.allclose(got, [0.5 * math.log(1.04), 0.5 * math.log(4.0)], atol=1e-12)

    def test_curve_point_endpoint(self):
        got = sumrate.twoterm_curve_point(1.0, 1.0, 0.8, 0.5, which=1, s=1.0)
        assert np.allclose(got, [0.5 * math.log(2.0), 0.0], atol=1e-12)

    def test_curve_point_positive_part(self):
        # small s with (1-rho^2) sigma^2/D < 1 clamps the capped coordinate
        got = sumrate.twoterm_curve_point(1.0, 1.0, 0.8, 0.5, which=1, s=1e-5)
        assert got[0] == 0.0

    def test_curve_point_which_swaps(self):
        a = sumrate.twoterm_curve_point(1.0, 1.0, 0.8, 0.5, which=1, s=0.25)
        b = sumrate.twoterm_curve_point(1.0, 1.0, 0.8, 0.5, which=2, s=0.25)
        assert np.allclose(a, b[::-1], atol=1e-15)

    def test_curve_point_rho_zero(self):
        for s in (0.3, 0.7, 1.0):
            got = sumrate.twoterm_curve_point(1.0, 1.0, 0.0, 0.5, which=1, s=s)
            assert np.isclose(got[0], 0.5 * math.log(2.0), atol=1e-12)

    def test_region_curve_shape(self):
        crv = sumrate.twoterm_region_curve(1.0, 1.0, 0.8, 0.5, which=1, s_samples=7)
        assert len(crv) == 7
        r1 = [p[0] for p in crv]
        r2 = [p[1] for p in crv]
        assert all(a <= b + 1e-12 for a, b in zip(r1, r1[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(r2, r2[1:]))
        assert np.allclose(crv[-1], sumrate.twoterm_curve_point(1.0, 1.0, 0.8, 0.5, which=1, s=1.0))

    def test_curve_validation(self):
        with pytest.raises(InvalidInput):
            sumrate.twoterm_curve_point(1.0, 1.0, 0.8, 0.5, which=3, s=0.5)
        with pytest.raises(InvalidInput):
            sumrate.twoterm_curve_point(1.0, 1.0, 0.8, 0.5, which=1, s=0.0)
        with pytest.raises(InvalidInput):
            sumrate.twoterm_region_curve(1.0, 1.0, 0.8, 0.5, which=1, s_samples=1)


class TestBoundaryBatch:
    def test_empty_grid(self):
        assert sumrate.boundary_batch(correlated_pair(), 1.0, []) == []

    def test_scalar_inversion(self):
        # single encoder: rate (1/2) log(sigma^2/D) inverts to D exactly,
        # scaled by the squared weight
        mp = MultiterminalProblem(
            sigma_y=np.array([[2.0]]), split_sigma_n=[0.8], gamma=np.eye(1)
        )
        budget = 0.5 * math.log(2.0 / 0.5)
        rows = sumrate.boundary_batch(mp, budget, [[1.0], [1.5]], d_iters=36)
        assert np.isclose(rows[0].d_upper, 0.5, atol=1e-6)
        assert np.isclose(rows[0].d_lower, 0.5, atol=1e-8)
        assert np.isclose(rows[1].d_upper, 1.5**2 * 0.5, atol=1e-6)
        assert rows[0].certified  # 0.5 <= zeta = 2.0 at L = 1
        assert not degenerate_row(rows[0])

    def test_zero_budget_full_variance(self):
        mp = MultiterminalProblem(
            sigma_y=np.array([[2.0]]), split_sigma_n=[0.8], gamma=np.eye(1)
        )
        rows = sumrate.boundary_batch(mp, 0.0, [[1.0]], d_iters=30)
        assert np.isclose(rows[0].d_upper, 2.0, atol=1e-6)

    def test_vector_budget_matches_scalar(self):
        mp = MultiterminalProblem(
            sigma_y=np.array([[2.0]]), split_sigma_n=[0.8], gamma=np.eye(1)
        )
        a = sumrate.boundary_batch(mp, 0.7, [[1.0]], d_iters=20)
        b = sumrate.boundary_batch(mp, [0.7], [[1.0]], d_iters=20)
        assert a[0].d_upper == b[0].d_upper

    def test_weighted_pair_ordering(self):
        mp = correlated_pair(rho=0.5, t1=0.4, t2=0.4)
        rows = sumrate.boundary_batch(
            mp, 1.2, [[1.0, 1.6]], starts=1, d_iters=10
        )
        (row,) = rows
        hi = float(np.trace(np.diag([1.0, 1.6]) @ mp.sigma_y @ np.diag([1.0, 1.6])))
        assert 0.0 < row.d_lower <= row.d_upper + 1e-9 <= hi + 1e-6
        assert row.certified == (row.d_upper <= sumrate.zeta(mp.sigma_y))

    def test_validation(self):
        mp = correlated_pair()
        with pytest.raises(InvalidWeights):
            sumrate.boundary_batch(mp, 1.0, [[0.5, 1.0]])
        with pytest.raises(InvalidInput):
            sumrate.boundary_batch(mp, 1.0, [[1.0]])
        with pytest.raises(InvalidAuxRate):
            sumrate.boundary_batch(mp, -1.0, [[1.0, 1.0]])


def degenerate_row(row):
    return not (math.isfinite(row.d_upper) and math.isfinite(row.d_lower))
