import math

import numpy as np
import pytest

from rdregion import cyclic, sumrate
from rdregion.errors import (
    DegenerateInput,
    InfeasibleBudget,
    InvalidInput,
    InvalidMatrix,
)
from rdregion.problems import MultiterminalProblem


def circulant(row):
    row = np.asarray(row, dtype=float)
    n = row.shape[0]
    return np.array([[row[(j - i) % n] for j in range(n)] for i in range(n)])


def hand_instance():
    # two equal eigenvalues mu = (2, 2) with a unit split
    return cyclic.cyclic_instance(2.0 * np.eye(2), epsilon=1.0)


def two_eig_instance(rng):
    m1 = rng.uniform(0.5, 1.5)
    m2 = m1 * rng.uniform(1.2, 3.0)
    eps = m1 * rng.uniform(0.05, 0.2)
    return cyclic.cyclic_instance(
        circulant([(m1 + m2) / 2.0, (m2 - m1) / 2.0]), epsilon=eps
    )


class TestInstance:
    def test_shift_residual(self):
        assert cyclic.shift_residual(circulant([1.5, 0.5])) == 0.0
        assert cyclic.shift_residual(circulant([4 / 3, 1 / 3, 1 / 3])) == 0.0
        skewed = np.array([[1.0, 0.2], [0.2, 2.0]])
        assert np.isclose(cyclic.shift_residual(skewed), 1.0)

    def test_rejects_non_circulant(self):
        with pytest.raises(InvalidInput):
            cyclic.cyclic_instance(np.array([[1.0, 0.2], [0.2, 2.0]]))

    def test_rejects_non_positive_definite(self):
        with pytest.raises(InvalidMatrix):
            cyclic.cyclic_instance(circulant([1.0, 2.0]))

    def test_rejects_split_at_smallest_eigenvalue(self):
        sy = circulant([1.5, 0.5])  # eigenvalues 1, 2
        with pytest.raises(DegenerateInput):
            cyclic.cyclic_instance(sy, epsilon=1.0)
        with pytest.raises(DegenerateInput):
            cyclic.cyclic_instance(sy, epsilon=1.5)

    @pytest.mark.parametrize("eps", [0.0, -0.5, np.inf, np.nan])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(InvalidInput):
            cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=eps)

    def test_default_split_sits_below_smallest_eigenvalue(self):
        ci = cyclic.cyclic_instance(2.0 * np.eye(2))
        assert np.isclose(ci.epsilon, 2.0 * (1.0 - 1e-9), rtol=1e-15)
        assert ci.tr_b > 1e9

    def test_derived_fields(self):
        ci = cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1)
        assert ci.l == 2
        assert np.allclose(ci.mu, [1.0, 2.0])
        assert np.isclose(ci.mu_second, 1.0)
        assert np.isclose(ci.tr_b, 0.1 / 0.9 + 0.2 / 1.9, rtol=1e-14)


class TestBeta:
    def test_zero_rate_collapse(self):
        ci = cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1)
        expect = (1.0 - 0.1 / ci.mu) / ci.mu
        assert np.allclose(cyclic.beta(ci, 0.0), expect, rtol=1e-14)

    def test_large_rate_limit(self):
        ci = cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1)
        expect = (1.0 - 0.1 / ci.mu) / 0.1
        assert np.allclose(cyclic.beta(ci, 50.0), expect, rtol=1e-12)

    def test_hand_value(self):
        ci = hand_instance()
        r = 0.5 * math.log(2.5)
        assert np.allclose(cyclic.beta(ci, r), 0.4, atol=1e-14)

    def test_positive_and_increasing(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            ci = two_eig_instance(rng)
            grid = np.linspace(0.0, 3.0, 40)
            vals = np.array([cyclic.beta(ci, r) for r in grid])
            assert np.all(vals > 0.0)
            assert np.all(np.diff(vals, axis=0) > 0.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(InvalidInput):
            cyclic.beta(hand_instance(), -0.1)


class TestRStar:
    def test_hand_instance(self):
        rs = cyclic.r_star(hand_instance(), 1.0)
        assert np.isclose(rs, 0.5 * math.log(2.5), atol=1e-12)

    def test_zero_for_loose_distortion(self):
        ci = hand_instance()
        assert cyclic.r_star(ci, 4.1) == 0.0

    def test_root_residual(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            ci = two_eig_instance(rng)
            d = rng.uniform(0.05, 0.9) * float(np.trace(ci.sigma_y))
            rs = cyclic.r_star(ci, d)
            budget = d + ci.tr_b
            assert abs(cyclic.floor_total(ci, rs) - budget) <= 1e-10 * budget

    def test_tiny_distortion_needs_large_rate(self):
        ci = cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1)
        rs = cyclic.r_star(ci, 1e-8)
        assert rs > 3.0
        assert np.isclose(cyclic.distortion_at(ci, rs), 1e-8, rtol=1e-6)

    @pytest.mark.parametrize("d", [0.0, -1.0, np.inf])
    def test_rejects_bad_distortion(self, d):
        with pytest.raises(InvalidInput):
            cyclic.r_star(hand_instance(), d)


class TestSumRateBound:
    def test_hand_instance_matched_value(self):
        ci = hand_instance()
        rs = cyclic.r_star(ci, 1.0)
        assert np.isclose(cyclic.sum_rate_bound(ci, 1.0, rs), math.log(4.0), atol=1e-12)
        assert np.isclose(cyclic.rate_at(ci, rs), math.log(4.0), atol=1e-12)

    def test_matches_closed_form_at_matched_rate(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            ci = two_eig_instance(rng)
            d = rng.uniform(0.05, 0.9) * float(np.trace(ci.sigma_y))
            rs = cyclic.r_star(ci, d)
            assert np.isclose(
                cyclic.sum_rate_bound(ci, d, rs), cyclic.rate_at(ci, rs), atol=1e-9
            )

    def test_infeasible_below_matched_rate(self):
        ci = hand_instance()
        rs = cyclic.r_star(ci, 1.0)
        with pytest.raises(InfeasibleBudget):
            cyclic.sum_rate_bound(ci, 1.0, rs - 0.05)

    def test_unit_slope_per_encoder_at_large_rate(self):
        ci = cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1)
        gap = cyclic.sum_rate_bound(ci, 0.5, 7.0) - cyclic.sum_rate_bound(ci, 0.5, 6.0)
        assert np.isclose(gap, ci.l, atol=1e-9)

    def test_minimum_sits_at_matched_rate_below_threshold(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            ci = two_eig_instance(rng)
            d = rng.uniform(0.1, 0.95) * cyclic.thresholds(ci).d_th
            rs = cyclic.r_star(ci, d)
            base = cyclic.sum_rate_bound(ci, d, rs)
            grid = rs + np.linspace(0.0, 2.0, 200)
            vals = [cyclic.sum_rate_bound(ci, d, r) for r in grid]
            assert base <= min(vals) + 1e-9


class TestDetLevel:
    def test_floor_product_at_matched_rate(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            ci = two_eig_instance(rng)
            d = rng.uniform(0.05, 0.9) * float(np.trace(ci.sigma_y))
            rs = cyclic.r_star(ci, d)
            floors = 1.0 / cyclic.beta(ci, rs)
            assert np.isclose(cyclic.det_level(ci, d, rs), floors.prod(), rtol=1e-9)

    def test_log_level_concave_objective_convex(self):
        # the log level product is concave in r, which is exactly what
        # makes the converse objective convex on [r*, r*+3] and pins its
        # minimum at the matched rate when the slope there is nonnegative
        rng = np.random.default_rng(66)
        for _ in range(10):
            ci = two_eig_instance(rng)
            d = rng.uniform(0.1, 0.9) * float(np.trace(ci.sigma_y))
            rs = cyclic.r_star(ci, d)
            grid = rs + np.linspace(0.0, 3.0, 50)
            logs = np.array([math.log(cyclic.det_level(ci, d, r)) for r in grid])
            vals = np.array([cyclic.sum_rate_bound(ci, d, r) for r in grid])
            assert np.all(np.diff(logs, 2) <= 1e-9)
            assert np.all(np.diff(vals, 2) >= -1e-9)


class TestBalancedFeasibility:
    def test_budget_iff_rate_above_matched(self):
        # the balanced rate vector is admissible exactly when the path
        # distortion has dropped to the target
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(20):
            ci = two_eig_instance(rng)
            for _ in range(5):
                d = rng.uniform(0.05, 0.95) * float(np.trace(ci.sigma_y))
                rs = cyclic.r_star(ci, d)
                for off in (1e-4, 0.1, 0.5, 1.0):
                    assert cyclic.distortion_at(ci, rs + off) <= d
                    if rs - off >= 0.0:
                        assert cyclic.distortion_at(ci, rs - off) > d
                    checked += 1
        assert checked >= 100


class TestThresholds:
    def test_hand_instance(self):
        th = cyclic.thresholds(hand_instance())
        assert th.s_eps == 0.0
        assert np.isclose(th.d_th, 4.0, atol=1e-12)

    def test_both_clamps(self):
        # split large enough that both branch arguments go nonpositive
        th = cyclic.thresholds(cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.8))
        assert th.s_eps == 0.0
        assert np.isclose(th.d_th, 3.0, atol=1e-12)

    def test_frozen_two_eigenvalue_split(self):
        th = cyclic.thresholds(cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1))
        assert np.isclose(th.s_eps, 0.5 * math.log(19.0 / 15.0), atol=1e-14)
        assert np.isclose(th.d_th, 123.0 / 209.0, atol=1e-12)

    def test_default_split_covers_full_range(self):
        # with the split at the smallest eigenvalue the certified region
        # reaches the full trace for two-level spectra
        for sy in (circulant([1.5, 0.5]), circulant([4 / 3, 1 / 3, 1 / 3])):
            th = cyclic.thresholds(cyclic.cyclic_instance(sy))
            assert th.s_eps == 0.0
            assert np.isclose(th.d_th, float(np.trace(sy)), rtol=1e-9)

    def test_threshold_distortion_positive(self):
        rng = np.random.default_rng(68)
        for _ in range(20):
            ci = two_eig_instance(rng)
            assert cyclic.thresholds(ci).d_th > 0.0

    def test_matched_rate_value_independent_of_split(self):
        # inside the certified range the matched sum rate is the true
        # optimum, so the split choice cannot move it
        sy = circulant([1.5, 0.5])
        rates = []
        for eps in (0.1, 0.3, 0.5, 1.0 - 1e-9):
            ci = cyclic.cyclic_instance(sy, epsilon=eps)
            assert cyclic.thresholds(ci).d_th >= 0.5
            rates.append(cyclic.rate_at(ci, cyclic.r_star(ci, 0.5)))
        assert np.allclose(rates, rates[0], rtol=1e-9)


class TestDerivativeCondition:
    def test_isotropic_slope_equals_encoder_count(self):
        ci = hand_instance()
        for d in (0.5, 1.0, 3.9):
            rep = cyclic.derivative_condition(ci, d)
            assert rep.satisfied
            assert np.isclose(rep.derivative, 2.0, atol=1e-12)

    def test_satisfied_below_threshold(self):
        rng = np.random.default_rng(69)
        for _ in range(20):
            ci = two_eig_instance(rng)
            d = rng.uniform(0.1, 0.95) * cyclic.thresholds(ci).d_th
            assert cyclic.derivative_condition(ci, d).satisfied

    def test_negative_slope_far_above_threshold(self):
        ci = cyclic.cyclic_instance(circulant([5.5, 4.5]), epsilon=0.3)  # mu = (1, 10)
        d = 2.0 * cyclic.thresholds(ci).d_th
        rep = cyclic.derivative_condition(ci, d)
        assert not rep.satisfied
        assert rep.derivative < -1.0

    @pytest.mark.parametrize(
        "mu2,eps,dfrac",
        [(2.0, 0.1, 0.5), (2.0, 0.1, 3.0), (10.0, 0.3, 2.0), (10.0, 0.6, 1.5)],
    )
    def test_matches_forward_difference(self, mu2, eps, dfrac):
        ci = cyclic.cyclic_instance(
            circulant([(1.0 + mu2) / 2.0, (mu2 - 1.0) / 2.0]), epsilon=eps
        )
        d = dfrac * cyclic.thresholds(ci).d_th
        rep = cyclic.derivative_condition(ci, d)
        rs = cyclic.r_star(ci, d)
        h = 1e-6
        fd = (cyclic.sum_rate_bound(ci, d, rs + h) - cyclic.sum_rate_bound(ci, d, rs)) / h
        assert np.isclose(rep.derivative, fd, rtol=5e-3, atol=1e-4)


class TestParametricCurve:
    def test_hand_point(self):
        ci = hand_instance()
        r0 = 0.5 * math.log(2.5)
        curve = cyclic.parametric_curve(ci, r0, r0 + 0.5, samples=2)
        assert np.isclose(curve.rate[0], math.log(4.0), atol=1e-12)
        assert np.isclose(curve.distortion[0], 1.0, atol=1e-12)
        assert curve.certified[0]

    def test_endpoint_hits_threshold_distortion(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            ci = two_eig_instance(rng)
            th = cyclic.thresholds(ci)
            curve = cyclic.parametric_curve(ci, th.s_eps, th.s_eps + 2.0, samples=20)
            assert np.isclose(curve.distortion[0], th.d_th, atol=1e-12)
            assert np.all(curve.certified)

    def test_monotone(self):
        ci = cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1)
        curve = cyclic.parametric_curve(ci, 0.0, 4.0, samples=80)
        assert np.all(np.diff(curve.rate) > 0.0)
        assert np.all(np.diff(curve.distortion) < 0.0)

    def test_certification_flags(self):
        ci = cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1)
        s_eps = cyclic.thresholds(ci).s_eps
        curve = cyclic.parametric_curve(ci, 0.02, 0.3, samples=25)
        assert np.array_equal(curve.certified, curve.r >= s_eps - 1e-12)
        assert not curve.certified[0]
        assert curve.certified[-1]

    def test_distortion_vanishes_at_large_rate(self):
        ci = cyclic.cyclic_instance(circulant([1.5, 0.5]), epsilon=0.1)
        curve = cyclic.parametric_curve(ci, 0.0, 8.0, samples=10)
        assert curve.distortion[-1] < 1e-5

    def test_validation(self):
        ci = hand_instance()
        with pytest.raises(InvalidInput):
            cyclic.parametric_curve(ci, 0.0, 1.0, samples=1)
        with pytest.raises(InvalidInput):
            cyclic.parametric_curve(ci, -0.1, 1.0)
        with pytest.raises(InvalidInput):
            cyclic.parametric_curve(ci, 0.0, 101.0)
        with pytest.raises(InvalidInput):
            cyclic.parametric_curve(ci, 2.0, 1.0)
        with pytest.raises(InvalidInput):
            cyclic.parametric_curve(ci, 0.0, np.inf)


class TestAgainstSumRatePrograms:
    def test_two_encoders(self):
        sy = circulant([1.5, 0.5])
        ci = cyclic.cyclic_instance(sy, epsilon=0.1)
        r0 = cyclic.thresholds(ci).s_eps + 0.3
        d_total = cyclic.distortion_at(ci, r0)
        rate = cyclic.rate_at(ci, r0)
        mp = MultiterminalProblem(
            sigma_y=sy, split_sigma_n=0.1 * np.ones(2), gamma=np.eye(2)
        )
        caps = np.full(2, d_total / 2.0)
        upper = sumrate.sum_rate_upper(mp, caps, starts=4)
        lower = sumrate.sum_rate_lower(mp, caps)
        assert np.isclose(upper.value, rate, atol=2e-3)
        assert abs(lower.value - rate) <= 1e-8
        assert lower.value <= upper.value

    def test_three_encoders(self):
        sy = circulant([4 / 3, 1 / 3, 1 / 3])  # eigenvalues 1, 1, 2
        ci = cyclic.cyclic_instance(sy, epsilon=0.1)
        r0 = 0.4
        d_total = cyclic.distortion_at(ci, r0)
        assert d_total <= cyclic.thresholds(ci).d_th
        rate = cyclic.rate_at(ci, r0)
        mp = MultiterminalProblem(
            sigma_y=sy, split_sigma_n=0.1 * np.ones(3), gamma=np.eye(3)
        )
        caps = np.full(3, d_total / 3.0)
        upper = sumrate.sum_rate_upper(mp, caps, starts=4)
        lower = sumrate.sum_rate_lower(mp, caps)
        assert np.isclose(upper.value, rate, atol=2e-3)
        assert abs(lower.value - rate) <= 1e-8
        assert lower.value <= upper.value
