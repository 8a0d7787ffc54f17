import math

import numpy as np
import pytest

from rdregion import linalg, waterfill
from rdregion.errors import InfeasibleBudget, InfeasibleDistortion, InvalidInput
from rdregion.problems import (
    MatrixCrit,
    RemoteProblem,
    SumCrit,
    VectorCrit,
    posterior_precision,
    weighted_error_covariance,
)

from oracles import max_det_ascent, water_level_scan


def scalar_problem():
    return RemoteProblem(
        sigma_x=np.eye(1), a_mat=np.array([[1.0]]), noise_vars=np.ones(1), gamma=np.eye(1)
    )


def random_remote(rng, k, l, gamma=None):
    m = rng.normal(size=(k, k))
    if gamma is None:
        gamma = rng.normal(size=(k, k)) + 2.0 * np.eye(k)
    return RemoteProblem(
        sigma_x=m @ m.T + 0.3 * np.eye(k),
        a_mat=rng.normal(size=(l, k)),
        noise_vars=rng.uniform(0.3, 2.0, size=l),
        gamma=gamma,
    )


def sqrt_sym(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def logdet(m):
    sign, val = np.linalg.slogdet(m)
    assert sign > 0.0
    return float(val)


def assert_not_below_ascent(value, f, caps, offset=None):
    # value: a log-determinant the library reached on this instance; it may
    # not trail the Gram-factor ascent from four starts by more than 1e-9
    # relative
    ref = max_det_ascent(f, caps, offset, starts=4)
    assert value >= ref - 1e-9 * max(1.0, abs(value))


def random_floor(rng, k):
    m = rng.normal(size=(k, k))
    return m @ m.T + 0.2 * np.eye(k)


def dual_value(sol, f, caps, offset):
    # the dual function of max logdet(Z + G) over Z >= F, diag Z <= c,
    # recomputed from the solver's multipliers alone:
    # -logdet S - k + tr(S G) + nu.c - tr(lam F) with S = diag(nu) - lam
    s_mat = np.diag(sol.nu) - sol.lam
    k = f.shape[0]
    return -logdet(s_mat) - k + np.sum(s_mat * offset) + sol.nu @ caps - np.sum(sol.lam * f)


def assert_dual_feasible(sol):
    lam = 0.5 * (sol.lam + sol.lam.T)
    assert np.all(sol.nu >= 0.0)
    assert np.linalg.eigvalsh(lam)[0] >= -1e-12 * max(1.0, np.abs(lam).max())
    assert np.linalg.eigvalsh(np.diag(sol.nu) - lam)[0] > 0.0


def remote_with_floor(rng, f, r):
    # gamma chosen so the weighted error floor at rates r equals f exactly
    k = f.shape[0]
    s = rng.uniform(0.5, 2.0, size=k)
    n = rng.uniform(0.3, 1.5, size=k)
    base = RemoteProblem(sigma_x=np.diag(s), a_mat=np.eye(k), noise_vars=n, gamma=np.eye(k))
    cov = np.linalg.inv(posterior_precision(base, r))
    gamma = sqrt_sym(f) @ np.linalg.inv(sqrt_sym(cov))
    return RemoteProblem(sigma_x=np.diag(s), a_mat=np.eye(k), noise_vars=n, gamma=gamma)


class TestWaterLevel:
    def test_all_floors_below(self):
        wl = waterfill.water_level([1.0, 1.0, 1.0], 6.0)
        assert np.isclose(wl.xi, 2.0)
        assert np.allclose(wl.levels, [2.0, 2.0, 2.0])

    def test_one_floor_stays(self):
        wl = waterfill.water_level([1.0, 4.0], 7.0)
        assert np.isclose(wl.xi, 3.0)
        assert np.allclose(wl.levels, [3.0, 4.0])

    def test_budget_exactly_spent_on_floors(self):
        wl = waterfill.water_level([1.0, 4.0], 5.0)
        assert np.isclose(wl.xi, 1.0)
        assert np.allclose(wl.levels, [1.0, 4.0])

    def test_infeasible_budget_carries_deficit(self):
        with pytest.raises(InfeasibleBudget) as err:
            waterfill.water_level([1.0, 4.0], 4.9)
        assert np.isclose(err.value.deficit, 0.1)

    def test_budget_identity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            floors = rng.uniform(0.1, 3.0, size=rng.integers(1, 6))
            budget = floors.sum() * rng.uniform(1.0, 3.0)
            wl = waterfill.water_level(floors, budget)
            assert np.isclose(wl.levels.sum(), budget, rtol=1e-12)
            assert np.all(wl.levels >= floors - 1e-12)

    def test_one_row_of_the_batched_rule(self):
        # the draws of test_budget_identity_random, each stacked with scaled
        # and shuffled copies and filled at a common budget: every row of
        # the batch has the scalar level's bits, also at budget == total;
        # the breakpoint scan agrees to rounding
        rng = np.random.default_rng(17)
        for _ in range(50):
            floors = rng.uniform(0.1, 3.0, size=rng.integers(1, 6))
            spent = floors.sum() * rng.uniform(1.0, 3.0)
            stack = np.array([floors, 0.5 * floors, rng.permutation(floors)])
            for budget in (spent, stack.sum(axis=1).max()):
                batch = waterfill._water_levels(stack, budget)
                for row, xi in zip(stack, batch):
                    scalar = waterfill.water_level(row, budget).xi
                    assert scalar == xi
                    assert np.isclose(scalar, water_level_scan(row, budget), rtol=1e-12, atol=0.0)

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(InvalidInput):
            waterfill.water_level([1.0, 0.0], 3.0)


class TestMaxDetCapped:
    def test_two_dim_closed_form(self, monkeypatch):
        # with the diagonal pinned at the caps, det = c1*c2 - z12^2 is
        # maximized by the feasible z12 closest to zero; the clip needs no
        # eigendecomposition
        eig_calls = []
        eig_sym = linalg.eig_sym
        monkeypatch.setattr(linalg, "eig_sym", lambda m: eig_calls.append(1) or eig_sym(m))
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = rng.normal(size=(2, 2))
            f = m @ m.T + 0.2 * np.eye(2)
            caps = np.diag(f) + rng.uniform(0.05, 1.0, size=2)
            z = waterfill.max_det_capped(f, caps)
            s = caps - np.diag(f)
            half = np.sqrt(s[0] * s[1])
            z12 = min(max(0.0, f[0, 1] - half), f[0, 1] + half)
            assert np.allclose(np.diag(z), caps, atol=1e-10)
            assert np.isclose(z[0, 1], z12, atol=1e-8)
            assert_not_below_ascent(logdet(z), f, caps)
        assert not eig_calls

    def test_trusted_core_validates_nothing(self, monkeypatch):
        # one k=3 call of the trusted core makes no as_symmetric call, both
        # when the stationarity shortcut returns and when it falls through
        # to the Newton solver
        calls = []
        as_symmetric = linalg.as_symmetric
        monkeypatch.setattr(linalg, "as_symmetric", lambda m: calls.append(1) or as_symmetric(m))
        rng = np.random.default_rng(25)
        f = 0.05 * random_floor(rng, 3)
        g = 0.1 * random_floor(rng, 3)
        stationary = np.diag(f) + np.diag(g) + 1.5
        z = waterfill._max_det_capped(f, stationary, g, stationary - np.diag(f))
        assert np.array_equal(z, np.diag(stationary + np.diag(g)) - g)
        tight = np.diag(f) + np.array([1e-3, 0.5, 0.2])
        z = waterfill._max_det_capped(f, tight, g, tight - np.diag(f))
        assert not np.array_equal(z, np.diag(tight + np.diag(g)) - g)
        assert calls == []

    def test_result_dominates_floor(self):
        rng = np.random.default_rng(24)
        for k in (2, 3, 4, 5, 6, 8):
            for _ in range(5):
                m = rng.normal(size=(k, k))
                f = m @ m.T + 0.2 * np.eye(k)
                caps = np.diag(f) + rng.uniform(0.01, 1.0, size=k)
                z = waterfill.max_det_capped(f, caps)
                assert linalg.min_eig(z - f) >= -1e-10
                assert np.all(np.diag(z) <= caps + 1e-10)
                assert_not_below_ascent(logdet(z), f, caps)

    def test_infeasible_caps(self):
        f = np.array([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(InfeasibleDistortion):
            waterfill.max_det_capped(f, [0.9, 2.0])

    def test_rejects_offset_without_a_definite_base(self):
        # logdet(Z + offset) needs floor + offset > 0 for every feasible Z
        rng = np.random.default_rng(25)
        f = random_floor(rng, 3)
        for g in (-2.0 * f, -np.diag(np.diag(f))):
            with pytest.raises(InvalidInput):
                waterfill.max_det_capped(f, np.diag(f) + 0.5, offset=g)

    def test_loose_caps_reach_diagonal(self):
        # with enough slack the optimum is the diagonal cap matrix itself
        f = np.array([[1.0, 0.5], [0.5, 1.0]])
        z = waterfill.max_det_capped(f, [3.0, 3.0])
        assert np.allclose(z, np.diag([3.0, 3.0]), atol=1e-12)
        assert_not_below_ascent(logdet(z), f, [3.0, 3.0])

    def test_interior_form_with_offset(self):
        # stationary point: (z + offset)^-1 diagonal with the caps binding
        f = np.array([[1.0, 0.2], [0.2, 1.0]])
        g = np.array([[1.0, 0.3], [0.3, 1.0]])
        z = waterfill.max_det_capped(f, [4.0, 4.0], offset=g)
        assert np.allclose(z, [[4.0, -0.3], [-0.3, 4.0]], atol=1e-12)
        assert_not_below_ascent(logdet(z + g), f, [4.0, 4.0], g)

    def test_three_dim_certified(self):
        # instances where single-entry steps used to lock on the cone
        # boundary; the result must match the certified reference
        rng = np.random.default_rng(5)
        for _ in range(6):
            k = int(rng.integers(2, 4))
            m = rng.normal(size=(k, k))
            f = m @ m.T + 0.2 * np.eye(k)
            caps = np.diag(f) * rng.uniform(1.05, 1.8, size=k)
            r = rng.uniform(0.2, 1.0, size=k)
            p = remote_with_floor(rng, f, r)
            theta = waterfill.waterfill_det(p, VectorCrit(caps), r)
            bracket = waterfill.det_oracle(p, VectorCrit(caps), r)
            assert bracket.err <= 1e-8 * max(1.0, bracket.value)
            assert bracket.value - 1e-8 <= theta <= bracket.value + bracket.err + 1e-8
            f_w = waterfill._weighted_floor(p, np.asarray(r))
            assert_not_below_ascent(np.log(bracket.value) + p.logdet_gamma2, f_w, caps)

    def test_offset_changes_optimum(self):
        # a large offset on one coordinate shifts where the determinant
        # gains come from, but the constraints still hold
        f = np.array([[1.0, 0.8], [0.8, 1.0]])
        caps = np.array([2.0, 2.0])
        g = np.diag([10.0, 0.0])
        z = waterfill.max_det_capped(f, caps, offset=g)
        assert linalg.min_eig(z - f) >= -1e-10
        assert np.all(np.diag(z) <= caps + 1e-10)
        assert_not_below_ascent(logdet(z + g), f, caps, g)


# Newton steps per solve on the instances of test_newton_steps_are_pinned
STEPS_PINNED = {3: 42, 5: 52, 8: 66}


class TestMaxDetNewton:
    """The barrier Newton solver behind max_det_capped at k >= 3 and the
    vector branch of det_oracle, and its dual certificate."""

    def test_certificate_recomputed_from_multipliers(self):
        rng = np.random.default_rng(51)
        for k in (2, 3, 4, 5, 8):
            for with_offset in (False, True):
                f = random_floor(rng, k)
                g = random_floor(rng, k) if with_offset else np.zeros((k, k))
                caps = np.diag(f) + rng.uniform(0.01, 1.0, size=k)
                sol = waterfill._max_det_newton(f, g, caps - np.diag(f))
                assert_dual_feasible(sol)
                dual = dual_value(sol, f, caps, g)
                assert np.isclose(dual, sol.dual, rtol=1e-9, atol=1e-9)
                assert sol.logdet == pytest.approx(logdet(sol.z + g), abs=1e-12)
                assert -1e-12 <= sol.dual - sol.logdet <= 1e-9
                assert linalg.min_eig(sol.z - f) >= 0.0
                assert np.allclose(np.diag(sol.z), caps, rtol=1e-15, atol=0.0)
                assert_not_below_ascent(sol.logdet, f, caps, g)

    @pytest.mark.parametrize("k", [3, 5])
    def test_zero_slack_rows_keep_the_floor(self, k):
        rng = np.random.default_rng(52 + k)
        for pinned in ([0], [0, k - 1], list(range(k))):
            f = random_floor(rng, k)
            caps = np.diag(f) + rng.uniform(0.05, 1.0, size=k)
            caps[pinned] = np.diag(f)[pinned]
            sol = waterfill._max_det_newton(f, np.zeros((k, k)), caps - np.diag(f))
            assert np.array_equal(sol.z[pinned], f[pinned])
            assert np.array_equal(sol.z[:, pinned], f[:, pinned])
            assert linalg.min_eig(sol.z - f) >= 0.0
            assert_dual_feasible(sol)
            assert -1e-12 <= sol.dual - sol.logdet <= 1e-9
            assert_not_below_ascent(sol.logdet, f, caps)
            z = waterfill.max_det_capped(f, caps)
            assert logdet(z) >= sol.logdet - 1e-9

    def test_tiny_slack(self):
        rng = np.random.default_rng(55)
        f = random_floor(rng, 4)
        caps = np.diag(f) + np.array([1e-13, 0.5, 0.2, 1e-9])
        sol = waterfill._max_det_newton(f, np.zeros((4, 4)), caps - np.diag(f))
        assert_dual_feasible(sol)
        assert -1e-12 <= sol.dual - sol.logdet <= 1e-9
        assert linalg.min_eig(sol.z - f) >= -1e-15

    def test_closed_forms_inside_the_bracket(self, monkeypatch):
        # the k=2 clip and the stationarity shortcut never reach the solver,
        # and each lands inside the solver's certified bracket
        rng = np.random.default_rng(56)
        solve = waterfill._max_det_newton
        calls = []
        monkeypatch.setattr(waterfill, "_max_det_newton",
                            lambda *a: calls.append(1) or solve(*a))
        cases = []
        for _ in range(10):
            f = random_floor(rng, 2)
            cases.append((f, np.diag(f) + rng.uniform(0.05, 1.0, size=2), np.zeros((2, 2))))
            g = random_floor(rng, 2)
            cases.append((f, np.diag(f) + rng.uniform(0.05, 1.0, size=2), g))
        for k in (3, 4, 6):
            for _ in range(4):
                # caps far above a small floor: diag(caps) - offset dominates it
                f = 0.05 * random_floor(rng, k)
                g = 0.1 * random_floor(rng, k)
                cases.append((f, np.diag(f) + np.diag(g) + rng.uniform(1.0, 2.0, size=k), g))
        for f, caps, g in cases:
            got = logdet(waterfill.max_det_capped(f, caps, offset=g) + g)
            assert not calls
            sol = solve(f, g, caps - np.diag(f))
            assert sol.logdet - 1e-12 <= got <= sol.dual + 1e-12

    def test_newton_steps_are_pinned(self):
        # a work guard in counts, not seconds: Newton steps per solve on
        # fixed instances
        steps = {}
        for k in (3, 5, 8):
            rng = np.random.default_rng(60 + k)
            f = random_floor(rng, k)
            caps = np.diag(f) + rng.uniform(0.01, 1.0, size=k)
            steps[k] = waterfill._max_det_newton(f, np.zeros((k, k)), caps - np.diag(f)).steps
        assert steps == STEPS_PINNED


class TestWaterfillDet:
    def test_scalar_sum(self):
        # floor 2/3 at r = 0.5*ln 2; the cap D = 1 binds
        p = scalar_problem()
        theta = waterfill.waterfill_det(p, SumCrit(1.0), [0.5 * np.log(2.0)])
        assert np.isclose(theta, 1.0, atol=1e-12)

    def test_gamma_scaling(self):
        # doubling gamma scales the weighted floor by 4 and det by 1/4
        rng = np.random.default_rng(31)
        p1 = random_remote(rng, 2, 2, gamma=np.eye(2))
        p2 = RemoteProblem(
            sigma_x=p1.sigma_x, a_mat=p1.a_mat, noise_vars=p1.noise_vars, gamma=2.0 * np.eye(2)
        )
        r = [0.4, 0.9]
        d = 4.0 * np.trace(linalg.inv_sym(posterior_precision(p1, r))) + 1.0
        t1 = waterfill.waterfill_det(p1, SumCrit(d / 4.0), r)
        t2 = waterfill.waterfill_det(p2, SumCrit(d), r)
        assert np.isclose(t2, t1, rtol=1e-10)

    def test_dominates_floor_det(self):
        # the identity covariance M(r)^-1 is always admissible
        rng = np.random.default_rng(32)
        for _ in range(20):
            p = random_remote(rng, 2, 3)
            r = rng.uniform(0.1, 2.0, size=3)
            floor_det = 1.0 / linalg.det_sym(posterior_precision(p, r))
            d = np.trace(p.gamma @ linalg.inv_sym(posterior_precision(p, r)) @ p.gamma.T)
            theta = waterfill.waterfill_det(p, SumCrit(d * rng.uniform(1.0, 2.0)), r)
            assert theta >= floor_det - 1e-12

    def test_nondecreasing_in_rates(self):
        # raising a rate loosens the floor, so the level cannot drop
        rng = np.random.default_rng(33)
        p = random_remote(rng, 2, 2)
        base = np.array([0.3, 0.8])
        d = np.trace(p.gamma @ linalg.inv_sym(posterior_precision(p, base)) @ p.gamma.T) * 1.5
        t0 = waterfill.waterfill_det(p, SumCrit(d), base)
        t1 = waterfill.waterfill_det(p, SumCrit(d), base + [0.5, 0.0])
        assert t1 >= t0 - 1e-12

    def test_vector_matches_sum_when_caps_align(self):
        # per-coordinate caps set at the sum optimum reproduce the sum level
        rng = np.random.default_rng(34)
        for _ in range(10):
            p = random_remote(rng, 2, 2, gamma=np.eye(2))
            r = rng.uniform(0.2, 1.5, size=2)
            f_mat = linalg.inv_sym(posterior_precision(p, r))
            spec = linalg.eig_sym(f_mat)
            d = spec.eigenvalues.sum() * 1.4
            wl = waterfill.water_level(spec.eigenvalues, d)
            # caps in the eigenbasis: rotate the problem so the optimum is diagonal
            rotated = RemoteProblem(
                sigma_x=p.sigma_x,
                a_mat=p.a_mat,
                noise_vars=p.noise_vars,
                gamma=spec.basis.T,
            )
            t_sum = waterfill.waterfill_det(rotated, SumCrit(d), r)
            t_vec = waterfill.waterfill_det(rotated, VectorCrit(wl.levels), r)
            assert np.isclose(t_vec, t_sum, rtol=1e-7)

    def test_vector_tighter_than_sum(self):
        # per-coordinate caps imply the trace cap at their sum, so the
        # vector level can never exceed the sum level
        rng = np.random.default_rng(35)
        for _ in range(10):
            p = random_remote(rng, 3, 3)
            r = rng.uniform(0.1, 1.2, size=3)
            f_mat = p.gamma @ linalg.inv_sym(posterior_precision(p, r)) @ p.gamma.T
            caps = np.diag(f_mat) * rng.uniform(1.05, 2.0, size=3)
            t_vec = waterfill.waterfill_det(p, VectorCrit(caps), r)
            t_sum = waterfill.waterfill_det(p, SumCrit(caps.sum()), r)
            assert t_vec <= t_sum * (1.0 + 1e-10)

    def test_matrix_criterion(self):
        p = scalar_problem()
        r = [0.5 * np.log(2.0)]
        theta = waterfill.waterfill_det(p, MatrixCrit(np.array([[0.9]])), r)
        assert np.isclose(theta, 0.9)
        with pytest.raises(InfeasibleDistortion):
            waterfill.waterfill_det(p, MatrixCrit(np.array([[0.5]])), r)

    def test_sum_infeasible(self):
        p = scalar_problem()
        with pytest.raises(InfeasibleBudget):
            waterfill.waterfill_det(p, SumCrit(0.1), [0.1])

    def test_stacked_levels_equal_per_point_bitwise(self):
        # a stack of rate vectors, as md_scan evaluates it, gives every
        # vector the bits of its own waterfill_det, and NaN where the budget
        # is out of reach
        rng = np.random.default_rng(37)
        seen = []
        for k, l in ((1, 2), (2, 3), (3, 2), (4, 4), (6, 3)):
            p = random_remote(rng, k, l)
            grid = rng.uniform(0.0, 1.0, size=(40, l))
            # between the floor totals at unbounded and at zero rates
            lo = float(np.trace(weighted_error_covariance(p)))
            d = lo + 0.25 * (float(np.trace(p.gamma @ p.sigma_x @ p.gamma.T)) - lo)
            theta, _ = waterfill._sum_levels(p, d, grid)
            for r, got in zip(grid, theta):
                try:
                    want = waterfill.waterfill_det(p, SumCrit(d), r)
                except InfeasibleBudget:
                    want = np.nan
                assert np.array_equal(got, want, equal_nan=True)
            seen.extend(np.isnan(theta))
        assert any(seen) and not all(seen)


class TestDetOracle:
    def test_brackets_waterfill(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = random_remote(rng, 3, 3)
            r = rng.uniform(0.1, 1.5, size=3)
            f_mat = p.gamma @ linalg.inv_sym(posterior_precision(p, r)) @ p.gamma.T
            d = np.trace(f_mat) * rng.uniform(1.05, 2.5)
            theta = waterfill.waterfill_det(p, SumCrit(d), r)
            bracket = waterfill.det_oracle(p, SumCrit(d), r, steps=4000)
            assert bracket.value - 1e-12 <= theta <= bracket.value + bracket.err + 1e-12

    def test_exact_when_level_caps(self):
        # equal floors: the optimum sits at the top of the grid
        p = RemoteProblem(
            sigma_x=np.eye(2),
            a_mat=np.eye(2),
            noise_vars=np.ones(2),
            gamma=np.eye(2),
        )
        r = [0.7, 0.7]
        bracket = waterfill.det_oracle(p, SumCrit(3.0), r, steps=100)
        assert bracket.err == 0.0
        theta = waterfill.waterfill_det(p, SumCrit(3.0), r)
        assert np.isclose(bracket.value, theta, rtol=1e-12)

    def test_vector_brackets_waterfill(self):
        rng = np.random.default_rng(43)
        cases = []
        for _ in range(8):
            p = random_remote(rng, 3, 3)
            r = rng.uniform(0.1, 1.2, size=3)
            f_mat = p.gamma @ linalg.inv_sym(posterior_precision(p, r)) @ p.gamma.T
            caps = np.diag(f_mat) * rng.uniform(1.05, 2.0, size=3)
            cases.append((p, r, caps))
        # five coordinates at zero rates: the floor is sigma_x itself, and
        # the optimum leaves Z - floor with a rank deficit above one
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        f_mat = m @ m.T + 0.2 * np.eye(5)
        caps = np.diag(f_mat) * rng.uniform(1.05, 1.8, size=5)
        p = RemoteProblem(sigma_x=f_mat, a_mat=np.eye(5), noise_vars=np.ones(5), gamma=np.eye(5))
        cases.append((p, np.zeros(5), caps))
        for p, r, caps in cases:
            theta = waterfill.waterfill_det(p, VectorCrit(caps), r)
            bracket = waterfill.det_oracle(p, VectorCrit(caps), r)
            scale = max(1.0, bracket.value)
            assert bracket.err <= 1e-8 * scale
            assert bracket.value - 1e-8 * scale <= theta
            assert theta <= bracket.value + bracket.err + 1e-8 * scale
            f_w = waterfill._weighted_floor(p, np.asarray(r, dtype=float))
            assert_not_below_ascent(np.log(bracket.value) + p.logdet_gamma2, f_w, caps)
            # the bracket is the solver's primal value and its dual bound
            sol = waterfill._max_det_newton(f_w, np.zeros_like(f_w), caps - np.diag(f_w))
            assert bracket.value == math.exp(sol.logdet - p.logdet_gamma2)
            assert np.isclose(bracket.value + bracket.err, np.exp(sol.dual - p.logdet_gamma2),
                              rtol=1e-12, atol=0.0)

    def test_vector_diagonal_closed_form(self):
        # diagonal floor: the capped optimum is the diagonal cap matrix
        p = RemoteProblem(
            sigma_x=np.diag([1.0, 2.0]),
            a_mat=np.eye(2),
            noise_vars=np.array([0.5, 1.0]),
            gamma=np.eye(2),
        )
        r = [0.4, 0.9]
        floor_diag = np.diag(linalg.inv_sym(posterior_precision(p, r)))
        caps = floor_diag * np.array([1.3, 1.7])
        bracket = waterfill.det_oracle(p, VectorCrit(caps), r)
        assert np.isclose(bracket.value, caps.prod(), rtol=1e-9)
        assert bracket.err <= 1e-8 * caps.prod()
        f_w = waterfill._weighted_floor(p, np.asarray(r))
        assert_not_below_ascent(np.log(bracket.value), f_w, caps)

    def test_grid_size_checked_for_sum_only(self):
        # steps counts grid points of the sum scan; other criteria ignore it
        p = RemoteProblem(
            sigma_x=np.diag([1.0, 2.0]), a_mat=np.eye(2), noise_vars=np.ones(2), gamma=np.eye(2)
        )
        r = [0.4, 0.9]
        with pytest.raises(InvalidInput):
            waterfill.det_oracle(p, SumCrit(5.0), r, steps=1)
        vec = waterfill.det_oracle(p, VectorCrit([1.5, 2.5]), r, steps=1)
        assert vec == waterfill.det_oracle(p, VectorCrit([1.5, 2.5]), r)
        mat = waterfill.det_oracle(p, MatrixCrit(np.diag([1.5, 2.5])), r, steps=0)
        assert mat.err == 0.0 and np.isclose(mat.value, 3.75)

    def test_matrix_passthrough(self):
        p = scalar_problem()
        r = [0.5 * np.log(2.0)]
        bracket = waterfill.det_oracle(p, MatrixCrit(np.array([[0.9]])), r)
        assert bracket.err == 0.0
        assert np.isclose(bracket.value, 0.9)
        with pytest.raises(InfeasibleDistortion):
            waterfill.det_oracle(p, MatrixCrit(np.array([[0.5]])), r)


class TestFeasibleAtRates:
    def test_scalar_margins(self):
        p = scalar_problem()
        r = [0.5 * np.log(2.0)]  # floor 2/3
        rep = waterfill.feasible_at_rates(p, SumCrit(1.0), r)
        assert rep.feasible and np.isclose(rep.margin, 1.0 / 3.0)
        rep = waterfill.feasible_at_rates(p, SumCrit(0.5), r)
        assert not rep.feasible and np.isclose(rep.margin, -1.0 / 6.0)

    def test_zero_rates_margin_matches_prior(self):
        p = scalar_problem()
        rep = waterfill.feasible_at_rates(p, SumCrit(1.5), [0.0])
        assert np.isclose(rep.margin, 0.5)
