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

from oracles import water_level_scan


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
        assert not eig_calls

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

    def test_infeasible_caps(self):
        f = np.array([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(InfeasibleDistortion):
            waterfill.max_det_capped(f, [0.9, 2.0])

    def test_loose_caps_reach_diagonal(self):
        # with enough slack the optimum is the diagonal cap matrix itself
        f = np.array([[1.0, 0.5], [0.5, 1.0]])
        z = waterfill.max_det_capped(f, [3.0, 3.0])
        assert np.allclose(z, np.diag([3.0, 3.0]), atol=1e-12)

    def test_interior_form_with_offset(self):
        # stationary point: (z + offset)^-1 diagonal with the caps binding
        f = np.array([[1.0, 0.2], [0.2, 1.0]])
        g = np.array([[1.0, 0.3], [0.3, 1.0]])
        z = waterfill.max_det_capped(f, [4.0, 4.0], offset=g)
        assert np.allclose(z, [[4.0, -0.3], [-0.3, 4.0]], atol=1e-12)

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
            assert bracket.err <= 1e-6 * max(1.0, bracket.value)
            assert bracket.value - 1e-8 <= theta <= bracket.value + bracket.err + 1e-8

    def test_offset_changes_optimum(self):
        # a large offset on one coordinate shifts where the determinant
        # gains come from, but the constraints still hold
        f = np.array([[1.0, 0.8], [0.8, 1.0]])
        caps = np.array([2.0, 2.0])
        z = waterfill.max_det_capped(f, caps, offset=np.diag([10.0, 0.0]))
        assert linalg.min_eig(z - f) >= -1e-10
        assert np.all(np.diag(z) <= caps + 1e-10)


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
            bracket = waterfill.det_oracle(p, VectorCrit(caps), r, starts=8)
            scale = max(1.0, bracket.value)
            assert bracket.err <= 1e-5 * scale
            assert bracket.value - 1e-8 * scale <= theta
            assert theta <= bracket.value + bracket.err + 1e-8 * scale

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
