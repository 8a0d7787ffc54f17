import numpy as np
import pytest

from rdregion import matching
from rdregion.errors import DegenerateInput, InvalidInput
from rdregion.problems import RemoteProblem, SumCrit, VectorCrit


def scalar_problem():
    return RemoteProblem(
        sigma_x=np.eye(1), a_mat=np.array([[1.0]]), noise_vars=np.ones(1), gamma=np.eye(1)
    )


def isotropic_pair(gamma_scale=1.0):
    return RemoteProblem(
        sigma_x=np.eye(2),
        a_mat=np.eye(2),
        noise_vars=np.ones(2),
        gamma=gamma_scale * np.eye(2),
    )


def random_remote(rng, k, l):
    m = rng.normal(size=(k, k))
    return RemoteProblem(
        sigma_x=m @ m.T + 0.3 * np.eye(k),
        a_mat=rng.normal(size=(l, k)),
        noise_vars=rng.uniform(0.3, 2.0, size=l),
        gamma=rng.normal(size=(k, k)) + 2.0 * np.eye(k),
    )


class TestWeightedSpectrum:
    def test_scalar_growth(self):
        p = scalar_problem()
        r = 0.7
        alpha = matching.weighted_spectrum(p, [r])
        assert np.isclose(alpha[0], 2.0 - np.exp(-2.0 * r), atol=1e-12)

    def test_limit_spectrum(self):
        assert np.allclose(matching.limit_spectrum(isotropic_pair()), [2.0, 2.0])

    def test_sum_rule(self):
        # the spectrum's total growth along axis l is 2|a_hat_l|^2
        # exp(-2 r_l) / noise_l; checked by central differences
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(10):
            p = random_remote(rng, 2, 3)
            r = rng.uniform(0.2, 1.5, size=3)
            rows = matching.weighted_rows(p)
            for l in range(3):
                up, dn = r.copy(), r.copy()
                up[l] += h
                dn[l] -= h
                diff = matching.weighted_spectrum(p, up) - matching.weighted_spectrum(p, dn)
                got = diff.sum() / (2.0 * h)
                want = 2.0 * rows[l] @ rows[l] * np.exp(-2.0 * r[l]) / p.noise_vars[l]
                assert np.isclose(got, want, rtol=1e-5)

    def test_each_eigenvalue_nondecreasing(self):
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(10):
            p = random_remote(rng, 3, 2)
            r = rng.uniform(0.2, 1.5, size=2)
            for l in range(2):
                up, dn = r.copy(), r.copy()
                up[l] += h
                dn[l] -= h
                diff = matching.weighted_spectrum(p, up) - matching.weighted_spectrum(p, dn)
                assert np.all(diff / (2.0 * h) >= -1e-8)


class TestRotationBound:
    def test_scalar(self):
        assert np.isclose(matching.rotation_bound(scalar_problem(), 0), 0.5)

    def test_isotropic_pair(self):
        p = isotropic_pair()
        for row in range(2):
            assert np.isclose(matching.rotation_bound(p, row), 0.5)

    def test_lower_bound_property(self):
        # every alignment value is at least 1 / a_max
        rng = np.random.default_rng(13)
        for _ in range(15):
            p = random_remote(rng, 2, 3)
            a_max = matching.limit_spectrum(p)[-1]
            for row in range(3):
                assert matching.rotation_bound(p, row) >= 1.0 / a_max - 1e-10

    def test_sampling_only_improves(self):
        rng = np.random.default_rng(14)
        p = random_remote(rng, 3, 2)
        low = matching.rotation_bound(p, 0, samples=2, seed=0)
        high = matching.rotation_bound(p, 0, samples=200, seed=0)
        assert high >= low - 1e-12

    def test_rejects_bad_row(self):
        with pytest.raises(InvalidInput):
            matching.rotation_bound(scalar_problem(), 1)

    def test_rejects_vanishing_row(self):
        p = RemoteProblem(
            sigma_x=np.eye(2),
            a_mat=np.array([[0.0, 0.0], [1.0, 0.0]]),
            noise_vars=np.ones(2),
            gamma=np.eye(2),
        )
        with pytest.raises(DegenerateInput):
            matching.rotation_bound(p, 0)


class TestThresholds:
    def test_scalar_all_agree_at_one(self):
        p = scalar_problem()
        assert np.isclose(matching.threshold_rotation(p), 1.0)
        assert np.isclose(matching.threshold_simplified(p), 1.0)
        assert np.isclose(matching.threshold_noise(p), 1.0)

    def test_isotropic_pair_all_agree(self):
        p = isotropic_pair()
        assert np.isclose(matching.threshold_rotation(p), 1.5)
        assert np.isclose(matching.threshold_simplified(p), 1.5)
        assert np.isclose(matching.threshold_noise(p), 1.5)

    def test_weighted_isotropic_pair(self):
        # gamma = 2I scales the weighted precision by 1/4: a_max = 0.5
        p = isotropic_pair(gamma_scale=2.0)
        assert np.isclose(matching.threshold_simplified(p), 6.0)
        assert np.isclose(matching.threshold_noise(p), 6.0)
        assert np.isclose(matching.threshold_rotation(p), 6.0)

    def test_rotation_at_least_simplified(self):
        # the alignment term never falls below 1 / a_max
        rng = np.random.default_rng(15)
        for _ in range(15):
            p = random_remote(rng, 2, 2)
            assert (
                matching.threshold_rotation(p)
                >= matching.threshold_simplified(p) - 1e-10
            )


class TestMdScan:
    def test_holds_below_threshold(self):
        from rdregion.problems import feasibility

        rng = np.random.default_rng(16)
        done = 0
        while done < 5:
            p = random_remote(rng, 2, 2)
            d = 0.9 * max(matching.threshold_simplified(p), matching.threshold_noise(p))
            if not feasibility(p, SumCrit(d)).feasible:
                continue  # budget below the distortion floor: nothing to scan
            rep = matching.md_scan(p, SumCrit(d), r_max=6.0, points=5)
            assert rep.holds, f"worst={rep.worst}"
            assert rep.pairs > 0
            done += 1

    def test_scalar_always_holds(self):
        rep = matching.md_scan(scalar_problem(), SumCrit(0.8), points=6)
        assert rep.holds

    def test_detects_violation(self):
        # a nearly noiseless direction pins a tiny water level while the
        # other direction's precision grows fast: the scaled level rises
        p = RemoteProblem(
            sigma_x=np.diag([1e-4, 1.0]),
            a_mat=np.array([[0.0, 1.0]]),
            noise_vars=np.array([1.0]),
            gamma=np.eye(2),
        )
        rep = matching.md_scan(p, SumCrit(1.0011), r_max=8.0, points=6)
        assert not rep.holds
        assert rep.worst > 1.0

    def test_skips_infeasible_corner(self):
        # at zero rates the budget is out of reach; the scan starts higher
        p = scalar_problem()
        rep = matching.md_scan(p, SumCrit(0.55), r_max=8.0, points=6)
        assert rep.holds
        assert rep.pairs < 5

    def test_rejects_huge_grid(self):
        p = RemoteProblem(
            sigma_x=np.eye(1),
            a_mat=np.ones((8, 1)),
            noise_vars=np.ones(8),
            gamma=np.eye(1),
        )
        with pytest.raises(InvalidInput):
            matching.md_scan(p, SumCrit(0.9), points=6)

    def test_checks_the_criterion_once(self, monkeypatch):
        # the criterion is fixed for the whole scan, so it is checked at
        # entry and not again at each of the 6^3 grid points
        from rdregion import problems, waterfill

        calls = []
        check = problems.check_criterion

        def counted(criterion, dim):
            calls.append(dim)
            return check(criterion, dim)

        for mod in (problems, waterfill, matching):
            monkeypatch.setattr(mod, "check_criterion", counted, raising=False)
        p = random_remote(np.random.default_rng(17), 2, 3)
        matching.md_scan(p, SumCrit(2.0), points=6)
        assert len(calls) == 1
        with pytest.raises(InvalidInput):
            matching.md_scan(p, VectorCrit([1.0, 1.0, 1.0]), points=2)
