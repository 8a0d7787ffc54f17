import json

import numpy as np
import pytest

from rdregion import regions
from rdregion.errors import (
    EmptySubset,
    InvalidInput,
    InvalidTheta,
    InvalidWeights,
    NotSupermodular,
    SubsetExplosion,
)
from rdregion.problems import MultiterminalProblem, RemoteProblem
from rdregion.regions import RegionSpec

from oracles import check_co_polymatroid_loop, min_weighted_sum_lp

HALF_LOG_2 = 0.5 * np.log(2.0)


def scalar_problem():
    return RemoteProblem(
        sigma_x=np.eye(1), a_mat=np.array([[1.0]]), noise_vars=np.ones(1), gamma=np.eye(1)
    )


def two_look_problem():
    return RemoteProblem(
        sigma_x=np.eye(1),
        a_mat=np.array([[1.0], [1.0]]),
        noise_vars=np.ones(2),
        gamma=np.eye(1),
    )


def random_remote(rng, k, l):
    m = rng.normal(size=(k, k))
    g = rng.normal(size=(k, k)) + 2.0 * np.eye(k)
    return RemoteProblem(
        sigma_x=m @ m.T + 0.3 * np.eye(k),
        a_mat=rng.normal(size=(l, k)),
        noise_vars=rng.uniform(0.3, 2.0, size=l),
        gamma=g,
    )


def random_mt(rng, l):
    m = rng.normal(size=(l, l))
    sigma_x = m @ m.T + 0.3 * np.eye(l)
    split = rng.uniform(0.2, 1.0, size=l)
    return MultiterminalProblem(
        sigma_y=sigma_x + np.diag(split), split_sigma_n=split, gamma=np.eye(l)
    )


def dual_remote_of(mp):
    # compressing the observations is the remote problem that estimates Y
    # itself: identity channel, noise equal to the split
    return RemoteProblem(
        sigma_x=mp.implied_sigma_x,
        a_mat=np.eye(mp.l),
        noise_vars=mp.split_sigma_n,
        gamma=np.eye(mp.l),
    )


class TestSubsetHelpers:
    def test_key_padding(self):
        assert regions.subset_key(1, 2) == "0b01"
        assert regions.subset_key(2, 2) == "0b10"
        assert regions.subset_key(3, 2) == "0b11"
        assert regions.subset_key(5, 4) == "0b0101"

    def test_key_roundtrip(self):
        for l in (1, 2, 3, 5):
            for m in regions.subsets(l):
                assert regions.parse_subset_key(regions.subset_key(m, l), l) == m

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            regions.parse_subset_key("0b100", 2)

    def test_subset_sum(self):
        assert regions.subset_sum([1.0, 2.0, 4.0], 0b101) == 5.0


class TestInnerBound:
    def test_scalar_half_log_three(self):
        # unit source/noise at r = 0.5*ln 2: posterior precision 1.5,
        # floor = 0.5*ln 1.5 + 0.5*ln 2 = 0.5*ln 3
        val = regions.rate_bound_inner(scalar_problem(), [HALF_LOG_2], 0b1)
        assert np.isclose(val, 0.5 * np.log(3.0), atol=1e-12)

    def test_two_look_floors(self):
        p = two_look_problem()
        r = [HALF_LOG_2, HALF_LOG_2]
        # full set: 0.5*ln 2 + ln 2; singleton: 0.5*ln(8/3)
        assert np.isclose(regions.rate_bound_inner(p, r, 0b11), 1.5 * np.log(2.0), atol=1e-12)
        assert np.isclose(
            regions.rate_bound_inner(p, r, 0b01), 0.5 * np.log(8.0 / 3.0), atol=1e-12
        )
        assert np.isclose(
            regions.rate_bound_inner(p, r, 0b10), 0.5 * np.log(8.0 / 3.0), atol=1e-12
        )

    def test_vanishes_exactly_at_silent_subset(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_remote(rng, 2, 3)
            r = rng.uniform(0.1, 2.0, size=3)
            mask = int(rng.integers(1, 8))
            r_zeroed = r.copy()
            for i in range(3):
                if mask >> i & 1:
                    r_zeroed[i] = 0.0
            assert regions.rate_bound_inner(p, r_zeroed, mask) == 0.0

    def test_rejects_empty_subset(self):
        with pytest.raises(EmptySubset):
            regions.rate_bound_inner(scalar_problem(), [1.0], 0)


class TestOuterBound:
    def test_matches_inner_at_tight_theta(self):
        # theta at the unconstrained optimum 1/det M(r) makes the floors meet
        rng = np.random.default_rng(33)
        from rdregion import linalg
        from rdregion.problems import posterior_precision

        for _ in range(20):
            p = random_remote(rng, 2, 2)
            r = rng.uniform(0.1, 1.5, size=2)
            theta = 1.0 / linalg.det_sym(posterior_precision(p, r))
            for mask in regions.subsets(2):
                inner = regions.rate_bound_inner(p, r, mask)
                outer = regions.rate_bound_outer(p, r, mask, theta)
                assert np.isclose(inner, outer, atol=1e-10)

    def test_never_exceeds_inner(self):
        rng = np.random.default_rng(34)
        from rdregion import linalg
        from rdregion.problems import posterior_precision

        for _ in range(30):
            p = random_remote(rng, 2, 3)
            r = rng.uniform(0.0, 2.0, size=3)
            theta = rng.uniform(1.0, 5.0) / linalg.det_sym(posterior_precision(p, r))
            for mask in regions.subsets(3):
                inner = regions.rate_bound_inner(p, r, mask)
                outer = regions.rate_bound_outer(p, r, mask, theta)
                assert outer <= inner + 1e-10
                assert outer >= 0.0

    def test_clamps_to_zero(self):
        # enormous theta drives the raw value negative; the floor stays 0.0
        assert regions.rate_bound_outer(scalar_problem(), [0.5], 0b1, 1e6) == 0.0

    def test_rejects_bad_theta(self):
        with pytest.raises(InvalidTheta):
            regions.rate_bound_outer(scalar_problem(), [0.5], 0b1, 0.0)
        with pytest.raises(InvalidTheta):
            regions.rate_bound_outer(scalar_problem(), [0.5], 0b1, np.inf)


class TestRegionSpec:
    def test_builder_and_contains(self):
        p = two_look_problem()
        r = [HALF_LOG_2, HALF_LOG_2]
        spec = regions.region_inner(p, r)
        assert spec.kind == "inner"
        assert set(spec.bounds) == {1, 2, 3}
        # the greedy vertex itself must be a member
        rates, _ = regions.min_weighted_sum(spec, [1.0, 1.0])
        assert spec.contains(rates)
        assert not spec.contains([0.0, 0.0])

    def test_serialization_roundtrip(self):
        spec = RegionSpec(l=2, kind="inner", bounds={1: 0.5, 2: 0.25, 3: 1.0})
        doc = spec.to_dict()
        assert list(doc["bounds"]) == ["0b01", "0b10", "0b11"]
        back = RegionSpec.from_dict(json.loads(json.dumps(doc)))
        assert back == spec

    def test_incomplete_region_rejected(self):
        with pytest.raises(InvalidInput, match="one floor per nonempty subset"):
            RegionSpec.from_dict({"l": 2, "kind": "inner", "bounds": {"0b01": 0.5, "0b11": 1.0}})
        with pytest.raises(InvalidInput, match="one floor per nonempty subset"):
            RegionSpec(l=3, kind="inner", bounds={1: 0.5, 2: 0.5, 3: 1.0})

    @pytest.mark.parametrize("l", [1, 2, 5, 12])
    def test_to_dict_keys_are_subset_keys(self, l):
        spec = RegionSpec(l=l, kind="inner", bounds={m: float(m) for m in regions.subsets(l)})
        doc = spec.to_dict()["bounds"]
        assert list(doc) == [regions.subset_key(m, l) for m in regions.subsets(l)]
        assert list(doc.values()) == [float(m) for m in regions.subsets(l)]

    def test_to_dict_keys_follow_masks_not_insertion_order(self):
        spec = RegionSpec(l=2, kind="outer", bounds={3: 1.0, 2: 0.25, 1: 0.5})
        assert list(spec.to_dict()["bounds"].items()) == [("0b01", 0.5), ("0b10", 0.25), ("0b11", 1.0)]

    def test_enumeration_cap(self):
        rng = np.random.default_rng(1)
        p = RemoteProblem(
            sigma_x=np.eye(1),
            a_mat=np.ones((13, 1)),
            noise_vars=np.ones(13),
            gamma=np.eye(1),
        )
        with pytest.raises(SubsetExplosion):
            regions.region_inner(p, np.full(13, 0.5))


class TestCoPolymatroid:
    def test_random_inner_regions_pass(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            p = random_remote(rng, 2, 3)
            spec = regions.region_inner(p, rng.uniform(0.0, 2.0, size=3))
            regions.check_co_polymatroid(spec)

    def test_detects_violation(self):
        bad = RegionSpec(l=2, kind="inner", bounds={1: 1.0, 2: 1.0, 3: 1.5})
        with pytest.raises(NotSupermodular):
            regions.check_co_polymatroid(bad)

    def test_detects_monotonicity_violation(self):
        bad = RegionSpec(l=2, kind="inner", bounds={1: 1.0, 2: 0.5, 3: 0.8})
        with pytest.raises(NotSupermodular):
            regions.check_co_polymatroid(bad)


def _verdict(check, spec):
    try:
        check(spec)
    except NotSupermodular as exc:
        return str(exc)
    return None


class TestCoPolymatroidMatchesLoop:
    """The array check reports the same first violation, with the same
    message, as the subset-by-subset loop of the oracle."""

    @pytest.mark.parametrize("l", range(2, 11))
    def test_valid_and_perturbed_regions(self, l):
        rng = np.random.default_rng(90 + l)
        seen = set()
        for trial in range(6):
            p = random_remote(rng, int(rng.integers(1, 4)), l)
            spec = regions.region_inner(p, rng.uniform(0.0, 1.5, size=l))
            assert _verdict(regions.check_co_polymatroid, spec) is None
            assert _verdict(check_co_polymatroid_loop, spec) is None
            for _ in range(4):
                bounds = dict(spec.bounds)
                for mask in rng.choice(np.arange(1, 1 << l), size=int(rng.integers(1, 4))):
                    bounds[int(mask)] += float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-9, 0.5))
                if trial == 0:
                    bounds[int(rng.integers(1, 1 << l))] = -1e-3
                bad = RegionSpec(l=l, kind="inner", bounds=bounds)
                want = _verdict(check_co_polymatroid_loop, bad)
                assert _verdict(regions.check_co_polymatroid, bad) == want
                seen.add(None if want is None else want.split(" ")[0])
        assert {"floor", "supermodularity"} <= seen

    @pytest.mark.parametrize("bounds", [{1: 0.3}, {1: -0.1}])
    def test_single_encoder(self, bounds):
        spec = RegionSpec(l=1, kind="inner", bounds=bounds)
        assert _verdict(regions.check_co_polymatroid, spec) == _verdict(check_co_polymatroid_loop, spec)

    def test_largest_enumerable_region(self):
        rng = np.random.default_rng(112)
        spec = regions.region_inner(random_remote(rng, 3, 12), rng.uniform(0.0, 1.5, size=12))
        bounds = dict(spec.bounds)
        bounds[0b101100111010] -= 0.05
        bad = RegionSpec(l=12, kind="inner", bounds=bounds)
        for region in (spec, bad):
            want = _verdict(check_co_polymatroid_loop, region)
            assert _verdict(regions.check_co_polymatroid, region) == want
        assert want is not None

    def test_first_negative_in_bounds_order(self):
        bounds = {3: -0.5, 1: 0.2, 2: -0.1}
        spec = RegionSpec(l=2, kind="inner", bounds=bounds)
        msg = _verdict(regions.check_co_polymatroid, spec)
        assert msg == _verdict(check_co_polymatroid_loop, spec)
        assert msg == "floor of subset 0b11 is negative: -0.5"

    def test_monotonicity_before_pairs_at_the_same_subset(self):
        # with a wide tol, adding encoder 2 to {1} drops the floor and the
        # pair 2,3 breaks supermodularity at {1}: the drop comes first
        spec = RegionSpec(l=3, kind="inner", bounds={
            1: 1.0, 2: -0.05, 3: 0.88, 4: 0.0, 5: 1.0, 6: 0.0, 7: 0.5,
        })
        msg = _verdict(lambda s: regions.check_co_polymatroid(s, tol=0.1), spec)
        assert msg == _verdict(lambda s: check_co_polymatroid_loop(s, tol=0.1), spec)
        assert msg == "floor drops when adding encoder 2 to 0b1"

    def test_pair_message_carries_both_sides(self):
        spec = RegionSpec(l=3, kind="inner", bounds={1: 1.0, 2: 1.0, 3: 1.5, 4: 1.0, 5: 2.5, 6: 2.5, 7: 4.0})
        msg = _verdict(regions.check_co_polymatroid, spec)
        assert msg == _verdict(check_co_polymatroid_loop, spec)
        assert msg == "supermodularity fails at 0b0 with encoders 1,2: 1.5 < 2.0"


class TestGreedy:
    def test_hand_vertex(self):
        spec = RegionSpec(l=2, kind="inner", bounds={1: 1.0, 2: 2.0, 3: 4.0})
        rates, val = regions.min_weighted_sum(spec, [1.0, 2.0])
        assert np.allclose(rates, [2.0, 2.0])
        assert np.isclose(val, 6.0)
        rates, val = regions.min_weighted_sum(spec, [2.0, 1.0])
        assert np.allclose(rates, [1.0, 3.0])
        assert np.isclose(val, 5.0)

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_matches_vertex_enumeration(self, l):
        rng = np.random.default_rng(60 + l)
        for _ in range(10):
            p = random_remote(rng, 2, l)
            spec = regions.region_inner(p, rng.uniform(0.0, 1.5, size=l))
            w = rng.uniform(0.0, 3.0, size=l)
            _, val = regions.min_weighted_sum(spec, w)
            ref = min_weighted_sum_lp(spec.bounds, l, w)
            assert np.isclose(val, ref, atol=1e-9)

    def test_rejects_negative_weights(self):
        spec = RegionSpec(l=2, kind="inner", bounds={1: 1.0, 2: 1.0, 3: 2.5})
        with pytest.raises(InvalidWeights):
            regions.min_weighted_sum(spec, [-1.0, 1.0])


class TestNativeMultiterminal:
    def test_inner_matches_dual_remote(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            mp = random_mt(rng, 3)
            dual = dual_remote_of(mp)
            r = rng.uniform(0.0, 2.0, size=3)
            for mask in regions.subsets(3):
                native = regions.mt_rate_bound_inner(mp, r, mask)
                via_remote = regions.rate_bound_inner(dual, r, mask)
                assert np.isclose(native, via_remote, atol=1e-10)

    def test_inner_vanishes_at_silent_subset(self):
        rng = np.random.default_rng(71)
        mp = random_mt(rng, 2)
        assert regions.mt_rate_bound_inner(mp, [0.0, 1.3], 0b01) == 0.0

    def test_outer_matches_dual_remote(self):
        # the offset determinant level theta_tilde = theta / det(estimator)^2
        rng = np.random.default_rng(72)
        from rdregion import linalg
        from rdregion.problems import posterior_precision

        for _ in range(20):
            mp = random_mt(rng, 2)
            dual = dual_remote_of(mp)
            r = rng.uniform(0.1, 2.0, size=2)
            theta = rng.uniform(1.0, 4.0) / linalg.det_sym(posterior_precision(dual, r))
            est = mp.implied_sigma_x @ np.linalg.inv(mp.sigma_y)
            theta_tilde = theta / np.linalg.det(est) ** 2
            for mask in regions.subsets(2):
                native = regions.mt_rate_bound_outer(mp, r, mask, theta_tilde)
                via_remote = regions.rate_bound_outer(dual, r, mask, theta)
                assert np.isclose(native, via_remote, atol=1e-10)

    def test_region_builders(self):
        rng = np.random.default_rng(73)
        mp = random_mt(rng, 2)
        spec = regions.mt_region_inner(mp, [0.5, 0.5])
        assert spec.kind == "inner" and len(spec.bounds) == 3
        regions.check_co_polymatroid(spec)

    def test_outer_region_inverts_constants_once(self, monkeypatch):
        # B and Sigma_Y^-1 are cached on the problem: one inverse each for
        # the whole L=6 enumeration, one stacked log-determinant call for all
        # 63 subsets plus the two constant ones
        from rdregion import linalg

        rng = np.random.default_rng(74)
        mp = random_mt(rng, 6)
        calls = {name: 0 for name in ("inv_sym", "inv_pd", "logdet_sym", "logdet_pd")}
        for name in calls:
            fn = getattr(linalg, name)

            def counted(m, name=name, fn=fn):
                calls[name] += 1
                return fn(m)

            monkeypatch.setattr(linalg, name, counted)
        spec = regions.mt_region_outer(mp, rng.uniform(0.1, 2.0, size=6), 0.05)
        assert len(spec.bounds) == 63
        assert calls == {"inv_sym": 0, "inv_pd": 2, "logdet_sym": 0, "logdet_pd": 1 + 2}


class TestOnePath:
    # a rate_bound_* call is the one-mask case of its region's stacked
    # evaluation, so the two agree to the last bit
    def test_remote_bounds_equal_region_floors(self):
        rng = np.random.default_rng(80)
        for _ in range(12):
            k, l = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            p = random_remote(rng, k, l)
            r = rng.uniform(0.0, 2.0, size=l)
            r[rng.random(l) < 0.3] = 0.0
            theta = float(rng.uniform(0.01, 3.0))
            inner = regions.region_inner(p, r).bounds
            outer = regions.region_outer(p, r, theta).bounds
            for m in regions.subsets(l):
                assert regions.rate_bound_inner(p, r, m) == inner[m]
                assert regions.rate_bound_outer(p, r, m, theta) == outer[m]

    def test_mt_bounds_equal_region_floors(self):
        rng = np.random.default_rng(81)
        for _ in range(12):
            l = int(rng.integers(1, 7))
            mp = random_mt(rng, l)
            r = rng.uniform(0.0, 2.0, size=l)
            r[rng.random(l) < 0.3] = 0.0
            theta = float(rng.uniform(0.001, 0.5))
            inner = regions.mt_region_inner(mp, r).bounds
            outer = regions.mt_region_outer(mp, r, theta).bounds
            for m in regions.subsets(l):
                assert regions.mt_rate_bound_inner(mp, r, m) == inner[m]
                assert regions.mt_rate_bound_outer(mp, r, m, theta) == outer[m]

    def test_silent_subsets_exactly_zero_at_l10(self):
        # encoders 2, 5, 6 and 9 are silent; every nonempty subset of them
        # has a zero floor
        rng = np.random.default_rng(82)
        r = rng.uniform(0.1, 2.0, size=10)
        r[[1, 4, 5, 8]] = 0.0
        silent = 0b0100110010
        quiet = [m for m in regions.subsets(10) if m & silent == m]
        inner = regions.region_inner(random_remote(rng, 3, 10), r).bounds
        mt_inner = regions.mt_region_inner(random_mt(rng, 10), r).bounds
        assert len(quiet) == 15
        for m in quiet:
            assert inner[m] == 0.0
            assert mt_inner[m] == 0.0

    @pytest.mark.parametrize("builder", ["region_inner", "region_outer", "mt_region_inner"])
    def test_one_logdet_call_per_region(self, builder, monkeypatch):
        # all 255 subsets of an L=8 region share one stacked factorization
        from rdregion import linalg

        rng = np.random.default_rng(83)
        r = rng.uniform(0.1, 2.0, size=8)
        calls = []
        logdet_pd = linalg.logdet_pd
        monkeypatch.setattr(linalg, "logdet_pd", lambda a: calls.append(1) or logdet_pd(a))
        if builder == "region_inner":
            spec = regions.region_inner(random_remote(rng, 3, 8), r)
        elif builder == "region_outer":
            spec = regions.region_outer(random_remote(rng, 3, 8), r, 0.5)
        else:
            spec = regions.mt_region_inner(random_mt(rng, 8), r)
        assert len(spec.bounds) == 255
        assert len(calls) == 1
