import json

import numpy as np
import pytest

from rdregion import duality, problems, waterfill
from rdregion.errors import (
    InvalidAuxRate,
    InvalidInput,
    InvalidMatrix,
    InvalidWeights,
    SingularInput,
    SingularSplit,
)
from rdregion.problems import (
    MatrixCrit,
    MultiterminalProblem,
    RemoteProblem,
    SumCrit,
    VectorCrit,
)


def scalar_problem(sigma_x=1.0, noise=1.0, gamma=1.0):
    return RemoteProblem(
        sigma_x=np.array([[sigma_x]]),
        a_mat=np.array([[1.0]]),
        noise_vars=np.array([noise]),
        gamma=np.array([[gamma]]),
    )


class TestRemoteConstruction:
    def test_scalar_roundtrip(self):
        p = scalar_problem()
        assert p.k == 1 and p.l == 1

    def test_rejects_indefinite_source(self):
        with pytest.raises(InvalidMatrix):
            RemoteProblem(
                sigma_x=np.array([[0.0]]),
                a_mat=np.array([[1.0]]),
                noise_vars=np.array([1.0]),
                gamma=np.array([[1.0]]),
            )

    def test_rejects_negative_noise(self):
        with pytest.raises(InvalidInput):
            RemoteProblem(
                sigma_x=np.eye(1),
                a_mat=np.array([[1.0]]),
                noise_vars=np.array([-1.0]),
                gamma=np.eye(1),
            )

    def test_rejects_singular_gamma(self):
        with pytest.raises(SingularInput):
            RemoteProblem(
                sigma_x=np.eye(2),
                a_mat=np.eye(2),
                noise_vars=np.ones(2),
                gamma=np.array([[1.0, 1.0], [1.0, 1.0]]),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            RemoteProblem(
                sigma_x=np.eye(2),
                a_mat=np.ones((3, 2)),
                noise_vars=np.ones(2),
                gamma=np.eye(2),
            )


    def test_cached_constants_are_read_only(self):
        p = RemoteProblem(
            sigma_x=np.array([[2.0, 0.3], [0.3, 1.0]]),
            a_mat=np.array([[1.0, 0.5]]),
            noise_vars=np.array([0.5]),
            gamma=np.array([[1.0, 0.2], [0.0, 2.0]]),
        )
        assert np.allclose(p.gamma_inv @ p.gamma, np.eye(2), atol=1e-15)
        g_inv = np.linalg.inv(p.gamma)
        w_star = g_inv.T @ (np.linalg.inv(p.sigma_x) + p.a_mat.T @ p.a_mat / 0.5) @ g_inv
        assert np.allclose(p.limit_weighted, w_star, rtol=1e-12)
        assert np.allclose(p.limit_spectrum, np.linalg.eigvalsh(w_star), rtol=1e-12)
        assert p.gamma_inv is p.gamma_inv
        for name in ("gamma_inv", "limit_weighted", "limit_spectrum"):
            with pytest.raises(ValueError):
                getattr(p, name)[0] = 1.0


class TestMultiterminalConstruction:
    def test_valid_split(self):
        p = MultiterminalProblem(
            sigma_y=np.array([[1.0, 0.5], [0.5, 1.0]]),
            split_sigma_n=np.array([0.2, 0.2]),
            gamma=np.eye(2),
        )
        implied = p.implied_sigma_x
        assert np.allclose(implied, [[0.8, 0.5], [0.5, 0.8]])

    def test_rejects_split_destroying_source(self):
        # removing a full unit of variance from a unit-variance coordinate
        with pytest.raises(SingularSplit):
            MultiterminalProblem(
                sigma_y=np.array([[1.0, 0.5], [0.5, 1.0]]),
                split_sigma_n=np.array([1.0, 0.2]),
                gamma=np.eye(2),
            )


class TestRates:
    def test_accepts_zero(self):
        out = problems.as_rates([0.0, 1.5], 2)
        assert np.array_equal(out, [0.0, 1.5])

    def test_rejects_negative(self):
        with pytest.raises(InvalidAuxRate):
            problems.as_rates([-0.1, 1.0], 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidAuxRate):
            problems.as_rates([1.0], 2)

    def test_rejects_nan(self):
        with pytest.raises(InvalidAuxRate):
            problems.as_rates([np.nan, 1.0], 2)


class TestConditionalCovariance:
    def test_scalar(self):
        # unit source, unit noise: posterior variance 1/(1+1) = 1/2
        assert np.isclose(problems.conditional_covariance(scalar_problem())[0, 0], 0.5)

    def test_two_observations_of_scalar(self):
        # two unit-noise looks at a unit source: 1/(1+2) = 1/3
        p = RemoteProblem(
            sigma_x=np.eye(1),
            a_mat=np.array([[1.0], [1.0]]),
            noise_vars=np.ones(2),
            gamma=np.eye(1),
        )
        assert np.isclose(problems.conditional_covariance(p)[0, 0], 1.0 / 3.0)

    def test_zero_observation_matrix(self):
        p = RemoteProblem(
            sigma_x=np.array([[2.0, 0.3], [0.3, 1.0]]),
            a_mat=np.zeros((2, 2)),
            noise_vars=np.ones(2),
            gamma=np.eye(2),
        )
        assert np.allclose(problems.conditional_covariance(p), p.sigma_x, atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k, l = 2, 3
            m = rng.normal(size=(k, k))
            p = RemoteProblem(
                sigma_x=m @ m.T + 0.2 * np.eye(k),
                a_mat=rng.normal(size=(l, k)),
                noise_vars=rng.uniform(0.2, 2.0, size=l),
                gamma=np.eye(k),
            )
            direct = np.linalg.inv(
                np.linalg.inv(p.sigma_x)
                + p.a_mat.T @ np.diag(1.0 / p.noise_vars) @ p.a_mat
            )
            assert np.allclose(problems.conditional_covariance(p), direct, atol=1e-10)


class TestNoisePrecision:
    def test_exact_zero_at_rest(self):
        p = scalar_problem(noise=0.7)
        assert problems.noise_precision(p, [0.0])[0] == 0.0

    def test_limits(self):
        p = scalar_problem(noise=2.0)
        assert np.isclose(problems.noise_precision(p, [50.0])[0], 0.5)

    def test_value(self):
        p = scalar_problem(noise=4.0)
        expected = (1.0 - np.exp(-2.0)) / 4.0
        assert np.isclose(problems.noise_precision(p, [1.0])[0], expected, atol=1e-15)


class TestPosteriorPrecision:
    def test_masking_matches_zero_rate(self):
        rng = np.random.default_rng(9)
        p = RemoteProblem(
            sigma_x=np.array([[1.0, 0.2], [0.2, 1.5]]),
            a_mat=rng.normal(size=(3, 2)),
            noise_vars=np.array([0.5, 1.0, 2.0]),
            gamma=np.eye(2),
        )
        r = np.array([0.7, 1.2, 0.4])
        keep = np.array([True, False, True])
        masked = problems.posterior_precision(p, r, keep=keep)
        silenced = problems.posterior_precision(p, r * keep)
        assert np.allclose(masked, silenced, atol=1e-12)

    def test_all_rates_zero_gives_prior(self):
        p = scalar_problem(sigma_x=2.0)
        assert np.isclose(problems.posterior_precision(p, [0.0])[0, 0], 0.5)


class TestFeasibility:
    def test_sum_margin_positive(self):
        rep = problems.feasibility(scalar_problem(), SumCrit(0.6))
        assert rep.feasible and np.isclose(rep.margin, 0.1)

    def test_sum_margin_zero_is_infeasible(self):
        rep = problems.feasibility(scalar_problem(), SumCrit(0.5))
        assert not rep.feasible and np.isclose(rep.margin, 0.0)

    def test_matrix_margin(self):
        rep = problems.feasibility(scalar_problem(), MatrixCrit(np.array([[0.75]])))
        assert rep.feasible and np.isclose(rep.margin, 0.25)

    def test_vector_margin_uses_weights(self):
        # gamma=2 scales the error variance by 4: floor is 2.0
        rep = problems.feasibility(scalar_problem(gamma=2.0), VectorCrit([2.5]))
        assert rep.feasible and np.isclose(rep.margin, 0.5)


class TestCheckCriterion:
    # every entry point that takes a criterion rejects one that does not
    # fit the problem's dimension, with the same error type
    @pytest.mark.parametrize(
        "crit",
        [VectorCrit([1.0, 1.0]), MatrixCrit(np.eye(2)), 0.5],
        ids=["vector-length", "matrix-shape", "unknown-type"],
    )
    def test_misfit_rejected_everywhere(self, crit):
        p = scalar_problem()
        mp = MultiterminalProblem(
            sigma_y=np.array([[2.0]]), split_sigma_n=np.array([1.0]), gamma=np.eye(1)
        )
        with pytest.raises(InvalidInput):
            problems.check_criterion(crit, 1)
        with pytest.raises(InvalidInput):
            problems.feasibility(p, crit)
        with pytest.raises(InvalidInput):
            waterfill.waterfill_det(p, crit, [0.5])
        with pytest.raises(InvalidInput):
            waterfill.det_oracle(p, crit, [0.5])
        with pytest.raises(InvalidInput):
            duality.dual_criterion(mp, crit)


class TestWeightedSplit:
    def test_recipe(self):
        p = problems.weighted_split_problem(
            sigma_y=np.array([[2.0, 0.5], [0.5, 2.0]]),
            weights=[1.0, 2.0],
            delta=0.4,
        )
        assert np.allclose(p.split_sigma_n, [0.4, 0.1])
        assert np.allclose(p.gamma, np.diag([1.0, 2.0]))

    def test_rejects_small_weights(self):
        with pytest.raises(InvalidWeights):
            problems.weighted_split_problem(np.eye(2), [0.5, 1.0], 0.1)


class TestJsonLoading:
    def test_remote_roundtrip(self, tmp_path):
        doc = {
            "k": 1,
            "l": 2,
            "sigma_x": [[1.0]],
            "a": [[1.0], [1.0]],
            "noise_vars": [1.0, 1.0],
            "gamma": [[1.0]],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        p = problems.load_problem(path)
        assert isinstance(p, RemoteProblem)
        assert p.l == 2

    def test_multiterminal_roundtrip(self, tmp_path):
        doc = {
            "l": 2,
            "sigma_y": [[1.0, 0.5], [0.5, 1.0]],
            "split_sigma_n": [0.2, 0.2],
            "gamma": [[1.0, 0.0], [0.0, 1.0]],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        p = problems.load_problem(path)
        assert isinstance(p, MultiterminalProblem)

    def test_missing_field_is_named(self, tmp_path):
        doc = {"k": 1, "l": 1, "sigma_x": [[1.0]], "noise_vars": [1.0], "gamma": [[1.0]]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInput, match="'a'"):
            problems.load_problem(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"k": 1,\n  "l": }')
        with pytest.raises(InvalidInput, match="line 2"):
            problems.load_problem(path)

    def test_shape_mismatch_is_named(self, tmp_path):
        doc = {
            "k": 2,
            "l": 1,
            "sigma_x": [[1.0]],
            "a": [[1.0, 0.0]],
            "noise_vars": [1.0],
            "gamma": [[1.0, 0.0], [0.0, 1.0]],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInput, match="'sigma_x'"):
            problems.load_problem(path)
