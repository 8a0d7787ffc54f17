import numpy as np
import pytest

from rdregion import linalg
from rdregion.errors import DegenerateInput, DimMismatch, InvalidMatrix, SingularInput


def random_symmetric(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return 0.5 * (m + m.T)


def random_spd(rng, n, shift=0.1):
    m = rng.normal(size=(n, n))
    return m @ m.T + shift * np.eye(n)


class TestAsSymmetric:
    def test_accepts_and_symmetrizes(self):
        m = np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]])
        out = linalg.as_symmetric(m)
        assert np.array_equal(out, out.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            linalg.as_symmetric(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrix):
            linalg.as_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            linalg.as_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestEigSym:
    def test_two_by_two_exact(self):
        # eigenpairs of [[2,1],[1,2]]: (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
        spec = linalg.eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(spec.basis[:, 0], [s, -s], atol=1e-12)
        assert np.allclose(spec.basis[:, 1], [s, s], atol=1e-12)

    def test_diagonal_passthrough(self):
        spec = linalg.eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
        assert np.allclose(np.abs(spec.basis), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            m = random_symmetric(rng, n, scale=2.0)
            spec = linalg.eig_sym(m)
            ref = np.linalg.eigvalsh(m)
            assert np.allclose(spec.eigenvalues, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_basis_orthonormal_and_reconstructs(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(20):
            m = random_symmetric(rng, n)
            spec = linalg.eig_sym(m)
            assert np.allclose(spec.basis.T @ spec.basis, np.eye(n), atol=1e-10)
            err = np.abs(spec.reconstruct() - m).max()
            assert err <= 1e-9 * max(1.0, np.abs(m).max())

    def test_repeated_eigenvalues(self):
        # identity block plus rank-one bump keeps a two-fold eigenvalue
        m = np.eye(3)
        m[0, 0] = 4.0
        spec = linalg.eig_sym(m)
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 4.0], atol=1e-12)
        assert np.allclose(spec.basis.T @ spec.basis, np.eye(3), atol=1e-12)

    def test_sign_convention(self):
        # first nonzero component of every column is positive
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = linalg.eig_sym(random_symmetric(rng, 4))
            for j in range(4):
                col = spec.basis[:, j]
                lead = col[np.abs(col) > 1e-12][0]
                assert lead > 0.0

    def test_lapack_failure_is_invalid_matrix(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(InvalidMatrix, match="failed to converge"):
            linalg.eig_sym(np.eye(2))


class TestDeterminants:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_det_matches_numpy(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(10):
            m = random_symmetric(rng, n)
            assert np.isclose(linalg.det_sym(m), np.linalg.det(m), rtol=1e-9, atol=1e-12)

    def test_logdet_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_spd(rng, 4)
            _, ref = np.linalg.slogdet(m)
            assert np.isclose(linalg.logdet_sym(m), ref, rtol=1e-9, atol=1e-11)

    def test_logdet_rejects_indefinite(self):
        with pytest.raises(SingularInput):
            linalg.logdet_sym(np.diag([1.0, -2.0]))


class TestInverse:
    def test_matches_numpy(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = random_spd(rng, 5)
            assert np.allclose(linalg.inv_sym(m), np.linalg.inv(m), atol=1e-9)

    def test_rejects_singular(self):
        with pytest.raises(SingularInput):
            linalg.inv_sym(np.diag([1.0, 0.0]))

    def test_rejects_indefinite(self):
        # the contract is "symmetric positive definite"
        with pytest.raises(SingularInput):
            linalg.inv_sym(np.diag([1.0, -2.0]))

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 6, 12):
            inv = linalg.inv_sym(random_spd(rng, n))
            assert np.array_equal(inv, inv.T)


class TestPivotGuard:
    NUMERICALLY_SINGULAR = [
        np.diag([1.0, 1e-15]),
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
    ]

    @pytest.mark.parametrize("fn", ["inv_sym", "logdet_sym", "inv_pd", "logdet_pd"])
    @pytest.mark.parametrize("case", [0, 1])
    def test_numerically_singular_pd_rejected(self, fn, case):
        with pytest.raises(SingularInput):
            getattr(linalg, fn)(self.NUMERICALLY_SINGULAR[case])

    def test_kernels_agree_with_validating_entries(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 5):
            m = random_spd(rng, n)
            assert np.array_equal(linalg.inv_pd(m), linalg.inv_sym(m))
            assert linalg.logdet_pd(m) == linalg.logdet_sym(m)


class TestStackedLogdet:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
    def test_stack_matches_per_matrix_bitwise(self, n):
        rng = np.random.default_rng(23 + n)
        stack = np.array([random_spd(rng, n) for _ in range(40)])
        got = linalg.logdet_pd(stack)
        assert got.shape == (40,)
        assert got.tolist() == [linalg.logdet_pd(a) for a in stack]

    @pytest.mark.parametrize("case", [0, 1])
    def test_pivot_guard_applies_to_every_member(self, case):
        rng = np.random.default_rng(29)
        stack = np.array([random_spd(rng, 2) for _ in range(5)])
        stack[3] = TestPivotGuard.NUMERICALLY_SINGULAR[case]
        with pytest.raises(SingularInput):
            linalg.logdet_pd(stack)

    def test_single_matrix_gives_python_float(self):
        assert type(linalg.logdet_pd(np.diag([2.0, 3.0]))) is float


class TestLoewner:
    def test_ordering_holds(self):
        a = np.eye(2)
        b = np.array([[2.0, 0.5], [0.5, 2.0]])
        assert linalg.loewner_leq(a, b)
        assert not linalg.loewner_leq(b, a)

    def test_equality_passes_within_tolerance(self):
        a = np.array([[1.0, 0.3], [0.3, 2.0]])
        assert linalg.loewner_leq(a, a)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            linalg.loewner_leq(np.eye(2), np.eye(3))


class TestHouseholder:
    def test_rotates_3_4_onto_second_axis(self):
        v = np.array([3.0, 4.0])
        t = linalg.householder_to_axis(v, 1)
        assert np.allclose(v @ t, [0.0, 5.0], atol=1e-12)
        assert np.allclose(t @ t.T, np.eye(2), atol=1e-12)

    def test_rotates_ones_onto_first_axis(self):
        v = np.ones(3)
        t = linalg.householder_to_axis(v, 0)
        assert np.allclose(v @ t, [np.sqrt(3.0), 0.0, 0.0], atol=1e-12)

    def test_identity_when_already_aligned(self):
        t = linalg.householder_to_axis(np.array([0.0, 2.5, 0.0]), 1)
        assert np.allclose(t, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_vectors(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(10):
            v = rng.normal(size=n)
            k = int(rng.integers(n))
            t = linalg.householder_to_axis(v, k)
            out = v @ t
            assert np.allclose(t @ t.T, np.eye(n), atol=1e-10)
            assert np.isclose(out[k], np.linalg.norm(v), atol=1e-10)
            out[k] = 0.0
            assert np.allclose(out, 0.0, atol=1e-10)

    def test_rejects_zero_vector(self):
        with pytest.raises(DegenerateInput):
            linalg.householder_to_axis(np.zeros(3), 0)

    def test_rejects_bad_axis(self):
        with pytest.raises(DegenerateInput):
            linalg.householder_to_axis(np.ones(3), 3)
