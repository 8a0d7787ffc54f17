import numpy as np
import pytest

from rdregion import optimize
from rdregion.errors import InvalidInput


class TestGoldenSection:
    def test_quadratic(self):
        x, fx = optimize.golden_section(lambda t: (t - 1.3) ** 2, -4.0, 5.0, tol=1e-9)
        assert np.isclose(x, 1.3, atol=1e-8)
        assert fx < 1e-15

    def test_boundary_minimum(self):
        # monotone function: search collapses onto the boundary
        x, _ = optimize.golden_section(lambda t: t, 2.0, 7.0, tol=1e-9)
        assert np.isclose(x, 2.0, atol=1e-8)

    def test_rejects_bad_bracket(self):
        with pytest.raises(InvalidInput):
            optimize.golden_section(lambda t: t, 1.0, 0.0)


class TestBisectThreshold:
    def test_step_function(self):
        x = optimize.bisect_threshold(lambda t: t >= 0.7, 0.0, 1.0)
        assert np.isclose(x, 0.7, atol=1e-10)

    def test_immediate(self):
        assert optimize.bisect_threshold(lambda t: True, 0.3, 1.0) == 0.3

    def test_rejects_never_true(self):
        with pytest.raises(InvalidInput):
            optimize.bisect_threshold(lambda t: False, 0.0, 1.0)
