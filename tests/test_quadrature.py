"""Tests for Sn angular quadrature sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ReproError
from repro.sweep import Quadrature, level_symmetric, product_quadrature

FOUR_PI = 4 * np.pi


class TestLevelSymmetric:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_counts_and_normalization(self, n):
        q = level_symmetric(n)
        assert q.num_angles == n * (n + 2)
        assert q.weights.sum() == pytest.approx(FOUR_PI, rel=1e-9)
        assert np.all(q.weights > 0)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_even_moments_exact(self, n):
        q = level_symmetric(n)
        w = q.weights / q.weights.sum()
        for ax in range(3):
            mu = q.directions[:, ax]
            assert np.sum(w * mu**2) == pytest.approx(1 / 3, rel=1e-6)
            assert np.sum(w * mu**4) == pytest.approx(1 / 5, rel=1e-5)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_odd_moments_vanish(self, n):
        q = level_symmetric(n)
        for ax in range(3):
            assert abs(np.sum(q.weights * q.directions[:, ax])) < 1e-10

    def test_octant_symmetry(self, ):
        q = level_symmetric(4)
        per_octant = {}
        for a in range(q.num_angles):
            per_octant.setdefault(q.octant_of(a), 0)
            per_octant[q.octant_of(a)] += 1
        assert set(per_octant.values()) == {3}  # N(N+2)/8 = 3 each

    def test_s2_is_diagonal(self):
        q = level_symmetric(2)
        np.testing.assert_allclose(np.abs(q.directions), 1 / np.sqrt(3))

    def test_s4_matches_published_mu1(self):
        q = level_symmetric(4)
        mus = np.unique(np.round(np.abs(q.directions[:, 0]), 6))
        assert 0.350021 in mus.tolist()

    def test_unavailable_order(self):
        with pytest.raises(ReproError):
            level_symmetric(18)
        with pytest.raises(ReproError):
            level_symmetric(3)

    @pytest.mark.parametrize("n", [2.0, 4.5, True, 0, -4])
    def test_order_must_be_a_positive_integer(self, n):
        """Refused by name, not as a ``TypeError`` from ``range`` or
        as "STrue not available"."""
        with pytest.raises(ReproError, match=r"level-symmetric order.*n="):
            level_symmetric(n)


class TestProductQuadrature:
    def test_count_and_normalization(self):
        q = product_quadrature(8, 40)
        assert q.num_angles == 320  # the paper's Kobayashi angle count
        assert q.weights.sum() == pytest.approx(FOUR_PI, rel=1e-12)

    @pytest.mark.parametrize("npol,nazi", [(2, 4), (4, 8), (8, 16)])
    def test_moments(self, npol, nazi):
        q = product_quadrature(npol, nazi)
        w = q.weights / q.weights.sum()
        assert np.sum(w * q.directions[:, 2] ** 2) == pytest.approx(
            1 / 3, rel=1e-10
        )
        for ax in range(3):
            assert abs(np.sum(w * q.directions[:, ax])) < 1e-10

    def test_invalid_sizes(self):
        with pytest.raises(ReproError):
            product_quadrature(0, 4)

    @pytest.mark.parametrize(
        "sizes, name",
        [((1.5, 4), "n_polar"), ((2.0, 4), "n_polar"), ((True, 4), "n_polar"),
         ((2, 2.0), "n_azim"), ((2, -1), "n_azim")],
    )
    def test_sizes_must_be_positive_integers(self, sizes, name):
        """A fractional, float or bool size is refused by name, not
        deep in ``leggauss`` or as a quadrature called ``P2x2.0``."""
        with pytest.raises(ReproError, match=f"quadrature size.*{name}="):
            product_quadrature(*sizes)


class TestQuadratureValidation:
    def test_non_unit_directions_rejected(self):
        with pytest.raises(ReproError):
            Quadrature(np.array([[1.0, 1.0, 0.0]]), np.array([1.0]))

    def test_non_positive_weights_rejected(self):
        with pytest.raises(ReproError):
            Quadrature(np.array([[1.0, 0.0, 0.0]]), np.array([0.0]))

    def test_octant_of(self):
        q = Quadrature(
            np.array([[1.0, 0, 0], [-1.0, 0, 0]]) / 1.0, np.array([1.0, 1.0])
        )
        assert q.octant_of(0) == 0
        assert q.octant_of(1) == 1


@given(npol=st.integers(1, 10), nazi=st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_product_quadrature_properties(npol, nazi):
    q = product_quadrature(npol, nazi)
    assert q.num_angles == npol * nazi
    assert q.weights.sum() == pytest.approx(FOUR_PI, rel=1e-9)
    np.testing.assert_allclose(
        np.linalg.norm(q.directions, axis=1), 1.0, atol=1e-12
    )
