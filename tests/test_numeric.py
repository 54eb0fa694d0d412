"""Unit tests for numeric snapping helpers."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.util.numeric import EPS, snap, snap_vector


class TestSnap:
    def test_snaps_near_integers(self):
        assert snap(2.0 + 1e-9) == 2.0
        assert snap(3.0 - 1e-9) == 3.0

    def test_leaves_genuine_fractions(self):
        assert snap(2.5) == 2.5
        assert snap(1.1) == 1.1

    def test_custom_tolerance(self):
        assert snap(2.01, eps=0.05) == 2.0
        assert snap(2.01, eps=0.001) == 2.01

    @given(st.integers(-100, 100), st.floats(-1e-8, 1e-8))
    def test_integer_plus_noise_recovers_integer(self, n, noise):
        assert snap(n + noise) == float(n)


class TestSnapVector:
    def test_mixed_values(self):
        out = snap_vector([1.0 + 1e-9, 0.5, -1e-9])
        np.testing.assert_allclose(out, [1.0, 0.5, 0.0])

    def test_tiny_negatives_clamped(self):
        assert snap_vector([-1e-9])[0] == 0.0

    def test_empty(self):
        assert snap_vector([]).shape == (0,)

    @given(st.lists(st.floats(0, 100, allow_nan=False), max_size=10))
    def test_never_moves_value_far(self, values):
        out = snap_vector(values)
        for a, b in zip(out, values):
            assert abs(a - b) <= 2 * EPS
