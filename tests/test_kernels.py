"""The fixed-point sweep kernel and its published backend name.

The kernel is judged against the exact Fraction sweep: every entry of its
mantissa row stays within its rounding budget of the true nested sum.
"""

from fractions import Fraction

import pytest

import pipow
from pipow import _backend
from pipow.errors import DomainError


class TestPureKernel:
    def test_row_zero_is_scale_unit(self):
        for scale in (5, 20, 40):
            row = _backend.dp_row_scaled(3, 50, scale)
            assert row[0] == 10**scale

    def test_row_length(self):
        assert len(_backend.dp_row_scaled(4, 10, 20)) == 5

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("truncation", [0, 1, 7, 60])
    def test_tracks_exact_sweep(self, depth, truncation):
        scale = 30
        row = _backend.dp_row_scaled(depth, truncation, scale)
        exact = [Fraction(1)] + [Fraction(0)] * depth
        for ell in range(1, truncation + 1):
            for k in range(min(depth, ell), 0, -1):
                exact[k] += exact[k - 1] / (ell * ell)
        # Each entry accrues at most one rounding per update.
        budget = Fraction(truncation * max(depth, 1) + 2, 10**scale)
        for k in range(depth + 1):
            assert abs(Fraction(row[k], 10**scale) - exact[k]) <= budget


class TestBackendFacade:
    def test_backend_name_is_published(self):
        assert pipow.KERNEL_BACKEND == "pure-python"

    def test_validation(self):
        with pytest.raises(DomainError):
            _backend.dp_row_scaled(-1, 10, 20)
        with pytest.raises(DomainError):
            _backend.dp_row_scaled(1, -1, 20)
        with pytest.raises(DomainError):
            _backend.dp_row_scaled(1, 10, -1)

    def test_scale_zero_degenerate(self):
        # Integer-resolution sweep: only ell = 1 contributes a whole unit.
        assert _backend.dp_row_scaled(1, 5, 0) == [1, 1]
