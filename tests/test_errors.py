import math

import numpy as np
import pytest

from gra.errors import GraError, check_number


class TestCheckNumber:
    @pytest.mark.parametrize("value", [True, np.True_, 3.0, math.nan, "3"])
    def test_integer_rule_refuses(self, value):
        with pytest.raises(GraError) as raised:
            check_number(value, "x", integer=True)
        assert str(raised.value) == f"x must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(2), 2**70])
    def test_integer_rule_accepts(self, value):
        check_number(value, "x", integer=True)

    @pytest.mark.parametrize("value", [True, math.nan, np.nan, "3", None, 1j])
    def test_number_rule_refuses(self, value):
        with pytest.raises(GraError) as raised:
            check_number(value, "x")
        assert str(raised.value) == f"x must be a number, got {value!r}"

    @pytest.mark.parametrize("value", [3, 3.5, -math.inf, np.float32(0.5), np.int64(3)])
    def test_number_rule_accepts(self, value):
        check_number(value, "x")

    @pytest.mark.parametrize(
        "value, least, integer, message",
        [
            (-1, 0, True, "x must be at least 0, got -1"),
            (0, 1, True, "x must be at least 1, got 0"),
            (np.int64(-3), 1, True, "x must be at least 1, got -3"),
            (0.5, 1, False, "x must be at least 1, got 0.5"),
        ],
    )
    def test_floor_refuses_a_value_below_it(self, value, least, integer, message):
        with pytest.raises(GraError) as raised:
            check_number(value, "x", integer=integer, least=least)
        assert str(raised.value) == message

    @pytest.mark.parametrize("value, least", [(0, 0), (1, 1), (2**70, 1), (1.0, 1)])
    def test_floor_accepts_a_value_at_or_above_it(self, value, least):
        check_number(value, "x", integer=isinstance(value, int), least=least)

    def test_type_is_checked_before_the_floor(self):
        with pytest.raises(GraError) as raised:
            check_number(-1.5, "x", integer=True, least=0)
        assert str(raised.value) == "x must be an integer, got -1.5"
