import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gra.errors import GraError, RuleNumberOutOfRangeError
from gra.rules import (
    Rule,
    complement_rule,
    decode,
    encode,
    parse_rule_number,
    single_division_subset,
)


class TestDecode:
    def test_rule_765(self):
        r = decode(765)
        assert np.array_equal(r.next_state, [1, 0, 1, 1, 1, 1, 1, 1])
        assert np.array_equal(r.divides, [0, 1, 0, 0, 0, 0, 0, 0])

    def test_rule_0(self):
        r = decode(0)
        assert not r.next_state.any()
        assert not r.divides.any()

    def test_rule_2222(self):
        r = decode(2222)
        assert np.array_equal(r.next_state, [0, 1, 1, 1, 0, 1, 0, 1])
        assert np.array_equal(r.divides, [0, 0, 0, 1, 0, 0, 0, 0])

    def test_rule_65535(self):
        r = decode(65535)
        assert r.next_state.all()
        assert r.divides.all()

    @pytest.mark.parametrize("bad", [-1, 65536, 1 << 20])
    def test_out_of_range(self, bad):
        with pytest.raises(RuleNumberOutOfRangeError):
            decode(bad)

    @pytest.mark.parametrize("bad", [True, 2222.0, "2222"], ids=["bool", "float", "string"])
    def test_non_integer_refused(self, bad):
        with pytest.raises(GraError, match=f"^rule number must be an integer, got {bad!r}$"):
            decode(bad)


class TestRule:
    def test_equality_and_hash_follow_the_number(self):
        assert Rule(765) == decode(765) and hash(Rule(765)) == hash(decode(765))
        assert Rule(765) != Rule(766)
        assert len({decode(n) for n in (0, 0, 765, 765)}) == 2

    def test_tables_are_read_only(self):
        r = decode(2222)
        for table in (r.next_state, r.divides):
            with pytest.raises(ValueError):
                table[0] = 1

    @pytest.mark.parametrize("bad", [-1, 65536])
    def test_number_out_of_range(self, bad):
        with pytest.raises(RuleNumberOutOfRangeError):
            Rule(bad)


class TestEncode:
    @pytest.mark.parametrize("n", [0, 256, 765, 2222, 65535])
    def test_round_trip_golden(self, n):
        assert encode(decode(n)) == n

    def test_round_trip_exhaustive(self):
        for n in range(65536):
            assert encode(decode(n)) == n


class TestSingleDivisionSubset:
    def test_size(self):
        assert len(single_division_subset()) == 1024

    def test_smallest(self):
        assert single_division_subset()[0] == 256

    def test_sorted_distinct(self):
        subset = single_division_subset()
        assert subset == sorted(set(subset))

    def test_one_division_on_a_dead_configuration(self):
        for n in single_division_subset():
            high = n >> 8
            assert high in (1, 2, 4, 8)
            assert bin(high).count("1") == 1


class TestComplementRule:
    @given(st.integers(0, 65535))
    @settings(max_examples=200, deadline=None)
    def test_involution(self, n):
        r = decode(n)
        assert complement_rule(complement_rule(r)) == r

    def test_complement_of_zero(self):
        c = complement_rule(decode(0))
        assert c.number == 255
        assert c.next_state.all()
        assert not c.divides.any()

    def test_tables_exhaustive(self):
        # next*(c) = 1 - next(7-c) and divides*(c) = divides(7-c), for every rule
        for n in range(65536):
            r = decode(n)
            comp = complement_rule(r)
            assert np.array_equal(comp.next_state, 1 - r.next_state[::-1]), n
            assert np.array_equal(comp.divides, r.divides[::-1]), n

    def test_subset_divides_moves_to_alive_half(self):
        for n in single_division_subset():
            r = decode(n)
            c = int(np.flatnonzero(r.divides)[0])
            assert 0 <= c <= 3
            comp = complement_rule(r)
            assert np.flatnonzero(comp.divides).tolist() == [7 - c]


class TestParseRuleNumber:
    def test_decimal(self):
        assert parse_rule_number("765") == 765

    def test_binary(self):
        assert parse_rule_number("0b1011111101") == 765

    def test_rejects_out_of_range(self):
        with pytest.raises(RuleNumberOutOfRangeError):
            parse_rule_number("70000")

    def test_rejects_garbage(self):
        with pytest.raises(RuleNumberOutOfRangeError):
            parse_rule_number("seven")
