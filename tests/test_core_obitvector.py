"""Unit and property tests for the OBitVector."""

import pytest
from hypothesis import given, strategies as st

from repro.core.obitvector import OBitVector

lines = st.integers(0, OBitVector.WIDTH - 1)
line_sets = st.sets(lines, max_size=OBitVector.WIDTH)


class TestBasics:
    def test_starts_empty(self):
        v = OBitVector()
        assert v.is_empty()
        assert v.count() == 0
        assert not v.is_set(0)

    def test_set_and_clear(self):
        v = OBitVector()
        v.set(5)
        assert v.is_set(5)
        assert 5 in v
        v.clear(5)
        assert not v.is_set(5)

    def test_full_vector(self):
        v = OBitVector.full()
        assert v.count() == 64

    def test_clear_all(self):
        v = OBitVector.full()
        v.clear_all()
        assert v.is_empty()

    def test_from_lines(self):
        v = OBitVector.from_lines([0, 7, 63])
        assert sorted(v.lines()) == [0, 7, 63]
        assert len(v) == 3

    def test_out_of_range_rejected(self):
        v = OBitVector()
        with pytest.raises(IndexError):
            v.set(64)
        with pytest.raises(IndexError):
            v.is_set(-1)

    def test_too_wide_pattern_rejected(self):
        with pytest.raises(ValueError):
            OBitVector(1 << 64)

    def test_raw_round_trip(self):
        v = OBitVector.from_lines([1, 2, 3])
        assert OBitVector(v.raw) == v

    def test_repr_is_informative(self):
        assert "OBitVector" in repr(OBitVector())


class TestValueSemantics:
    def test_copy_is_independent(self):
        v = OBitVector.from_lines([1])
        c = v.copy()
        c.set(2)
        assert not v.is_set(2)

    def test_equality_and_hash(self):
        a = OBitVector.from_lines([3, 4])
        b = OBitVector.from_lines([4, 3])
        assert a == b
        assert hash(a) == hash(b)
        assert a != OBitVector()


class TestProperties:
    @given(line_sets)
    def test_from_lines_round_trips(self, chosen):
        v = OBitVector.from_lines(chosen)
        assert set(v.lines()) == chosen
        assert v.count() == len(chosen)

    @given(line_sets, lines)
    def test_set_is_idempotent(self, chosen, line):
        v = OBitVector.from_lines(chosen)
        v.set(line)
        count = v.count()
        v.set(line)
        assert v.count() == count
        assert v.is_set(line)

    @given(line_sets)
    def test_count_matches_len(self, chosen):
        v = OBitVector.from_lines(chosen)
        assert len(v) == v.count() == len(list(v.lines()))
