import pytest
from hypothesis import given, strategies as st

from fiscalsvar.series import Quarter


class TestQuarter:
    def test_parse_roundtrip(self):
        q = Quarter.parse("1999-Q1")
        assert (q.year, q.quarter) == (1999, 1)
        assert str(q) == "1999-Q1"

    @pytest.mark.parametrize("bad", ["1999Q1", "1999-Q5", "99-Q1", "1999-Q0", "x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            Quarter.parse(bad)

    def test_add_wraps_years(self):
        assert Quarter(1999, 4) + 1 == Quarter(2000, 1)
        assert Quarter(1999, 1) + 4 == Quarter(2000, 1)
        assert Quarter(2000, 1) + (-1) == Quarter(1999, 4)

    def test_difference_counts_quarters(self):
        assert Quarter(2019, 4) - Quarter(1999, 1) == 83
        assert Quarter(1999, 1) - Quarter(1999, 1) == 0

    def test_ordering(self):
        assert Quarter(1999, 4) < Quarter(2000, 1)

    @given(st.integers(1990, 2030), st.integers(1, 4), st.integers(-200, 200))
    def test_add_sub_inverse(self, year, quarter, shift):
        q = Quarter(year, quarter)
        assert (q + shift) - q == shift

