import math

import pytest
from hypothesis import given, strategies as st

from thabound.characterize import (
    LONG_ARM,
    ReflectionPeak,
    SHORT_ARM,
    TraceParseError,
    parse_trace,
    reflectivity_bound,
)

from conftest import DATA_DIR

FIXTURE = DATA_DIR / "transmitter_peaks.csv"


class TestParseTrace:
    def test_single_row(self):
        peaks = parse_trace("1.2,-46.0,s")
        assert peaks == [ReflectionPeak(1.2, -46.0, SHORT_ARM)]

    def test_empty_input(self):
        assert parse_trace("") == []

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n1.0,-40.0,s\n\n# tail\n2.0,-41.0,l\n"
        peaks = parse_trace(text)
        assert [p.distance_m for p in peaks] == [1.0, 2.0]
        assert peaks[1].polarization == LONG_ARM

    def test_bad_polarization_tag_reports_line(self):
        with pytest.raises(TraceParseError) as err:
            parse_trace("1.2,-46.0,x")
        assert err.value.line_no == 1
        assert str(err.value).startswith("line 1:")

    def test_line_numbers_count_skipped_lines(self):
        text = "# one\n\n3.0,-40.0,s\n4.0,-41.0,q\n"
        with pytest.raises(TraceParseError) as err:
            parse_trace(text)
        assert err.value.line_no == 4

    def test_positive_reflectivity_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace("1.2,3.0,s")

    def test_wrong_field_count(self):
        with pytest.raises(TraceParseError):
            parse_trace("1.2,-46.0")
        with pytest.raises(TraceParseError):
            parse_trace("1.2,-46.0,s,extra")

    def test_non_numeric_fields(self):
        with pytest.raises(TraceParseError):
            parse_trace("near,-46.0,s")

    def test_negative_distance_rejected(self):
        with pytest.raises(TraceParseError):
            parse_trace("-1.2,-46.0,s")

    @pytest.mark.parametrize("row, value", [
        ("nan,-48.0,s", "distance"),
        ("inf,-48.0,s", "distance"),
        ("1,-inf,l", "reflectivity"),
        ("1,nan,l", "reflectivity"),
    ])
    def test_non_finite_values_report_line(self, row, value):
        with pytest.raises(TraceParseError) as err:
            parse_trace(f"# peaks\n{row}\n")
        assert err.value.line_no == 2
        assert value in str(err.value)

    @pytest.mark.parametrize("text", [
        " 1.2 ,\t-46.0 , s ",
        "1.2\x1f,\x1f-46.0\x1f,s",
        "1.2,-46.0,s\r\n",
        "   # spaced comment\r\n\r\n1.2,-46.0,s\r\n",
    ], ids=["padded", "unit-separator", "crlf", "indented-comment"])
    def test_accepted_forms(self, text):
        assert parse_trace(text) == [ReflectionPeak(1.2, -46.0, SHORT_ARM)]

    @pytest.mark.parametrize("row, message", [
        ("1.2,-46.0", "expected 3 fields, got 2"),
        ("near,-46.0,x,extra", "expected 3 fields, got 4"),
        ("near,-46.0,x", "distance and reflectivity must be numeric"),
        ("1.2, -46 dB ,s", "distance and reflectivity must be numeric"),
        ("-1.2,3.0, x ", "polarization tag must be 's' or 'l', got 'x'"),
        ("1.2,-46.0,S", "polarization tag must be 's' or 'l', got 'S'"),
        ("-1.2,3.0,s", "distance_m must be finite and >= 0, got -1.2"),
        (" 1.2 , 3.0 ,l", "reflectivity_db must be finite and <= 0 dB, got 3.0"),
    ])
    def test_error_message_and_precedence(self, row, message):
        # Field count, then numbers, then the tag, then the record's rules.
        with pytest.raises(TraceParseError) as err:
            parse_trace(f"  # peaks\r\n\r\n0.5,-40.0,l\r\n{row}\r\n")
        assert str(err.value) == f"line 4: {message}"
        assert err.value.line_no == 4

    def test_fixture_file_order(self):
        peaks = parse_trace(FIXTURE.read_text())
        assert len(peaks) == 6
        assert peaks[0] == ReflectionPeak(0.8, -48.0, SHORT_ARM)
        assert peaks[-1] == ReflectionPeak(12.3, -30.2, LONG_ARM)


class TestReflectivityBound:
    def test_single_peak_is_its_own_bound(self):
        peaks = [ReflectionPeak(1.0, -46.0, SHORT_ARM)]
        assert reflectivity_bound(peaks, (0.0, 7.0)) == pytest.approx(-46.0)

    def test_two_equal_peaks_add_three_db(self):
        peaks = [ReflectionPeak(1.0, -46.0, SHORT_ARM),
                 ReflectionPeak(2.0, -46.0, LONG_ARM)]
        bound = reflectivity_bound(peaks, (0.0, 7.0))
        # independently computed: 10*log10(2e-4.6)
        assert bound == pytest.approx(-42.9897000434, rel=1e-11)
        assert abs(bound - (-42.99)) <= 0.01

    def test_fixture_reproduces_worst_case_total(self):
        peaks = parse_trace(FIXTURE.read_text())
        bound = reflectivity_bound(peaks, (0.0, 7.0))
        assert abs(bound - (-42.87)) <= 0.01
        # frozen exact value of the synthetic peak set
        assert bound == pytest.approx(-42.87001318854849, rel=1e-10)

    def test_region_filter_is_inclusive(self):
        peaks = [ReflectionPeak(0.0, -50.0, SHORT_ARM),
                 ReflectionPeak(7.0, -50.0, LONG_ARM),
                 ReflectionPeak(7.001, -10.0, LONG_ARM)]
        bound = reflectivity_bound(peaks, (0.0, 7.0))
        assert bound == pytest.approx(-46.9897000434, rel=1e-10)

    def test_peaks_below_float_range_stay_finite(self):
        # 10**(-500) underflows to 0 in linear units.
        peaks = [ReflectionPeak(1.0, -5000.0, SHORT_ARM),
                 ReflectionPeak(2.0, -4000.0, LONG_ARM),
                 ReflectionPeak(3.0, -4000.0, LONG_ARM)]
        assert reflectivity_bound(peaks[:2], (0.0, 7.0)) == -4000.0
        assert reflectivity_bound(peaks[1:], (0.0, 7.0)) == pytest.approx(
            -4000.0 + 10.0 * math.log10(2.0), rel=1e-15)

    def test_no_peaks_in_region_is_distinct_from_tiny(self):
        peaks = [ReflectionPeak(9.0, -30.0, SHORT_ARM)]
        assert reflectivity_bound(peaks, (0.0, 7.0)) is None
        assert reflectivity_bound([], (0.0, 7.0)) is None

    def test_inverted_region_rejected(self):
        with pytest.raises(ValueError):
            reflectivity_bound([], (7.0, 0.0))

    @pytest.mark.parametrize("region", [
        (math.nan, 7.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 7.0),
    ])
    def test_non_finite_region_rejected(self, region):
        with pytest.raises(ValueError, match="region"):
            reflectivity_bound([], region)

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=7.0),
                              st.floats(min_value=-80.0, max_value=-1.0)),
                    min_size=1, max_size=8))
    def test_permutation_invariant(self, raw):
        peaks = [ReflectionPeak(d, r, SHORT_ARM) for d, r in raw]
        reference = reflectivity_bound(peaks, (0.0, 7.0))
        shuffled = list(reversed(peaks))
        assert reflectivity_bound(shuffled, (0.0, 7.0)) == pytest.approx(
            reference, abs=1e-12)

    @given(st.lists(st.floats(min_value=-80.0, max_value=-1.0),
                    min_size=1, max_size=8),
           st.floats(min_value=-80.0, max_value=-1.0))
    def test_adding_a_peak_never_decreases_the_bound(self, values, extra):
        peaks = [ReflectionPeak(1.0, r, SHORT_ARM) for r in values]
        before = reflectivity_bound(peaks, (0.0, 7.0))
        peaks.append(ReflectionPeak(2.0, extra, LONG_ARM))
        after = reflectivity_bound(peaks, (0.0, 7.0))
        assert after >= before - 1e-12

    @given(st.lists(st.floats(min_value=-80.0, max_value=-1.0),
                    min_size=2, max_size=10))
    def test_partition_linearity(self, values):
        peaks = [ReflectionPeak(1.0, r, SHORT_ARM) for r in values]
        half = len(peaks) // 2
        total = reflectivity_bound(peaks, (0.0, 7.0))
        part_a = reflectivity_bound(peaks[:half], (0.0, 7.0))
        part_b = reflectivity_bound(peaks[half:], (0.0, 7.0))
        combined = 10.0 * math.log10(10.0 ** (part_a / 10.0)
                                     + 10.0 ** (part_b / 10.0))
        assert total == pytest.approx(combined, abs=1e-9)
