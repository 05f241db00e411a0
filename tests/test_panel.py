import csv
import io
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from econrank import (
    BalancedPanel,
    IndicatorPanel,
    balanced_subset,
    growth_rate,
    load_alias_map,
    load_panel,
    serialize_panel,
)
from econrank.errors import DataError, NumericalError, ParameterError
from econrank.outputs import _BLOCK
from econrank.panel import _BLOCK_CHARS, _plain_lines
from panel_mapping import from_mapping, observations

# ln(1.1), frozen from a 30-digit mpmath evaluation
LN_1_1 = 0.0953101798043249


def _load(text, indicator="gdp", **kwargs):
    """``load_panel`` of a file that holds ``text`` as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return load_panel(path, indicator, **kwargs)


class TestLoadPanel:
    def test_four_rows_two_countries_two_years(self):
        panel, skipped = _load(
            "country,year,value\nHRV,2010,13.5\nHRV,2011,13.9\nPOL,2010,12.6\nPOL,2011,13.4\n"
        )
        assert len(panel) == 4
        assert skipped == 0
        assert sorted({c for c, _ in observations(panel)}) == ["HRV", "POL"]
        assert sorted(set(panel.years.tolist())) == [2010, 2011]
        assert observations(panel)["HRV", 2010] == 13.5

    def test_empty_value_skipped_and_counted(self):
        panel, skipped = _load("country,year,value\nHRV,2010,\nPOL,2010,12.6\n")
        assert len(panel) == 1
        assert skipped == 1

    def test_non_numeric_value_skipped(self):
        panel, skipped = _load("country,year,value\nHRV,2010,n/a\nPOL,2010,12.6\n")
        assert len(panel) == 1
        assert skipped == 1

    def test_non_finite_value_skipped(self):
        panel, skipped = _load("country,year,value\nHRV,2010,nan\nPOL,2010,inf\n", "idx")
        assert len(panel) == 0
        assert skipped == 2

    def test_malformed_year_skipped(self):
        _, skipped = _load("country,year,value\nHRV,20x0,13.5\n")
        assert skipped == 1

    def test_wrong_field_count_skipped(self):
        _, skipped = _load("country,year,value\nHRV,2010,13.5,extra\n")
        assert skipped == 1

    def test_nonpositive_gdp_skipped(self):
        panel, skipped = _load("country,year,value\nHRV,2010,0\nPOL,2010,-3\nALB,2010,2\n")
        assert sorted({c for c, _ in observations(panel)}) == ["ALB"]
        assert skipped == 2

    def test_negative_value_kept_for_non_gdp_indicator(self):
        panel, skipped = _load("country,year,value\nHRV,2010,-0.25\n", "balance")
        assert skipped == 0
        assert observations(panel)["HRV", 2010] == -0.25

    def test_duplicate_triple_is_hard_error(self):
        with pytest.raises(DataError, match="^duplicate observation for ") as exc:
            _load("country,year,value\nHRV,2011,13.9\nHRV,2011,14.0\n")
        message = str(exc.value)
        assert "HRV" in message and "2011" in message and "gdp" in message

    def test_malformed_header_is_hard_error(self):
        with pytest.raises(DataError):
            _load("iso,yr,val\nHRV,2010,13.5\n")

    def test_blank_lines_ignored_without_warning(self):
        panel, skipped = _load("country,year,value\n\nHRV,2010,13.5\n\n")
        assert len(panel) == 1
        assert skipped == 0

    def test_alias_mapping_applied(self):
        aliases = {"Croatia": "HRV"}
        panel, _ = _load("country,year,value\nCroatia,2010,13.5\n", aliases=aliases)
        assert sorted({c for c, _ in observations(panel)}) == ["HRV"]

    def test_alias_collision_raises_duplicate(self):
        aliases = {"Croatia": "HRV"}
        with pytest.raises(DataError, match=r"^duplicate observation for \(country=HRV, year=2010"):
            _load(
                "country,year,value\nCroatia,2010,13.5\nHRV,2010,13.5\n",
                aliases=aliases,
            )

    def test_load_alias_map(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_text("source_name,iso3\nCroatia,HRV\nUnited States,USA\n", encoding="utf-8")
        assert load_alias_map(path) == {"Croatia": "HRV", "United States": "USA"}

    def test_alias_map_repeat_must_agree(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_text("source_name,iso3\nCroatia,HRV\nPoland,POL\nCroatia,HRV\n",
                        encoding="utf-8")
        assert load_alias_map(path) == {"Croatia": "HRV", "Poland": "POL"}
        path.write_text("source_name,iso3\nCroatia,HRV\nCroatia,HRW\n", encoding="utf-8")
        with pytest.raises(DataError, match="'Croatia'.*'HRV'.*'HRW'"):
            load_alias_map(path)

    def test_alias_map_skips_blank_rows(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_text("source_name,iso3\n  ,\t\nCroatia,HRV\n \n", encoding="utf-8")
        assert load_alias_map(path) == {"Croatia": "HRV"}

    def test_alias_row_of_three_fields_is_data_error(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_text("source_name,iso3\nCroatia,HRV,HR\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                "alias row must have 2 fields, got ['Croatia', 'HRV', 'HR']")):
            load_alias_map(path)

    def test_alias_map_bad_header(self, tmp_path):
        path = tmp_path / "aliases.csv"
        path.write_text("name,code\nCroatia,HRV\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_alias_map(path)

    @pytest.mark.parametrize("text", ["", "iso,yr,val\n", "country,year\n"])
    def test_header_error_names_the_file(self, text, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        for load, header in [(lambda p: load_panel(p, "gdp"), "country,year,value"),
                             (load_alias_map, "source_name,iso3")]:
            with pytest.raises(DataError, match=re.escape(f"header of {path} must be '{header}'")):
                load(path)


def _panel(rows, indicator="gdp"):
    return IndicatorPanel(indicator, [c for c, _, _ in rows], [y for _, y, _ in rows],
                          [float(v) for _, _, v in rows])


class TestBalancedSubset:
    def test_country_missing_one_year_is_excluded(self):
        panel = _panel(
            [("AAA", 2000, 1), ("AAA", 2001, 2), ("BBB", 2000, 3)]
        )
        balanced = balanced_subset(panel, (2000, 2001))
        assert balanced.countries == ("AAA",)

    def test_all_complete_keeps_membership(self):
        panel = _panel(
            [("AAA", 2000, 1), ("AAA", 2001, 2), ("BBB", 2000, 3), ("BBB", 2001, 4)]
        )
        balanced = balanced_subset(panel, (2000, 2001))
        assert balanced.countries == ("AAA", "BBB")
        assert balanced.value("BBB", 2001) == 4.0

    def test_values_preserved_unchanged(self):
        panel = _panel([("AAA", 2000, 1.25), ("AAA", 2001, 2.5)])
        balanced = balanced_subset(panel, (2000, 2001))
        assert balanced.value("AAA", 2000) == 1.25
        assert balanced.value("AAA", 2001) == 2.5

    def test_empty_result_raises(self):
        panel = _panel([("AAA", 2000, 1)])
        with pytest.raises(DataError, match="^no country has complete gdp coverage for 2000-2001"):
            balanced_subset(panel, (2000, 2001))

    def test_reversed_range_raises(self):
        panel = _panel([("AAA", 2000, 1)])
        with pytest.raises(ParameterError):
            balanced_subset(panel, (2001, 2000))

    def test_idempotent(self):
        panel = _panel(
            [("AAA", y, 10 + y % 7) for y in range(2000, 2006)]
            + [("BBB", y, 20 + y % 3) for y in range(2000, 2006)]
            + [("CCC", 2003, 5)]
        )
        once = balanced_subset(panel, (2000, 2005))
        again_source = from_mapping(
            "gdp", {(c, y): once.value(c, y) for c in once.countries for y in once.years}
        )
        twice = balanced_subset(again_source, (2000, 2005))
        assert twice.countries == once.countries
        assert twice.years == once.years
        assert np.array_equal(twice.values, once.values)


class TestBalancedLookup:
    panel = BalancedPanel(
        countries=("BBB", "DDD", "FFF"),
        years=(2000, 2001),
        values=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    )

    def test_every_code_finds_its_row(self):
        for i, country in enumerate(self.panel.countries):
            assert self.panel.value(country, 2001) == self.panel.values[i, 1]

    @pytest.mark.parametrize("country", ["AAA", "CCC", "EEE", "GGG", "", "BBBB"])
    def test_absent_code_is_lookup_error(self, country):
        # before the first code, between two codes, after the last
        with pytest.raises(DataError, match=f"^country {country!r} not in panel$"):
            self.panel.value(country, 2000)

    def test_missing_year_is_lookup_error(self):
        with pytest.raises(DataError, match="^year 2002 not in panel$"):
            self.panel.value("BBB", 2002)


class TestBalancedLayout:
    def test_gapped_years_are_data_error(self):
        for years in [(2000, 2002), (2001, 2000), range(2000, 2004, 2)]:
            with pytest.raises(DataError, match="consecutively"):
                BalancedPanel(countries=("AAA",), years=years, values=np.ones((1, 2)))

    def test_consecutive_tuple_is_stored_as_the_equal_range(self):
        panel = BalancedPanel(
            countries=("AAA",), years=(1999, 2000, 2001), values=np.ones((1, 3))
        )
        assert panel.years == range(1999, 2002)
        assert panel.year_index(2001) == 2
        source = _panel([("AAA", y, 1.0) for y in range(1999, 2002)])
        assert balanced_subset(source, (1999, 2001)).years == range(1999, 2002)

    @pytest.mark.parametrize(
        "codes, message",
        [(("AAA", "AAA", "BBB"), "'AAA' follows 'AAA'"), (("BBB", "AAA"), "'AAA' follows 'BBB'")],
        ids=["repeated", "unsorted"],
    )
    def test_codes_must_ascend_strictly(self, codes, message):
        with pytest.raises(DataError, match=message):
            BalancedPanel(countries=codes, years=(2000,), values=np.ones((len(codes), 1)))

    def test_distinct_panels_compare_unequal_and_hash(self):
        a, b = (BalancedPanel(("AAA", "BBB"), range(2000, 2002), np.ones((2, 2))) for _ in "ab")
        assert a == a and (a == b) is False and a != b
        assert len({a, b}) == 2 and hash(a) == hash(a)


class TestGrowthRate:
    def test_log_growth_matches_oracle(self):
        panel = _panel([("AAA", 2000, 100.0), ("AAA", 2001, 110.0)])
        balanced = balanced_subset(panel, (2000, 2001))
        (rate,) = growth_rate(balanced, [0])
        assert rate == pytest.approx(LN_1_1, abs=1e-12)

    def test_equal_endpoints_give_zero(self):
        panel = _panel([("AAA", 2000, 42.0), ("AAA", 2001, 42.0)])
        balanced = balanced_subset(panel, (2000, 2001))
        assert growth_rate(balanced, [0]).tolist() == [0.0]

    def test_relative_method(self):
        panel = _panel([("AAA", 2000, 100.0), ("AAA", 2001, 110.0)])
        balanced = balanced_subset(panel, (2000, 2001))
        (rel,) = growth_rate(balanced, [0], method="relative")
        assert rel == pytest.approx(0.1, abs=1e-12)

    def test_nonpositive_value_is_domain_error(self):
        panel = _panel([("AAA", 2000, 5.0), ("AAA", 2001, 0.0)], "idx")
        balanced = balanced_subset(panel, (2000, 2001))
        with pytest.raises(NumericalError, match="AAA needs positive values"):
            growth_rate(balanced, [0])

    @pytest.mark.parametrize(
        "v0, v1, method",
        [(1e-320, 1e308, "log"), (1e-320, 1e308, "relative"), (1e308, 1e-320, "log")],
    )
    def test_growth_outside_float_range_is_domain_error(self, v0, v1, method):
        # v1/v0 overflows to inf, or underflows to 0 where log growth takes its log
        balanced = balanced_subset(_panel([("AAA", 2000, v0), ("AAA", 2001, v1)]), (2000, 2001))
        with pytest.raises(NumericalError, match="AAA needs v1/v0 in float range"):
            growth_rate(balanced, [0], method=method)

    def test_relative_fall_to_subnormal_is_finite(self):
        balanced = balanced_subset(_panel([("AAA", 2000, 1e308), ("AAA", 2001, 1e-320)]),
                                   (2000, 2001))
        assert growth_rate(balanced, [0], method="relative").tolist() == [-1.0]

    def test_one_year_span_is_parameter_error(self):
        balanced = balanced_subset(_panel([("AAA", 2000, 5.0), ("AAA", 2001, 6.0)]),
                                   (2001, 2001))
        with pytest.raises(ParameterError):
            growth_rate(balanced, [0])

    def test_unknown_method_is_parameter_error(self):
        balanced = balanced_subset(_panel([("AAA", 2000, 5.0), ("AAA", 2001, 6.0)]),
                                   (2000, 2001))
        with pytest.raises(ParameterError, match="'linear'"):
            growth_rate(balanced, [0], method="linear")

    def test_growth_rates_covers_every_country(self):
        panel = _panel(
            [("AAA", 2000, 1), ("AAA", 2001, 2), ("BBB", 2000, 3), ("BBB", 2001, 4)]
        )
        balanced = balanced_subset(panel, (2000, 2001))
        rates = dict(zip(balanced.countries, growth_rate(balanced, range(2)).tolist()))
        assert set(rates) == {"AAA", "BBB"}
        assert rates["AAA"] == pytest.approx(math.log(2.0))
        assert rates["BBB"] == pytest.approx(math.log(4 / 3))

    def test_rows_order_sets_the_output_order(self):
        panel = _panel([("AAA", 2000, 1), ("AAA", 2001, 2), ("BBB", 2000, 3), ("BBB", 2001, 4),
                        ("CCC", 2000, 5), ("CCC", 2001, 5)])
        balanced = balanced_subset(panel, (2000, 2001))
        assert growth_rate(balanced, [2, 0]).tolist() == [0.0, math.log(2.0)]

    def test_first_bad_row_in_rows_order_is_named(self):
        # CCC fails the float-range rule and AAA the positivity rule; rows lists CCC first
        panel = _panel([("AAA", 2000, -1.0), ("AAA", 2001, 2.0), ("BBB", 2000, 3.0),
                        ("BBB", 2001, 4.0), ("CCC", 2000, 1e-320), ("CCC", 2001, 1e308)], "idx")
        balanced = balanced_subset(panel, (2000, 2001))
        with pytest.raises(NumericalError, match="CCC needs v1/v0 in float range"):
            growth_rate(balanced, [1, 2, 0])
        with pytest.raises(NumericalError, match="AAA needs positive values"):
            growth_rate(balanced, [0, 1, 2])

    def test_bad_row_outside_rows_raises_nothing(self):
        panel = _panel([("AAA", 2000, 0.0), ("AAA", 2001, 2.0), ("BBB", 2000, 3.0),
                        ("BBB", 2001, 6.0)], "idx")
        balanced = balanced_subset(panel, (2000, 2001))
        assert growth_rate(balanced, [1], method="relative").tolist() == [1.0]


codes = st.sampled_from(["ALB", "BRA", "CHN", "DEU", "HRV", "POL", "SGP", "USA"])
values = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(codes, st.integers(min_value=1980, max_value=2011)),
        values,
        min_size=1,
        max_size=40,
    )
)
def test_serialize_round_trip(obs):
    panel = from_mapping("gdp", obs)
    reloaded, skipped = _load(serialize_panel(panel))
    assert skipped == 0
    assert observations(reloaded) == observations(panel)


def test_serialize_sorted_by_country_then_year():
    panel = _panel([("BBB", 2001, 2), ("AAA", 2001, 3), ("AAA", 2000, 1)])
    lines = serialize_panel(panel).splitlines()
    assert lines[0] == "country,year,value"
    assert [ln.split(",")[0:2] for ln in lines[1:]] == [
        ["AAA", "2000"],
        ["AAA", "2001"],
        ["BBB", "2001"],
    ]


def test_panel_rejects_non_finite_observation():
    with pytest.raises(DataError):
        IndicatorPanel("idx", ["AAA"], [2000], [float("nan")])
    # the same rule the loader skips by: gdp-like values must be positive
    with pytest.raises(DataError, match="nonpositive"):
        IndicatorPanel("gdp", ["AAA"], [2000], [0.0])


def test_balanced_panel_all_values_finite_property():
    panel = _panel([("AAA", y, 1.0 + y) for y in range(2000, 2005)])
    balanced = balanced_subset(panel, (2000, 2004))
    assert balanced.values.shape == (1, 5)
    assert np.all(np.isfinite(balanced.values))


def reference_load_panel(text, indicator, aliases=None):
    """The one-check-per-row loader loop that ``load_panel`` replaced, kept
    verbatim (with the value rule written out) as the reference. It splits lines at LF,
    CRLF and CR, as a file opened with ``newline=""`` does."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    positive = "gdp" in indicator.lower()
    obs = {}
    skipped = 0
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue  # blank line, not a data row
        if len(row) != 3:
            skipped += 1
            continue
        country = row[0].strip()
        if aliases and country in aliases:
            country = aliases[country]
        if not country:
            skipped += 1
            continue
        try:
            year = int(row[1])
        except ValueError:
            skipped += 1
            continue
        try:
            value = float(row[2])
        except ValueError:
            skipped += 1
            continue
        if not (math.isfinite(value) and (value > 0 or not positive)):
            skipped += 1
            continue
        key = (country, year)
        if key in obs:
            raise DataError(
                f"duplicate observation for (country={country}, "
                f"year={year}, indicator={indicator})"
            )
        obs[key] = value
    return obs, skipped


def _outcome(load):
    """Sorted (country, year, value) rows and the skip count, or the duplicate error."""
    try:
        obs, skipped = load()
    except DataError as exc:
        if not str(exc).startswith("duplicate observation for "):
            raise
        return "duplicate", str(exc)
    if isinstance(obs, IndicatorPanel):
        obs = observations(obs)
    return sorted((c, y, v) for (c, y), v in obs.items()), skipped


@st.composite
def long_decimals(draw, signs=("", "-")):
    """15-26 digits with a point anywhere or none, after one of ``signs``."""
    digits = draw(st.text("0123456789", min_size=15, max_size=26))
    point = draw(st.none() | st.integers(0, len(digits)))
    number = digits if point is None else digits[:point] + "." + digits[point:]
    return draw(st.sampled_from(signs)) + number


# cells of plain lines (see econrank.panel._plain_lines), and cells just outside that grammar
plain_countries = st.sampled_from(["HRV", "POL", "Q" * 9, "K" * 15, "K" * 16, "#HRV"])
plain_years = st.sampled_from(["1990", "1991", "0001990"]) | st.integers(
    10**16, 10**18 - 1).map(str)
plain_values = st.sampled_from(["12.5", "-2.5", "0", "-0", "5.", ".5", "-.5"]) | long_decimals()
raw_countries = st.sampled_from(["HRV", " HRV ", "POL", "", "  ", "Croatia", "Atlantis"]) | \
    st.sampled_from(["K" * 17, "H\tRV", "H\x1cRV", "\u00c5land", '"HRV"', "Q" * 9])
raw_years = st.sampled_from(["1990", " 1990 ", "+1990", "1_990", "1990x", "1991", "", "-7"]) | \
    st.sampled_from(["00001990", "+0", "1_9"]) | st.integers(10**18, 10**20 - 1).map(str)
raw_values = st.sampled_from(
    ["12.5", " 3 ", "1e3", "1_000.5", "nan", "inf", "-inf", "0", "-0", "-2.5", "", "n/a"]
) | st.sampled_from(["+1.5", "1e5", "..", "5\x1c", "-", ".", "-.", ".-5", "1-2", "1" * 33]) | \
    long_decimals(signs=("+",)) | long_decimals().map(lambda v: v + "e5")
blank_cells = st.sampled_from(["", " ", "\t"])
raw_rows = st.one_of(
    st.just([]),  # empty line
    st.lists(blank_cells, min_size=1, max_size=4),  # whitespace only
    st.tuples(blank_cells, blank_cells, blank_cells).map(list),
    st.tuples(raw_countries).map(list),
    st.tuples(raw_countries, raw_years).map(list),
    st.tuples(raw_countries, raw_years, raw_values).map(list),
    st.tuples(raw_countries, raw_years, raw_values).map(list),
    st.tuples(raw_countries, raw_years, raw_values, raw_values).map(list),
) | st.tuples(plain_countries, plain_years, plain_values).map(list)  # half the rows plain
raw_aliases = st.none() | st.dictionaries(
    st.sampled_from(["Croatia", "Atlantis", "", "POL", "HRV"]),
    st.sampled_from(["HRV", "POL", "", "ZZZ"]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(raw_rows, st.sampled_from(["\n", "\r\n", "\r"])), max_size=25),
    raw_aliases,
    st.sampled_from(["gdp", "GDP_pc", "gci", "balance"]),
)
def test_load_panel_matches_reference_loader(rows, aliases, indicator):
    text = "country,year,value\n" + "".join(",".join(row) + end for row, end in rows)
    assert _outcome(lambda: _load(text, indicator, aliases=aliases)) == _outcome(
        lambda: reference_load_panel(text, indicator, aliases)
    )


@pytest.mark.parametrize("repeats", [(), ("before",), ("after",), ("before", "after")])
def test_rows_across_a_block_edge_match_reference_loader(repeats):
    # 30,000 lines of 19 characters, many blocks of lines, in no (country, year) order
    lines = [f"C{i % 997:04d},{1900 + i // 997},{10.5 + i % 89:.4f}\n" for i in range(30_000)]
    edge = -(-_BLOCK_CHARS // len(lines[0]))  # lines in the first block
    for k in (edge - 1, edge):  # a malformed row on each side of the edge
        lines[k] = lines[k][:-4] + "x00\n"
    if "before" in repeats:  # the key of line 0 again, just before the edge
        lines[edge - 2] = lines[0][:11] + lines[edge - 2][11:]
    if "after" in repeats:  # the key of a line just before the edge again, just after it
        lines[edge + 1] = lines[edge - 3][:11] + lines[edge + 1][11:]
    text = "country,year,value\n" + "".join(lines)
    outcome = _outcome(lambda: _load(text, "gdp"))
    assert outcome == _outcome(lambda: reference_load_panel(text, "gdp"))
    if repeats:
        assert outcome[0] == "duplicate"
    else:
        assert outcome[1] == 2


@pytest.mark.parametrize("repeats", [(), ("after",)])
@pytest.mark.parametrize("form", ["crlf", "cr", "quoted", "long"])
def test_rows_across_a_csv_chunk_edge_match_reference_loader(form, repeats):
    # csv reads the rest of the file from the first block that holds a CR or a quote or
    # is over 2 * _BLOCK_CHARS long, _BLOCK rows at a time: CRLF or CR ends from the first
    # block on, a quote or a row of 2 * _BLOCK_CHARS characters (skipped) in the second
    lines = [f"C{i % 997:04d},{1900 + i // 997},{10.5 + i % 89:.4f}\n" for i in range(30_000)]
    start = 0 if form in ("crlf", "cr") else -(-_BLOCK_CHARS // len(lines[0]))
    if form in ("crlf", "cr"):
        lines = [line[:-1] + {"crlf": "\r\n", "cr": "\r"}[form] for line in lines]
    elif form == "quoted":
        lines[start + 5] = '"' + lines[start + 5][:5] + '"' + lines[start + 5][5:]
    else:
        lines[start + 5] = "x," * _BLOCK_CHARS + "\n"
    edge = start + _BLOCK  # the first row of csv's second chunk
    for k in (edge - 1, edge):  # a malformed row on each side of the edge
        lines[k] = lines[k].replace(",", ",x", 1)
    if "after" in repeats:  # the key of a row just before the edge again, just after it
        lines[edge + 1] = lines[edge - 3][:11] + lines[edge + 1][11:]
    text = "country,year,value\n" + "".join(lines)
    outcome = _outcome(lambda: _load(text, "gdp"))
    assert outcome == _outcome(lambda: reference_load_panel(text, "gdp"))
    if repeats:
        assert outcome[0] == "duplicate"
    else:
        assert outcome[1] == 2 + (form == "long")


def test_plain_values_load_bit_identical_to_float():
    rng = np.random.default_rng(2012)
    n = 10**5
    digits = rng.integers(0, 10, size=(n, 25)).astype(str)
    texts = []
    for k in range(n):
        if k % 2:  # the shortest repr of a float written without an exponent
            texts.append(repr(float(rng.choice([-1, 1]) * 10 ** rng.uniform(-4, 16))))
        else:  # 1-25 digits, a point anywhere or none, an optional minus
            number = "".join(digits[k, : rng.integers(1, 26)])
            point = int(rng.integers(-1, len(number) + 1))
            if point >= 0:
                number = number[:point] + "." + number[point:]
            texts.append(("-" if rng.random() < 0.3 else "") + number)
    text = "country,year,value\n" + "".join(
        f"C{k // 100:04d},{1900 + k % 100},{v}\n" for k, v in enumerate(texts))
    body = np.frombuffer(text.encode()[len("country,year,value\n"):], np.uint8)
    assert _plain_lines(body).all()  # every row goes through numpy's tokenizer
    panel, skipped = _load(text, "cpi")
    assert skipped == 0 and len(panel) == n
    expected = np.array([float(v) for v in texts])
    assert np.array_equal(panel.values.view(np.uint64), expected.view(np.uint64))


# names as load_panel keeps them (stripped, non-empty), often holding CSV specials
stripped_names = (
    st.text(
        st.one_of(st.sampled_from(',"\r\n \u00c5'), st.characters(exclude_categories=("Cs",))),
        min_size=1,
        max_size=6,
    )
    .map(str.strip)
    .filter(bool)
)


def _quoted(field):
    return '"' + field.replace('"', '""') + '"'


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(stripped_names, st.integers(min_value=-3000, max_value=3000)),
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    ),
    st.lists(stripped_names, unique=True, max_size=6),
    st.lists(st.sampled_from(["\n", "  \n", "\r\n"]), max_size=30),
)
def test_ingest_then_reload_is_identity(obs, sources, blank_lines):
    codes = sorted({c for c, _ in obs})
    # each aliased code appears in the input only under its source name
    sources = [name for name in sources if name not in codes]
    aliases = dict(zip(sources, codes))
    raw_name = {code: source for source, code in aliases.items()}
    with tempfile.TemporaryDirectory() as tmp:
        raw, alias_file, dump = (Path(tmp) / name for name in ("raw.csv", "alias.csv", "dump.csv"))
        alias_file.write_text(
            "source_name,iso3\n"
            + "".join(f"{_quoted(s)},{_quoted(c)}\n" for s, c in aliases.items()),
            encoding="utf-8-sig",
        )
        rows = [f"{_quoted(raw_name.get(c, c))},{y},{v!r}\n" for (c, y), v in obs.items()]
        for i, blank in enumerate(blank_lines):
            rows.insert(i % (len(rows) + 1), blank)
        raw.write_text("country,year,value\n" + "".join(rows), encoding="utf-8-sig", newline="")

        panel, skipped = load_panel(raw, "cpi", aliases=load_alias_map(alias_file))
        assert skipped == 0
        assert {k: v.hex() for k, v in observations(panel).items()} == {
            k: v.hex() for k, v in obs.items()
        }
        dump.write_text(serialize_panel(panel), encoding="utf-8")
        reloaded, skipped = load_panel(dump, "cpi")
    assert skipped == 0
    assert {k: v.hex() for k, v in observations(reloaded).items()} == {
        k: v.hex() for k, v in obs.items()
    }


def reference_serialize_panel(panel):
    """The canonical dump as one sort of every (country, year) key, codes quoted where needed."""
    obs = observations(panel)
    code = {c: _quoted(c) if set(c) & set(',"\r\n') else c for c, _ in obs}
    rows = (f"{code[c]},{y},{obs[c, y]!r}\n" for c, y in sorted(obs))
    return "country,year,value\n" + "".join(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        # codes that are prefixes of each other, and non-ASCII ones
        st.tuples(st.sampled_from(["A", "A0", "AB", "AA", "B", "a", "\u00c5", "\u65e5\u672c"]),
                  st.integers(min_value=1990, max_value=2001)),
        values,
        max_size=40,
    )
)
def test_serialize_matches_one_sort_of_all_keys(obs):
    panel = from_mapping("gdp", obs)
    assert serialize_panel(panel) == reference_serialize_panel(panel)


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_serialize_across_block_boundaries(n):
    codes = ["Korea, Rep.", 'Q"x', "L\nF", "C\rR", "AAA", "\u00c5"]
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    rows = range(n)[::-1]  # the panel sorts them
    panel = IndicatorPanel("cpi", [codes[k % len(codes)] for k in rows],
                           [1000 + k // len(codes) for k in rows], values.tolist())
    assert len(panel) == n
    assert serialize_panel(panel) == reference_serialize_panel(panel)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.sampled_from(["AAA", "BBB", "CCC", "DDD"]),
                  st.integers(min_value=1995, max_value=2005)),
        values,
        min_size=1,
        max_size=44,
    )
)
def test_balanced_subset_keeps_exactly_the_complete_countries(obs):
    span = range(1998, 2003)  # observations reach outside the span on both sides
    panel = from_mapping("gdp", obs)
    complete = sorted({c for c, _ in obs if all((c, y) in obs for y in span)})
    if not complete:
        with pytest.raises(DataError, match="^no country has complete gdp coverage for 1998-2002"):
            balanced_subset(panel, (span[0], span[-1]))
        return
    balanced = balanced_subset(panel, (span[0], span[-1]))
    assert balanced.countries == tuple(complete)
    assert balanced.values.tolist() == [[obs[c, y] for y in span] for c in complete]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([1.5, 2.0, 0.0, -1.0, math.nan, math.inf, -math.inf]),
             min_size=1, max_size=8),
    st.sampled_from(["gdp", "idx"]),
)
def test_panel_reports_first_bad_value_in_insertion_order(values_in_order, indicator):
    obs = {(f"C{k}", 2000 + k): v for k, v in enumerate(values_in_order)}
    positive = indicator == "gdp"
    bad = [(k, v) for k, v in enumerate(values_in_order)
           if not (math.isfinite(v) and (v > 0 or not positive))]
    if not bad:
        from_mapping(indicator, obs)
        return
    k, v = bad[0]
    kind = "nonpositive" if math.isfinite(v) else "non-finite"
    with pytest.raises(DataError) as exc:
        from_mapping(indicator, obs)
    assert str(exc.value) == f"{kind} {indicator} value {v!r} for (C{k}, {2000 + k})"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "A0", "AB", "B", "a", "Å"]),
            # years beyond int64 make the years column an object column
            st.integers(min_value=1990, max_value=1994) | st.sampled_from([-(10**20), 10**20]),
        ),
        max_size=30,
    )
)
def test_columns_are_the_sorted_rows_of_any_input_order(keys):
    rows = [(c, y, float(k + 1)) for k, (c, y) in enumerate(keys)]
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    repeats = [key for k, key in enumerate(keys) if key in keys[:k]]
    if repeats:  # the earliest row in input order whose key came before
        with pytest.raises(DataError) as exc:
            IndicatorPanel("gdp", *columns)
        (c, y), *_ = repeats
        assert str(exc.value) == f"duplicate observation for (country={c}, year={y}, indicator=gdp)"
        return
    panel = IndicatorPanel("gdp", *columns)
    assert panel.codes == tuple(sorted({c for c, _ in keys}))
    codes = [panel.codes[i] for i in panel.country.tolist()]
    assert list(zip(codes, panel.years.tolist(), panel.values.tolist())) == sorted(rows)


def test_unequal_column_lengths_are_alignment_error():
    with pytest.raises(DataError, match="differ in length: 2 countries, 1 years, 2 values$"):
        IndicatorPanel("gdp", ["AAA", "BBB"], [2000], [1.0, 2.0])


def test_balanced_string_matrix_is_data_error():
    with pytest.raises(DataError, match=r"^value matrix: could not convert string to float: .*'a'"):
        BalancedPanel(("A",), range(2000, 2001), np.array([["a"]]))


def test_balanced_values_from_a_list_are_float64():
    panel = BalancedPanel(("A",), range(2000, 2002), [[1, 2.5]])
    assert panel.values.dtype == np.float64
    assert panel.values.tolist() == [[1.0, 2.5]]


def test_panel_string_value_is_data_error():
    with pytest.raises(DataError, match=r"^value column holds 'x', not a real number$"):
        IndicatorPanel("gdp", ["A"], [2000], ["x"])


def test_panel_fractional_year_is_data_error():
    # numpy's int64 conversion would read 2000.7 as 2000
    with pytest.raises(DataError, match=r"^year column holds 2000\.7, not an integer$"):
        IndicatorPanel("gdp", ["A", "A"], [1999, 2000.7], [1.0, 2.0])


def test_panel_columns_are_read_only():
    panel = _panel([("AAA", 2000, 1.0), ("AAA", 2001, 2.0)])
    for column in (panel.country, panel.years, panel.values):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]


def test_balanced_shape_must_match_countries_and_years():
    with pytest.raises(DataError, match=re.escape(
            "value matrix shape (2, 2) does not match 1 countries x 2 years")):
        BalancedPanel(countries=("AAA",), years=(2000, 2001), values=np.ones((2, 2)))


def test_balanced_values_must_be_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(DataError, match="balanced panel contains non-finite values"):
            BalancedPanel(countries=("AAA",), years=(2000, 2001), values=np.array([[1.0, bad]]))


def test_balanced_values_are_read_only():
    balanced = balanced_subset(_panel([("AAA", 2000, 1.0), ("AAA", 2001, 2.0)]), (2000, 2001))
    with pytest.raises(ValueError, match="read-only"):
        balanced.values[0, 0] = math.nan
    assert np.all(np.isfinite(balanced.values))
    source = np.ones((1, 1))
    held = BalancedPanel(countries=("AAA",), years=(2000,), values=source)
    source[0, 0] = 2.0  # the caller's array stays writable, and the panel keeps its copy
    assert held.values[0, 0] == 1.0



@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(values, values), min_size=1, max_size=8), st.data())
def test_growth_column_matches_the_scalar_rule(pairs, data):
    # the column equals the per-country arithmetic bit for bit, in rows order
    balanced = BalancedPanel(countries=tuple(f"C{i}" for i in range(len(pairs))),
                             years=(2000, 2001), values=np.array(pairs))
    rows = data.draw(st.lists(st.integers(0, len(pairs) - 1), max_size=8), label="rows")
    for method, scalar in [("log", lambda a, b: math.log(b / a)),
                           ("relative", lambda a, b: (b - a) / a)]:
        assert growth_rate(balanced, rows, method).tolist() == [scalar(*pairs[i]) for i in rows]

def test_load_then_serialize_peak_memory_per_observation(tmp_path):
    # 1,000 countries x 60 years, every row kept
    rng = np.random.default_rng(20260)
    n_countries, n_years = 1_000, 60
    gdp = rng.lognormal(8.0, 2.0, size=(n_countries, n_years)).tolist()
    path = tmp_path / "gdp.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("country,year,value\n")
        for i, row in enumerate(gdp):
            handle.writelines(f"C{i:04d},{1951 + j},{v!r}\n" for j, v in enumerate(row))
    n = n_countries * n_years
    tracemalloc.start()
    try:
        panel, skipped = load_panel(path, "gdp")
        text = serialize_panel(panel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(panel), skipped) == (n, 0)
    assert text == path.read_text(encoding="utf-8")
    assert peak / n < 250, f"{peak / n:.0f} B per observation"


def test_load_crlf_then_serialize_peak_memory_per_observation(tmp_path):
    # the same panel with CRLF line ends, which csv and the row rules read in bounded chunks
    rng = np.random.default_rng(20260)
    gdp = rng.lognormal(8.0, 2.0, size=(1_000, 60)).tolist()
    body = "country,year,value\n" + "".join(
        f"C{i:04d},{1951 + j},{v!r}\n" for i, row in enumerate(gdp) for j, v in enumerate(row))
    path = tmp_path / "gdp.csv"
    path.write_bytes(body.replace("\n", "\r\n").encode("utf-8"))
    n = 1_000 * 60
    tracemalloc.start()
    try:
        panel, skipped = load_panel(path, "gdp")
        text = serialize_panel(panel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(panel), skipped) == (n, 0)
    assert text == body
    assert peak / n < 250, f"{peak / n:.0f} B per observation"


@pytest.mark.parametrize("field", [1 << 22, 40])
def test_an_over_long_line_peaks_below_six_times_its_length(field, tmp_path):
    # a 4 MiB line between plain rows: one field past csv's field limit, or a skipped
    # row of 40-character fields; the reader holds a few copies of it, and no per-byte index
    n = 1 << 22
    path = tmp_path / "gdp.csv"
    path.write_text("country,year,value\nAAA,2000,1.5\n" + ("x" * (field - 1) + ",") * (n // field)
                    + "\nAAA,2001,1.7\n", encoding="utf-8")
    tracemalloc.start()
    try:
        if field > csv.field_size_limit():
            with pytest.raises(DataError, match="field larger than field limit"):
                load_panel(path, "gdp")
        else:
            panel, skipped = load_panel(path, "gdp")
            assert (len(panel), skipped) == (2, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * n, f"{peak / n:.1f} times the line length"
