"""Country-year panels of one indicator: CSV ingestion, balancing, growth rates.

An :class:`IndicatorPanel` holds the sparse observations of one indicator
as row-aligned columns sorted by (country, year), one row per (country,
year) pair; its constructor owns the value and duplicate rules. A
:class:`BalancedPanel` is the dense countries x years matrix of the
countries that have a value for every year of a requested range. Every
value is finite, and values of gdp-like indicators are strictly positive.
Both are immutable after construction (their arrays are read-only) and
safe to share across threads. :func:`serialize_panel` writes each value's
exact ``%r`` through the row writer that every CSV shares (see outputs).
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DataError,
    DomainError,
    DuplicateObservationError,
    EmptyPanelError,
    MissingObservationError,
    ParameterError,
)
from .outputs import _format_rows, _quote

PANEL_HEADER = ("country", "year", "value")
ALIAS_HEADER = ("source_name", "iso3")


def _is_gdp_like(indicator: str) -> bool:
    """Indicators carrying 'gdp' in the name must be strictly positive."""
    return "gdp" in indicator.lower()


@dataclass(frozen=True, eq=False, init=False)
class IndicatorPanel:
    """One indicator's observations as read-only columns sorted by (country, year).

    Built from three row-aligned columns (country, year, value) in any order.
    ``codes`` holds the distinct country codes ascending, and row k is
    ``codes[country[k]]`` in ``years[k]`` with ``values[k]``. ``years`` is
    int64, or an object column of Python ints when a year does not fit int64.
    """

    indicator: str
    codes: tuple[str, ...]
    country: np.ndarray
    years: np.ndarray
    values: np.ndarray

    def __init__(self, indicator: str, countries: Sequence[str], years: Sequence[int],
                 values: Sequence[float]) -> None:
        n = len(countries)
        if not len(years) == len(values) == n:
            raise AlignmentError(f"columns differ in length: {n} countries, "
                                 f"{len(years)} years, {len(values)} values")
        values = np.array(values, dtype=float)
        bad = ~np.isfinite(values)
        if _is_gdp_like(indicator):
            bad |= values <= 0
        if bad.any():  # name the first bad value in input order
            k = int(bad.argmax())
            kind = "nonpositive" if math.isfinite(values[k]) else "non-finite"
            raise DataError(
                f"{kind} {indicator} value {float(values[k])!r} for ({countries[k]}, {years[k]})"
            )
        try:
            years = np.array(years, dtype=np.int64)
        except OverflowError:  # numpy compares and sorts Python ints in an object column
            years = np.array(years, dtype=object)
        codes = sorted(set(countries))
        index = {code: i for i, code in enumerate(codes)}
        country = np.fromiter(map(index.__getitem__, countries), np.intp, n)
        order = np.lexsort((years, country))  # stable: equal keys keep input order
        country, years, values = country[order], years[order], values[order]
        repeat = np.flatnonzero((country[1:] == country[:-1]) & (years[1:] == years[:-1])) + 1
        if repeat.size:  # name the earliest row in input order whose key came before
            k = repeat[order[repeat].argmin()]
            raise DuplicateObservationError(
                f"duplicate observation for (country={codes[country[k]]}, "
                f"year={years[k]}, indicator={indicator})"
            )
        for column in (country, years, values):
            column.flags.writeable = False
        for name, field in [("indicator", indicator), ("codes", tuple(codes)),
                            ("country", country), ("years", years), ("values", values)]:
            object.__setattr__(self, name, field)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BalancedPanel:
    """Dense countries x years value matrix with no gaps.

    Country codes ascend strictly and ``years`` is one contiguous ascending
    ``range``. ``values[i, j]`` is the value of ``countries[i]`` in ``years[j]``.
    """

    countries: tuple[str, ...]
    years: range  # a consecutive ascending sequence passed in is stored as its range
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.countries), len(self.years)):
            raise DataError(
                f"value matrix shape {self.values.shape} does not match "
                f"{len(self.countries)} countries x {len(self.years)} years"
            )
        years = range(start := next(iter(self.years), 0), start + len(self.years))
        if list(self.years) != list(years):
            raise DataError(f"years must run consecutively upward, got {list(self.years)}")
        object.__setattr__(self, "years", years)
        for a, b in zip(self.countries, self.countries[1:]):
            if a >= b:
                raise DataError(f"country codes must ascend strictly; {b!r} follows {a!r}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("balanced panel contains non-finite values")
        values = np.array(self.values)  # a read-only copy; the caller's array stays its own
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_countries(self) -> int:
        return len(self.countries)

    def year_index(self, year: int) -> int:
        try:
            return self.years.index(year)
        except ValueError:
            raise MissingObservationError(f"year {year} not in panel") from None

    def value(self, country: str, year: int) -> float:
        i = bisect.bisect_left(self.countries, country)
        if i == len(self.countries) or self.countries[i] != country:
            raise MissingObservationError(f"country {country!r} not in panel")
        return float(self.values[i, self.year_index(year)])


@contextlib.contextmanager
def _csv_rows(
    source: str | Path | IO[str], header: tuple[str, ...]
) -> Iterator[Iterator[list[str]]]:
    """Rows of ``source`` after its ``header``; a bad header or unreadable text is a DataError."""
    if isinstance(source, (str, Path)):
        source = open(source, "r", encoding="utf-8-sig", newline="")
    else:
        source = contextlib.nullcontext(source)
    with source as stream:
        name = getattr(stream, "name", "CSV input")
        try:
            reader = csv.reader(stream)
            first = next(reader, None)
            if first is None or tuple(h.strip().lower() for h in first) != header:
                raise DataError(f"header of {name} must be {','.join(header)!r}, got {first!r}")
            yield reader
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"cannot read {name}: {exc}") from None


def load_alias_map(source: str | Path | IO[str]) -> dict[str, str]:
    """Read a ``source_name,iso3`` CSV into a rename mapping.

    A ``source_name`` may repeat only with the same ``iso3``.
    """
    with _csv_rows(source, ALIAS_HEADER) as reader:
        aliases: dict[str, str] = {}
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise DataError(f"alias row must have 2 fields, got {row!r}")
            name, iso3 = row[0].strip(), row[1].strip()
            if aliases.setdefault(name, iso3) != iso3:
                raise DataError(
                    f"alias {name!r} maps to both {aliases[name]!r} and {iso3!r}"
                )
        return aliases


def load_panel(
    source: str | Path | IO[str],
    indicator: str,
    aliases: Mapping[str, str] | None = None,
) -> tuple[IndicatorPanel, int]:
    """Load one indicator from a ``country,year,value`` CSV.

    Rows whose value field is empty, non-numeric, or non-finite are skipped
    and counted; so are rows with a malformed year, a blank country, or the
    wrong field count, and nonpositive values of gdp-like indicators. The
    skip count is returned alongside the panel. Duplicate (country, year)
    rows for the indicator are a hard error, raised once the whole file is read.
    """
    with _csv_rows(source, PANEL_HEADER) as reader:
        positive = _is_gdp_like(indicator)
        alias = (aliases or {}).get
        countries: list[str] = []
        years: list[int] = []
        values: list[float] = []
        skipped = 0
        interned: dict[str | int, str | int] = {}  # rows share one object per code and year
        for row in reader:
            if len(row) == 3 and (country := alias(c := row[0].strip(), c)):
                try:
                    year, value = int(row[1]), float(row[2])
                except ValueError:
                    pass
                else:
                    if math.isfinite(value) and (value > 0 or not positive):  # the value rule
                        countries.append(interned.setdefault(country, country))
                        years.append(interned.setdefault(year, year))
                        values.append(value)
                        continue
            # every rejected row lands here, including a whitespace-only row that an
            # alias for "" let through; blank lines are not data rows, so not counted
            if any(cell.strip() for cell in row):
                skipped += 1
    return IndicatorPanel(indicator, countries, years, values), skipped


def serialize_panel(panel: IndicatorPanel) -> str:
    """Canonical CSV dump, sorted by (country, year).

    Values are written with ``repr`` and codes quoted where CSV needs it, so
    reloading reproduces the exact observation set (shortest round-trip
    representation).
    """
    codes = np.array([_quote(code) for code in panel.codes], dtype=object)[panel.country]
    rows = _format_rows("%s,%s,%r\n", (codes, panel.years, panel.values))
    return ",".join(PANEL_HEADER) + "\n" + "".join(rows)


def balanced_subset(panel: IndicatorPanel, years: tuple[int, int]) -> BalancedPanel:
    """Countries of ``panel`` with a value for every year of the inclusive range.

    Raises EmptyPanelError when no country is complete.
    """
    start, end = int(years[0]), int(years[1])
    if start > end:
        raise ParameterError(f"empty year range {start}:{end}")
    inside = (panel.years >= start) & (panel.years <= end)
    # rows are unique and sorted by (country, year), so a complete country's rows in
    # the span are one run of end - start + 1 years in order (len(span) can overflow)
    complete = np.bincount(panel.country[inside], minlength=len(panel.codes)) == end - start + 1
    if not complete.any():
        raise EmptyPanelError(
            f"no country has complete {panel.indicator} coverage for {start}-{end}"
        )
    values = panel.values[inside & complete[panel.country]].reshape(-1, end - start + 1)
    countries = tuple(panel.codes[i] for i in np.flatnonzero(complete).tolist())
    return BalancedPanel(countries=countries, years=range(start, end + 1), values=values)


def growth_rate(panel: BalancedPanel, rows: Sequence[int], method: str = "log") -> np.ndarray:
    """Growth of the countries at positions ``rows`` from the panel's first year to its last.

    ``method='log'`` gives ln(v1/v0) and ``method='relative'`` (v1 - v0)/v0. Values must
    be strictly positive, and v1/v0 must neither overflow nor, for log growth, underflow
    to 0; the DomainError names the first bad country in ``rows`` order.
    """
    if len(panel.years) < 2:
        raise ParameterError(f"growth needs a window of two years or more, got {len(panel.years)}")
    if method not in ("log", "relative"):
        raise ParameterError(f"unknown growth method {method!r}")
    v0, v1 = panel.values[rows, 0], panel.values[rows, -1]
    with np.errstate(all="ignore"):  # the first bad row is named below
        growth = (v1 - v0) / v0 if method == "relative" else v1 / v0
    if method == "log":  # libm's log of each ratio: np.log may differ in the last bit
        growth = np.array([math.log(r) if r > 0 else math.nan for r in growth.tolist()])
    bad = (v0 <= 0) | (v1 <= 0) | ~np.isfinite(growth)
    if bad.any():
        k = int(bad.argmax())
        a, b = float(v0[k]), float(v1[k])
        need = "positive values" if min(a, b) <= 0 else "v1/v0 in float range"
        raise DomainError(f"growth of {panel.countries[rows[k]]} needs {need}, got {a!r} -> {b!r}")
    return growth
