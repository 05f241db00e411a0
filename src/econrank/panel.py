"""Country-year panels of one indicator: CSV ingestion, balancing, growth rates.

An :class:`IndicatorPanel` holds the sparse (country, year) -> value
observations of one indicator; callers read ``observations`` directly. A
:class:`BalancedPanel` is the dense countries x years matrix of the
countries that have a value for every year of a requested range. Every
value is finite, and values of gdp-like indicators are strictly positive.
Both are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Mapping

import numpy as np

from .errors import (
    DataError,
    DomainError,
    DuplicateObservationError,
    EmptyPanelError,
    MissingObservationError,
    ParameterError,
)

PANEL_HEADER = ("country", "year", "value")
ALIAS_HEADER = ("source_name", "iso3")

def _is_gdp_like(indicator: str) -> bool:
    """Indicators carrying 'gdp' in the name must be strictly positive."""
    return "gdp" in indicator.lower()


def _is_valid(value: float, positive: bool) -> bool:
    """The value rule: finite, and strictly positive when ``positive``."""
    return math.isfinite(value) and (value > 0 or not positive)


@dataclass(frozen=True)
class IndicatorPanel:
    """Sparse mapping (country, year) -> value of one indicator.

    Keying ``observations`` by the pair enforces uniqueness by construction.
    """

    indicator: str
    observations: Mapping[tuple[str, int], float]

    def __post_init__(self) -> None:
        positive = _is_gdp_like(self.indicator)
        values = np.fromiter(self.observations.values(), float, len(self.observations))
        ok = np.isfinite(values)
        if positive:
            ok &= values > 0
        if ok.all():
            return
        # only the message needs the first bad value in insertion order
        for (country, year), value in self.observations.items():
            if not _is_valid(value, positive):
                kind = "nonpositive" if math.isfinite(value) else "non-finite"
                raise DataError(
                    f"{kind} {self.indicator} value {value!r} for ({country}, {year})"
                )

    def __len__(self) -> int:
        return len(self.observations)

    def years(self) -> list[int]:
        return sorted({y for _, y in self.observations})


@dataclass(frozen=True)
class BalancedPanel:
    """Dense countries x years value matrix with no gaps.

    Country order is lexicographic by code; years ascend. ``values[i, j]``
    is the value of ``countries[i]`` in ``years[j]``.
    """

    countries: tuple[str, ...]
    years: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.countries), len(self.years)):
            raise DataError(
                f"value matrix shape {self.values.shape} does not match "
                f"{len(self.countries)} countries x {len(self.years)} years"
            )
        if list(self.countries) != sorted(self.countries):
            raise DataError("countries must be sorted lexicographically")
        if not np.all(np.isfinite(self.values)):
            raise DataError("balanced panel contains non-finite values")

    @property
    def n_countries(self) -> int:
        return len(self.countries)

    def country_index(self, country: str) -> int:
        i = bisect.bisect_left(self.countries, country)
        if i == len(self.countries) or self.countries[i] != country:
            raise MissingObservationError(f"country {country!r} not in panel")
        return i

    def year_index(self, year: int) -> int:
        try:
            return self.years.index(year)
        except ValueError:
            raise MissingObservationError(f"year {year} not in panel") from None

    def value(self, country: str, year: int) -> float:
        return float(self.values[self.country_index(country), self.year_index(year)])


@contextlib.contextmanager
def _csv_rows(source: str | Path | IO[str]) -> Iterator[Iterator[list[str]]]:
    """CSV rows of ``source``; undecodable text or an oversized field is a DataError."""
    if isinstance(source, (str, Path)):
        source = open(source, "r", encoding="utf-8-sig", newline="")
    else:
        source = contextlib.nullcontext(source)
    with source as stream:
        try:
            yield csv.reader(stream)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"cannot read {getattr(stream, 'name', 'CSV input')}: {exc}") from None


def load_alias_map(source: str | Path | IO[str]) -> dict[str, str]:
    """Read a ``source_name,iso3`` CSV into a rename mapping.

    A ``source_name`` may repeat only with the same ``iso3``.
    """
    with _csv_rows(source) as reader:
        header = next(reader, None)
        if header is None or tuple(h.strip().lower() for h in header) != ALIAS_HEADER:
            raise DataError(
                f"alias file header must be {','.join(ALIAS_HEADER)!r}, got {header!r}"
            )
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
    rows for the indicator are a hard error.
    """
    with _csv_rows(source) as reader:
        header = next(reader, None)
        if header is None or tuple(h.strip().lower() for h in header) != PANEL_HEADER:
            raise DataError(
                f"header must be {','.join(PANEL_HEADER)!r}, got {header!r}"
            )
        positive = _is_gdp_like(indicator)
        alias = (aliases or {}).get
        obs: dict[tuple[str, int], float] = {}
        skipped = 0
        for row in reader:
            if len(row) == 3 and (country := alias(c := row[0].strip(), c)):
                try:
                    year, value = int(row[1]), float(row[2])
                except ValueError:
                    pass
                else:
                    if _is_valid(value, positive):
                        key = (country, year)
                        if key in obs:
                            raise DuplicateObservationError(
                                f"duplicate observation for (country={country}, "
                                f"year={year}, indicator={indicator})"
                            )
                        obs[key] = value
                        continue
            # every rejected row lands here, including a whitespace-only row that an
            # alias for "" let through; blank lines are not data rows, so not counted
            if any(cell.strip() for cell in row):
                skipped += 1
        return IndicatorPanel(indicator, obs), skipped


def serialize_panel(panel: IndicatorPanel) -> str:
    """Canonical CSV dump, sorted by (country, year).

    Values are written with ``repr`` so reloading reproduces the exact
    observation set (shortest round-trip representation).
    """
    by_country: dict[str, dict[int, float]] = {}
    for (c, y), v in panel.observations.items():
        by_country.setdefault(c, {})[y] = v
    lines = [",".join(PANEL_HEADER) + "\n"]
    for c in sorted(by_country):
        years = by_country[c]
        lines += [f"{c},{y},{years[y]!r}\n" for y in sorted(years)]
    return "".join(lines)


def balanced_subset(panel: IndicatorPanel, years: tuple[int, int]) -> BalancedPanel:
    """Countries of ``panel`` with a value for every year of the inclusive range.

    Raises EmptyPanelError when no country is complete.
    """
    start, end = int(years[0]), int(years[1])
    if start > end:
        raise ParameterError(f"empty year range {start}:{end}")
    span = range(start, end + 1)
    obs = panel.observations
    # keys are unique: complete means end - start + 1 years in span (len(span) can overflow)
    counts = Counter([c for c, y in obs if y in span])
    complete = sorted(c for c, n in counts.items() if n == end - start + 1)
    if not complete:
        raise EmptyPanelError(
            f"no country has complete {panel.indicator} coverage for {start}-{end}"
        )
    values = np.array([[obs[c, y] for y in span] for c in complete], dtype=float)
    return BalancedPanel(countries=tuple(complete), years=tuple(span), values=values)


def growth_rate(
    panel: BalancedPanel,
    country: str,
    t0: int,
    t1: int,
    method: str = "log",
) -> float:
    """Growth of a country's value from ``t0`` to ``t1``.

    ``method='log'`` returns ln(v1/v0); ``method='relative'`` returns
    (v1 - v0)/v0. Values must be strictly positive, and v1/v0 must neither
    overflow nor, for log growth, underflow to 0.
    """
    if t0 >= t1:
        raise ParameterError(f"growth window must satisfy t0 < t1, got {t0}:{t1}")
    if method not in ("log", "relative"):
        raise ParameterError(f"unknown growth method {method!r}")
    v0 = panel.value(country, t0)
    v1 = panel.value(country, t1)
    if v0 <= 0 or v1 <= 0:
        raise DomainError(
            f"growth of {country} needs positive values, got {v0!r} -> {v1!r}"
        )
    growth = math.log(v1 / v0 or math.nan) if method == "log" else (v1 - v0) / v0
    if not math.isfinite(growth):  # v1/v0 overflowed, or underflowed to 0 under the log
        raise DomainError(f"growth of {country} needs v1/v0 in float range, got {v0!r} -> {v1!r}")
    return growth

