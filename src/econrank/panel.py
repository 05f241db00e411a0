"""Country-year panels of one indicator: CSV ingestion, balancing, growth rates.

An :class:`IndicatorPanel` holds the sparse observations of one indicator
as row-aligned columns sorted by (country, year), one row per (country,
year) pair; one builder, shared by its constructor and the loader, owns the sort
and duplicate rules. A :class:`BalancedPanel` is the dense countries x years matrix
of the countries that have a value for every year of a requested range. Every value
is finite, and values of gdp-like indicators are strictly positive (the constructor
rejects other values; the loader skips their rows). Both are immutable after
construction (their arrays are read-only) and safe to share across threads.
:func:`load_panel` reads a file's plain lines with numpy's C tokenizer and the rest
by the row rules, to the same outcome. :func:`serialize_panel` writes each value's
exact ``%r`` through the row writer that every CSV shares (see outputs).
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from itertools import chain, compress, islice
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError, ParameterError
from .outputs import _BLOCK, _format_rows, _quote

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
            raise DataError(f"columns differ in length: {n} countries, "
                            f"{len(years)} years, {len(values)} values")
        for name, column, cls, word in (("year", years, numbers.Integral, "an integer"),
                                        ("value", values, numbers.Real, "a real number")):
            if bad := [x for x in column if not isinstance(x, cls)]:  # numpy cuts 2000.7 to 2000
                raise DataError(f"{name} column holds {bad[0]!r}, not {word}")
        codes = sorted(set(countries))
        index = {code: i for i, code in enumerate(codes)}
        country = np.fromiter(map(index.__getitem__, countries), np.intp, n)
        years, values = _year_column(years), np.array(values, dtype=float)
        bad = ~np.isfinite(values)
        if _is_gdp_like(indicator):
            bad |= values <= 0
        if bad.any():  # name the first bad value in input order
            k = int(bad.argmax())
            kind = "nonpositive" if math.isfinite(values[k]) else "non-finite"
            raise DataError(f"{kind} {indicator} value {float(values[k])!r} for "
                            f"({codes[country[k]]}, {years[k]})")
        self._build(indicator, codes, country, years, values)

    def _build(self, indicator: str, codes: list[str], country: np.ndarray, years: np.ndarray,
               values: np.ndarray) -> IndicatorPanel:
        """Take over the columns of rows ``codes[country[k]]``, ``years[k]``, ``values[k]``
        in input order (``codes`` ascending, values valid); apply the sort and duplicate rules."""
        order = None  # rows that already ascend by (country, year) skip the sort
        if not ((country[1:] > country[:-1])
                | (country[1:] == country[:-1]) & (years[1:] >= years[:-1])).all():
            order = np.lexsort((years, country))  # stable: equal keys keep input order
            country, years, values = country[order], years[order], values[order]
        repeat = np.flatnonzero((country[1:] == country[:-1]) & (years[1:] == years[:-1])) + 1
        if repeat.size:  # name the earliest row in input order whose key came before
            k = repeat[0] if order is None else repeat[order[repeat].argmin()]
            raise DataError(f"duplicate observation for (country={codes[country[k]]}, "
                            f"year={years[k]}, indicator={indicator})")
        for column in (country, years, values):
            column.flags.writeable = False
        for name, field in [("indicator", indicator), ("codes", tuple(codes)),
                            ("country", country), ("years", years), ("values", values)]:
            object.__setattr__(self, name, field)
        return self

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class BalancedPanel:
    """Dense countries x years value matrix with no gaps.

    Country codes ascend strictly and ``years`` is one contiguous ascending
    ``range``. ``values[i, j]`` is the value of ``countries[i]`` in ``years[j]``.
    """

    countries: tuple[str, ...]
    years: range  # a consecutive ascending sequence passed in is stored as its range
    values: np.ndarray

    def __post_init__(self) -> None:
        try:  # a read-only float64 copy; the caller's array stays its own
            values = np.array(self.values, dtype=float)
        except (TypeError, ValueError) as exc:  # numpy's message names the entry
            raise DataError(f"value matrix: {exc}") from None
        if values.shape != (len(self.countries), len(self.years)):
            raise DataError(
                f"value matrix shape {values.shape} does not match "
                f"{len(self.countries)} countries x {len(self.years)} years"
            )
        years = range(start := next(iter(self.years), 0), start + len(self.years))
        if list(self.years) != list(years):
            raise DataError(f"years must run consecutively upward, got {list(self.years)}")
        object.__setattr__(self, "years", years)
        for a, b in zip(self.countries, self.countries[1:]):
            if a >= b:
                raise DataError(f"country codes must ascend strictly; {b!r} follows {a!r}")
        if not np.all(np.isfinite(values)):
            raise DataError("balanced panel contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_countries(self) -> int:
        return len(self.countries)

    def year_index(self, year: int) -> int:
        try:
            return self.years.index(year)
        except ValueError:
            raise DataError(f"year {year} not in panel") from None

    def value(self, country: str, year: int) -> float:
        i = bisect.bisect_left(self.countries, country)
        if i == len(self.countries) or self.countries[i] != country:
            raise DataError(f"country {country!r} not in panel")
        return float(self.values[i, self.year_index(year)])


@contextlib.contextmanager
def _csv_body(path: str | Path, header: tuple[str, ...]) -> Iterator[IO[str]]:
    """The UTF-8 file at ``path``, its LF, CRLF or CR line ends kept, read past its ``header``;
    a bad header or unreadable text is a DataError that names the file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as stream:
        try:
            first = next(csv.reader(stream), None)
            if first is None or tuple(h.strip().lower() for h in first) != header:
                raise DataError(f"header of {path} must be {','.join(header)!r}, got {first!r}")
            yield stream
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"cannot read {path}: {exc}") from None


def load_alias_map(path: str | Path) -> dict[str, str]:
    """Read the ``source_name,iso3`` CSV file at ``path`` into a rename mapping.

    A ``source_name`` may repeat only with the same ``iso3``.
    """
    with _csv_body(path, ALIAS_HEADER) as stream:
        aliases: dict[str, str] = {}
        for row in csv.reader(stream):
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


def _year_column(years: Sequence[int]) -> np.ndarray:
    try:
        return np.array(years, dtype=np.int64)
    except OverflowError:  # numpy compares and sorts Python ints in an object column
        return np.array(years, dtype=object)


def _row_rules(rows: Iterable[list[str]], ids: dict[str, int]) -> tuple[list[np.ndarray], int]:
    """The row rules but for aliases and the sign of the value: the (position in ``rows``,
    code id, year, value) columns of the rows kept, new stripped codes given ids, skips."""
    kept, skipped = [], 0
    for k, row in enumerate(rows):
        try:
            year, value = int(row[1]), float(row[2])
        except (IndexError, ValueError):
            value = math.nan
        if len(row) == 3 and math.isfinite(value):
            kept.append((k, ids.setdefault(row[0].strip(), len(ids)), year, value))
        elif any(cell.strip() for cell in row):  # blank lines are not data rows, so not counted
            skipped += 1
    line, code, year, value = ([row[i] for row in kept] for i in range(4))
    return [np.array(line, np.intp), np.array(code, np.intp), _year_column(year),
            np.array(value, dtype=float)], skipped


def _plain_lines(text: np.ndarray) -> np.ndarray:
    """Which newline-ended lines of the bytes ``text`` (no quote, no CR) are plain: a
    code of 1-16 bytes in 0x21-0x7E, a year of 1-18 ASCII digits, and a value of at most
    32 characters, an optional ``-`` then digits with at most one ``.``, one digit at least.
    The row rules strip nothing there; numpy reads year and value as ``int`` and ``float``.
    """
    ends, commas = np.flatnonzero(text == 10), np.flatnonzero(text == 44)
    k = np.searchsorted(commas, ends)
    plain = np.diff(k, prepend=0) == 2
    plain[np.searchsorted(ends, np.flatnonzero((text - 33 > 93) & (text != 10)))] = False
    two = np.flatnonzero(plain)  # lines of two commas and no byte outside 0x21-0x7E
    start = np.where(two > 0, ends[two - 1] + 1, 0)
    end, c1, c2 = ends[two], commas[k[two] - 2], commas[k[two] - 1]
    # of the bytes other than digits, commas and newlines (uint8 arithmetic wraps), only
    # the value's leading '-' and one '.' after it may follow the first comma
    at = np.concatenate(([-1] * 3, np.flatnonzero((text - 48 > 9) & (text != 44) & (text != 10))))
    last = at[np.searchsorted(at, end) - [[1], [2], [3]]]  # each line's last three, or -1
    sign = (text[c2 + 1] == 45).astype(int)
    point = (last[0] > c2) & (text[last[0]] == 46)
    code, year, value = c1 - start, c2 - c1 - 1, end - c2 - 1
    plain[two] = ((code >= 1) & (code <= 16) & (year >= 1) & (year <= 18) & (value <= 32)
                  & ((last > c1).sum(axis=0) == sign + point) & (value > sign + point))
    return plain


_PLAIN = np.dtype([("code", "S16"), ("year", np.int64), ("value", np.float64)])
_BLOCK_CHARS = 1 << 16  # characters of whole lines read per block


def _blocks(stream: IO[str], ids: dict[str, int]) -> Iterator[tuple[list[np.ndarray], int]]:
    """Per block of whole lines, the (code id, year, value) columns of the rows kept, in line
    order, and the skip count. From a block with a quote or CR, or over ``2 * _BLOCK_CHARS``
    long (its last line then outgrows any plain one), csv reads the rest, ``_BLOCK`` rows at a
    time, as it would all. Other blocks split only at LF: one ``_plain_lines`` flag a line."""
    while lines := stream.readlines(_BLOCK_CHARS):
        text = "".join(lines)
        if '"' in text or "\r" in text or len(text) > 2 * _BLOCK_CHARS:
            rows = csv.reader(chain(lines, stream))
            while chunk := list(islice(rows, _BLOCK)):
                (_, *columns), skipped = _row_rules(chunk, ids)
                yield columns, skipped
            return
        plain = _plain_lines(np.frombuffer(
            (text if text.endswith("\n") else text + "\n").encode(), np.uint8))
        (line, *columns), skipped = _row_rules(csv.reader(compress(lines, (~plain).tolist())), ids)
        table = np.zeros(0, _PLAIN) if not plain.any() else np.loadtxt(
            compress(lines, plain.tolist()), _PLAIN, delimiter=",", comments=None, ndmin=1)
        codes = table["code"]  # a code's rows often come in a run: look up only its first
        first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1]))[:len(codes)])
        code = np.repeat(np.array([ids.setdefault(name.decode(), len(ids))
                                   for name in codes[first].tolist()], np.intp),
                         np.diff(first, append=len(codes)))
        order = np.argsort(np.concatenate((np.flatnonzero(plain), np.flatnonzero(~plain)[line])))
        yield [np.concatenate(pair)[order] for pair in zip(
            (code, table["year"], table["value"]), columns)], skipped


def load_panel(
    path: str | Path,
    indicator: str,
    aliases: Mapping[str, str] | None = None,
) -> tuple[IndicatorPanel, int]:
    """Load one indicator from the ``country,year,value`` CSV file at ``path``.

    Rows whose value field is empty, non-numeric, or non-finite are skipped
    and counted; so are rows with a malformed year, a blank country, or the
    wrong field count, and nonpositive values of gdp-like indicators. The
    skip count is returned alongside the panel. Duplicate (country, year)
    rows for the indicator are a hard error, raised once the whole file is read.

    Lines end in LF, CRLF or CR. Plain lines (see ``_plain_lines``) go through numpy's C
    tokenizer and the rest through the row rules, with the same outcome; from a block of
    lines with a quote, a CR or a line over 64 KiB on, csv reads the rest of the file.
    """
    ids: dict[str, int] = {}  # an id per distinct code as read, aliases aside
    parts, skipped = [_row_rules((), ids)[0][1:]], 0
    with _csv_body(path, PANEL_HEADER) as stream:
        for columns, n in _blocks(stream, ids):
            parts.append(columns)
            skipped += n
    country, years, values = (np.concatenate(column) for column in zip(*parts))
    del parts  # free the blocks' columns before the build, which may sort a copy
    named = [(aliases or {}).get(c, c) for c in ids]  # aliases apply once per distinct code
    codes = sorted(set(named) - {""})
    index = {c: i for i, c in enumerate(codes)}
    country = np.array([index.get(c, -1) for c in named], np.intp)[country]  # -1: aliased to ""
    keep = (country >= 0) & ((values > 0) | (not _is_gdp_like(indicator)))  # and the sign rule
    skipped += len(keep) - int(keep.sum())
    country, years, values = country[keep], years[keep], values[keep]
    return IndicatorPanel.__new__(IndicatorPanel)._build(
        indicator, codes, country, years, values), skipped


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

    Raises DataError when no country is complete.
    """
    start, end = int(years[0]), int(years[1])
    if start > end:
        raise ParameterError(f"empty year range {start}:{end}")
    inside = (panel.years >= start) & (panel.years <= end)
    # rows are unique and sorted by (country, year), so a complete country's rows in
    # the span are one run of end - start + 1 years in order (len(span) can overflow)
    complete = np.bincount(panel.country[inside], minlength=len(panel.codes)) == end - start + 1
    if not complete.any():
        raise DataError(f"no country has complete {panel.indicator} coverage for {start}-{end}")
    values = panel.values[inside & complete[panel.country]].reshape(-1, end - start + 1)
    countries = tuple(panel.codes[i] for i in np.flatnonzero(complete).tolist())
    return BalancedPanel(countries=countries, years=range(start, end + 1), values=values)


def growth_rate(panel: BalancedPanel, rows: Sequence[int], method: str = "log") -> np.ndarray:
    """Growth of the countries at positions ``rows`` from the panel's first year to its last.

    ``method='log'`` gives ln(v1/v0) and ``method='relative'`` (v1 - v0)/v0. Values must
    be strictly positive, and v1/v0 must neither overflow nor, for log growth, underflow
    to 0; the NumericalError names the first bad country in ``rows`` order.
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
        raise NumericalError(f"growth of {panel.countries[rows[k]]} needs {need}, "
                             f"got {a!r} -> {b!r}")
    return growth
