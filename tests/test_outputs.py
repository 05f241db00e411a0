"""The columnar CSV renderer: cell formats, block boundaries and quoting."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from econrank.outputs import _BLOCK, render_csv

# text that often holds the characters CSV must quote
FIELD = st.text(
    st.one_of(st.sampled_from(',"\r\n '), st.characters(exclude_categories=("Cs",))),
    max_size=6,
)
KINDS = {
    "float": (st.floats(), list, lambda v: format(v, ".12g")),
    "float_array": (st.floats(), np.array, lambda v: format(v, ".12g")),
    "int": (st.integers(-(10**20), 10**20), list, str),
    "int_array": (st.integers(-(2**63), 2**63 - 1), np.array, str),
    "str": (FIELD, list, str),
}


def parse(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cells_read_back_as_formatted(data):
    n = data.draw(st.sampled_from([0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1]))
    kinds = data.draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=2, max_size=5))
    header = data.draw(st.lists(FIELD, min_size=len(kinds), max_size=len(kinds)))
    columns, expected = [], []
    for kind in kinds:
        values, build, cell = KINDS[kind]
        pool = data.draw(st.lists(values, min_size=1, max_size=8))
        column = [pool[i % len(pool)] for i in range(n)]
        columns.append(build(column))
        expected.append([cell(v) for v in column])
    text = render_csv(header, columns)
    assert parse(text) == [header, *map(list, zip(*expected))]


def test_plain_fields_are_written_as_they_are():
    text = render_csv(("country", "x"), (["AAA", "B-B"], np.array([1.5, 1e16])))
    assert text == "country,x\nAAA,1.5\nB-B,1e+16\n"


def test_fields_are_quoted_only_where_needed():
    text = render_csv(
        ("country", "gdp, current", "n"),
        (["Korea, Rep.", 'Q"x', "AAA", "L\nF", "C\rR"], [1.0, 2.0, 3.0, 4.0, 5.0], range(5)),
    )
    assert text == (
        'country,"gdp, current",n\n'
        '"Korea, Rep.",1,0\n"Q""x",2,1\nAAA,3,2\n"L\nF",4,3\n"C\rR",5,4\n'
    )


def test_unequal_columns_rejected():
    with pytest.raises(ValueError):
        render_csv(("a", "b"), ([1.0, 2.0], [1.0]))
