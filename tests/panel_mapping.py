"""Mapping views of an indicator panel, and a balanced panel from its matrix, for the tests.

``econrank.panel.IndicatorPanel`` stores its observations as sorted columns;
these helpers build one from a (country, year) -> value mapping and read one
back as such a mapping. ``balanced`` builds a ``BalancedPanel`` the one way the
library does, through ``balanced_subset``.
"""

from typing import Mapping, Sequence

import numpy as np

from econrank.panel import BalancedPanel, IndicatorPanel, balanced_subset


def from_mapping(indicator: str, obs: Mapping[tuple[str, int], float]) -> IndicatorPanel:
    """The panel of ``obs``, its rows passed in the mapping's order."""
    return IndicatorPanel(indicator, [c for c, _ in obs], [y for _, y in obs], list(obs.values()))


def observations(panel: IndicatorPanel) -> dict[tuple[str, int], float]:
    """(country, year) -> value of every row, in the panel's (country, year) order."""
    rows = zip(panel.country.tolist(), panel.years.tolist(), panel.values.tolist())
    return {(panel.codes[i], y): v for i, y, v in rows}


def balanced(codes: Sequence[str], years: range, matrix: object) -> BalancedPanel:
    """The balanced panel whose row i is ``codes[i]`` (ascending) over ``years``: the
    ``balanced_subset`` over ``years`` of the panel of every cell of ``matrix``."""
    cells = np.asarray(matrix, dtype=float)
    panel = IndicatorPanel("value", [c for c in codes for _ in years],
                           [y for _ in codes for y in years], cells.ravel().tolist())
    result = balanced_subset(panel, (years[0], years[-1]))
    assert result.countries == tuple(codes) and result.values.shape == cells.shape
    return result
