"""Mapping views of an indicator panel, kept for the tests.

``econrank.panel.IndicatorPanel`` stores its observations as sorted columns;
these helpers build one from a (country, year) -> value mapping and read one
back as such a mapping.
"""

from typing import Mapping

from econrank.panel import IndicatorPanel


def from_mapping(indicator: str, obs: Mapping[tuple[str, int], float]) -> IndicatorPanel:
    """The panel of ``obs``, its rows passed in the mapping's order."""
    return IndicatorPanel(indicator, [c for c, _ in obs], [y for _, y in obs], list(obs.values()))


def observations(panel: IndicatorPanel) -> dict[tuple[str, int], float]:
    """(country, year) -> value of every row, in the panel's (country, year) order."""
    rows = zip(panel.country.tolist(), panel.years.tolist(), panel.values.tolist())
    return {(panel.codes[i], y): v for i, y, v in rows}
