"""Row view of a rank-change sample, kept for the tests.

``econrank.rankdyn.RankChangeSample`` stores the deltas as one flat array;
this module spells out which (country, window) each delta belongs to.
"""

from itertools import product

from econrank.rankdyn import RankChangeSample


def records(sample: RankChangeSample) -> list[tuple[str, int, int, int]]:
    """(country, start_year, end_year, delta) rows in ``deltas`` order."""
    pairs = product(sample.windows, sample.countries)
    return [(c, t0, t1, d) for ((t0, t1), c), d in zip(pairs, sample.deltas.tolist())]
