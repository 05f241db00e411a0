"""Seeded synthetic inputs for the benchmark workloads, and their oracles.

Everything here is derived from the workload seed, so one seed always gives
the same input files. The oracles recompute what the CLI should write from
the generator's own arrays, without importing ``econrank``: they are the
independent reference every benchmarked operation is checked against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Synthetic stress panel: about 2,500 countries x 60 years (~150k rows).
N_COUNTRIES = 2500
YEARS = tuple(range(1951, 2011))
GCI_YEARS = tuple(range(2003, 2011))
GROWTH_WINDOW = (2001, 2010)  # cross-section --years; the fit year is its end
WINDOW = 10  # rank-dynamics --window
GAP_COUNTRY_SHARE = 0.12  # countries with 1-3 missing or malformed gdp years

# fig7 ranges from data/fig7.json; only the shape is scaled per workload.
SWEEP_RANGES = {"mu_range": [5.0, 20.0], "sigma_range": [0.5, 20.0], "gamma": 0.1}

# Rows the loader must skip: one per skip reason it counts.
_BAD_GDP = (
    "{c},{y}",  # field count
    ",{y},123.5",  # blank country
    "{c},{y}x,123.5",  # bad year
    "{c},{y},n/a",  # non-numeric
    "{c},{y},",  # empty value
    "{c},{y},nan",  # non-finite
    "{c},{y},inf",  # non-finite
    "{c},{y},0",  # nonpositive gdp
    "{c},{y},-42.25",  # nonpositive gdp
)
_BAD_GCI = ("{c},{y}", "{c},{y},n/a", "{c},{y},nan")


@dataclass(frozen=True)
class PanelInputs:
    """The two generated panels; NaN marks a cell with no valid row."""

    gdp_csv: Path
    gci_csv: Path
    codes: tuple[str, ...]
    gdp: np.ndarray  # N_COUNTRIES x len(YEARS)
    gci: np.ndarray  # N_COUNTRIES x len(GCI_YEARS)
    rows: int  # data rows in gdp_csv, malformed ones included


def _write_rows(path: Path, lines: list[str], rng: np.random.Generator) -> None:
    order = rng.permutation(len(lines))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("country,year,value\n")
        handle.writelines(lines[i] + "\n" for i in order)


def make_panels(seed: int, work: Path) -> PanelInputs:
    rng = np.random.default_rng([seed, 1])
    codes = tuple(f"K{i:04d}" for i in range(N_COUNTRIES))
    n_years = len(YEARS)
    # Log-income random walks with a wide spread of starting levels.
    log_gdp = rng.uniform(math.log(300), math.log(60000), N_COUNTRIES)[:, None]
    log_gdp = log_gdp + np.cumsum(rng.normal(0.02, 0.06, (N_COUNTRIES, n_years)), axis=1)
    gdp = np.round(np.exp(log_gdp), 3)
    # Countries with gaps: each misses 1-3 years; half of those cells hold a
    # malformed row instead of nothing.
    gdp_lines: list[str] = []
    bad_cells: list[tuple[int, int]] = []
    for i in np.flatnonzero(rng.random(N_COUNTRIES) < GAP_COUNTRY_SHARE):
        for j in rng.choice(n_years, size=int(rng.integers(1, 4)), replace=False):
            gdp[i, j] = np.nan
            if rng.random() < 0.5:
                bad_cells.append((int(i), int(j)))
    for k, (i, j) in enumerate(bad_cells):
        gdp_lines.append(_BAD_GDP[k % len(_BAD_GDP)].format(c=codes[i], y=YEARS[j]))
    for i, code in enumerate(codes):
        for j, year in enumerate(YEARS):
            if not np.isnan(gdp[i, j]):
                gdp_lines.append(f"{code},{year},{float(gdp[i, j])!r}")

    # GCI correlates with income through a noisy power law.
    g0 = YEARS.index(GCI_YEARS[0])
    gci = np.round(
        0.6 * np.exp(0.18 * log_gdp[:, g0:] + rng.normal(0, 0.08, (N_COUNTRIES, len(GCI_YEARS)))),
        4,
    )
    gci_lines: list[str] = []
    missing = rng.random(gci.shape) < 0.03
    gci[missing] = np.nan
    for k, (i, j) in enumerate(list(zip(*np.nonzero(missing)))[::2]):
        gci_lines.append(_BAD_GCI[k % len(_BAD_GCI)].format(c=codes[i], y=GCI_YEARS[j]))
    for i, code in enumerate(codes):
        for j, year in enumerate(GCI_YEARS):
            if not np.isnan(gci[i, j]):
                gci_lines.append(f"{code},{year},{float(gci[i, j])!r}")

    gdp_csv, gci_csv = work / "gdp.csv", work / "gci.csv"
    _write_rows(gdp_csv, gdp_lines, rng)
    _write_rows(gci_csv, gci_lines, rng)
    return PanelInputs(gdp_csv, gci_csv, codes, gdp, gci, len(gdp_lines))


def make_sweep_config(seed: int, work: Path, n_countries: int, n_jobs: int) -> Path:
    path = work / "sweep.json"
    config = {"n_countries": n_countries, "n_jobs": n_jobs, **SWEEP_RANGES, "seed": seed}
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# ---------------------------------------------------------------- oracles


def expected_panel_csv(inputs: PanelInputs) -> str:
    """The canonical ``ingest`` dump: valid rows sorted, values round-tripped."""
    lines = ["country,year,value\n"]
    for i, code in enumerate(inputs.codes):
        for j, year in enumerate(YEARS):
            v = inputs.gdp[i, j]
            if not np.isnan(v):
                lines.append(f"{code},{year},{float(v)!r}\n")
    return "".join(lines)


def expected_deltas_csv(inputs: PanelInputs) -> str:
    """Overlapping-window rank changes of the countries complete in every year.

    Rank 1 is the largest value; ties go to the smaller code.
    """
    complete = np.flatnonzero(~np.isnan(inputs.gdp).any(axis=1))
    values = inputs.gdp[complete]
    ranks = np.empty(values.shape, dtype=np.int64)
    for j in range(values.shape[1]):
        order = np.lexsort((complete, -values[:, j]))
        ranks[order, j] = np.arange(1, complete.size + 1)
    lines = ["country,start_year,end_year,delta\n"]
    for j in range(len(YEARS) - WINDOW):
        delta = ranks[:, j + WINDOW] - ranks[:, j]
        t0, t1 = YEARS[j], YEARS[j + WINDOW]
        lines.extend(
            f"{inputs.codes[i]},{t0},{t1},{d}\n" for i, d in zip(complete, delta.tolist())
        )
    return "".join(lines)


def check_decay(deltas_csv: str, fit_json: str) -> str | None:
    """decay = n / sum|d| recomputed from deltas.csv must match fit.json."""
    rows = deltas_csv.splitlines()[1:]
    total = sum(abs(int(r.rsplit(",", 1)[1])) for r in rows)
    fit = json.loads(fit_json)
    if fit["n"] != len(rows) or not math.isclose(fit["decay"], len(rows) / total, rel_tol=1e-10):
        return f"fit.json {fit} disagrees with n={len(rows)}, sum|d|={total}"
    return None


def check_cross_section(inputs: PanelInputs, fit_json: str, points_csv: str) -> str | None:
    """Sample size and slope of the GCI-GDP power law, refitted here."""
    t0, t1 = GROWTH_WINDOW
    gdp = inputs.gdp[:, YEARS.index(t0) : YEARS.index(t1) + 1]
    gci = inputs.gci[:, GCI_YEARS.index(t1)]
    keep = ~np.isnan(gdp).any(axis=1) & ~np.isnan(gci)
    alpha = np.polyfit(np.log(gdp[keep, -1]), np.log(gci[keep]), 1)[0]
    fit = json.loads(fit_json)
    n_points = len(points_csv.splitlines()) - 1
    if fit["n"] != int(keep.sum()) or n_points != fit["n"]:
        return f"fit over {fit['n']} points, points.csv {n_points}, expected {int(keep.sum())}"
    if not math.isclose(fit["alpha"], alpha, rel_tol=1e-8):
        return f"alpha {fit['alpha']} != refitted {alpha}"
    return None


def _ranks(values: np.ndarray) -> np.ndarray:
    ranks = np.empty(values.size)
    ranks[np.argsort(values, kind="stable")] = np.arange(values.size)
    return ranks


def ensemble_columns(ensemble_csv: str) -> dict[str, np.ndarray]:
    lines = ensemble_csv.splitlines()
    header = lines[0].split(",")
    table = np.array([ln.split(",") for ln in lines[1:]], dtype=float).reshape(-1, len(header))
    return {name: table[:, k] for k, name in enumerate(header)}


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(_ranks(x), _ranks(y))[0, 1])


def check_ensemble(config_path: Path, cols: dict[str, np.ndarray], samples: int) -> str | None:
    """Row count, plus ``samples`` countries re-simulated from the model spec.

    Country i draws mu, sigma and a sub-seed from SeedSequence(seed, spawn_key=(i,));
    its capacity is E = sum(exp(-|N(0, sigma)|)) over n_jobs draws of the second
    child stream of SeedSequence(sub-seed).
    """
    config = json.loads(config_path.read_text(encoding="utf-8"))
    n = config["n_countries"]
    if cols["country_index"].size != n:
        return f"ensemble.csv has {cols['country_index'].size} rows, expected {n}"
    for i in np.linspace(0, n - 1, samples).astype(int).tolist():
        rng = np.random.default_rng(np.random.SeedSequence(config["seed"], spawn_key=(i,)))
        mu = float(rng.uniform(*config["mu_range"]))
        sigma = float(rng.uniform(*config["sigma_range"]))
        sub = int(rng.integers(0, 2**63))
        skill = np.random.default_rng(np.random.SeedSequence(sub).spawn(2)[1])
        e_total = float(np.exp(-np.abs(skill.normal(0.0, sigma, config["n_jobs"]))).sum())
        want = (mu, sigma, e_total, sigma ** -config["gamma"])
        got = tuple(float(cols[k][i]) for k in ("mu", "sigma", "E", "gci_th"))
        if not all(math.isclose(g, w, rel_tol=1e-10) for g, w in zip(got, want)):
            return f"country {i}: ensemble.csv {got} != re-simulated {want}"
    return None
