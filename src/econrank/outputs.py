"""Deterministic CSV/JSON rendering and plot-ready file emission.

Every CSV row is formatted by one block loop, :func:`_format_rows`. Data CSVs
(most through :func:`render_csv`) and JSON write floats at 12 significant
digits, so reruns with identical inputs are byte-identical; the canonical
panel dump (see panel) writes each value's exact ``%r``. Fields holding a
comma, quote, CR or LF are quoted (RFC 4180).

Commands assemble every output as an in-memory string first and write only
after the whole pipeline has succeeded, so a failing run leaves no partial
files behind. The write itself is atomic per file: every file goes to a
temporary name in the output directory and is renamed into place, the
manifest last, only once all of them are written; a failed write removes
its temporaries. After a successful write, the files that the previous
manifest in the directory listed and this run did not produce are removed,
so ``--out`` holds no stale outputs of an earlier command.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as _dt
import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # a command loads only the analysis modules it runs
    from .abm import Ensemble
    from .rankdyn import LaplaceFit, RankChangeSample
    from .xsection import LinearFit, PowerLawFit, TTestResult

_FITLINE_POINTS = 100  # rows of every fit-line CSV
_BLOCK = 1024  # rows per formatted block of every CSV


def _quote(field: str) -> str:
    """``field`` as one CSV field: quoted, inner quotes doubled, if it holds , " CR or LF."""
    if any(ch in field for ch in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _format_rows(row: str, columns: Sequence[Sequence[Any]]) -> Iterator[str]:
    """``row % cells`` for each row of equal-length ``columns``, ``_BLOCK`` rows per string."""
    for start in range(0, max(map(len, columns), default=0), _BLOCK):
        part = (col[start : start + _BLOCK] for col in columns)  # one block's values at a time
        part = (p.tolist() if isinstance(p, np.ndarray) else p for p in part)
        yield "".join(map(row.__mod__, zip(*part, strict=True)))  # unequal lengths: ValueError


def json_ready(obj: Any) -> Any:
    """Recursively round floats (np.float64 too) to 12 significant digits, non-finite to None."""
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, float):
        return float(format(obj, ".12g")) if math.isfinite(obj) else None
    return obj


def render_csv(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> str:
    """CSV text of ``header`` over equal-length ``columns`` (sequences or numpy arrays).

    A column whose first value is a float is written ``%.12g`` (as ``format(v, ".12g")``),
    any other with ``%s``; unequal lengths raise ValueError.
    """
    cols, formats = [], []
    for col in columns:
        first = next(iter(col), None)
        if isinstance(first, str) and any(_quote(v) != v for v in set(col)):
            col = [_quote(v) for v in col]
        cols.append(col)
        formats.append("%.12g" if isinstance(first, float) else "%s")
    rows = _format_rows(",".join(formats) + "\n", cols)
    return ",".join(map(_quote, header)) + "\n" + "".join(rows)


def render_json(payload: dict[str, Any]) -> str:
    return json.dumps(json_ready(payload), indent=2) + "\n"


def laplace_fit_json(fit: LaplaceFit) -> str:
    return render_json(dataclasses.asdict(fit))


def power_law_fit_json(fit: PowerLawFit) -> str:
    return render_json(
        {
            "alpha": fit.alpha,
            "ln_intercept": fit.ln_intercept,
            "stderr": fit.stderr_alpha,
            "correlation": fit.correlation,
            "t_value": fit.t_value_alpha,
            "n": len(fit.sample),
        }
    )


def ttest_json(result: TTestResult) -> str:
    return render_json(dataclasses.asdict(result))


def deltas_csv(sample: RankChangeSample) -> str:
    """One row per delta in ``deltas`` order: country, window start and end year, delta."""
    codes = [_quote(code) for code in sample.countries]
    n = len(codes)
    blocks = ["country,start_year,end_year,delta\n"]
    for k, (t0, t1) in enumerate(sample.windows):  # the window's years are fixed in its row
        blocks += _format_rows(f"%s,{t0},{t1},%s\n", (codes, sample.deltas[k * n : (k + 1) * n]))
    return "".join(blocks)


def ensemble_csv(ensemble: Ensemble) -> str:
    """One row per country index: the ensemble's columns in field order."""
    columns = [getattr(ensemble, f.name) for f in dataclasses.fields(ensemble)]
    header = ("country_index", "mu", "sigma", "E", "GDP", "gdp", "gci_th")
    return render_csv(header, (range(len(ensemble.mu)), *columns))


def pdf_csv(deltas: np.ndarray, fit: LaplaceFit) -> str:
    """Empirical density of the delta column and model density per integer bin."""
    from .rankdyn import empirical_pdf, laplace_density

    centers, densities = empirical_pdf(deltas)
    model = [laplace_density(fit.decay, c) for c in centers.tolist()]
    return render_csv(("bin", "density", "model_density"), (centers, densities, model))


def power_law_fitline_csv(fit: PowerLawFit, header: Sequence[str]) -> str:
    """The fitted curve at ``_FITLINE_POINTS`` log-spaced x values over the fit sample."""
    ln_x = fit.sample[:, 0]
    ln_grid = np.linspace(ln_x.min(), ln_x.max(), _FITLINE_POINTS).tolist()
    x = [math.exp(v) for v in ln_grid]  # math.exp per point: np.exp may differ in the last bit
    return render_csv(header, (x, [math.exp(fit.predict_ln(v)) for v in ln_grid]))


def linear_fitline_csv(fit: LinearFit, x_min: float, x_max: float, header: Sequence[str]) -> str:
    """The fitted line at ``_FITLINE_POINTS`` evenly spaced x from ``x_min`` to ``x_max``."""
    grid = np.linspace(x_min, x_max, _FITLINE_POINTS).tolist()
    return render_csv(header, (grid, [fit.predict(x) for x in grid]))


def build_manifest(
    command: str,
    version: str,
    inputs: dict[str, Any],
    parameters: dict[str, Any],
    seed: int | None,
    produced: Sequence[str],
) -> dict[str, Any]:
    """Run record: inputs, parameters, seed, version, produced files.

    The timestamp is the only field that varies between identical reruns.
    """
    return {
        "command": command,
        "tool": "econrank",
        "version": version,
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "inputs": inputs,
        "parameters": parameters,
        "seed": seed,
        "produced_files": sorted(produced),
    }


def write_output_files(out_dir: str | Path, files: dict[str, str],
                       inputs: Iterable[str | Path]) -> None:
    """Write pre-rendered file contents under ``out_dir`` (created if absent).

    A failed write removes the temporaries, and ``out_dir`` if this call
    created it and it is still empty, before the error propagates. Once the
    new manifest is in place, the regular files named in the previous
    manifest's ``produced_files`` that ``files`` lacks are removed, but for
    the run's ``inputs``: a run never deletes a file it read.
    """
    out = Path(out_dir)
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    previous = _listed_outputs(out)
    names = sorted(files, key=lambda name: name == "manifest.json")
    staged: list[Path] = []
    try:
        for name in names:
            tmp = out / f".{name}.{os.getpid()}.tmp"
            staged.append(tmp)
            tmp.write_text(files[name], encoding="utf-8")
        for tmp, name in zip(staged, names):
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        if created:
            with contextlib.suppress(OSError):
                out.rmdir()
        raise
    read = {Path(path).resolve() for path in inputs}
    # os.listdir yields only plain names: no separator, never "." or ".."
    for name in os.listdir(out):
        path = out / name
        if name in previous and name not in files and path.is_file() and path.resolve() not in read:
            path.unlink()


def _listed_outputs(out: Path) -> list[Any]:
    """``produced_files`` of the manifest in ``out``; empty if missing or unparseable."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        return []
    listed = manifest.get("produced_files") if isinstance(manifest, dict) else None
    return listed if isinstance(listed, list) else []
