"""Deterministic CSV/JSON rendering and plot-ready file emission.

All numeric CSV output uses fixed 12-significant-digit formatting so reruns
with identical inputs are byte-identical. JSON floats are rounded the same
way. The canonical panel dump is the one exception (exact repr, see panel).

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
from typing import Any, Iterable, Sequence

import numpy as np

from .abm import Ensemble
from .errors import ParameterError
from .rankdyn import LaplaceFit, RankChangeSample, empirical_pdf, laplace_density
from .xsection import LinearFit, PowerLawFit, TTestResult

_FITLINE_POINTS = 100  # rows of every fit-line CSV


def fmt12(value: Any) -> str:
    """Render a number with 12 significant digits (ints stay plain)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".12g")


def json_ready(obj: Any) -> Any:
    """Recursively round floats to 12 significant digits; non-finite -> None."""
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, (bool, str, int)) or obj is None:
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            return None
        return float(format(f, ".12g"))
    return obj


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV text with a header row; numbers formatted via :func:`fmt12`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt12(cell) for cell in row))
    return "\n".join(lines) + "\n"


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
    """``render_csv`` of ``sample.records``, built window by window.

    Years and deltas are integers, so ``str`` formats them as ``fmt12`` does.
    """
    lines = ["country,start_year,end_year,delta\n"]
    countries, n = sample.countries, len(sample.countries)
    deltas = sample.deltas.tolist()
    for k, (t0, t1) in enumerate(sample.windows):
        years = f",{t0},{t1},"
        window = deltas[k * n : (k + 1) * n]
        lines += [f"{c}{years}{d}\n" for c, d in zip(countries, window)]
    return "".join(lines)


def ensemble_csv(ensemble: Ensemble) -> str:
    """``render_csv`` of the ensemble's columns in field order, one f-string per row.

    ``.12g`` formats a float as ``fmt12`` does.
    """
    columns = (getattr(ensemble, f.name).tolist() for f in dataclasses.fields(ensemble))
    lines = ["country_index,mu,sigma,E,GDP,gdp,gci_th\n"]
    lines += [f"{i},{m:.12g},{s:.12g},{e:.12g},{g:.12g},{pc:.12g},{c:.12g}\n"
              for i, (m, s, e, g, pc, c) in enumerate(zip(*columns))]
    return "".join(lines)


def pdf_csv(sample: RankChangeSample, fit: LaplaceFit) -> str:
    """Empirical density and model density per integer bin."""
    rows = [
        (center, density, laplace_density(fit.decay, center))
        for center, density in empirical_pdf(sample)
    ]
    return render_csv(("bin", "density", "model_density"), rows)


def power_law_fitline_csv(fit: PowerLawFit, header: Sequence[str]) -> str:
    """The fitted curve at ``_FITLINE_POINTS`` log-spaced x values over the fit sample."""
    if not fit.sample:
        raise ParameterError("fit sample is empty; nothing to plot")
    ln_lo = min(p.ln_x for p in fit.sample)
    ln_hi = max(p.ln_x for p in fit.sample)
    ln_grid = np.linspace(ln_lo, ln_hi, _FITLINE_POINTS)
    rows = [(math.exp(v), math.exp(fit.predict_ln(v))) for v in ln_grid]
    return render_csv(header, rows)


def linear_fitline_csv(fit: LinearFit, x_min: float, x_max: float, header: Sequence[str]) -> str:
    """The fitted line at ``_FITLINE_POINTS`` evenly spaced x from ``x_min`` to ``x_max``."""
    if not (x_min <= x_max):
        raise ParameterError(f"empty fit-line range {x_min}..{x_max}")
    grid = np.linspace(x_min, x_max, _FITLINE_POINTS)
    return render_csv(header, [(x, fit.predict(x)) for x in grid])


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


def write_output_files(out_dir: str | Path, files: dict[str, str]) -> None:
    """Write pre-rendered file contents under ``out_dir`` (created if absent).

    A failed write removes the temporaries, and ``out_dir`` if this call
    created it and it is still empty, before the error propagates. Once the
    new manifest is in place, the regular files named in the previous
    manifest's ``produced_files`` that ``files`` lacks are removed.
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
    # os.listdir yields only plain names: no separator, never "." or ".."
    for name in os.listdir(out):
        if name in previous and name not in files and (out / name).is_file():
            (out / name).unlink()


def _listed_outputs(out: Path) -> list[Any]:
    """``produced_files`` of the manifest in ``out``; empty if missing or unparseable."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        return []
    listed = manifest.get("produced_files") if isinstance(manifest, dict) else None
    return listed if isinstance(listed, list) else []
