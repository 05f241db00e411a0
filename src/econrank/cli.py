"""Command line: each command reads its inputs, calls the library and writes its files.

Subcommands: ``ingest``, ``rank-dynamics``, ``cross-section`` (``xsection.cross_section``)
and ``simulate``; a usage error in the flags alone is raised before any input is read.
Every command writes its outputs plus a ``manifest.json`` under ``--out`` and nowhere
else, and removes there the files the previous manifest listed that it did not produce
again; its manifest records the runner's parameters and the command's ``_INPUT_FLAGS``.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical/degenerate error
(``EconRankError.exit_code``). Reruns with identical inputs, parameters, and seed produce
byte-identical data files; only the manifest timestamp varies.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, outputs, panel
from .errors import DataError, EconRankError, ParameterError

if TYPE_CHECKING:  # each command imports the analysis module it runs, so ingest loads none
    from . import abm

# input-file flags recorded in the manifest, in order, where the command has them
_INPUT_FLAGS = ("input", "input_y", "alias", "alias_y", "exclude", "config")


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _parse_years(text: str, min_years: int = 1, why: str = "") -> tuple[int, int]:
    try:
        a, b = (int(t) for t in text.split(":"))
    except ValueError:
        raise ParameterError(f"--years must look like A:B, got {text!r}") from None
    if b - a + 1 < min_years:
        raise ParameterError(f"--years {text!r} must span at least {min_years} year(s){why}")
    return a, b


def _load(path: str, indicator: str, alias: str | None) -> tuple[panel.IndicatorPanel, int]:
    aliases = panel.load_alias_map(alias) if alias else None
    return panel.load_panel(path, indicator, aliases=aliases)


def _load_exclusions(path: str | None) -> set[str]:
    if not path:
        return set()
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return {ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")}


def _run_ingest(args: argparse.Namespace) -> tuple[dict[str, str], dict]:
    pnl, skipped = _load(args.input, args.indicator, args.alias)
    files = {"panel.csv": panel.serialize_panel(pnl)}
    parameters = {
        "indicator": args.indicator,
        "observations": len(pnl),
        "rows_skipped": skipped,
    }
    return files, parameters


def _run_rank_dynamics(args: argparse.Namespace) -> tuple[dict[str, str], dict]:
    from . import rankdyn

    if args.window < 1:  # usage errors before any read
        raise ParameterError(f"--window must be at least 1 year, got {args.window}")
    why = f" for --window {args.window}"
    years = _parse_years(args.years, args.window + 1, why) if args.years else None
    pnl, skipped = _load(args.input, args.indicator, args.alias)
    if not len(pnl):
        raise DataError(f"no observations for indicator {args.indicator!r}")
    years = years or (int(pnl.years.min()), int(pnl.years.max()))
    balanced = panel.balanced_subset(pnl, years)
    overlapping = not args.non_overlapping
    sample = rankdyn.rank_changes(balanced, args.window, overlapping=overlapping)
    fit = rankdyn.fit_laplace_mle(sample.deltas)
    files = {
        "deltas.csv": outputs.deltas_csv(sample),
        "pdf.csv": outputs.pdf_csv(sample.deltas, fit),
        "fit.json": outputs.laplace_fit_json(fit),
    }
    parameters = {
        "indicator": args.indicator,
        "years": list(years),
        "window": args.window,
        "overlapping": overlapping,
        "n_countries": balanced.n_countries,
        "n_windows": len(sample.windows),
        "rows_skipped": skipped,
        "bins": "unit integer",
    }
    return files, parameters


def _run_cross_section(args: argparse.Namespace) -> tuple[dict[str, str], dict]:
    from . import xsection

    t0, t1 = _parse_years(args.years, min_years=2)  # usage errors before any read
    year = args.year if args.year is not None else t1
    if not (t0 <= year <= t1):
        raise ParameterError(f"--year {year} must lie inside the growth window {t0}:{t1}")
    x_panel, x_skipped = _load(args.input, args.indicator, args.alias)
    y_panel, y_skipped = _load(args.input_y, args.indicator_y, args.alias_y)
    excluded = _load_exclusions(args.exclude)
    balanced_x = panel.balanced_subset(x_panel, (t0, t1))
    balanced_y = panel.balanced_subset(y_panel, (year, year))
    xs = xsection.cross_section(balanced_x, balanced_y, year, excluded, method=args.growth)
    fit, keep, d, g = xs.fit, xs.keep, xs.fit.sample[:, 2], xs.growth
    x_name, y_name = args.indicator, args.indicator_y
    files = {
        "fit.json": outputs.power_law_fit_json(fit),
        "dscores.csv": outputs.render_csv(
            ("country", x_name, y_name, "d"), (fit.labels, xs.x[keep], xs.y[keep], d)
        ),
        "ttest.json": outputs.ttest_json(xs.ttest),
        "growth_vs_d.csv": outputs.render_csv(("country", "d", "growth"), (fit.labels, d, g)),
        "points.csv": outputs.render_csv(
            ("country", x_name, y_name, "excluded"), (xs.countries, xs.x, xs.y, (~keep).astype(int))
        ),
        "fitline.csv": outputs.power_law_fitline_csv(fit, header=(x_name, y_name)),
        "growth_fitline.csv": outputs.linear_fitline_csv(
            xs.growth_fit, d.min(), d.max(), header=("d", "growth")
        ),
    }
    parameters = {
        "indicator": x_name,
        "indicator_y": y_name,
        "year": year,
        "years": [t0, t1],
        "growth": args.growth,
        "n_countries": len(xs.countries),
        "n_fitted": len(fit.labels),
        "excluded": sorted(excluded.intersection(xs.countries)),
        "rows_skipped": x_skipped + y_skipped,
        "ttest_groups": [xs.ttest.n_a, xs.ttest.n_b],
    }
    return files, parameters


def _read_sweep_config(path: str, seed: int | None) -> abm.SweepConfig:
    """The config at ``path``, its seed replaced by ``seed`` when given."""
    from . import abm

    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            raw = json.load(handle)
        except (ValueError, RecursionError) as exc:  # also undecodable, over-long, too deep
            raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParameterError(f"config {path!r} must be a JSON object")
    if seed is not None or raw.get("seed") is None:
        import secrets  # here, not with the CLI: it loads hashlib and with it libcrypto

        raw["seed"] = secrets.randbits(63) if seed is None else seed  # recorded in the manifest
    try:
        return abm.SweepConfig(**raw)
    except TypeError as exc:  # a field missing or unknown: its signature is the field rule
        raise ParameterError(f"config {path!r}: {exc}") from None


def _run_simulate(args: argparse.Namespace) -> tuple[dict[str, str], dict]:
    from . import abm

    if args.threads < 1:  # usage errors before any read
        raise ParameterError(f"--threads must be at least 1, got {args.threads}")
    if args.seed is not None and args.seed < 0:
        raise ParameterError(f"--seed must be nonnegative, got {args.seed}")
    config = _read_sweep_config(args.config, args.seed)
    ensemble = abm.sweep(config, threads=args.threads)
    fit = abm.fit_model_regression(ensemble)
    files = {
        "ensemble.csv": outputs.ensemble_csv(ensemble),
        "model_fit.json": outputs.power_law_fit_json(fit),
        "fitline.csv": outputs.power_law_fitline_csv(fit, header=("gdp", "gci_th")),
    }
    return files, {**dataclasses.asdict(config), "threads": args.threads}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="econrank",
        description="Country rank dynamics, competitiveness fits, and the "
        "corruption simulation model.",
    )
    parser.add_argument("--version", action="version", version=f"econrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", help="validate a CSV and write the canonical panel dump")
    p.add_argument("--input", required=True, help="country,year,value CSV")
    p.add_argument("--indicator", required=True, help="indicator name for the rows")
    p.add_argument("--alias", help="source_name,iso3 CSV renaming countries")
    p.set_defaults(runner=_run_ingest)

    p = sub.add_parser("rank-dynamics", help="windowed rank changes and MLE decay fit")
    p.add_argument("--input", required=True, help="country,year,value CSV")
    p.add_argument("--indicator", required=True)
    p.add_argument("--alias", help="source_name,iso3 CSV renaming countries")
    p.add_argument("--years", help="inclusive balanced range A:B (default: full span)")
    p.add_argument("--window", type=int, default=10, help="window length in years")
    p.add_argument(
        "--non-overlapping",
        action="store_true",
        help="advance start years by the window length instead of 1",
    )
    p.set_defaults(runner=_run_rank_dynamics)

    p = sub.add_parser(
        "cross-section",
        help="power-law fit, competitiveness scores, sign-split t-test, growth regression",
    )
    p.add_argument("--input", required=True, help="x-indicator CSV (e.g. gdp)")
    p.add_argument("--indicator", default="gdp", help="x indicator name")
    p.add_argument("--input-y", required=True, help="y-indicator CSV (e.g. gci)")
    p.add_argument("--indicator-y", default="gci", help="y indicator name")
    p.add_argument("--alias", help="alias CSV for the x input")
    p.add_argument("--alias-y", help="alias CSV for the y input")
    p.add_argument("--years", default="2008:2011", help="growth window A:B")
    p.add_argument("--year", type=int, help="fit year (default: end of growth window)")
    p.add_argument("--exclude", help="file of country codes excluded from the fit")
    p.add_argument("--growth", choices=("log", "relative"), default="log")
    p.set_defaults(runner=_run_cross_section)

    p = sub.add_parser("simulate", help="run the corruption-model ensemble sweep")
    p.add_argument("--config", required=True, help="sweep configuration JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads for the sweep (default: machine parallelism)",
    )
    p.set_defaults(runner=_run_simulate)
    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        files, parameters = args.runner(args)
        seed = parameters.pop("seed", None)  # only simulate has one
        manifest = outputs.build_manifest(
            command=args.command,
            version=__version__,
            inputs={flag: getattr(args, flag) for flag in _INPUT_FLAGS if hasattr(args, flag)},
            parameters=parameters,
            seed=seed,
            produced=[*files, "manifest.json"],
        )
        files["manifest.json"] = outputs.render_json(manifest)
        outputs.write_output_files(args.out, files)
    except EconRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(files)} files to {args.out}")
    return 0
