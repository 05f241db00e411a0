"""Benchmark of the econrank CLI on seeded synthetic workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload panel_pipeline --seed 1 --seconds 35 --trace 0

Workloads (inputs are generated from ``--seed`` before timing starts):

- ``panel_pipeline``: ``ingest`` -> ``rank-dynamics`` -> ``cross-section`` on a
  ~2,500-country x 60-year gdp panel with gaps and malformed rows, plus a gci
  panel. Nearly all work is in panel, rankdyn and outputs; cross-section's
  per-country ``BalancedPanel.value`` lookups grow as n^2.
- ``abm_many_small``: ``simulate`` with 8,000 countries x 10^4 jobs, where
  per-country Python overhead dominates and a second thread barely pays.
- ``abm_few_large``: ``simulate`` with 16 countries x 10^7 jobs, where the
  normal/abs/exp kernel and its temporaries dominate.

One operation runs the workload's commands as fresh ``python -m econrank``
processes, one at a time (a closed loop with one client), for ``--seconds``.
``--threads`` is passed explicitly: the CPU affinity count, except one thread
for the timed ``abm_many_small`` operations (see ``ONE_THREAD``). Every
operation's data files must equal the first operation's byte for byte, and the
first operation must pass the independent oracles in ``gen.py``.

``--trace 0`` reports end-to-end metrics, each the median over the run's
operations: ``wall_s`` (one operation), ``cpu_s`` (user + system time of its
children), ``peak_rss_mb`` (largest child RSS), ``setup_s`` (a fresh
interpreter running ``import econrank``, sampled twice before each operation)
and ``items_per_s`` (input rows or simulated jobs per second of ``wall_s``).
It also prints, outside the JSON, ``cmd.<command>.wall_s``, ``rows_per_s`` or
``jobs_per_s``, ``error_rate`` and, for ``abm_many_small``, the criterion-8
Spearman ``c8_spearman`` between ``gci_th`` and ``gdp`` in ``ensemble.csv``.

``--trace 1`` instead calls ``econrank.cli.main`` in-process with the span
wrappers of ``spans.py`` installed (the sweep at one thread, so spans nest),
alternating with untraced in-process runs at one thread and, for ``simulate``,
at the affinity count. It reports per-layer metrics (0 where a layer does no
work on the workload) and writes the spans to ``.bench_out/``.

Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import gen
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
IMPORTS_PER_OP = 2  # setup_s samples taken before each operation
ABM_SHAPES = {"abm_many_small": (8000, 10_000), "abm_few_large": (16, 10**7)}  # countries, jobs
# Workloads timed end to end at one thread. abm_many_small is GIL-bound: at two
# threads on a shared 2-vCPU host its wall time swung by 40% between runs while
# its CPU time held within 3%. Its thread scaling is abm.thread_speedup.
ONE_THREAD = {"abm_many_small"}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "items_per_s": "1/s",
}
PER_LAYER = {
    "panel.load_panel.s": "s",
    "panel.load_panel.rows": "count",
    "panel.rows_skipped": "count",
    "panel.balanced_subset.s": "s",
    "panel.balanced_countries": "count",
    "panel.value.calls": "count",
    "panel.value.s": "s",
    "panel.growth_rate.s": "s",
    "panel.serialize_panel.s": "s",
    "rankdyn.rank_changes.s": "s",
    "rankdyn.deltas": "count",
    "rankdyn.windows": "count",
    "rankdyn.fit_laplace_mle.s": "s",
    "xsection.fit_power_law.s": "s",
    "xsection.points": "count",
    "xsection.tests.s": "s",
    "abm.sweep.s": "s",
    "abm.simulate_country.calls": "count",
    "abm.simulate_country.s": "s",
    "abm.overhead_s": "s",
    "abm.jobs": "count",
    "abm.kernel.bytes_computed": "bytes",
    "abm.thread_speedup": "ratio",
    "abm.c8_spearman": "rho",
    "outputs.render.s": "s",
    "outputs.bytes": "bytes",
    "outputs.write_output_files.s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS if layer != "cli"},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}
# The kernel materialises four float64 arrays of n_jobs per country: the
# normal draw, its abs, the negation and the exp. A computed figure, not a
# measurement.
KERNEL_BYTES_PER_JOB = 4 * 8

OUTPUT_FILES = {
    "ingest": ("panel.csv",),
    "rank-dynamics": ("deltas.csv", "pdf.csv", "fit.json"),
    "cross-section": ("fit.json", "dscores.csv", "ttest.json", "growth_vs_d.csv",
                      "points.csv", "fitline.csv", "growth_fitline.csv"),
    "simulate": ("ensemble.csv", "model_fit.json", "fitline.csv"),
}


@dataclass
class Workload:
    name: str
    work: Path
    commands: Callable[[int], list[list[str]]]  # threads -> argv of each command
    oracle: Callable[[], str | None]
    items: int
    item_unit: str
    input_bytes: int
    reference: dict[str, str] = field(default_factory=dict)
    spearman: float = 0.0

    @property
    def out(self) -> Path:
        return self.work / "out"

    def check(self, commands: list[str]) -> str | None:
        """Byte-compare every data file with the reference; the first set must pass the oracle."""
        digests = {}
        for command in commands:
            for name in OUTPUT_FILES[command] + ("manifest.json",):
                path = self.out / command / name
                if not path.is_file():
                    return f"{command}: {name} missing"
                if name != "manifest.json":
                    digests[f"{command}/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        if not self.reference:
            problem = self.oracle()
            if problem:
                return problem
            self.reference = digests
        diff = sorted(k for k in digests if digests[k] != self.reference.get(k))
        return f"outputs differ from the reference: {diff}" if diff else None


def make_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "panel_pipeline":
        inputs = gen.make_panels(seed, work)
        out = work / "out"
        panel_csv = str(out / "ingest" / "panel.csv")
        t0, t1 = gen.GROWTH_WINDOW

        def commands(threads: int) -> list[list[str]]:
            return [
                ["ingest", "--input", str(inputs.gdp_csv), "--indicator", "gdp",
                 "--out", str(out / "ingest")],
                ["rank-dynamics", "--input", panel_csv, "--indicator", "gdp",
                 "--window", str(gen.WINDOW), "--out", str(out / "rank-dynamics")],
                ["cross-section", "--input", panel_csv, "--input-y", str(inputs.gci_csv),
                 "--years", f"{t0}:{t1}", "--out", str(out / "cross-section")],
            ]

        expected_panel = gen.expected_panel_csv(inputs)
        expected_deltas = gen.expected_deltas_csv(inputs)

        def read(command: str, name: str) -> str:
            return (out / command / name).read_text(encoding="utf-8")

        def oracle() -> str | None:
            if read("ingest", "panel.csv") != expected_panel:
                return "panel.csv differs from the generated panel"
            if read("rank-dynamics", "deltas.csv") != expected_deltas:
                return "deltas.csv differs from the recomputed rank changes"
            return gen.check_decay(read("rank-dynamics", "deltas.csv"),
                                   read("rank-dynamics", "fit.json")) or \
                gen.check_cross_section(inputs, read("cross-section", "fit.json"),
                                        read("cross-section", "points.csv"))

        return Workload(name, work, commands, oracle, inputs.rows, "rows",
                        inputs.gdp_csv.stat().st_size + inputs.gci_csv.stat().st_size)

    n_countries, n_jobs = ABM_SHAPES[name]
    config = gen.make_sweep_config(seed, work, n_countries, n_jobs)
    out = work / "out" / "simulate"

    def commands(threads: int) -> list[list[str]]:
        return [["simulate", "--config", str(config), "--threads", str(threads), "--out", str(out)]]

    def oracle() -> str | None:
        cols = gen.ensemble_columns((out / "ensemble.csv").read_text(encoding="utf-8"))
        wl.spearman = gen.spearman(cols["gci_th"], cols["gdp"])
        # Re-simulating costs as much as simulating: check 4 large or 32 small countries.
        return gen.check_ensemble(config, cols, samples=4 if n_jobs > 10**6 else 32)

    wl = Workload(name, work, commands, oracle, n_countries * n_jobs, "jobs", config.stat().st_size)
    return wl


# ---------------------------------------------------------------- one operation


@dataclass
class OpResult:
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    commands: dict[str, float] = field(default_factory=dict)
    error: str | None = None


def spawn(argv: list[str], env: dict[str, str], log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, cpu s, peak rss MB)."""
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_subprocess_op(wl: Workload, threads: int, env: dict[str, str]) -> OpResult:
    shutil.rmtree(wl.out, ignore_errors=True)
    commands = wl.commands(threads)
    result = OpResult(wall=0.0)
    log = wl.work / "stderr.txt"
    start = perf_counter()
    for argv in commands:
        code, wall, cpu, rss = spawn([sys.executable, "-m", "econrank", *argv], env, log)
        result.commands[argv[0]] = wall
        result.cpu += cpu
        result.rss_mb = max(result.rss_mb, rss)
        if code != 0:
            stderr = log.read_text(errors="replace").strip()
            result.error = f"{argv[0]} exited {code}: {stderr[-300:]}"
            break
    result.wall = perf_counter() - start
    result.error = result.error or wl.check([argv[0] for argv in commands])
    return result


def run_inprocess_op(wl: Workload, er, threads: int, tracer: spans.Tracer,
                     only: tuple[str, ...] | None) -> OpResult:
    shutil.rmtree(wl.out, ignore_errors=True)
    commands = wl.commands(threads)
    result = OpResult(wall=0.0)
    with tracer.installed(er, only), contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        for argv in commands:
            try:
                code = er.cli.main(argv)
            except Exception as exc:  # a crash is one failed operation, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                result.error = f"{argv[0]} returned {code}"
                break
        result.wall = perf_counter() - start
    result.error = result.error or wl.check([argv[0] for argv in commands])
    return result


def measure(seconds: float, cycle: Callable[[], None]) -> None:
    """Repeat ``cycle`` (at least once) while another one still fits in ``seconds``."""
    start = perf_counter()
    durations: list[float] = []
    while True:
        t = perf_counter()
        cycle()
        durations.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return


# ---------------------------------------------------------------- runs


def untraced_run(wl: Workload, seconds: float, threads: int, env: dict[str, str]):
    log = wl.work / "stderr.txt"
    if spawn([sys.executable, "-c", "import econrank.cli"], env, log)[0] != 0:
        raise SystemExit(f"cannot import econrank from {SRC}")
    imports: list[float] = []
    ops: list[OpResult] = []

    def cycle() -> None:
        # Import timings are spread over the run so they sample the same
        # machine conditions as the operations.
        imports.extend(spawn([sys.executable, "-c", "import econrank"], env, log)[1]
                       for _ in range(IMPORTS_PER_OP))
        ops.append(run_subprocess_op(wl, threads, env))

    measure(seconds, cycle)
    wall = statistics.median(op.wall for op in ops)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(op.cpu for op in ops),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "setup_s": statistics.median(imports),
        "items_per_s": wl.items / wall,
    }
    failed = sum(op.error is not None for op in ops)
    extra = {f"cmd.{c}.wall_s": (statistics.median(op.commands.get(c, 0.0) for op in ops), "s")
             for c in ops[0].commands}
    extra[f"{wl.item_unit}_per_s"] = (wl.items / wall, f"{wl.item_unit}/s")
    extra["error_rate"] = (failed / len(ops), "ratio")
    if wl.name == "abm_many_small":
        extra["c8_spearman"] = (wl.spearman, "rho")
    return ops, metrics, extra


def traced_run(wl: Workload, seconds: float, threads: int, er, span_file: Path):
    tracer, sweep_timer = spans.Tracer(), spans.Tracer()
    traced: list[tuple[OpResult, dict[str, float]]] = []
    plain: dict[int, list[tuple[OpResult, float]]] = {}
    abm = wl.name != "panel_pipeline"
    plain_threads = (1, threads) if abm else (threads,)

    def run_traced() -> None:
        tracer.op = len(traced)
        op = run_inprocess_op(wl, er, 1, tracer, None)
        traced.append((op, tracer.summarize(tracer.op)))

    def run_plain() -> None:
        for t in plain_threads:
            sweep_timer.op += 1
            op = run_inprocess_op(wl, er, t, sweep_timer, ("abm.sweep",))
            sweep_s = sweep_timer.summarize(sweep_timer.op)["abm.sweep.s"] if abm else 0.0
            plain.setdefault(t, []).append((op, sweep_s))

    def cycle() -> None:
        # Alternate which side goes first so neither inherits the other's garbage.
        for step in (run_traced, run_plain)[:: 1 if len(traced) % 2 == 0 else -1]:
            step()

    measure(seconds, cycle)
    tracer.write(span_file)

    def med(values) -> float:
        return float(statistics.median(values))

    metrics = {name: med(s.get(name, 0.0) for _, s in traced) for name in PER_LAYER}
    metrics["abm.overhead_s"] = med(s.get("abm.sweep.self_s", 0.0) for _, s in traced)
    metrics["abm.kernel.bytes_computed"] = metrics["abm.jobs"] * KERNEL_BYTES_PER_JOB
    metrics["abm.c8_spearman"] = wl.spearman
    if abm:
        metrics["abm.thread_speedup"] = med(s for _, s in plain[1]) / med(s for _, s in plain[threads])
    metrics["trace.wall_s"] = med(op.wall for op, _ in traced)
    metrics["trace.untraced_wall_s"] = med(op.wall for op, _ in plain[1 if abm else threads])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.unaccounted_s"] = med(
        op.wall - sum(s[f"{layer}.self_s"] for layer in spans.LAYERS) for op, s in traced
    )
    ops = [op for op, _ in traced] + [op for runs in plain.values() for op, _ in runs]
    problem = None
    if abs(metrics["trace.unaccounted_s"]) > 0.02 * metrics["trace.wall_s"]:
        problem = "layer self times do not account for the traced wall time"
    return ops, metrics, problem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("panel_pipeline", "abm_many_small", "abm_few_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "econrank" / "cli.py").is_file():
        print(f"error: no econrank sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    timed_threads = 1 if args.workload in ONE_THREAD else threads
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, args.seed, work)
        problem = None
        if args.trace:
            sys.path.insert(0, str(SRC))
            import econrank.cli as cli
            er = sys.modules["econrank"]
            if Path(cli.__file__).resolve().parent != (SRC / "econrank").resolve():
                raise SystemExit(f"imported econrank from {cli.__file__}, not {SRC}")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            ops, metrics, problem = traced_run(wl, args.seconds, threads, er, span_file)
            units, extra = PER_LAYER, {}
        else:
            ops, metrics, extra = untraced_run(wl, args.seconds, timed_threads, env)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op.error for op in ops if op.error is not None]
    env_record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "affinity_cpus": threads,
        "threads_passed": None if args.workload == "panel_pipeline" else
        [1, threads] if args.trace else [timed_threads],
        "python": platform.python_version(), "numpy": np.__version__,
        "input_items": wl.items, "item_unit": wl.item_unit, "input_bytes": wl.input_bytes,
        "operations": len(ops),
    }
    print("env " + json.dumps(env_record))
    for message in failed[:5]:
        print(f"failed: {message}")
    if problem:
        print(f"failed: {problem}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failed and problem is None,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
