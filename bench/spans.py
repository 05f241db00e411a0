"""In-memory span tracing installed around econrank's public functions.

The benchmark patches timing wrappers onto the module attributes the CLI
calls through, runs ``econrank.cli.main`` in-process and restores the
originals afterwards; the program itself carries no tracing code. A span is
(name, layer, start, end, parent index, operation id). A layer's self time is
the duration of its spans minus the part covered by their child spans, so
the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

LAYERS = ("panel", "rankdyn", "xsection", "abm", "outputs", "cli")

# outputs functions whose time counts as rendering.
RENDER = (
    "render_csv", "render_json", "deltas_csv", "pdf_csv", "laplace_fit_json",
    "power_law_fit_json", "ttest_json", "power_law_fitline_csv",
    "linear_fitline_csv", "build_manifest",
)
# xsection.tests.s: the residual, sign split, t-test and OLS calls.
XSECTION_TESTS = ("relative_competitiveness", "split_by_sign", "two_sample_t", "ols_linear")
_RENDER_SPANS = {f"outputs.{name}" for name in RENDER}
_TEST_SPANS = {f"xsection.{name}" for name in XSECTION_TESTS}

Counter = Callable[[dict, tuple, Any], None]


def _count_load(c: dict, args: tuple, result: Any) -> None:
    pnl, skipped = result
    c["panel.load_panel.rows"] += len(pnl) + skipped
    c["panel.rows_skipped"] += skipped


def _count_sim(c: dict, args: tuple, result: Any) -> None:
    c["abm.simulate_country.calls"] += 1
    c["abm.jobs"] += args[0].n_jobs


def _count_deltas(c: dict, args: tuple, result: Any) -> None:
    c["rankdyn.deltas"] += result.n
    c["rankdyn.windows"] += len(result.windows)


def _count_written(c: dict, args: tuple, result: Any) -> None:
    c["outputs.bytes"] += sum(len(text.encode()) for text in args[1].values())


def _count(key: str, measure: Callable[[tuple, Any], int]) -> Counter:
    def counter(c: dict, args: tuple, result: Any) -> None:
        c[key] += measure(args, result)
    return counter


def targets(er: Any) -> list[tuple[object, str, str, Counter | None]]:
    """(owner, attribute, layer, counter) for every traced call site."""
    panel, rankdyn, xsection, abm, outputs = er.panel, er.rankdyn, er.xsection, er.abm, er.outputs
    return [
        (er.cli, "main", "cli", None),
        (panel, "load_panel", "panel", _count_load),
        (panel, "balanced_subset", "panel",
         _count("panel.balanced_countries", lambda a, r: r.n_countries)),
        (panel, "serialize_panel", "panel", None),
        (panel, "growth_rate", "panel", None),
        (panel.BalancedPanel, "value", "panel", _count("panel.value.calls", lambda a, r: 1)),
        (rankdyn, "rank_changes", "rankdyn", _count_deltas),
        (rankdyn, "fit_laplace_mle", "rankdyn", None),
        (xsection, "fit_power_law", "xsection",
         _count("xsection.points", lambda a, r: len(r.sample))),
        # abm binds its own reference to fit_power_law at import.
        (abm, "fit_power_law", "xsection",
         _count("xsection.points", lambda a, r: len(r.sample))),
        *((xsection, name, "xsection", None) for name in XSECTION_TESTS),
        (abm, "sweep", "abm", None),
        (abm, "simulate_country", "abm", _count_sim),
        (abm, "fit_model_regression", "abm", None),
        *((outputs, name, "outputs", None) for name in RENDER),
        (outputs, "write_output_files", "outputs", _count_written),
    ]


class Tracer:
    """Collects spans and counts; one instance per benchmark run.

    Spans are recorded from the calling thread's stack, so traced runs of
    the sweep use one thread.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float, int, int] | None] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn: Callable, counter: Counter | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.op)
            if counter is not None:
                counter(self.counts[self.op], args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, er: Any, only: tuple[str, ...] | None = None) -> Iterator[None]:
        """Patch the wrappers in (all, or the ``only`` names) and restore on exit."""
        saved = []
        try:
            for owner, attr, layer, counter in targets(er):
                name = f"{layer}.{attr}"
                if only is not None and name not in only:
                    continue
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, layer, original, counter))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summarize(self, op: int) -> dict[str, float]:
        """Counts, inclusive and self time per span name, and self time per layer.

        Spans of one operation are contiguous in ``self.spans``.
        """
        first = next((k for k, s in enumerate(self.spans) if s[5] == op), len(self.spans))
        spans = [s for s in self.spans[first:] if s[5] == op]
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, float] = defaultdict(float, self.counts[op])
        for k, (name, layer, start, end, parent, _) in enumerate(spans):
            duration = end - start
            out[f"{layer}.self_s"] += duration - child_time[k]
            out[f"{name}.s"] += duration
            out[f"{name}.self_s"] += duration - child_time[k]
            parent_name = spans[parent - first][0] if parent >= first else ""
            if name in _RENDER_SPANS and parent_name not in _RENDER_SPANS:
                out["outputs.render.s"] += duration
            if name in _TEST_SPANS:
                out["xsection.tests.s"] += duration
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: Path) -> None:
        """All spans as gzip-compressed CSV, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("op,index,name,layer,start_s,end_s,parent\n")
            for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{op},{index},{name},{layer},{start - t0:.9f},{end - t0:.9f},{parent}\n")
