"""The CLI run contract under fuzzed inputs, and how a CLI process starts.

Every run through ``cli.main`` ends with exit code 0, 1, 2 or 3. A failed run
prints exactly one ``error: `` line on stderr and leaves ``--out`` as it found
it; a successful run leaves exactly the files its manifest lists, but for the inputs
it read from ``--out``. Every error the package raises is a ``ParameterError``,
``DataError`` or ``NumericalError``, whose ``exit_code`` is the run's, and so is every
error of a library call, whatever its arguments. A CLI process loads only the modules
its command runs, and numpy's BLAS on one thread.
"""

import ast
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import econrank
from econrank.cli import main
from econrank.errors import DataError, EconRankError, ParameterError
from panel_mapping import balanced

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent.parent / "data"

# A previous run's outputs; a new run removes panel.csv unless it writes it again.
PREVIOUS_RUN = {
    "manifest.json": b'{"produced_files": ["manifest.json", "panel.csv"]}\n',
    "panel.csv": b"country,year,value\nAAA,2000,1.0\n",
}


def snapshot(out: Path) -> dict[str, bytes] | None:
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None


def assert_contract(argv: list, out: Path, before: dict[str, bytes] | None) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3)
    after = snapshot(out)
    if code == 0:
        listed = json.loads(after["manifest.json"])["produced_files"]
        assert sorted(listed) == sorted(after)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert after == before
    return code


@st.composite
def out_dirs(draw, root: Path) -> tuple[Path, dict[str, bytes] | None]:
    """``--out`` absent, empty, or holding a previous run's outputs."""
    out = root / "out"
    state = draw(st.sampled_from(["absent", "empty", "previous"]))
    if state != "absent":
        out.mkdir()
    if state == "previous":
        for name, content in PREVIOUS_RUN.items():
            (out / name).write_bytes(content)
    return out, snapshot(out)


CODES = ["AAA", "BBB", "CCC", "DDD", "FFF", "GGG", "HHH"]
YEARS = range(2000, 2004)
FUZZ_COUNTRIES = ["AAA", "EEE", "", " ", "A\x00B", '"Q', 'Q"x', '"un', "K,R", "\xc5land"]
FUZZ_YEARS = ["2001", "2004", " 1999 ", "1_999", "+2002", "2.0", "x", "", "9" * 30,
              "-" + "9" * 25, "9" * 5000]
FUZZ_VALUES = ["1.5", "2", "-1", "0", "nan", "-inf", "1e308", "1e-320", "", "abc", '"3"']


@st.composite
def panel_csvs(draw, nonpositive: bool = False, fuzz: bool = True) -> bytes:
    """A small complete panel, with fuzzed rows spliced in unless ``fuzz`` is false.

    Fuzzed rows have wrong field counts, NUL bytes, stray quotes, huge years,
    repeats of other rows and, in a few files, bytes that are not UTF-8; a fuzzed
    file's header may be wrong. With ``nonpositive``, up to two codes hold 0 or a
    negative value in the first year.
    """
    low = draw(st.sets(st.sampled_from(CODES), max_size=2)) if nonpositive else set()
    value = {False: st.floats(0.5, 1e6), True: st.sampled_from([0.0, -1.5])}
    rows = [f"{c},{y},{draw(value[c in low and y == YEARS[0]])!r}" for c in CODES for y in YEARS]
    field = st.one_of(st.sampled_from(FUZZ_COUNTRIES), st.sampled_from(FUZZ_YEARS),
                      st.sampled_from(FUZZ_VALUES))
    fuzzed = st.one_of(
        st.builds(",".join, st.tuples(st.sampled_from(FUZZ_COUNTRIES),
                                      st.sampled_from(FUZZ_YEARS),
                                      st.sampled_from(FUZZ_VALUES))),
        st.builds(",".join, st.lists(field, max_size=5)),
    )
    for _ in range(draw(st.integers(0, 3)) if fuzz else 0):
        rows.insert(draw(st.integers(0, len(rows))), draw(fuzzed))
    if fuzz and draw(st.integers(0, 4)) == 0:
        rows.append(draw(st.sampled_from(rows)))  # a duplicate row
    headers = ["country,year,value"] * 4 + ["\ufeffcountry,year,value"]
    header = draw(st.sampled_from(headers + ["country,year", ""] if fuzz else headers))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = newline.join([header, *rows, ""]).encode("utf-8")
    if fuzz and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


@settings(max_examples=150)
@given(st.data())
def test_panel_commands_keep_the_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        x, y = root / "x.csv", root / "y.csv"
        command = data.draw(st.sampled_from(["ingest", "rank-dynamics", "cross-section"]))
        # cross-section fuzzes x, y or both: a clean partner lets more draws reach the fit
        fuzzed = "x"
        if command == "cross-section":
            fuzzed = data.draw(st.sampled_from(["x", "y", "both"]), label="fuzzed")
        x.write_bytes(data.draw(panel_csvs(command == "cross-section", fuzzed != "y"), label="x"))
        if command == "ingest":
            argv = ["ingest", "--input", x, "--indicator", "gdp"]
        elif command == "rank-dynamics":
            argv = ["rank-dynamics", "--input", x, "--indicator", "gdp",
                    "--window", data.draw(st.integers(1, 4))]
            if data.draw(st.booleans()):
                argv.append("--non-overlapping")
        else:
            y.write_bytes(data.draw(panel_csvs(fuzz=fuzzed != "x"), label="y"))
            # a non-gdp x indicator keeps 0 and negative values, which growth must reject
            # only in the fitted rows; --exclude removes rows from the fit
            argv = ["cross-section", "--input", x, "--input-y", y, "--years", "2000:2003",
                    "--indicator", data.draw(st.sampled_from(["gdp", "score"])),
                    "--growth", data.draw(st.sampled_from(["log", "relative"]))]
            if data.draw(st.booleans()):
                exclude = root / "exclude.txt"
                exclude.write_text("".join(f"{c}\n" for c in data.draw(
                    st.lists(st.sampled_from(CODES), max_size=4, unique=True), label="exclude")),
                    encoding="utf-8")
                argv += ["--exclude", exclude]
        out, before = data.draw(out_dirs(root))
        assert_contract([*argv, "--out", out], out, before)


def junk(integers=st.integers()):
    """Values a config field may wrongly hold: wrong types, out of range, non-finite."""
    return st.one_of(
        st.sampled_from([None, True, False, "3", "", [], [1.0], [1.0, 2.0, 3.0], [2.0, 1.0],
                         [0.0, 1.0], [-1.0, 1.0], [1.0, "2"], {"low": 1}, 0, -1, 0.0, -0.5, 2.5,
                         5e-324, 1e308, 10**30, -(10**30), 1_000_001]),
        integers,
        st.floats(allow_nan=False, allow_infinity=False),
    )


# A count field draws its junk integers from outside its valid range (up to 10**6 countries,
# 10**10 jobs in all), so that no example runs a large sweep: the abm tests and the
# benchmark's workloads run those.
JUNK = junk()
COUNT_JUNK = {name: junk(st.integers(max_value=0) | st.integers(min_value=high + 1))
              for name, high in (("n_countries", 10**6), ("n_jobs", 10**10))}


@st.composite
def sweep_configs(draw) -> bytes:
    """Config JSON text: tiny valid sweeps, mutated fields, or broken JSON."""
    low = draw(st.floats(0.5, 20.0))
    config = {
        "n_countries": draw(st.integers(1, 4)),
        "n_jobs": draw(st.integers(1, 30)),
        "mu_range": [low, low + draw(st.floats(0.0, 10.0))],
        "sigma_range": sorted(draw(st.lists(st.floats(1e-3, 30.0), min_size=2, max_size=2))),
        "gamma": draw(st.floats(0.0, 2.0)),
        "seed": draw(st.one_of(st.integers(0, 2**64), st.just(2**200))),
    }
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from([*config, "extra"]))
        action = draw(st.sampled_from(["junk", "junk", "drop"]))
        if action == "drop":
            config.pop(name, None)
        else:
            config[name] = draw(COUNT_JUNK.get(name, JUNK))
    text = json.dumps(config)
    form = draw(st.sampled_from(["json"] * 12 + ["truncated", "inf", "not_object", "garbage",
                                                "bytes", "deep"]))
    if form == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif form == "inf":  # JSON has no infinity; Python's parser reads these anyway
        config["gamma"] = "@"
        text = json.dumps(config).replace('"@"', draw(st.sampled_from(
            ["Infinity", "-Infinity", "NaN", "1e999"])))
    elif form == "not_object":
        text = draw(st.sampled_from(["[]", "3", '"x"', "null", "[" + text + "]"]))
    elif form == "garbage":
        text += draw(st.sampled_from(["}", ",", " x"]))
    elif form == "deep":
        text = "[" * 100_000 + "]" * 100_000
    data = text.encode("utf-8")
    return data + b"\xff" if form == "bytes" else data


@settings(max_examples=150)
@given(st.data())
def test_simulate_keeps_the_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.json"
        config.write_bytes(data.draw(sweep_configs(), label="config"))
        out, before = data.draw(out_dirs(root))
        assert_contract(["simulate", "--config", config, "--threads", 1, "--out", out],
                        out, before)


def run_probe(probe: str, **env: str) -> str:
    """Stdout of a fresh interpreter running ``probe`` with econrank from ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | env
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env={**env, "PYTHONPATH": str(SRC)}, encoding="utf-8")
    return result.stdout.strip()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # abm loads numpy.random, and the sweep concurrent.futures (which loads logging) only
    # when it runs; secrets (which loads hashlib) is imported only to draw a missing sweep
    # seed; each command imports the analysis modules it runs
    lazy = {"numpy.random", "concurrent", "logging", "secrets", "hashlib",
            "econrank.abm", "econrank.rankdyn", "econrank.xsection"}
    assert run_probe(f"import sys, econrank.cli; print(sorted({lazy!r} & set(sys.modules)))") \
        == "[]"


def test_importing_the_package_leaves_numpy_unloaded():
    assert run_probe("import sys, econrank; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset, expected", [(None, ["1", "1"]), ("3", ["3"])],
                         ids=["unset", "preset"])
def test_the_cli_process_runs_blas_on_one_thread_unless_set(preset, expected):
    # OpenBLAS sizes its thread pool when numpy loads; the entry sets the default first
    probe = (
        "import os, runpy, sys\n"
        "sys.argv = ['econrank', '--version']\n"
        "try:\n"
        "    runpy.run_module('econrank', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "import numpy\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    )
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    fields = run_probe(probe, **env).splitlines()[-1].split()  # the line after --version's
    assert fields[: len(expected)] == expected  # a preset pool's size is the host's


def test_star_import_and_dir_list_every_exported_name():
    namespace: dict = {}
    exec("from econrank import *", namespace)
    assert set(econrank.__all__) <= set(namespace) and set(econrank.__all__) <= set(dir(econrank))


def test_every_raise_names_one_of_the_three_families():
    families = {"ParameterError", "DataError", "NumericalError"}
    tree = ast.parse((SRC / "econrank" / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"EconRankError", *families}
    for path in sorted((SRC / "econrank").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
            allowed = families | ({"AttributeError"} if path.name == "__init__.py" else set())
            assert name in allowed, f"{path.name}:{node.lineno} raises {name}"


@pytest.fixture(scope="module")
def library_calls(tmp_path_factory) -> dict[str, dict[str, object]]:
    """Small valid keyword arguments of every callable in ``__all__``. A dataclass takes
    the fields of an instance that the library made."""
    er, root = econrank, tmp_path_factory.mktemp("library")
    (root / "aliases.csv").write_text("source_name,iso3\nAlbania,ALB\n", encoding="utf-8")
    gdp = er.load_panel(DATA / "toy_gdp.csv", "gdp")[0]
    balanced = er.balanced_subset(gdp, (2008, 2011))
    gci = er.balanced_subset(er.load_panel(DATA / "toy_gci.csv", "gci")[0], (2011, 2011))
    sample = er.rank_changes(er.balanced_subset(gdp, (2000, 2011)), 10)
    xs = er.cross_section(balanced, gci, 2011)
    config = er.SweepConfig(n_countries=4, n_jobs=8, mu_range=(1.0, 2.0),
                            sigma_range=(0.5, 1.5), gamma=0.5, seed=1)
    ensemble, fit = er.sweep(config), er.fit_laplace_mle(sample.deltas)
    instances = [xs, ensemble, fit, xs.growth_fit, xs.fit, sample, config, xs.ttest]
    columns = {"x": [1.0, 2.0, 4.0], "y": [1.0, 3.0, 2.0]}
    return {
        **{type(obj).__name__: {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
           for obj in instances},
        "IndicatorPanel": {"indicator": "gdp", "countries": ["A", "A", "B"],
                           "years": [2001, 2000, 2000], "values": [1.0, 2.0, 3.0]},
        "balanced_subset": {"panel": gdp, "years": (2000, 2011)},
        "cross_section": {"x": balanced, "y": gci, "year": 2011, "excluded": {"ALB"},
                          "method": "log"},
        "empirical_pdf": {"deltas": sample.deltas},
        "exceedance_probability": {"fit": fit, "delta": -3},
        "fit_laplace_mle": {"deltas": [1, -2, 0]},
        "fit_model_regression": {"ensemble": ensemble},
        "fit_power_law": {**columns, "labels": ["a", "b", "c"]},
        "growth_rate": {"panel": balanced, "rows": [2, 0], "method": "relative"},
        "laplace_density": {"decay": 0.5, "delta": 2.5},
        "load_alias_map": {"path": root / "aliases.csv"},
        "load_panel": {"path": str(DATA / "toy_gci.csv"), "indicator": "gci",
                       "aliases": {"ALB": "ALX"}},
        "ols_linear": columns,
        "rank_changes": {"panel": balanced, "window": 2, "overlapping": False},
        "rank_matrix": {"panel": balanced},
        "relative_competitiveness": {"fit": xs.fit},
        "serialize_panel": {"panel": gdp},
        "simulate_country": {"mu": 2.0, "sigma": 0.5, "n_jobs": 8, "gamma": 0.5, "seed": 3},
        "split_by_sign": {"d": [0.5, -1.0, 0.0], "growth": [0.1, 0.2, 0.3]},
        "sweep": {"config": config, "threads": 1},
        "two_sample_t": {"a": [1.0, 2.0, 4.0], "b": [2.0, 5.0]},
    }


# Arguments of the wrong type, shape or range for every parameter of the library.
HOSTILE = st.sampled_from([
    "x", "", "2000", 2.5, -0.5, True, False, None, [[1.0, 2.0], [3.0]], [[2000, 2001]],
    [1.0, "a"], [2000.7, 2002.9], 10**400, -(10**400), math.nan, math.inf, -1, 0,
    np.array([]), np.ones((2, 2)), np.array(["a", "b"]),
])


def test_valid_arguments_name_every_parameter_of_every_export(library_calls):
    assert sorted(library_calls) == sorted(name for name in econrank.__all__
                                           if name != "__version__")
    for name, kwargs in library_calls.items():
        assert list(kwargs) == list(inspect.signature(getattr(econrank, name)).parameters)


def argument(value: object) -> st.SearchStrategy:
    """A call that makes ``value``, a hostile argument or, where ``value`` is a dataclass built
    from its fields, ``dataclasses.replace(value, <one field>=<hostile>)``, as a user may."""
    options = [st.one_of(st.just(value), HOSTILE).map(lambda v: lambda: v)]
    fields = [f.name for f in dataclasses.fields(value)] if dataclasses.is_dataclass(value) else []
    if fields and fields == list(inspect.signature(type(value)).parameters):
        options.append(st.tuples(st.sampled_from(fields), HOSTILE).map(
            lambda change: lambda: dataclasses.replace(value, **dict([change]))))
    return st.one_of(options)


@settings(max_examples=400)
@given(st.data())
def test_every_library_call_returns_or_raises_a_family(library_calls, data):
    name = data.draw(st.sampled_from(sorted(library_calls)), label="callable")
    makers = {key: data.draw(argument(value), label=key)
              for key, value in library_calls[name].items()}
    kwargs = {}
    try:  # a replaced field may fail in the dataclass's own checks
        kwargs = {key: make() for key, make in makers.items()}
        getattr(econrank, name)(**kwargs)
    except EconRankError:
        pass
    except OSError:  # a string that names no file is out of this contract's scope
        assert isinstance(kwargs.get("path"), str)


# Calls that leaked numpy's or Python's own error, or returned a silent or misleading
# answer, while each module checked its arguments its own way; p is a 3 x 4 panel.
LEAKS = {
    "fit_power_law([1, 2, 3], [1, 2, 'x'])": DataError,
    "two_sample_t([1, 2], ['a', 3])": DataError,
    "IndicatorPanel('gdp', ['A'], [2000], [10**400])": DataError,
    "balanced_subset(ip, (2000, 'x'))": ParameterError,
    "balanced_subset(ip, (2000.7, 2002.9))": ParameterError,
    "rank_changes(p, 2.5)": ParameterError,
    "rank_changes(p, '2')": ParameterError,
    "rank_changes(p, True)": ParameterError,
    "exceedance_probability(fit, 'x')": ParameterError,
    "laplace_density('x', 1)": ParameterError,
    "load_panel(None, 'gdp')": ParameterError,
    "growth_rate(p, [9])": ParameterError,
    "growth_rate(p, [1.5])": ParameterError,
    "growth_rate(p, [-1])": ParameterError,
    "cross_section(p, p, '2003')": ParameterError,
    "cross_section(p, p, 2003, 'AB')": ParameterError,  # a str matched codes by substring
    "sweep(None)": ParameterError,
    "rank_matrix(None)": ParameterError,
    "fit_model_regression(None)": ParameterError,
    "serialize_panel(None)": ParameterError,
    # a result object's fields, and the forms each panel axis no longer takes
    "exceedance_probability(LaplaceFit(decay=-1.0, n=2, mean_abs=1.0, log_likelihood=0.0), "
    "1000)": ParameterError,
    "relative_competitiveness(PowerLawFit(1.0, 0.0, 0.0, 1.0, 1.0, None, None))": DataError,
    "relative_competitiveness(PowerLawFit(1.0, 0.0, 0.0, 1.0, 1.0, np.ones((2, 2)), None))":
        DataError,
    "relative_competitiveness(PowerLawFit(1.0, 0.0, 0.0, 1.0, 1.0, np.ones((2, 3)), [1, 2]))":
        DataError,
    "fit_model_regression(Ensemble(*[None] * 6))": DataError,
    "load_panel(toy, 'gdp', {'ALB': 1})": ParameterError,
    "load_panel(toy, 'gdp', {1: 'ALB'})": ParameterError,
    "IndicatorPanel('gdp', ['A'], [10**20], [1.0])": DataError,
    "IndicatorPanel('gdp', ['A'], np.array([2**63], np.uint64), [1.0])": DataError,
}


@pytest.mark.parametrize("call", LEAKS)
def test_a_call_that_leaked_raises_the_family_of_the_rule(call):
    namespace = {name: getattr(econrank, name) for name in econrank.__all__}
    namespace["p"] = balanced(("A", "B", "C"), range(2000, 2004),
                              np.arange(1.0, 13.0).reshape(3, 4))
    namespace["ip"] = econrank.IndicatorPanel("gdp", ["A"] * 3, [2000, 2001, 2002], [1.0] * 3)
    namespace["fit"] = econrank.LaplaceFit(decay=0.5, n=4, mean_abs=2.0, log_likelihood=-6.8)
    namespace["np"], namespace["toy"] = np, DATA / "toy_gdp.csv"
    with pytest.raises(LEAKS[call]):
        eval(call, namespace)
