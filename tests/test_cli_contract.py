"""The CLI run contract under fuzzed inputs, and the lazy imports of the CLI.

Every run through ``cli.main`` ends with exit code 0, 1, 2 or 3. A failed run
prints exactly one ``error: `` line on stderr and leaves ``--out`` as it found
it; a successful run leaves exactly the files its manifest lists.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from econrank.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

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
def panel_csvs(draw) -> bytes:
    """A small complete panel with fuzzed rows spliced in.

    Fuzzed rows have wrong field counts, NUL bytes, stray quotes, huge years,
    repeats of other rows and, in a few files, bytes that are not UTF-8.
    """
    rows = [f"{c},{y},{draw(st.floats(0.5, 1e6))!r}" for c in CODES for y in YEARS]
    field = st.one_of(st.sampled_from(FUZZ_COUNTRIES), st.sampled_from(FUZZ_YEARS),
                      st.sampled_from(FUZZ_VALUES))
    fuzzed = st.one_of(
        st.builds(",".join, st.tuples(st.sampled_from(FUZZ_COUNTRIES),
                                      st.sampled_from(FUZZ_YEARS),
                                      st.sampled_from(FUZZ_VALUES))),
        st.builds(",".join, st.lists(field, max_size=5)),
    )
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(fuzzed))
    if draw(st.integers(0, 4)) == 0:
        rows.append(draw(st.sampled_from(rows)))  # a duplicate row
    header = draw(st.sampled_from(["country,year,value"] * 4 + ["\ufeffcountry,year,value",
                                                                "country,year", ""]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = newline.join([header, *rows, ""]).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_panel_commands_keep_the_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        x, y = root / "x.csv", root / "y.csv"
        x.write_bytes(data.draw(panel_csvs(), label="x"))
        command = data.draw(st.sampled_from(["ingest", "rank-dynamics", "cross-section"]))
        if command == "ingest":
            argv = ["ingest", "--input", x, "--indicator", "gdp"]
        elif command == "rank-dynamics":
            argv = ["rank-dynamics", "--input", x, "--indicator", "gdp",
                    "--window", data.draw(st.integers(1, 4))]
            if data.draw(st.booleans()):
                argv.append("--non-overlapping")
        else:
            y.write_bytes(data.draw(panel_csvs(), label="y"))
            argv = ["cross-section", "--input", x, "--input-y", y, "--years", "2000:2003",
                    "--growth", data.draw(st.sampled_from(["log", "relative"]))]
        out, before = data.draw(out_dirs(root))
        assert_contract([*argv, "--out", out], out, before)


# Values a config field may wrongly hold: wrong types, out of range, non-finite.
JUNK = st.one_of(
    st.sampled_from([None, True, False, "3", "", [], [1.0], [1.0, 2.0, 3.0], [2.0, 1.0],
                     [0.0, 1.0], [-1.0, 1.0], [1.0, "2"], {"low": 1}, 0, -1, 0.0, -0.5, 2.5,
                     5e-324, 1e308, 10**30, -(10**30), 1_000_001]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)


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
            config[name] = draw(JUNK)
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_simulate_keeps_the_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.json"
        config.write_bytes(data.draw(sweep_configs(), label="config"))
        out, before = data.draw(out_dirs(root))
        assert_contract(["simulate", "--config", config, "--threads", 1, "--out", out],
                        out, before)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # the sweep imports _seeds, and with it numpy.random, and concurrent.futures (which
    # loads logging) only when it runs; secrets (which loads hashlib) is imported only
    # to draw a missing sweep seed
    lazy = {"numpy.random", "econrank._seeds", "concurrent", "logging", "secrets", "hashlib"}
    probe = f"import sys, econrank.cli; print(sorted({lazy!r} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.stdout.strip() == "[]"
