import contextlib
import csv
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import econrank
from econrank import cli, errors, xsection
from econrank.cli import main
from panel_mapping import observations


def run(args, capsys=None):
    code = main([str(a) for a in args])
    return code


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestIngest:
    def test_writes_canonical_panel_and_manifest(self, toy_gdp_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["ingest", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--out", out]) == 0
        rows = read_rows(out / "panel.csv")
        assert len(rows) == 60
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "ingest"
        assert manifest["parameters"]["rows_skipped"] == 0
        assert sorted(manifest["produced_files"]) == ["manifest.json", "panel.csv"]

    def test_round_trips_through_itself(self, toy_gdp_csv, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run(["ingest", "--input", toy_gdp_csv, "--indicator", "gdp", "--out", first])
        run(["ingest", "--input", first / "panel.csv", "--indicator", "gdp",
             "--out", second])
        assert (first / "panel.csv").read_bytes() == (second / "panel.csv").read_bytes()

    def test_duplicate_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("country,year,value\nHRV,2011,10\nHRV,2011,11\n")
        assert run(["ingest", "--input", bad, "--indicator", "gdp",
                    "--out", tmp_path / "out"]) == 2
        assert "HRV" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert run(["ingest", "--input", tmp_path / "absent.csv",
                    "--indicator", "gdp", "--out", tmp_path / "out"]) == 1
        assert "error" in capsys.readouterr().err

    def test_alias_file_applied(self, tmp_path):
        src = tmp_path / "named.csv"
        src.write_text("country,year,value\nCroatia,2010,13.5\nCroatia,2011,13.9\n")
        aliases = tmp_path / "aliases.csv"
        aliases.write_text("source_name,iso3\nCroatia,HRV\n")
        out = tmp_path / "out"
        assert run(["ingest", "--input", src, "--indicator", "gdp",
                    "--alias", aliases, "--out", out]) == 0
        assert read_rows(out / "panel.csv")[0]["country"] == "HRV"

    def test_conflicting_alias_exits_2(self, tmp_path, capsys):
        src = tmp_path / "named.csv"
        src.write_text("country,year,value\nCroatia,2000,5.0\n")
        aliases = tmp_path / "aliases.csv"
        aliases.write_text("source_name,iso3\nCroatia,HRV\nCroatia,HRW\n")
        out = tmp_path / "out"
        assert run(["ingest", "--input", src, "--indicator", "gdp",
                    "--alias", aliases, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Croatia" in err[0]
        assert not out.exists()


class TestRankDynamics:
    def test_toy_panel_outputs(self, toy_gdp_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["rank-dynamics", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--window", 10, "--out", out]) == 0
        fit = read_json(out / "fit.json")
        # 5 countries x 2 overlapping decade windows; only BRA/CHN swap ranks
        assert fit["n"] == 10
        assert fit["decay"] == 2.5
        assert fit["mean_abs"] == 0.4
        deltas = read_rows(out / "deltas.csv")
        assert len(deltas) == 10
        assert {r["country"] for r in deltas} == {"ALB", "BRA", "CHN", "DEU", "USA"}
        pdf = read_rows(out / "pdf.csv")
        assert [r["bin"] for r in pdf] == ["-1", "0", "1"]
        assert float(pdf[1]["density"]) == 0.6  # 6 of the 10 deltas are zero
        manifest = read_json(out / "manifest.json")
        assert manifest["parameters"]["bins"] == "unit integer"

    def test_reruns_byte_identical(self, toy_gdp_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["rank-dynamics", "--input", toy_gdp_csv,
                        "--indicator", "gdp", "--out", out]) == 0
        for name in ("deltas.csv", "pdf.csv", "fit.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_window_longer_than_span_exits_1(self, toy_gdp_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["rank-dynamics", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--window", 30, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "window" in err and "span" in err
        assert not out.exists()  # failed runs leave nothing behind

    def test_years_subset_and_non_overlapping(self, toy_gdp_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["rank-dynamics", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--years", "2001:2011", "--window", 5, "--non-overlapping",
                    "--out", out]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["parameters"]["overlapping"] is False
        assert manifest["parameters"]["n_windows"] == 2

    def test_no_rank_movement_exits_3(self, toy_gdp_csv, tmp_path, capsys):
        # 2000-2006 rankings are frozen, so every delta is zero
        out = tmp_path / "out"
        assert run(["rank-dynamics", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--years", "2000:2006", "--window", 3, "--out", out]) == 3
        assert "infinite" in capsys.readouterr().err
        assert not out.exists()

    def test_single_delta_exits_3(self, tmp_path, capsys):
        # one country over 11 years gives one 10-year window and so one delta
        one = tmp_path / "one.csv"
        one.write_text("country,year,value\n" + "".join(f"AAA,{y},{y - 1990}\n"
                                                        for y in range(2000, 2011)))
        out = tmp_path / "out"
        assert run(["rank-dynamics", "--input", one, "--indicator", "gdp", "--out", out]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "got 1" in err[0]
        assert not out.exists()

    def test_bad_years_argument_exits_1(self, toy_gdp_csv, tmp_path, capsys):
        assert run(["rank-dynamics", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--years", "2000-2006", "--out", tmp_path / "out"]) == 1


@pytest.mark.parametrize(
    "command, route",
    [("rank-dynamics", "data"), ("rank-dynamics", "years"), ("cross-section", "years")],
)
def test_over_wide_year_span_exits_2(command, route, toy_gdp_csv, toy_gci_csv, tmp_path, capsys):
    huge = 10**20
    if route == "data":
        wide = tmp_path / "wide.csv"
        wide.write_text(f"country,year,value\nALB,2000,1.0\nALB,{huge},2.0\n")
        argv = [command, "--input", wide, "--indicator", "gdp"]
    elif command == "rank-dynamics":
        argv = [command, "--input", toy_gdp_csv, "--indicator", "gdp", f"--years=-{huge}:{huge}"]
    else:
        argv = [command, "--input", toy_gdp_csv, "--input-y", toy_gci_csv,
                f"--years=-{huge}:{huge}", "--year", 2009]
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "coverage" in err[0]
    assert not out.exists()


# SHA-256 of every data file of the toy-panel runs below. ingest and
# rank-dynamics do no BLAS or RNG work, so their digests hold on every platform.
TOY_GOLDEN = {
    ("ingest", "panel.csv"):
        "c10d35297e14b48c6f069deec2eef8f34ce12caf8e53d8386b80857521afb613",
    ("default", "deltas.csv"):
        "fd7d2cf8e98e093dd026e24e1df3c1062dbb2ceaf3b3558c5934eb4320fcbac0",
    ("default", "fit.json"):
        "ba3402f5040ec2d6f0689070f3c5f2ad217fde91a8f917353d64f7564a36e1f0",
    ("default", "pdf.csv"):
        "492cdd6bdb04bcba81bad880cbf345c2e01e18aa624942f27b21585831f96dc1",
    ("window3", "deltas.csv"):
        "78d37e54144d0dff9a5a4b3ac087c53cbe7a7c0245fae381341850ae784fa194",
    ("window3", "fit.json"):
        "f49f35102f5da882a5cb483ef3383fdbd01ffe6a6fe54dafb30571ccd4088e1f",
    ("window3", "pdf.csv"):
        "768051260d13bf7914cee525eeea2c0e3a12e82b78444b09ac956d89d1994b94",
}


def test_toy_outputs_match_golden_bytes(toy_gdp_csv, tmp_path):
    runs = {
        "ingest": ["ingest"],
        "default": ["rank-dynamics"],
        "window3": ["rank-dynamics", "--window", 3, "--non-overlapping"],
    }
    for name, command in runs.items():
        assert run([*command, "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--out", tmp_path / name]) == 0
    digests = {
        (name, file): hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest()
        for name, file in TOY_GOLDEN
    }
    assert digests == TOY_GOLDEN


# cross-section's fit takes np.log and dot products over the 5 toy points, so its
# digests also assume this platform's numpy rounds those as it did when recorded.
CROSS_SECTION_GOLDEN = {
    ("default", "fit.json"):
        "9f47714b950a0872208819bf9cfec5bddca00c12fe83aa618dc94105e9ff0202",
    ("default", "dscores.csv"):
        "be71830a4a99803f1863017143da2a9f42baadb05461c4f0b20a5fe87249ab54",
    ("default", "ttest.json"):
        "b11d4877f84716a1a014684c931ea78f307ffdabc25ca02cda91b05566decaa6",
    ("default", "growth_vs_d.csv"):
        "ced19fa8fc2dd6cc92262014bf1fec5aba1da094c94f619d4f9fc5bbc530b97a",
    ("default", "points.csv"):
        "ff802ec4be2a1bd28b2adbe884e63f79d068cd2266810732a8f9ba6d94037e42",
    ("default", "fitline.csv"):
        "dea789c9b170cc2739973ac5034959781ae616efb0b1e4483584bbe4828e46a7",
    ("default", "growth_fitline.csv"):
        "ce95377704e99e6c13e570e97da6b7b2bf262ab15585be15a5d79b1f77c723f7",
    ("relative", "fit.json"):
        "9f47714b950a0872208819bf9cfec5bddca00c12fe83aa618dc94105e9ff0202",
    ("relative", "dscores.csv"):
        "be71830a4a99803f1863017143da2a9f42baadb05461c4f0b20a5fe87249ab54",
    ("relative", "ttest.json"):
        "50b576f937a7ae43ff556dad5525470eb4dbc3d7f0a615c9c2ac66252f27d841",
    ("relative", "growth_vs_d.csv"):
        "4d17943ae5ecf59520be0ac150ee5ba407b7b4fda286baaaf07cc235ae223ed7",
    ("relative", "points.csv"):
        "ff802ec4be2a1bd28b2adbe884e63f79d068cd2266810732a8f9ba6d94037e42",
    ("relative", "fitline.csv"):
        "dea789c9b170cc2739973ac5034959781ae616efb0b1e4483584bbe4828e46a7",
    ("relative", "growth_fitline.csv"):
        "124b28c5118cd87908361780da5c73adcbd2591d270c1518f42c205cf7355d90",
    ("exclude", "fit.json"):
        "a33d189d41b421fe2e086be636553bdcd1e342b257680eb45e687acd525a0f5a",
    ("exclude", "dscores.csv"):
        "adbf0aef0b83cfd0541bd39dd4e8b238ff8ed114c4023a24792958de2242f0a3",
    ("exclude", "ttest.json"):
        "dfaccd27c020e58f6965ca2ea98ed9ae5512a16b91e1cac684a56af6702ef6d9",
    ("exclude", "growth_vs_d.csv"):
        "716dc2240d2ae74a0efd7f624a7789d92cd58b3242e0b43ce914085467eafcbe",
    ("exclude", "points.csv"):
        "5d73d098b7ebcd7802d7e3510180c02cc023bff8436d27856795612e4ad010cc",
    ("exclude", "fitline.csv"):
        "f365bd14561a03ca1458356c81ff78772715be83a02a14ba149a64cdc0a320e9",
    ("exclude", "growth_fitline.csv"):
        "4455997b8138495d5460d595d3bb4d4c08d7eed9ae1d8992c61c769e44c7e0e6",
}


def test_toy_cross_section_matches_golden_bytes(toy_gdp_csv, toy_gci_csv, tmp_path):
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("BRA\n")
    runs = {"default": [], "relative": ["--growth", "relative"],
            "exclude": ["--exclude", exclude]}
    for name, extra in runs.items():
        assert run(["cross-section", "--input", toy_gdp_csv, "--input-y", toy_gci_csv,
                    "--years", "2008:2011", "--out", tmp_path / name, *extra]) == 0
    digests = {
        (name, file): hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest()
        for name, file in CROSS_SECTION_GOLDEN
    }
    assert digests == CROSS_SECTION_GOLDEN


class TestCrossSection:
    def run_default(self, toy_gdp_csv, toy_gci_csv, out, extra=()):
        return run(["cross-section", "--input", toy_gdp_csv, "--input-y", toy_gci_csv,
                    "--years", "2008:2011", "--out", out, *extra])

    def test_toy_outputs(self, toy_gdp_csv, toy_gci_csv, tmp_path):
        out = tmp_path / "out"
        assert self.run_default(toy_gdp_csv, toy_gci_csv, out) == 0
        fit = read_json(out / "fit.json")
        assert fit["n"] == 5
        assert 0 < fit["alpha"] < 1
        scores = read_rows(out / "dscores.csv")
        assert [r["country"] for r in scores] == ["ALB", "BRA", "CHN", "DEU", "USA"]
        assert abs(sum(float(r["d"]) for r in scores)) < 1e-10
        ttest = read_json(out / "ttest.json")
        assert ttest["df"] == ttest["n_a"] + ttest["n_b"] - 2 == 3
        growth_rows = read_rows(out / "growth_vs_d.csv")
        assert len(growth_rows) == 5
        fitline = read_rows(out / "fitline.csv")
        assert len(fitline) == 100
        assert set(fitline[0]) == {"gdp", "gci"}

    def test_exclusion_list(self, toy_gdp_csv, toy_gci_csv, tmp_path):
        exclude = tmp_path / "exclude.txt"
        exclude.write_text("# oil exporters\nBRA\n")
        out = tmp_path / "out"
        assert self.run_default(toy_gdp_csv, toy_gci_csv, out,
                                ("--exclude", exclude)) == 0
        scores = read_rows(out / "dscores.csv")
        assert "BRA" not in {r["country"] for r in scores}
        points = {r["country"]: r["excluded"] for r in read_rows(out / "points.csv")}
        assert points["BRA"] == "1"  # shown but not fitted
        assert points["USA"] == "0"

    def test_exclusion_file_may_start_with_bom(self, toy_gdp_csv, toy_gci_csv, tmp_path):
        # the BOM must not end up in the first code, as the panel loaders strip it too
        for name, content in (("plain", b"ALB\n"), ("bom", b"\xef\xbb\xbfALB\n")):
            exclude = tmp_path / f"{name}.txt"
            exclude.write_bytes(content)
            assert self.run_default(toy_gdp_csv, toy_gci_csv, tmp_path / name,
                                    ("--exclude", exclude)) == 0
            parameters = read_json(tmp_path / name / "manifest.json")["parameters"]
            assert (parameters["excluded"], parameters["n_fitted"]) == (["ALB"], 4), name

    def test_relative_growth_flag(self, toy_gdp_csv, toy_gci_csv, tmp_path):
        out_log = tmp_path / "log"
        out_rel = tmp_path / "rel"
        assert self.run_default(toy_gdp_csv, toy_gci_csv, out_log) == 0
        assert self.run_default(toy_gdp_csv, toy_gci_csv, out_rel,
                                ("--growth", "relative")) == 0
        log_rows = {r["country"]: float(r["growth"])
                    for r in read_rows(out_log / "growth_vs_d.csv")}
        rel_rows = {r["country"]: float(r["growth"])
                    for r in read_rows(out_rel / "growth_vs_d.csv")}
        for country in log_rows:
            assert rel_rows[country] == pytest.approx(
                math.exp(log_rows[country]) - 1, abs=1e-9
            )

    @pytest.mark.parametrize(
        "excluded, message",
        [(["ALB", "BRA"], "each group needs at least 2 values, got 2 and 1"),
         (["ALB", "BRA", "CHN"], "need at least 3 points, got 2"),
         (["ALB", "BRA", "CHN", "DEU", "USA"], "need at least 3 points, got 0")],
        ids=["one_negative_score", "two_points", "no_points"],
    )
    def test_too_small_sample_exits_3(self, excluded, message, toy_gdp_csv, toy_gci_csv,
                                      tmp_path, capsys):
        exclude = tmp_path / "exclude.txt"
        exclude.write_text("".join(f"{c}\n" for c in excluded))
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("untouched\n")
        assert self.run_default(toy_gdp_csv, toy_gci_csv, out, ("--exclude", exclude)) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == f"error: {message}"
        assert {p.name: p.read_text() for p in out.iterdir()} == {"keep.txt": "untouched\n"}

    def test_year_outside_window_exits_1(self, toy_gdp_csv, toy_gci_csv, tmp_path):
        assert self.run_default(toy_gdp_csv, toy_gci_csv, tmp_path / "out",
                                ("--year", "2000")) == 1

    @pytest.mark.parametrize(
        "v0, v1, growth",
        [(1e-320, 1e308, "log"), (1e-320, 1e308, "relative"), (1e308, 1e-320, "log")],
    )
    def test_growth_outside_float_range_exits_3(self, v0, v1, growth, tmp_path, capsys):
        # a numpy warning or a traceback on stderr would fail this test
        gdp, gci = tmp_path / "gdp.csv", tmp_path / "gci.csv"
        rows = [("AAA", v0, v1, 4.1), ("BBB", 2, 3, 3.2), ("CCC", 4, 5, 4.5),
                ("DDD", 6, 8, 3.9), ("EEE", 3, 4, 4.4)]
        gdp.write_text("country,year,value\n" + "".join(
            f"{c},2000,{a!r}\n{c},2001,{b!r}\n" for c, a, b, _ in rows))
        gci.write_text("country,year,value\n" + "".join(f"{c},2001,{g}\n" for c, *_, g in rows))
        out = tmp_path / "out"
        code = run(["cross-section", "--input", gdp, "--input-y", gci, "--years", "2000:2001",
                    "--growth", growth, "--out", out])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "AAA" in err[0]
        assert not out.exists()

    @staticmethod
    def write_panels(tmp_path, x_rows, y_rows):
        """x rows (code, 2000 value, 2001 value) and y rows (code, 2001 value) as CSVs."""
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        x.write_text("country,year,value\n" + "".join(
            f"{c},2000,{a!r}\n{c},2001,{b!r}\n" for c, a, b in x_rows))
        y.write_text("country,year,value\n" + "".join(f"{c},2001,{g}\n" for c, g in y_rows))
        return x, y

    def test_growth_covers_only_the_fitted_rows(self, tmp_path):
        # a non-gdp indicator may be 0 or negative; only the fitted rows need positive growth
        fitted = [("AAA", 2.0, 3.0, 4.1), ("BBB", 2.0, 3.0, 3.2), ("CCC", 4.0, 5.0, 4.5),
                  ("DDD", 6.0, 8.0, 3.9), ("EEE", 3.0, 4.0, 4.4)]
        x, y = self.write_panels(
            tmp_path,
            [(c, a, b) for c, a, b, _ in fitted] + [("XXX", -2.0, 3.0), ("ZZZ", 0.0, 5.0)],
            [(c, g) for c, *_, g in fitted] + [("XXX", 3.5)],  # ZZZ has no y value
        )
        exclude = tmp_path / "exclude.txt"
        exclude.write_text("XXX\n")
        out = tmp_path / "out"
        assert run(["cross-section", "--input", x, "--indicator", "score", "--input-y", y,
                    "--years", "2000:2001", "--exclude", exclude, "--out", out]) == 0
        codes = [c for c, *_ in fitted]
        assert [r["country"] for r in read_rows(out / "growth_vs_d.csv")] == codes
        points = {r["country"]: r["excluded"] for r in read_rows(out / "points.csv")}
        assert points == {**dict.fromkeys(codes, "0"), "XXX": "1"}

    def test_one_year_growth_window_exits_1(self, tmp_path, capsys):
        x, y = self.write_panels(
            tmp_path, [(c, 2.0 + k, 3.0 + k) for k, c in enumerate("ABCDE")],
            [(c, 3.0 + k % 3) for k, c in enumerate("ABCDE")],
        )
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("untouched\n")
        assert run(["cross-section", "--input", x, "--input-y", y, "--years", "2001:2001",
                    "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert {p.name: p.read_text() for p in out.iterdir()} == {"keep.txt": "untouched\n"}

    def test_no_common_country_exits_2(self, toy_gdp_csv, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_text("country,year,value\nZZZ,2011,4.0\n")
        assert run(["cross-section", "--input", toy_gdp_csv, "--input-y", other,
                    "--years", "2008:2011", "--out", tmp_path / "out"]) == 2


# "AAA\x00" sits beside "AAA": the loader keeps them apart, and so must the alignment
# (a numpy "<U" array would drop the trailing NUL and match the two)
XS_CODES = ("AAA", "AAA\x00", *(c * 3 for c in "BCDEFGHIJ"))
XS_YEARS = range(2000, 2004)


@st.composite
def cross_section_inputs(draw):
    """Two panels as {code: {year: value}}, a growth window, a fit year and an exclusion set.

    Each panel lacks some codes and some years of others; the exclusion set may name
    codes neither panel holds; a row that cannot be fitted, being excluded or in one
    panel only, may hold a nonpositive value; values often tie.
    """
    t1 = draw(st.integers(2001, 2003), label="t1")
    year = draw(st.integers(2000, t1), label="year")
    held = XS_CODES[:draw(st.integers(0, len(XS_CODES)), label="n_codes")]
    codes = [set(held) - draw(st.sets(st.sampled_from(XS_CODES), max_size=4), label=name)
             for name in ("dropped_x", "dropped_y")]
    excluded = draw(st.sets(st.sampled_from([*XS_CODES, "ZZZ"]), max_size=3), label="excluded")
    unfitted = excluded | (codes[0] ^ codes[1])
    positive = st.floats(0.5, 1e4) | st.sampled_from([2.0, 300.0])

    def panel(codes, name):
        gaps = draw(st.sets(st.tuples(st.sampled_from(XS_CODES), st.sampled_from(XS_YEARS)),
                            max_size=3), label=name)
        return {c: {t: draw(positive | st.sampled_from([0.0, -1.5]) if c in unfitted
                            else positive) for t in XS_YEARS if (c, t) not in gaps}
                for c in sorted(codes)}

    return panel(codes[0], "gaps_x"), panel(codes[1], "gaps_y"), t1, year, excluded


def cross_section_reference(x, y, x_name, t1, year, excluded, growth):
    """The points rows, each fitted code's growth, keyed by code, and the fit, or the error.

    The fit and the group statistics are the library's, run on the rows chosen here.
    """
    if "gdp" in x_name:  # the loader skips nonpositive values of gdp-like indicators
        x = {c: {t: v for t, v in obs.items() if v > 0} for c, obs in x.items()}
    complete_x = {c for c, obs in x.items() if all(t in obs for t in range(2000, t1 + 1))}
    complete_y = {c for c, obs in y.items() if year in obs}
    if not complete_x or not complete_y:
        raise errors.EmptyPanelError
    shared = sorted(complete_x & complete_y)
    if not shared:
        raise errors.DataError
    points = [(c, x[c][year], y[c][year], int(c in excluded)) for c in shared]
    fitted = [c for c in shared if c not in excluded]
    fit = xsection.fit_power_law([x[c][year] for c in fitted], [y[c][year] for c in fitted],
                                 labels=fitted)
    ends = {c: (x[c][2000], x[c][t1]) for c in fitted}
    g = {c: math.log(b / a) if growth == "log" else (b - a) / a for c, (a, b) in ends.items()}
    d, column = fit.sample[:, 2], np.array([g[c] for c in fitted])
    xsection.two_sample_t(*xsection.split_by_sign(d, column))
    xsection.ols_linear(d, column)
    return points, g, fit


@settings(max_examples=200, deadline=None)
@given(inputs=cross_section_inputs(), x_name=st.sampled_from(["gdp", "score"]),
       growth=st.sampled_from(["log", "relative"]))
def test_cross_section_rows_match_a_keyed_reference(inputs, x_name, growth):
    x, y, t1, year, excluded = inputs
    try:
        expected = cross_section_reference(x, y, x_name, t1, year, excluded, growth)
    except errors.EconRankError as exc:
        expected = type(exc)
    raised = []
    run_cross_section = cli._run_cross_section

    def runner(args):
        try:
            return run_cross_section(args)
        except errors.EconRankError as exc:
            raised.append(type(exc))
            raise

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, obs in (("x.csv", x), ("y.csv", y)):
            (root / name).write_text("country,year,value\n" + "".join(
                f"{c},{t},{v!r}\n" for c, values in obs.items() for t, v in values.items()))
        (root / "exclude.txt").write_text("".join(f"{c}\n" for c in excluded))
        try:  # the library call, on the panels the command balances
            balanced = [econrank.balanced_subset(econrank.load_panel(root / name, ind)[0], span)
                        for name, ind, span in (("x.csv", x_name, (2000, t1)),
                                                ("y.csv", "score_y", (year, year)))]
            result = xsection.cross_section(*balanced, year, excluded, method=growth)
        except errors.EconRankError as exc:
            result = type(exc)
        err = io.StringIO()
        with mock.patch.object(cli, "_run_cross_section", runner), \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["cross-section", "--input", root / "x.csv", "--indicator", x_name,
                        "--input-y", root / "y.csv", "--indicator-y", "score_y",
                        "--years", f"2000:{t1}", "--year", year, "--growth", growth,
                        "--exclude", root / "exclude.txt", "--out", root / "out"])
        if isinstance(expected, type):
            assert (code, raised, result) == (expected.exit_code, [expected], expected)
            assert len(err.getvalue().splitlines()) == 1
            return
        assert (code, raised, err.getvalue()) == (0, [], "")
        points, g, fit = expected
        assert result.countries == tuple(c for c, _, _, _ in points)
        assert result.x.tolist() == [a for _, a, _, _ in points]
        assert result.y.tolist() == [b for _, _, b, _ in points]
        assert result.keep.tolist() == [not e for _, _, _, e in points]
        assert result.fit.labels == tuple(g)
        assert result.growth.tolist() == list(g.values())
        assert result.fit.sample[:, 2].tolist() == fit.sample[:, 2].tolist()
        with open(root / "out" / "points.csv", newline="") as handle:
            assert list(csv.reader(handle))[1:] == [
                [c, f"{a:.12g}", f"{b:.12g}", str(e)] for c, a, b, e in points]
        with open(root / "out" / "growth_vs_d.csv", newline="") as handle:
            assert [(r[0], r[2]) for r in list(csv.reader(handle))[1:]] == [
                (c, f"{v:.12g}") for c, v in g.items()]


def test_trace_records_the_calls_cross_section_makes(toy_gdp_csv, toy_gci_csv, tmp_path):
    # bench/spans.py patches module attributes: a call bound at import escapes its span
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with tracer.installed(econrank):
        assert run(["cross-section", "--input", toy_gdp_csv, "--input-y", toy_gci_csv,
                    "--out", tmp_path / "out"]) == 0
    assert {"panel.growth_rate", "xsection.fit_power_law", "xsection.split_by_sign",
            "xsection.two_sample_t", "xsection.ols_linear"} <= {s[0] for s in tracer.spans}


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        config = dict(n_countries=60, n_jobs=400, mu_range=[5.0, 20.0],
                      sigma_range=[0.5, 20.0], gamma=0.1, seed=1234)
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_outputs_and_manifest_seed(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--threads", 2,
                    "--out", out]) == 0
        rows = read_rows(out / "ensemble.csv")
        assert len(rows) == 60
        assert list(rows[0]) == ["country_index", "mu", "sigma", "E", "GDP",
                                 "gdp", "gci_th"]
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == 1234
        fit = read_json(out / "model_fit.json")
        assert fit["alpha"] > 0

    def test_seed_flag_overrides_config(self, tmp_path):
        config = self.write_config(tmp_path)
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run(["simulate", "--config", config, "--seed", 77, "--out", out_a])
        run(["simulate", "--config", config, "--seed", 77, "--out", out_b])
        run(["simulate", "--config", config, "--out", out_c])
        assert (out_a / "ensemble.csv").read_bytes() == (out_b / "ensemble.csv").read_bytes()
        assert (out_a / "ensemble.csv").read_bytes() != (out_c / "ensemble.csv").read_bytes()
        assert read_json(out_a / "manifest.json")["seed"] == 77

    def test_generated_seed_recorded(self, tmp_path):
        config = self.write_config(tmp_path)
        raw = json.loads(config.read_text())
        del raw["seed"]
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        assert isinstance(read_json(out / "manifest.json")["seed"], int)

    def test_threads_do_not_change_bytes(self, tmp_path):
        config = self.write_config(tmp_path)
        out_1, out_8 = tmp_path / "t1", tmp_path / "t8"
        run(["simulate", "--config", config, "--threads", 1, "--out", out_1])
        run(["simulate", "--config", config, "--threads", 8, "--out", out_8])
        for name in ("ensemble.csv", "model_fit.json", "fitline.csv"):
            assert (out_1 / name).read_bytes() == (out_8 / name).read_bytes()

    def test_unknown_config_field_exits_1(self, tmp_path, capsys):
        config = self.write_config(tmp_path, extra_field=3)
        assert run(["simulate", "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'extra_field'" in err[0]

    def test_missing_config_field_exits_1(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        raw = json.loads(config.read_text())
        del raw["sigma_range"]
        config.write_text(json.dumps(raw))
        assert run(["simulate", "--config", config, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'sigma_range'" in err[0]

    def test_invalid_json_exits_1(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert run(["simulate", "--config", config, "--out", tmp_path / "out"]) == 1

    @pytest.mark.parametrize(
        "overrides, flags",
        [
            ({}, ("--seed", -5)),
            ({"seed": -1}, ()),
            ({"seed": "x"}, ()),
            ({"mu_range": {"a": 1}}, ()),
            ({"n_countries": float("inf")}, ()),  # int(inf) overflows
            ({"n_countries": 3.7}, ()),
            ({"seed": 1.9}, ()),
            ({"seed": True}, ()),
            ({"mu_range": [1, 2, 99]}, ()),
            ({"mu_range": "12"}, ()),
            ({"gamma": "0.1"}, ()),
        ],
    )
    def test_malformed_seed_or_range_exits_1(self, tmp_path, capsys, overrides, flags):
        config = self.write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, *flags, "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_oversized_sweep_exits_1_before_simulating(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(econrank.abm, "sweep", no_sweep)
        config = self.write_config(tmp_path, n_countries=econrank.abm._MAX_COUNTRIES + 1)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "n_countries" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("n_countries", [1, 2])
    def test_too_few_countries_to_fit_exits_3(self, n_countries, tmp_path, capsys):
        config = self.write_config(tmp_path, n_countries=n_countries)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--threads", 1, "--out", out]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: need at least 3 points, got {n_countries}"]
        assert not out.exists()

    def test_constant_sigma_exits_3(self, tmp_path):
        config = self.write_config(tmp_path, sigma_range=[2.0, 2.0])
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 3
        assert not out.exists()

    def test_overflowing_proxy_exits_3(self, tmp_path, capsys):
        config = self.write_config(tmp_path, sigma_range=[1e-300, 1e-300], gamma=2)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "overflow" in err[0]
        assert not out.exists()

    def test_overflowing_output_exits_3(self, tmp_path, capsys):
        # mu * E overflows to inf; a numpy warning would fail this test
        config = self.write_config(tmp_path, n_countries=20, n_jobs=100,
                                   mu_range=[1e308, 1.7e308], seed=3)
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not out.exists()


# SHA-256 of the simulate data files for the standard sweep and for a sweep
# whose n_jobs exceeds two kernel leaves, so E is summed over several chunks.
# The normal draws are platform-independent; np.exp and the fit's dot products
# may round differently with another numpy build or CPU (these are numpy 2.4
# on x86-64).
SIMULATE_GOLDEN = {
    ("fig7", "ensemble.csv"):
        "5f1b165c15f48c1464320b925d6f63685d2133d09d82f48bb41fa0d900e49243",
    ("fig7", "model_fit.json"):
        "a7ea2d3f187392350a68a3ffa8da31af038dadc198af67a0895828761f838602",
    ("fig7", "fitline.csv"):
        "0d63051705dbe5e1a15436aa5cbc91569bafa8e7b51f66b8bd2e362122ac0d80",
    ("multi_leaf", "ensemble.csv"):
        "632fd96fe62479c6090144401a0c7b3ad2f8f7d1f9528f64c715502324399cb3",
    ("multi_leaf", "model_fit.json"):
        "b83fd3e7a37625901bd67a144c976b485a298b9067554752a8ef48f675cb3aaa",
    ("multi_leaf", "fitline.csv"):
        "090f2318c6e1812f069f534d05fcd41f13ec68bb3ac126ad562419118d8bc474",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_outputs_match_golden_bytes(threads, fig7_config, tmp_path):
    multi_leaf = tmp_path / "multi_leaf.json"
    multi_leaf.write_text(json.dumps(dict(
        n_countries=5, n_jobs=200_003, mu_range=[5.0, 20.0], sigma_range=[0.5, 20.0],
        gamma=0.1, seed=2012)))
    assert econrank.abm._LEAF * 2 < 200_003
    for name, config in (("fig7", fig7_config), ("multi_leaf", multi_leaf)):
        assert run(["simulate", "--config", config, "--threads", threads,
                    "--out", tmp_path / name]) == 0
    digests = {
        (name, file): hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest()
        for name, file in SIMULATE_GOLDEN
    }
    assert digests == SIMULATE_GOLDEN


def test_config_may_start_with_bom(tmp_path):
    # as --input, --alias and --exclude files may; the BOM is not part of the JSON
    config = json.dumps(dict(n_countries=20, n_jobs=1_000, mu_range=[5.0, 20.0],
                             sigma_range=[0.5, 20.0], gamma=0.1, seed=7)).encode()
    data = {}
    for name, content in (("plain", config), ("bom", b"\xef\xbb\xbf" + config)):
        (tmp_path / f"{name}.json").write_bytes(content)
        assert run(["simulate", "--config", tmp_path / f"{name}.json", "--threads", 1,
                    "--out", tmp_path / name]) == 0
        data[name] = {file: (tmp_path / name / file).read_bytes()
                      for file in ("ensemble.csv", "model_fit.json", "fitline.csv")}
    assert data["bom"] == data["plain"]


@pytest.mark.parametrize(
    "flag, content, code",
    [
        ("--input", b"country,year,value\nAL\xffB,2000,1.0\n", 2),
        ("--input", b"country,year,value\n" + b"A" * 200_000 + b",2000,1.0\n", 2),
        ("--alias", b"source_name,iso3\nCro\xffatia,HRV\n", 2),
        ("--exclude", b"AL\xffB\n", 2),
        ("--config", b'{"n_countries": 1\xff}', 1),
        ("--config", b"[" * 200_000 + b"]" * 200_000, 1),
    ],
    ids=["input", "big_field", "alias", "exclude", "config", "nested_config"],
)
def test_unreadable_file_exits_with_one_line(flag, content, code, toy_gdp_csv, toy_gci_csv,
                                             tmp_path, capsys):
    bad = tmp_path / "bad_file"
    bad.write_bytes(content)
    if flag == "--config":
        argv = ["simulate", "--config", bad]
    else:
        files = {"--input": toy_gdp_csv, "--input-y": toy_gci_csv, flag: bad}
        argv = ["cross-section", "--years", "2008:2011", *(a for kv in files.items() for a in kv)]
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and bad.name in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rank-dynamics", "--indicator", "gdp", "--years", "2000-2006"], "--years"),
        (["rank-dynamics", "--indicator", "gdp", "--years", "2006:2000"], "--years"),
        (["rank-dynamics", "--indicator", "gdp", "--window", "0"], "--window"),
        (["rank-dynamics", "--indicator", "gdp", "--years", "2000:2005", "--window", "10"],
         "--window 10"),
        (["cross-section", "--years", "2008:2011", "--year", "1999"], "--year 1999"),
        (["cross-section", "--years", "2011:2011"], "--years"),
        (["simulate", "--threads", "0"], "--threads"),
        (["simulate", "--seed", "-1"], "--seed"),
    ],
    ids=["rank_dynamics_years", "rank_dynamics_reversed_years", "rank_dynamics_window",
         "rank_dynamics_window_over_years", "cross_section_year", "cross_section_one_year", "simulate_threads", "simulate_seed"],
)
def test_usage_error_is_reported_before_any_input_is_read(argv, message, tmp_path, capsys):
    # the file is not UTF-8: read as an input it is a data error (exit 2), and as a
    # config a usage error (exit 1) whose diagnostic names the config, not the flag
    bad = tmp_path / "bad_file"
    bad.write_bytes(b"country,year,value\nAL\xffB,2000,1.0\n")
    inputs = {"rank-dynamics": ["--input", bad], "simulate": ["--config", bad],
              "cross-section": ["--input", bad, "--input-y", bad]}[argv[0]]
    out = tmp_path / "out"
    assert run([*argv, *inputs, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("body", ["", "AAA,2000,n/a\nBBB,2000,-1\n,2001,3.5\n"],
                         ids=["header_only", "all_rows_bad"])
def test_rank_dynamics_without_observations_is_data_error(body, tmp_path, capsys):
    source = tmp_path / "gdp.csv"
    source.write_text("country,year,value\n" + body)
    out = tmp_path / "out"
    assert run(["rank-dynamics", "--input", source, "--indicator", "gdp", "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no observations for indicator 'gdp'"]
    assert not out.exists()


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_new_or_temporary_files(
        self, toy_gdp_csv, tmp_path, monkeypatch, capsys, existing
    ):
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "earlier.txt").write_text("from an earlier run\n")
        real_write_text = Path.write_text
        writes = []

        def failing_write_text(self, data, *args, **kwargs):
            if self.parent != out:
                return real_write_text(self, data, *args, **kwargs)
            writes.append(self.name)
            if len(writes) == 2:  # half the file reaches the disk, then it is full
                real_write_text(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device", str(self))
            return real_write_text(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write_text)
        code = run(["rank-dynamics", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--out", out])
        monkeypatch.undo()
        assert code == 2
        assert len(writes) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "No space left" in err[0]
        if existing:
            assert [p.name for p in out.iterdir()] == ["earlier.txt"]
        else:
            assert not out.exists()


class TestStaleOutputs:
    def test_rerun_removes_files_the_previous_manifest_listed(self, toy_gdp_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["rank-dynamics", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--out", out]) == 0
        (out / "notes.txt").write_text("put here by the user\n")
        assert run(["ingest", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "panel.csv"]
        assert read_json(out / "manifest.json")["produced_files"] == [
            "manifest.json", "panel.csv"]

    @pytest.mark.parametrize(
        "old_manifest",
        [
            '{"produced_files": ["../victim.txt", "sub", "sub/inner.txt", "", ".", ".."]}',
            '{"produced_files": "deltas.csv"}',
            '["deltas.csv"]',
            '{"produced_files": ["deltas.csv"',
        ],
    )
    def test_only_plain_files_of_a_readable_manifest_are_removed(
        self, toy_gdp_csv, tmp_path, old_manifest
    ):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        (out / "sub" / "inner.txt").write_text("inner\n")
        (out / "deltas.csv").write_text("not listed as a plain name\n")
        (tmp_path / "victim.txt").write_text("outside --out\n")
        (out / "manifest.json").write_text(old_manifest)
        assert run(["ingest", "--input", toy_gdp_csv, "--indicator", "gdp",
                    "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "deltas.csv", "manifest.json", "panel.csv", "sub"]
        assert (out / "sub" / "inner.txt").exists()
        assert (tmp_path / "victim.txt").exists()


# SHA-256 of the data files of the stress-shape runs below, derived with the
# row-by-row loader and renderers that the one-pass panel code replaced.
# Values come from random.Random.random() and IEEE arithmetic only, so the
# inputs are the same on every platform.
STRESS_GOLDEN = {
    ("ingest", "panel.csv"):
        "fecf5e15ef083ed388411f00b44efd6548144fcd16f9ea457e4bd1a5031bd0dc",
    ("default", "deltas.csv"):
        "b8dd318b5fa5d0252f034ec1dd1ce1ecf874012da36741cff12d18c25eccf89f",
    ("default", "fit.json"):
        "28d9fea2cbe8400037ee0a2b6daa028342cd3fc589c271ed4fe1a7656abb3324",
    ("default", "pdf.csv"):
        "297b23d466a2f6959f1f1b46cc5e86b0beb65a2d224c5b465d8aac1159d42222",
    ("window5", "deltas.csv"):
        "85ae7bcd0ff70472147c83386f65c6cb2f9690d06ad6f5432d68659d36f7d4ae",
    ("window5", "fit.json"):
        "709157f6282a2451100cd778ac0d85ec2a3d6001ea4a825668f044fb4fee36f1",
    ("window5", "pdf.csv"):
        "9f5df9b994f68176e4087154c8ba200bed8e6264d351a1e5255d80a6bff6c91a",
}
# One row for each reason the loader skips a row.
STRESS_BAD_ROWS = (
    "C001,1990",  # field count
    "C001,1990,1.0,extra",  # field count
    ",1990,123.5",  # blank country
    "Atlantis,1990,123.5",  # aliased to a blank country
    "C002,1990x,123.5",  # bad year
    "C003,1990,n/a",  # non-numeric value
    "C004,1990,",  # empty value
    "C005,1990,nan",  # non-finite
    "C006,1990,-inf",  # non-finite
    "C007,1990,0",  # nonpositive gdp
    "C008,1990,-42.25",  # nonpositive gdp
)


def write_stress_panel(directory: Path) -> tuple[Path, Path, int]:
    """A seeded 300-country x 40-year gdp panel with gaps, aliases and bad rows.

    Returns the panel path, the alias path and the number of data rows.
    """
    rng = random.Random(20120501)
    rows = []
    for i in range(300):
        code = f"C{i:03d}"
        name = f"Country {i}" if i % 20 == 0 else code  # resolved by the alias file
        level = 300.0 + 60000.0 * rng.random()
        for year in range(1971, 2011):
            level = round(level * (0.92 + 0.17 * rng.random()), 3)
            if i % 13 == 0 and rng.random() < 0.05:
                continue  # a gap: this country drops out of the balanced panel
            rows.append(f"{name},{year},{level!r}")
    rows += STRESS_BAD_ROWS
    rows += ["", "   ", " , , "]  # blank lines are not data rows
    rows.sort(key=lambda _: rng.random())
    panel_csv = directory / "stress.csv"
    panel_csv.write_text("country,year,value\n" + "\n".join(rows) + "\n")
    aliases = directory / "aliases.csv"
    aliases.write_text(
        "source_name,iso3\nAtlantis,\n"
        + "".join(f"Country {i},C{i:03d}\n" for i in range(0, 300, 20))
    )
    return panel_csv, aliases, len(rows) - 3


def test_stress_shape_outputs_match_golden_bytes(tmp_path):
    panel_csv, aliases, n_rows = write_stress_panel(tmp_path)
    runs = {
        "ingest": ["ingest"],
        "default": ["rank-dynamics"],
        "window5": ["rank-dynamics", "--years", "1980:2010", "--window", 5,
                    "--non-overlapping"],
    }
    for name, command in runs.items():
        assert run([*command, "--input", panel_csv, "--indicator", "gdp",
                    "--alias", aliases, "--out", tmp_path / name]) == 0
    parameters = read_json(tmp_path / "ingest" / "manifest.json")["parameters"]
    assert parameters["rows_skipped"] == len(STRESS_BAD_ROWS)
    assert parameters["observations"] == n_rows - len(STRESS_BAD_ROWS)
    digests = {
        (name, file): hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest()
        for name, file in STRESS_GOLDEN
    }
    assert digests == STRESS_GOLDEN


# names that CSV must quote: a comma, a quote, line breaks; "AAA".. stay plain
QUOTED_NAMES = ("Korea, Rep.", 'Q"x', "Line\nFeed", "Car\rriage", "AAA", "BBB")
QUOTED_INDICATOR = "gdp, current US$"


def write_quoted_panels(directory: Path) -> tuple[Path, Path]:
    """gdp over 2008-2011 and gci in 2011 for QUOTED_NAMES, written by csv.writer."""
    gdp_csv, gci_csv = directory / "gdp.csv", directory / "gci.csv"
    with open(gdp_csv, "w", newline="") as gdp, open(gci_csv, "w", newline="") as gci:
        gdp_rows, gci_rows = csv.writer(gdp), csv.writer(gci)
        gdp_rows.writerow(["country", "year", "value"])
        gci_rows.writerow(["country", "year", "value"])
        for i, name in enumerate(QUOTED_NAMES):
            for year in range(2008, 2012):
                # the ranking shifts every year
                gdp_rows.writerow([name, year, 1000.0 * (1 + (3 * i + 5 * year) % 7) + i])
            # alternating residual signs around gci ~ gdp^0.5
            gdp_2011 = 1000.0 * (1 + (3 * i + 5 * 2011) % 7) + i
            gci_rows.writerow([name, 2011, gdp_2011**0.5 * (1.1 if i % 2 else 0.9)])
    return gdp_csv, gci_csv


class TestQuotedNames:
    @pytest.fixture
    def inputs(self, tmp_path):
        return write_quoted_panels(tmp_path)

    def commands(self, inputs, fig7_config):
        gdp_csv, gci_csv = inputs
        return {
            "ingest": ["ingest", "--input", gdp_csv, "--indicator", QUOTED_INDICATOR],
            "rank-dynamics": ["rank-dynamics", "--input", gdp_csv,
                              "--indicator", QUOTED_INDICATOR, "--window", 2],
            "cross-section": ["cross-section", "--input", gdp_csv,
                              "--indicator", QUOTED_INDICATOR, "--input-y", gci_csv,
                              "--years", "2008:2011"],
            "simulate": ["simulate", "--config", fig7_config, "--threads", 2],
        }

    def test_ingest_reloads_identical_observations(self, inputs, tmp_path):
        out = tmp_path / "out"
        assert run(["ingest", "--input", inputs[0], "--indicator", QUOTED_INDICATOR,
                    "--out", out]) == 0
        original, _ = econrank.load_panel(inputs[0], QUOTED_INDICATOR)
        reloaded, skipped = econrank.load_panel(out / "panel.csv", QUOTED_INDICATOR)
        assert observations(reloaded) == observations(original)
        assert len(reloaded) == len(QUOTED_NAMES) * 4
        assert skipped == 0

    @pytest.mark.parametrize("command", ["ingest", "rank-dynamics", "cross-section", "simulate"])
    def test_every_csv_parses_to_header_width(self, command, inputs, fig7_config, tmp_path):
        out = tmp_path / "out"
        assert run([*self.commands(inputs, fig7_config)[command], "--out", out]) == 0
        written = sorted(out.glob("*.csv"))
        assert written
        for path in written:
            with open(path, newline="") as handle:
                header, *rows = csv.reader(handle)
            assert rows, path.name
            assert {len(row) for row in rows} == {len(header)}, path.name
            if header[0] == "country":
                assert set(QUOTED_NAMES) >= {row[0] for row in rows}, path.name
        if command == "cross-section":
            rows = read_rows(out / "points.csv")
            assert list(rows[0]) == ["country", QUOTED_INDICATOR, "gci", "excluded"]
            assert [row["country"] for row in rows] == sorted(QUOTED_NAMES)


class TestManifest:
    def test_lists_every_produced_file(self, toy_gdp_csv, toy_gci_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["cross-section", "--input", toy_gdp_csv, "--input-y", toy_gci_csv,
                    "--years", "2008:2011", "--out", out]) == 0
        manifest = read_json(out / "manifest.json")
        on_disk = sorted(p.name for p in out.iterdir())
        assert manifest["produced_files"] == on_disk

    @pytest.mark.parametrize("command", ["ingest", "rank-dynamics", "cross-section", "simulate"])
    def test_inputs_parameters_and_seed(self, command, toy_gdp_csv, toy_gci_csv, fig7_config,
                                        tmp_path):
        aliases = tmp_path / "aliases.csv"
        aliases.write_text("source_name,iso3\nAlbania,ALB\n")
        exclude = tmp_path / "exclude.txt"
        exclude.write_text("BRA\n")
        gdp, gci = str(toy_gdp_csv), str(toy_gci_csv)
        argv, inputs, parameters, seed = {
            "ingest": (
                ["--input", gdp, "--indicator", "gdp"],
                {"input": gdp, "alias": None},
                ["indicator", "observations", "rows_skipped"],
                None,
            ),
            "rank-dynamics": (
                ["--input", gdp, "--indicator", "gdp", "--alias", aliases],
                {"input": gdp, "alias": str(aliases)},
                ["indicator", "years", "window", "overlapping", "n_countries", "n_windows",
                 "rows_skipped", "bins"],
                None,
            ),
            "cross-section": (
                ["--input", gdp, "--input-y", gci, "--alias-y", aliases, "--exclude", exclude],
                {"input": gdp, "input_y": gci, "alias": None, "alias_y": str(aliases),
                 "exclude": str(exclude)},
                ["indicator", "indicator_y", "year", "years", "growth", "n_countries",
                 "n_fitted", "excluded", "rows_skipped", "ttest_groups"],
                None,
            ),
            "simulate": (
                ["--config", fig7_config, "--threads", 1],
                {"config": str(fig7_config)},
                ["n_countries", "n_jobs", "mu_range", "sigma_range", "gamma", "threads"],
                1980,
            ),
        }[command]
        out = tmp_path / "out"
        assert run([command, *argv, "--out", out]) == 0
        manifest = read_json(out / "manifest.json")
        assert list(manifest) == ["command", "tool", "version", "generated_at", "inputs",
                                  "parameters", "seed", "produced_files"]
        assert list(manifest["inputs"].items()) == list(inputs.items())
        assert list(manifest["parameters"]) == parameters
        assert manifest["seed"] == seed


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.DuplicateObservationError, 2),
        (errors.MissingObservationError, 2),
        (errors.DomainError, 3),
        (errors.SingularDesignError, 3),
        (errors.ParameterError, 1),
    ],
)
def test_error_family_sets_exit_code(error, code, toy_gdp_csv, tmp_path, capsys, monkeypatch):
    def failing_runner(args):
        raise error("stub failure")

    monkeypatch.setattr(cli, "_run_ingest", failing_runner)
    out = tmp_path / "out"
    assert run(["ingest", "--input", toy_gdp_csv, "--indicator", "gdp", "--out", out]) == code
    assert capsys.readouterr().err.splitlines() == ["error: stub failure"]
    assert not out.exists()


class TestUsage:
    def test_unknown_command_exits_1(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert run(["ingest", "--indicator", "gdp"]) == 1

    def test_module_entry_point(self, toy_gdp_csv, tmp_path):
        out = tmp_path / "out"
        # the child imports econrank from where this process did
        package_root = str(Path(econrank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": package_root}
        proc = subprocess.run(
            [sys.executable, "-m", "econrank", "ingest", "--input", str(toy_gdp_csv),
             "--indicator", "gdp", "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert (out / "panel.csv").exists()

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "econrank" in capsys.readouterr().out
