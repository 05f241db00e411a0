"""The public surface that the benchmark's tracer and the README depend on.

``bench/spans.py`` patches econrank's functions by name for ``--trace 1``, so
removing or renaming one of its targets would break traced benchmark runs.
"""

import importlib.util
import re
from pathlib import Path

import econrank
import econrank.cli  # noqa: F401  (targets() reads econrank.cli)

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_trace_target_exists():
    targets = _load_bench_spans().targets(econrank)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert missing == []


def test_every_exported_name_resolves():
    assert [name for name in econrank.__all__ if not hasattr(econrank, name)] == []


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_every_exported_name_is_used_outside_the_tests():
    # __init__.py's map names every export; a name that no other module, README.md or bench/
    # names, apart from its own def or class line, is surface that only the tests call
    sources = [p for p in (ROOT / "src" / "econrank").glob("*.py") if p.name != "__init__.py"]
    sources += [ROOT / "README.md", *sorted((ROOT / "bench").rglob("*.py"))]
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    unused = [name for name in econrank.__all__
              if not any(re.search(rf"\b{name}\b", line)
                         and not re.match(rf"\s*(def|class) {name}\b", line) for line in lines)]
    assert unused == []
