"""Every script under ``benchmarks/`` imports against the current tree.

The scripts run outside the tier-1 suite (CI runs
``benchmarks/bench_obs_overhead.py`` and ``benchmarks/gc_scale.py`` as steps
of their own; ``benchmarks/ab_pairs.py`` compares two checkouts by hand),
so a deleted or renamed ``repro`` name they use would otherwise surface only
there.  Importing each one by path catches that here, and so does resolving
every ``repro`` import in its source, including the ones inside functions
that run only when a test or command does.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


def test_the_scripts_are_found():
    assert {path.name for path in SCRIPTS} >= {
        "ab_pairs.py",
        "bench_obs_overhead.py",
        "gc_scale.py",
    }


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_imports(script, monkeypatch):
    # Two scripts put their own directories on sys.path; undo that after.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"_bench_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_every_repro_import_resolves(script):
    missing = []
    for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] != "repro":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    try:
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"{node.module}.{alias.name}")
    assert missing == []
