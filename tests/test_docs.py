"""Every code reference in the prose docs names something that exists.

A backticked span in the docs below may name a repo path
(``tests/storage/test_wal.py``, ``runtime/routing.py``), a test
(``tests/x.py::test_y``), a dotted ``repro.*`` module or attribute, or a
class (``SealedBlock``).  Each must resolve against the tree, so deleting a
module, test or class fails here, beside the deletion, rather than leaving
a stale doc for the next reader.

Scope of each kind:

- paths: tokens with a ``/`` that end in a file suffix, or in ``/`` with a
  top-level repo directory first; found under the repo root, ``src/`` or
  ``src/repro/`` (the docs abbreviate source paths both ways);
- tests: the file exists and defines the test function;
- dotted names: the longest importable ``repro`` module prefix, then
  attribute lookups for the rest;
- classes: a CamelCase name opening a span is a word of some ``src/``
  module (a removed class is named without backticks).
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The prose docs, plus the skill notes (build and run recipes) kept in a
# hidden directory at the root.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/MODELING.md") + tuple(
    str(path.relative_to(ROOT)) for path in sorted(ROOT.glob(".*/skills/*/SKILL.md"))
)

PATH_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro")

_SPAN = re.compile(r"`([^`\n]+)`")
_TOKEN = re.compile(r"[\w.\-/]+")
_FILE = re.compile(r"\.(?:py|md|json|toml|ya?ml|txt|csv)$")
_TEST = re.compile(r"([\w./\-]+\.py)::(\w+)")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_CLASS = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+\b")


def _spans():
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for match in _SPAN.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield f"{doc}:{line}", match.group(1)


def _src_words():
    return {
        word
        for path in (ROOT / "src").rglob("*.py")
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    }


def _path_resolves(token):
    return any((base / token).exists() for base in PATH_ROOTS)


def _dotted_resolves(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _test_resolves(path, name):
    file = ROOT / path
    if not file.is_file():
        return False
    source = file.read_text(encoding="utf-8")
    return re.search(rf"^\s*(?:async )?def {name}\(", source, re.M) is not None


def _unresolved(spans):
    top_level = {entry.name for entry in ROOT.iterdir()}
    words = _src_words()
    missing = []
    for where, span in spans:
        for path, name in _TEST.findall(span):
            if not _test_resolves(path, name):
                missing.append(f"{where}: test {path}::{name}")
        for token in _TOKEN.findall(span.replace("::", " ")):
            if "/" not in token or token.startswith("/"):
                continue
            is_file = _FILE.search(token) is not None
            is_dir = token.endswith("/") and token.split("/")[0] in top_level
            if (is_file or is_dir) and not _path_resolves(token):
                missing.append(f"{where}: path {token}")
        for name in _DOTTED.findall(span):
            if not _dotted_resolves(name):
                missing.append(f"{where}: name {name}")
        opening = _CLASS.match(span)
        if opening and opening.group(0) not in words:
            missing.append(f"{where}: class {opening.group(0)}")
    return missing


def test_every_backticked_reference_resolves():
    assert _unresolved(_spans()) == []


@pytest.mark.parametrize(
    "span",
    [
        "repro.ingest",
        "repro.runtime.CircuitBreaker",
        "IngestGateway(breaker=...)",
        "tests/ingest/test_gateway.py",
        "tests/runtime/test_resilience.py::test_circuit_breaker_lifecycle",
    ],
)
def test_a_stale_reference_is_caught(span):
    assert len(_unresolved([("probe:1", span)])) == 1
