"""A stdlib stand-in for the CI lint job, so lint cannot go red unseen.

CI runs ``ruff check`` and ``ruff format --check`` over ``src`` and
``tests``; where ruff is not installed, these two checks keep the rules
that most often break: no unused imports (ruff's F401) and no line over 88
columns (the formatter's width).  A line that must stay long says
``# noqa`` (as ruff would accept it).

One rule is the project's own: ``src/`` imports nothing outside the
standard library, since CI installs only the test tools.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for top in ("src", "tests")
    for path in (ROOT / top).rglob("*.py")
)
MAX_COLUMNS = 88


def relative(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def annotation_names(annotation: ast.AST) -> set[str]:
    """Names an annotation uses, including inside quoted forward references."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= annotation_names(quoted)
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            # Re-exports: a name listed in __all__ is used by definition.
            used |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            }
    return used


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and bound != "*":
                unused.append(f"line {node.lineno}: unused {bound}")
    return unused


def test_no_unused_imports():
    found = [
        f"{relative(path)} {entry}" for path in FILES for entry in unused_imports(path)
    ]
    assert found == []


def test_lines_fit_in_88_columns():
    found = [
        f"{relative(path)} line {number}: {len(line)} columns"
        for path in FILES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS and "noqa" not in line
    ]
    assert found == []


def foreign_imports(path: Path) -> list[str]:
    """Top-level modules ``path`` imports that are neither stdlib nor repro."""
    foreign = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue  # a relative import stays inside repro
        for module in modules:
            top = module.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                foreign.append(f"line {node.lineno}: imports {top}")
    return foreign


def test_src_imports_only_the_standard_library():
    found = [
        f"{relative(path)} {entry}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for entry in foreign_imports(path)
    ]
    assert found == []


def test_the_checks_can_fail(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "from typing import TYPE_CHECKING, Any\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f(x: 'Path') -> Any:\n"
        "    return x\n"
    )
    assert unused_imports(sample) == ["line 1: unused os"]
    sample.write_text(
        "import os.path\n"
        "from . import sibling\n"
        "from repro.kernel import Scheduler\n"
        "import networkx as nx\n"
        "from numpy.linalg import norm\n"
    )
    assert foreign_imports(sample) == [
        "line 4: imports networkx",
        "line 5: imports numpy",
    ]
