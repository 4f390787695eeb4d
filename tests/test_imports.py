"""Source hygiene: no module of the package, no script and no test module
imports a name it does not use."""

import ast
from pathlib import Path

import pytest

import alignrec

PACKAGE = Path(alignrec.__file__).parent
TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; its `__all__` entries count
    as read, since they are re-exports, and so does a name imported on a
    line marked `# noqa: F401`, imported for its side effect."""
    tree = ast.parse(source)
    marked = {n for n, line in enumerate(source.splitlines(), start=1)
              if "# noqa: F401" in line}
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.lineno not in marked:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.lineno not in marked:
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_guard_sees_a_leftover():
    source = ("from .model import projection_param_count, target_dim\n"
              "import numpy as np\n"
              "__all__ = ['target_dim']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["projection_param_count (line 1)"]


def test_unused_import_guard_honours_a_noqa_marker():
    source = ("import alignrec  # noqa: F401  (imported for its side effect)\n"
              "from alignrec.model import (\n"
              "    VARIANTS,  # noqa: F401\n"
              "    target_dim,\n"
              ")\n"
              "import numpy as np\n")
    assert unused_imports(source) == ["np (line 6)", "target_dim (line 2)"]
