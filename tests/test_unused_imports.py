"""Every module-level import in the package is read somewhere in its module.

`__init__.py` is left out: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import submodtree

MODULES = sorted(
    p for p in Path(submodtree.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import math\nimport os as system\nfrom json import dumps, loads\nloads(math.pi)\n"
    assert unused_imports(source) == ["line 2: system", "line 3: dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_import_goes_unread(path):
    assert unused_imports(path.read_text()) == []
