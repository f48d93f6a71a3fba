"""Each module keeps its underscore names to itself, apart from a list that
only shrinks.

A read is a load of ``module._name`` through an imported module of the
package, or a ``from .module import _name``, in another module of the
package.  The reads on the list below are the layout decisions a module
still shares; the test fails on a read that is not listed, and on a listed
read that the package no longer makes.
"""

import ast
from pathlib import Path

import submodtree

PACKAGE = Path(submodtree.__file__).parent

SHARED = {
    "fourier -> funcs._pair_rows": "the pairwise weights read pair rows as the checkers do",
    "fourier -> funcs._mixed_difference_row": "the derivative identity reads one pair's row",
}


def private_reads(module: str, source: str, modules: set[str]) -> set[str]:
    """``module -> other._name`` for each read of another package module's
    underscore name (dunders left out) in ``source``."""
    tree = ast.parse(source)
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                elif node.module in modules and a.name.startswith("_"):
                    reads.add(f"{module} -> {node.module}.{a.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            reads.add(f"{module} -> {aliases[node.value.id]}.{node.attr}")
    return reads


def test_the_scan_finds_private_reads():
    source = (
        "from . import a, b as bee\nfrom .a import _x, y\nfrom .c import _z\n"
        "a._one()\nbee._two\nbee.__doc__\nother._three\nbee.four\n"
    )
    assert private_reads("m", source, {"a", "b", "m"}) == {
        "m -> a._x", "m -> a._one", "m -> b._two",
    }


def test_only_listed_private_names_are_read_across_modules():
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {p.stem for p in paths}
    reads = set().union(*(private_reads(p.stem, p.read_text(), modules) for p in paths))
    assert sorted(reads - SHARED.keys()) == []
    # a listed read that the package no longer makes leaves the list
    assert sorted(SHARED.keys() - reads) == []
