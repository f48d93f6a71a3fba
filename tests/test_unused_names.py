"""Every function, class and method of the package is read by the program.

A name counts as read when it is loaded, as a name or as an attribute, in a
module of the package other than `__init__.py`, or in `perfbench/` or
`bench/`, or when a dotted string there names it (the tracer patches its
targets by name).  Dunder methods are called by Python itself.  The names on
the keep-list are read only by tests, each for the reason given.
"""

import ast
import re
from pathlib import Path

import submodtree

PACKAGE = Path(submodtree.__file__).parent
ROOT = PACKAGE.parents[1]

KEEP = {
    "error": "argparse calls _Parser.error on a usage error",
    "approximate_by_tree": "states the rank-4/eps^2 approximation that the acceptance tests check",
    "proper_learn_discrete": "states the proper learner for grid-valued functions",
    "to_spectrum": "states that a depth-d tree has Fourier degree at most d",
    "derivative_spectrum_check": "states the identity E[(second difference)^2] = 16 sum coeff^2",
    "noisy_l1_error_exact": "states the l1 error 1 - (1 - 2 eta) coeff(S) against noisy parities",
    "make_gadget": "states the gadgets whose parity correlation has a closed form",
    "flip_oracle": "states that flipping every coordinate keeps submodularity",
    "derivative": "states the discrete derivative the checkers compute in bulk",
    "second_derivative": "states the mixed difference that is <= 0 iff f is submodular",
    "threshold_decompose": "states the threshold decomposition into level indicators",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def defined_names(source: str) -> list[tuple[str, int]]:
    """Module-level functions and classes and their methods, dunders left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                found += [
                    (sub.name, sub.lineno)
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return [(name, line) for name, line in found if not re.fullmatch(r"__\w+__", name)]


def read_names(source: str) -> set[str]:
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                read.update(node.value.split("."))
    return read


def unused_names(defining: dict[str, str], reading: list[str]) -> list[str]:
    """``module:line name`` of each name defined in ``defining`` (module name
    -> source) that no source in ``reading`` reads."""
    read = set().union(*(read_names(source) for source in reading))
    return [
        f"{module}:{line} {name}"
        for module, source in defining.items()
        for name, line in defined_names(source)
        if name not in read
    ]


def test_the_scan_finds_an_unused_name():
    defining = {
        "m.py": "class C:\n    def used(self): ...\n    def __len__(self): ...\n"
        "def helper(): ...\ndef orphan(): ...\ndef traced(): ...\n",
    }
    reading = ["C().used()\nhelper()\n", "TARGETS = [('m', 'traced')]\n"]
    assert unused_names(defining, reading) == ["m.py:5 orphan"]


def test_no_function_class_or_method_goes_unread():
    modules = sorted(PACKAGE.glob("*.py"))
    defining = {p.name: p.read_text() for p in modules}
    readers = [p for p in modules if p.name != "__init__.py"]
    readers += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    unused = unused_names(defining, [p.read_text() for p in readers])
    assert [u for u in unused if u.split()[1] not in KEEP] == []
    # a kept name that the program reads again leaves the list
    assert sorted({u.split()[1] for u in unused}) == sorted(KEEP)
