"""Modules of the package call one another through public names only."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "iseasim"
PACKAGE = "iseasim"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_uses(source):
    """(line, text) of every read of another package module's underscore
    name: `from .m import _x` and `m._x` for a package module m."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"import {alias.name}"))
                elif node.module in (None, PACKAGE):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    modules.add(alias.asname or PACKAGE)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and _root(node.value) in modules:
            found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return sorted(found)


def test_package_modules_read_no_foreign_private_names():
    offenders = {path.name: private_uses(path.read_text(encoding="utf-8"))
                 for path in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_detector_catches_imports_and_attribute_reads():
    source = (
        "from . import pipeline, solvers\n"
        "from .validation import _helper\n"
        "import iseasim.channel as ch\n"
        "pipeline._rx_mse_batch(1)\n"
        "solvers._DualCore.run\n"
        "ch._design_columns\n"
        "solvers.solve_batch\n"
        "self._own\n"
        "pipeline.__doc__\n"
    )
    assert private_uses(source) == [
        (2, "import _helper"),
        (4, "pipeline._rx_mse_batch"),
        (5, "solvers._DualCore"),
        (6, "ch._design_columns"),
    ]
