"""Modules of the package call one another through public names only, and
every public function or class is used by the package or exported."""

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


def _names_used(tree, skip=None):
    """Every identifier that `tree` reads or imports, outside the subtree
    `skip`."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


def dead_public_names(sources, exported):
    """(module, name) of every top-level public function or class of the
    `sources` modules (name -> source text) that no package source reads
    outside its own definition and that `exported` does not list."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or node.name in exported:
                continue
            if not any(node.name in _names_used(other, skip=node)
                       for other in trees.values()):
                dead.append((module, node.name))
    return sorted(dead)


def test_package_modules_read_no_foreign_private_names():
    offenders = {path.name: private_uses(path.read_text(encoding="utf-8"))
                 for path in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def imported_modules(source):
    """The last dotted part of every module that `source` imports, and
    every name it imports from a package (`from . import x` gives x)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None:
                found.add(node.module.split(".")[-1])
            if node.module in (None, PACKAGE):
                found.update(alias.name for alias in node.names)
    return found


def test_cli_runs_no_draw_or_formula_of_its_own():
    # The front end reads configs and writes CSVs; draws, solves and
    # formulas stay in the pipeline, so it must not grow its own loop.
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert imported_modules(source) & {"channel", "streams", "numpy"} == set()


def test_import_detector():
    source = ("import numpy as np\nfrom .channel import mse_at_rx\n"
              "from . import streams\nimport iseasim.prior\nfrom iseasim import solvers\n")
    assert imported_modules(source) == {"numpy", "channel", "streams", "prior", "iseasim",
                                        "solvers"}


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


def test_every_public_name_is_used_or_exported():
    import iseasim

    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert dead_public_names(sources, set(iseasim.__all__)) == []


def test_dead_name_detector():
    sources = {
        "a.py": "def used():\n    pass\n\n"
                "def dead():\n    return dead()\n\n"
                "class Exported:\n    pass\n\n"
                "def _private():\n    pass\n",
        "b.py": "from .a import used\n",
        "c.py": "import a\na.Inner\n\nclass Lonely:\n    def used(self):\n        pass\n",
    }
    assert dead_public_names(sources, {"Exported"}) == [("a.py", "dead"),
                                                        ("c.py", "Lonely")]


def call_sites(sources, names):
    """name -> sorted (module, top-level definition) pairs whose code calls
    it, by its bare name or as an attribute, for each of `names`."""
    found = {name: set() for name in names}
    for module, text in sources.items():
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if called in found:
                        found[called].add((module, getattr(top, "name", "<module>")))
    return {name: sorted(sites) for name, sites in found.items()}


def test_each_sensing_rule_runs_from_one_place():
    # One sensing draw (`_sensed`) and one blocked estimate (`_estimate`):
    # no other package code draws, observes or estimates on its own.
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert call_sites(sources, ("sample_arrays", "observe_batch", "estimate_batch")) == {
        "sample_arrays": [("pipeline.py", "_sensed")],
        "observe_batch": [("pipeline.py", "_sensed")],
        "estimate_batch": [("pipeline.py", "_estimate")],
    }


def test_call_site_detector():
    sources = {
        "a.py": "def f():\n    g(1)\n\nclass C:\n    def m(self):\n        return x.g()\n\ng(2)\n",
        "b.py": "def h():\n    return g\n",
    }
    assert call_sites(sources, ("g", "k")) == {
        "g": [("a.py", "<module>"), ("a.py", "C"), ("a.py", "f")], "k": []}
