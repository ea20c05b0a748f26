"""Every ``src/repro`` module is reached from an entry point.

A module that no CLI command, benchmark, example or perfbench workload
imports is code nothing runs: only its own tests would keep it alive.
This guard walks imports statically (stdlib ``ast``, nothing is
executed) from ``repro.cli``, ``repro.__main__`` and every script under
``benchmarks/``, ``examples/`` and ``perfbench/``, and fails naming any
module the walk never reaches.

Imports inside functions count (the CLI imports lazily), as do
``importlib.import_module("literal")`` calls. Importing ``a.b.c`` also
reaches the packages ``a`` and ``a.b``, whose ``__init__`` runs first.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_DIRS = ("benchmarks", "examples", "perfbench")


def _package_modules():
    """``{dotted name: path}`` for every module under ``src/repro``."""
    modules = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            parts = os.path.relpath(path, SRC)[:-len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            modules[".".join(parts)] = path
    return modules


def _imported_names(path):
    """Dotted names a file imports, including ``from X import name`` as
    ``X.name`` (a submodule when one exists, else just an attribute).
    The package uses absolute imports only."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "import_module"
              and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            names.add(node.args[0].value)
    return names


def _reached(modules):
    def expand(name):
        parts = name.split(".")
        return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]

    frontier = []
    for directory in ROOT_DIRS:
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(REPO, directory)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in filenames:
                if filename.endswith(".py"):
                    frontier.extend(_imported_names(
                        os.path.join(dirpath, filename)))
    frontier.extend(ROOT_MODULES)
    reached = set()
    while frontier:
        for name in expand(frontier.pop()):
            if name in modules and name not in reached:
                reached.add(name)
                frontier.extend(_imported_names(modules[name]))
    return reached


def test_every_package_module_is_reached_from_an_entry_point():
    modules = _package_modules()
    unreached = sorted(set(modules) - _reached(modules))
    assert unreached == [], (
        f"{len(unreached)} src/repro module(s) reached by no CLI command, "
        f"benchmark, example or perfbench script: {', '.join(unreached)}"
    )

