"""Dead-module guard: every module under ``src/repro`` has a real consumer.

A module counts as reached when it, or a name it defines at top level,
is imported by a file that is not a package ``__init__`` under ``src/``,
``tools/``, ``bench/``, ``benchmarks/`` or ``examples/``.  Imports from
``tests/`` and package re-exports do not count: a module reached only
through them is code that no pipeline stage, tool or benchmark runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONSUMER_DIRS = ("src", "tools", "bench", "benchmarks", "examples")

#: modules reached without an import statement, each with its reason
ALLOWED = {
    # the workload models register themselves when their package imports them
    "repro.apps.models.": "registered by import",
    # `python -m repro.cli` and the console script start here
    "repro.cli": "console-script entry point",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _modules():
    """``{module name: top-level names}`` for every non-package module."""
    return {
        _module_name(path): _top_level_names(ast.parse(path.read_text()))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.name != "__init__.py"
    }


def _reached(modules) -> set:
    reached = set()
    for top in CONSUMER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    reached.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    reached.add(node.module)
                    for alias in node.names:
                        reached.add(f"{node.module}.{alias.name}")
                        # a name re-exported by a package reaches the
                        # module under it that defines the name
                        reached.update(
                            mod for mod, names in modules.items()
                            if alias.name in names
                            and mod.startswith(node.module + ".")
                        )
    return reached


def test_every_module_has_a_consumer():
    modules = _modules()
    reached = _reached(modules)
    unreached = sorted(
        mod for mod in modules
        if mod not in reached
        and not any(mod == a or (a.endswith(".") and mod.startswith(a))
                    for a in ALLOWED)
    )
    assert not unreached, (
        f"modules reached only from tests or package re-exports: {unreached}"
    )
