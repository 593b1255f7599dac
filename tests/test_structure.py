"""Package structure: every top-level definition has a caller in the package."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pairshap

SRC = Path(__file__).resolve().parents[1] / "src" / "pairshap"


def _names(node: ast.AST) -> set[str]:
    """The names and attribute names that `node` reads or writes."""
    return {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    }


def test_every_top_level_definition_has_a_caller():
    # a function or class that nothing in the package refers to, beyond its
    # own definition, serves only the tests, and belongs in them; the names
    # the package exports and dunder names are exempt
    statements = [
        (path.stem, statement)
        for path in sorted(SRC.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    used = [(statement, _names(statement)) for _, statement in statements]
    uncalled = [
        f"{module}.{statement.name}"
        for module, statement in statements
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and not (statement.name.startswith("__") and statement.name.endswith("__"))
        and statement.name not in pairshap.__all__
        and not any(statement.name in names for other, names in used if other is not statement)
    ]
    assert uncalled == []


def test_every_module_level_import_is_used():
    # a name a module imports at its top level and never reads, such as an
    # error class left behind when the code that raised it was deleted; a
    # name listed in the module's `__all__` counts as read
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for statement in tree.body
            if isinstance(statement, (ast.Import, ast.ImportFrom)) and getattr(statement, "module", None) != "__future__"
            for alias in statement.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            element.value
            for statement in tree.body
            if isinstance(statement, ast.Assign) and "__all__" in _names(statement)
            for element in ast.walk(statement.value)
            if isinstance(element, ast.Constant)
        }
        unused += [f"{path.stem}.{name}" for name in sorted(imported - read - exported)]
    assert unused == []


def test_import_leaves_out_the_thread_pool_and_logging():
    # `import pairshap` in a fresh interpreter loads neither
    # concurrent.futures nor the logging it imports, 3.5 ms that every
    # command's set-up would pay; the walk's draw-ahead worker is a plain
    # threading.Thread, and numpy imports threading already
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    probe = "import sys, pairshap; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True
    )
    assert result.stdout == "[]\n"
