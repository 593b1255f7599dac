"""Package structure: every top-level definition has a caller in the package."""
import ast
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
