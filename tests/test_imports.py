"""Every module of the package, and every frozen test reference, reads every
name it imports; and the package reads every function and class it defines.

No linter runs on this code, so a deletion can leave an import behind, and
code moved into a reference can carry imports it no longer reads. This
parses each module under src/budgetbandits (except __init__, which imports
names to export them) and each tests/*_reference.py, and lists the imported
names that no expression in the module reads. In the same way a change can
leave a definition that nothing calls any more: it lists each module-level
def or class of the package that no other statement of the package reads,
an export from __init__ included.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "budgetbandits"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_unused_imports():
    # the check itself: a stale import is caught, a read one is not
    assert unused_imports("import math\nimport numpy as np\nfrom typing import Optional\n"
                          "x: Optional[int] = np.e\n") == ["math"]
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    references = sorted(TESTS.glob("*_reference.py"))
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in modules + references}
    assert len(modules) >= 8 and len(references) >= 4
    assert {name: names for name, names in unused.items() if names} == {}


def unread_definitions(modules: dict[str, str]) -> list[str]:
    """module.name of each def or class at the top of a module (but
    __init__) that no other top-level statement of ``modules`` (module name
    -> source) reads: by name, as an attribute, or in a from-import."""
    statements = [(module, stmt) for module, source in modules.items()
                  for stmt in ast.parse(source).body]
    reads = []
    for _, stmt in statements:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
        reads.append(names)
    return sorted(
        f"{module}.{stmt.name}" for module, stmt in statements
        if module != "__init__" and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for (_, other), names in zip(statements, reads)
                    if other is not stmt))


def test_no_unread_definitions():
    # the check itself: a definition read only by itself is caught, one read
    # elsewhere or exported from __init__ is not
    assert unread_definitions({
        "a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
        "b": "from .a import g\n\ndef h():\n    return g()\n",
        "__init__": "from .a import C\nfrom .b import h\n",
    }) == ["a.f"]
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert len(modules) >= 9
    assert unread_definitions(modules) == []
