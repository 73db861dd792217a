"""Every module of the package, and every frozen test reference, reads every
name it imports.

No linter runs on this code, so a deletion can leave an import behind, and
code moved into a reference can carry imports it no longer reads. This
parses each module under src/budgetbandits (except __init__, which imports
names to export them) and each tests/*_reference.py, and lists the imported
names that no expression in the module reads.
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
