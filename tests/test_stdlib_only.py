"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "behavrules"
ALLOWED = sys.stdlib_module_names | {"behavrules"}


def test_package_imports_only_stdlib_modules():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.partition(".")[0] not in ALLOWED]
    assert outside == []
