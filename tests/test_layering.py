"""Module layering: no rismac module imports another one's private names."""

import ast
from pathlib import Path

import rismac

PACKAGE = Path(rismac.__file__).parent


def test_no_private_imports_between_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "rismac":
                continue
            offenders += [f"{path.name}: {'.' * node.level}{node.module or ''} {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert offenders == []
