"""Module layering: no rismac module imports another one's private names,
and importing the package stays free of heavy optional modules."""

import ast
import os
import subprocess
import sys
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


def test_import_does_not_load_scipy_stats():
    """scipy.stats costs about half a second of start-up; rismac needs none of it."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rismac; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
