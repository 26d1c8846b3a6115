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
    """scipy.stats costs about half a second of start-up and scipy.optimize about
    0.3 s; rismac needs neither (its lambda* root is a plain bisection)."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, rismac; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
