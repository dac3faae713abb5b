"""The reference implementations stay independent of the package under test."""

import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"


def test_oracles_do_not_import_the_package():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert not [name for name in imported
                if name.split(".")[0] == "g2gt" or name.startswith(".")], imported
