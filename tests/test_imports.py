import ast
from pathlib import Path

import homolift


def test_numpy_is_imported_only_by_covers():
    # the exact machinery answers every verdict; numpy only computes the
    # display floats in covers (spectral radius, the witness's root modulus)
    importers = set()
    for path in Path(homolift.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.add(path.name)
    assert importers == {"covers.py"}
