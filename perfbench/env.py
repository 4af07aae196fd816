"""Locating and importing the homolift sources of the checkout under test."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackage(RuntimeError):
    """The checkout holds no homolift sources to benchmark."""


def import_homolift(fresh=False):
    """Import ``homolift`` from ``<checkout>/src`` and nowhere else.

    With ``fresh`` every homolift module is dropped first, so the import is
    paid again (set-up time is measured several times in one process).
    """
    if not (SRC / "homolift" / "__init__.py").is_file():
        raise MissingPackage(f"no homolift package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules
                     if m == "homolift" or m.startswith("homolift.")]:
            del sys.modules[name]
    hl = importlib.import_module("homolift")
    if Path(hl.__file__).resolve().parent != SRC / "homolift":
        raise MissingPackage(f"homolift imported from {hl.__file__}, "
                             f"not from {SRC}")
    importlib.import_module("homolift.corpus")  # not imported by the package
    return hl
