import ast
import re
import runpy
import sys
from pathlib import Path

import pytest

import homolift

PACKAGE = Path(homolift.__file__).parent
TESTS = Path(__file__).parent
SCRIPTS = TESTS.parent / "scripts"
PERFBENCH = TESTS.parent / "perfbench"


def _imported_modules(path):
    """The module names the file imports, absolute or relative."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_numpy_is_imported_only_by_covers():
    # the exact machinery answers every verdict; numpy only computes the
    # display floats in covers (spectral radius, the witness's root modulus)
    importers = {path.name for path in PACKAGE.glob("*.py")
                 if any(m.split(".")[0] == "numpy"
                        for m in _imported_modules(path))}
    assert importers == {"covers.py"}


def _owned_nodes(path):
    """Every node of the file with its owner, ``file:Class.function``, the
    innermost definition around it (``file:`` at module level)."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            yield f"{path.name}:{owner}", child
            yield from visit(child, owner)

    return visit(ast.parse(path.read_text()), "")


def _numpy_readers(path):
    """The functions of the file, as ``file:Class.name``, whose code names
    numpy; ``file:`` for a name outside any function."""
    return {owner for owner, node in _owned_nodes(path)
            if isinstance(node, ast.Name) and node.id in {"np", "numpy"}}


def test_numpy_only_computes_the_two_display_floats():
    # ROADMAP item 6's two remaining uses: the count matrix's spectral
    # radius and the witness's root modulus, the latter from the companion
    # matrix np.roots would build; np.roots itself is the tests' oracle
    readers = set().union(*map(_numpy_readers, PACKAGE.glob("*.py")))
    assert readers == {"covers.py:spectral_radius",
                       "covers.py:UnitCircleVerdict.modulus"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            assert "roots" not in (getattr(node, "attr", None),
                                   getattr(node, "name", None)), path.name


def test_package_imports_nothing_from_the_tests():
    # the oracles check the package, so the package must not lean on them
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        for module in _imported_modules(path):
            assert module.split(".")[0] not in test_modules, (path.name,
                                                              module)


def _package_modules_naming(names):
    """The package modules whose code names one of ``names``: as a
    variable, an attribute, an imported name or a definition."""
    readers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                    else None)
            if name in names:
                readers.add(path.name)
    return readers


def test_only_graphs_walks_the_spanning_tree():
    # every tree sum (f*, the cover's connectivity, the lift's sheet
    # offsets) is graphs.tree_potential; a module that reads the stored
    # tree steps, or walks the tree itself, writes that walk again
    assert _package_modules_naming(
        {"_tree", "_breadth_first_tree", "tree_steps"}) == {"graphs.py"}


def test_dense_charpoly_has_no_production_caller():
    # a level's polynomial comes from its Galois orbits and growth rate 1
    # from the transition graph's components; the dense charpoly is the
    # tests' and the fixtures' reference
    assert _package_modules_naming({"charpoly_int"}) == {"linalg.py"}


def _functions_naming(name):
    """The package functions, as ``file:function``, whose body names
    ``name``, as a variable or an attribute."""
    return {f"{path.name}:{fn.name}" for path in PACKAGE.glob("*.py")
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(name in (getattr(node, "id", None),
                             getattr(node, "attr", None))
                    for node in ast.walk(fn))}


def test_small_charpoly_serves_only_the_block_paths():
    # the principal-minor formula serves the modular blocks and a small
    # base H1 matrix; the dense charpoly's body does not name it, and the
    # tests hold both paths to Berkowitz, which shares no code
    assert _functions_naming("small_charpoly") == {
        "linalg.py:charpoly_mod", "search.py:orbit_factors"}


def test_only_the_levels_analysis_forms_an_h1_matrix():
    # a tower level's H1 matrix is its Analysis's, which serves both the
    # base level's polynomial and its dynamical quotient; a cover's dense
    # H1 matrix is the tests' reference
    assert _functions_naming("homology_action") == {
        "search.py:action", "covers.py:h1_action_on_cover"}


def test_only_analysis_of_builds_a_base_level():
    # Analysis.of keeps the last base level it built, so nothing else may
    # build one or touch its slot: every other Analysis constructed is a
    # cover, its tower one step longer than the level it came from
    builders, slot = set(), set()
    for root in (PACKAGE, SCRIPTS, PERFBENCH):
        for path in root.glob("*.py"):
            for owner, node in _owned_nodes(path):
                name = isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None))
                if name == "Analysis":
                    builders.add((owner, ast.unparse(node.args[2])))
                if "_last" in (getattr(node, "id", None),
                               getattr(node, "attr", None)):
                    slot.add(owner)
    assert builders == {
        ("search.py:Analysis.of", "()"),
        ("search.py:Analysis.cover",
         "self.tower + (TowerStep.of(cover.quotient),)")}
    assert slot == {"search.py:Analysis", "search.py:Analysis.of"}


def test_only_a_levels_verdict_runs_the_sieve():
    # every verdict, verify's included, is a tower level's, decided one
    # Galois orbit at a time; no package function sieves a whole polynomial
    callers = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            for fn in ast.iter_child_nodes(scope):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                owner = (f"{scope.name}." if isinstance(scope, ast.ClassDef)
                         else "")
                if any(isinstance(node, ast.Call) and "unit_circle_test" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None))
                       for node in ast.walk(fn)):
                    callers.add(f"{path.name}:{owner}{fn.name}")
    assert callers == {"search.py:Analysis.verdict"}


def test_hull_forms_no_fraction():
    # the hull's simplex pivots an integer tableau and reads only the
    # coordinates' numerators and denominators; the Fraction simplex is
    # the tests' reference
    assert "geometry.py" not in _package_modules_naming({"Fraction"})


def _unused_imports(path):
    """The names the file's module-level imports bind that it never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(
    path for root in (PACKAGE, TESTS, SCRIPTS) for path in root.glob("*.py")
    if path.name != "__init__.py"),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    # __init__.py re-exports the package's names, so it is not scanned
    assert not _unused_imports(path)


@pytest.mark.parametrize("script", sorted(SCRIPTS.glob("*.py")),
                         ids=lambda path: path.name)
def test_scripts_load(monkeypatch, script):
    # loading binds every name a script imports from homolift; main() is
    # not run
    monkeypatch.setattr(sys, "path", list(sys.path))
    namespace = runpy.run_path(str(script), run_name="not_main")
    assert callable(namespace["main"])


def _names_read(path):
    """Every name the file mentions other than in a def: variables,
    attributes, and the parts of dotted identifiers in strings (perfbench
    labels its timers ``module.function``)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            yield from node.value.split(".")


def test_every_package_function_is_called():
    # a function or method only the tests reach belongs in tests/oracles.py
    readers = [path for path in PACKAGE.glob("*.py")
               if path.name != "__init__.py"]
    readers += sorted(PERFBENCH.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    read = {name for path in readers for name in _names_read(path)}
    unread = [f"{path.name}:{node.name}" for path in PACKAGE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__")
                       and node.name.endswith("__"))
              and node.name not in read]
    assert not unread


def _defaulted_parameters(path):
    """The file's defaulted parameters as (call name, parameter, position
    among the call's arguments or None, label): a method's position skips
    its self or cls, and ``__init__`` is called by its class's name."""
    for scope in ast.walk(ast.parse(path.read_text())):
        for fn in ast.iter_child_nodes(scope):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            if isinstance(scope, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in fn.decorator_list):
                positional = positional[1:]
            name = scope.name if fn.name == "__init__" else fn.name
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield name, arg.arg, i, f"{path.name}:{fn.name}({arg.arg})"
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None, \
                        f"{path.name}:{fn.name}({arg.arg})"


def _passes(call, param, position):
    """Whether the call passes the parameter: by keyword, by position, or
    through ``*`` or ``**``."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(kw.arg in (None, param) for kw in call.keywords)
            or (position is not None and len(call.args) > position))


def test_every_default_is_overridden_somewhere():
    # a default no call overrides is a knob nobody sets: the parameter
    # goes, and its value becomes the function's own
    calls = {}
    for root in (PACKAGE, PERFBENCH, SCRIPTS, TESTS):
        for path in root.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(
                        node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    unset = [label for path in PACKAGE.glob("*.py")
             for name, param, position, label in _defaulted_parameters(path)
             if not any(_passes(call, param, position)
                        for call in calls.get(name, ()))]
    assert not unset
