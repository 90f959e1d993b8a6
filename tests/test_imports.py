"""Every module-level import in the package is used by its module, and the
symbolic modules import no numeric one when they load."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ssblow"


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each module-level import -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    """Names read anywhere in the module, in quoted annotations and in
    __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


#: modules whose import must not load numpy, and the package modules that
#: import numpy when they load
NUMPY_FREE = ("sscalc.py", "hierarchy.py", "cli.py")
NUMERIC = {"numpy", "gridio", "elliptic", "rigidity", "cylsim"}


def import_time_modules(tree: ast.Module) -> dict:
    """Module imported when the module loads -> line number: every import
    outside a function body.  `from . import x` and `from ssblow import x`
    name x, and a dotted name counts as its first part."""
    found = {}
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module != "ssblow":
                names = [node.module]
            elif node.module in (None, "ssblow"):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module]
        else:
            names = []
        for name in names:
            found.setdefault(name.split(".")[0], node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_guard_sees_module_level_imports():
    tree = ast.parse("import numpy.linalg\nfrom . import cylsim, sscalc\n"
                     "from .gridio import diff1\nfrom ssblow import rigidity\n"
                     "try:\n    from .elliptic import KroneckerSolver\n"
                     "except ImportError:\n    pass\n"
                     "def f():\n    import numpy as np\n"
                     "    from . import hierarchy\n")
    assert import_time_modules(tree) == {
        "numpy": 1, "cylsim": 2, "sscalc": 2, "gridio": 3, "rigidity": 4,
        "elliptic": 6}


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_symbolic_modules_import_nothing_numeric(name):
    # the symbolic commands start without numpy; a numeric module may be
    # imported only inside the function that calls it
    path = PACKAGE / name
    found = import_time_modules(ast.parse(path.read_text(),
                                          filename=str(path)))
    numeric = {m: line for m, line in found.items() if m in NUMERIC}
    assert not numeric, f"{name}: module-level numeric imports {numeric}"
