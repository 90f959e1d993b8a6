"""Every module-level import in the package is used by its module, the
symbolic modules import no numeric one when they load, every definition
and method is reached from the CLI or read in the package, and every
optional input is set by some call in the package or perfbench."""

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


#: definitions no command reaches yet, each kept for a stated reason
REACHABILITY_ROOTS = {
    ("rigidity", "psi_endgame"):
        "the harmonic endgame step of the triviality argument; perfbench "
        "times it, and no command runs it yet",
}


def package_trees() -> dict:
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def reachable_definitions(trees: dict, roots) -> set:
    """(module, name) of every top-level function and class reached from
    the roots.  A definition reaches every name its body reads: a
    definition of its own module, a name imported from a package module,
    or `module.name` for an imported package module.  A class reaches its
    methods, and a reached module's own top-level statements are walked
    too."""
    defs = {(m, node.name): node for m, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # per module: local name -> (module, name), or -> module for `from .
    # import module`, from imports anywhere in the module
    bound = {}
    for m, tree in trees.items():
        names = bound[m] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or node.module == "ssblow"):
                for alias in node.names:
                    local = alias.asname or alias.name
                    names[local] = alias.name if node.module in (
                        None, "ssblow") else (node.module, alias.name)

    seen, loaded = set(), set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module = key[0]
        nodes = [defs[key]]
        if module not in loaded:
            loaded.add(module)
            nodes += [n for n in trees[module].body
                      if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    target = bound[module].get(sub.id, (module, sub.id))
                    if isinstance(target, tuple) and target in defs:
                        todo.append(target)
                elif isinstance(sub, ast.Attribute) and isinstance(
                        sub.value, ast.Name):
                    target = bound[module].get(sub.value.id)
                    if isinstance(target, str) and (target, sub.attr) in defs:
                        todo.append((target, sub.attr))
    return seen


def stale_entries(trees: dict, allowlist) -> list:
    """Allowlist entries that cli.main reaches without the allowlist."""
    return sorted(set(allowlist)
                  & reachable_definitions(trees, [("cli", "main")]))


def test_every_definition_is_reached_from_the_cli():
    trees = package_trees()
    roots = [("cli", "main"), *REACHABILITY_ROOTS]
    reached = reachable_definitions(trees, roots)
    defined = {(m, node.name) for m, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(defined - reached) == []
    # every allowlist entry names a definition that is there, and one
    # that a command runs is no longer an exception
    assert set(REACHABILITY_ROOTS) <= defined
    assert stale_entries(trees, REACHABILITY_ROOTS) == []


def test_reachability_follows_names_attributes_and_methods():
    trees = {
        "cli": ast.parse("from . import lib\nfrom .lib import helper\n"
                         "def main():\n    return cmd_run()\n"
                         "def cmd_run():\n    return lib.Box().get()\n"
                         "def dead():\n    return helper()\n"),
        "lib": ast.parse("LIMIT = limit()\n"
                         "def limit():\n    return 3\n"
                         "def helper():\n    return 1\n"
                         "class Box:\n    def get(self):\n"
                         "        return inner()\n"
                         "def inner():\n    return 2\n"
                         "def unused():\n    return 0\n"),
    }
    assert reachable_definitions(trees, [("cli", "main")]) == {
        ("cli", "main"), ("cli", "cmd_run"), ("lib", "Box"),
        ("lib", "inner"), ("lib", "limit")}


def test_allowlist_entry_the_cli_reaches_is_stale():
    trees = {
        "cli": ast.parse("from . import lib\n"
                         "def main():\n    return lib.wired()\n"),
        "lib": ast.parse("def wired():\n    return 1\n"
                         "def unwired():\n    return 0\n"),
    }
    assert stale_entries(trees, [("lib", "wired"), ("lib", "unwired")]) == [
        ("lib", "wired")]
    assert stale_entries(trees, [("lib", "unwired")]) == []


#: methods no package code reads, each kept for a stated reason
UNREAD_METHODS = {
    ("PoissonSolver", "residual"):
        "the elliptic residual: the tests' oracle for the solve, and the "
        "planned per-sample diagnostic of simulate (ROADMAP item 7)",
    ("_Parser", "error"):
        "overrides argparse.ArgumentParser.error, which argparse itself "
        "calls on every usage error",
    ("ScalarField2D", "from_binary"):
        "the reader of the .bin snapshots that simulate writes; perfbench "
        "and the tests read them with it",
}


def unread_methods(trees: dict) -> list:
    """(class, method) of every non-dunder method of a top-level class
    whose name no module reads as an attribute."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted(
        (cls.name, fn.name)
        for tree in trees.values() for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in read)


def test_every_method_is_read_in_the_package():
    # equality: an allowlisted method that package code starts to read is
    # no longer an exception
    assert unread_methods(package_trees()) == sorted(UNREAD_METHODS)


def test_method_guard_flags_methods_read_nowhere():
    trees = {
        "cli": ast.parse("from . import lib\n"
                         "def main():\n    return lib.Box().area\n"),
        "lib": ast.parse("class Box:\n"
                         "    def __init__(self):\n"
                         "        self.n = self.size()\n"
                         "    def size(self):\n        return 1\n"
                         "    @property\n"
                         "    def area(self):\n        return 2\n"
                         "    def unused(self):\n        return 0\n"
                         "    def _hidden(self):\n        return 0\n"
                         "    def __repr__(self):\n        return 'Box'\n"
                         "def f(box):\n    box.stored = 1\n"
                         "class Stored:\n"
                         "    def stored(self):\n        return 3\n"),
    }
    assert unread_methods(trees) == [("Box", "_hidden"), ("Box", "unused"),
                                     ("Stored", "stored")]


PERFBENCH = PACKAGE.parents[1] / "perfbench"

#: optional inputs no package or perfbench call sets, each kept for a
#: stated reason
UNSET_INPUTS = {
    ("cylsim", "step", "forcing"):
        "the manufactured-solution hook: a forced run against an exact "
        "solution is the planned convergence check (ROADMAP item 6)",
}


def _is_classvar(annotation) -> bool:
    node = annotation.value if isinstance(annotation, ast.Subscript) \
        else annotation
    return (isinstance(node, ast.Name) and node.id == "ClassVar") or (
        isinstance(node, ast.Attribute) and node.attr == "ClassVar")


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and any(
        k.arg == "frozen" and isinstance(k.value, ast.Constant)
        and k.value.value is True for k in d.keywords)
        for d in cls.decorator_list)


def optional_inputs(trees: dict) -> dict:
    """(module, name it is called by, input) -> position of every
    defaulted parameter of a function or method (counted after self;
    None for keyword-only) and every defaulted field of a frozen
    dataclass that is not a ClassVar.  __init__ is called by its class's
    name, a dataclass by its own."""
    found = {}

    def add_function(module, fn, cls=None):
        a = fn.args
        params = a.posonlyargs + a.args
        if cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list):
            params = params[1:]
        name = cls.name if cls is not None and fn.name == "__init__" \
            else fn.name
        first = len(params) - len(a.defaults)
        for i, p in enumerate(params[first:], first):
            found[module, name, p.arg] = i
        for p, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                found[module, name, p.arg] = None

    for module, tree in trees.items():
        classes = {id(fn): cls for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(module, node, classes.get(id(node)))
            elif isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and not _is_classvar(s.annotation)]
                for i, s in enumerate(fields):
                    if s.value is not None:
                        found[module, node.name, s.target.id] = i
    return found


def passed_inputs(trees: dict) -> dict:
    """Call name -> [(positional count, starred, keywords, double star)]
    of every call in the trees, the name being a called name or
    attribute."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((
                len(node.args), starred,
                {k.arg for k in node.keywords if k.arg is not None},
                any(k.arg is None for k in node.keywords)))
    return calls


def unset_inputs(package: dict, callers: dict) -> list:
    """The optional inputs of the package that no call in `callers` sets
    by keyword, by position or through * or **."""
    calls = passed_inputs(callers)

    def passed(name, pos, param):
        return any(param in keywords or double or (pos is not None and (
            pos < npos or starred))
            for npos, starred, keywords, double in calls.get(name, ()))

    return sorted((module, name, param) for (module, name, param), pos
                  in optional_inputs(package).items()
                  if not passed(name, pos, param))


def test_every_optional_input_has_a_caller():
    # a default that no caller overrides is a constant: write it as one.
    # Equality: an allowlisted input that a caller starts to set is no
    # longer an exception
    trees = package_trees()
    perfbench = {p.stem: ast.parse(p.read_text(), filename=str(p))
                 for p in sorted(PERFBENCH.glob("*.py"))}
    assert unset_inputs(trees, {**trees, **{
        f"perfbench.{m}": t for m, t in perfbench.items()}}) == sorted(
        UNSET_INPUTS)


def test_input_guard_counts_keywords_positions_and_stars():
    lib = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
        "def g(x=0):\n    return x\n"
        "def h(y=0, z=0):\n    return y\n"
        "class Box:\n"
        "    def __init__(self, w=1, v=2):\n        self.w = w\n"
        "    def get(self, k=0):\n        return k\n"
        "    @staticmethod\n"
        "    def make(s=0):\n        return s\n"
        "@dataclass(frozen=True)\n"
        "class Rec:\n"
        "    p: int\n    q: int = 0\n    r: str = 'r'\n"
        "    LABEL: ClassVar[str] = 'rec'\n"
        "@dataclass\n"
        "class Loose:\n    m: int = 0\n")
    use = ast.parse("f(1, 2, e=5)\ng(*xs)\nh(**kw)\nBox(3).get(4)\n"
                    "Box.make(1)\nRec(1, r='s')\n")
    assert unset_inputs({"lib": lib}, {"lib": lib, "use": use}) == [
        ("lib", "Box", "v"), ("lib", "Rec", "q"), ("lib", "f", "c"),
        ("lib", "f", "d")]


def environment_reads(tree: ast.Module) -> list:
    """Line of every read of the environment: os.environ, os.getenv, their
    bytes forms, or a `from os import` of one of them.  A statement that is
    only `os.environ.setdefault(...)` discards what it finds: it sets a
    default for a library loaded later, and the program reads nothing."""
    names = {"environ", "environb", "getenv", "getenvb"}
    defaults = {id(node.value.func.value) for node in ast.walk(tree)
                if isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "setdefault"}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "os"
            and id(node) not in defaults)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in names for alias in node.names)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # every run setting has one source, a flag or a config key; an
    # environment variable would be a second one
    tree = ast.parse(path.read_text(), filename=str(path))
    assert environment_reads(tree) == [], path.name


def test_environment_guard_sees_every_spelling():
    tree = ast.parse("import os\nfrom os import getenv, path\n"
                     "d = os.environ.get('X')\ne = os.getenv('Y')\n"
                     "f = os.path.join('a')\n"
                     "os.environ.setdefault('Z', '1')\n"
                     "g = os.environ.setdefault('Z', '1')\n"
                     "os.environ['Z'].strip()\n")
    assert environment_reads(tree) == [2, 3, 4, 7, 8]
