"""Import path: no tapglass module loads scipy when imported, and every
module-level definition, method and property under src/ is named somewhere
under src/.

Importing scipy.optimize or scipy.special costs more than importing numpy,
in every process and CLI call; the one scipy use left under src/ is the lazy
scipy.stats import for gaussian-field quantile grids.  A definition, constant
or class member that only tests use belongs with the test oracles.  A name
counts as used only outside the functions of that name, so neither recursion
nor a method that forwards to its namesake on another object keeps it alive.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tapglass

SRC = Path(tapglass.__file__).resolve().parent

# (module file, enclosing function, imported module) of every scipy import allowed
ALLOWED_SCIPY_IMPORTS = {("fixed_point.py", "FieldLaw.quantiles", "scipy.stats")}


def _scipy_imports(tree, scope=()):
    """(enclosing qualified name, module) of each scipy import in the tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scipy_imports(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            yield from _scipy_imports(node, scope)
            continue
        for name in names:
            if name == "scipy" or name.startswith("scipy."):
                yield ".".join(scope), name


def test_scipy_is_imported_only_lazily_for_gaussian_field_quantiles():
    found = {(path.name, where, name)
             for path in sorted(SRC.glob("*.py"))
             for where, name in _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == ALLOWED_SCIPY_IMPORTS


# module-level definitions nothing under src/ uses, each kept for a reason
UNREFERENCED_DEFINITIONS = {
    ("experiments.py", "default_config"),  # the config template
    ("__init__.py", "__all__"),  # read by `from tapglass import *`
    ("__init__.py", "__version__"),  # read by packaging and users
}


def _module_level_names(tree):
    """Names a module's top level defines: its defs and classes, and the
    targets of its assignments (constants)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def _member_names(tree):
    """(class, name) of every method and property of the module's classes,
    dunders aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    yield node.name, member.name


def _reads(tree, scope=()):
    """(name, names of the enclosing functions) of every name, attribute and
    imported name the tree reads."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, scope
        elif isinstance(node, ast.Attribute):
            yield node.attr, scope
        elif isinstance(node, ast.alias):
            yield node.name, scope
        inner = (scope + (node.name,)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)
        yield from _reads(node, inner)


def _src_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _used_names(trees):
    return {name for tree in trees.values() for name, scope in _reads(tree) if name not in scope}


def test_every_definition_has_a_caller_under_src():
    # a def, class or constant that no src/ module reads is code only tests run
    trees = _src_trees()
    used = _used_names(trees)
    defined = {(name, defined_name)
               for name, tree in trees.items() for defined_name in _module_level_names(tree)}
    assert {d for d in defined if d[1] not in used} == UNREFERENCED_DEFINITIONS


def test_every_class_member_has_a_caller_under_src():
    # a method or property that no src/ module names is code only tests run
    trees = _src_trees()
    used = _used_names(trees)
    unused = {(name, cls, member) for name, tree in trees.items()
              for cls, member in _member_names(tree) if member not in used}
    assert unused == set()


def test_a_name_read_only_inside_its_namesake_is_unused():
    tree = ast.parse("class A:\n"
                     "    def f(self):\n        return self.base.f() + self.g()\n"
                     "    def g(self):\n        return 1\n")
    assert set(_member_names(tree)) == {("A", "f"), ("A", "g")}
    assert _used_names({"a.py": tree}) >= {"g", "base"}
    assert "f" not in _used_names({"a.py": tree})


def test_importing_every_module_loads_no_scipy():
    code = (
        "import importlib, pkgutil, sys\n"
        "import tapglass, tapglass.cli, tapglass.experiments\n"
        "for info in pkgutil.iter_modules(tapglass.__path__):\n"
        "    importlib.import_module('tapglass.' + info.name)\n"
        "print(len(list(pkgutil.iter_modules(tapglass.__path__))))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split("\n")
    assert int(out[0]) == len(list(SRC.glob("*.py"))) - 1  # every module but __init__
    assert out[1] == ""
