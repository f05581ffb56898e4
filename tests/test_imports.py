"""Every name a source module imports is used there or listed in its
__all__, and every name in an __all__ is bound. The package's __init__
is exempt from the first check: its imports are the re-exports that make
up the package namespace, and each must be in its module's __all__.
Every parameter of a public function (one in its module's __all__, or a
public method of a class there) is read in its body."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "risnoma"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported_names(tree))


def unread_parameters(source: str) -> list:
    """"function(parameter)" for each parameter of a public function that
    its body never reads."""
    tree = ast.parse(source)
    exported = exported_names(tree)
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            functions += [
                (f"{node.name}.{f.name}", f)
                for f in node.body
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            ]
    unread = []
    for name, fn in functions:
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
        names = (n for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name))
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        unread += [f"{name}({p})" for p in params if p not in read]
    return unread


def test_finds_unused_imports():
    source = "import os.path\nimport math as m\nfrom a import b, c\n__all__ = ['c']\nm.pi\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_unread_parameters():
    source = (
        "__all__ = ['f', 'C']\n"
        "def f(a, b=1, *args, c, **kw):\n    return a + c\n"
        "def g(x):\n    pass\n"
        "class C:\n"
        "    def m(self, x):\n        def inner():\n            return x\n        return inner\n"
        "    def n(self, y):\n        y = 0\n"
        "    def _p(self, z):\n        pass\n"
    )
    assert unread_parameters(source) == ["f(b)", "f(args)", "f(kw)", "C.m(self)", "C.n(self)", "C.n(y)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_parameters_are_read(path):
    assert unread_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    module = importlib.import_module(f"risnoma.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_package_reexports_are_public():
    """Every name the package's __init__ imports from a module is in that
    module's __all__."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"risnoma.{node.module}").__all__
    ]
    assert private == []
