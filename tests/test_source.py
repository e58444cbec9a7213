"""Static checks over the package source."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pineq"
TRACER = ROOT / "perfbench" / "tracer.py"


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads or exports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):  # names listed in __all__ count as read
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    unread = _unread_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unread, f"{path.name} imports names it never reads: {unread}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Single-underscore names bound at module or class level, with their line."""
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    defined = {}
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = node.lineno
    return defined


def test_every_private_name_is_read():
    """A private helper, constant or method that no module of the package
    reads (as a name or as an attribute) is dead code."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{file} line {line}: {name}" for file, tree in trees.items()
              for name, line in _private_definitions(tree).items() if name not in read]
    assert not unread, f"private names the package never reads: {unread}"


def _traced_boundaries() -> dict:
    """``BOUNDARIES`` of the benchmark tracer, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


def test_every_traced_boundary_exists():
    """Each entry point the tracer rebinds resolves as its installer looks it
    up: a function of ``pineq.<home>``, or a method in its class's own
    ``__dict__``.  A missing one would drop out of every traced run."""
    missing = []
    for name, (home, targets) in _traced_boundaries().items():
        module = importlib.import_module(f"pineq.{home}")
        for target in targets:
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and meth in vars(cls)
            else:
                found = callable(getattr(module, target, None))
            if not found:
                missing.append(f"{name}: pineq.{home}.{target}")
    assert not missing, f"traced boundaries not found: {missing}"
