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
