import ast
import inspect
from pathlib import Path

import duelsim
from duelsim import errors


def test_all_names_resolve_without_duplicates():
    assert len(duelsim.__all__) == len(set(duelsim.__all__))
    for name in duelsim.__all__:
        assert hasattr(duelsim, name), name


def raised_names(package_dir):
    """Names of the exceptions raised by `raise X` or `raise X(...)` in package_dir."""
    names = set()
    for path in Path(package_dir).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    raised = raised_names(Path(duelsim.__file__).parent)
    defined = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.DuelSimError) and cls is not errors.DuelSimError
    }
    assert defined, "no DuelSimError subclasses found"
    assert defined - raised == set()
