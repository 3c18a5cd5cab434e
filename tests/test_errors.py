"""Every error class is a way of failing that the library has.  Each
class of kolmo.errors other than the base KolmoError must be raised by
name in some raise statement of src/kolmo; a class that nothing raises
is dead, and a failure that needs no class of its own raises the class
that already carries its meaning.  The sources are read with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kolmo"


def error_classes():
    """The names of the classes that kolmo.errors defines."""
    tree = ast.parse((SRC / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def raised_names():
    """The class names that the raise statements of src/kolmo name, as
    ``raise X``, ``raise X(...)`` or ``raise errors.X(...)``."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


def test_every_error_class_is_raised_somewhere():
    classes = error_classes()
    assert "KolmoError" in classes and len(classes) > 1
    dead = sorted(classes - {"KolmoError"} - raised_names())
    assert not dead, f"error classes that no raise in src/kolmo names: {dead}"
