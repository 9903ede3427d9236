"""The package raises three kinds of error and defines two of them.

ValueError is every misuse and every bad input (exit 2 from the CLI),
fec.DecodeFailureError means the symbols or the file digest contradict
each other, and transfer.TransferTimeoutError means the input ended
before the decode closed (both exit 1).
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import dyncast
from dyncast import fec, transfer

SRC = Path(dyncast.__file__).parent
RAISED = {"ValueError", "DecodeFailureError", "TransferTimeoutError"}


def raised_name(exc: ast.expr) -> str | None:
    """The class a ``raise`` names: ``X``, ``X(...)``, ``mod.X`` or ``mod.X(...)``."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return None


def test_every_raise_names_one_of_the_three_kinds():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # A bare ``raise`` re-raises what a handler caught.
            if isinstance(node, ast.Raise) and node.exc is not None:
                if raised_name(node.exc) not in RAISED:
                    offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


def test_the_package_defines_exactly_two_exception_classes():
    defined = set()
    for info in pkgutil.iter_modules(dyncast.__path__, "dyncast."):
        if info.name == "dyncast.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == {fec.DecodeFailureError, transfer.TransferTimeoutError}
    # Neither is a ValueError, so a caller can tell them from bad input.
    assert not any(issubclass(cls, ValueError) for cls in defined)
