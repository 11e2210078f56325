"""Every error type that ``errors.py`` declares is raised by the package,
and the package raises no builtin exception class."""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdbci"
BASE = "SpdBciError"
BUILTIN_ERRORS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def declared_errors(source: str) -> list[str]:
    """Every class the source declares except the common base."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name != BASE
    )


def raises(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every ``raise`` statement that raises a name,
    called or not."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.append((node.lineno, exc.id))
    return sorted(out)


def raised_names(source: str) -> set[str]:
    """Names that a ``raise`` statement raises, called or not."""
    return {name for _, name in raises(source)}


def test_checker_finds_declared_and_raised_names():
    declared = "class SpdBciError(Exception): pass\nclass A(SpdBciError): pass\n" \
               "class B(A): pass\n"
    assert declared_errors(declared) == ["A", "B"]
    assert raised_names("raise A('x') from None\nraise B\nraise\nC()\n") == {"A", "B"}
    assert raises("raise ValueError('x')\n\nraise A\n") == [(1, "ValueError"), (3, "A")]


def test_package_raises_no_builtin_exception():
    builtin = [
        f"{p.name}:{line} raises {name}"
        for p in sorted(PACKAGE.glob("*.py"))
        for line, name in raises(p.read_text(encoding="utf-8"))
        if name in BUILTIN_ERRORS
    ]
    assert not builtin, "raise an SpdBciError subclass instead:\n" + "\n".join(builtin)


@pytest.mark.parametrize(
    "name", declared_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"))
)
def test_error_type_is_raised(name):
    raised = set().union(
        *(raised_names(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py"))
    )
    assert name in raised, f"{name} is declared in errors.py but never raised"
