"""Every error type that ``errors.py`` declares is raised by the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdbci"
BASE = "SpdBciError"


def declared_errors(source: str) -> list[str]:
    """Every class the source declares except the common base."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name != BASE
    )


def raised_names(source: str) -> set[str]:
    """Names that a ``raise`` statement raises, called or not."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_checker_finds_declared_and_raised_names():
    declared = "class SpdBciError(Exception): pass\nclass A(SpdBciError): pass\n" \
               "class B(A): pass\n"
    assert declared_errors(declared) == ["A", "B"]
    assert raised_names("raise A('x') from None\nraise B\nraise\nC()\n") == {"A", "B"}


@pytest.mark.parametrize(
    "name", declared_errors((PACKAGE / "errors.py").read_text(encoding="utf-8"))
)
def test_error_type_is_raised(name):
    raised = set().union(
        *(raised_names(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py"))
    )
    assert name in raised, f"{name} is declared in errors.py but never raised"
