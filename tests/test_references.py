"""Every public function, class and method the package defines is used:
some expression in the package or the benchmark names it, outside its
own definition."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "spdbci").glob("*.py")) + sorted(
    (ROOT / "benchmarks").glob("*.py")
)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree: ast.Module):
    """Public module-level functions and classes, and the public methods
    of those classes."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (
                    item for item in node.body
                    if isinstance(item, DEFINITIONS) and not item.name.startswith("_")
                )


def references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as
    the attribute of an expression."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def unreferenced(sources: list[str], defining: list[str]) -> list[str]:
    """Public names defined in the ``defining`` sources that no source
    reads outside the definition itself."""
    total = sum((references(ast.parse(src)) for src in sources), Counter())
    unused = []
    for src in defining:
        for node in public_definitions(ast.parse(src)):
            if total[node.name] - references(node)[node.name] == 0:
                unused.append(node.name)
    return sorted(unused)


def test_checker_flags_a_name_only_its_own_body_reads():
    package = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n    def read(self):\n        return self.value\n"
        "    def shown(self):\n        return self.read()\n"
    )
    caller = "print(used(), Box().shown())\n"
    assert unreferenced([package, caller], [package]) == ["recursive"]


def test_every_public_definition_is_referenced():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    package = [src for path, src in zip(SOURCES, sources) if path.parent.name == "spdbci"]
    assert unreferenced(sources, package) == []
