"""Every name a package module imports is used in that module, and the
package imports from scipy only what it needs."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdbci"
# ``__init__.py`` imports the submodules to expose them; that is its use.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads.

    An attribute chain such as ``np.linalg.eigh`` reads its root name, so
    ``import numpy as np`` counts as used.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_flags_an_unused_name():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.eye(2), tau)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def scipy_imports(source: str) -> list[str]:
    """The scipy modules an import statement in ``source`` names: the
    module of ``import scipy.x`` and of ``from scipy.x import y``, and
    ``scipy.y`` for ``from scipy import y``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            if node.module == "scipy":
                found += [f"scipy.{a.name}" for a in node.names]
            else:
                found.append(node.module)
    return found


def test_scipy_checker_names_each_form():
    source = ("import scipy\nimport scipy.linalg as sl\nfrom scipy import signal, special\n"
              "from scipy.special import log_softmax\nimport numpy\n")
    assert scipy_imports(source) == [
        "scipy", "scipy.linalg", "scipy.signal", "scipy.special", "scipy.special"]


def test_the_only_scipy_import_is_the_filter_banks_signal():
    """Filter design and filtering are the package's one use of scipy;
    everything else runs on numpy alone."""
    found = {(p.name, name) for p in sorted(PACKAGE.glob("*.py"))
             for name in scipy_imports(p.read_text(encoding="utf-8"))}
    assert found == {("filterbank.py", "scipy.signal")}
