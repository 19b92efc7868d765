"""The package's modules form one import stack: each module imports only
modules below it, so no import cycle can form."""

import ast
from pathlib import Path

import pytest

import fockdm

STACK = ("poly", "algebra", "fock", "states", "evolution", "discrepancy",
         "reify", "acceptance", "cli")
PACKAGE = Path(fockdm.__file__).parent


def test_stack_names_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(STACK)


@pytest.mark.parametrize("module", STACK)
def test_imports_follow_the_stack(module):
    below = STACK[:STACK.index(module)]
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                assert [a.name for a in node.names] == ["__version__"]
            else:
                assert node.module in below, \
                    f"{module} imports {node.module}, which is not below it"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            assert not any(n and n.split(".")[0] == "fockdm" for n in names)
