"""The package's modules form one import stack: each module imports only
modules below it, so no import cycle can form.  And one spectral primitive,
fock.eigensystem, diagonalizes every operator: no module grows a private
eigensolver."""

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


# the functions allowed to name an eigensolver: the spectral primitive, and
# the fold of a wide ensemble's moment matrix into its eigenvectors
EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}
SOLVER_CALLERS = {("fock", "eigensystem"), ("evolution", "density_samples")}


def solver_scopes(node, scope=None):
    """The innermost function (None at module level) around each eigensolver
    attribute below node."""
    for child in ast.iter_child_nodes(node):
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else scope)
        if isinstance(child, ast.Attribute) and child.attr in EIGENSOLVERS:
            yield inner
        if isinstance(child, ast.ImportFrom):
            assert not EIGENSOLVERS & {a.name for a in child.names}, \
                "an eigensolver imported by name"
        yield from solver_scopes(child, inner)


def test_eigh_runs_only_in_the_spectral_primitive():
    callers = {(module, scope) for module in STACK for scope in solver_scopes(
        ast.parse((PACKAGE / f"{module}.py").read_text()))}
    assert callers == SOLVER_CALLERS
