"""The package's modules form one import stack: each module imports only
modules below it, so no import cycle can form.  One spectral primitive,
fock.eigensystem, diagonalizes every operator: no module grows a private
eigensolver.  One eigenbasis action, fock.Eigensystem.flow, moves vectors
by V e^{-sE} V^H: outside fock only the projection's two-sided time average
rotates into and out of an eigenbasis itself.  Only criterion 5's dense
oracle realizes a dense matrix; the spectral primitive sums its sector
blocks straight from the compiled words.  An operator has one compiled
form, the flat-shift passes of fock.compile_operator, which alone decides
whether its pads are real.  fock.apply walks them for reification and for
criterion 1, and only two functions outside fock read them: the master
law's MasterTerms.__init__, which plans master_rhs's row blocks from them,
and reify.s_action, for the Taylor step bound of the S generator.  Every
pass/fail is decided in acceptance: no other module builds a CheckResult
or holds a tolerance.  The CLI reads a config once, at load: only
ExperimentConfig.validate loads the raw state and ensemble fields, and the
CLI converts no config entry with numpy.  And the package defines nothing
it does not run: every exported name, every module-level function and
class and every method or property has a caller in the package, apart
from the definitions in UNCALLED, each kept for a stated reason."""

import ast
import types
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


# the one function allowed to call realize_matrix: the dense route that
# criterion 5 checks the symbolic commutators against
REALIZE_CALLERS = {("acceptance", "ladder_commutator_expansion")}


def scopes(node, names, scope=None):
    """The innermost function (None at module level) around each attribute
    and each call of a bare name below node whose name is one of names."""
    for child in ast.iter_child_nodes(node):
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else scope)
        if (isinstance(child, ast.Attribute) and child.attr in names
                or isinstance(child, ast.Call)
                and getattr(child.func, "id", None) in names):
            yield inner
        yield from scopes(child, names, inner)


def callers(names):
    return {(module, scope) for module in STACK for scope in scopes(
        ast.parse((PACKAGE / f"{module}.py").read_text()), names)}


def test_eigh_runs_only_in_the_spectral_primitive():
    for module in STACK:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                assert not EIGENSOLVERS & {a.name for a in node.names}, \
                    "an eigensolver imported by name"
    assert callers(EIGENSOLVERS) == SOLVER_CALLERS


def test_dense_realization_only_in_the_oracle():
    assert callers({"realize_matrix"}) == REALIZE_CALLERS


# the one function outside fock allowed to rotate into or out of an
# eigenbasis: the projection's time average, which rotates rho from both
# sides; every one-sided action is Eigensystem.flow
ROTATION_CALLERS = {("evolution", "_time_average")}


def test_one_eigenbasis_action():
    assert {(module, scope) for module, scope
            in callers({"to_eigenbasis", "from_eigenbasis"})
            if module != "fock"} == ROTATION_CALLERS


# the functions outside fock allowed to read the passes of a compiled
# operator: the master law's post words, and the Taylor step bound of the S
# generator
PASSES_READERS = {("evolution", "__init__"), ("reify", "s_action")}


def test_passes_are_the_one_compiled_form():
    for module in STACK:
        assert not any(isinstance(node, ast.FunctionDef)
                       and node.name == "fold"
                       for node in ast.walk(module_tree(module)))
    assert callers({"fold", "entries"}) == set()
    assert {(module, scope) for module, scope in callers({"passes"})
            if module != "fock"} == PASSES_READERS


def loads(tree):
    """The names and the attributes that tree loads or calls, annotations
    left out, as ("name", id) and ("attr", attr) pairs."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            node.annotation = None
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                yield "name", node.id
            elif isinstance(node, ast.Attribute):
                yield "attr", node.attr


def package_loads():
    return {load for module in STACK for load in loads(module_tree(module))}


def test_every_export_has_a_caller():
    used = {name for _, name in package_loads()}
    exports = {name for name in fockdm.__all__
               if not isinstance(getattr(fockdm, name), types.ModuleType)}
    assert exports <= used


# the definitions kept without a caller in the package, each with its reason
UNCALLED = {
    # the older name of NormalFormOperator.terms, which the benchmark's
    # tracer reads (perfbench/tracer.py, Probes.realize_matrix)
    "NormalFormOperator.words",
}


def definitions(tree):
    """(qualified name, name, is a method) of each module-level function and
    class and of each non-dunder method or property of a module-level class.
    The functions that @criterion registers are left out: the registry
    runs them."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or any(getattr(getattr(d, "func", d), "id", None)
                       == "criterion" for d in node.decorator_list)):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name, True)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")))


def test_every_definition_has_a_caller():
    # a module-level name counts as loaded by name or as an attribute, a
    # method or a property only as an attribute
    used = package_loads()
    uncalled = {qualified for module in STACK
                for qualified, name, method in definitions(module_tree(module))
                if ("attr", name) not in used
                and (method or ("name", name) not in used)}
    assert uncalled == UNCALLED


def module_tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def float_constants(tree):
    """The module-level names bound to a float literal."""
    return {target.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, float)
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)}


def test_only_validate_loads_the_raw_state_and_ensemble():
    assert {scope for module, scope in callers({"state", "ensemble"})
            if module == "cli"} == {"validate"}


def test_the_cli_converts_no_config_entry_with_numpy():
    assert {scope for module, scope in callers({"asarray", "array"})
            if module == "cli"} == set()


def test_only_acceptance_builds_a_check_result():
    assert {module for module, _ in callers({"CheckResult"})} \
        == {"acceptance"}


@pytest.mark.parametrize("module", ["cli", "discrepancy"])
def test_measuring_modules_hold_no_tolerance(module):
    tolerances = float_constants(module_tree("acceptance"))
    assert {"DISCREPANCY_TOLERANCE", "PROJECTION_BAND", "IEE_TOLERANCE",
            "TRACE_DRIFT_TOLERANCE"} <= tolerances
    tree = module_tree(module)
    assert not float_constants(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not tolerances & {a.name for a in node.names}
        if isinstance(node, ast.Compare):
            # no inline bound either
            assert not any(isinstance(operand, ast.Constant)
                           and isinstance(operand.value, float)
                           for operand in [node.left, *node.comparators])


def test_one_blas_thread_is_set_before_any_submodule_loads():
    # the first "from ." import loads numpy, and OpenBLAS reads its thread
    # count once, when it loads
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    first_import = next(i for i, node in enumerate(body)
                        if isinstance(node, ast.ImportFrom) and node.level)
    defaults = [i for i, statement in enumerate(body)
                for node in ast.walk(statement)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "setdefault"
                and getattr(node.func.value, "attr", None) == "environ"
                and [ast.literal_eval(a) for a in node.args]
                == ["OPENBLAS_NUM_THREADS", "1"]]
    assert defaults and defaults[0] < first_import
