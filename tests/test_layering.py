"""The package's modules form one import stack: each module imports only
modules below it, so no import cycle can form.  One spectral primitive,
fock.eigensystem (its eigh in fock._eigensystem, which the Liouville law's
propagator fock.propagate also calls on its eigensystem route),
diagonalizes every operator: no module grows a private eigensolver.  One
eigenbasis action, fock.Eigensystem.flow, moves vectors by V e^{-sE} V^H:
outside fock only the projection reads its members into an eigenbasis
itself, once, and nothing rotates out of one.  Only
criterion 5's dense oracle realizes a dense matrix; the spectral primitive
sums its sector blocks straight from the compiled words.  A moment matrix
is made dense only where the math needs it: the master law, the fold of a
wide ensemble, criteria 2 and 3 and snapshots.  An operator is compiled
in two stages: its per-mode words (fock.compile_words), which the flux
reader walks, and the flat-shift passes fock.compile_operator builds from
them, which alone decides whether its pads are real.  The flux reader
reads product members one mode at a time: nothing reached from
ensemble_fluxes forms a member's D^n vector or reads a member block, and
its classical side reads the members a chunk at a time: no polynomial is
evaluated once per member.  A commutator is summed in one pass over its
word pairs, never as the difference of two operator products.  One
routine, states._coherent_columns, builds every coherent column, for the
member blocks and the product members alike, and an ensemble's methods
read its member arrays without turning them back into states.
fock.apply walks the passes for reification, for criterion 1 and for the
Chebyshev route of fock.propagate, which also reads them for its
Gershgorin bounds (fock.gershgorin); only two functions outside fock read
them: the master law's
MasterTerms.__init__, which plans master_rhs's row blocks from them, and
reify.s_action, for the Taylor step bound of the S generator.  Every
pass/fail is decided in acceptance: no other module builds a CheckResult
or holds a tolerance.  The CLI reads a config once, at load: only
ExperimentConfig.validate loads the raw state and ensemble fields, only it
and the helper it fits each polynomial with load the Hamiltonian, the
observables, the bindings and the sweep, and the CLI converts no config
entry with numpy.  And the package defines nothing
it does not run: every exported name, every module-level function and
class and every method or property has a caller in the package, apart
from the definitions in UNCALLED, each kept for a stated reason."""

import ast
import re
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fockdm
from fockdm import discrepancy, states
from fockdm.cli import EXPERIMENTS
from fockdm.poly import PolyExpr, parse_poly
from fockdm.states import Ensemble

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


# the functions allowed to name an eigensolver: the spectral primitive,
# whose eigh runs in the helper that eigensystem and propagate share, and
# the fold of a wide ensemble's moment matrix into its eigenvectors
EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}
SOLVER_CALLERS = {("fock", "_eigensystem"), ("evolution", "density_samples")}


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


# the one function outside fock allowed to read vectors into an eigenbasis:
# the projection, which reads its members once; every action that rotates
# back is Eigensystem.flow
ROTATION_CALLERS = {("evolution", "projection_decay")}


def test_one_eigenbasis_action():
    def outside_fock(name):
        return {(module, scope) for module, scope in callers({name})
                if module != "fock"}

    assert outside_fock("to_eigenbasis") == ROTATION_CALLERS
    assert outside_fock("from_eigenbasis") == set()


# the functions allowed to make a moment matrix dense: the two builders,
# the master law and the fold of a wide ensemble (density_samples), the
# dense routes of criteria 2 and 3, and snapshots (MemberBlock.to_json)
DENSE_CALLERS = {
    ("states", "pure_density"), ("states", "ensemble_density"),
    ("evolution", "density_samples"),
    ("acceptance", "expectation_identity"),
    ("acceptance", "master_vs_classical_flow"),
    ("fock", "to_json"),
}


def test_moment_matrices_are_made_dense_only_where_the_math_needs_it():
    assert callers({"pure_density", "ensemble_density", "dense"}) \
        == DENSE_CALLERS


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


# the functions of cli allowed to load the polynomial texts and what they
# are parsed at: validate, and the helper that fits each polynomial to the
# suite's input for it
FIT_READERS = {"validate", "_fitted"}


def test_only_validate_fits_the_polynomials():
    assert {scope for module, scope in callers(
        {"hamiltonian", "observables", "bindings", "sweep"})
        if module == "cli"} == FIT_READERS


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


# the one flux reader: each commutator is compiled one mode at a time and
# read off product members only inside sweep_fluxes, which the discrepancy
# suite calls over its runs and ensemble_fluxes, for iee and the acceptance
# criteria, over one system
def test_one_flux_reader():
    assert callers({"flux_operator", "quantum_flux", "product_members"}) \
        == {("discrepancy", "sweep_fluxes")}
    assert {(module, scope) for module, scope in callers({"compile_words"})
            if module != "fock"} == {("discrepancy", "flux_operator")}
    assert callers({"sweep_fluxes"}) \
        == {("cli", "run_discrepancy"), ("discrepancy", "ensemble_fluxes")}
    reader = callers({"ensemble_fluxes"})
    assert {module for module, _ in reader} == {"cli", "acceptance"}
    assert {scope for module, scope in reader if module == "cli"} \
        == {"run_iee"}


def functions():
    """(module, class or None, name) -> the FunctionDef of each module-level
    function and of each method of a module-level class, and each class's
    first base."""
    out, bases = {}, {}
    for module in STACK:
        for node in module_tree(module).body:
            if isinstance(node, ast.FunctionDef):
                out[module, None, node.name] = node
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = next(
                    (ast.unparse(base) for base in node.bases), None)
                out.update(((module, node.name, item.name), item)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef))
    return out, bases


def reached(start):
    """The functions a call graph over the package reaches from start.  A
    call of a bare name reaches the functions of that name and the
    constructor hooks of the classes of that name; a call of name.method
    reaches name's class's method when name is self or a parameter
    annotated with a package class, super().method the base's method, and
    any other x.method every method or function of that name."""
    defs, bases = functions()
    classes = {cls for _, cls, _ in defs if cls}
    seen, todo = set(), [start]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        node = defs[key]
        typed = {arg.arg: ast.unparse(arg.annotation).strip("'\"")
                 for arg in node.args.args if arg.annotation is not None}
        if key[1]:
            typed["self"] = key[1]
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                todo += [k for k in defs if k[2] == func.id and not k[1]
                         or k[1] == func.id and k[2] in ("__init__",
                                                         "__post_init__")]
            elif isinstance(func, ast.Attribute):
                value = func.value
                if getattr(getattr(value, "func", None), "id", None) \
                        == "super":
                    # a base outside the package reaches nothing in it
                    todo += [k for k in defs if k[1:] == (bases[key[1]],
                                                          func.attr)]
                    continue
                owner = (typed.get(value.id) if isinstance(value, ast.Name)
                         else None)
                todo += [k for k in defs if k[2] == func.attr and (
                    owner not in classes or k[1] == owner)]
    return seen


# the flux suites read their members one mode at a time: nothing the flux
# reader reaches forms a member's D^n vector or reads a member block
def test_the_flux_reader_forms_no_member_vector():
    names = {name for _, _, name in reached(
        ("discrepancy", None, "ensemble_fluxes"))}
    assert {"sweep_fluxes", "product_members", "expect",
            "_coherent_columns"} <= names
    assert not names & {"member_blocks", "pseudo_wavefunction",
                        "block_trace"}


def calls_in(keys):
    """The bare names and the attributes that the functions keys call."""
    defs, _ = functions()
    return {getattr(call.func, "id", getattr(call.func, "attr", None))
            for key in keys for call in ast.walk(defs[key])
            if isinstance(call, ast.Call)}


# a commutator is summed in one pass over its word pairs, never as the
# difference of the two operator products
def test_the_commutator_forms_no_operator_product():
    reach = reached(("algebra", None, "commutator"))
    assert ("algebra", None, "_contractions") in reach
    assert "normal_order_product" not in calls_in(reach)


# the classical side of the flux path reads a chunk of members at a time:
# nothing the flux reader or the closed form reaches averages a function
# over the members one at a time
@pytest.mark.parametrize("start", ["sweep_fluxes", "discrepancy_closed_form"])
def test_the_flux_path_averages_no_member_at_a_time(start):
    reach = reached(("discrepancy", None, start))
    assert ("poly", None, "eval_rows") in reach
    assert "average" not in calls_in(reach)


def test_the_flux_path_evaluates_no_polynomial_per_member(monkeypatch):
    # 64 members and one: the same evaluations, none of them at one point
    calls = Counter()
    single, rows = PolyExpr.eval, discrepancy.eval_rows

    def eval_counted(self, point):
        calls["eval", np.ndim(point)] += 1
        return single(self, point)

    def rows_counted(polys, points):
        calls["eval_rows"] += 1
        return rows(polys, points)

    monkeypatch.setattr(PolyExpr, "eval", eval_counted)
    monkeypatch.setattr(discrepancy, "eval_rows", rows_counted)
    monkeypatch.setattr(states, "eval_rows", rows_counted)
    h = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.5*pi2^2 + 0.5*phi2^2"
                   " + 0.1*phi1^2*phi2^2 + 0.05*phi1^4", {})
    gs = [parse_poly(text, {}).promote(2)
          for text in ("phi1*pi1", "phi1^3*pi2", "pi2^2")]
    seen = []
    for points in (64, 1):
        calls.clear()
        e = Ensemble.phase_circle(0.8, points, modes=2)
        discrepancy.sweep_fluxes(e, [(h, gs), (h * 2.0, gs)], 16)
        for g in gs:
            discrepancy.discrepancy_closed_form(e, g, h)
        seen.append(dict(calls))
    assert seen[0] == seen[1] == {"eval_rows": 5}


def test_validate_names_no_suite_outside_the_field_table():
    [validate] = [node for node in ast.walk(module_tree("cli"))
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "validate"]
    for node in ast.walk(validate):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            assert not {e.value for e in node.elts
                        if isinstance(e, ast.Constant)} & set(EXPERIMENTS), \
                ast.unparse(node)


# one routine builds every coherent column: the vector route's member
# blocks (and so pseudo_wavefunction) and the flux route's product members
# both take theirs from _coherent_columns, and no Ensemble method turns its
# arrays back into per-member states
def test_one_coherent_column_builder(monkeypatch):
    calls = Counter()
    build = states._coherent_columns

    def spy(z, cutoff):
        calls["columns"] += 1
        return build(z, cutoff)

    monkeypatch.setattr(states, "_coherent_columns", spy)
    e = Ensemble.phase_circle(0.8, 5, modes=2)
    for read in (lambda: states.pseudo_wavefunction(
                     states.ClassicalState([0.1, 0.2], [0.3, 0.0]), 8),
                 lambda: list(e.member_blocks(8)),
                 lambda: list(e.product_members(8, 2))):
        calls.clear()
        read()
        assert calls["columns"] == 1
    assert not hasattr(states, "_coherent_column")
    assert not any(re.search(r"\b_coherent_column\b",
                             (PACKAGE / f"{module}.py").read_text())
                   for module in STACK)


def test_no_ensemble_method_builds_a_classical_state():
    defs, _ = functions()
    methods = [key for key in defs if key[:2] == ("states", "Ensemble")]
    assert ("states", "Ensemble", "member_blocks") in methods
    for method in methods:
        assert ("states", "ClassicalState", "__post_init__") \
            not in reached(method), method
