"""Module boundaries: no sinech module uses another one's private names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sinech

MODULES = sorted(Path(sinech.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(path: Path) -> list:
    """"line: name" for every underscore name that the module at path
    imports from another sinech module, or reads off a sinech module it
    imported by name (from . import analysis)."""
    tree = ast.parse(path.read_text())
    modules, uses = set(), []  # modules: local names bound to sinech modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "sinech"
                                                   or node.module.startswith("sinech.")):
            for alias in node.names:
                if _private(alias.name):
                    uses.append(f"{node.lineno}: {alias.name}")
                elif node.module in (None, "sinech"):  # from . import spectral
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            uses.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return uses


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_uses_another_modules_private_names(path):
    assert _private_uses(path) == []


def _foreign_private_reads(path: Path) -> list:
    """"line: x._name" for each read of an underscore attribute (not a
    dunder) in the module at path that names nothing the module defines
    (def, class) or assigns (name = ..., x._name = ...): another module's
    private member."""
    tree = ast.parse(path.read_text())
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    return [f"{node.lineno}: {_dotted(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and _private(node.attr) and node.attr not in own]


# private members read outside the module that owns them
FOREIGN_PRIVATE_READS_ALLOWED = {}


def test_no_module_reads_another_modules_private_members():
    # a private member is its module's to change: a subclass or caller in
    # another module that reads one is coupled to that module's internals
    reads = {f"{path.stem}: {use}" for path in MODULES for use in _foreign_private_reads(path)}
    allowed = set(FOREIGN_PRIVATE_READS_ALLOWED)
    assert reads == allowed, (f"foreign private reads: {sorted(reads - allowed)}; "
                              f"allowed, but gone: {sorted(allowed - reads)}")


def _scipy_sparse_imports(path: Path) -> list:
    """The names the module at path imports from scipy.sparse (or its
    submodules), and the scipy.sparse modules it imports whole."""
    def sparse(module):
        return module is not None and (module + ".").startswith("scipy.sparse.")

    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and sparse(node.module):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if sparse(alias.name)]
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_analysis_imports_from_scipy_sparse_and_only_lobpcg(path):
    # now that no module does: the solvers' operators are maps of (n, n)
    # arrays, not scipy LinearOperators, and both Krylov solvers (MINRES,
    # LOBPCG) are the package's own
    assert _scipy_sparse_imports(path) == []


def test_the_package_loads_neither_scipy_sparse_nor_scipy_linalg():
    # importing them costs about 50 ms and 10 MiB in every process
    code = ("import sys, sinech.cli, sinech.analysis; "
            "print(sorted({m.split('.')[1] for m in sys.modules "
            "if m.startswith(('scipy.sparse', 'scipy.linalg'))}))")
    src = str(Path(sinech.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# sums that call BLAS, whose bits can depend on the thread count; the
# package's own sums go through spectral.dot and spectral.weighted_sum
BLAS_SUMS = {"np.linalg.norm", "np.vdot", "np.dot", "np.inner", "np.matmul", "np.tensordot"}
# the BLAS and LAPACK callers the package keeps, by module and function:
# LOBPCG's Rayleigh-Ritz step (at most 3 x 3) and the log-linear fit
BLAS_ALLOWED = {("analysis", "lobpcg", "np.linalg.eigh"),
                ("analysis", "_log_linear_fit", "np.polynomial.polynomial.polyfit")}


def _dotted(node) -> str:
    """'np.linalg.norm' for the expression np.linalg.norm, '.dot' for x().dot."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id if isinstance(node, ast.Name) else ""] + parts[::-1])


def _blas_name(node) -> str | None:
    """The BLAS or LAPACK use that node is, if any: a call of a BLAS_SUMS
    name, of any np.linalg routine, of polyfit, or of a .dot
    method (not spectral.dot, imported by name), or the @ operator."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if not isinstance(node, ast.Call):
        return None
    name = _dotted(node.func)
    last = name.rsplit(".", 1)[-1]
    if (name in BLAS_SUMS or name.startswith("np.linalg.") or last == "polyfit"
            or (last == "dot" and "." in name)):
        return name
    return None


def _uses(path: Path, name_of) -> list:
    """(line, function, name) for each node of the module at path that
    name_of names (else None), with the top-level function it sits in (""
    at module level)."""
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not function:
            function = node.name
        name = name_of(node)
        if name is not None:
            uses.append((node.lineno, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), "")
    return uses


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_sums_through_blas(path):
    assert [use for use in _uses(path, _blas_name)
            if (path.stem,) + use[1:] not in BLAS_ALLOWED] == []


# the one precision choice (a loose inner solve's) and the one product that
# runs in it; everything else, the stability indicator's operator too, is
# float64
FLOAT32_ALLOWED = {("model", "fprime_multiplier"), ("integrator", "newton_krylov")}


def _float32_name(node) -> str | None:
    return "float32" if isinstance(node, ast.Attribute) and node.attr == "float32" else None


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_newton_krylov_picks_float32(path):
    assert [use for use in _uses(path, _float32_name)
            if (path.stem, use[1]) not in FLOAT32_ALLOWED] == []


# keyword defaults that no call in the package passes, each with its caller
# outside it
UNPASSED_DEFAULTS_ALLOWED = {
    "cli.main.argv": "the console entry point calls main() with none",
    "integrator.minres.callback": "perfbench/tracer.py passes it to count iterations",
}


def _defaults(path: Path) -> list:
    """(key, callee, position, name) for each parameter with a default of a
    module-level function or method of the module at path: key is
    "module.function.name" (module.Class.method.name for a method), callee
    the name a call uses (the class's for __init__), position the index of
    the argument that passes it positionally in such a call (None for a
    keyword-only parameter)."""
    out = []
    tree = ast.parse(path.read_text())
    owners = [(node, "", 0) for node in tree.body]
    owners += [(node, cls.name, 1) for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body]
    for node, cls, skip in owners:
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        params = a.posonlyargs + a.args
        callee = cls if node.name == "__init__" else node.name
        key = ".".join(filter(None, (path.stem, cls, node.name)))
        for i in range(len(params) - len(a.defaults), len(params)):
            out.append((f"{key}.{params[i].arg}", callee, i - skip, params[i].arg))
        for p, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((f"{key}.{p.arg}", callee, None, p.arg))
    return out


def _passed(calls: list, callee: str, position, name: str) -> bool:
    """Whether one of calls, of callee by name or as an attribute, passes the
    parameter: by keyword, by **, at its position or through a *."""
    for call in calls:
        if _dotted(call.func).rsplit(".", 1)[-1] != callee:
            continue
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        if position is not None and (len(call.args) > position
                                     or any(isinstance(x, ast.Starred) for x in call.args)):
            return True
    return False


def test_every_keyword_default_has_a_caller():
    # a default that no caller overrides is a knob with one setting: it
    # belongs in the function's body
    calls = [node for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    unpassed = {key for path in MODULES for key, callee, position, name in _defaults(path)
                if not _passed(calls, callee, position, name)}
    allowed = set(UNPASSED_DEFAULTS_ALLOWED)
    assert unpassed == allowed, (f"passed by no call: {sorted(unpassed - allowed)}; "
                                 f"allowed, but passed: {sorted(allowed - unpassed)}")


# module-level functions and classes that no code in the package names, each
# with its caller outside it
UNCALLED_ALLOWED = {}


def _definitions_and_uses(path: Path) -> tuple[list, list]:
    """"module.name" for each module-level function and class of the module
    at path, and (name, owner) for each name the module reads (a bare name
    or an attribute), owner the "module.name" of the module-level
    definition it sits in (None outside any)."""
    tree = ast.parse(path.read_text())
    defs = [f"{path.stem}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    uses = []

    def visit(node, owner):
        if isinstance(node, ast.Name):
            uses.append((node.id, owner))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in tree.body:
        key = f"{path.stem}.{getattr(node, 'name', '')}"
        visit(node, key if key in defs else None)
    return defs, uses


def test_every_function_and_class_has_a_caller():
    # a definition that nothing in the package names is code the system
    # does not run: give it a caller or delete it
    defs, uses = [], []
    for path in MODULES:
        d, u = _definitions_and_uses(path)
        defs += d
        uses += u
    uncalled = {key for key in defs
                if not any(name == key.split(".")[1] and owner != key for name, owner in uses)}
    allowed = set(UNCALLED_ALLOWED)
    assert uncalled == allowed, (f"named by no code in the package: {sorted(uncalled - allowed)}; "
                                 f"allowed, but named: {sorted(allowed - uncalled)}")
