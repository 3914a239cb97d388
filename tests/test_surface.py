"""Every public function and class of the package has a user.

Each definition is keyed by its module.  A user is a load of the
definition, as an ``ast.Name`` or the attribute of an ``ast.Attribute``,
anywhere in the package outside the definition's own body.  A load is
resolved through its module's own definitions and imports (imports inside
functions too), following re-exports such as ``chainsense.symca``'s, so a
name matches only the definition it reaches.  Imports and ``__all__``
strings are not uses, and neither is an attribute of anything but a
module.  The only other users allowed are the referees below: routines
that no command calls but that the tests compare a pipeline result
against.
"""

import ast
from pathlib import Path

import chainsense

PACKAGE = Path(chainsense.__file__).resolve().parent
BENCH_RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

#: public definitions (module.name) with no caller in the package, and why
#: each stays
REFEREES = {
    "pauli.dense_matrix": "Kronecker referee of the sector Hamiltonian and "
                          "oracle",
    "pauli.dense_state": "Kronecker referee of the oracle's initial density "
                         "matrix",
    "pauli.multiply": "phase and commutation referee of the inlined "
                      "derivative kernel",
    "pauli.commutes": "phase and commutation referee of the inlined "
                      "derivative kernel",
    "prng.random_binding": "float binding sampler for the tests and "
                           "acceptance",
    "realization.exact_observability_rank": "exact rank behind acceptance 04",
    "realization.pbh_test_exact": "exact PBH deficiency behind acceptance 04",
    "realization.even_structure": "exact even-N form [[0, T], [-T^t, 0]] of "
                                  "the ladder",
    "realization.even_q_diagonal_closed_form": "closed form of the even-N "
                                               "structure",
    "realization.p_vec_closed_form": "SPT closed form of acceptance 05",
    "realization.p_bar_inverse_last_column_closed_form": "SPT closed form of "
                                                         "acceptance 05",
    "realization.a_tilde_last_column_closed_form": "SPT closed form of "
                                                   "acceptance 05",
    "sta.solve_similarity_exact": "exact re-derivation of the float "
                                  "certificate",
    "symca.poly.parse": "the tests write polynomials as text",
    "symca.transfer.symbolic_transfer": "Faddeev-LeVerrier referee of "
                                        "symbolic_markov",
    "symca.transfer.markov_from_transfer": "Markov sequence of the "
                                           "symbolic_markov referee",
    "symca.transfer.minimal_denominator_exact": "exact referee of the cube's "
                                                "order-12 invariants",
    "symca.transfer.cube_equations": "the pinned N = 2 cube system whose "
                                     "solve referees the denominator "
                                     "route's closed forms",
    "symca.poly.RatFuncField": "QQ(v) coefficients of the parametric "
                               "elimination behind acceptance 07",
}


def _modules():
    """{module name relative to the package ('' for its root):
    (the package its relative imports start from, tree)}."""
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        package = parts[:-1]
        if parts[-1] == "__init__":
            parts = package
        modules[".".join(parts)] = (package, ast.parse(path.read_text(),
                                                      filename=str(path)))
    return modules


def _imports(package, tree, modules):
    """{bound name: module name, or (module, name)} for the package's own
    relative imports anywhere in ``tree``."""
    bound = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        base = list(package[:len(package) - node.level + 1])
        base += node.module.split(".") if node.module else []
        for alias in node.names:
            target = ".".join([*base, alias.name])
            bound[alias.asname or alias.name] = (
                target if target in modules else (".".join(base), alias.name))
    return bound


def _scan():
    """{module.name of each public definition: whether the package loads it
    outside its own body}."""
    modules = _modules()
    defined = {}
    for module, (_, tree) in modules.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[(module, node.name)] = set(ast.walk(node))
    imports = {m: _imports(package, tree, modules)
               for m, (package, tree) in modules.items()}

    def definition(module, name):
        while (module, name) not in defined:
            target = imports[module].get(name)
            if not isinstance(target, tuple):
                return None
            module, name = target
        return module, name

    def module_of(module, node):
        if isinstance(node, ast.Name):
            target = imports[module].get(node.id)
            return target if isinstance(target, str) else None
        if isinstance(node, ast.Attribute):
            outer = module_of(module, node.value)
            inner = f"{outer}.{node.attr}" if outer else node.attr
            if outer is not None and inner in modules:
                return inner
        return None

    used = set()
    for module, (_, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                key = definition(module, node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                owner = module_of(module, node.value)
                key = None if owner is None else definition(owner, node.attr)
            else:
                continue
            if key is not None and node not in defined[key]:
                used.add(key)
    return {".".join(filter(None, key)): key in used for key in defined}


def test_every_public_name_has_a_user():
    called = _scan()
    unused = sorted(n for n, used in called.items()
                    if not used and n not in REFEREES)
    assert not unused, f"public names with no user: {unused}"


def test_referees_exist_and_have_no_package_caller():
    called = _scan()
    missing = sorted(set(REFEREES) - set(called))
    assert not missing, f"referees no longer defined: {missing}"
    called_now = sorted(n for n in REFEREES if called[n])
    assert not called_now, f"referees the package now calls: {called_now}"


def test_benchmark_designated_functions_exist():
    """Every ``layer.name`` the benchmark's traced run must see called is a
    public module-level function of that layer, so deleting one fails here
    and not only in a traced benchmark run."""
    tree = ast.parse(BENCH_RUNNER.read_text(), filename=str(BENCH_RUNNER))
    designated = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "DESIGNATED"
                for t in node.targets)
    )
    functions = {
        f"{module.split('.')[0]}.{node.name}"
        for module, (_, mod_tree) in _modules().items() if module
        for node in mod_tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert designated
    missing = sorted(set(designated) - functions)
    assert not missing, f"designated functions not in the package: {missing}"
