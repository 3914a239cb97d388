"""Every public function and class of the package, and of the tests'
referees, has a user.

Each definition is keyed by its module.  A user is a load of the
definition, as an ``ast.Name`` or the attribute of an ``ast.Attribute``,
outside the definition's own body.  A load is resolved through its
module's own definitions and imports (imports inside functions too),
following re-exports such as ``chainsense.symca``'s, so a name matches
only the definition it reaches.  Imports and ``__all__`` strings are not
uses, and neither is an attribute of anything but a module.

A package definition needs a user in the package.  The only other users
allowed are the referees below: routines that no command calls but that
the tests compare a pipeline result against.  A definition in
``tests/referees`` needs a user among the test modules and referees, and
no referee may load the package's exact elimination, which it exists to
check.
"""

import ast
from pathlib import Path

import chainsense

PACKAGE = Path(chainsense.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH_RUNNER = TESTS.parent / "perfbench" / "run.py"

#: public definitions (module.name) with no caller in the package, and why
#: each stays in it
REFEREES = {
    "realization.a_tilde_last_column_closed_form": "SPT closed form of "
                                                   "acceptance 05, which "
                                                   "analyze's odd-N verdict "
                                                   "is to read",
    "symca.poly.RatFuncField": "QQ(v) coefficients of the parametric "
                               "elimination behind acceptance 07; it leaves "
                               "with the rest of symca once symca is off "
                               "the command path",
}

#: package routines (module, name) that no referee may load
ELIMINATION = {("chainsense.exact", name)
               for name in ("det", "solve", "_eliminate")}


def _modules(root, prefix=()):
    """{dotted module name, as imported: (the package its relative imports
    start from, tree)} of every file under ``root``."""
    modules = {}
    for path in sorted(root.rglob("*.py")):
        parts = (*prefix, *path.relative_to(root).with_suffix("").parts)
        package = parts[:-1]
        if parts[-1] == "__init__":
            parts = package
        modules[".".join(parts)] = (package, ast.parse(path.read_text(),
                                                      filename=str(path)))
    return modules


def _imports(package, tree, modules):
    """{bound name: module name, or (module, name)} for the imports
    anywhere in ``tree`` of modules in ``modules``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name if alias.asname else alias.name.split(".")[0]
                if target in modules:
                    bound[alias.asname or target] = target
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        base = list(package[:len(package) - node.level + 1]) if node.level else []
        base += node.module.split(".") if node.module else []
        for alias in node.names:
            target = ".".join([*base, alias.name])
            bound[alias.asname or alias.name] = (
                target if target in modules else (".".join(base), alias.name))
    return bound


def _loads(modules):
    """{(module, name) of each module-level function or class: the modules
    that load it outside its own body}."""
    defined = {}
    for module, (_, tree) in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[(module, node.name)] = set(ast.walk(node))
    imports = {m: _imports(package, tree, modules)
               for m, (package, tree) in modules.items()}

    def definition(module, name):
        while (module, name) not in defined:
            target = imports.get(module, {}).get(name)
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

    loaders = {key: set() for key in defined}
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
                loaders[key].add(module)
    return loaders


def _scan():
    """{module.name of each public package definition, the module relative
    to the package: whether the package loads it outside its own body}."""
    loads = _loads(_modules(PACKAGE, ("chainsense",)))
    return {".".join([*module.split(".")[1:], name]): bool(users)
            for (module, name), users in loads.items()
            if not name.startswith("_")}


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
        f"{module.split('.')[1]}.{node.name}"
        for module, (_, mod_tree) in _modules(PACKAGE, ("chainsense",)).items()
        if module != "chainsense"
        for node in mod_tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert designated
    missing = sorted(set(designated) - functions)
    assert not missing, f"designated functions not in the package: {missing}"


def test_referees_under_tests_have_users_and_their_own_elimination():
    """Every public referee under ``tests/referees`` is loaded by a test
    module or another referee, so one that nothing compares against fails,
    and no referee loads ``chainsense.exact``'s elimination."""
    tests = _modules(TESTS)
    loads = _loads({**_modules(PACKAGE, ("chainsense",)), **tests})
    referees = {key: users for key, users in loads.items()
                if key[0].split(".")[0] == "referees"}
    assert referees
    unused = sorted(".".join(key) for key, users in referees.items()
                    if not users and not key[1].startswith("_"))
    assert not unused, f"referees with no test: {unused}"
    shared = sorted(f"{m} loads {'.'.join(key)}" for key in ELIMINATION
                    for m in loads[key] if m.split(".")[0] == "referees")
    assert not shared, f"referees on the package elimination: {shared}"
