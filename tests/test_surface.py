"""Every public function and class of the package has a user.

A user is a load of the name, as an ``ast.Name`` or the attribute of an
``ast.Attribute``, anywhere in the package outside the definition's own
body.  Imports and ``__all__`` strings are not uses, and names are matched
by their bare name across modules.  The only other users allowed are the
referees below: routines that no command calls but that the tests compare
a pipeline result against.
"""

import ast
from pathlib import Path

import chainsense

PACKAGE = Path(chainsense.__file__).resolve().parent

#: public names with no caller in the package, and why each stays
REFEREES = {
    "dense_matrix": "Kronecker referee of the sector Hamiltonian and oracle",
    "dense_state": "Kronecker referee of the oracle's initial density matrix",
    "random_binding": "float binding sampler for the tests and acceptance",
    "exact_observability_rank": "exact rank behind acceptance 04",
    "pbh_test_exact": "exact PBH deficiency behind acceptance 04",
    "even_structure": "exact even-N form [[0, T], [-T^t, 0]] of the ladder",
    "even_q_diagonal_closed_form": "closed form of the even-N structure",
    "p_vec_closed_form": "SPT closed form of acceptance 05",
    "p_bar_inverse_last_column_closed_form": "SPT closed form of acceptance 05",
    "a_tilde_last_column_closed_form": "SPT closed form of acceptance 05",
    "solve_similarity_exact": "exact re-derivation of the float certificate",
    "parse": "the tests write polynomials as text",
    "symbolic_transfer": "Faddeev-LeVerrier referee of symbolic_markov",
    "markov_from_transfer": "Markov sequence of the symbolic_markov referee",
    "minimal_denominator_exact": "exact referee of the cube's order-12 invariants",
    "RatFuncField": "QQ(v) coefficients of the parametric elimination "
                    "behind acceptance 07",
}


def _scan():
    """{public name: whether the package loads it outside its own body}."""
    defined, loads = {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.setdefault(node.name, set()).update(ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(node)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loads.setdefault(node.attr, []).append(node)
    return {
        name: any(n not in own for n in loads.get(name, ()))
        for name, own in defined.items()
    }


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
