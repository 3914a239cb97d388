"""Symbolic layer tests: exact polynomials, Groebner bases, transfer functions.

The pinned elimination fixture (three equations in t1, t2, t3 over the
field of fractions in v1, v2, v3) is the heart of the two-sensor cube
identifiability argument, so its triangular form is frozen here
coefficient by coefficient.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsense import ssm
from chainsense.accessible import CATALOG, SensorConfig
from chainsense.errors import (
    BudgetExceeded,
    InadmissibleConfig,
    NumericFailure,
)
from chainsense.symca import (
    MPoly,
    PolyRing,
    RatFunc,
    RatFuncField,
    buchberger,
    count_real_roots,
    cube_equations,
    markov_from_transfer,
    minimal_denominator_exact,
    model_ring,
    parse,
    rational_roots,
    render,
    solve_identifiability,
    square_substitute,
    symbolic_markov,
    symbolic_transfer,
    verify_groebner,
)


def ladder(n):
    return ssm.build(SensorConfig(n, 2, "ZaYb", "xa"))


def cube(n):
    return ssm.build(SensorConfig(n, 2, "YaZb", "xb"))


@pytest.fixture(scope="module")
def cube2():
    return cube(2)


@pytest.fixture(scope="module")
def cube2_transfer(cube2):
    return symbolic_transfer(cube2)


def rational_binding(model, rng):
    out = {}
    for pid in model.param_ids:
        num = rng.integers(1, 12)
        den = rng.integers(1, 8)
        sign = 1 if rng.integers(0, 2) else -1
        out[pid] = Fraction(int(sign * num), int(den))
    return out


# -- polynomial core ---------------------------------------------------------


def test_render_parse_pinned():
    ring = PolyRing(("t1", "t2", "v2"), "grevlex")
    text = "10*t1^3 + 7*t1*t2 - v2"
    p = parse(text, ring)
    assert render(p) == text
    assert p.coeff_of((3, 0, 0)) == 10
    assert p.coeff_of((1, 1, 0)) == 7
    assert p.coeff_of((0, 0, 1)) == -1


def test_parse_fractional_coefficients():
    ring = PolyRing(("x", "y"))
    p = parse("3/4*x^2*y - 1/2", ring)
    assert p.coeff_of((2, 1)) == Fraction(3, 4)
    assert p.coeff_of((0, 0)) == Fraction(-1, 2)
    assert parse(render(p), ring) == p


def test_parse_rejects_garbage():
    ring = PolyRing(("x",))
    with pytest.raises(InadmissibleConfig):
        parse("x + + y", ring)
    with pytest.raises(InadmissibleConfig):
        parse("q^2", ring)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_render_parse_roundtrip_random(data):
    ring = PolyRing(("x", "y", "z"))
    n_terms = data.draw(st.integers(1, 6))
    terms = {}
    for _ in range(n_terms):
        e = tuple(data.draw(st.integers(0, 4)) for _ in range(3))
        c = Fraction(data.draw(st.integers(-20, 20)), data.draw(st.integers(1, 9)))
        terms[e] = terms.get(e, Fraction(0)) + c
    p = MPoly(ring, terms)
    assert parse(render(p), ring) == p


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_poly_ring_axioms(data):
    ring = PolyRing(("x", "y"))

    def rand_poly():
        terms = {}
        for _ in range(data.draw(st.integers(0, 4))):
            e = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
            terms[e] = Fraction(data.draw(st.integers(-9, 9)))
        return MPoly(ring, terms)

    a, b, c = rand_poly(), rand_poly(), rand_poly()
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    # a number stands for the constant polynomial on either side
    num, den = data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9))
    for k in (num, Fraction(num, den)):
        assert k + a == a + k
        assert k * a == a * k == a.scale(k)
    assert Fraction(0) + a == a
    point = {"x": Fraction(data.draw(st.integers(-5, 5))),
             "y": Fraction(data.draw(st.integers(-5, 5)))}
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_square_substitute_halves_even_powers():
    src = PolyRing(("ha", "hb"))
    dst = PolyRing(("t1", "t2"), "lex")
    p = parse("ha^3 + 4*ha*hb^2", src)
    q = square_substitute(p, dst, {"ha": "t1"}, {"hb": "t2"})
    assert render(q) == "t1^3 + 4*t1*t2"


def test_square_substitute_rejects_odd_powers():
    src = PolyRing(("ha", "hb"))
    dst = PolyRing(("t1", "t2"), "lex")
    p = parse("ha*hb", src)
    with pytest.raises(InadmissibleConfig):
        square_substitute(p, dst, {"ha": "t1"}, {"hb": "t2"})


def test_ratfunc_equality_and_cancellation():
    ring = PolyRing(("v1", "v2"))
    v1 = MPoly.var(ring, "v1")
    one = MPoly.const(ring, 1)
    assert RatFunc(v1 * v1, v1 * v1) == RatFunc(one, one)
    # cross-multiplied equality without gcd: v1^2/v1 == v1/1
    assert RatFunc(v1 * v1, v1) == RatFunc(v1, one)
    f = RatFunc(v1, one) / RatFunc(v1 * v1, MPoly.const(ring, 2))
    assert f == RatFunc(MPoly.const(ring, 2), v1)


# -- Groebner engine ---------------------------------------------------------


def test_monomial_ideal_is_its_own_basis():
    ring = PolyRing(("x", "y"), "lex")
    x, y = MPoly.var(ring, "x"), MPoly.var(ring, "y")
    gens = [x * x, x * y, y * y]
    gb = buchberger(gens)
    assert sorted(render(g) for g in gb.generators) == ["x*y", "x^2", "y^2"]
    assert verify_groebner(gb.generators)


def test_verify_groebner_rejects_incomplete_basis():
    ring = PolyRing(("x", "y"), "lex")
    x, y = MPoly.var(ring, "x"), MPoly.var(ring, "y")
    # S-poly of (xy - 1, x^2 - y) reduces to y^2 - x, not zero
    gens = [x * y - MPoly.const(ring, 1), x * x - y]
    assert not verify_groebner(gens)
    assert verify_groebner(buchberger(gens).generators)


def test_pair_budget_enforced():
    _, eqs = cube_equations(Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(BudgetExceeded):
        buchberger(eqs, pair_budget=1)


def pinned_field_system():
    vring = PolyRing(("v1", "v2", "v3"))
    field = RatFuncField(vring)
    ring = PolyRing(("t1", "t2", "t3"), "lex", field)
    t1 = MPoly.var(ring, "t1")
    t2 = MPoly.var(ring, "t2")
    t3 = MPoly.var(ring, "t3")
    const = lambda name: MPoly(ring, {(0, 0, 0): field.var(name)})
    eq1 = t1 - const("v1")
    eq2 = (t1 * t1 * t1).scale(field.coerce(10)) \
        + (t1 * t2).scale(field.coerce(7)) \
        + (t1 * t3).scale(field.coerce(11)) - const("v2")
    eq3 = (t1 * t1 + t2 + t3).scale(field.coerce(11)) - const("v3")
    return vring, field, ring, [eq1, eq2, eq3]


def test_field_coefficient_elimination_is_triangular():
    vring, field, ring, eqs = pinned_field_system()
    gb = buchberger(eqs)
    assert len(gb.generators) == 3
    v = {name: MPoly.var(vring, name) for name in ("v1", "v2", "v3")}
    qq = lambda n, d=1: MPoly.const(vring, Fraction(n, d))

    # t1 - v1
    g1 = next(g for g in gb.generators if g.degree_in("t1") == 1)
    assert g1.coeff_of((0, 0, 0)) == RatFunc(-v["v1"], qq(1))

    # t2 - (-v1^3 + v1*v3 - v2) / (4 v1)
    a2 = RatFunc(-v["v1"] ** 3 + v["v1"] * v["v3"] - v["v2"],
                 qq(4) * v["v1"])
    g2 = next(g for g in gb.generators
              if g.degree_in("t2") == 1 and g.degree_in("t1") == 0)
    assert g2.coeff_of((0, 0, 0)) == -a2

    # t3 - (-33 v1^3 - 7 v1*v3 + 11 v2) / (44 v1)
    a3 = RatFunc(qq(-33) * v["v1"] ** 3 - qq(7) * v["v1"] * v["v3"]
                 + qq(11) * v["v2"], qq(44) * v["v1"])
    g3 = next(g for g in gb.generators
              if g.degree_in("t3") == 1 and g.total_degree() == 1
              and g.degree_in("t1") == 0 and g.degree_in("t2") == 0)
    assert g3.coeff_of((0, 0, 0)) == -a3


def test_field_closed_forms_match_numeric_solve():
    # the QQ(v) closed forms, evaluated at forward-computed v's, must agree
    # with solving the same system over QQ
    t = (Fraction(3, 2), Fraction(4, 9), Fraction(25, 4))
    v1 = t[0]
    v2 = 10 * t[0] ** 3 + 7 * t[0] * t[1] + 11 * t[0] * t[2]
    v3 = 11 * (t[0] ** 2 + t[1] + t[2])
    a2 = (-v1 ** 3 + v1 * v3 - v2) / (4 * v1)
    a3 = (-33 * v1 ** 3 - 7 * v1 * v3 + 11 * v2) / (44 * v1)
    assert (v1, a2, a3) == t


def test_groebner_verdict_permutation_invariant():
    t = (Fraction(1), Fraction(16, 25), Fraction(9, 25))
    v1 = t[0]
    v2 = 10 * t[0] ** 3 + 7 * t[0] * t[1] + 11 * t[0] * t[2]
    v3 = 11 * (t[0] ** 2 + t[1] + t[2])
    _, eqs = cube_equations(v1, v2, v3)
    bases = []
    for perm in itertools.permutations(eqs):
        res = solve_identifiability(list(perm), square_vars=("t2", "t3"))
        assert res.verdict == "unique"
        assert res.solutions == [{"t1": t[0], "t2": t[1], "t3": t[2]}]
        bases.append([render(g) for g in res.basis])
    assert all(b == bases[0] for b in bases[1:])


def test_solve_ground_truth_recovery():
    # ground truth (h_alpha, h_beta, h_1) = (1, 4/5, 3/5)
    t1, t2, t3 = Fraction(1), Fraction(16, 25), Fraction(9, 25)
    v1 = t1
    v2 = 10 * t1 ** 3 + 7 * t1 * t2 + 11 * t1 * t3
    v3 = 11 * (t1 ** 2 + t2 + t3)
    _, eqs = cube_equations(v1, v2, v3)
    res = solve_identifiability(eqs, square_vars=("t2", "t3"))
    assert res.verdict == "unique"
    sol = res.solutions[0]
    assert sol == {"t1": Fraction(1), "t2": Fraction(16, 25),
                   "t3": Fraction(9, 25)}


def test_solve_inconsistent_system_is_empty():
    _, eqs = cube_equations(Fraction(0), Fraction(1), Fraction(5))
    res = solve_identifiability(eqs, square_vars=("t2", "t3"))
    assert res.verdict == "empty"


def test_solve_single_linear_equation_unique():
    ring = PolyRing(("t1",), "lex")
    eq = MPoly.var(ring, "t1") - MPoly.const(ring, Fraction(7, 3))
    res = solve_identifiability([eq])
    assert res.verdict == "unique"
    assert res.solutions == [{"t1": Fraction(7, 3)}]


def test_solve_positive_dimensional_is_infinite():
    ring = PolyRing(("t1", "t2"), "lex")
    eq = MPoly.var(ring, "t1") - MPoly.var(ring, "t2")
    res = solve_identifiability([eq])
    assert res.verdict == "infinite"
    assert "t2" in res.detail


def test_solve_negative_square_filtered():
    # t2 = -1 is the only candidate but t2 is a square, so no admissible root
    ring = PolyRing(("t2",), "lex")
    eq = MPoly.var(ring, "t2") + MPoly.const(ring, 1)
    res = solve_identifiability([eq], square_vars=("t2",))
    assert res.verdict == "empty"


def test_sturm_root_counts():
    f = Fraction
    assert count_real_roots([f(-2), f(0), f(1)]) == 2      # x^2 - 2
    assert count_real_roots([f(1), f(0), f(1)]) == 0       # x^2 + 1
    assert count_real_roots([f(0), f(-1), f(0), f(1)]) == 3  # x^3 - x
    assert count_real_roots([f(1), f(-2), f(1)]) == 1      # (x - 1)^2
    assert count_real_roots([f(5)]) == 0


def test_rational_root_enumeration():
    f = Fraction
    assert rational_roots([f(1), f(-5), f(6)]) == [f(1, 3), f(1, 2)]
    assert rational_roots([f(-2), f(0), f(1)]) == []
    assert rational_roots([f(0), f(0), f(1)]) == [f(0)]


# -- symbolic transfer and Markov parameters ---------------------------------


def test_ladder_transfer_pinned_n2():
    rt = symbolic_transfer(ladder(2))
    ring = rt.ring
    assert rt.order == 4
    assert [render(c) for c in rt.den_coeffs] == [
        "1", "0", "ha^2 + hb^2 + h1^2", "0", "ha^2*h1^2",
    ]
    assert [render(c) for c in rt.num_coeffs] == [
        "0", "-ha", "0", "-ha*h1^2",
    ]
    assert ring.variables == ("ha", "hb", "h1")


def test_dimension_one_transfer_is_pure_integrator():
    model = SimpleNamespace(
        dim=1, a_entries=(), b=(Fraction(1),), c=(Fraction(1),),
        param_ids=("h",),
    )
    rt = symbolic_transfer(model)
    assert rt.order == 1
    assert render(rt.num_coeffs[0]) == "1"
    assert [render(c) for c in rt.den_coeffs] == ["1", "0"]


def test_transfer_dimension_cap():
    with pytest.raises(BudgetExceeded):
        symbolic_transfer(cube(3))  # dim 50, refused before any work


@pytest.mark.parametrize("model_fn,n",
                         [(ladder, 2), (ladder, 3), (cube, 1), (cube, 2)])
def test_markov_routes_agree(model_fn, n, request):
    model = model_fn(n)
    # cube N = 2 reuses the module's transfer instead of a second recursion
    rt = (request.getfixturevalue("cube2_transfer") if (model_fn, n) == (cube, 2)
          else symbolic_transfer(model))
    direct = symbolic_markov(model, 8)
    from_tf = markov_from_transfer(rt, 8)
    assert direct == from_tf


def test_cube_markov_pinned_small_n():
    for n in (1, 2):
        mk = symbolic_markov(cube(n), 4)
        assert render(mk[0]) == "0"
        assert render(mk[1]) == "-ha"
        assert render(mk[2]) == "0"
        assert render(mk[3]) == "ha^3 + 4*ha*hb^2"


def test_markov_zeros_are_ring_zeros():
    # a Markov parameter with no term is the ring's zero polynomial, not a
    # bare Fraction: on every orthogonal scheme and at the capable schemes'
    # even indices
    for (label, qubits), initials in CATALOG.items():
        for n, initial in itertools.product((1, 2, 3), initials):
            model = ssm.build(SensorConfig(n, qubits, label, initial))
            mk = symbolic_markov(model, 6)
            capable = model.config.capability != "orthogonal"
            zeros = mk[::2] if capable else mk
            assert all(isinstance(m, MPoly) for m in mk)
            assert [render(m) for m in zeros] == ["0"] * len(zeros)
            assert all(m.ring == model_ring(model) for m in mk)


def test_evaluation_homomorphism_markov():
    rng = np.random.default_rng(11)
    for model in (ladder(2), ladder(3), cube(1)):
        mk = symbolic_markov(model, 7)
        for _ in range(10):
            binding = rational_binding(model, rng)
            exact_seq = ssm.markov(*ssm.evaluate_exact(model, binding), 7)
            assert [m.evaluate(binding) for m in mk] == exact_seq


def test_transfer_denominator_matches_float_char_poly():
    for model in (ladder(2), ladder(3), ladder(4)):
        rt = symbolic_transfer(model)
        binding = {pid: Fraction(k + 2, 3)
                   for k, pid in enumerate(model.param_ids)}
        _, den = rt.evaluate(binding)
        nd = np.poly(ssm.evaluate(model, binding)[0])
        scale = max(1.0, max(abs(x) for x in nd))
        assert max(abs(float(a) - b) for a, b in zip(den, nd)) <= 1e-9 * scale


def test_cube_transfer_denominator_exact(cube2, cube2_transfer):
    # float char polys are ill-conditioned at this size, so the cross-check
    # is an independent exact Faddeev-LeVerrier pass on the evaluated matrix
    binding = {"ha": Fraction(2), "hb": Fraction(3), "h1": Fraction(5)}
    _, den = cube2_transfer.evaluate(binding)
    a, _, _ = ssm.evaluate_exact(cube2, binding)
    n = cube2.dim
    nm = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        an = [[sum(a[i][m] * nm[m][j] for m in range(n)) for j in range(n)]
              for i in range(n)]
        ck = -sum(an[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            an[i][i] += ck
        nm = an
    assert den == coeffs


def test_cube_minimal_denominator_order_and_coefficient(cube2):
    rng = np.random.default_rng(23)
    for _ in range(10):
        binding = rational_binding(cube2, rng)
        den = minimal_denominator_exact(cube2, binding, 12)
        assert len(den) == 13
        ha, hb, h1 = binding["ha"], binding["hb"], binding["h1"]
        assert den[1] == 0
        assert den[2] == 11 * (ha ** 2 + hb ** 2 + h1 ** 2)


def _divides_exactly(divisor, dividend):
    rem = list(dividend)
    quotient_len = len(rem) - len(divisor) + 1
    for shift in range(quotient_len):
        factor = rem[shift] / divisor[0]
        for i, d in enumerate(divisor):
            rem[shift + i] -= factor * d
    return all(r == 0 for r in rem[quotient_len:])


def test_cube_minimal_denominator_divides_char_poly(cube2, cube2_transfer):
    binding = {"ha": Fraction(2), "hb": Fraction(3), "h1": Fraction(5)}
    _, char = cube2_transfer.evaluate(binding)
    md = minimal_denominator_exact(cube2, binding, 12)
    assert _divides_exactly(md, char)


def test_cube_minimal_order_collapses_on_pythagorean_surface(cube2, cube2_transfer):
    # (1, 4/5, 3/5) satisfies ha^2 = hb^2 + h1^2, but the collapse comes
    # from its one-particle energies, e2 = 3 e1 (100 ha^2 h1^2 = 9 s^2 with
    # s = ha^2 + hb^2 + h1^2): the generic order-12 minimal realization
    # drops to order 8 there, and the s^10 coefficient no longer reads
    # 11*(ha^2 + hb^2 + h1^2)
    binding = {"ha": Fraction(1), "hb": Fraction(4, 5), "h1": Fraction(3, 5)}
    with pytest.raises(NumericFailure):
        minimal_denominator_exact(cube2, binding, 12)
    md = minimal_denominator_exact(cube2, binding, 8)
    assert md[2] != 11 * (1 + Fraction(16, 25) + Fraction(9, 25))
    _, char = cube2_transfer.evaluate(binding)
    assert _divides_exactly(md, char)


def test_minimal_denominator_rejects_wrong_order(cube2):
    binding = {"ha": Fraction(2), "hb": Fraction(3), "h1": Fraction(5)}
    with pytest.raises(NumericFailure):
        minimal_denominator_exact(cube2, binding, 11)
    with pytest.raises(NumericFailure):
        minimal_denominator_exact(cube2, binding, 13)


def test_cube_invariant_extraction_identity(cube2):
    # the elimination system's second polynomial is exactly -(M3 + d2*M1)
    # with d2 the s^10 coefficient of the minimal denominator
    rng = np.random.default_rng(31)
    ring, _ = cube_equations(Fraction(1), Fraction(1), Fraction(1))
    for _ in range(6):
        binding = rational_binding(cube2, rng)
        markov = ssm.markov(*ssm.evaluate_exact(cube2, binding), 4)
        den = minimal_denominator_exact(cube2, binding, 12)
        v1 = -markov[1]
        v3 = den[2]
        v2 = -(markov[3] + v3 * markov[1])
        t1 = binding["ha"]
        t2 = binding["hb"] ** 2
        t3 = binding["h1"] ** 2
        assert v1 == t1
        assert v3 == 11 * (t1 ** 2 + t2 + t3)
        assert v2 == 10 * t1 ** 3 + 7 * t1 * t2 + 11 * t1 * t3


def test_cube_end_to_end_exact_recovery(cube2):
    # forward-evaluate the three invariants, then solve; includes a binding
    # with negative couplings, whose squares are what comes back
    bindings = [
        {"ha": Fraction(1), "hb": Fraction(4, 5), "h1": Fraction(2, 5)},
        {"ha": Fraction(-3, 2), "hb": Fraction(-2), "h1": Fraction(5, 4)},
    ]
    for binding in bindings:
        markov = ssm.markov(*ssm.evaluate_exact(cube2, binding), 4)
        den = minimal_denominator_exact(cube2, binding, 12)
        v1, v3 = -markov[1], den[2]
        v2 = -(markov[3] + v3 * markov[1])
        _, eqs = cube_equations(v1, v2, v3)
        res = solve_identifiability(eqs, square_vars=("t2", "t3"))
        assert res.verdict == "unique"
        sol = res.solutions[0]
        assert sol["t1"] == binding["ha"]
        assert sol["t2"] == binding["hb"] ** 2
        assert sol["t3"] == binding["h1"] ** 2
