"""Germ classification: the golden table of admissible singularities."""
import contextlib
import random
import signal
import sys
from fractions import Fraction

import pytest

from octica import poly, singclass, verify
from octica.linsys import (HomForm, PLANE_VARS, apply_transport, line_through, normalize_point,
                           transport_matrix)
from octica.parsing import parse_poly
from octica.poly import MultiPoly, binary_roots, monomial_basis, squarefree_decomposition
from octica.singclass import (LOCAL_VARS, classify, intersection_multiplicity_origin,
                              milnor_number, multiplicity, strict_germ_at_direction, tangent_cone)

from local_checks import intersection_reference, is_isolated, localize, random_projectivity

x = MultiPoly.var(LOCAL_VARS, "x")
y = MultiPoly.var(LOCAL_VARS, "y")
X = MultiPoly.var(PLANE_VARS, "x")
Y = MultiPoly.var(PLANE_VARS, "y")
Z = MultiPoly.var(PLANE_VARS, "z")


def golden_isolated_cases():
    cases = []
    for n in range(1, 21):
        cases.append((f"A{n}", x ** 2 + y ** (n + 1), n))
    for n in range(4, 13):
        cases.append((f"D{n}", y * (x ** 2 + y ** (n - 2)), n))
    cases += [("E6", x ** 3 + y ** 4, 6), ("E7", x ** 3 + x * y ** 3, 7),
              ("E8", x ** 3 + y ** 5, 8)]
    for lam in (0, 1, 3):
        cases.append(("X9", x ** 4 + lam * (x * y) ** 2 + y ** 4, 9))
    for p in range(10, 15):
        cases.append((f"X{p}", x ** 4 + (x * y) ** 2 + y ** (p - 5), p))
    for r in range(1, 4):
        for s in range(r, 4):
            cases.append((f"Y{r},{s}", x ** (4 + r) + (x * y) ** 2 + y ** (4 + s), 9 + r + s))
    for lam in (0, 1):
        cases.append(("J10", x ** 3 + lam * (x * y) ** 2 + y ** 6, 10))
    for p in range(1, 6):
        cases.append((f"J2,{p}", x ** 3 + (x * y) ** 2 + y ** (6 + p), 10 + p))
    return cases


def golden_nonisolated_cases():
    return [
        ("Ainf", x ** 2, 0),
        ("Dinf", x ** 2 * y, 1),
        ("J2inf", x ** 3 + (x * y) ** 2, 4),
        ("Xinf", x ** 4 + (x * y) ** 2, 5),
        ("Y1,inf", x ** 5 + (x * y) ** 2, 6),
        ("Y2,inf", x ** 6 + (x * y) ** 2, 7),
        ("Yinf,inf", (x * y) ** 2, 4),
    ]


def test_golden_table_isolated():
    for name, germ, mu in golden_isolated_cases():
        report = classify(germ)
        assert report.type_string() == name, (name, report.type_string(), report.reason)
        assert report.milnor == mu
        assert milnor_number(germ) == mu


def test_golden_table_nonisolated():
    for name, germ, table_mu in golden_nonisolated_cases():
        report = classify(germ)
        assert report.type_string() == name
        assert report.table_mu == table_mu
        assert milnor_number(germ) is None
        assert not is_isolated(germ)


def test_symmetric_contact_orders_normalised():
    report = classify(x ** 6 + (x * y) ** 2 + y ** 5)  # contacts 2 and 1, swapped
    assert report.type_string() == "Y1,2"


def _sympy_local_milnor(germ, bound=16):
    """dim Q[x, y]/(f_x, f_y, m^bound), which is the Milnor number at the
    origin once m^bound lies in the Jacobian ideal there (bound > mu)."""
    sympy = pytest.importorskip("sympy")
    sx, sy = sympy.symbols("x y")
    f = sympy.sympify(str(germ), locals={"x": sx, "y": sy})
    gens = [sympy.diff(f, sx), sympy.diff(f, sy)] + [sx ** i * sy ** (bound - i) for i in range(bound + 1)]
    basis = sympy.groebner(gens, sx, sy, order="grevlex")
    leads = [sympy.Poly(g, sx, sy).monoms(order="grevlex")[0] for g in basis.exprs]
    return sum(1 for i in range(bound) for j in range(bound - i)
               if not any(i >= a and j >= b for a, b in leads))


def test_conjugate_repeated_directions():
    # the tangent cone (x^2 + y^2)^2 doubles the two directions (1 : +-i)
    for germ, name, mu, branches in (((x * x + y * y) ** 2 + x ** 5, "Y1,1", 11, 2),
                                     ((x * x + y * y) ** 2 + y ** 6, "Y2,2", 13, 4)):
        report = classify(germ)
        assert (report.type_string(), report.milnor, report.branches) == (name, mu, branches)
        assert _sympy_local_milnor(germ) == mu


def test_rejections():
    assert classify(x ** 5 + y ** 4).type_string().startswith("NotHLC")
    assert classify(x ** 3 * y).type_string().startswith("NotHLC")
    assert classify(x ** 4 + y ** 5).type_string().startswith("NotHLC")
    assert not classify(x ** 5 + y ** 6).is_half_log_canonical


def test_simple_types_and_smooth():
    assert classify(x * y).type_string() == "A1"
    assert classify(y ** 2 - x ** 3).type_string() == "A2"
    assert classify(y + x ** 2).type_string() == "Smooth"
    assert classify(y * (x ** 2 + y ** 2)).type_string() == "D4"


def test_classification_invariant_under_coordinate_changes():
    rng = random.Random(606)
    for name, germ, mu in golden_isolated_cases():
        for _ in range(10):
            while True:
                a, b, c, d = (Fraction(rng.randint(-3, 3)) for _ in range(4))
                if a * d - b * c != 0:
                    break
            moved = germ.substitute({"x": a * x + b * y, "y": c * x + d * y})
            rep = classify(moved)
            assert rep.type_string() == name, (name, rep.type_string())
            assert rep.milnor == mu


def test_multiplicity_and_cone():
    assert multiplicity(x ** 2 + y ** 3) == 2
    assert multiplicity(x ** 4 + x ** 2 * y ** 2 + y ** 4) == 4
    assert multiplicity(y + x ** 2) == 1
    structure = squarefree_decomposition(tangent_cone(x ** 4 + (x * y) ** 2 + y ** 4))
    assert all(k == 1 for k, _ in structure)
    structure = squarefree_decomposition(tangent_cone(x ** 3 + x ** 2 * y ** 2))
    assert structure[0][0] >= 2 or structure[-1][0] >= 2


def test_localize():
    curve = HomForm((X * Y * Z).primitive(), 3)
    germ = localize(curve, (0, 0, 1))
    assert classify(germ).type_string() == "A1"
    smooth = HomForm((Y * Z - X * X).primitive(), 2)
    g = localize(smooth, (0, 0, 1))
    assert multiplicity(g) == 1
    with pytest.raises(ValueError):
        localize(HomForm(X ** 2 + Z ** 2, 2), (0, 0, 1))   # point off the curve


def _three_step_chart(f, A):
    return apply_transport(f, A).substitute({"z": Fraction(1)}).rename(LOCAL_VARS)


def test_chart_matches_transport_then_dehomogenise():
    # the one-pass chart against the composition it replaces: transport the
    # form, set z = 1, rename into the local frame; at seeded forms and
    # points, through transport matrices with and without a tangent and
    # through general projectivities
    rng = random.Random(2303)
    for k in range(90):
        degree = rng.randint(1, 8)
        basis = monomial_basis(3, degree)
        f = MultiPoly(PLANE_VARS, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                   for e in rng.sample(basis, min(len(basis), rng.randint(1, 12)))})
        if f.is_zero():
            continue
        while True:
            p = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.8 else Fraction(0)
                      for _ in range(3))
            if any(p):
                break
        if k % 3 == 0:
            A = transport_matrix(p)
        elif k % 3 == 1:
            q = next(q for q in ((1, 2, 5), (3, -1, 2)) if normalize_point(q) != normalize_point(p))
            A = transport_matrix(p, line_through(p, q))
        else:
            A = random_projectivity(rng)
        got = singclass._chart(f, A)
        assert got.vars == LOCAL_VARS and got == _three_step_chart(f, A), (str(f), p, A)
    # and the germs of witness octics at their profiled points
    from octica.witnesses import build_witness
    charts = 0
    for key in ("N_12_pp", "N_1b1b", "M_1_2b"):
        w = build_witness(key)
        for rep in w.profile.reports:
            A = transport_matrix(rep.point)
            assert singclass._chart(w.curve.poly, A) == _three_step_chart(w.curve.poly, A)
            charts += 1
    assert charts >= 5


def test_blow_up_of_tacnode_has_one_node():
    # the strict transform of x^2 + y^4 at its one direction (0 : 1) is a node
    strict = strict_germ_at_direction(x ** 2 + y ** 4, (Fraction(0), Fraction(1)))
    assert classify(strict).type_string() == "A1"


def test_blow_up_of_nondegenerate_triple_contact_point():
    # triple point with infinitely-near triple point: the strict transform
    # carries an ordinary triple point
    germ = y ** 3 + x ** 6   # tangent line y, blow-up direction (0 : 1) along x? no: cone y^3
    strict = strict_germ_at_direction(germ, (Fraction(1), Fraction(0)))
    assert multiplicity(strict) == 3
    assert classify(strict).type_string() == "D4"


def test_milnor_examples():
    assert milnor_number(x ** 3 + y ** 4) == 6
    assert milnor_number(x ** 4 + x ** 2 * y ** 2 + y ** 5) == 10
    assert milnor_number(x ** 2) is None
    assert milnor_number(x * y) == 1


# -- rational roots of univariate and binary forms (poly.binary_roots) ----------

T = MultiPoly.var(("t",), "t")


def rational_roots(f):
    """The rational roots r of f(t), after checking that dividing out one
    factor t - r per root leaves the cofactor."""
    points, cofactor = binary_roots(f)
    roots = [r for r, s in points]
    assert all(s == 1 for r, s in points)
    product = cofactor
    for r in roots:
        product = product * (T - r)
    assert product == f
    return roots


def _random_univariate(rng):
    """A product of rational linear factors, irreducible quadratics and
    repeated factors, with a rational leading coefficient."""
    f = MultiPoly.const(("t",), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.6:
            root = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            f = f * (T - root) ** rng.randint(1, 3)
        else:
            b = rng.randint(-9, 9)
            c = rng.randint(b * b // 4 + 1, b * b // 4 + 20)   # negative discriminant
            f = f * (T * T + b * T + c)
    return f


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(4401)
    cases = [_random_univariate(rng) for _ in range(150)]
    cases += [T, T ** 3 * (2 * T - 3), T * (T * T + 1), MultiPoly.const(("t",), 5),
              (3 * T - 1) ** 2 * (T * T - 2) * Fraction(1, 6)]
    for f in cases:
        expr = sympy.sympify(str(f), locals={"t": t})
        want = sorted(Fraction(int(r.p), int(r.q))
                      for r in sympy.Poly(expr, t).ground_roots() if r.is_Rational)
        assert rational_roots(f) == want, str(f)


UV = ("u", "v")
U = MultiPoly.var(UV, "u")
V = MultiPoly.var(UV, "v")


def _random_binary(rng):
    """A binary form in (u, v): rational linear factors, among them v for the
    root (1 : 0), and irreducible quadratics, some factors repeated."""
    f = MultiPoly.const(UV, rng.randint(1, 9))
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.15:
            factor = V
        elif kind < 0.7:
            factor = rng.randint(1, 6) * U + rng.randint(-9, 9) * V
        else:
            b = rng.randint(-9, 9)
            factor = U * U + b * U * V + rng.randint(b * b // 4 + 1, b * b // 4 + 20) * V * V
        f = f * factor ** rng.choice((1, 1, 2))
    return f


def test_binary_roots_match_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    u, v = sympy.symbols("u v")
    rng = random.Random(4402)
    cases = [_random_binary(rng) for _ in range(120)]
    cases += [V, U, U * V, V ** 3 * (2 * U - 3 * V), U * (U * U + V * V), MultiPoly.const(UV, 7)]
    for f in cases:
        _, factors = sympy.factor_list(sympy.sympify(str(f), locals={"u": u, "v": v}), u, v)
        want, v_power = [], 0
        for factor, k in factors:
            p = sympy.Poly(factor, u, v)
            if p.total_degree() != 1:
                continue
            a, b = p.coeff_monomial(u), p.coeff_monomial(v)
            if a == 0:
                v_power = k
            else:
                want.append(Fraction(int((-b / a).p), int((-b / a).q)))
        want = ([(Fraction(1), Fraction(0))] if v_power else []) + [(r, Fraction(1)) for r in sorted(want)]
        roots, cofactor = binary_roots(f)
        assert roots == want, str(f)
        product = cofactor * V ** v_power
        for r, s in roots[1 if v_power else 0:]:
            product = product * (U - r * V)
        assert product == f, str(f)


@contextlib.contextmanager
def time_limit(seconds):
    def timed_out(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_rational_roots_needs_no_factorisation():
    # the constant term is a product of two 19-digit primes
    p, q = 10 ** 18 + 3, 10 ** 18 + 9
    with time_limit(2.0):
        assert rational_roots(T ** 2 + 3 * T + p * q) == []
        assert rational_roots((T - p) * (q * T + 1)) == [Fraction(-1, q), Fraction(p)]


# -- intersection numbers against Fulton's algorithm ------------------------------


def fulton_intersection(f, g):
    """I_0(f, g) by Fulton's algorithm (Algebraic Curves, section 3.3); None
    for a common component through the origin.  Test-only reference.

    The algorithm terminates only when I_0 is finite; past the Bezout bound
    deg f * deg g the curves share a component through the origin."""
    origin = {"x": 0, "y": 0}
    bezout = f.total_degree() * g.total_degree()
    total = 0
    while total <= bezout:
        if f.is_zero() or g.is_zero():
            return None
        if f.evaluate(origin) != 0 or g.evaluate(origin) != 0:
            return total
        fx = f.substitute({"y": Fraction(0)})
        gx = g.substitute({"y": Fraction(0)})
        if fx.is_zero() and gx.is_zero():
            return None
        if fx.is_zero():
            f, g, fx, gx = g, f, gx, fx
        if gx.is_zero():
            # g = y * g1 and I(f, y) is the order of f(x, 0) at 0
            total += min(exp[0] for exp in fx.terms)
            g = g.exact_div(y)
            continue
        if fx.degree_in("x") > gx.degree_in("x"):
            f, g, fx, gx = g, f, gx, fx
        r, s = fx.degree_in("x"), gx.degree_in("x")
        g = g - (gx.coeff((s, 0)) / fx.coeff((r, 0))) * x ** (s - r) * f
    return None


def _random_through_origin(rng, low, high):
    terms = {}
    for a in range(high + 1):
        for b in range(high + 1 - a):
            if a + b >= low and rng.random() < 0.6:
                terms[(a, b)] = Fraction(rng.randint(-4, 4))
    f = MultiPoly(LOCAL_VARS, terms)
    return f if not f.is_zero() else x ** low


def intersection_cases():
    rng = random.Random(4402)
    cases = []
    for _ in range(12):                      # generic pairs
        cases.append((_random_through_origin(rng, 1, 3), _random_through_origin(rng, 1, 3)))
    for _ in range(8):                       # a shared tangent line
        tangent = rng.randint(-3, 3) * x + y
        cases.append((tangent + _random_through_origin(rng, 2, 3),
                      rng.randint(1, 3) * tangent + _random_through_origin(rng, 2, 4)))
    for _ in range(8):                       # x and y factors
        cases.append((x * _random_through_origin(rng, 1, 2), y ** 2 * (x + _random_through_origin(rng, 2, 2))))
        cases.append((x * y * _random_through_origin(rng, 0, 2), _random_through_origin(rng, 1, 3)))
    for _ in range(8):                       # both through (1, 0): the shear c = 0 fails
        cases.append((x * (x - 1) * _random_through_origin(rng, 0, 1) + y * _random_through_origin(rng, 0, 2),
                       x * (x - 1) * _random_through_origin(rng, 0, 1) + y * _random_through_origin(rng, 0, 2)))
    for _ in range(6):                       # a common zero at x-infinity over y = 0
        cases.append((y * x ** 3 + _random_through_origin(rng, 1, 2),
                      rng.randint(1, 3) * y * x ** 3 + _random_through_origin(rng, 1, 2)))
    for _ in range(6):                       # a common component away from the origin
        h = x + 2 * y - 1 + _random_through_origin(rng, 2, 2)
        cases.append((h * _random_through_origin(rng, 1, 2), h * _random_through_origin(rng, 1, 2)))
    for _ in range(6):                       # a common component through the origin
        h = _random_through_origin(rng, 1, 2)
        cases.append((h * _random_through_origin(rng, 0, 2), h * _random_through_origin(rng, 1, 2)))
    return cases + FALLBACK_CASES


# Common factors that the shear-resultant reference meets before its gcd:
# x - 1 divides both restrictions to y = 0 at every shear, so only the gcd
# ends the sweep; y - 1 is free of x, so Res_x stays nonzero with the same
# order at y = 0; y - x^2 passes every check at c = 0 and makes Res_x vanish.
FALLBACK_CASES = [
    ((x - 1) * (y - x ** 2), (x - 1) * (y + x ** 2)),
    ((y - 1) * (y - x ** 3), (y - 1) * (y + x ** 2)),
    ((y - x ** 2) ** 2, (y - x ** 2) * (y + 1)),
]


def test_intersection_multiplicity_matches_fulton():
    answers = []
    for p, q in intersection_cases():
        want = fulton_intersection(p, q)
        with time_limit(10.0):
            assert intersection_multiplicity_origin(p, q) == want, (str(p), str(q))
        answers.append(want)
    assert None in answers and any(a is not None and a > 2 for a in answers)
    assert answers[-len(FALLBACK_CASES):] == [2, 2, None]


# -- intersection numbers against the shear-resultant reference -----------------


def _random_pair(rng):
    """Two polynomials through the origin, of one of seven kinds."""
    kind = rng.randrange(7)
    a, b = _random_through_origin(rng, 1, 3), _random_through_origin(rng, 1, 3)
    if kind == 1:                            # a shared tangent line
        tangent = rng.randint(-3, 3) * x + y
        return tangent + _random_through_origin(rng, 2, 3), rng.randint(1, 3) * tangent + b
    if kind == 2:                            # y or x divides one of them
        return y ** rng.randint(1, 2) * _random_through_origin(rng, 0, 2), x ** rng.randint(0, 1) * b
    if kind == 3:                            # a common factor through the origin
        h = _random_through_origin(rng, 1, 2)
        return h * _random_through_origin(rng, 0, 2), h * _random_through_origin(rng, 0, 2)
    if kind == 4:                            # a common factor off the origin
        h = _random_through_origin(rng, 1, 2) + rng.choice((-2, -1, 1, 2))
        return h * a, h * b
    if kind == 5:                            # curves tangent to high order
        k = rng.randint(2, 5)
        return (y - rng.randint(1, 3) * x ** k + _random_through_origin(rng, k + 1, k + 2),
                y - rng.randint(1, 3) * x ** rng.randint(2, 5) + x * y * a)
    if kind == 6:                            # the partials of a germ
        f = _random_through_origin(rng, 2, 5)
        return f.derivative("x"), f.derivative("y")
    return a, b


def test_intersection_multiplicity_matches_resultant_reference():
    rng = random.Random(2201)
    cases = [_random_pair(rng) for _ in range(1100)] + intersection_cases()
    cases += [(y * (y + x ** 3), y + x ** 2), (y * (y + x ** 3), y * (y - x ** 3)),
              (y * (y + x ** 3), (y + x ** 3) * (x - 1))]
    for _, germ, _ in golden_isolated_cases() + golden_nonisolated_cases():
        cases.append((germ.derivative("x"), germ.derivative("y")))
    answers = []
    for p, q in cases:
        want = intersection_reference(p, q)
        assert intersection_multiplicity_origin(p, q) == want, (str(p), str(q))
        answers.append(want)
    assert answers.count(None) > 100 and sum(1 for a in answers if a is not None and a > 4) > 100


def test_intersection_multiplicity_matches_reference_at_witnesses(monkeypatch):
    # every pair that the witness builds and both verify suites ask for, and
    # the non-isolated pair of a profile point on a doubled component
    from octica.curveprofile import curve_profile
    from octica.witnesses import WITNESS_BUILDERS, build_witness

    pairs = []
    real = singclass.intersection_multiplicity_origin

    def recorded(p, q):
        pairs.append((p, q, real(p, q)))
        return pairs[-1][2]

    monkeypatch.setattr(singclass, "intersection_multiplicity_origin", recorded)
    for key in sorted(WITNESS_BUILDERS):
        build_witness(key)
    verify.check_degree_bounds()
    verify.check_milnor_lemma()
    # four lines through (0:0:1) and a doubled fifth one
    curve_profile(HomForm((X * Y * (X - Y) * (X + Y) * (X - 2 * Y) ** 2).primitive(), 6))
    assert len(pairs) >= 139 and any(got is None for _, _, got in pairs)
    for p, q, got in pairs:
        assert intersection_reference(p, q) == got, (str(p), str(q))


def test_milnor_number_takes_no_resultant(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a resultant was computed")

    for mod in [m for name, m in sys.modules.items() if name.startswith("octica")]:
        if getattr(mod, "resultant", None) is poly.resultant:
            monkeypatch.setattr(mod, "resultant", forbidden)
    monkeypatch.setattr(poly, "_resultant_int", forbidden)
    for _, germ, mu in golden_isolated_cases():
        assert milnor_number(germ) == mu
    for _, germ, _ in golden_nonisolated_cases():
        assert milnor_number(germ) is None


# A Y2,inf point of a candidate octic that the N_112b recipe rejects at its
# first seed: the global form of Fulton's algorithm, with neither the gcd
# first nor the truncation, ran for 42 s on its partials
N_112B_NONISOLATED_GERM = ("2*x^6*y - 4*x^5*y^2 + 2*x^4*y^3 + 2*x^5*y - 9*x^4*y^2 + 12*x^3*y^3"
                           " - 5*x^2*y^4 - x^4*y + 6*x^2*y^3 - 8*x*y^4 + 3*y^5 + x^2*y^2"
                           " - 2*x*y^3 + y^4")


def test_nonisolated_germ_stops_at_the_gcd(monkeypatch):
    germ = parse_poly(N_112B_NONISOLATED_GERM, variables=LOCAL_VARS)
    assert classify(germ).type_string() == "Y2,inf"

    def loop(*args):
        raise AssertionError("Fulton's loop ran on a germ with a common component")

    # the common factor through the origin answers before the loop that the
    # Bezout bound ends
    monkeypatch.setattr(singclass, "_fulton", loop)
    with time_limit(2.0):
        assert milnor_number(germ) is None
        assert intersection_multiplicity_origin(germ.derivative("x"), germ.derivative("y")) is None
