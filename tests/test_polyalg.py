"""Exact polynomial arithmetic, linear algebra and resultants."""
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from octica import poly
from octica.linalg import bareiss_echelon, determinantal_divisor, kernel_basis, rank
from octica.linsys import MultiplicityAtPoint, apply_transport, condition_rows
from octica.poly import (MultiPoly, VariableMismatch, monomial_basis,
                         poly_gcd, pseudo_remainder, resultant, squarefree_decomposition,
                         squarefree_part)

from local_checks import (coeff_of, derivative_reference, det_bareiss, divide_reference,
                          evaluate_reference, prem_reference, resultant_sylvester,
                          substitute_reference)

V = ("x", "y", "z")
X = MultiPoly.var(V, "x")
Y = MultiPoly.var(V, "y")
Z = MultiPoly.var(V, "z")


def random_poly(rng, frame=V, max_deg=3, terms=4, size=5):
    out = {}
    for _ in range(terms):
        exp = [0] * len(frame)
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(len(frame))] += 1
        out[tuple(exp)] = Fraction(rng.randint(-size, size), rng.randint(1, 3))
    return MultiPoly(frame, out)


def _negative_lead(p):
    """p or -p, whichever has a negative leading coefficient."""
    return -p if p and p.leading_term()[1] > 0 else p


def poly_of_degree(rng, main, degree, frame=V):
    """A random polynomial of the given degree in `main`, with non-integral
    coefficients and, half of the time, a negative leading coefficient."""
    i = frame.index(main)
    low = random_poly(rng, frame, max_deg=degree, terms=4)
    lead = [0] * len(frame)
    lead[i] = degree
    lead[rng.choice([k for k in range(len(frame)) if k != i])] += rng.randint(0, 1)
    terms = {e: c for e, c in low.terms.items() if e[i] < degree}
    terms[tuple(lead)] = Fraction(rng.choice((-7, -5, 5, 7)), rng.choice((2, 3)))
    p = MultiPoly(frame, terms)
    return _negative_lead(p) if rng.random() < 0.5 else p


def test_monomial_basis_counts():
    assert len(monomial_basis(3, 8)) == 45
    assert len(monomial_basis(3, 1)) == 3
    assert len(monomial_basis(2, 4)) == 5
    for d in range(13):
        assert len(monomial_basis(3, d)) == comb(d + 2, 2)


def test_monomial_basis_order_is_canonical():
    basis = monomial_basis(3, 2)
    names = []
    for exp in basis:
        names.append("".join(v * e for v, e in zip(V, exp)))
    assert names == ["xx", "xy", "yy", "xz", "yz", "zz"]


def test_ring_laws_on_random_operands():
    rng = random.Random(421)
    for _ in range(500):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
    assert (X ** 2 + Y) * 0 == MultiPoly.zero(V)


def test_substitute_then_derive_commutes():
    rng = random.Random(73)
    for _ in range(40):
        f = random_poly(rng)
        c = Fraction(rng.randint(-3, 3))
        sub = {"z": c}
        left = f.derivative("x").substitute(sub)
        right = f.substitute(sub).derivative("x")
        assert left == right


def test_derivative_examples():
    assert (X ** 3 + Y ** 4).derivative("x") == 3 * X ** 2
    frame = ("x", "y", "t")
    x, y, t = (MultiPoly.var(frame, v) for v in frame)
    assert (y - t * x).substitute({"t": Fraction(0)}) == y


def test_evaluate_and_derivative_match_the_fraction_reference():
    # values with denominators, zero values, values for names outside the
    # frame, and frames with a variable the polynomial does not use
    big = V + ("t",)
    rng = random.Random(2301)
    for k in range(200):
        frame = big if k % 2 else V
        f = _negative_lead(random_poly(rng, frame, max_deg=5, terms=6))
        values = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for v in frame}
        if k % 3 == 0:
            values[rng.choice(frame)] = Fraction(0)
        if k % 5 == 0:
            values["w"] = Fraction(7, 3)
        if k % 7 == 0:
            values = {v: c.numerator for v, c in values.items()}
        got = f.evaluate(values)
        assert isinstance(got, Fraction) and got == evaluate_reference(f, values), (str(f), values)
        for v in frame:
            d = f.derivative(v)
            assert _all_fractions(d) and d == derivative_reference(f, v), (str(f), v)
    zero = MultiPoly.zero(V)
    assert zero.evaluate({}) == 0 and zero.derivative("x") == zero
    assert (X * X - 3 * Y * Z).evaluate({"x": 2, "y": Fraction(1, 3), "z": 4}) == 0
    # only a variable that the polynomial uses needs a value
    assert (X + Y).evaluate({"x": 1, "y": Fraction(1, 2)}) == Fraction(3, 2)
    with pytest.raises(VariableMismatch, match=r"no values for \['y', 'z'\]"):
        (X + Y * Z).evaluate({"x": 1})


def test_variable_mismatch_raises():
    other = MultiPoly.var(("x", "y"), "x")
    with pytest.raises(VariableMismatch):
        X + other


def test_leibniz_rule():
    rng = random.Random(5)
    for _ in range(30):
        f, g = random_poly(rng), random_poly(rng)
        lhs = (f * g).derivative("y")
        rhs = f.derivative("y") * g + f * g.derivative("y")
        assert lhs == rhs


def test_resultant_examples():
    # frozen sign convention: coefficients of the first argument on top
    assert resultant(Y - X, Y + X, "y") == 2 * X
    # substitution oracle: eliminating y from (x^2 - y, y - 1) leaves x^2 - 1,
    # which the frozen convention produces with a global sign of -1
    by_substitution = (X ** 2 - Y).substitute({"y": Fraction(1)})
    r = resultant(X ** 2 - Y, Y - 1, "y")
    assert r == -by_substitution
    assert r in (by_substitution, -by_substitution)
    f = (X * Y + Z) * (X + Y)
    g = (X * Y + Z) * (X - Y + Z)
    assert resultant(f, g, "x").is_zero()


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(99)
    agree = 0
    for _ in range(120):
        f, g = random_poly(rng), random_poly(rng)
        if f.degree_in("y") <= 0 or g.degree_in("y") <= 0:
            continue
        assert resultant(f, g, "y") == resultant_sylvester(f, g, "y")
        agree += 1
    assert agree > 60


def test_resultant_zero_iff_common_factor():
    rng = random.Random(17)
    for _ in range(40):
        f, g, h = random_poly(rng), random_poly(rng), random_poly(rng)
        if h.degree_in("y") <= 0 or f.degree_in("y") < 0 or g.degree_in("y") < 0:
            continue
        a, b = f * h, g * h
        if a.degree_in("y") <= 0 or b.degree_in("y") <= 0:
            continue
        assert resultant(a, b, "y").is_zero()
        gcd = poly_gcd(f, g)
        if gcd.total_degree() == 0 and f.degree_in("y") > 0 and g.degree_in("y") > 0:
            assert not resultant(f, g, "y").is_zero()


def test_gcd_and_squarefree():
    U = ("x",)
    x = MultiPoly.var(U, "x")
    assert poly_gcd(x ** 2 - 1, x - 1) == x - 1
    dec = squarefree_decomposition(x ** 2 * (x - 1))
    assert [(m, str(p)) for m, p in dec] == [(1, "x - 1"), (2, "x")]
    assert squarefree_part(x ** 2 * (x - 1)) == x * (x - 1)
    dec2 = squarefree_decomposition((x ** 2 + 1) ** 2)
    assert [(m, str(p)) for m, p in dec2] == [(2, "x^2 + 1")]


def random_form(rng, frame, used, degree):
    """A form of the degree in the variables `used`, in the given frame."""
    terms = {}
    for exp in monomial_basis(len(used), degree):
        if rng.random() < 0.6:
            full = [0] * len(frame)
            for v, e in zip(used, exp):
                full[frame.index(v)] = e
            terms[tuple(full)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(frame, terms) or MultiPoly.var(frame, used[0]) ** degree


def form_gcd_cases():
    """Binary and ternary gcd pairs: planted common factors, powers of the
    last variable on one or both sides, constants, and polynomials that
    become forms only once the last variable is set to 1."""
    rng = random.Random(5101)
    cases = []
    for frame, used in ((("x", "y"), ("x", "y")), (V, ("x", "y")), (V, V)):
        last = MultiPoly.var(frame, used[-1])
        for _ in range(8):
            h = random_form(rng, frame, used, rng.randint(0, 2))
            f = h * random_form(rng, frame, used, rng.randint(0, 3))
            g = h * random_form(rng, frame, used, rng.randint(0, 3))
            side = rng.randrange(4)
            if side in (1, 3):
                f = f * last ** rng.randint(1, 3)
            if side in (2, 3):
                g = g * last ** rng.randint(1, 3)
            cases.append((f, g))
            cases.append((f * f * h, g * h))
        cases.append((MultiPoly.const(frame, 3), random_form(rng, frame, used, 3)))
        cases.append((last ** 2 * random_form(rng, frame, used, 2), last ** 3))
        one, lower = MultiPoly.const(frame, 1), used[:-1]
        h = random_form(rng, frame, lower, 2)
        cases.append((h * random_form(rng, frame, lower, 1) * (last + one),
                      h * random_form(rng, frame, lower, 2) * (last * last - one)))
    return cases


def _sympy_frame(frame=V):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(frame)

    def to_sympy(p):
        return sympy.Poly(sympy.sympify(str(p), locals=dict(zip(frame, gens))), *gens, domain="QQ")

    return sympy, gens, to_sympy


def test_form_gcd_and_squarefree_match_sympy():
    sympy, gens, to_sympy = _sympy_frame()
    for f, g in form_gcd_cases():
        d = poly_gcd(f, g)
        assert d == d.primitive()
        assert to_sympy(d).monic() == sympy.gcd(to_sympy(f), to_sympy(g)).monic(), (str(f), str(g))
        for p in (f, g):
            if p.total_degree() <= 0:
                continue
            ours = {m: to_sympy(piece).monic() for m, piece in squarefree_decomposition(p)}
            theirs = {m: sympy.Poly(piece, *gens, domain="QQ").monic()
                      for piece, m in sympy.sqf_list(to_sympy(p).as_expr(), *gens)[1]}
            assert ours == theirs, str(p)


def test_squarefree_part_is_the_product_of_the_pieces():
    # one radical f / gcd(f, all partials) against the squarefree decomposition
    for f, g in form_gcd_cases():
        for p in (f, -3 * f * g):
            want = MultiPoly.const(p.vars, 1)
            for _, piece in squarefree_decomposition(p):
                want = want * piece
            assert squarefree_part(p) == want.primitive(), str(p)
    with pytest.raises(ValueError):
        squarefree_part(MultiPoly.zero(V))


def planted_gcd_cases():
    """Pairs with a planted common factor in one, two and three variables:
    non-homogeneous germs with small and with 60-digit numerators, squares
    of the factor on one side, and the forms of `form_gcd_cases`."""
    rng = random.Random(1307)
    cases = []
    for frame in (("x",), ("x", "y"), V):
        for size in (5, 10 ** 60):
            for _ in range(6):
                h = random_poly(rng, frame, max_deg=3, terms=3, size=size)
                f = h * random_poly(rng, frame, max_deg=3, terms=4, size=size)
                g = h * random_poly(rng, frame, max_deg=3, terms=4, size=size)
                cases.append((f, g))
                cases.append((f * h, g * h * h))
    return cases + form_gcd_cases()


def test_gcd_matches_sympy_and_the_remainder_sequence():
    sympy, gens, to_sympy = _sympy_frame()
    for f, g in planted_gcd_cases():
        d = poly_gcd(f, g)
        if f.is_zero() and g.is_zero():
            assert d.is_zero()
            continue
        theirs = sympy.gcd(to_sympy(f), to_sympy(g)).clear_denoms()[1].set_domain(sympy.ZZ).primitive()[1]
        if theirs.LC(order="grevlex") < 0:
            theirs = -theirs
        assert to_sympy(d) == theirs.set_domain(sympy.QQ), (str(f), str(g))
        if not (f.is_zero() or g.is_zero() or (f.is_constant() and g.is_constant())):
            assert poly._prs_gcd(f, g) == d, (str(f), str(g))


def test_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    cases = planted_gcd_cases()[::4]
    want = [poly_gcd(f, g) for f, g in cases]
    fallbacks = []
    prs_gcd = poly._prs_gcd

    def counted(f, g):
        fallbacks.append((f, g))
        return prs_gcd(f, g)

    monkeypatch.setattr(poly, "_HEU_GCD_TRIES", 0)
    monkeypatch.setattr(poly, "_prs_gcd", counted)
    assert [poly_gcd(f, g) for f, g in cases] == want
    nontrivial = [(f, g) for f, g in cases if not (f.is_constant() or g.is_constant())]
    assert nontrivial and all(case in fallbacks for case in nontrivial)


def test_heuristic_evaluation_points_meet_the_bound(monkeypatch):
    # both inputs of a try are evaluated at one xi >= 2*min(|f|, |g|) + 2,
    # where exact trial division certifies the candidate
    points = []
    evaluate = poly._evaluate_int

    def recorded(f, i, xi):
        points.append((max(map(abs, f.values())), xi))
        return evaluate(f, i, xi)

    monkeypatch.setattr(poly, "_evaluate_int", recorded)
    for f, g in planted_gcd_cases():
        poly_gcd(f, g)
    assert points and len(points) % 2 == 0
    for (nf, xf), (ng, xg) in zip(points[::2], points[1::2]):
        assert xf == xg and xf >= 2 * min(nf, ng) + 2


def test_unit_gcd_candidate_needs_no_trial_division(monkeypatch):
    # a constant candidate divides both inputs, so coprime inputs are never
    # divided; a nonconstant gcd still is
    divisions = []
    div = poly._div_int
    monkeypatch.setattr(poly, "_div_int", lambda d, f: divisions.append(d) or div(d, f))
    f = (X ** 3 - 2 * Y * Z * Z + Fraction(1, 2) * X * Y * Z) * (X + 3 * Z)
    g = (Y ** 2 * X - 5 * Z ** 3) * (X - Y)
    assert poly_gcd(f, g) == MultiPoly.const(V, 1)
    assert poly_gcd(3 * X + 6 * Y, 2 * Y * Z - Z ** 2) == MultiPoly.const(V, 1)
    assert divisions == []
    assert poly_gcd(f * (X - Y), g) == X - Y
    assert divisions


def test_trial_division_certificate_matches_division():
    # the heuristic accepts a candidate only when this exact test passes, and
    # its quotient is the one the remainder-returning division finds
    rng = random.Random(1309)
    for _ in range(60):
        d = random_poly(rng, max_deg=3, terms=3).primitive()
        if d.is_zero():
            continue
        q = random_poly(rng, max_deg=3, terms=4).primitive()
        for f in (d * q, d * q + random_poly(rng, max_deg=2, terms=2)):
            if f.is_zero():
                continue
            f = f.primitive()
            ints = [{e: int(c) for e, c in p.terms.items()} for p in (d, f)]
            quotient, remainder = f.divmod_by(d)
            got = poly._div_int(*ints)
            assert (got is not None) == remainder.is_zero(), (str(d), str(f))
            if got is not None:
                assert MultiPoly(V, got) == quotient


def _all_fractions(*polys):
    return all(type(c) is Fraction for p in polys for c in p.terms.values())


def division_cases(rng):
    """(dividend, divisor) pairs: random dividends, exact multiples, dividends
    whose quotient is zero, and remainders that cancel part of the product."""
    cases = []
    for _ in range(15):
        g = random_poly(rng, max_deg=3, terms=rng.randint(1, 4))
        if g.is_zero():
            continue
        h = random_poly(rng, max_deg=3, terms=rng.randint(1, 4))
        r = random_poly(rng, max_deg=2, terms=3)
        cases.append((random_poly(rng, max_deg=5, terms=6), g))
        cases.append((g * h, g))
        cases.append((g * h - r * g + r, g))
        cases.append((random_poly(rng, max_deg=1, terms=2), g * g))
    return cases


def test_division_and_product_match_sympy():
    sympy, gens, to_sympy = _sympy_frame()
    rng = random.Random(61)
    for f, g in division_cases(rng):
        q, r = f.divmod_by(g)
        assert _all_fractions(q, r)
        (sq,), sr = sympy.reduced(to_sympy(f).as_expr(), [to_sympy(g).as_expr()], *gens, order="grevlex")
        assert to_sympy(q) == sympy.Poly(sq, *gens, domain="QQ"), (str(f), str(g))
        assert to_sympy(r) == sympy.Poly(sr, *gens, domain="QQ"), (str(f), str(g))
        prod = f * g
        assert _all_fractions(prod)
        assert to_sympy(prod) == to_sympy(f) * to_sympy(g), (str(f), str(g))


def test_pseudo_remainder_matches_sympy():
    # sympy.prem uses the same exponent deg A - deg B + 1 on lc(B); exact
    # multiples and gapped dividends also take the steps where deg R drops by
    # more than one.  The result also equals the schoolbook Fraction loop, and
    # lc(B)^(da-db+1) * A = Q*B + prem with deg prem < db, where Q is the
    # exact quotient of the left side minus prem
    sympy, gens, to_sympy = _sympy_frame()
    rng = random.Random(63)
    checked = 0
    while checked < 40:
        main = rng.randrange(3)
        f = random_poly(rng, max_deg=5, terms=5)
        g = random_poly(rng, max_deg=3, terms=rng.randint(1, 4))
        if g.degree_in(V[main]) < 0:
            continue
        if checked % 4 == 1:
            f = f * g
        elif checked % 4 == 2:
            f = f.substitute({V[main]: MultiPoly.var(V, V[main]) ** 2})
        elif checked % 4 == 3:
            f, g = _negative_lead(f), _negative_lead(g)
        ours = pseudo_remainder(f, g, V[main])
        assert _all_fractions(ours)
        theirs = sympy.prem(to_sympy(f).as_expr(), to_sympy(g).as_expr(), gens[main])
        assert to_sympy(ours) == sympy.Poly(theirs, *gens, domain="QQ"), (str(f), str(g), V[main])
        assert ours == prem_reference(f, g, V[main])
        df, dg = f.degree_in(V[main]), g.degree_in(V[main])
        if df >= dg:
            scaled = coeff_of(g, V[main], dg) ** (df - dg + 1) * f
            assert ours.degree_in(V[main]) < dg
            assert (scaled - ours).exact_div(g) * g + ours == scaled
        checked += 1


def test_resultant_matches_sympy_with_sign():
    # against the determinant of sympy's Sylvester matrix, not
    # `sympy.resultant`, whose sign differs when deg f < deg g and
    # deg f * deg g is odd
    sympy, gens, to_sympy = _sympy_frame()
    sylvester = pytest.importorskip("sympy.polys.subresultants_qq_zz").sylvester
    rng = random.Random(62)
    checked = 0
    while checked < 30:
        f = random_poly(rng, max_deg=3, terms=4)
        g = random_poly(rng, max_deg=3, terms=4)
        if f.degree_in("z") <= 0 or g.degree_in("z") <= 0:
            continue
        res = resultant(f, g, "z")
        assert _all_fractions(res)
        theirs = sylvester(to_sympy(f).as_expr(), to_sympy(g).as_expr(), gens[2]).det()
        assert to_sympy(res) == sympy.Poly(sympy.expand(theirs), *gens, domain="QQ"), (str(f), str(g))
        checked += 1


def test_substitute_matches_sympy_and_the_fraction_reference():
    # polynomial, constant and zero images, given as polynomials or as
    # numbers, into the same frame and into a larger one
    big = V + ("t",)
    rng = random.Random(1901)
    for k in range(48):
        frame = big if k % 2 else V
        sympy, gens, to_sympy = _sympy_frame(frame)
        f = _negative_lead(random_poly(rng, max_deg=4, terms=5))
        mapping, images = {}, {}
        for v in V:
            kind = rng.randrange(4)
            if kind == 0:
                images[v] = mapping[v] = random_poly(rng, frame, max_deg=2, terms=3)
            elif kind == 1:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                mapping[v] = c if k % 4 < 2 else MultiPoly.const(frame, c)
                images[v] = MultiPoly.const(frame, c)
            elif kind == 2:
                mapping[v] = Fraction(0) if k % 4 < 2 else MultiPoly.zero(frame)
                images[v] = MultiPoly.zero(frame)
            else:
                images[v] = MultiPoly.var(frame, v)
        ours = f.substitute(mapping, frame)
        assert _all_fractions(ours)
        assert ours == substitute_reference(f, images, frame), (str(f), mapping)
        at = {sympy.Symbol(v): to_sympy(images[v]).as_expr() for v in V}
        theirs = sympy.sympify(str(f)).subs(at, simultaneous=True)
        assert to_sympy(ours) == sympy.Poly(sympy.expand(theirs), *gens, domain="QQ"), (str(f), mapping)


def test_exact_division_matches_sympy_and_the_fraction_reference():
    sympy, gens, to_sympy = _sympy_frame()
    rng = random.Random(1902)
    exact = inexact = 0
    for f, g in division_cases(rng):
        f, g = _negative_lead(f), _negative_lead(g) if rng.random() < 0.5 else g
        q_ref, r_ref = divide_reference(f, g)
        assert g.divides(f) == r_ref.is_zero(), (str(f), str(g))
        (sq,), sr = sympy.reduced(to_sympy(f).as_expr(), [to_sympy(g).as_expr()], *gens, order="grevlex")
        assert (sr == 0) == r_ref.is_zero()
        if r_ref.is_zero():
            q = f.exact_div(g)
            assert _all_fractions(q)
            assert q == q_ref and q * g == f, (str(f), str(g))
            assert to_sympy(q) == sympy.Poly(sq, *gens, domain="QQ")
            exact += 1
        else:
            with pytest.raises(ValueError, match="not exact"):
                f.exact_div(g)
            inexact += 1
    assert exact > 10 and inexact > 10
    g = _negative_lead(random_poly(rng))
    assert MultiPoly.zero(V).exact_div(g).is_zero() and g.divides(MultiPoly.zero(V))
    with pytest.raises(ZeroDivisionError):
        g.exact_div(MultiPoly.zero(V))


def test_divisor_power_on_rational_coefficients():
    line = Fraction(-2, 3) * X + Fraction(1, 2) * Y
    rest = Fraction(5, 7) * X * Z - Y * Y
    k, q = (Fraction(-3, 4) * line ** 3 * rest).divisor_power(line)
    assert (k, q) == (3, Fraction(-3, 4) * rest)
    assert rest.divisor_power(line) == (0, rest)


def test_divisor_power_rejects_a_zero_dividend():
    with pytest.raises(ValueError, match="dividend must be nonzero"):
        MultiPoly(("x", "y")).divisor_power(MultiPoly.var(("x", "y"), "x"))


def test_divisor_power_rejects_a_constant_divisor():
    for divisor in (MultiPoly.const(V, Fraction(-2, 3)), MultiPoly.zero(V)):
        with pytest.raises(ValueError, match="divisor must be nonconstant"):
            (X * Y).divisor_power(divisor)


def test_resultant_signs_and_swapped_degrees():
    # every pair of degrees up to 3 in both orders, odd*odd included:
    # Res(g, f) = (-1)^(deg f * deg g) Res(f, g), and both equal the
    # Sylvester determinant in Fractions and the determinant of sympy's
    # Sylvester matrix (sympy 1.14's `resultant` has the opposite sign when
    # deg f < deg g and deg f * deg g is odd)
    sympy, gens, to_sympy = _sympy_frame()
    sylvester = pytest.importorskip("sympy.polys.subresultants_qq_zz").sylvester
    rng = random.Random(1904)
    for df in range(1, 4):
        for dg in range(1, 4):
            for main in ("x", "z"):
                f, g = poly_of_degree(rng, main, df), poly_of_degree(rng, main, dg)
                res = resultant(f, g, main)
                assert _all_fractions(res)
                assert res == resultant_sylvester(f, g, main), (str(f), str(g), main)
                assert resultant(g, f, main) == res * (-1) ** (df * dg)
                theirs = sylvester(to_sympy(f).as_expr(), to_sympy(g).as_expr(), gens[V.index(main)]).det()
                assert to_sympy(res) == sympy.Poly(sympy.expand(theirs), *gens, domain="QQ")


def test_transport_rows_and_resultants_make_no_fraction_products(monkeypatch):
    # substitution, condition rows and resultants run on integer numerators:
    # not one MultiPoly product between them
    octic = (X ** 4 + Fraction(2, 3) * Y ** 3 * Z - Z ** 4) * (X * Y - Fraction(1, 5) * Z * Z) ** 2
    A = [[Fraction(1), Fraction(-1, 2), Fraction(3)], [Fraction(0), Fraction(2), Fraction(-1)],
         [Fraction(1, 3), Fraction(1), Fraction(1)]]
    products = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    moved = apply_transport(octic, A)
    rows = condition_rows([MultiplicityAtPoint((1, 2, 3), 4)], 8)
    res = resultant(moved, octic.derivative("x"), "x")
    assert products == []
    assert len(rows) == 10 and moved.total_degree() == 8 and not res.is_zero()


def test_form_gcd_golden_output():
    # printed by poly_gcd and squarefree_decomposition before forms were
    # reduced one variable down; the normal form must not move
    x, y = MultiPoly.var(("x", "y"), "x"), MultiPoly.var(("x", "y"), "y")
    binary = poly_gcd((3 * x - 2 * y) ** 2 * (x + y) * y ** 2, (3 * x - 2 * y) * (x - 5 * y) * y ** 3)
    assert str(binary) == "3*x*y^2 - 2*y^3"
    f = (X * Y - Z * Z) * (2 * X + 3 * Z) ** 2 * Z
    g = (X * Y - Z * Z) * (2 * X + 3 * Z) * (Y - X) * Z ** 2
    assert str(poly_gcd(f, g)) == "2*x^2*y*z + 3*x*y*z^2 - 2*x*z^3 - 3*z^4"
    assert str(poly_gcd(-7 * Z ** 3, (X - Y) * Z ** 2)) == "z^2"
    octic = (X * X + Y * Z) ** 2 * (X - 2 * Y + Z) ** 3 * (Y * Z - 2 * X * Z + X * Y) * Z
    assert [(m, str(p)) for m, p in squarefree_decomposition(octic)] == [
        (1, "x*y*z - 2*x*z^2 + y*z^2"), (2, "x^2 + y*z"), (3, "x - 2*y + z")]


def _presolve_cases():
    """Seeded matrices for the singleton-row presolve: two singletons in one
    column, a singleton column that denser rows also use, zero rows, rows
    left empty once the singleton columns are dropped, and all-singleton
    matrices (some covering every column)."""
    rng = random.Random(2020)

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))

    def row_on(ncols, support):
        return [entry() if c in support else Fraction(0) for c in range(ncols)]

    cases = []
    for _ in range(30):
        ncols = rng.randint(2, 9)
        killed = rng.sample(range(ncols), rng.randint(1, ncols - 1))
        rest = [c for c in range(ncols) if c not in killed]
        rows = [row_on(ncols, {c}) for c in killed]
        rows.append(row_on(ncols, {killed[0]}))                            # second singleton
        rows.append(row_on(ncols, set(rng.sample(killed, rng.randint(1, len(killed))))))  # left empty
        rows.append(row_on(ncols, set()))                                   # zero row
        for _ in range(rng.randint(0, 3)):                                  # denser rows
            support = set(rng.sample(rest, rng.randint(1, len(rest)))) | {rng.choice(killed)}
            if len(support) > 1:
                rows.append(row_on(ncols, support))
        rng.shuffle(rows)
        cases.append(rows)
    for _ in range(6):
        ncols = rng.randint(1, 7)
        cases.append([row_on(ncols, {rng.randrange(ncols)}) for _ in range(rng.randint(1, 8))])
        cases.append([row_on(ncols, {c}) for c in rng.sample(range(ncols), ncols)])
    return cases


def test_kernel_basis_examples():
    one, zero = Fraction(1), Fraction(0)
    identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert kernel_basis(identity) == []
    zeros = [[zero] * 4, [zero] * 4]
    assert len(kernel_basis(zeros)) == 4
    # the presolved kernel is sympy's nullspace, vector for vector (both put
    # a 1 at a free column and zeros at the other free columns)
    sympy = pytest.importorskip("sympy")
    for rows in _presolve_cases() + [identity, zeros]:
        theirs = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                               for row in rows]).nullspace()
        want = [[Fraction(int(c.p), int(c.q)) for c in vec] for vec in theirs]
        assert kernel_basis(rows) == want, rows


def test_kernel_vectors_are_exact():
    rng = random.Random(31)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(7)] for _ in range(4)]
        for vec in kernel_basis(rows):
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_rank_plus_kernel_is_columns():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(5)]
        assert rank(rows) + len(kernel_basis(rows)) == 6


def _minor_gcd(rows, r):
    """gcd of all r x r minors by Bareiss determinants, primitive."""
    g = MultiPoly.zero(rows[0][0].vars)
    for rs in combinations(range(len(rows)), r):
        for cs in combinations(range(len(rows[0])), r):
            g = poly_gcd(g, det_bareiss([[rows[i][j] for j in cs] for i in rs]))
    return g


def test_determinantal_divisor_matches_gcd_of_minors():
    t = MultiPoly.var(("t",), "t")
    one = MultiPoly.const(("t",), 1)
    # the pivot t leaves remainder 1 on t^2 + 1, so the Smith reduction must
    # swap the remainder in as the new pivot, along a row and along a column
    cases = [
        [[t * t + one, t, t + one]],
        [[t * t + one], [t], [t + one]],
        [[t * t + one, t], [t + one, t * t]],
        [[t * t + one, t, t + one], [t, t + one, t * t], [t + one, t * t + one, t]],
        [[t * t + one, t * t * t], [t * t * t + t, t ** 4 + t * t]],
    ]
    for rows in cases:
        # the rank: the largest order with a nonzero minor
        r = max(r for r in range(1, len(rows) + 1) if not _minor_gcd(rows, r).is_zero())
        assert determinantal_divisor(rows, "t") == (r, _minor_gcd(rows, r).primitive())
    assert (t * t + one).divmod_by(t)[1] == one


def test_bareiss_rows_lose_only_their_content():
    # a row divides by the gcd of its numerators over the lcm of its
    # denominators; a row with one nonzero constant also loses its sign
    T = ("t",)
    t = MultiPoly.var(T, "t")
    rows = [[MultiPoly.const(T, Fraction(-2, 3)), Fraction(4, 9) * t],
            [MultiPoly.const(T, 0), MultiPoly.const(T, Fraction(-3, 2))]]
    echelon, pivots = bareiss_echelon(rows)
    assert [[str(e) for e in row] for row in echelon] == [["-3", "2*t"], ["0", "1"]]
    assert pivots == [0, 1]
