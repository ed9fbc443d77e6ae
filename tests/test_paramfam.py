"""Parametric families, rank drops, kernel comparisons, conic certificates."""
import hashlib
import math
import random
from fractions import Fraction

import pytest

from octica import paramfam
from octica.linalg import poly_kernel_basis, rank
from octica.linsys import AnchorError, MultiplicityAtPoint, PLANE_VARS
from octica.paramfam import (ParamMatrix, build_condition_matrix, compare_kernels_at,
                             component_split_report, conic_through, conic_gradient,
                             generic_rank, parametric_nn_family, rank_drop_locus,
                             verify_no_four_33_points)
from octica.poly import MultiPoly, poly_gcd

from local_checks import degenerate_nn_direction_analysis

X = MultiPoly.var(PLANE_VARS, "x")
Y = MultiPoly.var(PLANE_VARS, "y")
Z = MultiPoly.var(PLANE_VARS, "z")


def two_flag_matrix():
    family = parametric_nn_family(n=3, degree=8, param="t")
    matrix = build_condition_matrix(family, [MultiplicityAtPoint((1, 0, 0), 4)])
    return family, matrix


def test_family_size_and_matrix_shape():
    family, matrix = two_flag_matrix()
    assert family.size == 33
    assert (matrix.rows, matrix.cols) == (10, 33)


def test_generic_rank_is_maximal():
    _, matrix = two_flag_matrix()
    assert generic_rank(matrix) == 10


def test_rank_drop_locus_is_the_origin_of_the_tangent_parameter():
    _, matrix = two_flag_matrix()
    locus = rank_drop_locus(matrix)
    t = MultiPoly.var(("t",), "t")
    assert locus.minor_gcd == t
    assert locus.radical == t


def test_kernels_at_special_and_generic_values():
    family, matrix = two_flag_matrix()
    at0 = compare_kernels_at(matrix, {"t": Fraction(0)})
    assert (at0.special_dim, at0.limit_dim) == (24, 23)
    assert at0.inclusion_holds and at0.strict
    at1 = compare_kernels_at(matrix, {"t": Fraction(1)})
    assert (at1.special_dim, at1.limit_dim) == (23, 23)
    assert at1.inclusion_holds and not at1.strict

    split0 = component_split_report(family, at0, {"t": Fraction(0)}, Y)
    assert (split0.special_multiplicity, split0.limit_multiplicity) == (1, 2)
    assert split0.special_multiplicity != split0.limit_multiplicity   # the split


def test_rank_at_random_off_locus_values():
    _, matrix = two_flag_matrix()
    rng = random.Random(88)
    seen = set()
    count = 0
    while count < 20:
        t0 = Fraction(rng.randint(1, 60))
        if t0 in seen:
            continue
        seen.add(t0)
        special = matrix.specialize({"t": t0})
        assert rank(special) == 10
        count += 1


def test_kernel_dimension_matches_rank():
    _, matrix = two_flag_matrix()
    for t0 in (Fraction(0), Fraction(2), Fraction(-3)):
        cmp_ = compare_kernels_at(matrix, {"t": t0})
        special = matrix.specialize({"t": t0})
        assert cmp_.special_dim == matrix.cols - rank(special)
        assert cmp_.inclusion_holds   # semicontinuity on every invocation


def test_trivial_matrices():
    t = MultiPoly.var(("t",), "t")
    zero = MultiPoly.zero(("t",))
    one = MultiPoly.const(("t",), 1)
    m = ParamMatrix([[one, zero, t, zero, zero],
                     [zero, one, zero, t, zero],
                     [zero, zero, zero, zero, one]], ("t",), 5)
    assert generic_rank(m) == 3
    diag = ParamMatrix([[t, zero], [zero, t]], ("t",), 2)
    locus = rank_drop_locus(diag)
    assert locus.minor_gcd == t * t
    assert locus.radical == t
    assert not locus.empty
    # a constant full-rank matrix never drops rank: unit ideal
    const = ParamMatrix([[one, zero], [t * 0 + 2 * one, one]], ("t",), 2)
    assert rank_drop_locus(const).empty
    # kernels of a constant matrix agree at every parameter value
    cmp_ = compare_kernels_at(ParamMatrix([[one, one, zero]], ("t",), 3), {"t": Fraction(7)})
    assert cmp_.special_dim == cmp_.limit_dim == 2
    assert cmp_.inclusion_holds and not cmp_.strict


def test_rank_drop_locus_needs_one_parameter():
    with pytest.raises(ValueError):
        rank_drop_locus(ParamMatrix([[MultiPoly.var(("s", "t"), "s")]], ("s", "t"), 1))


def test_identically_satisfied_conditions_give_zero_matrix():
    # a family already contained in the quadruple-point ideal: imposing that
    # quadruple point contributes only zero rows
    frame = PLANE_VARS + ("t",)
    from octica.poly import monomial_basis
    basis = []
    for (a, b, c) in monomial_basis(3, 8):
        if b + c >= 4:   # multiplicity 4 at (1:0:0)
            basis.append(MultiPoly.monomial(frame, (a, b, c, 0)))
    from octica.paramfam import UniversalFamily
    family = UniversalFamily(8, ("t",), basis)
    matrix = build_condition_matrix(family, [MultiplicityAtPoint((1, 0, 0), 4)])
    assert all(e.is_zero() for row in matrix.entries for e in row)


def test_no_extra_conditions_gives_zero_rows():
    family = parametric_nn_family(n=3, degree=8, param="t")
    matrix = build_condition_matrix(family, [])
    assert (matrix.rows, matrix.cols) == (0, 33)
    basis = poly_kernel_basis(matrix.entries, family.size, ("t",))
    assert len(basis) == family.size
    # with no conditions every form of the family is in both kernels
    cmp_ = compare_kernels_at(matrix, {"t": Fraction(0)})
    assert (cmp_.special_dim, cmp_.limit_dim, cmp_.strict) == (33, 33, False)


def test_degenerate_direction_analysis():
    family, matrix = degenerate_nn_direction_analysis(n=3, degree=6, param="s")
    assert family.size == 16
    assert generic_rank(matrix) == 2
    basis = poly_kernel_basis(matrix.entries, family.size, ("s",))
    assert len(basis) == 14


# anchors of the quadruple point with no zero coordinate, as in the benchmark's
# parametric requests; the rank drops at t = b/a
NON_AXIS_ANCHORS = [(2, 3, 5), (-1, 2, 3), (3, -2, 1)]


@pytest.mark.parametrize("anchor", NON_AXIS_ANCHORS + [None], ids=str)
def test_poly_kernel_basis_is_exact_primitive_and_complete(anchor):
    """Each vector is in the kernel over Q[t], primitive with positive leading
    coefficient, and together they span sympy's nullspace over QQ(t).  The
    anchor None stands for the degenerate-direction matrix."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    if anchor is None:
        matrix = degenerate_nn_direction_analysis(n=3, degree=6, param="s")[1]
    else:
        family = parametric_nn_family(n=3, degree=8, param="t")
        matrix = build_condition_matrix(family, [MultiplicityAtPoint(anchor, 4)])
    (param,) = matrix.params
    basis = poly_kernel_basis(matrix.entries, matrix.cols, matrix.params)
    zero = MultiPoly.zero(matrix.params)
    for v in basis:
        for row in matrix.entries:
            assert sum((e * x for e, x in zip(row, v)), zero).is_zero()
        nonzero = [e for e in v if not e.is_zero()]
        g = nonzero[0]
        for e in nonzero[1:]:
            g = poly_gcd(g, e)
        assert g.is_constant()
        coeffs = [c for e in nonzero for c in e.terms.values()]
        assert all(c.denominator == 1 for c in coeffs)
        assert math.gcd(*(c.numerator for c in coeffs)) == 1
        assert nonzero[0].leading_term()[1] > 0

    # same span as sympy's nullspace over QQ(t)
    sym_t = sympy.Symbol(param)
    field = sympy.QQ.frac_field(sym_t)

    def to_field(rows):
        return DomainMatrix([[field.from_sympy(sympy.sympify(str(e), locals={param: sym_t})) for e in row]
                             for row in rows], (len(rows), matrix.cols), field)

    theirs = to_field(matrix.entries).nullspace()
    ours = to_field(basis)
    assert ours.shape == theirs.shape
    assert ours.vstack(theirs).rank() == len(basis)


def test_poly_kernel_basis_golden_output():
    # printed basis at the anchor (2:3:5): the README promises byte-identical
    # output, so a change of pivots or normalisation must show here
    family = parametric_nn_family(n=3, degree=8, param="t")
    matrix = build_condition_matrix(family, [MultiplicityAtPoint((2, 3, 5), 4)])
    basis = poly_kernel_basis(matrix.entries, family.size, matrix.params)
    text = "\n".join(" ".join(str(e) for e in v) for v in basis)
    assert text.split("\n")[0] == ("16*t^4 - 96*t^3 + 216*t^2 - 216*t + 81 64*t^3 - 288*t^2 + 432*t - 216 "
                                   "96*t^2 - 288*t + 216 64*t - 96 16" + " 0" * 28)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "09973eacf7b54344b007fb8b1ef306ecebd49085c13db57d2e4da36f4cc28490")


def test_conic_through_five_points():
    conic = conic_through(points=[(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 2, 4)])
    for p in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 2, 4)]:
        assert conic.poly.evaluate({"x": Fraction(p[0]), "y": Fraction(p[1]),
                                    "z": Fraction(p[2])}) == 0


def test_conic_through_flags():
    conic = conic_through(points=[(1, 0, 0)], flags=[((0, 0, 1), X + Y), ((0, 1, 0), X + Z)])
    tangent = conic_gradient(conic, (0, 0, 1))
    # gradient parallel to the prescribed flag line
    assert tangent == (X + Y).primitive()


def test_conic_through_degenerate_data_raises():
    with pytest.raises(AnchorError):
        conic_through(points=[(0, 0, 1), (0, 1, 1), (0, 2, 1)],
                      flags=[((1, 0, 0), Y), ((1, 1, 1), (X - Z).primitive())])


def test_four_points_certificate():
    cert = verify_no_four_33_points()
    assert cert.holds
    assert cert.residual_curve_part_explained
    assert cert.residual_points_on_base
    # every rational residual coincidence position lies on the base conic or
    # on a degenerate line
    for (u0, v0) in cert.residual_points:
        vals = {"u": u0, "v": v0}
        on_base = cert.base_conic.poly.rename(("x", "y", "z"))  # same frame trick below
        c0 = cert.coincidence_polys[0]
        # divisibility by the base conic was already certified; just re-check
        # the recorded points against the stored data
        base_val = _eval_uv(cert, u0, v0)
        assert base_val == 0 or any(
            l.evaluate(vals) == 0 for l in cert.degenerate_lines)


def _eval_uv(cert, u0, v0):
    poly = cert.base_conic.poly
    total = Fraction(0)
    for (a, b, c), coeff in poly.terms.items():
        total += coeff * u0 ** a * v0 ** b
    return total


def test_four_points_certificate_negative_control():
    cert = verify_no_four_33_points(perturb=True)
    assert not cert.holds
    assert cert.notes == ["coincidence polynomials are not divisible by the base conic"]


def test_four_points_certificate_golden_fields():
    cert = verify_no_four_33_points()
    assert str(cert.base_conic) == "x*y + x*z + y*z"
    assert [str(p) for p in cert.coincidence_polys] == [
        "-2*u*v^3 - 4*u*v^2 - 2*v^3 - 2*u*v - 2*v^2",
        "-2*u^3*v - 2*u^3 - 4*u^2*v - 2*u^2 - 2*u*v"]
    assert [str(p) for p in cert.residuals] == ["-2*v^2 - 2*v", "-2*u^2 - 2*u"]
    assert [str(p) for p in cert.degenerate_lines] == ["u", "v", "1", "u + v", "u + 1", "v + 1"]
    assert cert.residual_points == [(-1, -1), (-1, 0), (0, -1), (0, 0)]
    assert cert.residual_curve_part_explained and cert.residual_points_on_base
    assert cert.holds and cert.notes == []


def test_four_points_certificate_needs_a_certified_residual_search(monkeypatch):
    # an uncertified point search may have missed an irrational residual
    # coincidence point, so the certificate must not hold
    monkeypatch.setattr(paramfam, "common_rational_zeros", lambda polys: ([], False))
    cert = verify_no_four_33_points()
    assert not cert.holds and not cert.residual_points_on_base
    assert cert.notes == ["could not certify rationality of all residual coincidence points"]


def test_four_points_certificate_symmetric_rerun():
    # relabelling the two anchored tangents swaps nothing essential: the
    # certificate is reproducible bit for bit on a second invocation
    a = verify_no_four_33_points()
    b = verify_no_four_33_points()
    assert str(a.base_conic) == str(b.base_conic)
    assert [str(p) for p in a.coincidence_polys] == [str(p) for p in b.coincidence_polys]
    assert a.holds and b.holds


def test_limit_vectors_share_one_zero():
    # a kept result holds one zero object, not a fresh Fraction(0) per entry
    _, matrix = two_flag_matrix()
    cmp_ = compare_kernels_at(matrix, {"t": Fraction(0)})
    for kernel in (cmp_.limit_kernel, cmp_.special_kernel):
        zeros = [c for v in kernel for c in v if c == 0]
        assert zeros and len({id(c) for c in zeros}) == 1
