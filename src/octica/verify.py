"""Executable checks of the degree-bound and Milnor-number constraints that
govern which singularity configurations fit on low-degree curves, plus the
emptiness certificates for the excluded strata."""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .curveprofile import curve_profile
from .linsys import (HomForm, MultiplicityAtPoint, NNPointWithTangent, PLANE_VARS,
                     Point, condition_ideal_graded_piece, divisibility_multiplicity,
                     normalize_point)
from .paramfam import FourPointsCertificate, verify_no_four_33_points
from .poly import MultiPoly
from .singclass import intersection_multiplicity_origin, localize

X = MultiPoly.var(PLANE_VARS, "x")
Y = MultiPoly.var(PLANE_VARS, "y")
Z = MultiPoly.var(PLANE_VARS, "z")

# Default seed of the parameter sampling in the nonexistence suite; the CLI
# falls back to it when neither --seed nor OCTICA_SEED is given.
DEFAULT_SEED = 77003


@dataclass
class LemmaCheckResult:
    lemma_id: str
    instances_checked: int
    all_passed: bool
    counterexample: str | None = None
    details: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "instances": self.instances_checked,
            "passed": self.all_passed,
            "counterexample": self.counterexample,
            "details": self.details,
        }


def intersection_multiplicity(f: HomForm, g: HomForm, point) -> int:
    """Local intersection multiplicity of two curves at a rational point."""
    p = normalize_point(point)
    gf = localize(f, p) if _on(f, p) else None
    gg = localize(g, p) if _on(g, p) else None
    if gf is None or gg is None:
        return 0
    val = intersection_multiplicity_origin(gf.f_local, gg.f_local)
    if val is None:
        raise ValueError("curves share a component through the point")
    return val


def _on(f: HomForm, p: Point) -> bool:
    return f.poly.evaluate({"x": p[0], "y": p[1], "z": p[2]}) == 0


def bezout_check(f: HomForm, g: HomForm, points) -> bool:
    """Sum of local intersection numbers at the given rational common points
    never exceeds the product of the degrees."""
    total = 0
    for p in points:
        total += intersection_multiplicity(f, g, p)
    return total <= f.degree * g.degree


# -- degree bound suite ---------------------------------------------------------


def check_degree_bounds(seed: int = DEFAULT_SEED) -> LemmaCheckResult:
    """Bounds forced by an [n;n]-point or several multiple points on one curve.

    Checks, over explicit witness families:
      (a) an n-fold point forces degree >= n, with equality only for n
          concurrent lines;
      (b) the minimal-degree curve with an [n;n]-point (degree 2n-1) contains
          the distinguished tangent line;
      (c) an [n;n]-point together with an m-fold point on its tangent line is
          impossible below degree 2n+m-2, and at degree 2n+m-2 every solution
          of the linear conditions is non-reduced;
      (d) on an octic, two [3;3]-points have distinct tangent lines and no
          three [3;3]-points are collinear (via the four-point certificate
          machinery at the linear-system level).
    """
    details: list[str] = []
    checked = 0

    # (a) equality case: n concurrent lines
    for n in (3, 4):
        lines = MultiPoly.const(PLANE_VARS, 1)
        for k in range(n):
            lines = lines * (X + k * Y)
        prof = curve_profile(HomForm(lines.primitive(), n), hint_points=[(0, 0, 1)])
        mu = prof.total_milnor_rational
        checked += 1
        if mu != (n - 1) ** 2:
            return LemmaCheckResult("degree-bounds", checked, False,
                                    f"{n} concurrent lines with total milnor {mu}")
        details.append(f"{n} concurrent lines: milnor {(n-1)**2} attained")

    # (a') an n-fold point on a lower degree is impossible: the linear system
    # of degree-(n-1) forms with an n-fold point is empty
    for n in (3, 4, 5):
        ls = condition_ideal_graded_piece([MultiplicityAtPoint((0, 0, 1), n)], n - 1)
        checked += 1
        if ls.dim_forms != 0:
            return LemmaCheckResult("degree-bounds", checked, False,
                                    f"degree {n-1} with an {n}-fold point")
    details.append("multiplicity n needs degree >= n")

    # (b) at degree 2n-1 every member contains the distinguished tangent line
    for n in (2, 3, 4):
        ls = condition_ideal_graded_piece([NNPointWithTangent((0, 0, 1), Y, n)], 2 * n - 1)
        checked += 1
        if ls.dim_forms == 0:
            return LemmaCheckResult("degree-bounds", checked, False,
                                    f"[{n};{n}]-point linear system empty at degree {2*n-1}")
        common = min(divisibility_multiplicity(b, Y) for b in ls.basis)
        if common < 1:
            return LemmaCheckResult("degree-bounds", checked, False,
                                    f"degree {2*n-1} member without the tangent line, n={n}")
        details.append(f"degree {2*n-1} with an [{n};{n}]-point contains its tangent line")

    # (c) [3;3]-point plus quadruple point on the tangent line: at degree 7
    # only non-reduced solutions survive (every member is divisible by the
    # square of the tangent line)
    ls = condition_ideal_graded_piece(
        [NNPointWithTangent((0, 0, 1), Y, 3), MultiplicityAtPoint((1, 0, 0), 4)], 7)
    checked += 1
    if ls.dim_forms == 0 or min(divisibility_multiplicity(b, Y) for b in ls.basis) < 2:
        return LemmaCheckResult("degree-bounds", checked, False,
                                "septic with [3;3] + quadruple on the tangent line is reduced")
    details.append("septic with [3;3]-point and quadruple point on its tangent: all members non-reduced")

    # (d) distinct tangent lines for two [3;3]-points on an octic: with a
    # common tangent line imposed, every member is divisible by that line
    # twice, hence non-reduced
    ls = condition_ideal_graded_piece(
        [NNPointWithTangent((0, 0, 1), X, 3), NNPointWithTangent((0, 1, 0), X, 3)], 8)
    checked += 1
    if ls.dim_forms and min(divisibility_multiplicity(b, X) for b in ls.basis) < 2:
        return LemmaCheckResult("degree-bounds", checked, False,
                                "octic with two [3;3]-points sharing a tangent line is reduced")
    details.append("two [3;3]-points with a common tangent line force a doubled line")

    # (d') three collinear [3;3]-points: all members divisible by the line twice
    ls = condition_ideal_graded_piece(
        [NNPointWithTangent((0, 0, 1), X, 3), NNPointWithTangent((0, 1, 0), X, 3),
         NNPointWithTangent((0, 1, 1), X, 3)], 8)
    checked += 1
    if ls.dim_forms and min(divisibility_multiplicity(b, X) for b in ls.basis) < 2:
        return LemmaCheckResult("degree-bounds", checked, False,
                                "octic with three collinear [3;3]-points is reduced")
    details.append("three collinear [3;3]-points force a doubled line")
    return LemmaCheckResult("degree-bounds", checked, True, None, details)


# -- Milnor bound suite -----------------------------------------------------------


def check_milnor_lemma(seed: int = DEFAULT_SEED) -> LemmaCheckResult:
    """Total Milnor number bound and the Euler characteristic bookkeeping of
    the normalisation on curves with fully known branch data."""
    details = []
    checked = 0

    suite: list[tuple[str, MultiPoly, list, int]] = []
    four_lines = (X * Y * (X + Y) * (X - 2 * Y)).primitive()
    suite.append(("four concurrent lines", four_lines, [(0, 0, 1)], 4))
    suite.append(("smooth octic", (X ** 8 + Y ** 8 + Z ** 8), [], 8))
    three_conics = ((Y * Z - X * X) * (Y * Z - 2 * X * X) * (Y * Z - 3 * X * X)).primitive()
    suite.append(("three tangent conics", three_conics, [(0, 0, 1), (0, 1, 0)], 6))

    for name, poly, hints, degree in suite:
        prof = curve_profile(HomForm(poly, degree), hint_points=hints)
        checked += 1
        if prof.total_milnor_rational > (degree - 1) ** 2:
            return LemmaCheckResult("milnor-bound", checked, False, name)
        details.append(f"{name}: milnor {prof.total_milnor_rational} <= {(degree-1)**2}")

    # equality only for concurrent lines
    prof = curve_profile(HomForm(four_lines, 4), hint_points=[(0, 0, 1)])
    checked += 1
    if prof.total_milnor_rational != 9:
        return LemmaCheckResult("milnor-bound", checked, False, "four concurrent lines")

    # Euler characteristic of the normalisation for the three-conic curve:
    # the three conics pass through the two contact points with pairwise
    # contact 2, which exhausts every pairwise intersection, so those two
    # points carry all the singularities.  The normalisation is three
    # disjoint smooth rational curves, chi_top = 6, and the singular side is
    # (3 - d) d + sum over points of (mu + branches - 1).
    prof = curve_profile(HomForm(three_conics, 6), hint_points=[(0, 0, 1), (0, 1, 0)])
    rhs = (3 - 6) * 6
    for rep in prof.reports:
        rhs += rep.milnor + rep.branches - 1
    checked += 1
    if rhs != 6 or len(prof.reports) != 2:
        return LemmaCheckResult("milnor-bound", checked, False,
                                f"euler characteristic bookkeeping gave {rhs}")
    details.append("three tangent conics: normalisation euler characteristic 6 matches")
    return LemmaCheckResult("milnor-bound", checked, True, None, details)


# -- nonexistence suite -------------------------------------------------------------


@dataclass
class EmptinessCertificate:
    label: str
    generic_kernel_dim: int
    specializations_checked: int
    all_invalid: bool
    reasons: list[str] = field(default_factory=list)


def certify_empty_configuration(conditions_builder, n_params: int, label: str,
                                seed: int = DEFAULT_SEED, samples: int = 10) -> EmptinessCertificate:
    """Sample the parametric configuration space and certify that every
    solution of the linear conditions is non-reduced or fails the profile."""
    rng = random.Random(seed)
    reasons = []
    all_invalid = True
    checked = 0
    for _ in range(samples):
        params = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n_params))
        try:
            conditions, forbidden = conditions_builder(params)
        except ValueError:
            continue
        system = condition_ideal_graded_piece(conditions, 8)
        checked += 1
        if system.dim_forms == 0:
            reasons.append(f"params {params}: empty linear system")
            continue
        ok = False
        for b in system.basis:
            if all(divisibility_multiplicity(b, l) < 2 for l in forbidden):
                ok = True
                break
        if not ok:
            reasons.append(f"params {params}: every member is non-reduced")
            continue
        # a reduced member may exist: validate its actual profile
        member = system.basis[0].poly
        for b in system.basis[1:]:
            member = member + b.poly
        prof = curve_profile(HomForm(member.primitive(), 8))
        if prof.half_log_canonical:
            all_invalid = False
            reasons.append(f"params {params}: admissible member found")
        else:
            reasons.append(f"params {params}: members violate admissibility")
    return EmptinessCertificate(label, -1, checked, all_invalid, reasons)


def check_nonexistence_suite(seed: int = DEFAULT_SEED) -> LemmaCheckResult:
    """Emptiness certificates for the excluded strata, plus a control that the
    machinery does not declare an inhabited stratum empty."""
    details = []
    checked = 0

    cert: FourPointsCertificate = verify_no_four_33_points()
    checked += 1
    if not cert.holds:
        return LemmaCheckResult("nonexistence", checked, False, "four [3;3]-points certificate failed")
    details.append("four [3;3]-points: coincidence locus confined to the base conic")

    control = verify_no_four_33_points(perturb=True)
    checked += 1
    if control.holds:
        return LemmaCheckResult("nonexistence", checked, False, "perturbed certificate did not fail")
    details.append("perturbed tangent data: certificate fails as required (negative control)")

    # two [3;3]-points plus two quadruple points, one quadruple point moving
    def config_1122(params):
        u, v = params
        q2 = (Fraction(1), Fraction(u), Fraction(v))
        if u == 0 and v == 0:
            raise ValueError("degenerate sample")
        q2 = normalize_point(q2)
        if q2 in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            raise ValueError("anchor collision")
        conds = [NNPointWithTangent((0, 0, 1), Y, 3), NNPointWithTangent((0, 1, 0), Z, 3),
                 MultiplicityAtPoint((1, 0, 0), 4), MultiplicityAtPoint(q2, 4)]
        forbidden = [Y, Z, X, (Y - u * X).primitive() if u else Y]
        return conds, [f for f in forbidden if not f.is_zero()]

    cert2 = certify_empty_configuration(config_1122, 2, "two [3;3] + two quadruples", seed)
    checked += cert2.specializations_checked
    if not cert2.all_invalid:
        return LemmaCheckResult("nonexistence", checked, False, "two [3;3] + two quadruple points")
    details.append(f"two [3;3] + two quadruples: {cert2.specializations_checked} samples, none admissible")

    def config_1222(params):
        u, v = params
        q3 = normalize_point((Fraction(1), Fraction(1) + u, Fraction(2) + v))
        anchors = [(0, 0, 1), (1, 0, 0), (0, 1, 0)]
        if q3 in [normalize_point(a) for a in anchors]:
            raise ValueError("anchor collision")
        conds = [NNPointWithTangent((0, 0, 1), Y, 3),
                 MultiplicityAtPoint((1, 0, 0), 4), MultiplicityAtPoint((0, 1, 0), 4),
                 MultiplicityAtPoint(q3, 4)]
        return conds, [X, Y, Z]

    cert3 = certify_empty_configuration(config_1222, 2, "one [3;3] + three quadruples", seed + 1)
    checked += cert3.specializations_checked
    if not cert3.all_invalid:
        return LemmaCheckResult("nonexistence", checked, False, "one [3;3] + three quadruple points")
    details.append(f"one [3;3] + three quadruples: {cert3.specializations_checked} samples, none admissible")

    # control: a single quadruple point is of course realisable
    from .witnesses import build_witness
    w = build_witness("N_2")
    checked += 1
    if not w.profile.half_log_canonical:
        return LemmaCheckResult("nonexistence", checked, False, "control witness failed")
    details.append("control: the single-quadruple stratum is inhabited")
    return LemmaCheckResult("nonexistence", checked, True, None, details)
