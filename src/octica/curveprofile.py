"""Whole-curve singularity profiles.

A profile locates and classifies every non-simple singularity of a plane
curve, splits off the doubled part (the conductor of the associated double
cover), checks the conductor geometry, and decides whether the curve is an
admissible branch curve.  Points of multiplicity >= 3 carry all non-simple
behaviour, so one certified point search (`pointsearch`) solves the six
second-order partials of the reduced part; simple double points never need
individual classification.  Contact bounds between the reduced and doubled
parts come from resultants in the search's own frames, so `pointsearch` alone
decides which coordinates are tried.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .linsys import HomForm, PLANE_VARS, Point, apply_transport, evaluate_at, transport_point
from .pointsearch import FRAMES, common_rational_zeros
from .poly import MultiPoly, poly_gcd, resultant, squarefree_decomposition
from .singclass import SingularityReport, classify_point


@dataclass(slots=True)
class CurveSingularityProfile:
    curve: HomForm
    nonnormal_degree: int
    reduced_part: MultiPoly
    doubled_part: MultiPoly
    reports: list[SingularityReport] = field(default_factory=list)
    counts: dict = field(default_factory=dict)           # {"a":..,"b":..,"c":..,"d":..}
    total_milnor_rational: int = 0
    residual_milnor_budget: int = 0
    mult3_certified: bool = False
    half_log_canonical: bool = False
    issues: list[str] = field(default_factory=list)

    @property
    def label_tuple(self) -> tuple[int, int, int, int, int]:
        c = self.counts
        return (self.nonnormal_degree, c.get("a", 0), c.get("b", 0), c.get("c", 0), c.get("d", 0))

    def to_json(self) -> dict:
        return {
            "nonnormal_degree": self.nonnormal_degree,
            "counts": dict(self.counts),
            "half_log_canonical": self.half_log_canonical,
            "total_milnor_rational": self.total_milnor_rational,
            "residual_milnor_budget": self.residual_milnor_budget,
            "mult3_certified": self.mult3_certified,
            "issues": list(self.issues),
            "singularities": [r.to_json() for r in self.reports],
        }


_ONE = MultiPoly.const(PLANE_VARS, 1)


def _second_partials(f: MultiPoly) -> list[MultiPoly]:
    """The nonzero f_ab for a <= b in PLANE_VARS order, from the three first partials."""
    firsts = [f.derivative(a) for a in PLANE_VARS]
    out = [firsts[i].derivative(b) for i in range(3) for b in PLANE_VARS[i:]]
    return [p for p in out if not p.is_zero()]


def _contact_at_most(u: MultiPoly, v: MultiPoly, bound: int) -> bool:
    """Certify that every local intersection multiplicity of the coprime
    curves u, v is at most `bound`, trying the point search's frames in
    order.  In frame A, Res_x projects from the centre A*(1:0:0).
    Unless that centre lies on both curves, a root multiplicity of the
    resultant is the sum of the local intersection numbers on its line, so it
    only ever overcounts each of them.  A centre on both curves is skipped:
    there the resultant can undercount."""
    for k, A in enumerate(FRAMES):
        centre = transport_point(A, (1, 0, 0))
        if evaluate_at(u, centre) == 0 and evaluate_at(v, centre) == 0:
            continue
        w = (apply_transport(u, A), apply_transport(v, A)) if k else (u, v)
        try:
            r = resultant(w[0], w[1], "x")
        except ValueError:
            continue
        if r.is_zero():
            return False
        if all(k <= bound for k, _ in squarefree_decomposition(r)):
            return True
    return False


def _show(p: Point) -> str:
    return f"({':'.join(map(str, p))})"


def curve_profile(curve: HomForm) -> CurveSingularityProfile:
    """The profile of a plane curve, its points in the point search's order."""
    f = curve.poly
    if f.is_zero():
        raise ValueError("zero curve")
    pieces = squarefree_decomposition(f)
    u = v = _ONE
    issues: list[str] = []
    for mult, piece in pieces:
        if mult == 1:
            u = u * piece
        elif mult == 2:
            v = v * piece
        else:
            issues.append(f"component of multiplicity {mult}")
    n = max(v.total_degree(), 0)
    # u and v are products of primitive pieces with positive leading
    # coefficients, so primitive themselves (Gauss's lemma); a kept profile
    # shares the input itself when it is its own reduced part, and the one
    # constant _ONE when nothing is doubled
    profile = CurveSingularityProfile(curve, n, f if u == f else u, v, issues=issues)
    if issues:
        return profile

    # points of multiplicity >= 3 of the reduced part, which is f up to a
    # constant when nothing is doubled
    if u.total_degree() >= 3:
        pts, certified = common_rational_zeros(_second_partials(u))
    else:
        pts, certified = [], True
    profile.mult3_certified = certified
    if not certified:
        issues.append("could not certify rationality of all multiple points")

    # no point is skipped or repeated: by Euler's formula a common zero of the
    # second partials of a form of degree >= 3 lies on the form, so on the
    # curve, and the search records each point once
    profile.reports = [classify_point(curve, p) for p in pts]

    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    total_mu = 0
    for rep in profile.reports:
        w = rep.label_weight()
        if w:
            counts[w] += 1
        if not rep.is_half_log_canonical:
            issues.append(f"inadmissible singularity at {_show(rep.point)}: {rep.type_string()}")
        if rep.milnor is not None:
            total_mu += rep.milnor
    profile.counts = counts
    profile.total_milnor_rational = total_mu
    d_red = u.total_degree() + v.total_degree()
    profile.residual_milnor_budget = max((d_red - 1) ** 2 - total_mu, 0) if d_red >= 1 else 0

    if n > 0:
        _conductor_checks(profile, u, v, issues)

    profile.half_log_canonical = certified and not issues
    return profile


def _conductor_checks(profile, u: MultiPoly, v: MultiPoly, issues: list[str]) -> None:
    if not poly_gcd(u, v).is_constant():
        issues.append("reduced and doubled parts share a component")
        return
    # doubled part at worst nodal, nodes away from the reduced part
    if v.total_degree() >= 2:
        grads = [v.derivative(w) for w in PLANE_VARS]
        sing_pts, certified = common_rational_zeros(grads)
        if not certified:
            issues.append("could not certify the singular points of the doubled part")
        for p in sing_pts:
            if evaluate_at(v, p) != 0:
                continue
            if u.total_degree() >= 1 and evaluate_at(u, p) == 0:
                issues.append(f"reduced part passes through a singular point {_show(p)} of the doubled part")
            rep = classify_point(HomForm.of(v), p)
            if rep.type_string() != "A1":
                issues.append(f"doubled part has a non-nodal singularity at {_show(p)}")
    # contact between reduced and doubled part at most 2 everywhere
    if u.total_degree() >= 1:
        if not _contact_at_most(u, v, 2):
            issues.append("could not certify contact <= 2 between reduced and doubled parts")
