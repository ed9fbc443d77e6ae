"""Whole-curve singularity profiles.

A profile locates and classifies every non-simple singularity of a plane
curve, splits off the doubled part (the conductor of the associated double
cover), checks the conductor geometry, and decides whether the curve is an
admissible branch curve.  Points of multiplicity >= 3 carry all non-simple
behaviour, so the search solves the six second-order partials; simple double
points never need individual classification.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linsys import (HomForm, PLANE_VARS, Point, apply_transport, evaluate_at, invert3,
                     normalize_point, transport_point)
from .pointsearch import common_rational_zeros
from .poly import MultiPoly, poly_gcd, resultant, squarefree_decomposition
from .singclass import SingularityReport, classify, localize

# Fixed coordinate changes tried, in order, when a resultant in the given
# coordinates cannot certify a point set or a contact bound.
PROJECTIVITIES = [[[Fraction(c) for c in row] for row in m] for m in (
    ((3, -3, -1), (2, 0, 1), (0, 2, 0)),
    ((3, 2, -1), (-1, -2, 1), (1, 4, 1)),
    ((4, -3, 4), (0, 4, -3), (-1, -4, -2)),
)]


@dataclass
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


def _second_partials(f: MultiPoly) -> list[MultiPoly]:
    out = []
    for i, a in enumerate(PLANE_VARS):
        for b in PLANE_VARS[i:]:
            out.append(f.derivative(a).derivative(b))
    return [p for p in out if not p.is_zero()]


def _mult3_points(f: MultiPoly, hints) -> tuple[list[Point], bool]:
    """Rational points of multiplicity >= 3 on the curve f, certified when
    possible; retries in the coordinates of PROJECTIVITIES to shed extraneous
    resultant factors."""
    system = _second_partials(f)
    if not system:
        return [], True
    pts, certified = common_rational_zeros(system, hints=hints)
    if certified:
        return pts, True
    for A in PROJECTIVITIES:
        moved = [apply_transport(p, A) for p in system]
        inv = invert3(A)
        moved_hints = [transport_point(inv, p) for p in pts + hints]
        mpts, certified = common_rational_zeros(moved, hints=moved_hints)
        for p in (transport_point(A, q) for q in mpts):
            if p not in pts and all(evaluate_at(q, p) == 0 for q in system):
                pts.append(p)
        if certified:
            return pts, True
    return pts, False


def _contact_at_most(u: MultiPoly, v: MultiPoly, bound: int) -> bool:
    """Certify that every local intersection multiplicity of the coprime
    curves u, v is at most `bound`.  Res_x projects from the centre A*(1:0:0).
    Unless that centre lies on both curves, a root multiplicity of the
    resultant is the sum of the local intersection numbers on its line, so it
    only ever overcounts each of them.  A centre on both curves is skipped:
    there the resultant can undercount."""
    for A in [None] + PROJECTIVITIES:
        centre = (1, 0, 0) if A is None else tuple(row[0] for row in A)
        if evaluate_at(u, centre) == 0 and evaluate_at(v, centre) == 0:
            continue
        w = (u, v) if A is None else (apply_transport(u, A), apply_transport(v, A))
        try:
            r = resultant(w[0], w[1], "x")
        except ValueError:
            continue
        if r.is_zero():
            return False
        if all(k <= bound for k, _ in squarefree_decomposition(r)):
            return True
    return False


def curve_profile(curve: HomForm, hint_points=()) -> CurveSingularityProfile:
    f = curve.poly
    if f.is_zero():
        raise ValueError("zero curve")
    pieces = squarefree_decomposition(f)
    u = MultiPoly.const(PLANE_VARS, 1)
    v = MultiPoly.const(PLANE_VARS, 1)
    issues: list[str] = []
    for mult, piece in pieces:
        if mult == 1:
            u = u * piece
        elif mult == 2:
            v = v * piece
        else:
            issues.append(f"component of multiplicity {mult}")
    n = max(v.total_degree(), 0)
    profile = CurveSingularityProfile(curve, n, u.primitive(), v.primitive(), issues=issues)
    if issues:
        return profile

    hints = []
    for p in hint_points:
        try:
            hints.append(normalize_point(p))
        except Exception:
            issues.append(f"bad hint point {p}")

    # locate multiplicity >= 3 points of the part that may carry them
    if n == 0:
        carrier = f
    else:
        carrier = u if u.total_degree() >= 3 else None
    if carrier is not None and carrier.total_degree() >= 3:
        pts, certified = _mult3_points(carrier, hints)
    else:
        pts, certified = [], True
    profile.mult3_certified = certified
    if not certified:
        issues.append("could not certify rationality of all multiple points")

    classified: list[Point] = []
    curve_vals = lambda p: {"x": p[0], "y": p[1], "z": p[2]}
    for p in pts + [h for h in hints if h not in pts]:
        if p in classified:
            continue
        if f.evaluate(curve_vals(p)) != 0:
            continue
        classified.append(p)
        profile.reports.append(classify(localize(curve, p)))

    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    total_mu = 0
    for rep in profile.reports:
        w = rep.label_weight()
        if w:
            counts[w] += 1
        if not rep.is_half_log_canonical:
            issues.append(f"inadmissible singularity at {rep.point}: {rep.type_string()}")
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
        sing_pts, certified = common_rational_zeros(grads) if any(not g.is_zero() for g in grads) else ([], True)
        if not certified:
            issues.append("could not certify the singular points of the doubled part")
        for p in sing_pts:
            vals = {"x": p[0], "y": p[1], "z": p[2]}
            if v.evaluate(vals) != 0:
                continue
            if u.total_degree() >= 1 and u.evaluate(vals) == 0:
                issues.append(f"reduced part passes through a singular point {p} of the doubled part")
            rep = classify(localize(HomForm.of(v), p))
            if rep.type_string() != "A1":
                issues.append(f"doubled part has a non-nodal singularity at {p}")
    # contact between reduced and doubled part at most 2 everywhere
    if u.total_degree() >= 1:
        if not _contact_at_most(u, v, 2):
            issues.append("could not certify contact <= 2 between reduced and doubled parts")
