"""Workload `systems`: graded pieces of condition ideals and parametric
rank analyses, on constraint sets anchored at seeded rational points.

A round holds one graded-piece request per template in TEMPLATES, each moved
by its own random projectivity, and one parametric request.  A graded-piece
request is what `octica linsys --constraints` does; a parametric request is
what `octica param-analyze --family` does.  Dimensions are projective
invariants, so each template's reference dimension holds wherever it is
anchored.  The returned basis is checked for independence, and a seeded
random combination of it is checked against every condition by `algebra.py`
alone: derivatives for multiple points, the local expansion at the point for
[3;3] points and cone directions, the restriction to the line for contacts,
and values on the conic for containment.  `linsys.satisfies_conditions` runs
on it too, as a round trip of the conditions through the code under test.
"""
from __future__ import annotations

import random
from fractions import Fraction

import algebra as A
from octica import cli, linsys, paramfam
from octica.poly import MultiPoly

NAMES = ("x", "y", "z")
P1, P2, P3 = (0, 0, 1), (0, 1, 0), (1, 0, 0)
LINE_Y = (0, 1, 0)          # the line y = 0, through P1 and P3
CONIC = {(0, 1, 1): Fraction(1), (2, 0, 0): Fraction(-1)}   # y*z - x^2


def _mult(p, m):
    return ("multiplicity", p, m)


# name, degree, conditions, dimension of the graded piece: the 45 octic
# monomials minus the conditions imposed, m(m+1)/2 for an m-fold point, 12 for
# a [3;3] point, 10 + 2 for a quadruple point whose cone contains the tangent
# twice, 4 for contact order 4 with a line; a contained conic leaves the 28
# sextics of the quotient.  All templates are octics, so that graded pieces
# cost about the same and the median latency falls among them.
TEMPLATES = [
    ("quadruple_point", 8, [_mult(P1, 4)], 35),
    ("quadruple_and_triple_point", 8, [_mult(P1, 4), _mult(P2, 3)], 29),
    ("three_triple_points", 8, [_mult(P1, 3), _mult(P2, 3), _mult(P3, 3)], 27),
    ("nn_point", 8, [("nn_point", P1, LINE_Y, 3)], 33),
    ("nn_point_and_quadruple_point", 8, [("nn_point", P1, LINE_Y, 3), _mult(P2, 4)], 23),
    ("cone_direction", 8, [("cone_direction", P1, LINE_Y, 4, 2)], 33),
    ("conic_and_triple_point", 8, [("contains", CONIC), _mult((1, 1, 0), 3)], 22),
    ("line_contact_and_triple_point", 8, [("line_contact", P1, LINE_Y, P3, 4), _mult(P3, 3)], 35),
    ("nn_point_and_node", 8, [("nn_point", P1, LINE_Y, 3), _mult((1, 1, 1), 2)], 30),
]
# [3;3] point at (0:0:1) with tangent y - t*x, quadruple point at (a:b:c),
# a != 0: projectivities fixing (0:0:1) and shifting t reach every such point
# from (1:0:0), where the rank is 10 and drops exactly at t = 0 (kernels of
# dimension 24 and 23, the limit strictly inside); here the drop is at b/a.
FAMILY_SIZE, FAMILY_RANK = 33, 10
# One parametric request to nine graded pieces: at a tenth of the requests
# it is the tail, and the median and 70th percentile fall among the pieces.
FAMILIES = 1


def _projectivity(rng):
    # no zero entry: no anchor point or line lands on a coordinate vertex or axis
    while True:
        m = [[A.nonzero(rng, 2) for _ in range(3)] for _ in range(3)]
        if A.det3(m):
            return m


def _pt(p) -> list[str]:
    return [str(c) for c in A.normalize(p)]


def _frame(p, l):
    """A coordinate point r on the line l other than p and one q off it."""
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    r = next(e for e in basis if A.dot(l, e) == 0 and A.normalize(e) != A.normalize(p))
    q = next(e for e in basis if A.dot(l, e) != 0)
    return r, q


def _graded_request(template, rng) -> dict:
    name, degree, conditions, dim = template
    m = _projectivity(rng)
    adj = A.adjugate3(m)

    def point(p):
        return A.normalize(A.mat_vec(m, p))

    def line(v):
        return A.to_text(A.linear(A.normalize(A.row_mat(v, adj))), NAMES)

    specs, checks = [], []
    for cond in conditions:
        kind = cond[0]
        if kind == "multiplicity":
            _, p, order = cond
            specs.append({"kind": kind, "point": _pt(point(p)), "order": order})
            checks.append(("order", point(p), order))
        elif kind == "nn_point":
            _, p, l, order = cond
            specs.append({"kind": kind, "point": _pt(point(p)), "tangent": line(l), "order": order})
            checks.append(("nn", (point(p),) + tuple(map(point, _frame(p, l))), order))
        elif kind == "cone_direction":
            _, p, l, mult, power = cond
            specs.append({"kind": kind, "point": _pt(point(p)), "tangent": line(l),
                          "multiplicity": mult, "power": power})
            checks.append(("cone", (point(p),) + tuple(map(point, _frame(p, l))), (mult, power)))
        elif kind == "contains":
            conic = A.primitive(A.substitute(cond[1], [A.linear(r) for r in adj], 3))
            specs.append({"kind": kind, "form": A.to_text(conic, NAMES)})
            # on the moved conic M(s*t : s^2 : t^2) a form of this degree is a binary
            # form of degree 2*degree: vanishing at 2*degree + 1 points forces containment
            checks += [("on", point((k, k * k, 1)), 1) for k in range(2 * degree + 1)]
        elif kind == "line_contact":
            _, p, l, other, order = cond
            specs.append({"kind": kind, "point": _pt(point(p)), "line": line(l), "order": order})
            checks.append(("contact", (point(p), point(other)), order))
    return {"kind": name, "input": {"degree": degree, "conditions": specs},
            "expected": {"dim": dim, "checks": checks}}


def _family_request(rng) -> dict:
    a, b, c = (A.nonzero(rng, 3) for _ in range(3))
    drop = Fraction(b, a)
    generic = drop + rng.choice((-3, -2, -1, 1, 2, 3))
    spec = {"degree": 8, "nn_order": 3, "parameter": "t",
            "extra_conditions": [{"kind": "multiplicity", "point": _pt((a, b, c)), "order": 4}],
            "kernel_at": [str(drop), str(generic)]}
    return {"kind": "family", "input": spec,
            "expected": {"drop": drop, "kernels": [(24, 23, True), (23, 23, False)]}}


def _unique(make, seen: set) -> dict:
    while True:
        request = make()
        key = repr(request["input"])
        if key not in seen:
            seen.add(key)
            return request


def round_requests(rng, seen: set) -> list[dict]:
    requests = [_unique(lambda: _graded_request(t, rng), seen) for t in TEMPLATES]
    requests += [_unique(lambda: _family_request(rng), seen) for _ in range(FAMILIES)]
    rng.shuffle(requests)
    return requests


def warmup_request(rng, seen: set) -> dict:
    return _unique(lambda: _graded_request(TEMPLATES[0], rng), seen)


def execute(request: dict):
    spec = request["input"]
    if "conditions" in spec:
        conditions = [cli.parse_condition(c) for c in spec["conditions"]]
        return conditions, linsys.condition_ideal_graded_piece(conditions, spec["degree"])
    family = paramfam.parametric_nn_family(n=spec["nn_order"], degree=spec["degree"],
                                           param=spec["parameter"])
    extra = [cli.parse_condition(c) for c in spec["extra_conditions"]]
    matrix = paramfam.build_condition_matrix(family, extra)
    rank = paramfam.generic_rank(matrix)
    locus = paramfam.rank_drop_locus(matrix)
    kernels = [paramfam.compare_kernels_at(matrix, {spec["parameter"]: Fraction(t)})
               for t in spec["kernel_at"]]
    return family.size, rank, locus, kernels


def _form_failure(form: dict, checks) -> str | None:
    for kind, where, order in checks:
        if kind == "on" and A.evaluate(form, where):
            return f"does not vanish at {where} on the contained conic"
        if kind == "order":
            derivs = [form]
            for _ in range(order - 1):
                derivs = [A.derivative(g, i) for g in derivs for i in range(3)]
            if any(A.evaluate(g, where) for g in derivs):
                return f"multiplicity below {order} at {where}"
        if kind == "contact":
            p, r = where
            if any(A.restrict_to_line(form, p, r)[:order]):
                return f"contact below {order} at {p}"
        if kind == "nn":
            # in the chart p + s*r + t*q the tangent is t = 0; an n-fold point
            # with an infinitely near n-fold point on it has no term s^i t^j
            # with i + 2j < 2n (the blow-up s, t = s*w divides by s^n and
            # leaves order n at w = 0)
            local = A.local_expansion(form, *where)
            if any(i + 2 * j < 2 * order for i, j in local):
                return f"has no [{order};{order}] point at {where[0]} along its tangent"
        if kind == "cone":
            # order m at p and a cone divisible by t^k
            m, k = order
            local = A.local_expansion(form, *where)
            if any(i + j < m or (i + j == m and j < k) for i, j in local):
                return f"has no {m}-fold point at {where[0]} with the tangent {k} times in its cone"
    return None


def check(request: dict, result) -> str | None:
    exp = request["expected"]
    if "dim" in exp:
        conditions, system = result
        if system.dim_forms != exp["dim"]:
            return f"{request['input']}: dimension {system.dim_forms}, want {exp['dim']}"
        forms = [A.primitive({e: Fraction(c) for e, c in f.poly.terms.items()}) for f in system.basis]
        monomials = sorted({e for f in forms for e in f})
        if A.rank_mod([[f.get(e, 0) for e in monomials] for f in forms]) != len(forms):
            return f"{request['input']}: basis is linearly dependent"
        # The conditions are linear, so a member with seeded random coefficients
        # meets them only if every basis form does (up to a chance of one in
        # a million); checking each form would cost a graded piece per form.
        rng = random.Random(repr(request["input"]))
        member: dict = {}
        for f in forms:
            member = A.add(member, f, rng.randint(1, 10 ** 6))
        reason = _form_failure(member, exp["checks"])
        if reason:
            return f"{request['input']}: a basis combination {reason}"
        poly = MultiPoly(NAMES, member)
        if not linsys.satisfies_conditions(linsys.HomForm(poly, request["input"]["degree"]), conditions):
            return f"{request['input']}: a basis combination fails satisfies_conditions"
        return None
    size, rank, locus, kernels = result
    terms = locus.radical.terms
    drop = exp["drop"]
    if (size, rank) != (FAMILY_SIZE, FAMILY_RANK):
        return f"{request['input']}: family size {size}, rank {rank}"
    if not set(terms) <= {(0,), (1,)} or (1,) not in terms or -terms.get((0,), 0) / terms[(1,)] != drop:
        return f"{request['input']}: rank-drop locus {locus.radical}, want t = {drop}"
    got = [(k.special_dim, k.limit_dim, k.strict) for k in kernels]
    if got != exp["kernels"] or not all(k.inclusion_holds for k in kernels):
        return f"{request['input']}: kernels {got}, want {exp['kernels']}"
    return None
