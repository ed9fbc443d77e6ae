"""Workload `curves`: profile plane curves of degree 5 to 8 built from seeded
rational lines and conics.

A round holds one curve of each shape in SHAPES.  The request is what
`octica profile --curve` does: parse the text and compute the whole-curve
singularity profile.  The generator knows every point of multiplicity >= 3
from the construction: k components through a point with distinct tangents
make an ordinary k-fold point (D4 for k = 3, X9 for k = 4, mu = (k-1)^2), and
three conics of a bitangent pencil meet in two J10 points.  It rejects draws
in which a further incidence or tangency would appear by accident.
"""
from __future__ import annotations

from fractions import Fraction

import algebra as A
from octica import curveprofile, linsys, parsing

NAMES = ("x", "y", "z")
MONOMIALS2 = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
ORDINARY = {3: ("D4", 4), 4: ("X9", 9)}


# Points, lines and conics have no zero coordinate or coefficient, so nothing
# sits on a coordinate axis or passes through a coordinate vertex, where the
# point search takes shortcuts that a curve in general position does not get.
def _point(rng):
    return A.normalize([A.nonzero(rng, 3) for _ in range(3)])


def _line(rng):
    return A.normalize([A.nonzero(rng, 4) for _ in range(3)])


def _line_through(rng, p):
    while True:
        v = A.cross(p, [A.nonzero(rng, 3) for _ in range(3)])
        if all(v):
            return A.normalize(v)


def _conic(rng, through=None) -> dict:
    while True:
        q = {m: Fraction(A.nonzero(rng, 4)) for m in MONOMIALS2}
        if through is not None:
            # correct one monomial that does not vanish at the point
            m = MONOMIALS2[rng.randrange(3)]
            q[m] -= A.evaluate(q, through) / A.evaluate({m: Fraction(1)}, through)
        if all(q.values()):
            return A.primitive(q)


def _on(component, p) -> bool:
    kind, data = component
    return (A.dot(data, p) if kind == "line" else A.evaluate(data, p)) == 0


def _transversal(line, conic: dict) -> bool:
    """The line meets the smooth conic in two distinct points."""
    p1, p2 = [A.cross(line, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
              if any(A.cross(line, e))][:2]
    a, c = A.evaluate(conic, p1), A.evaluate(conic, p2)
    b = A.evaluate(conic, tuple(x + y for x, y in zip(p1, p2))) - a - c
    return b * b - 4 * a * c != 0


def _generic(components, designed: dict) -> bool:
    """True when the points of multiplicity >= 3 of the union of the smooth
    components are exactly `designed` (point -> number of components), every
    designed point is ordinary, and every other meeting is a node."""
    lines = [d for k, d in components if k == "line"]
    conics = [d for k, d in components if k == "conic"]
    if len(set(lines)) < len(lines) or len(conics) > 1:
        return False
    if any(A.det3(A.conic_matrix(q)) == 0 for q in conics):
        return False
    if any(not _transversal(l, q) for l in lines for q in conics):
        return False
    points = {A.normalize(A.cross(l1, l2)) for i, l1 in enumerate(lines) for l2 in lines[:i]}
    points |= set(designed)
    for p in points:
        through = sum(1 for c in components if _on(c, p))
        if through != designed.get(p, 2):
            return False
    return True


def _arrangement(rng, concurrent: int, free: int, conic_at_point=False, doubled=None):
    """`concurrent` lines through one point, `free` further lines, an optional
    conic through the point, and an optional doubled line or conic."""
    while True:
        p = _point(rng)
        reduced = [("line", _line_through(rng, p)) for _ in range(concurrent)]
        reduced += [("line", _line(rng)) for _ in range(free)]
        if conic_at_point:
            reduced.append(("conic", _conic(rng, through=p)))
        extra = []
        if doubled == "line":
            extra = [("line", _line(rng))]
        elif doubled == "conic":
            extra = [("conic", _conic(rng))]
        k = concurrent + conic_at_point
        if _generic(reduced + extra, {p: k}):
            break
    polys = [A.linear(d) if kind == "line" else d for kind, d in reduced]
    polys += [A.power(A.linear(d) if kind == "line" else d, 2, 3) for kind, d in extra]
    n = sum(1 if kind == "line" else 2 for kind, _ in extra)
    return A.product(polys, 3), n, {p: ORDINARY[k]}


def _three_conics(rng):
    """Three members y*z - k*x^2 of a bitangent pencil, moved by a random
    projectivity M: they meet pairwise only at M(0:0:1) and M(0:1:0), each a
    J10 point of the union."""
    while True:
        m = [[A.nonzero(rng, 2) for _ in range(3)] for _ in range(3)]
        if A.det3(m):
            break
    ks = rng.sample([k for k in range(-6, 7) if k], 3)
    adj = A.adjugate3(m)
    images = [A.linear(row) for row in adj]
    polys = [A.substitute({(0, 1, 1): Fraction(1), (2, 0, 0): Fraction(-k)}, images, 3) for k in ks]
    base = [A.normalize([m[i][j] for i in range(3)]) for j in (2, 1)]
    return A.product(polys, 3), 0, {p: ("J10", 10) for p in base}


# An odd number of shapes whose costs differ: over whole rounds the median
# latency is that of the middle shape and the 90th percentile that of the
# octic, so both stay put from seed to seed.
SHAPES = {
    "quintic_conic_quadruple_point": lambda rng: _arrangement(rng, 3, 0, conic_at_point=True),
    "sextic_quadruple_point": lambda rng: _arrangement(rng, 4, 2),
    "sextic_three_conics": _three_conics,
    "septic_doubled_line": lambda rng: _arrangement(rng, 3, 2, doubled="line"),
    "octic_doubled_conic": lambda rng: _arrangement(rng, 3, 1, doubled="conic"),
}


def _request(shape: str, rng, seen: set) -> dict:
    while True:
        f, n, points = SHAPES[shape](rng)
        text = A.to_text(A.primitive(f), NAMES)
        if text not in seen:
            break
    seen.add(text)
    types = sorted(t for t, _ in points.values())
    counts = (n, types.count("J10"), 0, types.count("X9"), 0)
    return {"kind": shape, "input": text,
            "expected": {"label": counts, "types": types, "points": sorted(points),
                         "milnor": sum(mu for _, mu in points.values())}}


def round_requests(rng, seen: set) -> list[dict]:
    requests = [_request(shape, rng, seen) for shape in SHAPES]
    rng.shuffle(requests)
    return requests


def warmup_request(rng, seen: set) -> dict:
    return _request("quintic_conic_quadruple_point", rng, seen)


def execute(request: dict):
    f = parsing.parse_poly(request["input"])
    return curveprofile.curve_profile(linsys.HomForm.of(f))


def check(request: dict, profile) -> str | None:
    exp = request["expected"]
    got = {"label": profile.label_tuple,
           "types": sorted(r.type_string() for r in profile.reports),
           "points": sorted(A.normalize(r.point) for r in profile.reports),
           "milnor": profile.total_milnor_rational}
    want = dict(exp, label=tuple(exp["label"]))
    if got != want:
        return f"{request['input']}: got {got}, want {want}"
    if not (profile.half_log_canonical and profile.mult3_certified):
        return f"{request['input']}: not certified admissible: {profile.issues}"
    return None
