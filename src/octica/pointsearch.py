"""Rational common zeros of systems of plane forms, with a certificate that
no further common zeros exist over the complex numbers.

Used to locate every point of multiplicity >= 3 on a curve (the common zeros
of the six second-order partials).  The search works in a fixed list of
coordinate frames.  In each frame x is eliminated through two pairwise
resultants; the rational roots of their gcd are the candidate directions
(y : z) seen from the frame's vertex A*(1:0:0), and each direction is solved
exactly: every form is restricted to its line by scaling its terms, and the
rational roots of the gcd of the restrictions are common zeros with no
further evaluation.  Whether the vertex is one is read off the moved forms'
x^d coefficients.  Every common zero off the vertex lies on a root
direction, so the frame certifies the whole system when (a) every direction
is rational and (b) on every direction the restricted system had only
rational solutions.  The search stops at the first frame that certifies.
"""
from __future__ import annotations

from fractions import Fraction

from .linsys import Point, apply_transport, transport_point
from .poly import MultiPoly, _over, binary_roots, poly_gcd, resultant, squarefree_part

# Fixed coordinate changes tried, in order, when the curve's own coordinates
# cannot certify a point set or a contact bound.
PROJECTIVITIES = [[[Fraction(c) for c in row] for row in m] for m in (
    ((3, -3, -1), (2, 0, 1), (0, 2, 0)),
    ((3, 2, -1), (-1, -2, 1), (1, 4, 1)),
    ((4, -3, 4), (0, 4, -3), (-1, -4, -2)),
)]

# The frames of the search, and of the contact bounds in `curveprofile`, in
# order: x, y, then z becomes the eliminated first coordinate, the other two
# keeping their order, in the curve's coordinates and then in those of each
# projectivity.  A frame A solves f(A u) = 0 and maps each zero u back to A u.
_IDENTITY = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
FRAMES = [[[row[j] for j in order] for row in A]
          for A in [_IDENTITY] + PROJECTIVITIES
          for order in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]


def _pair_resultants(polys):
    """The first two nonzero pairwise resultants eliminating x.  A factor
    their gcd shares by accident only adds a direction that is solved and
    found empty, or an irrational one that leaves the frame uncertified."""
    out = []
    n = len(polys)
    for i in range(n):
        for j in range(i + 1, n):
            r = resultant(polys[i], polys[j], "x")
            if not r.is_zero():
                out.append(r)
                if len(out) >= 2:
                    return out
    return out


def _direction_gcd(polys) -> MultiPoly | None:
    """gcd of two pairwise resultants eliminating x, a form in y and z; None
    when no informative resultant exists."""
    mains = [p for p in polys if p.degree_in("x") > 0]
    free = [p for p in polys if p.degree_in("x") <= 0]
    rs = _pair_resultants(mains) if len(mains) >= 2 else []
    rs.extend(free)
    if not rs:
        return None
    g = rs[0]
    for r in rs[1:]:
        g = poly_gcd(g, r)
        if g.is_constant():
            break
    return g


def common_rational_zeros(polys: list[MultiPoly]) -> tuple[list[Point], bool]:
    """All rational projective common zeros of the forms, and a flag which is
    True when the search certifies there is no non-rational common zero."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ValueError("empty or identically-zero system")
    found: list[Point] = []

    def record(p) -> None:
        if p not in found:
            found.append(p)

    for k, A in enumerate(FRAMES):
        moved = [apply_transport(p, A) for p in polys] if k else polys
        # f(A u) at u = (1:0:0) is the sum of its coefficients free of y and z
        if not any(sum(c for e, c in p.terms.items() if not e[1] and not e[2]) for p in moved):
            record(transport_point(A, (1, 0, 0)))
        g = _direction_gcd(moved)
        if g is None:
            continue
        dirs, cofactor = binary_roots(squarefree_part(g.rename(("y", "z"))))
        certified = cofactor.is_constant()
        for (dy, dz) in dirs:
            pts, clean = _points_on_direction(moved, dy, dz)
            for p in pts:
                record(transport_point(A, p))
            certified = certified and clean
        if certified:
            return found, True
    return found, False


def _points_on_direction(polys, dy, dz) -> tuple[list[Point], bool]:
    """Rational common zeros with (y : z) = (dy : dz), not normalised, plus a
    flag telling whether every common zero on that line was rational.

    Each form is restricted to the line as a binary form in (x, t), with
    (y, z) = (dy, dz) * t, and the roots of the gcd of the restrictions are
    common zeros by construction."""
    tname = "y" if dz != 0 else "z"
    frame = ("x", tname)
    # dy = ay/d and dz = az/d; a term n*x^a*y^b*z^c of a form whose terms
    # have at most `top` = b + c becomes n*ay^b*az^c*d^(top-b-c) * x^a*t^(b+c)
    # over the form's denominator times d^top
    d = dy.denominator * dz.denominator
    ay, az = int(dy * d), int(dz * d)
    g = None
    for q in polys:
        terms, den = q._numerators()
        top = max(b + c for _, b, c in terms)
        acc: dict[tuple[int, int], int] = {}
        for (a, b, c), n in terms.items():
            e = (a, b + c)
            acc[e] = acc.get(e, 0) + n * ay ** b * az ** c * d ** (top - b - c)
        r = _over(frame, acc, den * d ** top)
        if r.is_zero():
            continue
        g = r if g is None else poly_gcd(g, r)
        if g.is_constant():
            break
    if g is None:
        # the whole line satisfies the system; cannot happen for the finite
        # singular schemes this is used on, so refuse to certify
        return [], False
    roots, leftover = binary_roots(squarefree_part(g))
    return [(tx, dy * tt, dz * tt) for (tx, tt) in roots], leftover.is_constant()
