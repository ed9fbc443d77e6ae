"""Rational common zeros of systems of plane forms, with a certificate that
no further common zeros exist over the complex numbers.

Used to locate every point of multiplicity >= 3 on a curve (the common zeros
of the six second-order partials).  One coordinate is eliminated through
pairwise resultants; the rational roots of their gcd give candidate
directions, each direction is solved exactly, and the certificate checks that
(a) after removing the factors explained by found rational points nothing
non-constant survives in the eliminated picture, and (b) on every rational
direction the restricted system had only rational solutions.  Genuine common
zeros survive every elimination, extraneous resultant factors do not, so one
clean elimination direction certifies the whole system, and the search stops
at the first axis that certifies.
"""
from __future__ import annotations

from .linsys import PLANE_VARS, Point, evaluate_at, normalize_point
from .poly import MultiPoly, binary_roots, poly_gcd, resultant, squarefree_part


def _pair_resultants(polys, main: str):
    """The first eight nonzero pairwise resultants eliminating `main`."""
    out = []
    n = len(polys)
    for i in range(n):
        for j in range(i + 1, n):
            r = resultant(polys[i], polys[j], main)
            if not r.is_zero():
                out.append(r)
                if len(out) >= 8:
                    return out
    return out


def _direction_gcd(polys, main: str) -> MultiPoly | None:
    """gcd of the pairwise resultants eliminating `main`, a form in the other
    two variables; None when no informative resultant exists."""
    mains = [p for p in polys if p.degree_in(main) > 0]
    free = [p for p in polys if p.degree_in(main) <= 0]
    rs = _pair_resultants(mains, main) if len(mains) >= 2 else []
    rs.extend(free)
    if not rs:
        return None
    g = rs[0]
    for r in rs[1:]:
        g = poly_gcd(g, r)
        if g.is_constant():
            break
    return g


def common_rational_zeros(polys: list[MultiPoly], hints=()) -> tuple[list[Point], bool]:
    """All rational projective common zeros of the forms, and a flag which is
    True when the search certifies there is no non-rational common zero."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ValueError("empty or identically-zero system")
    found: list[Point] = []

    def record(p) -> None:
        q = normalize_point(p)
        if q not in found and all(evaluate_at(f, q) == 0 for f in polys):
            found.append(q)

    for p in hints:
        record(p)
    for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        record(p)

    # The first axis that certifies ends the search: every common zero off
    # its vertex lies on a direction it solved, and the vertex is recorded
    # above, so a later axis could only record points already found.
    for axis, (u, v) in (("x", ("y", "z")), ("y", ("x", "z")), ("z", ("x", "y"))):
        g = _direction_gcd(polys, axis)
        if g is None or g.is_zero():
            continue
        if g.is_constant():
            return found, True
        leftover = squarefree_part(g.rename((u, v)))
        dirs, _ = binary_roots(leftover)
        all_dirs_clean = True
        for (du, dv) in dirs:
            pts, clean = _points_on_direction(polys, axis, u, v, du, dv)
            for p in pts:
                record(p)
            all_dirs_clean = all_dirs_clean and clean
        # strip the direction factors of every found point from the gcd
        for p in found:
            coords = dict(zip(PLANE_VARS, p))
            lu, lv = coords[u], coords[v]
            if lu == 0 and lv == 0:
                continue  # the axis point is invisible in this elimination
            line = MultiPoly.linear((u, v), (lv, -lu)).primitive()
            q, r = leftover.divmod_by(line)
            if r.is_zero():
                leftover = q
        if leftover.is_constant() and all_dirs_clean:
            return found, True
    return found, False


def _points_on_direction(polys, axis, u, v, du, dv) -> tuple[list[Point], bool]:
    """Rational common zeros with (u : v) = (du : dv), plus a flag telling
    whether every common zero on that line was rational."""
    tname = u if dv != 0 else v
    t = MultiPoly.var(PLANE_VARS, tname)
    sub = {u: MultiPoly.const(PLANE_VARS, du) * t, v: MultiPoly.const(PLANE_VARS, dv) * t}
    g = None
    for q in polys:
        r = q.substitute(sub)
        if r.is_zero():
            continue
        g = r if g is None else poly_gcd(g, r)
        if g.is_constant():
            break
    if g is None:
        # the whole line satisfies the system; cannot happen for the finite
        # singular schemes this is used on, so refuse to certify
        return [], False
    if g.is_constant():
        return [], True
    roots, leftover = binary_roots(squarefree_part(g.rename((axis, tname))))
    out = []
    for (ta, tt) in roots:
        coords = {axis: ta, u: du * tt, v: dv * tt}
        if any(coords[w] != 0 for w in PLANE_VARS):
            out.append(normalize_point((coords["x"], coords["y"], coords["z"])))
    return out, leftover.is_constant()
