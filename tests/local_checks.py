"""Test-only oracles built on the library's local intersection numbers."""
from octica.linsys import HomForm, normalize_point
from octica.poly import MultiPoly, squarefree_decomposition
from octica.singclass import LocalCurve, intersection_multiplicity_origin, localize


def intersection_multiplicity(f: HomForm, g: HomForm, point) -> int:
    """Local intersection multiplicity of two curves at a rational point."""
    p = normalize_point(point)
    if not (_on(f, p) and _on(g, p)):
        return 0
    val = intersection_multiplicity_origin(localize(f, p).f_local, localize(g, p).f_local)
    if val is None:
        raise ValueError("curves share a component through the point")
    return val


def _on(f: HomForm, p) -> bool:
    return f.poly.evaluate({"x": p[0], "y": p[1], "z": p[2]}) == 0


def bezout_check(f: HomForm, g: HomForm, points) -> bool:
    """Sum of local intersection numbers at the given rational common points
    never exceeds the product of the degrees."""
    return sum(intersection_multiplicity(f, g, p) for p in points) <= f.degree * g.degree


def is_isolated(germ: LocalCurve | MultiPoly) -> bool:
    """No repeated component of the germ passes through the origin."""
    f = germ.f_local if isinstance(germ, LocalCurve) else germ
    for mult, piece in squarefree_decomposition(f):
        if mult >= 2 and piece.evaluate({"x": 0, "y": 0}) == 0:
            return False
    return True
