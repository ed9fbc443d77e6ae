"""Test-only oracles built on the library's local intersection numbers."""
from octica.linsys import HomForm, evaluate_at, normalize_point
from octica.poly import MultiPoly, squarefree_decomposition
from octica.singclass import intersection_multiplicity_origin, localize


def intersection_multiplicity(f: HomForm, g: HomForm, point) -> int:
    """Local intersection multiplicity of two curves at a rational point."""
    p = normalize_point(point)
    if evaluate_at(f.poly, p) != 0 or evaluate_at(g.poly, p) != 0:
        return 0
    val = intersection_multiplicity_origin(localize(f, p), localize(g, p))
    if val is None:
        raise ValueError("curves share a component through the point")
    return val


def bezout_check(f: HomForm, g: HomForm, points) -> bool:
    """Sum of local intersection numbers at the given rational common points
    never exceeds the product of the degrees."""
    return sum(intersection_multiplicity(f, g, p) for p in points) <= f.degree * g.degree


def is_isolated(f: MultiPoly) -> bool:
    """No repeated component of the germ passes through the origin."""
    for mult, piece in squarefree_decomposition(f):
        if mult >= 2 and piece.evaluate({"x": 0, "y": 0}) == 0:
            return False
    return True
