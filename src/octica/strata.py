"""The stratum catalogue of stable double covers branched over plane octics.

Strata are labelled (n; a, b, c, d): n the degree of the doubled part of the
branch curve, then the numbers of ordinary / degenerate triple points with
infinitely-near triple point (simply elliptic resp. cuspidal of degree 1) and
ordinary / degenerate quadruple points (degree 2).  The module carries the
label combinatorics, component splitting, Hodge and birational lookups, the
degeneration diagrams, automorphism stabilizer dimensions, and the anchored
dimension pipelines; explicit witness curves live in `witnesses`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import poly_kernel_basis, rank as q_rank
from .linsys import (ConeDirection, ContainsCurve, HomForm, MultiplicityAtPoint,
                     NNPointWithTangent, PLANE_VARS, Point, condition_ideal_graded_piece,
                     line_coeffs, normalize_point)
from .paramfam import (build_condition_matrix, compare_kernels_at,
                       degenerate_nn_direction_analysis, parametric_nn_family)
from .poly import MultiPoly

PRIMES = ["", "'", "''", "'''", "''''"]


@dataclass(frozen=True)
class StratumLabel:
    n: int  # degree of the doubled part
    a: int  # simply elliptic of degree 1
    b: int  # cusps of degree 1
    c: int  # simply elliptic of degree 2
    d: int  # cusps of degree 2
    tag: str = ""

    def untagged(self) -> "StratumLabel":
        return StratumLabel(self.n, self.a, self.b, self.c, self.d)

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def total_sings(self) -> int:
        return self.a + self.b + self.c + self.d

    def ascii_id(self) -> str:
        body = "1" * self.a + "1b" * self.b + "2" * self.c + "2b" * self.d
        if self.n == 0:
            base = f"N_{body}" if body else "N_empty"
        else:
            base = f"M_{self.n}_{body}" if body else f"M_{self.n}_empty"
        return base + "_p" * self.tag.count("'")

    def display(self) -> str:
        body = "1" * self.a + "1̄" * self.b + "2" * self.c + "2̄" * self.d
        body = body if body else "∅"
        if self.n == 0:
            return f"N_{{{body}}}{self.tag}"
        return f"M_{{{self.n};{body}}}{self.tag}"

    def match_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n, self.a, self.b, self.c, self.d)


def L(n, a, b, c, d, tag="") -> StratumLabel:
    return StratumLabel(n, a, b, c, d, tag)


# -- inhabitation -----------------------------------------------------------


def inhabited_normal_labels() -> list[StratumLabel]:
    out = []
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    s = a + b + c + d
                    if s <= 3 or (a, b, c, d) in ((3, 0, 1, 0), (0, 0, 4, 0)):
                        out.append(L(0, a, b, c, d))
    out.sort(key=lambda l: (l.total_sings, -l.a, -l.b, -l.c, -l.d))
    return out


EMPTY_NORMAL_REASONS = {
    (0, 4, 0, 0, 0): "no plane octic has four [3;3]-points (certified computation)",
    (0, 2, 0, 2, 0): "no plane octic has two [3;3]-points and two quadruple points",
    (0, 1, 0, 3, 0): "no plane octic has a [3;3]-point and three quadruple points",
}


def empty_normal_labels() -> dict[StratumLabel, str]:
    out = {}
    for (n, a, b, c, d), reason in EMPTY_NORMAL_REASONS.items():
        out[L(n, a, b, c, d)] = reason
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    if a + b + c + d == 4 and (b or d) and (0, a, b, c, d) not in EMPTY_NORMAL_REASONS:
                        out[L(0, a, b, c, d)] = ("a surface with four elliptic singularities "
                                                 "has only simply elliptic ones")
    return out


def inhabited_nonnormal_labels() -> list[StratumLabel]:
    return [
        L(4, 0, 0, 0, 0), L(3, 0, 0, 0, 0), L(2, 0, 0, 0, 0), L(2, 0, 0, 1, 0),
        L(1, 0, 0, 0, 0), L(1, 1, 0, 0, 0), L(1, 0, 1, 0, 0), L(1, 0, 0, 1, 0),
        L(1, 0, 0, 0, 1), L(1, 2, 0, 0, 0),
    ]


# -- component splitting -----------------------------------------------------


def component_tags(label: StratumLabel) -> list[str]:
    """Component tags of an inhabited normal-locus stratum, most generic first.

    The prime convention follows the rule of thumb that more primes mean a
    more special configuration of the distinguished tangent lines; for the two
    strata with four components the middle two tags separate which flavour of
    [3;3]-point has the quadruple point on its tangent line.
    """
    if label.n != 0:
        return [""]
    a, b, c, d = label.counts
    deg1, deg2 = a + b, c + d
    if (a, b, c, d) == (3, 0, 1, 0):
        return ["'", "''"]
    if deg1 == 1 and deg2 == 1:
        return ["'", "''"]
    if deg1 == 3 and deg2 == 0:
        return ["'", "''"]
    if deg1 == 1 and deg2 == 2:
        if c == 2 or d == 2:
            return ["'", "''"]
        return ["'", "''", "'''"]          # one quadruple of each flavour
    if deg1 == 2 and deg2 == 1:
        if a == 2 or b == 2:
            return ["'", "''", "'''"]
        return ["'", "''", "'''", "''''"]  # mixed [3;3] flavours
    return [""]


def normal_component_count_multiset() -> dict[int, int]:
    counts: dict[int, int] = {}
    for label in inhabited_normal_labels():
        k = len(component_tags(label))
        counts[k] = counts.get(k, 0) + 1
    return counts


# -- Hodge types ---------------------------------------------------------------


def hodge_type(label: StratumLabel) -> tuple[int, int]:
    if label.n != 0:
        raise ValueError("Hodge type is not determined by the label off the normal locus")
    a, b, c, d = label.counts
    r = b + d
    s = a + c
    if s == 4:
        s = 3
    return (r, s)


def hodge_leq(h1: tuple[int, int], h2: tuple[int, int]) -> bool:
    return h1[0] <= h2[0] and h1[0] + h1[1] <= h2[0] + h2[1]


def hodge_diamonds() -> list[tuple[int, int]]:
    return [(r, s) for r in range(4) for s in range(4 - r)]


def hodge_hasse_edges() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Covering relations of the partial order on the ten diamonds."""
    ds = hodge_diamonds()
    edges = []
    for h1 in ds:
        for h2 in ds:
            if h1 == h2 or not hodge_leq(h1, h2):
                continue
            if any(h3 not in (h1, h2) and hodge_leq(h1, h3) and hodge_leq(h3, h2) for h3 in ds):
                continue
            edges.append((h1, h2))
    return sorted(edges)


NONNORMAL_HODGE_ANNOTATIONS = {
    (2, 0, 0, 0, 0): [(0, 3), (1, 2), (2, 1), (3, 0)],
    (4, 0, 0, 0, 0): [(0, 3), (1, 2), (2, 1), (3, 0)],
}


# -- birational types ------------------------------------------------------------


GENERAL_TYPE_2 = "General type, K^2 = 2, chi = 4"
GENERAL_TYPE_1 = "General type, K^2 = 1, chi = 3"
PROP_ELL_3 = "Properly elliptic, chi = 3, p_g = 2"
PROP_ELL_2 = "Properly elliptic, chi = 2, p_g = 1"
K3 = "K3"
RATIONAL = "Rational"
ENRIQUES = "Enriques"
RULED_1 = "Ruled of genus 1"


def birational_type(label: StratumLabel) -> str:
    if label.n != 0:
        return {
            (4, 0, 0, 0, 0): "P^2 disjoint-union P^2",
            (3, 0, 0, 0, 0): RATIONAL,
            (2, 0, 0, 0, 0): "Weak del Pezzo of degree 2",
            (2, 0, 0, 1, 0): RULED_1,
            (1, 0, 0, 0, 0): "K3-Surface",
            (1, 1, 0, 0, 0): RATIONAL,
            (1, 0, 1, 0, 0): RATIONAL,
            (1, 0, 0, 1, 0): RATIONAL,
            (1, 0, 0, 0, 1): RATIONAL,
            (1, 2, 0, 0, 0): RULED_1,
        }[label.match_tuple()]
    a, b, c, d = label.counts
    deg1, deg2 = a + b, c + d
    tag = label.tag
    if (a, b, c, d) == (0, 0, 0, 0):
        return GENERAL_TYPE_2
    if (deg1, deg2) == (1, 0):
        return GENERAL_TYPE_1
    if (deg1, deg2) == (0, 1):
        return PROP_ELL_3
    if (deg1, deg2) == (2, 0):
        return PROP_ELL_2
    if (deg1, deg2) == (1, 1):
        return K3 if tag == "'" else PROP_ELL_2
    if (deg1, deg2) == (0, 2):
        return K3
    if (deg1, deg2) == (3, 0):
        return RATIONAL if tag == "'" else ENRIQUES
    if (deg1, deg2) == (2, 1):
        tags = component_tags(label.untagged())
        return ENRIQUES if tag == tags[-1] else RATIONAL
    if (deg1, deg2) == (1, 2):
        return RATIONAL
    if (deg1, deg2) == (0, 3):
        return RATIONAL
    if (a, b, c, d) == (3, 0, 1, 0):
        return RULED_1
    if (a, b, c, d) == (0, 0, 4, 0):
        return RULED_1
    raise KeyError(f"no birational type for {label.display()}")


# -- degeneration diagrams ---------------------------------------------------------


def degeneration_rule(src: StratumLabel, dst: StratumLabel) -> bool:
    """The closure of `src` may meet `dst`: monotone growth of the counters."""
    return (dst.a + dst.b >= src.a + src.b and dst.b >= src.b
            and dst.c + dst.d >= src.c + src.d and dst.d >= src.d
            and src.untagged() != dst.untagged())


def simply_elliptic_nodes() -> list[StratumLabel]:
    nodes = [
        L(0, 0, 0, 0, 0),
        L(0, 0, 0, 1, 0), L(0, 1, 0, 0, 0),
        L(0, 0, 0, 2, 0), L(0, 1, 0, 1, 0, "'"), L(0, 1, 0, 1, 0, "''"), L(0, 2, 0, 0, 0),
        L(0, 0, 0, 3, 0), L(0, 1, 0, 2, 0, "'"), L(0, 1, 0, 2, 0, "''"),
        L(0, 2, 0, 1, 0, "'"), L(0, 2, 0, 1, 0, "''"), L(0, 2, 0, 1, 0, "'''"),
        L(0, 3, 0, 0, 0, "'"), L(0, 3, 0, 0, 0, "''"),
        L(0, 0, 0, 4, 0), L(0, 3, 0, 1, 0, "'"), L(0, 3, 0, 1, 0, "''"),
    ]
    return nodes


def simply_elliptic_edges() -> list[tuple[StratumLabel, StratumLabel]]:
    E = []

    def add(src, dst):
        E.append((src, dst))

    N = {}
    for node in simply_elliptic_nodes():
        N[(node.a, node.c, node.tag)] = node
    add(N[(0, 0, "")], N[(0, 1, "")])
    add(N[(0, 0, "")], N[(1, 0, "")])
    add(N[(0, 1, "")], N[(0, 2, "")])
    add(N[(0, 1, "")], N[(1, 1, "'")])
    add(N[(0, 1, "")], N[(1, 1, "''")])
    add(N[(1, 0, "")], N[(2, 0, "")])
    add(N[(1, 0, "")], N[(1, 1, "'")])
    add(N[(1, 0, "")], N[(1, 1, "''")])
    add(N[(0, 2, "")], N[(0, 3, "")])
    add(N[(0, 2, "")], N[(1, 2, "'")])
    add(N[(0, 2, "")], N[(1, 2, "''")])
    add(N[(1, 1, "'")], N[(1, 2, "'")])
    add(N[(1, 1, "'")], N[(1, 2, "''")])
    add(N[(1, 1, "'")], N[(2, 1, "'")])
    add(N[(1, 1, "'")], N[(2, 1, "''")])
    add(N[(1, 1, "''")], N[(1, 2, "''")])
    add(N[(1, 1, "''")], N[(2, 1, "''")])
    add(N[(1, 1, "''")], N[(2, 1, "'''")])
    add(N[(2, 0, "")], N[(3, 0, "'")])
    add(N[(2, 0, "")], N[(3, 0, "''")])
    add(N[(2, 0, "")], N[(2, 1, "'")])
    add(N[(2, 0, "")], N[(2, 1, "''")])
    add(N[(2, 0, "")], N[(2, 1, "'''")])
    add(N[(0, 3, "")], N[(0, 4, "")])
    add(N[(3, 0, "'")], N[(3, 1, "'")])
    add(N[(3, 0, "''")], N[(3, 1, "''")])
    add(N[(2, 1, "''")], N[(3, 1, "''")])
    add(N[(2, 1, "'''")], N[(3, 1, "'")])
    add(N[(2, 1, "'''")], N[(3, 1, "''")])
    return E


@dataclass
class DegenerationGraph:
    nodes: list[StratumLabel]
    edges: list[tuple[StratumLabel, StratumLabel]]

    def to_dot(self, name="degenerations") -> str:
        lines = [f"digraph {name} {{"]
        for n in self.nodes:
            lines.append(f'  {n.ascii_id()} [label="{n.display()}"];')
        for (s, t) in self.edges:
            lines.append(f"  {s.ascii_id()} -> {t.ascii_id()};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def degeneration_graph(scope: str = "simply-elliptic") -> DegenerationGraph:
    if scope == "simply-elliptic":
        return DegenerationGraph(simply_elliptic_nodes(), simply_elliptic_edges())
    if scope == "full-rules":
        labels = inhabited_normal_labels()
        edges = []
        for s in labels:
            for t in labels:
                if s == t or not degeneration_rule(s, t):
                    continue
                # Hasse cover: no inhabited label strictly between
                between = False
                for m in labels:
                    if m in (s, t):
                        continue
                    if degeneration_rule(s, m) and degeneration_rule(m, t):
                        between = True
                        break
                if not between:
                    edges.append((s, t))
        return DegenerationGraph(labels, edges)
    raise ValueError(f"unknown scope {scope!r}")


# -- stabilizer dimensions ----------------------------------------------------------


def _sl3_basis() -> list[list[list[Fraction]]]:
    mats = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = [[Fraction(0)] * 3 for _ in range(3)]
                m[i][j] = Fraction(1)
                mats.append(m)
    d1 = [[Fraction(0)] * 3 for _ in range(3)]
    d1[0][0], d1[1][1] = Fraction(1), Fraction(-1)
    d2 = [[Fraction(0)] * 3 for _ in range(3)]
    d2[1][1], d2[2][2] = Fraction(1), Fraction(-1)
    return mats + [d1, d2]


def _complement_coords(vec: list[Fraction]) -> list[list[Fraction]]:
    """Two covectors spanning the quotient of Q^3 by the span of vec."""
    idx = max(range(3), key=lambda i: abs(vec[i]))
    rows = []
    for i in range(3):
        if i == idx:
            continue
        row = [Fraction(0)] * 3
        row[i] = Fraction(1)
        row[idx] = -vec[i] / vec[idx]
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ConfigPoint:
    point: Point


@dataclass(frozen=True)
class ConfigLine:
    line: MultiPoly


@dataclass(frozen=True)
class ConfigFlag:
    point: Point
    line: MultiPoly


@dataclass(frozen=True)
class ConfigConic:
    conic: MultiPoly


ConfigElement = ConfigPoint | ConfigLine | ConfigFlag | ConfigConic


def _conic_matrix(q: MultiPoly) -> list[list[Fraction]]:
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for (i, j), name in (((0, 0), (2, 0, 0)), ((1, 1), (0, 2, 0)), ((2, 2), (0, 0, 2))):
        m[i][j] = q.coeff(name)
    for (i, j), name in (((0, 1), (1, 1, 0)), ((0, 2), (1, 0, 1)), ((1, 2), (0, 1, 1))):
        m[i][j] = m[j][i] = q.coeff(name) / 2
    return m


def stabilizer_dimension(elements) -> int:
    """Dimension of the projective stabilizer of the configuration: 8 minus
    the rank of the infinitesimal action of traceless 3x3 matrices."""
    basis = _sl3_basis()
    rows = []
    for A in basis:
        row: list[Fraction] = []
        for el in elements:
            if isinstance(el, ConfigPoint) or isinstance(el, ConfigFlag):
                p = normalize_point(el.point)
                Ap = [sum(A[i][j] * p[j] for j in range(3)) for i in range(3)]
                for cov in _complement_coords(list(p)):
                    row.append(sum(c * v for c, v in zip(cov, Ap)))
            if isinstance(el, ConfigLine) or isinstance(el, ConfigFlag):
                line = el.line
                l = list(line_coeffs(line))
                lA = [sum(l[i] * A[i][j] for i in range(3)) for j in range(3)]
                for cov in _complement_coords(l):
                    row.append(-sum(c * v for c, v in zip(cov, lA)))
            if isinstance(el, ConfigConic):
                M = _conic_matrix(el.conic)
                AtM = [[sum(A[k][i] * M[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
                D = [[AtM[i][j] + AtM[j][i] for j in range(3)] for i in range(3)]
                flatM = [M[0][0], M[0][1], M[0][2], M[1][1], M[1][2], M[2][2]]
                flatD = [D[0][0], D[0][1], D[0][2], D[1][1], D[1][2], D[2][2]]
                idx = max(range(6), key=lambda i: abs(flatM[i]))
                for i in range(6):
                    if i == idx:
                        continue
                    row.append(flatD[i] - flatM[i] / flatM[idx] * flatD[idx])
        rows.append(row)
    if not rows or not rows[0]:
        return 8
    return 8 - q_rank(rows)


# -- expected dimensions and anchored pipelines ---------------------------------------


def expected_dimension(a: int, b: int, c: int, d: int) -> int:
    return 36 - 9 * a - 10 * b - 8 * c - 9 * d


def stratum_dimension(free_parameters: int, form_dimensions, stabilizer_dim: int) -> int:
    """dim = q + sum_i (k_i - 1) - s for anchored configurations whose orbit
    exhausts the automorphism group action."""
    if isinstance(form_dimensions, int):
        form_dimensions = [form_dimensions]
    return free_parameters + sum(k - 1 for k in form_dimensions) - stabilizer_dim


@dataclass
class PipelineResult:
    label: StratumLabel
    form_dimensions: list[int]
    free_parameters: int
    stabilizer: int
    dimension: int
    expected: int | None = None

    @property
    def matches(self) -> bool:
        return self.expected is None or self.dimension == self.expected


P1: Point = (Fraction(0), Fraction(0), Fraction(1))
P2: Point = (Fraction(0), Fraction(1), Fraction(0))
P3: Point = (Fraction(1), Fraction(0), Fraction(0))
P4: Point = (Fraction(1), Fraction(1), Fraction(1))


def _v(name: str) -> MultiPoly:
    return MultiPoly.var(PLANE_VARS, name)


def _result(label, forms, q, elements, expected) -> PipelineResult:
    s = stabilizer_dimension(elements)
    dim = stratum_dimension(q, forms, s)
    forms = forms if isinstance(forms, list) else [forms]
    return PipelineResult(label, forms, q, s, dim, expected)


def normal_pipelines() -> dict[str, PipelineResult]:
    """Anchored dimension computations for the normal-locus strata."""
    x, y, z = _v("x"), _v("y"), _v("z")
    out: dict[str, PipelineResult] = {}

    k = condition_ideal_graded_piece([], 8).dim_forms
    out["N_empty"] = _result(L(0, 0, 0, 0, 0), k, 0, [], 36)

    k = condition_ideal_graded_piece([MultiplicityAtPoint(P1, 4)], 8).dim_forms
    out["N_2"] = _result(L(0, 0, 0, 1, 0), k, 0, [ConfigPoint(P1)], 28)

    k = condition_ideal_graded_piece([NNPointWithTangent(P1, y, 3)], 8).dim_forms
    out["N_1"] = _result(L(0, 1, 0, 0, 0), k, 0, [ConfigFlag(P1, y)], 27)

    # degenerate [3;3]: second-order direction is one free parameter
    family, M = degenerate_nn_direction_analysis(n=3, degree=8, param="s")
    kgen = family.size - 2
    assert len(poly_kernel_basis(M.entries, family.size, M.params)) == kgen
    out["N_1b"] = _result(L(0, 0, 1, 0, 0), kgen, 1, [ConfigFlag(P1, y)], 26)

    k = condition_ideal_graded_piece([ConeDirection(P1, y, 4, 2)], 8).dim_forms
    out["N_2b"] = _result(L(0, 0, 0, 0, 1), k, 0, [ConfigFlag(P1, y)], 27)

    k = condition_ideal_graded_piece(
        [NNPointWithTangent(P1, y, 3), NNPointWithTangent(P2, z, 3)], 8).dim_forms
    out["N_11"] = _result(L(0, 2, 0, 0, 0), k, 0, [ConfigFlag(P1, y), ConfigFlag(P2, z)], 18)

    k = condition_ideal_graded_piece(
        [MultiplicityAtPoint(P1, 4), MultiplicityAtPoint(P2, 4)], 8).dim_forms
    out["N_22"] = _result(L(0, 0, 0, 2, 0), k, 0, [ConfigPoint(P1), ConfigPoint(P2)], 20)

    k = condition_ideal_graded_piece(
        [MultiplicityAtPoint(p, 4) for p in (P1, P2, P3)], 8).dim_forms
    out["N_222"] = _result(L(0, 0, 0, 3, 0), k, 0,
                           [ConfigPoint(P1), ConfigPoint(P2), ConfigPoint(P3)], 12)

    k = condition_ideal_graded_piece(
        [MultiplicityAtPoint(p, 4) for p in (P1, P2, P3, P4)], 8).dim_forms
    out["N_2222"] = _result(L(0, 0, 0, 4, 0), k, 0,
                            [ConfigPoint(p) for p in (P1, P2, P3, P4)], 4)

    # the two components of one [3;3] plus one quadruple point, via the
    # parametric tangent family specialised off and on the rank-drop locus
    fam = parametric_nn_family(n=3, degree=8, param="t")
    M = build_condition_matrix(fam, [MultiplicityAtPoint(P3, 4)])
    cmp1 = compare_kernels_at(M, {"t": Fraction(1)})
    tangent_off = (y - x).primitive()
    out["N_12_p"] = _result(L(0, 1, 0, 1, 0, "'"), cmp1.special_dim, 0,
                            [ConfigFlag(P1, tangent_off), ConfigPoint(P3)], 19)
    cmp0 = compare_kernels_at(M, {"t": Fraction(0)})
    out["N_12_pp"] = _result(L(0, 1, 0, 1, 0, "''"), cmp0.special_dim, 0,
                             [ConfigFlag(P1, y), ConfigPoint(P3)], 19)
    return out


def nonnormal_pipelines() -> dict[str, PipelineResult]:
    """Anchored dimension computations for the non-normal strata."""
    x, y, z = _v("x"), _v("y"), _v("z")
    out: dict[str, PipelineResult] = {}

    k = condition_ideal_graded_piece([], 4).dim_forms
    out["M_4_empty"] = _result(L(4, 0, 0, 0, 0), k, 0, [], 6)

    k2 = condition_ideal_graded_piece([], 2).dim_forms
    k3 = condition_ideal_graded_piece([], 3).dim_forms
    out["M_3_empty"] = _result(L(3, 0, 0, 0, 0), [k2, k3], 0, [], 6)

    k4 = condition_ideal_graded_piece([], 4).dim_forms
    out["M_2_empty"] = _result(L(2, 0, 0, 0, 0), [k4, k2], 0, [], 11)

    k6 = condition_ideal_graded_piece([], 6).dim_forms
    k1 = condition_ideal_graded_piece([], 1).dim_forms
    out["M_1_empty"] = _result(L(1, 0, 0, 0, 0), [k6, k1], 0, [], 21)

    # sextic with a quadruple point; the doubled line is anchored away from it
    k = condition_ideal_graded_piece([MultiplicityAtPoint(P1, 4)], 6).dim_forms
    out["M_1_2"] = _result(L(1, 0, 0, 1, 0), k, 0, [ConfigPoint(P1), ConfigLine(z)], 13)

    k = condition_ideal_graded_piece([ConeDirection(P1, y, 4, 2)], 6).dim_forms
    out["M_1_2b"] = _result(L(1, 0, 0, 0, 1), k, 0, [ConfigFlag(P1, y), ConfigLine(z)], 12)

    k = condition_ideal_graded_piece([NNPointWithTangent(P1, y, 3)], 6).dim_forms
    out["M_1_1"] = _result(L(1, 1, 0, 0, 0), k, 0, [ConfigFlag(P1, y), ConfigLine(z)], 12)

    family, M = degenerate_nn_direction_analysis(n=3, degree=6, param="s")
    kgen = family.size - 2
    out["M_1_1b"] = _result(L(1, 0, 1, 0, 0), kgen, 1, [ConfigFlag(P1, y), ConfigLine(z)], 11)

    # two [3;3]-points: every such sextic is a product of three members of the
    # conic pencil through the flags.  Anchoring the flags and one pencil
    # member leaves a one-dimensional stabilizer (it rescales the doubled
    # line, acting trivially on the pencil); the doubled line itself
    # contributes two free parameters.
    c1 = (y * z - x * x).primitive()
    k = condition_ideal_graded_piece(
        [NNPointWithTangent(P1, y, 3), NNPointWithTangent(P2, z, 3),
         ContainsCurve(HomForm(c1, 2), 1)], 6).dim_forms
    out["M_1_11"] = _result(L(1, 2, 0, 0, 0), k, 2,
                            [ConfigFlag(P1, y), ConfigFlag(P2, z), ConfigConic(c1)], 3)

    # quartic of four concurrent lines times a conic of the anchored pencil
    kq = condition_ideal_graded_piece(
        [MultiplicityAtPoint(P4, 4),
         ContainsCurve(HomForm(((x - z) * (y - z)).primitive(), 2), 1)], 4).dim_forms
    kc = 2  # the anchored pencil of conics x*y, z^2
    out["M_2_2"] = _result(L(2, 0, 0, 1, 0), [kq, kc], 0,
                           [ConfigPoint(P4), ConfigLine((x - z).primitive()),
                            ConfigLine((y - z).primitive()),
                            ConfigConic((x * y).primitive()), ConfigConic((z * z).primitive())], 3)
    return out


# -- the catalogue -----------------------------------------------------------------


@dataclass
class StratumRecord:
    label: StratumLabel
    dimension: int
    hodge: tuple[int, int] | None
    hodge_annotation: list[tuple[int, int]] | None
    birational: str
    in_simply_elliptic_diagram: bool
    witness_key: str | None
    empty: bool = False
    empty_reason: str = ""

    def to_json(self, witness_poly: str | None = None) -> dict:
        return {
            "label": self.label.display(),
            "id": self.label.ascii_id(),
            "counts": {"n": self.label.n, "a": self.label.a, "b": self.label.b,
                       "c": self.label.c, "d": self.label.d},
            "component": self.label.tag,
            "dimension": self.dimension,
            "hodge_type": list(self.hodge) if self.hodge else None,
            "hodge_possibilities": [list(h) for h in self.hodge_annotation] if self.hodge_annotation else None,
            "birational_type": self.birational,
            "in_simply_elliptic_diagram": self.in_simply_elliptic_diagram,
            "witness": witness_poly,
            "witness_key": self.witness_key,
            "empty": self.empty,
            "empty_reason": self.empty_reason or None,
        }


NONNORMAL_DIMENSIONS = {
    (4, 0, 0, 0, 0): 6,
    (3, 0, 0, 0, 0): 6,
    (2, 0, 0, 0, 0): 11,
    (2, 0, 0, 1, 0): 3,
    (1, 0, 0, 0, 0): 21,
    (1, 1, 0, 0, 0): 12,
    (1, 0, 1, 0, 0): 11,
    (1, 0, 0, 1, 0): 13,
    (1, 0, 0, 0, 1): 12,
    (1, 2, 0, 0, 0): 3,
}


def build_catalogue(include_empty: bool = True) -> list[StratumRecord]:
    """Every inhabited stratum component with dimension, Hodge type,
    birational type and the key of its witness recipe; the named empty
    labels are appended with their reasons."""
    from .witnesses import WITNESS_BUILDERS

    fig2 = {(n.a, n.b, n.c, n.d, n.tag) for n in simply_elliptic_nodes()}
    records: list[StratumRecord] = []
    for label in inhabited_normal_labels():
        dim = expected_dimension(*label.counts)
        h = hodge_type(label)
        for tag in component_tags(label):
            tagged = L(0, *label.counts, tag)
            key = tagged.ascii_id()
            wkey = key if key in WITNESS_BUILDERS else label.ascii_id()
            records.append(StratumRecord(
                tagged, dim, h, None, birational_type(tagged),
                (label.a, label.b, label.c, label.d, tag) in fig2,
                wkey if wkey in WITNESS_BUILDERS else None))
    for label in inhabited_nonnormal_labels():
        dim = NONNORMAL_DIMENSIONS[label.match_tuple()]
        annotation = NONNORMAL_HODGE_ANNOTATIONS.get(label.match_tuple())
        key = label.ascii_id()
        records.append(StratumRecord(
            label, dim, None, annotation, birational_type(label), False,
            key if key in WITNESS_BUILDERS else None))
    if include_empty:
        for label, reason in empty_normal_labels().items():
            records.append(StratumRecord(label, -1, None, None, "", False, None, True, reason))
    return records


def catalogue_totals(records=None) -> dict:
    records = records if records is not None else build_catalogue()
    inhabited = [r for r in records if not r.empty]
    strata = {(r.label.n, *r.label.counts) for r in inhabited}
    return {
        "strata": len(strata),
        "components": len(inhabited),
        "normal_component_multiset": normal_component_count_multiset(),
    }
