"""The stratum catalogue of stable double covers branched over plane octics.

Strata are labelled (n; a, b, c, d): n the degree of the doubled part of the
branch curve, then the numbers of ordinary / degenerate triple points with
infinitely-near triple point (simply elliptic resp. cuspidal of degree 1) and
ordinary / degenerate quadruple points (degree 2).  The module carries the
label combinatorics, component splitting, Hodge and birational lookups and the
degeneration diagrams; explicit witness curves live in `witnesses`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Sequence


@dataclass(frozen=True, slots=True)
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
        primes = self.tag.count("'")
        return base + ("_" + "p" * primes if primes else "")

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


# n is at most 4: the doubled part of an octic has degree at most 4
_ID = re.compile(r"(?:N|M_([1-4]))_(?:(1*)((?:1b)*)(2*)((?:2b)*)|empty)(?:_(p+))?")


def label_from_id(ident: str) -> StratumLabel:
    """The label whose `ascii_id` is `ident`; ValueError for any other string."""
    match = _ID.fullmatch(ident)
    if match:
        n, a, b, c, d, primes = match.groups(default="")
        label = L(int(n or 0), len(a), len(b) // 2, len(c), len(d) // 2, "'" * len(primes))
        if label.ascii_id() == ident:   # "N_" matches with an empty body
            return label
    raise ValueError(f"no stratum label has the id {ident!r}")


# -- inhabitation -----------------------------------------------------------


# the counts (a, b, c, d) of a normal label: at most four points
_COUNTS = [k for k in product(range(5), repeat=4) if sum(k) <= 4]


def inhabited_normal_labels() -> list[StratumLabel]:
    """Every normal label that no rule makes empty."""
    empty = {label.counts for label in empty_normal_labels()}
    return sorted((L(0, *k) for k in _COUNTS if k not in empty),
                  key=lambda l: (l.total_sings, -l.a, -l.b, -l.c, -l.d))


EMPTY_NORMAL_REASONS = {
    (0, 4, 0, 0, 0): "no plane octic has four [3;3]-points (certified computation)",
    (0, 2, 0, 2, 0): "no plane octic has two [3;3]-points and two quadruple points",
    (0, 1, 0, 3, 0): "no plane octic has a [3;3]-point and three quadruple points",
}


def empty_normal_labels() -> dict[StratumLabel, str]:
    out = {L(*k): reason for k, reason in EMPTY_NORMAL_REASONS.items()}
    for k in _COUNTS:
        if sum(k) == 4 and (k[1] or k[3]) and (0, *k) not in EMPTY_NORMAL_REASONS:
            out[L(0, *k)] = ("a surface with four elliptic singularities "
                             "has only simply elliptic ones")
    return out


def inhabited_nonnormal_labels() -> list[StratumLabel]:
    return [L(*k) for k in NONNORMAL_DIMENSIONS]


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
    """The components with only simply elliptic points (b = d = 0), fewest
    points first."""
    labels = [l for l in inhabited_normal_labels() if not (l.b or l.d)]
    labels.sort(key=lambda l: (l.total_sings, l.a))
    return [L(0, *l.counts, tag) for l in labels for tag in component_tags(l)]


def simply_elliptic_edges(nodes: list[StratumLabel]) -> list[tuple[StratumLabel, StratumLabel]]:
    E = []

    def add(src, dst):
        E.append((src, dst))

    N = {}
    for node in nodes:
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


# Built once: the labels are frozen and the edges are tuples, so every
# simply elliptic graph shares these two tuples and a kept graph costs
# nothing more than its own object.
_SIMPLY_ELLIPTIC_NODES = tuple(simply_elliptic_nodes())
_SIMPLY_ELLIPTIC_EDGES = tuple(simply_elliptic_edges(list(_SIMPLY_ELLIPTIC_NODES)))


@dataclass(slots=True)
class DegenerationGraph:
    nodes: Sequence[StratumLabel]
    edges: Sequence[tuple[StratumLabel, StratumLabel]]

    def to_dot(self) -> str:
        lines = ["digraph degenerations {"]
        for n in self.nodes:
            lines.append(f'  {n.ascii_id()} [label="{n.display()}"];')
        for (s, t) in self.edges:
            lines.append(f"  {s.ascii_id()} -> {t.ascii_id()};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def degeneration_graph(scope: str = "simply-elliptic") -> DegenerationGraph:
    if scope == "simply-elliptic":
        return DegenerationGraph(_SIMPLY_ELLIPTIC_NODES, _SIMPLY_ELLIPTIC_EDGES)
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


# -- expected dimensions -------------------------------------------------------------


def expected_dimension(a: int, b: int, c: int, d: int) -> int:
    return 36 - 9 * a - 10 * b - 8 * c - 9 * d


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
                not (label.b or label.d),
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
