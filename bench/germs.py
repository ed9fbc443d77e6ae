"""Workload `germs`: classify every admissible normal form, moved by a seeded
invertible linear change of coordinates.

A round holds every normal form of the taxonomy once.  The request is what
`octica classify --curve` does: parse the text, classify the germ at the
origin.  The expected type and Milnor number come from the normal form.
"""
from __future__ import annotations

from fractions import Fraction

import algebra as A
from octica import parsing, singclass

NAMES = ("x", "y")


def _p(*terms) -> dict:
    out: dict = {}
    for t in terms:
        out = A.add(out, t)
    return out


def _mono(c, i, j) -> dict:
    return {(i, j): Fraction(c)} if c else {}


def normal_forms(rng) -> list[tuple[str, dict, int | None, int | None]]:
    """(type, germ, Milnor number, tabulated mu of a non-isolated type)."""
    out = []
    for n in range(1, 21):
        out.append((f"A{n}", _p(_mono(1, 2, 0), _mono(1, 0, n + 1)), n, None))
    for n in range(4, 13):
        out.append((f"D{n}", _p(_mono(1, 2, 1), _mono(1, 0, n - 1)), n, None))
    out += [("E6", _p(_mono(1, 3, 0), _mono(1, 0, 4)), 6, None),
            ("E7", _p(_mono(1, 3, 0), _mono(1, 1, 3)), 7, None),
            ("E8", _p(_mono(1, 3, 0), _mono(1, 0, 5)), 8, None)]
    for _ in range(3):
        # x^4 + l*x^2*y^2 + y^4 has four distinct tangents unless l^2 = 4
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(0, 9), rng.randint(1, 3))
        if lam * lam == 4:
            lam += 1
        out.append(("X9", _p(_mono(1, 4, 0), _mono(lam, 2, 2), _mono(1, 0, 4)), 9, None))
    for p in range(10, 15):
        out.append((f"X{p}", _p(_mono(1, 4, 0), _mono(1, 2, 2), _mono(1, 0, p - 5)), p, None))
    for r in range(1, 4):
        for s in range(r, 4):
            out.append((f"Y{r},{s}", _p(_mono(1, 4 + r, 0), _mono(1, 2, 2), _mono(1, 0, 4 + s)),
                        9 + r + s, None))
    for _ in range(2):
        # the blown-up cone t^3 + l*t^2 + 1 has distinct roots for rational l
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(0, 9), rng.randint(1, 3))
        out.append(("J10", _p(_mono(1, 3, 0), _mono(lam, 2, 2), _mono(1, 0, 6)), 10, None))
    for p in range(1, 6):
        out.append((f"J2,{p}", _p(_mono(1, 3, 0), _mono(1, 2, 2), _mono(1, 0, 6 + p)), 10 + p, None))
    out += [("Ainf", _mono(1, 2, 0), None, 0),
            ("Dinf", _mono(1, 2, 1), None, 1),
            ("J2inf", _p(_mono(1, 3, 0), _mono(1, 2, 2)), None, 4),
            ("Xinf", _p(_mono(1, 4, 0), _mono(1, 2, 2)), None, 5),
            ("Y1,inf", _p(_mono(1, 5, 0), _mono(1, 2, 2)), None, 6),
            ("Y2,inf", _p(_mono(1, 6, 0), _mono(1, 2, 2)), None, 7),
            ("Yinf,inf", _mono(1, 2, 2), None, 4)]
    return out


def _moved(germ: dict, rng) -> dict:
    # no zero entry, so no tangent of the normal form stays on an axis: the
    # classifier takes no shortcut a user's germ would not get
    while True:
        a, b, c, d = (A.nonzero(rng, 3) for _ in range(4))
        if a * d - b * c:
            break
    images = [A.linear((a, b)), A.linear((c, d))]
    return A.primitive(A.substitute(germ, images, 2))


def _requests(forms, rng, seen: set) -> list[dict]:
    out = []
    for name, germ, mu, table_mu in forms:
        while True:
            text = A.to_text(_moved(germ, rng), NAMES)
            if text not in seen:
                break
        seen.add(text)
        out.append({"kind": "germ", "input": text,
                    "expected": {"type": name, "milnor": mu, "table_mu": table_mu}})
    return out


def round_requests(rng, seen: set) -> list[dict]:
    requests = _requests(normal_forms(rng), rng, seen)
    rng.shuffle(requests)
    return requests


def warmup_request(rng, seen: set) -> dict:
    x9 = next(form for form in normal_forms(rng) if form[0] == "X9")
    return _requests([x9], rng, seen)[0]


def execute(request: dict):
    return singclass.classify(parsing.parse_poly(request["input"], variables=NAMES))


def check(request: dict, report) -> str | None:
    exp = request["expected"]
    got = (report.type_string(), report.milnor, report.table_mu)
    want = (exp["type"], exp["milnor"], exp["table_mu"])
    if got != want:
        return f"{request['input']}: got {got}, want {want}"
    return None
