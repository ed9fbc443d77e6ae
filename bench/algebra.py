"""Small exact polynomial arithmetic used to generate and check inputs.

The benchmark builds its inputs and its ground truth with this module, never
with `octica`, so that a defect in the code under test cannot make a wrong
answer look right.  A polynomial is a dict from exponent tuples to Fractions;
all polynomials passed to one call have the same number of variables.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def nonzero(rng, bound: int) -> int:
    """A random integer in [-bound, bound] other than 0."""
    return rng.choice([k for k in range(-bound, bound + 1) if k])


def const(nvars: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * nvars: c} if c else {}


def linear(coeffs) -> dict:
    """The linear form sum(c_i * x_i)."""
    n = len(coeffs)
    return {tuple(1 if j == i else 0 for j in range(n)): Fraction(c)
            for i, c in enumerate(coeffs) if c}


def add(f: dict, g: dict, scale=1) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def power(f: dict, k: int, nvars: int) -> dict:
    out = const(nvars, 1)
    for _ in range(k):
        out = mul(out, f)
    return out


def product(factors, nvars: int) -> dict:
    out = const(nvars, 1)
    for f in factors:
        out = mul(out, f)
    return out


def substitute(f: dict, images, nvars: int) -> dict:
    """f(images[0], images[1], ...) where each image is a polynomial in
    `nvars` variables."""
    powers = [{0: const(nvars, 1)} for _ in images]
    out: dict = {}
    for e, c in f.items():
        term = const(nvars, c)
        for i, k in enumerate(e):
            if k not in powers[i]:
                powers[i][k] = power(images[i], k, nvars)
            term = mul(term, powers[i][k])
        out = add(out, term)
    return out


def derivative(f: dict, i: int) -> dict:
    out = {}
    for e, c in f.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def evaluate(f: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in f.items():
        term = c
        for x, k in zip(point, e):
            term *= Fraction(x) ** k
        total += term
    return total


def degree(f: dict) -> int:
    return max((sum(e) for e in f), default=-1)


def primitive(f: dict) -> dict:
    """Integer coefficients without common factor, positive leading term."""
    if not f:
        return {}
    den = 1
    for c in f.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {e: int(c * den) for e, c in f.items()}
    g = 0
    for c in ints.values():
        g = gcd(g, c)
    lead = max(ints)
    sign = -1 if ints[lead] < 0 else 1
    return {e: Fraction(sign * c // g) for e, c in ints.items()}


def to_text(f: dict, names) -> str:
    """Expanded text that `octica.parsing.parse_poly` reads."""
    if not f:
        return "0"
    parts = []
    for e in sorted(f, key=lambda e: (-sum(e), [-k for k in e])):
        c = f[e]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        sign = "-" if c < 0 else "+"
        a = abs(c)
        coeff = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        if mono:
            body = mono if a == 1 else f"{coeff}*{mono}"
        else:
            body = coeff
        parts.append((sign, body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# -- projective plane -----------------------------------------------------------


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def dot(a, b):
    return sum(Fraction(x) * y for x, y in zip(a, b))


def normalize(p):
    """Canonical representative of a projective point or line: primitive
    integers, first nonzero entry positive."""
    p = [Fraction(x) for x in p]
    if not any(p):
        raise ValueError("zero vector is not a projective point")
    den = 1
    for x in p:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in p]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def det3(m) -> Fraction:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def adjugate3(m):
    """adj(m), so that m * adj(m) = det(m) * I."""
    cols = [cross(m[1], m[2]), cross(m[2], m[0]), cross(m[0], m[1])]
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def mat_vec(m, v):
    return tuple(sum(Fraction(m[i][j]) * v[j] for j in range(3)) for i in range(3))


def row_mat(v, m):
    return tuple(sum(Fraction(v[i]) * m[i][j] for i in range(3)) for j in range(3))


def conic_matrix(q: dict):
    """Symmetric matrix of a ternary quadratic form."""
    m = [[Fraction(0)] * 3 for _ in range(3)]
    for e, c in q.items():
        idx = [i for i in range(3) for _ in range(e[i])]
        i, j = idx
        if i == j:
            m[i][i] += c
        else:
            m[i][j] += c / 2
            m[j][i] += c / 2
    return m


def restrict_to_line(f: dict, p, r) -> list:
    """Coefficients in s of f(p + s*r), constant term first."""
    n = degree(f)
    out = [Fraction(0)] * (n + 1)
    for e, c in f.items():
        poly = [c]
        for i, k in enumerate(e):
            for _ in range(k):
                nxt = [Fraction(0)] * (len(poly) + 1)
                for j, a in enumerate(poly):
                    nxt[j] += a * p[i]
                    nxt[j + 1] += a * r[i]
                poly = nxt
        for j, a in enumerate(poly):
            out[j] += a
    return out


def rank_mod(rows, p: int = (1 << 61) - 1) -> int:
    """Rank modulo the prime p of a matrix of integers.  It never exceeds the
    rank over Q, so a full rank mod p proves full rank over Q."""
    rows = [[int(x) % p for x in r] for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def local_expansion(f: dict, p, r, q) -> dict:
    """f(p + s*r + t*q) as a polynomial in (s, t): the germ of the curve f = 0
    at p in the affine chart spanned by the directions r and q.  The line
    through p and r is t = 0."""
    images = [{e: Fraction(c) for e, c in (((0, 0), p[k]), ((1, 0), r[k]), ((0, 1), q[k])) if c}
              for k in range(3)]
    return substitute(f, images, 2)


def proportional(f: dict, g: dict) -> bool:
    """Whether f = c*g for a nonzero constant c."""
    if set(f) != set(g) or not f:
        return False
    e0 = next(iter(f))
    c = f[e0] / g[e0]
    return all(f[e] == c * g[e] for e in f)


# -- binary forms ---------------------------------------------------------------


def _trim(h: list) -> list:
    while h and not h[-1]:
        h = h[:-1]
    return h


def _rem(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, x in enumerate(b):
            a[shift + i] -= c * x
        a = _trim(a)
    return a


def _gcd(a: list, b: list) -> list:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _rem(a, b)
    return a


def max_root_multiplicity(coeffs) -> int:
    """The largest multiplicity of a linear factor (over C) of the nonzero
    binary form sum(coeffs[j] * s^(d-j) * t^j), d = len(coeffs) - 1."""
    d = len(coeffs) - 1
    h = _trim([Fraction(c) for c in coeffs])      # the form at s = 1, as a polynomial in t
    if not h:
        raise ValueError("zero binary form")
    at_infinity = d - (len(h) - 1)                 # multiplicity of the factor s
    # a root of h of multiplicity k is a root of h, h', ..., h^(k-1)
    k, g, deriv = 1, h, h
    while True:
        deriv = [i * c for i, c in enumerate(deriv)][1:]
        g = _gcd(g, deriv)
        if len(g) <= 1:
            return max(k, at_infinity)
        k += 1
