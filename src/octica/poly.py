"""Exact sparse multivariate polynomials over the rationals.

Terms are stored as a dict from exponent tuples to nonzero Fractions and
iterated in descending graded reverse lexicographic order, so printed output
and derived bases are reproducible bit for bit.  Parameter rings such as
QQ[t][x,y,z] are handled with a flat variable frame (x, y, z, t, ...) plus
coefficient-grouping views; there is never any floating point.

The kernels work on integer numerators: an operand's terms are written once
as ints over the lcm of its denominators, the work is done in Python ints,
and each nonzero result term becomes one reduced Fraction.  A product sums
the products of numerators for each exponent.  A substitution keeps one
table of integer powers per variable image and scales every term to a
common denominator; an evaluation does the same with the powers of each
value and makes one Fraction in all.  Exact division (`exact_div`, `divides`,
`divisor_power`) divides integer primitive parts, whose quotient is integral
by Gauss's lemma, and the contents apart.  A pseudo-remainder and the
subresultant sequence of a resultant run on the numerators and scale back at
the end.  Division runs on a single working dict and a heap of its exponents
that pops the grevlex-leading one first; each quotient term is subtracted in
place, term by term of the divisor, so there is no intermediate polynomial
and no rescan for the leading term (Johnson 1974; Monagan and Pearce, CASC
2007).  `divmod_by`, the one division that returns a remainder, does this
in Fractions.

A gcd is first tried by the heuristic gcd (Char, Geddes, Gonnet 1989) on
integer primitive parts: variables are evaluated at large integers down to
an integer gcd, the candidate is read back off its xi-adic digits and
accepted only after exact trial division into both inputs (a unit candidate
divides them trivially and is accepted at once).  The primitive remainder
sequence remains the fallback; both give the same normalised gcd.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, ge, sub
from typing import Mapping, Sequence

# A polynomial of the integer kernels: exponent tuple -> nonzero int.
_Ints = dict[tuple[int, ...], int]


class VariableMismatch(ValueError):
    """Raised when two polynomials disagree on their variable frame."""


def grevlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key so that sorting descending yields grevlex order, x > y > z."""
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.vars: tuple[str, ...] = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            nv = len(self.vars)
            for exp, c in terms.items():
                if len(exp) != nv:
                    raise VariableMismatch(f"exponent {exp} does not fit frame {self.vars}")
                c = Fraction(c)
                if c != 0:
                    clean[tuple(exp)] = c
        self.terms: dict[tuple[int, ...], Fraction] = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
        """Wrap terms that are already clean (nonzero Fractions) without copying."""
        out = MultiPoly.__new__(MultiPoly)
        out.vars = variables
        out.terms = terms
        return out

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables)

    @staticmethod
    def const(variables: Sequence[str], c) -> "MultiPoly":
        c = Fraction(c)
        if c == 0:
            return MultiPoly(variables)
        return MultiPoly(variables, {(0,) * len(variables): c})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise VariableMismatch(f"unknown variable {name!r} in frame {variables}")
        exp = tuple(1 if v == name else 0 for v in variables)
        return MultiPoly(variables, {exp: Fraction(1)})

    @staticmethod
    def monomial(variables: Sequence[str], exponents: Sequence[int]) -> "MultiPoly":
        return MultiPoly(variables, {tuple(exponents): Fraction(1)})

    @staticmethod
    def linear(variables: Sequence[str], coeffs: Sequence) -> "MultiPoly":
        """The linear form sum coeffs[i] * variables[i]."""
        n = len(variables)
        return MultiPoly(variables, {tuple(int(k == i) for k in range(n)): c for i, c in enumerate(coeffs)})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        if not self.terms:
            return -1
        return max(exp[i] for exp in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(exp) for exp in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grevlex_key)
        return exp, self.terms[exp]

    def coeff(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def support_vars(self) -> set[str]:
        used: set[str] = set()
        for exp in self.terms:
            for v, e in zip(self.vars, exp):
                if e:
                    used.add(v)
        return used

    # -- ring operations ----------------------------------------------

    def _check_frame(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise VariableMismatch(f"frames differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        self._check_frame(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return MultiPoly._of(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.vars, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return MultiPoly(self.vars)
            return MultiPoly._of(self.vars, {exp: cc * c for exp, cc in self.terms.items()})
        self._check_frame(other)
        t1, d1 = self._numerators()
        t2, d2 = other._numerators()
        return _over(self.vars, _addmul({}, t1, t2), d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and evaluation --------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        """The partial derivative; lowering one exponent maps the terms that
        survive one to one, so no two of them collide."""
        i = self.vars.index(name)
        terms, den = self._numerators()
        return _over(self.vars, {e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * n
                                 for e, n in terms.items() if e[i]}, den)

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """The value at a point, summed in ints: with each value written as
        a/b and E the top exponent of its variable, a term contributes
        a^e * b^(E - e) over the common denominator b^E."""
        terms, den = self._numerators()
        tables = []
        for k, v in enumerate(self.vars):
            top = max((e[k] for e in terms), default=0)
            if not top:
                continue
            if v not in values:
                raise VariableMismatch(f"no values for {sorted(self.support_vars() - set(values))}")
            val = Fraction(values[v])
            a, b = val.numerator, val.denominator
            tables.append((k, [a ** j * b ** (top - j) for j in range(top + 1)]))
            den *= b ** top
        total = 0
        for exp, n in terms.items():
            for k, table in tables:
                n *= table[exp[k]]
            total += n
        return Fraction(total, den)

    def substitute(self, mapping: Mapping[str, "MultiPoly | Fraction | int"],
                   target_vars: Sequence[str] | None = None) -> "MultiPoly":
        """Ring homomorphism sending each variable to a polynomial or constant.

        Variables absent from `mapping` are sent to the variable of the same
        name in the target frame.  The target frame defaults to this frame.
        """
        if target_vars is None:
            target_vars = self.vars
        target_vars = tuple(target_vars)
        images: list[MultiPoly] = []
        for v in self.vars:
            img = mapping.get(v, None)
            if img is None:
                images.append(MultiPoly.var(target_vars, v))
            elif isinstance(img, MultiPoly):
                if img.vars != target_vars:
                    raise VariableMismatch(f"image of {v} uses frame {img.vars}, expected {target_vars}")
                images.append(img)
            else:
                images.append(MultiPoly.const(target_vars, img))
        terms, den = self._numerators()
        products = _monomial_images(images, terms)
        # every term over the common denominator of its monomial's image
        common = math.lcm(*(d for _, d in products))
        acc: _Ints = {}
        get = acc.get
        for n, (image, d) in zip(terms.values(), products):
            n *= common // d
            for exp, c in image.items():
                acc[exp] = get(exp, 0) + n * c
        return _over(target_vars, acc, den * common)

    def rename(self, target_vars: Sequence[str]) -> "MultiPoly":
        """Re-express in a different frame, each variable under its own name."""
        target_vars = tuple(target_vars)
        if target_vars == self.vars:
            return self
        idx = []
        for v in self.vars:
            if v not in target_vars:
                if self.degree_in(v) > 0:
                    raise VariableMismatch(f"variable {v} has no home in {target_vars}")
                idx.append(None)
            else:
                idx.append(target_vars.index(v))
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            new = [0] * len(target_vars)
            for e, j in zip(exp, idx):
                if e:
                    new[j] += e
            key = tuple(new)
            s = terms.get(key, Fraction(0)) + c
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return MultiPoly(target_vars, terms)

    # -- views ---------------------------------------------------------

    def coefficients_in(self, subvars: Sequence[str]) -> dict[tuple[int, ...], "MultiPoly"]:
        """Group terms by exponents in `subvars`; values live in the rest."""
        subvars = tuple(subvars)
        sub_idx = [self.vars.index(v) for v in subvars]
        rest = tuple(v for v in self.vars if v not in subvars)
        rest_idx = [self.vars.index(v) for v in rest]
        out: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for exp, c in self.terms.items():
            key = tuple(exp[i] for i in sub_idx)
            rexp = tuple(exp[i] for i in rest_idx)
            out.setdefault(key, {})[rexp] = c
        return {k: MultiPoly(rest, v) for k, v in out.items()}

    # -- content, division, gcd ---------------------------------------

    def _numerators(self) -> tuple[_Ints, int]:
        """Terms as integer numerators over the lcm of the denominators, and that lcm."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return {exp: c.numerator * (den // c.denominator) for exp, c in self.terms.items()}, den

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c integer, primitive; sign from the leading term."""
        if not self.terms:
            return Fraction(1)
        coeffs = self.terms.values()
        c = Fraction(math.gcd(*(c.numerator for c in coeffs)), math.lcm(*(c.denominator for c in coeffs)))
        if self.leading_term()[1] < 0:
            c = -c
        return c

    def primitive(self) -> "MultiPoly":
        """Integer, coprime coefficients, positive leading coefficient."""
        if not self.terms:
            return self
        return self * (1 / self.rational_content())

    def divmod_by(self, divisor: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        """Single-divisor division with respect to grevlex; f = q*g + r and no
        term of r is divisible by the leading monomial of g."""
        self._check_frame(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lexp, lc = divisor.leading_term()
        tail = [(e, c) for e, c in divisor.terms.items() if e != lexp]
        # the working terms, and a heap of their exponents that pops the
        # grevlex-largest first; an exponent that has cancelled is skipped
        work = dict(self.terms)
        heap = [(-sum(e), e[::-1], e) for e in work]
        heapq.heapify(heap)
        q: dict[tuple[int, ...], Fraction] = {}
        r: dict[tuple[int, ...], Fraction] = {}
        while heap:
            exp = heapq.heappop(heap)[2]
            c = work.pop(exp, None)
            if c is None:
                continue
            if not all(map(ge, exp, lexp)):
                r[exp] = c
                continue
            diff = tuple(map(sub, exp, lexp))
            qc = c / lc
            q[diff] = qc
            for e, dc in tail:
                m = tuple(map(add, diff, e))
                s = work.get(m)
                if s is None:
                    work[m] = -qc * dc
                    heapq.heappush(heap, (-sum(m), m[::-1], m))
                else:
                    s -= qc * dc
                    if s:
                        work[m] = s
                    else:
                        del work[m]
        return MultiPoly._of(self.vars, q), MultiPoly._of(self.vars, r)

    def _quotient(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """self / divisor when the division is exact, else None.

        The integer primitive parts divide by `_div_int` and the contents
        apart: a primitive divisor of an integer polynomial leaves an integer
        quotient (Gauss's lemma)."""
        self._check_frame(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        f, nf, df = _integer_primitive(self)
        g, ng, dg = _integer_primitive(divisor)
        q = _div_int(g, f)
        return None if q is None else _over(self.vars, q, df * ng, nf * dg)

    def divisor_power(self, divisor: "MultiPoly") -> tuple[int, "MultiPoly"]:
        """The largest k with divisor^k dividing this nonzero polynomial, and
        the quotient by divisor^k; the divisor must be nonconstant."""
        self._check_frame(divisor)
        if divisor.is_constant():
            raise ValueError("divisor must be nonconstant")
        if self.is_zero():
            raise ValueError("dividend must be nonzero")
        f, nf, df = _integer_primitive(self)
        g, ng, dg = _integer_primitive(divisor)
        k = 0
        while (q := _div_int(g, f)) is not None:
            k, f = k + 1, q
        return k, _over(self.vars, f, df * ng ** k, nf * dg ** k)

    def divides(self, other: "MultiPoly") -> bool:
        return other._quotient(self) is not None

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        q = self._quotient(divisor)
        if q is None:
            raise ValueError("division is not exact")
        return q

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


# -- free functions -----------------------------------------------------


def monomial_basis(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, in canonical order."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    exps: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            exps.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, num_vars)
    exps.sort(key=grevlex_key, reverse=True)
    return exps


# -- integer kernels ------------------------------------------------------
# The Fraction kernels write their operands as `_Ints` once, work in ints
# and make one Fraction per result term (`_over`).


# One copy of each exponent tuple that a kernel output keeps, shared by all
# polynomials, so that kept results do not each hold their own.
_EXPONENTS: dict[tuple[int, ...], tuple[int, ...]] = {}
_shared = _EXPONENTS.setdefault


def _over(frame: tuple[str, ...], terms: _Ints, den: int, num: int = 1) -> MultiPoly:
    """The polynomial with the coefficients num*c/den for the integer terms c."""
    return MultiPoly._of(frame, {_shared(e, e): Fraction(num * c, den) for e, c in terms.items() if c})


def _addmul(acc: _Ints, a: _Ints, b: _Ints) -> _Ints:
    """acc + a*b, in place; cancelled terms stay in acc as zeros."""
    get = acc.get
    for e1, n1 in a.items():
        for e2, n2 in b.items():
            exp = tuple(map(add, e1, e2))
            acc[exp] = get(exp, 0) + n1 * n2
    return acc


def _mul_int(a: _Ints, b: _Ints) -> _Ints:
    return {e: c for e, c in _addmul({}, a, b).items() if c}


def _pow_int(a: _Ints, k: int, one: _Ints) -> _Ints:
    out = one
    for _ in range(k):
        out = _mul_int(out, a)
    return out


def _degree_int(a: _Ints, i: int) -> int:
    return max((e[i] for e in a), default=-1)


def _monomial_images(images: Sequence[MultiPoly], exps) -> list[tuple[_Ints, int]]:
    """For each exponent e, the integer numerators N and the denominator d of
    prod images[i]**e[i] = N/d.

    Each image's powers are one integer table over the powers of its
    denominator, and exponents with a common prefix share its product."""
    nums = [img._numerators() for img in images]
    one = {(0,) * len(images[0].vars): 1}
    tables: list[list[_Ints]] = [[one] for _ in images]
    prefixes: dict[tuple[int, ...], tuple[_Ints, int]] = {}
    out = []
    for exp in exps:
        product, den = one, 1
        for k in range(len(exp)):
            e = exp[k]
            if not e:
                continue
            key = exp[:k + 1]
            hit = prefixes.get(key)
            if hit is None:
                table, (n, d) = tables[k], nums[k]
                while len(table) <= e:
                    table.append(_mul_int(table[-1], n))
                hit = prefixes[key] = (table[e] if product is one else _mul_int(product, table[e]),
                                       den * d ** e)
            product, den = hit
        out.append((product, den))
    return out


def _prem_int(A: _Ints, B: _Ints, i: int) -> _Ints:
    """prem(A, B) in the i-th variable for integer polynomials, B of degree
    db >= 0 in it: lc(B)^(degA-db+1) * A = Q*B + prem, and A itself when
    degA < db."""
    da, db = _degree_int(A, i), _degree_int(B, i)
    lb = {e[:i] + (0,) + e[i + 1:]: c for e, c in B.items() if e[i] == db}
    R = A
    for _ in range(da - db + 1):
        dr = _degree_int(R, i)
        if dr < db:
            R = _mul_int(R, lb)
            continue
        # -lc(R) * main^(dr - db), read off R by shifting exponents
        shifted = {e[:i] + (dr - db,) + e[i + 1:]: -c for e, c in R.items() if e[i] == dr}
        R = {e: c for e, c in _addmul(_addmul({}, R, lb), shifted, B).items() if c}
    return R


# Tries of the heuristic gcd before poly_gcd falls back to the remainder
# sequence; each try grows the evaluation point as Char, Geddes and Gonnet do.
_HEU_GCD_TRIES = 6


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Primitive gcd over Q, positive leading coefficient; deterministic.

    The heuristic gcd (Char, Geddes, Gonnet 1989) runs first on the integer
    primitive parts and returns only a candidate that divides both exactly;
    after _HEU_GCD_TRIES failed tries the primitive remainder sequence
    (`_prs_gcd`) decides.  Both give the one normalised gcd."""
    if f.vars != g.vars:
        raise VariableMismatch(f"frames differ: {f.vars} vs {g.vars}")
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    if f.is_constant() and g.is_constant():
        return MultiPoly.const(f.vars, 1)
    h = _heu_gcd(_integer_primitive(f)[0], _integer_primitive(g)[0])
    if h is None:
        return _prs_gcd(f, g)
    if h[max(h, key=grevlex_key)] < 0:
        h = {e: -c for e, c in h.items()}
    return MultiPoly._of(f.vars, {e: Fraction(c) for e, c in h.items()})


def _integer_primitive(p: MultiPoly) -> tuple[_Ints, int, int]:
    """The terms of a nonzero polynomial scaled to coprime integers, and the
    positive content num/den that p is those terms times."""
    terms, den = p._numerators()
    c = math.gcd(*terms.values())
    return {e: n // c for e, n in terms.items()}, c, den


def _heu_gcd(f: _Ints, g: _Ints) -> _Ints | None:
    """gcd over Z of two nonzero integer polynomials (exponent -> coefficient),
    or None when _HEU_GCD_TRIES evaluation points give no certified candidate.

    The last variable either uses is evaluated at an integer xi, the gcd of
    the images is taken one variable down, and the candidate is read off its
    symmetric xi-adic digits.  With xi >= 2*min(|f|, |g|) + 2 a primitive
    candidate that divides both inputs exactly is their gcd (Char, Geddes,
    Gonnet 1989, the theorem behind GCDHEU)."""
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    content = math.gcd(cf, cg)
    zero = (0,) * len(next(iter(f)))
    if f.keys() == {zero} or g.keys() == {zero}:
        return {zero: content}
    i = max(k for k in range(len(zero)) if any(e[k] for e in f) or any(e[k] for e in g))
    f = {e: c // cf for e, c in f.items()}
    g = {e: c // cg for e, c in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_GCD_TRIES):
        ff, gg = _evaluate_int(f, i, xi), _evaluate_int(g, i, xi)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            h = _interpolate_int(h, i, xi)
            ch = math.gcd(*h.values())
            h = {e: c // ch for e, c in h.items()}
            # a unit divides both inputs, so it passes the test untried
            if h.keys() == {zero} or _div_int(h, f) is not None and _div_int(h, g) is not None:
                return {e: c * content for e, c in h.items()}
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_int(f: _Ints, i: int, xi: int) -> _Ints:
    """f with its i-th variable set to xi, in the same frame."""
    powers = [1]
    for _ in range(max(e[i] for e in f)):
        powers.append(powers[-1] * xi)
    out: _Ints = {}
    for e, c in f.items():
        k = e[:i] + (0,) + e[i + 1:]
        out[k] = out.get(k, 0) + c * powers[e[i]]
    return {e: c for e, c in out.items() if c}


def _interpolate_int(h: _Ints, i: int, xi: int) -> _Ints:
    """The polynomial whose i-th variable carries the symmetric xi-adic digits
    of the coefficients of h (free of that variable)."""
    out: _Ints = {}
    half = xi // 2
    k = 0
    while h:
        rest = {}
        for e, c in h.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e[:i] + (k,) + e[i + 1:]] = d
            c = (c - d) // xi
            if c:
                rest[e] = c
        h, k = rest, k + 1
    return out


def _div_int(d: _Ints, f: _Ints) -> _Ints | None:
    """The quotient f/d of two integer polynomials when it exists and has
    integer coefficients, else None; d is nonzero.

    Grevlex division as in `MultiPoly.divmod_by`, stopped at the first
    remainder term or non-integral quotient term.  An exact quotient is
    integral when d is primitive (Gauss's lemma), or when it is a quotient of
    the subresultant sequence, so there None means that d does not divide f."""
    lexp = max(d, key=grevlex_key)
    lc = d[lexp]
    tail = [(e, c) for e, c in d.items() if e != lexp]
    work = dict(f)
    heap = [(-sum(e), e[::-1], e) for e in work]
    heapq.heapify(heap)
    q: _Ints = {}
    while heap:
        exp = heapq.heappop(heap)[2]
        c = work.pop(exp, None)
        if c is None:
            continue
        if not all(map(ge, exp, lexp)):
            return None
        qc, r = divmod(c, lc)
        if r:
            return None
        diff = tuple(map(sub, exp, lexp))
        q[diff] = qc
        for e, dc in tail:
            m = tuple(map(add, diff, e))
            s = work.get(m)
            if s is None:
                work[m] = -qc * dc
                heapq.heappush(heap, (-sum(m), m[::-1], m))
            elif s != qc * dc:
                work[m] = s - qc * dc
            else:
                del work[m]
    return q


def _prs_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd of two nonzero polynomials, not both constant, by the primitive
    polynomial remainder sequence; the fallback of `poly_gcd`."""
    used = f.support_vars() | g.support_vars()
    main = [v for v in f.vars if v in used][-1]

    def content_wrt(p: MultiPoly) -> MultiPoly:
        coeffs = list(p.coefficients_in((main,)).items())
        rest_frame = coeffs[0][1].vars
        c = MultiPoly.zero(rest_frame)
        for _, cp in sorted(coeffs):
            c = poly_gcd(c, cp)
            if c.is_constant() and not c.is_zero():
                break
        return c

    cf = content_wrt(f)
    cg = content_wrt(g)
    cc = poly_gcd(cf, cg).rename(f.vars)
    A = f.exact_div(cf.rename(f.vars))
    B = g.exact_div(cg.rename(f.vars))
    if A.degree_in(main) < B.degree_in(main):
        A, B = B, A
    # primitive polynomial remainder sequence on the main-primitive parts
    while not B.is_zero():
        if B.degree_in(main) <= 0:
            # remainder free of the main variable: the primitive parts are coprime
            A = MultiPoly.const(f.vars, 1)
            break
        R = pseudo_remainder(A, B, main)
        A, B = B, (R.primitive() if not R.is_zero() else R)
    if not A.is_constant() and A.degree_in(main) > 0:
        A = A.exact_div(content_wrt(A).rename(f.vars))
    return (cc * A.primitive()).primitive()


def pseudo_remainder(A: MultiPoly, B: MultiPoly, main: str) -> MultiPoly:
    """prem(A, B) in (R[rest])[main]:  lc(B)^(degA-degB+1) * A = Q*B + prem.

    Computed on the integer numerators: with A = NA/a and B = NB/b,
    prem(A, B) = prem(NA, NB) / (a * b^(degA-degB+1))."""
    A._check_frame(B)
    da = A.degree_in(main)
    db = B.degree_in(main)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if da < db:
        return A
    na, a = A._numerators()
    nb, b = B._numerators()
    return _over(A.vars, _prem_int(na, nb, A.vars.index(main)), a * b ** (da - db + 1))


def squarefree_decomposition(f: MultiPoly) -> list[tuple[int, MultiPoly]]:
    """f = c * prod piece_i^i with each piece squarefree, pairwise coprime.

    Returns [(i, piece_i)] for the non-constant pieces, sorted by multiplicity.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no squarefree decomposition")
    h = f.primitive()
    pieces: list[tuple[int, MultiPoly]] = []
    mult = 0
    prev_w: MultiPoly | None = None
    while h.total_degree() > 0:
        g = h
        for v in sorted(h.support_vars()):
            g = poly_gcd(g, h.derivative(v))
            if g.is_constant():
                break
        w = h.exact_div(g.rename(h.vars))  # product of the primes dividing h
        if prev_w is not None:
            piece = prev_w.exact_div(poly_gcd(prev_w, w).rename(h.vars)).primitive()
            if piece.total_degree() > 0:
                pieces.append((mult, piece))
        prev_w = w.primitive()
        mult += 1
        h = g.rename(h.vars).primitive()
    if prev_w is not None and prev_w.total_degree() > 0:
        pieces.append((mult, prev_w))
    pieces.sort(key=lambda t: (t[0], grevlex_key(t[1].leading_term()[0])))
    return pieces


def squarefree_part(f: MultiPoly) -> MultiPoly:
    """The product of the distinct prime factors of f, primitive with a
    positive leading coefficient: f over its gcd with all its partial
    derivatives, which over Q is the product of the primes to one power less."""
    if f.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    g = f.primitive()
    d = g
    for v in sorted(g.support_vars()):
        d = poly_gcd(d, g.derivative(v))
        if d.is_constant():
            return g
    return g.exact_div(d).primitive()


# -- resultants ----------------------------------------------------------


def _check_resultant_args(f: MultiPoly, g: MultiPoly, main: str) -> None:
    if f.vars != g.vars:
        raise VariableMismatch(f"frames differ: {f.vars} vs {g.vars}")
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined here")
    if f.degree_in(main) <= 0 or g.degree_in(main) <= 0:
        raise ValueError(f"both arguments must have positive degree in {main}")


def resultant(f: MultiPoly, g: MultiPoly, main: str) -> MultiPoly:
    """Resultant eliminating `main`, equal including sign to the determinant of
    the Sylvester matrix with the coefficients of f in the top rows.

    Computed by a subresultant remainder sequence on the integer numerators,
    which is much faster than the determinant on the sizes appearing in curve
    analysis: with f = F/a and g = G/b, Res(f, g) = Res(F, G) / (a^deg g * b^deg f).
    """
    _check_resultant_args(f, g, main)
    nf, a = f._numerators()
    ng, b = g._numerators()
    r = _resultant_int(nf, ng, f.vars.index(main))
    return _over(f.vars, r, a ** g.degree_in(main) * b ** f.degree_in(main))


def _resultant_int(A: _Ints, B: _Ints, i: int) -> _Ints:
    """Res(A, B) eliminating the i-th variable, for integer polynomials of
    positive degree in it, by Cohen's subresultant sequence; every division
    in it is exact over the integers."""
    one = {(0,) * len(next(iter(A))): 1}
    da, db = _degree_int(A, i), _degree_int(B, i)
    s = 1
    if da < db:
        A, B, da, db = B, A, db, da
        if da * db % 2:
            s = -s
    g, h = one, one
    while True:
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        R = _prem_int(A, B, i)
        A, da = B, db
        if not R:
            return {}
        B = _div_int(_mul_int(g, _pow_int(h, delta, one)), R)
        g = {e[:i] + (0,) + e[i + 1:]: c for e, c in A.items() if e[i] == da}
        if delta > 0:
            h = _div_int(_pow_int(h, delta - 1, one), _pow_int(g, delta, one))
        db = _degree_int(B, i)
        if db <= 0:
            break
    # B is now a nonzero constant in the variable; finish Cohen's formula
    h = _div_int(_pow_int(h, da - 1, one), _pow_int(B, da, one))
    return {e: s * c for e, c in h.items()}


# -- rational roots ------------------------------------------------------


def binary_roots(f: MultiPoly) -> tuple[list[tuple[Fraction, Fraction]], MultiPoly]:
    """Rational roots of a binary form f(u, v), as points (a : b), or of a
    polynomial f(u) in one variable, as points (r : 1); and the cofactor of f
    after one linear factor u - r*v (or u - r) per root is divided out.

    The root (1 : 0) comes first, and with it every power of v is divided
    out; the roots (r : 1) follow, sorted by r.  No integer is factored (Loos
    1983): the roots of the squarefree part of f(u, 1) modulo a prime p at
    which they are all simple are Newton-lifted until p^k exceeds
    2*|lead*a0|, which bounds lead*r for every rational root r, and each
    symmetric residue is checked exactly.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has every root")
    frame, u = f.vars, f.vars[0]
    roots: list[tuple[Fraction, Fraction]] = []
    cofactor = f
    if len(frame) == 2:
        kv = min(exp[1] for exp in f.terms)
        if kv > 0:
            roots.append((Fraction(1), Fraction(0)))
            cofactor = MultiPoly._of(frame, {(a, b - kv): c for (a, b), c in f.terms.items()})
        at_one: dict[tuple[int, ...], Fraction] = {}
        for (a, _), c in f.terms.items():
            at_one[(a,)] = at_one.get((a,), 0) + c
        f = MultiPoly((u,), at_one)
    if f.total_degree() <= 0:
        return roots, cofactor
    if f.total_degree() >= 2:
        f = squarefree_part(f)
    nums, _ = f._numerators()
    a = [0] * (f.total_degree() + 1)
    for (k,), c in nums.items():
        a[k] = c
    found = []
    if a[0] == 0:   # a squarefree or linear polynomial has u at most once
        found.append(Fraction(0))
        a = a[1:]
    if len(a) > 1:
        da = [k * c for k, c in enumerate(a)][1:]
        lead = a[-1]
        bound = 2 * abs(lead * a[0])
        p, residues = _simple_roots_mod_prime(a, da)
        for r in residues:
            m = p
            while m <= bound:
                m *= m
                r = (r - _horner(a, r, m) * pow(_horner(da, r, m), -1, m)) % m
            v = lead * r % m
            cand = Fraction(v - m if 2 * v > m else v, lead)
            if sum(c * cand ** k for k, c in enumerate(a)) == 0:
                found.append(cand)
    # the factor u - r*v, or u - r in one variable
    u_exp, v_exp = ((1, 0), (0, 1)) if len(frame) == 2 else ((1,), (0,))
    for r in sorted(found):
        roots.append((r, Fraction(1)))
        cofactor = cofactor.exact_div(MultiPoly(frame, {u_exp: 1, v_exp: -r}))
    return roots, cofactor


def _horner(a: list[int], r: int, m: int) -> int:
    """The polynomial with ascending coefficients a at r, modulo m."""
    v = 0
    for c in reversed(a):
        v = (v * r + c) % m
    return v


def _simple_roots_mod_prime(a: list[int], da: list[int]) -> tuple[int, list[int]]:
    """The first prime p not dividing the leading coefficient at which every
    root of a modulo p is simple, with those roots.

    Such a p exists when a is squarefree: any p dividing neither the leading
    coefficient nor the discriminant will do.
    """
    p = 1
    while True:
        p += 1
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)) or a[-1] % p == 0:
            continue
        residues = [r for r in range(p) if _horner(a, r, p) == 0]
        if all(_horner(da, r, p) for r in residues):
            return p, residues
