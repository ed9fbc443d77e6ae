"""Exact sparse multivariate polynomials over the rationals.

Terms are stored as a dict from exponent tuples to nonzero Fractions and
iterated in descending graded reverse lexicographic order, so printed output
and derived bases are reproducible bit for bit.  Parameter rings such as
QQ[t][x,y,z] are handled with a flat variable frame (x, y, z, t, ...) plus
coefficient-grouping views; there is never any floating point.

Two kernels carry most of the work.  A product writes each operand's terms
as integer numerators over the lcm of its denominators, sums the products of
numerators as ints for each exponent, and makes one reduced Fraction per
nonzero result term.  Division by one polynomial keeps a single working dict
and a heap of its exponents that pops the grevlex-leading one first; each
quotient term is subtracted in place, term by term of the divisor, so there
is no intermediate polynomial and no rescan for the leading term (Johnson
1974; Monagan and Pearce, CASC 2007).

A gcd is first tried by the heuristic gcd (Char, Geddes, Gonnet 1989) on
integer primitive parts: variables are evaluated at large integers down to
an integer gcd, the candidate is read back off its xi-adic digits and
accepted only after exact trial division into both inputs.  The primitive
remainder sequence remains the fallback; both give the same normalised gcd.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, ge, sub
from typing import Mapping, Sequence


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

    def coeff_of(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name^k, kept in this frame with name's exponent 0."""
        i = self.vars.index(name)
        return MultiPoly._of(self.vars, {exp[:i] + (0,) + exp[i + 1:]: c
                                         for exp, c in self.terms.items() if exp[i] == k})

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
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for e1, n1 in t1:
            for e2, n2 in t2:
                exp = tuple(map(add, e1, e2))
                acc[exp] = get(exp, 0) + n1 * n2
        den = d1 * d2
        return MultiPoly._of(self.vars, {exp: Fraction(n, den) for exp, n in acc.items() if n})

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
        i = self.vars.index(name)
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                new = list(exp)
                new[i] = e - 1
                key = tuple(new)
                s = terms.get(key, Fraction(0)) + c * e
                if s == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = s
        return MultiPoly._of(self.vars, terms)

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        missing = self.support_vars() - set(values)
        if missing:
            raise VariableMismatch(f"no values for {sorted(missing)}")
        total = Fraction(0)
        vals = [Fraction(values.get(v, 0)) for v in self.vars]
        for exp, c in self.terms.items():
            t = c
            for val, e in zip(vals, exp):
                if e:
                    t *= val ** e
            total += t
        return total

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
        result = MultiPoly(target_vars)
        # Horner-free expansion with cached powers; fine at the sizes in play.
        powers: list[dict[int, MultiPoly]] = [{0: MultiPoly.const(target_vars, 1)} for _ in self.vars]
        for exp, c in self.sorted_terms():
            term = MultiPoly.const(target_vars, c)
            for i, e in enumerate(exp):
                if e:
                    cache = powers[i]
                    if e not in cache:
                        k = max(k for k in cache if k <= e)
                        p = cache[k]
                        while k < e:
                            p = p * images[i]
                            k += 1
                            cache[k] = p
                    term = term * cache[e]
            result = result + term
        return result

    def rename(self, target_vars: Sequence[str]) -> "MultiPoly":
        """Re-express in a different frame, each variable under its own name."""
        target_vars = tuple(target_vars)
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

    def _numerators(self) -> tuple[list[tuple[tuple[int, ...], int]], int]:
        """Terms as integer numerators over the lcm of the denominators, and that lcm."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return [(exp, c.numerator * (den // c.denominator)) for exp, c in self.terms.items()], den

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

    def divisor_power(self, divisor: "MultiPoly") -> tuple[int, "MultiPoly"]:
        """The largest k with divisor^k dividing this nonzero polynomial, and
        the quotient by divisor^k."""
        k, f = 0, self
        while True:
            q, r = f.divmod_by(divisor)
            if r:
                return k, f
            k, f = k + 1, q

    def divides(self, other: "MultiPoly") -> bool:
        q, r = other.divmod_by(self)
        return r.is_zero()

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        q, r = self.divmod_by(divisor)
        if not r.is_zero():
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
    h = _heu_gcd(_integer_primitive(f), _integer_primitive(g))
    if h is None:
        return _prs_gcd(f, g)
    if h[max(h, key=grevlex_key)] < 0:
        h = {e: -c for e, c in h.items()}
    return MultiPoly._of(f.vars, {e: Fraction(c) for e, c in h.items()})


def _integer_primitive(p: MultiPoly) -> dict[tuple[int, ...], int]:
    """The terms of a nonzero polynomial scaled to coprime integers."""
    terms, _ = p._numerators()
    c = math.gcd(*(n for _, n in terms))
    return {e: n // c for e, n in terms}


def _heu_gcd(f: dict[tuple[int, ...], int], g: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int] | None:
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
            if _divides_int(h, f) and _divides_int(h, g):
                return {e: c * content for e, c in h.items()}
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_int(f: dict[tuple[int, ...], int], i: int, xi: int) -> dict[tuple[int, ...], int]:
    """f with its i-th variable set to xi, in the same frame."""
    powers = [1]
    for _ in range(max(e[i] for e in f)):
        powers.append(powers[-1] * xi)
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.items():
        k = e[:i] + (0,) + e[i + 1:]
        out[k] = out.get(k, 0) + c * powers[e[i]]
    return {e: c for e, c in out.items() if c}


def _interpolate_int(h: dict[tuple[int, ...], int], i: int, xi: int) -> dict[tuple[int, ...], int]:
    """The polynomial whose i-th variable carries the symmetric xi-adic digits
    of the coefficients of h (free of that variable)."""
    out: dict[tuple[int, ...], int] = {}
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


def _divides_int(d: dict[tuple[int, ...], int], f: dict[tuple[int, ...], int]) -> bool:
    """Whether the primitive integer polynomial d divides f exactly.

    Grevlex division as in `MultiPoly.divmod_by`, stopped at the first
    remainder term or non-integral quotient term: a primitive divisor of an
    integer polynomial leaves an integer quotient (Gauss's lemma)."""
    lexp = max(d, key=grevlex_key)
    lc = d[lexp]
    tail = [(e, c) for e, c in d.items() if e != lexp]
    work = dict(f)
    heap = [(-sum(e), e[::-1], e) for e in work]
    heapq.heapify(heap)
    while heap:
        exp = heapq.heappop(heap)[2]
        c = work.pop(exp, None)
        if c is None:
            continue
        if not all(map(ge, exp, lexp)):
            return False
        qc, r = divmod(c, lc)
        if r:
            return False
        diff = tuple(map(sub, exp, lexp))
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
    return True


def _prs_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd of two nonzero polynomials, not both constant, by the primitive
    polynomial remainder sequence; the fallback of `poly_gcd`."""
    used = f.support_vars() | g.support_vars()
    main = [v for v in f.vars if v in used][-1]
    if len(used) >= 2 and f.is_homogeneous() and g.is_homogeneous():
        return _homogeneous_gcd(f, g, f.vars.index(main))

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


def _homogeneous_gcd(f: MultiPoly, g: MultiPoly, i: int) -> MultiPoly:
    """gcd of two forms one variable down: with z the i-th variable,
    gcd(f, g) = z^min(ord_z f, ord_z g) * homogenise(gcd(f|z=1, g|z=1)).

    Homogenising keeps the coefficients and the grevlex leading term, so the
    result is primitive with a positive leading coefficient, as the gcd of
    the forms computed directly would be."""
    def at_one(p: MultiPoly) -> MultiPoly:
        # injective on the terms of a form, so no two terms collide
        return MultiPoly(p.vars, {exp[:i] + (0,) + exp[i + 1:]: c for exp, c in p.terms.items()})

    d = poly_gcd(at_one(f), at_one(g))
    top = d.total_degree() + min(min(exp[i] for exp in p.terms) for p in (f, g))
    return MultiPoly(f.vars, {exp[:i] + (top - sum(exp),) + exp[i + 1:]: c
                              for exp, c in d.terms.items()})


def pseudo_remainder(A: MultiPoly, B: MultiPoly, main: str) -> MultiPoly:
    """prem(A, B) in (R[rest])[main]:  lc(B)^(degA-degB+1) * A = Q*B + prem."""
    da = A.degree_in(main)
    db = B.degree_in(main)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if da < db:
        return A
    lb = B.coeff_of(main, db)
    i = A.vars.index(main)
    R = A
    for _ in range(da - db + 1):
        dr = R.degree_in(main)
        if dr < db or R.is_zero():
            R = R * lb
            continue
        # lc(R) * main^(dr - db), read off R by shifting exponents
        shifted = MultiPoly._of(R.vars, {exp[:i] + (dr - db,) + exp[i + 1:]: c
                                         for exp, c in R.terms.items() if exp[i] == dr})
        R = R * lb - shifted * B
    return R


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
    g = f.primitive()
    out = MultiPoly.const(f.vars, 1)
    for _, piece in squarefree_decomposition(g):
        out = out * piece
    return out.primitive()


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

    Computed by a subresultant remainder sequence, which is much faster than
    the determinant on the sizes appearing in curve analysis.
    """
    _check_resultant_args(f, g, main)
    A, B = f, g
    swapped = False
    if A.degree_in(main) < B.degree_in(main):
        A, B = B, A
        swapped = True
    one = MultiPoly.const(f.vars, 1)
    g_, h_ = one, one
    s = 1
    da, db = A.degree_in(main), B.degree_in(main)
    if swapped and (da * db) % 2 == 1:
        s = -s
    while True:
        da, db = A.degree_in(main), B.degree_in(main)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        R = pseudo_remainder(A, B, main)
        A = B
        if R.is_zero():
            return MultiPoly.zero(f.vars)
        denom = g_ * h_ ** delta
        B = R.exact_div(denom)
        g_ = A.coeff_of(main, A.degree_in(main))
        if delta > 0:
            h_ = (g_ ** delta).exact_div(h_ ** (delta - 1))
        if B.degree_in(main) <= 0:
            break
    # B is now constant in main (nonzero); finish Cohen's formula
    dA = A.degree_in(main)
    lB = B  # degree 0 in main
    h_ = (lB ** dA).exact_div(h_ ** (dA - 1)) if dA >= 1 else h_
    return h_ * s


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
        f = f.substitute({frame[1]: Fraction(1)}).rename((u,))
    if f.total_degree() <= 0:
        return roots, cofactor
    if f.total_degree() >= 2:
        f = squarefree_part(f)
    nums, _ = f._numerators()
    a = [0] * (f.total_degree() + 1)
    for (k,), c in nums:
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
