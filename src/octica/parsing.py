"""Text grammar for polynomial expressions.

Accepts sums of products of integer or rational literals (ASCII digits),
variables, powers and parenthesised subexpressions, e.g. "x^3 + x*y^3" or
"y*z - 2*x^2", with parentheses and unary minus signs nested at most
MAX_NESTING deep.  Errors carry the offending position.
"""
from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly

MAX_NESTING = 100
_DIGITS = "0123456789"


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0
        self.nesting = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
                self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", len(text)))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


class PolyParser:
    def __init__(self, variables):
        self.variables = tuple(variables)

    def parse(self, text: str) -> MultiPoly:
        tz = _Tokenizer(text)
        poly = self._expr(tz)
        kind, _, pos = tz.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return poly

    def _expr(self, tz) -> MultiPoly:
        sign = 1
        kind, _, _ = tz.peek()
        if kind in ("+", "-"):
            tok = tz.next()
            sign = -1 if tok[0] == "-" else 1
        total = self._term(tz) * sign
        while True:
            kind, _, _ = tz.peek()
            if kind in ("+", "-"):
                tz.next()
                term = self._term(tz)
                total = total + term if kind == "+" else total - term
            else:
                return total

    def _term(self, tz) -> MultiPoly:
        value = self._factor(tz)
        while True:
            kind, _, pos = tz.peek()
            if kind == "*":
                tz.next()
                value = value * self._factor(tz)
            elif kind == "/":
                tz.next()
                divisor = self._factor(tz)
                if not divisor.is_constant():
                    raise ParseError("division only by a constant", pos)
                c = divisor.constant_value()
                if c == 0:
                    raise ParseError("division by zero", pos)
                value = value * (Fraction(1) / c)
            elif kind in ("name", "int", "("):
                raise ParseError("missing operator", pos)
            else:
                return value

    def _factor(self, tz) -> MultiPoly:
        base = self._base(tz)
        kind, _, _ = tz.peek()
        if kind == "^":
            tz.next()
            ekind, etext, epos = tz.next()
            if ekind != "int":
                raise ParseError("exponent must be a nonnegative integer", epos)
            return base ** int(etext)
        return base

    def _base(self, tz) -> MultiPoly:
        kind, text, pos = tz.next()
        if kind == "int":
            return MultiPoly.const(self.variables, int(text))
        if kind == "name":
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}", pos)
            return MultiPoly.var(self.variables, text)
        if kind not in ("(", "-"):
            raise ParseError(f"unexpected token {text!r}", pos)
        if tz.nesting >= MAX_NESTING:
            raise ParseError("expression nested too deeply", pos)
        tz.nesting += 1
        if kind == "(":
            inner = self._expr(tz)
            ckind, _, cpos = tz.next()
            if ckind != ")":
                raise ParseError("expected ')'", cpos)
        else:
            inner = -self._base(tz)
        tz.nesting -= 1
        return inner


def parse_poly(text: str, variables=("x", "y", "z")) -> MultiPoly:
    return PolyParser(variables).parse(text)
