"""Parser and printer for intersection-class expressions.

Grammar: rational literals (``2``, ``4/3``), the tautological symbol ``z``,
the divisor symbols of the profile's basis, ``K`` for the canonical class
K_X = -c_1(T_X), operators ``+ - * ^`` and parentheses.
A numeric literal directly followed by a symbol or ``(`` multiplies it, so
printed forms like ``3z - H`` parse back to the same class.

Parentheses nest at most MAX_NESTING levels deep, so a hostile input is a
syntax error rather than a recursion overflow.

Offsets in error messages are 1-based character positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .chow import BaseProfile, PTClass, _require_profile, fraction_str

_TOKEN_RE = re.compile(r"\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9_]*|[-+*^()]")
MAX_NESTING = 100


class ExprSyntaxError(ValueError):
    """Syntax or symbol-resolution error, carrying a 1-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (offset {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "sym" | "op" | "end"
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {ch!r}", pos + 1)
        lexeme = match.group()
        if lexeme[0].isdigit():
            kind = "num"
        elif lexeme[0].isalpha():
            kind = "sym"
        else:
            kind = "op"
        tokens.append(_Token(kind, lexeme, pos + 1))
        pos = match.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, profile: BaseProfile, text: str) -> None:
        self.profile = profile
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self) -> PTClass:
        value = self.sum()
        token = self.peek()
        if token.kind != "end":
            raise ExprSyntaxError(f"unexpected {token.text!r}", token.position)
        return value

    def sum(self) -> PTClass:
        value = self.signed()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.signed()
            value = value + rhs if op == "+" else value - rhs
        return value

    def signed(self) -> PTClass:
        sign = 1
        while self.peek().text in ("+", "-"):
            if self.advance().text == "-":
                sign = -sign
        value = self.product()
        return value if sign > 0 else -value

    def product(self) -> PTClass:
        value = self.power()
        while True:
            token = self.peek()
            if token.text == "*":
                self.advance()
                value = value * self.power()
            elif token.kind in ("num", "sym") or token.text == "(":
                value = value * self.power()  # implicit multiplication
            else:
                return value

    def power(self) -> PTClass:
        base = self.atom()
        if self.peek().text == "^":
            self.advance()
            token = self.peek()
            if token.kind != "num" or "/" in token.text:
                raise ExprSyntaxError("exponent must be a non-negative integer",
                                      token.position)
            self.advance()
            base = base ** int(token.text)
        return base

    def atom(self) -> PTClass:
        token = self.advance()
        if token.kind == "num":
            try:
                value = Fraction(token.text)
            except ZeroDivisionError:
                raise ExprSyntaxError(f"zero denominator in {token.text!r}",
                                      token.position) from None
            return PTClass.one(self.profile) * value
        if token.kind == "sym":
            return self.resolve(token)
        if token.text == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING} levels",
                    token.position)
            self.depth += 1
            value = self.sum()
            closing = self.peek()
            if closing.text != ")":
                raise ExprSyntaxError("expected ')'", closing.position)
            self.advance()
            self.depth -= 1
            return value
        raise ExprSyntaxError(f"unexpected {token.text or 'end of input'!r}",
                              token.position)

    def resolve(self, token: _Token) -> PTClass:
        profile = self.profile
        if token.text == "z":
            return PTClass.zeta(profile)
        if token.text in profile.basis:
            return profile.symbol(token.text)
        if token.text == "K":
            return profile.canonical
        raise ExprSyntaxError(
            f"unknown symbol {token.text!r} for profile {profile.label!r}",
            token.position)


def parse_expr(profile: BaseProfile, text: str) -> PTClass:
    """Parse an expression into a class over the given profile."""
    return _Parser(profile, text).parse()


def format_class(profile: BaseProfile, cls: PTClass) -> str:
    """Canonical text form of a class; parses back to an equal class.

    Terms are ordered by descending zeta power, then descending base
    exponents, e.g. ``3z - H`` or ``z^5 + 6z^4*H``.
    """
    _require_profile(profile, cls)
    if cls.is_zero:
        return "0"
    pieces: list[str] = []
    for (zp, exps), coeff in sorted(cls.terms, reverse=True):
        factors: list[str] = []
        if zp:
            factors.append("z" if zp == 1 else f"z^{zp}")
        for name, e in zip(profile.basis, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        magnitude = abs(coeff)
        if factors:
            prefix = "" if magnitude == 1 else fraction_str(magnitude)
            body = prefix + "*".join(factors)
        else:
            body = fraction_str(magnitude)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)
