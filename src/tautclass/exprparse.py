"""Parser and printer for intersection-class expressions.

Grammar: rational literals (``2``, ``4/3``), the tautological symbol ``z``,
the divisor symbols of the profile's basis, ``K`` for the canonical class
K_X = -c_1(T_X), ``c1`` .. ``cn`` for the Chern classes c_j(T_X) of an
n-dimensional profile (no leading zero), operators ``+ - * ^`` and
parentheses.
A numeric literal directly followed by a symbol or ``(`` multiplies it, so
printed forms like ``3z - H`` parse back to the same class.

In one product, numeric literals multiply into one Fraction that scales
the product once; the other factors, ``X^k`` counted as k factors, are
multiplied in one packed integer chain (``chow._product``), in which a
run of equal factors is one power.  A product that may have more than
``chow.MAX_TERMS`` terms by its a-priori bound raises before it is
expanded.  Before that, the sizes of its numeric literals and of its
powers' bases (for a class, its largest coefficient), each
ceil(log2 |numerator|) + ceil(log2 denominator) times the exponent, are
summed over the product; a sum above MAX_PRODUCT_BITS is a syntax error
at the factor that passes it, before anything cancels.  A class factor
without an exponent adds its own coefficients, which its own parse
bounded, and is not counted.  A sum adds its terms one by one.
Exponents are at most MAX_EXPONENT, the top degree 2n-1 of the largest
hypersurface profile, and their digits are counted before they are
converted, so a huge exponent is a syntax error at once.

Parentheses nest at most MAX_NESTING levels deep, so a hostile input is a
syntax error rather than a recursion overflow.

Offsets in error messages are 1-based character positions.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .chow import (BaseProfile, PTClass, _product, _require_profile,
                   fraction_str)
from .hypersurfaces import MAX_HYPERSURFACE_DIM

# One token per match, after any whitespace: the group that matched is its
# kind, and a non-space character that starts no token matches group 4.
_TOKEN_RE = re.compile(
    r"\s*(?:([0-9]+(?:/[0-9]+)?)|([A-Za-z][A-Za-z0-9_]*)|([-+*^()])|(\S))")
_KINDS = (None, "num", "sym", "op")
# c<j> with at most 9 digits, so int() never sees a huge digit string
_CHERN_RE = re.compile(r"c([1-9][0-9]{0,8})")
MAX_NESTING = 100
MAX_EXPONENT = 2 * MAX_HYPERSURFACE_DIM - 1
# The folded scalar, and each power of a base's largest coefficient, then
# has a numerator and a denominator of at most 14 001 bits, so at most 4215
# digits, within Python's 4300-digit print limit.
MAX_PRODUCT_BITS = 14_000


class ExprSyntaxError(ValueError):
    """Syntax or symbol-resolution error, carrying a 1-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (offset {position})")
        self.position = position


# A token is (kind, text, 1-based position); kind is "num", "sym", "op" or
# "end".
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group == 4:
            raise ExprSyntaxError(f"unexpected character {match[4]!r}",
                                  match.start(4) + 1)
        tokens.append((_KINDS[group], match[group], match.start(group) + 1))
    tokens.append(("end", "", len(text) + 1))
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
        kind, text, position = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", position)
        return value

    def sum(self) -> PTClass:
        value = self.signed()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.signed()
            value = value + rhs if op == "+" else value - rhs
        return value

    def signed(self) -> PTClass:
        sign = 1
        while self.peek()[1] in ("+", "-"):
            if self.advance()[1] == "-":
                sign = -sign
        value = self.product()
        return value if sign > 0 else -value

    def product(self) -> PTClass:
        factors: list[PTClass] = []
        scalar = 1
        bits = 0
        while True:
            start = self.index
            base, exponent = self.power()
            literal = isinstance(base, Fraction)
            if literal:
                bits += exponent * _size(base)
            elif exponent > 1:
                bits += exponent * max((_size(c) for _, c in base.terms),
                                       default=0)
            if bits > MAX_PRODUCT_BITS:
                raise ExprSyntaxError(
                    f"coefficients may exceed {MAX_PRODUCT_BITS} bits",
                    self.tokens[start][2])
            if literal:
                scalar *= base ** exponent
            else:
                factors.extend([base] * exponent)
            kind, text, _ = self.peek()
            if text == "*":
                self.advance()
            elif kind not in ("num", "sym") and text != "(":
                value = _product(self.profile, factors)
                return value if scalar == 1 else value * scalar

    def power(self) -> tuple[PTClass | Fraction, int]:
        """One atom and its exponent, 1 without ``^``."""
        base = self.atom()
        if self.peek()[1] != "^":
            return base, 1
        self.advance()
        kind, text, position = self.peek()
        if kind != "num" or "/" in text:
            raise ExprSyntaxError("exponent must be a non-negative integer",
                                  position)
        # 4000 digits convert at once, within Python's int-string limit
        if len(text) > 4000 or int(text) > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent exceeds {MAX_EXPONENT}", position)
        self.advance()
        return base, int(text)

    def atom(self) -> PTClass | Fraction:
        """A class, or a Fraction for a numeric literal."""
        kind, text, position = self.advance()
        if kind == "num":
            numerator, _, denominator = text.partition("/")
            try:
                return Fraction(int(numerator), int(denominator or "1"))
            except ZeroDivisionError:
                raise ExprSyntaxError(f"zero denominator in {text!r}",
                                      position) from None
        if kind == "sym":
            return self.resolve(text, position)
        if text == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING} levels",
                    position)
            self.depth += 1
            value = self.sum()
            _, closing, closing_position = self.peek()
            if closing != ")":
                raise ExprSyntaxError("expected ')'", closing_position)
            self.advance()
            self.depth -= 1
            return value
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}",
                              position)

    def resolve(self, text: str, position: int) -> PTClass:
        profile = self.profile
        if text == "z":
            return PTClass.zeta(profile)
        if text in profile.basis:
            return profile.symbol(text)
        if text == "K":
            return profile.canonical
        match = _CHERN_RE.fullmatch(text)
        if match and int(match[1]) <= profile.dim:
            return profile.chern[int(match[1]) - 1]
        raise ExprSyntaxError(
            f"unknown symbol {text!r} for profile {profile.label!r}", position)


def _size(q: Fraction) -> int:
    """ceil(log2 |numerator|) + ceil(log2 denominator): 0 for 1 and -1."""
    return ((abs(q.numerator) - 1).bit_length()
            + (q.denominator - 1).bit_length())


def parse_expr(profile: BaseProfile, text: str) -> PTClass:
    """Parse an expression into a class over the given profile."""
    return _Parser(profile, text).parse()


def format_class(profile: BaseProfile, cls: PTClass) -> str:
    """Canonical text form of a class; parses back to an equal class.

    Terms are ordered by descending zeta power, then descending base
    exponents, e.g. ``3z - H`` or ``z^5 + 6z^4*H``: the reverse of the
    sorted order in which every class stores its terms.
    """
    _require_profile(profile, cls)
    if cls.is_zero:
        return "0"
    pieces: list[str] = []
    for (zp, exps), coeff in reversed(cls.terms):
        factors: list[str] = []
        if zp:
            factors.append("z" if zp == 1 else f"z^{zp}")
        for name, e in zip(profile.basis, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        negative = coeff.numerator < 0
        magnitude = fraction_str(coeff).lstrip("-")
        if factors:
            prefix = "" if magnitude == "1" else magnitude
            body = prefix + "*".join(factors)
        else:
            body = magnitude
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"{'-' if negative else '+'} {body}")
    return " ".join(pieces)
