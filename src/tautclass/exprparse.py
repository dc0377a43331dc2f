"""Parser and printer for intersection-class expressions.

Grammar: rational literals (``2``, ``4/3``), the tautological symbol ``z``,
the divisor symbols of the profile's basis, ``K`` for the canonical class
K_X = -c_1(T_X), ``c1`` .. ``cn`` for the Chern classes c_j(T_X) of an
n-dimensional profile (no leading zero), operators ``+ - * ^`` and
parentheses.
A numeric literal directly followed by a symbol or ``(`` multiplies it, so
printed forms like ``3z - H`` parse back to the same class.

Parsing is one pass.  The token texts come from one ``findall``, in which
a non-space character that starts no token reads as the empty text; the
first such character is a syntax error before anything is parsed.  The
parser reads the texts by index, and a token's offset is computed, by a
``finditer`` scan, only for an error.  Every name resolves by one lookup
in ``BaseProfile.names``, built once per profile.

In one product, the signs and the numeric literals fold into one scalar,
an int while every literal is an integer, which scales the product once.
The other factors go to ``chow._product`` as the runs they were written
as, ``X^k`` one run and ``X^0`` none.  A product that may have more than
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

import itertools
import re
import sys
from fractions import Fraction

from .chow import (BaseProfile, PTClass, _product, _require_profile,
                   fraction_str)
from .hypersurfaces import MAX_HYPERSURFACE_DIM

# One token per match, after any whitespace; a non-space character that
# starts no token matches as the empty text.
_TOKEN_RE = re.compile(
    r"\s*(?:([0-9]+(?:/[0-9]+)?|[A-Za-z][A-Za-z0-9_]*|[-+*^()])|\S)")
# The tokens after which a product ends; "" is the end of input.
_PRODUCT_ENDS = frozenset(("+", "-", ")", "^", ""))
MAX_NESTING = 100
MAX_EXPONENT = 2 * MAX_HYPERSURFACE_DIM - 1
# The folded scalar, and each power of a base's largest coefficient, then
# has a numerator and a denominator of at most 14 001 bits, so at most 4215
# digits, within Python's 4300-digit print limit.
MAX_PRODUCT_BITS = 14_000
# A numeral with more significant digits is above 10^4300 > 2^MAX_PRODUCT_BITS.
_MAX_DIGITS = 4300
# int() converts a numeral of this many characters under any setting of
# the interpreter's int_max_str_digits, whose smallest value is 640.
_SHORT_NUMERAL = 640
# That setting, read when a longer numeral is parsed: 0 for no limit, as
# on interpreters without one.
_int_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class ExprSyntaxError(ValueError):
    """Syntax or symbol-resolution error, carrying a 1-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (offset {position})")
        self.position = position


def _offset(text: str, index: int) -> int:
    """1-based offset of token ``index`` of ``text``, or of its end."""
    for match in itertools.islice(_TOKEN_RE.finditer(text), index, None):
        return match.start(1) + 1 if match[1] else match.end()
    return len(text) + 1


class _Parser:
    """One parse: the token texts, ``""`` at the end, read by index."""

    def __init__(self, profile: BaseProfile, text: str) -> None:
        tokens = _TOKEN_RE.findall(text)
        if "" in tokens:
            position = _offset(text, tokens.index(""))
            raise ExprSyntaxError(
                f"unexpected character {text[position - 1]!r}", position)
        tokens.append("")
        self.profile = profile
        self.text = text
        self.tokens = tokens
        self.depth = 0

    def error(self, message: str, index: int) -> ExprSyntaxError:
        return ExprSyntaxError(message, _offset(self.text, index))

    def sum(self, i: int) -> tuple[PTClass, int]:
        """The sum from token ``i`` on, and the index of the token after it.

        Each term's signs fold into its product's scalar, and the terms are
        added one by one.
        """
        tokens, names = self.tokens, self.profile.names
        total = None
        while True:
            scalar, runs, bits = 1, [], 0
            token = tokens[i]
            while token == "+" or token == "-":
                if token == "-":
                    scalar = -scalar
                i += 1
                token = tokens[i]
            while True:
                start = i
                i += 1
                base = names.get(token)
                if base is None:
                    base, i = self.atom(start)
                exponent = 1
                if tokens[i] == "^":
                    token = tokens[i + 1]
                    if not token[:1].isdigit() or "/" in token:
                        raise self.error(
                            "exponent must be a non-negative integer", i + 1)
                    # up to 4000 characters are read; leading zeros count
                    # towards int()'s digit limit, so they go first
                    digits = token.lstrip("0") or "0"
                    if (len(token) > 4000 or len(digits) > _SHORT_NUMERAL
                            or (exponent := int(digits)) > MAX_EXPONENT):
                        raise self.error(f"exponent exceeds {MAX_EXPONENT}",
                                         i + 1)
                    i += 2
                literal = type(base) is not PTClass
                if literal:
                    bits += exponent * _size(base)
                elif exponent > 1:
                    bits += exponent * max(
                        (_size(c) for _, c in base.terms), default=0)
                if bits > MAX_PRODUCT_BITS:
                    raise self.error(
                        f"coefficients may exceed {MAX_PRODUCT_BITS} bits",
                        start)
                if literal:
                    if exponent != 1:
                        base **= exponent
                    scalar = base if scalar == 1 else scalar * base
                elif exponent:
                    runs.append((base, exponent))
                token = tokens[i]
                if token == "*":
                    i += 1
                    token = tokens[i]
                elif token in _PRODUCT_ENDS:
                    break
            value = _product(self.profile, runs)
            if scalar != 1:
                value *= scalar
            total = value if total is None else total + value
            if token != "+" and token != "-":
                return total, i

    def atom(self, i: int) -> tuple[PTClass | int | Fraction, int]:
        """The literal, an int or a Fraction, or the parenthesised sum at
        token ``i``, which is not a name, and the index after it."""
        token = self.tokens[i]
        if token[:1].isdigit():
            numerator, slash, denominator = token.partition("/")
            if len(token) > _SHORT_NUMERAL:
                # leading zeros count towards int()'s digit limit, so they
                # go first; a part with more digits left than the limit, or
                # than _MAX_DIGITS, is refused here
                numerator = numerator.lstrip("0") or "0"
                denominator = denominator.lstrip("0") or "0"
                digits = max(len(numerator), len(denominator))
                if digits > _MAX_DIGITS:
                    raise self.error(
                        f"coefficients may exceed {MAX_PRODUCT_BITS} bits", i)
                limit = _int_digits_limit()
                if 0 < limit < digits:
                    raise self.error(f"numeral has more than {limit} digits, "
                                     f"the interpreter's int_max_str_digits",
                                     i)
            if not slash:
                return int(numerator), i + 1
            try:
                return Fraction(int(numerator), int(denominator)), i + 1
            except ZeroDivisionError:
                raise self.error(f"zero denominator in {token!r}",
                                 i) from None
        if token[:1].isalpha():
            raise self.error(f"unknown symbol {token!r} for profile "
                             f"{self.profile.label!r}", i)
        if token != "(":
            raise self.error(f"unexpected {token or 'end of input'!r}", i)
        if self.depth == MAX_NESTING:
            raise self.error(
                f"parentheses nest deeper than {MAX_NESTING} levels", i)
        self.depth += 1
        value, i = self.sum(i + 1)
        if self.tokens[i] != ")":
            raise self.error("expected ')'", i)
        self.depth -= 1
        return value, i + 1


def _size(q: Fraction) -> int:
    """ceil(log2 |numerator|) + ceil(log2 denominator): 0 for 1 and -1."""
    return ((abs(q.numerator) - 1).bit_length()
            + (q.denominator - 1).bit_length())


def parse_expr(profile: BaseProfile, text: str) -> PTClass:
    """Parse an expression into a class over the given profile."""
    parser = _Parser(profile, text)
    value, i = parser.sum(0)
    if parser.tokens[i]:
        raise parser.error(f"unexpected {parser.tokens[i]!r}", i)
    return value


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
