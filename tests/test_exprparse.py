"""Expression parser and printer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautclass.chow import (DegreeMismatchError, ProfileMismatchError,
                            PTClass, eval_top)
from tautclass.cli import main
from tautclass.exprparse import ExprSyntaxError, format_class, parse_expr
from tautclass.profiles import get_profile


def test_eval_expression_examples():
    profile = get_profile("dp3-degree2")
    cls = parse_expr(profile, "z^2*(z+2*H)^3")
    assert eval_top(profile, cls) == -8


def test_rational_literal_coefficient():
    profile = get_profile("dp3-degree2")
    cls = parse_expr(profile, "(z+(4/3)*H)")
    assert (tuple((k, c) for k, c in cls.terms if k[0] == 0)
            == (((0, (1,)), Fraction(4, 3)),))


def test_unbalanced_parenthesis_offset():
    profile = get_profile("cubic-surface")
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(profile, "z*(z+H")
    assert err.value.position == 7


def test_parenthesis_nesting_cap(capsys):
    # recursion depth grows with nesting; past the cap a syntax error names
    # the first '(' too deep, where a RecursionError used to escape
    profile = get_profile("cubic-surface")
    nested = "(" * 100 + "z" + ")" * 100
    assert parse_expr(profile, nested) == PTClass.zeta(profile)
    too_deep = "(" * 101 + "z" + ")" * 101
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(profile, too_deep)
    assert err.value.position == 101
    assert main(["eval", "--profile", "cubic-surface", "--expr", too_deep]) == 2
    out, err_text = capsys.readouterr()
    assert out == "" and "offset 101" in err_text


def test_format_class_rejects_other_profile():
    cls = PTClass.zeta(get_profile("dp3-degree2"))
    with pytest.raises(ProfileMismatchError):
        format_class(get_profile("dp3-degree3"), cls)


def test_unknown_symbol():
    profile = get_profile("dp3-degree2")
    with pytest.raises(ExprSyntaxError, match="unknown symbol 'F'"):
        parse_expr(profile, "z + F")


def test_canonical_symbol_expansion():
    profile = get_profile("cubic-surface")
    assert parse_expr(profile, "K") == parse_expr(profile, "-H")
    quartic = get_profile("k3-quartic")
    assert parse_expr(quartic, "K").is_zero
    lattice = get_profile("dp-surface-5")
    assert parse_expr(lattice, "K") == parse_expr(
        lattice, "-3*H + E1 + E2 + E3 + E4")


def test_implicit_multiplication():
    profile = get_profile("dp3-degree2")
    assert parse_expr(profile, "3z - H") == parse_expr(profile, "3*z - H")
    assert parse_expr(profile, "4/3H") == parse_expr(profile, "(4/3)*H")
    assert parse_expr(profile, "2(z + H)") == parse_expr(profile, "2*z + 2*H")


def test_unary_minus_and_powers():
    profile = get_profile("dp3-degree2")
    assert parse_expr(profile, "-z^2") == -(PTClass.zeta(profile) ** 2)
    assert parse_expr(profile, "--z") == PTClass.zeta(profile)
    with pytest.raises(ExprSyntaxError):
        parse_expr(profile, "z^-2")
    with pytest.raises(ExprSyntaxError):
        parse_expr(profile, "z^(2)")


def test_format_examples():
    profile = get_profile("dp3-degree5")
    cls = parse_expr(profile, "3*z - 1*H")
    assert format_class(profile, cls) == "3z - H"
    assert format_class(profile, PTClass.zero(profile)) == "0"
    quartic = get_profile("k3-quartic")
    assert format_class(
        quartic, parse_expr(quartic, "z + (4/3)*H")) == "z + 4/3H"


def test_inhomogeneous_evaluation_flagged():
    profile = get_profile("cubic-surface")
    cls = parse_expr(profile, "z^3 + z")
    with pytest.raises(DegreeMismatchError):
        eval_top(profile, cls)


def _random_expression(rng: random.Random, symbols: list[str], depth: int) -> str:
    if depth == 0:
        choice = rng.random()
        if choice < 0.35:
            return rng.choice(symbols)
        if choice < 0.55:
            num = rng.randint(0, 9)
            den = rng.randint(1, 6)
            return f"{num}/{den}" if den > 1 else str(num)
        num = rng.randint(1, 5)
        return f"{num}{rng.choice(symbols)}"
    op = rng.random()
    left = _random_expression(rng, symbols, depth - 1)
    right = _random_expression(rng, symbols, depth - 1)
    if op < 0.35:
        return f"({left} + {right})"
    if op < 0.6:
        return f"({left} - {right})"
    if op < 0.85:
        return f"{left}*{right}"
    return f"({left})^{rng.randint(0, 3)}"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_parse_print_parse_round_trip(seed):
    rng = random.Random(seed)
    profile = get_profile("cubic-surface")
    text = _random_expression(rng, ["z", "H", "F", "K"], rng.randint(1, 3))
    cls = parse_expr(profile, text)
    printed = format_class(profile, cls)
    assert parse_expr(profile, printed) == cls
