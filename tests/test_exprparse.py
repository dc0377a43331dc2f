"""Expression parser and printer."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tautclass import chow
from tautclass.chow import (DegreeMismatchError, ProfileMismatchError,
                            PTClass, eval_top)
from tautclass.cli import main
from tautclass.exprparse import (MAX_EXPONENT, MAX_PRODUCT_BITS,
                                 ExprSyntaxError, format_class, parse_expr)
from tautclass.hypersurfaces import MAX_HYPERSURFACE_DIM
from tautclass.profiles import FIXED_LABELS, get_profile


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


@pytest.mark.parametrize("text, position", [
    ("z^\uff13", 3), ("\uff13z", 1), ("1/\u0663z", 2), ("(4/\u0663)z", 3)])
def test_numbers_are_ascii_digits(capsys, text, position):
    # int() reads FULLWIDTH DIGIT THREE and the Arabic-Indic digits; the
    # grammar's numbers are ASCII digits only, so these are syntax errors
    profile = get_profile("cubic-surface")
    with pytest.raises(ExprSyntaxError, match="unexpected") as err:
        parse_expr(profile, text)
    assert err.value.position == position
    assert main(["eval", "--profile", "cubic-surface", "--expr", text]) == 2
    assert capsys.readouterr().out == ""


BIG = "9" * 4000


# The parser's error contract: each malformed input and its exact message,
# offset included, for every kind of error it reports.
@pytest.mark.parametrize("text, message", [
    pytest.param(text, message, id=f"{i:02}")
    for i, (text, message) in enumerate([
        # a character no token starts with
        ("z^٣", "unexpected character '٣' (offset 3)"),
        ("３z", "unexpected character '３' (offset 1)"),
        ("1/٣z", "unexpected character '/' (offset 2)"),
        ("z / H", "unexpected character '/' (offset 3)"),
        ("/", "unexpected character '/' (offset 1)"),
        ("_z", "unexpected character '_' (offset 1)"),
        ("z*\t%H", "unexpected character '%' (offset 4)"),
        ("z + H\t²", "unexpected character '²' (offset 7)"),
        # a bad character is reported before an earlier syntax error
        ("z) %", "unexpected character '%' (offset 4)"),
        # a token where it cannot stand, and the end of input
        ("z + )", "unexpected ')' (offset 5)"),
        ("z)", "unexpected ')' (offset 2)"),
        ("z^2^3", "unexpected '^' (offset 4)"),
        ("*z", "unexpected '*' (offset 1)"),
        ("z**H", "unexpected '*' (offset 3)"),
        ("z+(*H)", "unexpected '*' (offset 4)"),
        ("z*(z+H))", "unexpected ')' (offset 8)"),
        ("", "unexpected 'end of input' (offset 1)"),
        ("   ", "unexpected 'end of input' (offset 4)"),
        ("z+", "unexpected 'end of input' (offset 3)"),
        ("-", "unexpected 'end of input' (offset 2)"),
        ("(z+H)(", "unexpected 'end of input' (offset 7)"),
        ("z*(z+H", "expected ')' (offset 7)"),
        # literals and names
        ("1/0z", "zero denominator in '1/0' (offset 1)"),
        ("z*(3/00)", "zero denominator in '3/00' (offset 4)"),
        ("c0", "unknown symbol 'c0' for profile 'cubic-surface' (offset 1)"),
        ("z*c01", "unknown symbol 'c01' for profile 'cubic-surface' "
                  "(offset 3)"),
        ("z + zeta", "unknown symbol 'zeta' for profile 'cubic-surface' "
                     "(offset 5)"),
        ("z_", "unknown symbol 'z_' for profile 'cubic-surface' (offset 1)"),
        # the nesting cap
        ("(" * 101 + "z" + ")" * 101,
         "parentheses nest deeper than 100 levels (offset 101)"),
        ("z*" + "(" * 101 + "z" + ")" * 101,
         "parentheses nest deeper than 100 levels (offset 103)"),
        # exponents
        ("z^1/2", "exponent must be a non-negative integer (offset 3)"),
        ("z^z", "exponent must be a non-negative integer (offset 3)"),
        ("z^-1", "exponent must be a non-negative integer (offset 3)"),
        ("z^(2)", "exponent must be a non-negative integer (offset 3)"),
        ("z^ ", "exponent must be a non-negative integer (offset 4)"),
        ("z^400", "exponent exceeds 399 (offset 3)"),
        ("(z+H)^0400", "exponent exceeds 399 (offset 7)"),
        ("z^" + "9" * 4000, "exponent exceeds 399 (offset 3)"),
        ("z^" + "0" * 4001, "exponent exceeds 399 (offset 3)"),
        # the coefficient-size cap, at the factor that passes it
        (f"({BIG})^399*z^3", "coefficients may exceed 14000 bits (offset 1)"),
        (f"z*{BIG}*{BIG}*H",
         "coefficients may exceed 14000 bits (offset 4004)"),
        (f"z + H*(1/{BIG})^4", "coefficients may exceed 14000 bits (offset 7)"),
        (f"-(1/{BIG})^4*z", "coefficients may exceed 14000 bits (offset 2)"),
    ])])
def test_error_contract(text, message):
    profile = get_profile("cubic-surface")
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(profile, text)
    assert str(err.value) == message
    assert err.value.position == int(message.rsplit(" ", 1)[1][:-1])


@pytest.mark.parametrize("left, right", [
    ("(z+H)*(z+H)", "(z+H)^2"), ("z*z*H", "z^2*H"), ("2*3*z", "6z"),
    ("z^0*H", "H"), ("(0)^0", "1"), ("(z+H)^2*(z+H)*z^0*(z+H)", "(z+H)^4"),
    # bounded a priori as one power, not as 2^20 distinct products
    ("*".join(["(z+H)"] * 20), "(z+H)^20"),
])
def test_runs_written_apart(left, right):
    for label in ("cubic-surface", "dp-surface-1"):
        profile = get_profile(label)
        assert parse_expr(profile, left) == parse_expr(profile, right)


def test_format_class_rejects_other_profile():
    cls = PTClass.zeta(get_profile("dp3-degree2"))
    with pytest.raises(ProfileMismatchError):
        format_class(get_profile("dp3-degree3"), cls)


def test_unknown_symbol():
    profile = get_profile("dp3-degree2")
    with pytest.raises(ExprSyntaxError, match="unknown symbol 'F'"):
        parse_expr(profile, "z + F")
    # c<j> names c_j(T_X) only for 1 <= j <= n, without a leading zero; a
    # huge j is an unknown name, never converted to an int
    for symbol in ("c0", "c4", "c01", "C1", "c" + "9" * 5000):
        with pytest.raises(ExprSyntaxError,
                           match=f"unknown symbol '{symbol}'") as err:
            parse_expr(profile, f"z^2 + {symbol}")
        assert err.value.position == 7


def test_canonical_symbol_expansion():
    profile = get_profile("cubic-surface")
    assert parse_expr(profile, "K") == parse_expr(profile, "-H")
    quartic = get_profile("k3-quartic")
    assert parse_expr(quartic, "K").is_zero
    lattice = get_profile("dp-surface-5")
    assert parse_expr(lattice, "K") == parse_expr(
        lattice, "-3*H + E1 + E2 + E3 + E4")
    for label in FIXED_LABELS:
        fixed = get_profile(label)
        assert parse_expr(fixed, "c1") == -parse_expr(fixed, "K"), label
    # c_2 of a surface is its Euler number: 9 on the cubic, 24 on the K3
    for label, euler in (("cubic-surface", 9), ("k3-quartic", 24)):
        surface = get_profile(label)
        assert surface.evaluate(parse_expr(surface, "c2")) == euler
        assert eval_top(surface, parse_expr(surface, "z*c2")) == euler


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


def _reference_atoms(profile) -> dict[str, PTClass]:
    # Built with make, independently of the parser's direct atoms.
    zeros = (0,) * profile.nsyms
    atoms = {"z": PTClass.make(profile, {(1, zeros): 1}),
             "K": profile.canonical}
    for index, name in enumerate(profile.basis):
        exps = tuple(int(i == index) for i in range(profile.nsyms))
        atoms[name] = PTClass.make(profile, {(0, exps): 1})
    return atoms


def _constant(profile, value) -> PTClass:
    return PTClass.make(profile, {(0, (0,) * profile.nsyms): value})


def _degree(cls: PTClass) -> int:
    return max(cls.total_degrees(), default=0)


MAX_TEST_DEGREE = 6


def _random_expression(rng: random.Random, profile, depth: int,
                       max_degree: int | None = None) -> tuple[str, PTClass]:
    """Random expression text and the class it denotes.

    The class is built with PTClass ``+ - * **`` on the same tree, so a
    product the parser multiplies as one chain is checked against nested
    binary products.  The text uses ``^0``, the literal ``0``,
    juxtaposition (``3z``, ``2(...)``) and unary minus.  With max_degree
    set, a power or product that would pass it is made smaller (a lower
    exponent, a difference); None leaves degrees uncapped (up to 27).
    """
    atoms = _reference_atoms(profile)
    if depth == 0:
        choice = rng.random()
        if choice < 0.35:
            name = rng.choice(list(atoms))
            return name, atoms[name]
        if choice < 0.55:
            num = rng.randint(0, 9)
            den = rng.randint(1, 6)
            text = f"{num}/{den}" if den > 1 else str(num)
            return text, _constant(profile, Fraction(num, den))
        num = rng.randint(1, 5)
        name = rng.choice(list(atoms))
        return f"{num}{name}", _constant(profile, num) * atoms[name]
    left, left_cls = _random_expression(rng, profile, depth - 1, max_degree)
    op = rng.random()
    if op < 0.1:
        return f"(-{left})", -left_cls
    if op < 0.2:
        num = rng.randint(1, 5)
        return f"{num}({left})", _constant(profile, num) * left_cls
    if op < 0.35:
        top = 3
        if max_degree is not None:
            top = min(top, max_degree // max(_degree(left_cls), 1))
        exponent = rng.randint(0, top)
        return f"({left})^{exponent}", left_cls ** exponent
    right, right_cls = _random_expression(rng, profile, depth - 1, max_degree)
    if op < 0.55:
        return f"({left} + {right})", left_cls + right_cls
    if op < 0.75 or (max_degree is not None and
                     _degree(left_cls) + _degree(right_cls) > max_degree):
        return f"({left} - {right})", left_cls - right_cls
    return f"{left}*{right}", left_cls * right_cls


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_parse_print_parse_round_trip(seed):
    rng = random.Random(seed)
    profile = get_profile("cubic-surface")
    text, _ = _random_expression(rng, profile, rng.randint(1, 3))
    cls = parse_expr(profile, text)
    printed = format_class(profile, cls)
    assert parse_expr(profile, printed) == cls


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["cubic-surface", "dp-surface-1", "dp3-degree2"]),
       st.integers(min_value=0, max_value=10**9))
def test_chained_parse_equals_binary_route(label, seed):
    # format_class reads terms in stored order, so every parsed class must
    # keep them sorted, without zero coefficients
    rng = random.Random(seed)
    profile = get_profile(label)
    text, expected = _random_expression(rng, profile, rng.randint(1, 3),
                                        MAX_TEST_DEGREE)
    cls = parse_expr(profile, text)
    assert cls == expected
    assert cls.terms == tuple(sorted(cls.terms))
    assert all(isinstance(c, Fraction) and c for _, c in cls.terms)


@pytest.mark.parametrize("text, chains", [
    ("z", 0), ("H", 0), ("3/4", 0), ("2z", 0), ("K", 0), ("(z + H)", 0),
    ("z^0", 0), ("z^1", 0), ("2^3", 0), ("z*H", 1), ("-z*H", 1),
    ("2z*H", 1), ("z^5", 1), ("(z + H + F)^3", 1), ("z*(z + H)^2*3F", 1),
    ("z*H - 2F*z", 2), ("z*K*2*3/4*H*F^2*(z - K)", 1),
])
def test_one_product_chain_per_product(monkeypatch, text, chains):
    # a product of two or more factors other than numeric literals, X^k
    # counting as k factors, is one chain; literals only scale it, and a
    # lone factor runs no chain
    profile = get_profile("cubic-surface")
    calls = []
    chain = chow._chain

    def counting(*args):
        calls.append(1)
        return chain(*args)

    monkeypatch.setattr(chow, "_chain", counting)
    parse_expr(profile, text)
    assert len(calls) == chains


def test_exponents_below_the_cap_are_one_power(monkeypatch, capsys):
    # X^k is one run raised by the power recurrence, so the pairwise
    # products do not grow with k, and the largest allowed exponent on a
    # class far above top degree finishes
    profile = get_profile("cubic-surface")
    calls = []
    kernel = chow._mul_packed

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(chow, "_mul_packed", counting)
    counts = []
    for k in (4, 40):
        calls.clear()
        cls = parse_expr(profile, f"(z+H+F)^{k}")
        assert len(cls.terms) == (k + 1) * (k + 2) // 2
        counts.append(len(calls))
    calls.clear()
    assert main(["eval", "--profile", "cubic-surface",
                 "--expr", "(z+H+F)^399"]) == 0
    counts.append(len(calls))
    assert counts == [counts[0]] * 3
    out, err = capsys.readouterr()
    assert out.startswith("class: z^399 + 399z^398*H + 399z^398*F + ")
    assert out.endswith("\ndegree: 399 (intersection numbers need degree 3)\n")
    assert err == ""
    # a two-term base, even with no single lowest monomial, makes no
    # pairwise product at all: the binomial route
    for label, base in [("dp-surface-1", "H+E1"), ("cubic-surface", "z+1")]:
        for k in (4, 40, 399):
            calls.clear()
            cls = parse_expr(get_profile(label), f"({base})^{k}")
            assert len(cls.terms) == k + 1
            assert calls == [], (base, k)
    # a one-term base is one term at once, whatever its base degree
    for base in ("H", "E1"):
        calls.clear()
        cls = parse_expr(get_profile("dp-surface-1"), f"{base}^399")
        assert len(cls.terms) == 1
        assert calls == [], base


def test_exponent_cap_regression(monkeypatch, capsys):
    # an exponent above MAX_EXPONENT (2n-1 of the largest hypersurface
    # profile) is a syntax error at the exponent, found before the
    # exponent's digits are converted or any factor is multiplied
    profile = get_profile("cubic-surface")
    assert MAX_EXPONENT == 2 * MAX_HYPERSURFACE_DIM - 1 == 399
    assert parse_expr(profile, "z^399") == PTClass.zeta(profile, 399)
    assert parse_expr(profile, "z^0399") == PTClass.zeta(profile, 399)
    assert parse_expr(profile, "(z+H+F)^4").homogeneous_degree() == 4
    # numbers are ASCII digits: int() would read these Arabic-Indic digits
    with pytest.raises(ExprSyntaxError, match=r"'\u0660' \(offset 3\)"):
        parse_expr(profile, "z^\u0660\u0660\u0661")
    for exponent in ("400", "0400", "100000", "9" * 4000, "9" * 5000):
        with pytest.raises(ExprSyntaxError,
                           match=r"exponent exceeds 399 \(offset 9\)"):
            parse_expr(profile, f"(z+H+F)^{exponent}")
    assert main(["eval", "--profile", "cubic-surface",
                 "--expr", "(z+H+F)^100000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: exponent exceeds 399 (offset 9)\n"
    # below the exponent cap, a product whose a-priori term bound is above
    # chow.MAX_TERMS is a usage error before anything is multiplied
    calls = []
    kernel = chow._mul_packed
    monkeypatch.setattr(chow, "_mul_packed",
                        lambda *args: calls.append(1) or kernel(*args))
    distinct = "*".join(f"(z+H+F+{i})" for i in range(1, 400))
    for expr in ("(z+H+F+1)^399", distinct):
        assert main(["eval", "--profile", "cubic-surface",
                     "--expr", expr]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: the product may have 10746800 terms, "
                       "more than 1000000\n")
    assert calls == []


def test_coefficient_size_is_bounded_before_multiplying(capsys):
    # the sizes of a product's literals and powers' bases, times their
    # exponents, add up to at most MAX_PRODUCT_BITS, checked before
    # anything cancels or is multiplied; 10^4000 - 1 has 13 288 bits
    profile = get_profile("cubic-surface")
    big = "9" * 4000
    assert MAX_PRODUCT_BITS == 14_000
    for expr, offset in ((f"({big})^399*z^3", 1), (f"{big}^399*z^3", 1),
                         (f"z*(1/{big})^399*({big})^399", 3),
                         (f"({big}z + H)^2*z", 1), (f"z*{big}*{big}", 4004)):
        with pytest.raises(ExprSyntaxError,
                           match=rf"exceed 14000 bits \(offset {offset}\)"):
            parse_expr(profile, expr)
    assert parse_expr(profile, "(4/3)^5*z^3") == (
        Fraction(1024, 243) * PTClass.zeta(profile, 3))
    assert parse_expr(profile, f"{big}*z") == int(big) * PTClass.zeta(profile)
    # coefficients 1 count 0 bits, and an unraised class factor counts none
    assert parse_expr(profile, "*".join(["z^399"] * 40)) == PTClass.zeta(
        profile, 399 * 40)
    assert parse_expr(profile, f"({big})*({big})") == (
        int(big) ** 2 * PTClass.one(profile))
    assert main(["eval", "--profile", "cubic-surface",
                 "--expr", f"({big})^399*z^3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: coefficients may exceed 14000 bits (offset 1)\n"


def test_oversized_literal_is_refused_at_its_offset(capsys):
    # a part of a literal with more than 4300 digits, which int() would
    # refuse with its own message, is refused by the coefficient bound at
    # the literal's offset, on either side of the slash; leading zeros do
    # not count, and a 4300-digit literal still parses
    profile = get_profile("cubic-surface")
    nines = "9" * 4400
    for expr, offset in ((f"{nines}*z^3", 1), (f"z^3*{nines}", 5),
                         (f"z^3*{nines}/7", 5), (f"z^3*1/{nines}", 5),
                         (f"z^2*(z + {nines}/{nines})", 10)):
        with pytest.raises(ExprSyntaxError,
                           match=rf"^coefficients may exceed 14000 bits "
                                 rf"\(offset {offset}\)$"):
            parse_expr(profile, expr)
        assert main(["eval", "--profile", "cubic-surface",
                     "--expr", expr]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: coefficients may exceed 14000 bits "
                       f"(offset {offset})\n")
    zeros = "0" * 4400
    assert parse_expr(profile, f"{zeros}7/{zeros}3*z^3") == (
        Fraction(7, 3) * PTClass.zeta(profile, 3))
    assert parse_expr(profile, f"{'9' * 4300}^0*z^3") == PTClass.zeta(
        profile, 3)
    with pytest.raises(ExprSyntaxError, match=r"^zero denominator in "):
        parse_expr(profile, f"z^3*3/{zeros}")


@pytest.fixture
def int_digits_640():
    # the smallest int_max_str_digits the interpreter allows
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


def test_literal_past_a_lowered_int_limit_is_refused(int_digits_640,
                                                     capsys):
    # with int_max_str_digits at 640, a numeral part of 641 to 4300
    # digits is refused at its offset rather than by int()'s own error;
    # longer parts keep the coefficient bound's message, and leading zeros
    # of literals and exponents still do not count
    profile = get_profile("cubic-surface")
    nines = "9" * 700
    message = ("numeral has more than 640 digits, the interpreter's "
               "int_max_str_digits")
    for expr, offset, error in (
            (f"{nines}*z^3", 1, message), (f"z^3*1/{nines}", 5, message),
            (f"z^3*{'9' * 4400}", 5,
             "coefficients may exceed 14000 bits"),
            (f"z^{nines}", 3, f"exponent exceeds {MAX_EXPONENT}")):
        with pytest.raises(ExprSyntaxError,
                           match=rf"^{error} \(offset {offset}\)$"):
            parse_expr(profile, expr)
        assert main(["eval", "--profile", "cubic-surface",
                     "--expr", expr]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {error} (offset {offset})\n"
    zeros = "0" * 700
    assert parse_expr(profile, f"{zeros}7/{zeros}3*z^{zeros}3") == (
        Fraction(7, 3) * PTClass.zeta(profile, 3))
