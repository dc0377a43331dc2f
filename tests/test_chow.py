"""Engine-level tests: polynomial arithmetic, profiles, pushforward rules."""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tautclass.chow import (BaseProfile, DegreeMismatchError,
                            PTClass, ProfileMismatchError, dual_vmrt_generic,
                            eval_product, eval_top, fraction_str,
                            restrict_to_section, segre_omega)
from tautclass import chow
from tautclass.chow import (_contract, _mul_packed, _pack, _pow_packed,
                            _unpack, as_fraction)
from tautclass.exprparse import parse_expr
from tautclass.hypersurfaces import (MAX_HYPERSURFACE_DIM, cubic_mnef_number,
                                     hypersurface_profile)
from tautclass.profiles import FIXED_LABELS, get_profile
from tautclass.threefolds import threefold_profile


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def random_profiles(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    nsyms = draw(st.integers(min_value=1, max_value=3))
    chern = []
    for j in range(1, dim + 1):
        monos = list(compositions(j, nsyms))
        coeffs = draw(st.lists(fractions_st, min_size=len(monos),
                               max_size=len(monos)))
        chern.append(dict(zip(monos, coeffs)))
    return BaseProfile.make("random", dim, [f"D{i}" for i in range(nsyms)],
                            {}, chern)


@settings(max_examples=200, deadline=None)
@given(random_profiles())
def test_segre_inversion_identity(profile):
    # truncated product s(Omega) . c(Omega) must be exactly 1
    segre = segre_omega(profile)
    total_s = PTClass.zero(profile)
    total_c = PTClass.one(profile)
    for j in range(profile.dim + 1):
        total_s = total_s + segre[j]
        if j >= 1:
            total_c = total_c + (-1) ** j * profile.chern[j - 1]
    product = total_s * total_c
    truncated = PTClass.make(
        profile, {k: c for k, c in product.terms if sum(k[1]) <= profile.dim})
    assert truncated == PTClass.one(profile)


def test_segre_first_entries():
    profile = get_profile("dp3-degree2")
    segre = segre_omega(profile)
    assert segre[0] == PTClass.one(profile)
    assert segre[1] == profile.chern[0]  # s_1(Omega) = c_1(T_X)


@st.composite
def homogeneous_classes(draw, profile):
    top = 2 * profile.dim - 1
    keys = [(zp, mono) for zp in range(top + 1)
            for mono in compositions(top - zp, profile.nsyms)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6))
    coeffs = draw(st.lists(fractions_st, min_size=len(chosen),
                           max_size=len(chosen)))
    return PTClass.make(profile, dict(zip(chosen, coeffs)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_top_is_linear(data):
    profile = get_profile(data.draw(st.sampled_from(
        ["cubic-surface", "dp3-degree2", "k3-quartic"])))
    cls_a = data.draw(homogeneous_classes(profile))
    cls_b = data.draw(homogeneous_classes(profile))
    a = data.draw(fractions_st)
    b = data.draw(fractions_st)
    combined = a * cls_a + b * cls_b
    assert (eval_top(profile, combined)
            == a * eval_top(profile, cls_a) + b * eval_top(profile, cls_b))


def _sympy_eval_top(doc: dict, cls: PTClass) -> Fraction:
    """eval_top by a second route, from the profile's JSON form only.

    In Q[z, basis] with lex order, the remainder of the class modulo the
    Grothendieck relation z^n + sum_i c_i(Omega) z^(n-i) (Fulton,
    Intersection Theory, 3.2 and Remark 3.2.4) has z-degree below n; the
    pushforward kills z^i for i < n - 1 and sends z^(n-1) m to m, so the
    top form reads the base part of the z^(n-1) coefficient.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring

    qq = sympy.QQ
    n = doc["dim"]
    poly_ring, z, *_ = ring(",".join(["z", *doc["basis"]]), qq, order="lex")

    def rational(text: str):
        return qq(*map(int, text.split("/")))

    relation = z ** n
    for i, entries in enumerate(doc["chern"], start=1):
        c_omega = poly_ring.from_dict({(0, *item["exponents"]):
                                       (-1) ** i * rational(item["value"])
                                       for item in entries})
        relation += c_omega * z ** (n - i)
    element = poly_ring.from_dict({(zp, *exps): qq(c.numerator, c.denominator)
                                   for (zp, exps), c in cls.terms})
    top = {tuple(item["exponents"]): rational(item["value"])
           for item in doc["top_form"]}
    total = sum((c * top.get(m[1:], qq(0))
                 for m, c in element.rem(relation).terms() if m[0] == n - 1),
                qq(0))
    return Fraction(int(total.numerator), int(total.denominator))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_eval_top_matches_sympy_route(data):
    doc = data.draw(random_profiles()).to_json()
    monos = list(compositions(doc["dim"], len(doc["basis"])))
    values = data.draw(st.lists(fractions_st, min_size=len(monos),
                                max_size=len(monos)))
    doc["top_form"] = [{"exponents": list(m), "value": fraction_str(v)}
                       for m, v in zip(monos, values)]
    profile = BaseProfile.from_json(doc)
    cls = data.draw(homogeneous_classes(profile))
    assert eval_top(profile, cls) == _sympy_eval_top(profile.to_json(), cls)


def test_sympy_route_anchors():
    for label, power, value in (("cubic-surface", 3, -6),
                                ("dp3-degree1", 5, -78)):
        profile = get_profile(label)
        zeta = PTClass.zeta(profile, power)
        assert _sympy_eval_top(profile.to_json(), zeta) == value
        assert eval_top(profile, zeta) == value


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_class_arithmetic_commutes_and_associates(data):
    profile = get_profile("cubic-surface")
    keys = [(zp, mono) for zp in range(3) for mono in compositions(2 - zp, 2)]

    def draw_class():
        chosen = data.draw(st.lists(st.sampled_from(keys), min_size=0,
                                    max_size=4))
        coeffs = data.draw(st.lists(fractions_st, min_size=len(chosen),
                                    max_size=len(chosen)))
        return PTClass.make(profile, dict(zip(chosen, coeffs)))

    x, y, z = draw_class(), draw_class(), draw_class()
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)


def _naive_mul(x: PTClass, y: PTClass) -> PTClass:
    acc: dict = {}
    for (z1, e1), c1 in x.terms:
        for (z2, e2), c2 in y.terms:
            key = (z1 + z2, tuple(a + b for a, b in zip(e1, e2)))
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return PTClass.make(x.profile, acc)


@st.composite
def any_classes(draw, profile):
    # Not necessarily homogeneous; includes the zero and one classes.
    special = draw(st.sampled_from(["zero", "one", "random"]))
    if special == "zero":
        return PTClass.zero(profile)
    if special == "one":
        return PTClass.one(profile)
    keys = st.tuples(st.integers(0, 3),
                     st.tuples(*[st.integers(0, 3)] * profile.nsyms))
    terms = draw(st.dictionaries(keys, fractions_st, max_size=5))
    return PTClass.make(profile, terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ptclass_mul_matches_naive_fraction_product(data):
    profile = get_profile(data.draw(st.sampled_from(
        ["dp3-degree1", "cubic-surface", "dp-surface-6"])))
    x = data.draw(any_classes(profile))
    y = data.draw(any_classes(profile))
    product = x * y
    assert product == _naive_mul(x, y)
    assert all(isinstance(c, Fraction) and c for _, c in product.terms)
    # a scalar multiple keeps exact Fraction coefficients, an int scalar
    # included, also where it is itself the new coefficient of a term of 1
    for scalar in (2, -3, Fraction(1), Fraction(-2, 3), 0):
        expected = PTClass.make(profile, {k: c * scalar for k, c in x.terms})
        for multiple in (x * scalar, scalar * x):
            assert multiple == expected
            assert all(type(c) is Fraction for _, c in multiple.terms)
    h = (0, (1,) + (0,) * (profile.nsyms - 1))
    two_h = parse_expr(profile, "2*H").terms
    assert two_h == PTClass.make(profile, {h: 2}).terms == ((h, Fraction(2)),)
    assert type(two_h[0][1]) is Fraction
    # every field of x, y and the product is below 2^5: the class survives
    # packing and unpacking
    for cls in (x, y, product):
        assert _unpack(profile, *_pack(cls.terms, 5), 5) == cls


CUBIC = get_profile("cubic-surface")


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["cubic-surface", "dp-surface-6", "hypersurface-n4-d3"])
       .flatmap(lambda label: any_classes(get_profile(label))),
       st.integers(0, 6))
# one term of base degree 0: the power recurrence, on an inhomogeneous class
@example(parse_expr(CUBIC, "z^2 + H + F"), 5)
# two terms: the binomial route, of base degree 0 and 1 or both 0
@example(parse_expr(CUBIC, "z^2 + H"), 5)
@example(parse_expr(CUBIC, "z + 1"), 5)
def test_ptclass_pow_matches_naive_fraction_product(x, power):
    profile = x.profile
    expected = PTClass.one(profile)
    for _ in range(power):
        expected = _naive_mul(expected, x)
    assert x ** power == expected
    with pytest.raises(ValueError, match="negative power"):
        x ** -1


@pytest.mark.parametrize("label", FIXED_LABELS + ("hypersurface-n4-d3",
                                                   "hypersurface-n6-d3"))
def test_atoms_equal_make_built_classes(label):
    # symbol, zeta and one build their one-term classes without make;
    # they must be the classes make would build
    profile = get_profile(label)
    zeros = (0,) * profile.nsyms
    for index, name in enumerate(profile.basis):
        exps = tuple(int(i == index) for i in range(profile.nsyms))
        assert profile.symbol(name) == PTClass.make(profile, {(0, exps): 1})
    for power in range(2 * profile.dim):
        assert (PTClass.zeta(profile, power)
                == PTClass.make(profile, {(power, zeros): 1}))
    assert PTClass.zeta(profile) == PTClass.make(profile, {(1, zeros): 1})
    assert PTClass.one(profile) == PTClass.make(profile, {(0, zeros): 1})
    # the parser reads every name from the profile's one table
    assert parse_expr(profile, "z") == PTClass.zeta(profile)
    for name in profile.basis:
        assert parse_expr(profile, name) == profile.symbol(name)
    assert parse_expr(profile, "K") == profile.canonical
    for j in range(1, profile.dim + 1):
        assert parse_expr(profile, f"c{j}") == profile.chern[j - 1]
    assert set(profile.names) == {"z", "K", *profile.basis,
                                  *(f"c{j}" for j in range(1, profile.dim + 1))}
    with pytest.raises(ValueError, match="bad term key"):
        PTClass.zeta(profile, -1)
    # a key that is not an int is refused, not truncated by int()
    for key in ((Fraction(1, 2), zeros), (1.0, zeros), ("1", zeros),
                (1, (1.5,) + zeros[1:]), (1, ("1",) + zeros[1:])):
        with pytest.raises(ValueError, match="bad term key"):
            PTClass.make(profile, {key: 1})
    for unknown in ("z", "K", "Q", ""):
        with pytest.raises(ValueError):
            profile.symbol(unknown)


@st.composite
def top_degree_factors(draw, profile):
    # Homogeneous factors whose degrees add up to 2n-1.  A factor may
    # repeat, so that eval_product raises it as one run, and may or may not
    # carry a pure zeta term, which picks the run's route.  Every factor of
    # degree above dim X carries a pure base term, which vanishes on X.
    n = profile.dim
    remaining = 2 * n - 1
    factors = []
    while remaining:
        degree = draw(st.integers(1, min(remaining, n + 2)))
        keys = [(zp, mono) for zp in range(degree)
                for mono in compositions(degree - zp, profile.nsyms)]
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1,
                               max_size=3))
        if draw(st.booleans()):
            chosen.append((degree, (0,) * profile.nsyms))
        if degree > n:
            chosen.append((0, draw(st.sampled_from(
                list(compositions(degree, profile.nsyms))))))
        coeffs = draw(st.lists(fractions_st, min_size=len(chosen),
                               max_size=len(chosen)))
        repeat = draw(st.integers(1, remaining // degree))
        remaining -= degree * repeat
        factors += [PTClass.make(profile, dict(zip(chosen, coeffs)))] * repeat
    return factors


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_eval_product_matches_formal_product(data):
    # Named profiles: random_profiles() has an empty top form, so every
    # value on it would be 0.
    profile = get_profile(data.draw(st.sampled_from(
        ["cubic-surface", "dp-surface-1", "dp3-degree1",
         "hypersurface-n4-d3", "hypersurface-n8-d3"])))
    factors = data.draw(top_degree_factors(profile))
    formal = PTClass.one(profile)
    for factor in factors:
        formal = formal * factor
    assert eval_product(profile, factors) == eval_top(profile, formal)


def test_eval_product_guards():
    profile = get_profile("cubic-surface")
    zeta = PTClass.zeta(profile)
    h = profile.symbol("H")
    f = profile.symbol("F")
    # Dropping z^2 H^3 (H^3 = 0 on X) must not turn the mixed product
    # into the value of z^3.
    with pytest.raises(DegreeMismatchError):
        eval_product(profile, [zeta + h ** 3, zeta, zeta])
    with pytest.raises(DegreeMismatchError, match="degree 3"):
        eval_product(profile, [zeta, zeta + h])
    with pytest.raises(DegreeMismatchError, match="degree 3"):
        eval_product(profile, [zeta, zeta, h ** 3])
    with pytest.raises(DegreeMismatchError):
        eval_product(profile, [])
    assert eval_product(profile, [zeta, PTClass.zero(profile), zeta]) == 0
    quartic = get_profile("k3-quartic")
    with pytest.raises(ProfileMismatchError):
        eval_product(profile, [zeta, zeta, PTClass.zeta(quartic)])
    # The same guards on runs of equal factors.
    zero = PTClass.zero(profile)
    assert eval_product(profile, [zeta, zero, zero]) == 0
    with pytest.raises(DegreeMismatchError,
                       match=re.escape("class mixes total degrees [1, 3]")):
        eval_product(profile, [zeta + h ** 3] * 2 + [zeta])
    with pytest.raises(DegreeMismatchError, match="got 4"):
        eval_product(profile, [zeta] * 4)
    with pytest.raises(ProfileMismatchError):
        eval_product(profile, [zeta] + [PTClass.zeta(quartic)] * 2)
    factors = [Fraction(1, 2) * zeta + Fraction(1, 3) * h,
               2 * zeta - Fraction(3, 4) * f, zeta]
    formal = factors[0] * factors[1] * factors[2]
    assert eval_product(profile, factors) == eval_top(profile, formal)
    assert eval_product(profile, factors) == Fraction(-21, 4)


def _shapes(profile):
    """Factor lists of degree 2n-1 whose last run is the smallest, the
    largest, or the only run, by their packed term counts."""
    n = profile.dim
    zeta = PTClass.zeta(profile)
    s, t = profile.symbol(profile.basis[0]), profile.symbol(profile.basis[-1])
    wide = (zeta + s - 2 * t) ** (2 * n - 2)
    return {
        "last-smallest": [wide, zeta],
        "last-largest": [zeta, wide],
        "last-largest-of-three": [zeta, zeta + Fraction(1, 2) * s,
                                  (zeta + t) ** (2 * n - 3)],
        "only-power": [zeta - Fraction(2, 3) * s + t] * (2 * n - 1),
        "only-factor": [(zeta + s + t) ** (2 * n - 1)],
    }


@pytest.mark.parametrize("label", ["cubic-surface", "dp-surface-1",
                                   "dp3-degree1", "hypersurface-n8-d3"])
@pytest.mark.parametrize("shape", ["last-smallest", "last-largest",
                                   "last-largest-of-three", "only-power",
                                   "only-factor"])
def test_eval_product_contracts_every_last_run(label, shape):
    # the last run is contracted with the table, not multiplied, whether
    # it is the smaller or the larger side of the pair, or alone
    profile = get_profile(label)
    factors = _shapes(profile)[shape]
    formal = PTClass.one(profile)
    for factor in factors:
        formal = formal * factor
    assert eval_product(profile, factors) == eval_top(profile, formal)


def test_eval_product_multiplies_all_runs_but_the_last(monkeypatch):
    # cubic_mnef_number's two runs, zeta^2 raised by the power recurrence
    # and (zeta + H)^(2n-3) by the binomial route, make no pairwise
    # product, and k distinct consecutive factors (every run has m = 1)
    # make k - 2
    calls = []
    kernel = chow._mul_packed

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(chow, "_mul_packed", counting)
    for n in (3, 16, 72):
        cubic_mnef_number(n)
    assert calls == []
    for label, k in [("cubic-surface", 2), ("cubic-surface", 3),
                     ("dp3-degree1", 5), ("dp-surface-1", 3),
                     ("hypersurface-n4-d3", 7)]:
        profile = get_profile(label)
        zeta, h = PTClass.zeta(profile), profile.symbol(profile.basis[0])
        factors = [zeta + i * h for i in range(k - 1)]
        factors.append((zeta - h) ** (2 * profile.dim - k))
        assert len(set(factors)) == k
        calls.clear()
        eval_product(profile, factors)
        assert len(calls) == k - 2, (label, k)


@pytest.mark.parametrize("n", [72, MAX_HYPERSURFACE_DIM])
def test_power_recurrence_matches_binomials(n):
    # (zeta + aH)^m with m = 2n-3, up to base degree n, against
    # C(m, k) a^k from math.comb, for a = 3 and a = -3/2 (numerators
    # 2 zeta - 3H, so every coefficient is over 2^m): the binomial route.
    # Then (zeta + aH + bH^2)^m, one lowest monomial and three terms, so
    # the power recurrence, against the multinomial sum: the term with
    # i factors aH and j factors bH^2 is C(m, i+j) C(i+j, j) a^i b^j
    # zeta^(m-i-j) H^(i+2j), and each key has one (i, j).
    m = 2 * n - 3
    width = (2 * n - 1).bit_length()
    profile = get_profile(f"hypersurface-n{n}-d3")
    for c0, c1 in ((1, 3), (2, -3)):
        den, f = _pack([((1, (0,)), c0), ((0, (1,)), c1)], width)
        assert den == 1
        power = _unpack(profile, den, _pow_packed(f, m, width, n), width)
        assert dict(power.terms) == {
            (m - k, (k,)): math.comb(m, k) * c0 ** (m - k) * c1 ** k
            for k in range(n + 1)}
    for a, b in ((3, -2), (-1, 5)):
        den, f = _pack([((1, (0,)), 1), ((0, (1,)), a), ((0, (2,)), b)],
                       width)
        assert den == 1
        power = _unpack(profile, den, _pow_packed(f, m, width, n), width)
        assert dict(power.terms) == {
            (m - i - j, (i + 2 * j,)):
                math.comb(m, i + j) * math.comb(i + j, j) * a ** i * b ** j
            for j in range(n // 2 + 1) for i in range(n - 2 * j + 1)}


TWO_SYMBOL_DEGREE_3 = [e for k in (1, 2, 3) for e in compositions(k, 2)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=len(TWO_SYMBOL_DEGREE_3),
                max_size=len(TWO_SYMBOL_DEGREE_3)),
       st.integers(min_value=1, max_value=7))
def test_power_minus_one_inverts_a_series(coeffs, top):
    # f = 1 + (terms of base degree 1..3 in two symbols); f^(-1) up to
    # base degree `top` against f . f^(-1) = 1 and sum_k (1 - f)^k.
    width = max(top, 3).bit_length()
    den, f = _pack([((0, (0, 0)), 1)] + [
        ((0, e), c) for e, c in zip(TWO_SYMBOL_DEGREE_3, coeffs) if c], width)
    assert den == 1
    inverse = _pow_packed(f, -1, width, top)
    assert _mul_packed(f, inverse, width, top) == {0: 1}
    one_minus_f = {k: -c for k, c in f.items() if k}
    geometric, power = {}, {0: 1}
    for _ in range(top + 1):
        for k, c in power.items():
            geometric[k] = geometric.get(k, 0) + c
        power = _mul_packed(power, one_minus_f, width, top)
    assert inverse == {k: c for k, c in geometric.items() if c}


NONZERO = st.integers(-4, 4).filter(bool)
# Two symbols, zeta-power 0..2, base degree 1..3: several terms per level.
LEVEL_TERMS = st.dictionaries(
    st.sampled_from([(zp, e) for zp in range(3) for e in TWO_SYMBOL_DEGREE_3]),
    NONZERO, min_size=1, max_size=8)
# Base degree 0: none, a single P_0 (the recurrence) or two terms.
CONSTANT_TERMS = st.dictionaries(
    st.sampled_from([(zp, (0, 0)) for zp in range(3)]), NONZERO, max_size=2)


def key_of_degree(degree: int):
    return st.tuples(st.integers(0, 2),
                     st.sampled_from(list(compositions(degree, 2))))


@st.composite
def two_terms(draw):
    # Exactly two terms, for the binomial route: both of base degree 0
    # (z + 1), both of one base degree d >= 1 (H + E1), or a single
    # lowest term (z + aH).
    shape = draw(st.sampled_from(["z + 1", "H + E1", "z + aH"]))
    if shape == "z + 1":
        degrees = (0, 0)
    elif shape == "H + E1":
        degrees = (draw(st.integers(1, 3)),) * 2
    else:
        low = draw(st.integers(0, 2))
        degrees = (low, draw(st.integers(low + 1, 3)))
    first = draw(key_of_degree(degrees[0]))
    second = draw(key_of_degree(degrees[1]).filter(lambda k: k != first))
    return {first: draw(NONZERO), second: draw(NONZERO)}


def repeated_power(f, m, width, bound):
    power = f
    for _ in range(m - 1):
        power = _mul_packed(power, f, width, bound)
    return power


@settings(max_examples=60, deadline=None)
@given(LEVEL_TERMS, CONSTANT_TERMS, LEVEL_TERMS,
       st.integers(min_value=1, max_value=6), two_terms(), st.data())
def test_power_kernel_matches_repeated_multiplication(upper, constant, other,
                                                       m, pair, data):
    # f is inhomogeneous; f^m truncated at a bound below m * (f's top base
    # degree) against m - 1 truncated multiplications (f^1 is f itself)
    top = max(sum(e) for _, e in upper)
    bound = data.draw(st.integers(min_value=0, max_value=m * top - 1))
    width = max(bound, 3).bit_length()
    den, f = _pack([*constant.items(), *upper.items()], width)
    assert den == 1
    assert _pow_packed(f, m, width, bound) == repeated_power(f, m, width,
                                                             bound)
    _, g = _pack(list(other.items()), width)
    assert _mul_packed(f, g, width, bound) == _mul_packed(g, f, width, bound)
    # a two-term power, truncated below, at or above m * (its top base
    # degree): below it, even the first term can be past the bound
    m = data.draw(st.integers(min_value=2, max_value=12))
    top = m * max(sum(e) for _, e in pair)
    bound = data.draw(st.one_of(st.integers(0, max(top - 1, 0)),
                                st.just(top), st.integers(top + 1, top + 3)))
    width = max(bound, 3).bit_length()
    _, f = _pack(list(pair.items()), width)
    assert _pow_packed(f, m, width, bound) == repeated_power(f, m, width,
                                                             bound)


# Zeta-power 0..3 and two symbols of base degree 0..3, so every field of a
# pair's key is at most 6 and the width 3 never carries.
CONTRACT_TERMS = st.dictionaries(
    st.sampled_from([(zp, e) for zp in range(4)
                     for e in [(0, 0), *TWO_SYMBOL_DEGREE_3]]),
    NONZERO, max_size=8)


@settings(max_examples=80, deadline=None)
@given(CONTRACT_TERMS, CONTRACT_TERMS, st.integers(0, 6), st.data())
def test_contraction_is_the_table_on_the_product(a, b, bound, data):
    # the table holds keys of base degree <= bound only, as the pushforward
    # table does, so pairs past the bound, which _mul_packed skips and the
    # contraction does not, read 0
    width = 3
    keys = [(zp, e) for zp in range(7) for total in range(bound + 1)
            for e in compositions(total, 2)]
    table = data.draw(st.dictionaries(st.sampled_from(keys),
                                      st.integers(-9, 9), max_size=30))
    _, table = _pack(list(table.items()), width)
    _, a = _pack(list(a.items()), width)
    _, b = _pack(list(b.items()), width)
    expected = sum(c * table.get(k, 0)
                   for k, c in _mul_packed(a, b, width, bound).items())
    assert _contract(a, b, table) == expected
    assert _contract(b, a, table) == expected


@pytest.mark.parametrize("m, constant", [(-2, 1), (-1, 2), (-1, -1), (-1, 0)])
def test_other_negative_powers_raise(m, constant):
    # constant 0: no base-degree-0 term at all
    terms = [((0, (1,)), 3)]
    if constant:
        terms.append(((0, (0,)), constant))
    _, f = _pack(terms, 2)
    with pytest.raises(ValueError, match="power"):
        _pow_packed(f, m, 2, 3)


def test_segre_cache_is_bounded():
    # The Segre classes are not kept; the pushforward table built from them
    # is kept on its profile, and the hypersurface builder's cache bounds
    # how many profiles it keeps alive: 200 distinct hypersurface profiles,
    # more than the cache holds.
    for n in range(3, 13):
        for d in range(1, 21):
            profile = get_profile(f"hypersurface-n{n}-d{d}")
            table = profile._pushforward
            eval_top(profile, PTClass.zeta(profile, 2 * n - 1))
            assert profile._pushforward is table
    info = hypersurface_profile.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


# An empty top form, fractional Chern classes (c_2 = 12/5) and a
# fractional top form, beside the named profiles.
EMPTY_FORM = BaseProfile.make("empty-form", 2, ["H"], {},
                              [{(1,): 3}, {(2,): 3}])
TABLE_PROFILES = (
    *FIXED_LABELS, *(f"hypersurface-n{n}-d3" for n in (3, 64, 65, 200)),
    EMPTY_FORM, threefold_profile(5, 6),
    BaseProfile.make("fractional-form", 2, ["H", "F"],
                     {(2, 0): Fraction(1, 2), (1, 1): Fraction(2, 3)},
                     [{(1, 0): 1, (0, 1): Fraction(1, 3)},
                      {(2, 0): Fraction(5, 4), (1, 1): -2}]))


@pytest.mark.parametrize(
    "profile", TABLE_PROFILES,
    ids=lambda p: p if isinstance(p, str) else p.label)
def test_pushforward_table_matches_segre_route(profile):
    # Against the per-monomial Segre x top-form loop that eval_top ran
    # before the table, on every degree-(2n-1) monomial, not only the
    # table's keys, so a missing nonzero entry fails as well as a wrong one.
    if isinstance(profile, str):
        profile = get_profile(profile)
    top = 2 * profile.dim - 1
    den, packed, width = profile._pushforward
    assert width == top.bit_length()
    cls = _unpack(profile, den, packed, width)
    assert _pack(cls.terms, width) == (den, packed)
    table = dict(cls.terms)
    segre = segre_omega(profile)
    monomials = [(zp, m) for zp in range(top + 1)
                 for m in compositions(top - zp, profile.nsyms)]
    assert set(table) <= set(monomials)
    assert all(table.values())
    form = dict(profile.top_form)
    for zp, m in monomials:
        j = zp - (profile.dim - 1)
        expected = Fraction(0) if j < 0 else sum(
            (s * form.get(tuple(map(operator.add, e, m)), 0)
             for (_, e), s in segre[j].terms), Fraction(0))
        assert table.get((zp, m), 0) == expected


def test_empty_top_form_pushes_to_zero():
    assert EMPTY_FORM._pushforward[1] == {}
    zeta = PTClass.zeta(EMPTY_FORM)
    assert eval_top(EMPTY_FORM, zeta ** 3) == 0
    assert eval_product(EMPTY_FORM, [zeta + EMPTY_FORM.symbol("H")] * 3) == 0


def test_cubic_surface_ledger():
    profile = get_profile("cubic-surface")
    zeta = PTClass.zeta(profile)
    h = profile.symbol("H")
    f = profile.symbol("F")
    assert eval_top(profile, zeta ** 3) == -6
    assert eval_top(profile, zeta ** 2 * h) == 3
    assert eval_top(profile, zeta ** 2 * f) == 2
    assert eval_top(profile, zeta * h * f) == 2
    # Second route: dp-surface-3 with H = -K and F = H - E1.
    lattice = get_profile("dp-surface-3")
    routes = ((profile, (zeta, h, f)),
              (lattice, (PTClass.zeta(lattice), -lattice.canonical,
                         lattice.symbol("H") - lattice.symbol("E1"))))
    for a, b, c in compositions(3, 3):
        values = {eval_top(p, z ** a * x ** b * y ** c)
                  for p, (z, x, y) in routes}
        assert len(values) == 1


def test_threefold_degree1_ledger():
    profile = get_profile("dp3-degree1")
    zeta = PTClass.zeta(profile)
    h = profile.symbol("H")
    assert eval_top(profile, zeta ** 5) == -78
    assert eval_top(profile, zeta ** 4 * h) == -8
    assert eval_top(profile, zeta ** 3 * h * h) == 2


def test_low_zeta_powers_push_to_zero():
    profile = get_profile("dp3-degree1")
    zeta = PTClass.zeta(profile)
    h = profile.symbol("H")
    assert eval_top(profile, zeta * h ** 4) == 0
    assert eval_top(profile, h ** 5) == 0


def test_eval_product_certificates():
    profile = get_profile("dp3-degree1")
    zeta = PTClass.zeta(profile)
    h = profile.symbol("H")
    value = eval_product(
        profile, [zeta, zeta + h, zeta + 3 * h, zeta + 3 * h, zeta + 4 * h])
    assert value == -11

    profile2 = get_profile("dp3-degree2")
    zeta2 = PTClass.zeta(profile2)
    h2 = profile2.symbol("H")
    assert eval_product(profile2, [zeta2, zeta2] + [zeta2 + 2 * h2] * 3) == -8


def test_elementary_symmetric_expansion_matches_product():
    # expand prod(zeta + lam H) over lam in {0,1,3,3,4} by hand and compare
    profile = get_profile("dp3-degree1")
    zeta = PTClass.zeta(profile)
    h = profile.symbol("H")
    lams = [Fraction(v) for v in (0, 1, 3, 3, 4)]
    elementary = [Fraction(1)] + [
        sum((_prod(combo) for combo in itertools.combinations(lams, i)),
            Fraction(0))
        for i in range(1, 6)]
    total = Fraction(0)
    for i in range(6):
        total += elementary[i] * eval_top(profile, zeta ** (5 - i) * h ** i)
    factored = eval_product(profile, [zeta + lam * h for lam in lams])
    assert total == factored == -11


def _prod(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def test_eval_top_rejects_wrong_degree():
    profile = get_profile("cubic-surface")
    zeta = PTClass.zeta(profile)
    with pytest.raises(DegreeMismatchError, match="degree 3"):
        eval_top(profile, zeta ** 2)
    mixed = zeta + zeta ** 3
    with pytest.raises(DegreeMismatchError, match=r"\[1, 3\]"):
        eval_top(profile, mixed)


def test_profile_mismatch_rejected():
    cubic = get_profile("cubic-surface")
    quartic = get_profile("k3-quartic")
    with pytest.raises(ProfileMismatchError):
        PTClass.zeta(cubic) + PTClass.zeta(quartic)
    with pytest.raises(ProfileMismatchError):
        eval_top(quartic, PTClass.zeta(cubic) ** 3)


def test_profiles_sharing_a_label_do_not_combine():
    a = BaseProfile.make("x", 1, ["H"], {(1,): 1}, [{(1,): 2}])
    b = BaseProfile.make("x", 1, ["H"], {(1,): 3}, [{(1,): 2}])
    with pytest.raises(ProfileMismatchError):
        a.symbol("H") + b.symbol("H")
    with pytest.raises(ProfileMismatchError):
        a.symbol("H") * b.symbol("H")
    with pytest.raises(ProfileMismatchError):
        eval_top(b, PTClass.zeta(a))
    # an equal profile built a second time is the same profile
    twin = BaseProfile.from_json(a.to_json())
    assert twin is not a
    assert a.symbol("H") + twin.symbol("H") == 2 * a.symbol("H")


def test_profile_exponents_must_be_ints():
    # int() truncated these: (2.9,) was stored as the top form on (2,)
    chern = [{(1,): 3}, {(2,): 3}]
    for exps in ((2.9,), (2.0,), ("2",), (Fraction(2),)):
        with pytest.raises(ValueError, match=re.escape(
                f"bad top_form exponents {exps}")):
            BaseProfile.make("x", 2, ("H",), {exps: 3}, chern)
        with pytest.raises(ValueError, match=re.escape(
                f"bad c_2 exponents {exps}")):
            BaseProfile.make("x", 2, ("H",), {(2,): 3}, [{(1,): 3}, {exps: 3}])
    assert BaseProfile.make("x", 2, ("H",), {(2,): 3}, chern).top_form == (
        ((2,), 3),)


def test_restrict_to_section():
    assert restrict_to_section((2, 1, -1), 2, 1) == 0
    assert restrict_to_section((2, 1, -1), 2, Fraction(1, 2)) < 0
    assert restrict_to_section((2, 1, 0), 2, 0) == 0
    assert restrict_to_section((2, 1, 0), 0, 0) == 2
    with pytest.raises(IndexError):
        restrict_to_section((2, 1, 0), 5, 0)


@pytest.mark.parametrize("degree", [2.7, "2", True, Fraction(2)])
def test_restrict_to_section_refuses_non_integer_degrees(degree):
    with pytest.raises(ValueError, match="not an integer"):
        restrict_to_section([degree, 1, -1], 0, 0)


@pytest.mark.parametrize("dim", [2.9, "2", True, Fraction(2), None])
def test_profile_json_dim_must_be_an_int(dim):
    doc = get_profile("cubic-surface").to_json()
    doc["dim"] = dim
    with pytest.raises(ValueError, match="not an integer"):
        BaseProfile.from_json(doc)


def test_dual_vmrt_generic():
    profile = get_profile("cubic-surface")
    h, f = profile.symbol("H"), profile.symbol("F")
    cls = dual_vmrt_generic(profile, 1, h - 2 * f)
    expected = (PTClass.zeta(profile)
                + (2 * f - h))
    assert cls == expected
    assert dual_vmrt_generic(profile, 1, PTClass.zero(profile)) == PTClass.zeta(profile)
    with pytest.raises(DegreeMismatchError):
        dual_vmrt_generic(profile, 1, h * h)
    with pytest.raises(ValueError):
        dual_vmrt_generic(profile, 0, h)


def test_fiber_line_degree():
    # a line in a pi-fibre is pi^*[pt]; zeta restricts to its hyperplane
    # class and pulled-back divisors to zero, so c.z + pi^*D pairs to c.
    # [pt] = H^2/3 on the cubic's {H, F} profile and H^2 on the lattice one
    for label, fibre, divisors in (
            ("cubic-surface", "1/3*H^2", ("0", "H", "2H - 3F", "-1/2*F")),
            ("dp-surface-3", "H^2", ("0", "K", "H - E1 - E2", "3E6 - 2K"))):
        profile = get_profile(label)
        for c in (0, 1, 3, -2, Fraction(-23, 4)):
            for d in divisors:
                cls = parse_expr(profile, f"{fibre}*({c}*z + {d})")
                assert eval_top(profile, cls) == c, (label, c, d)


@pytest.mark.parametrize("text", ["1/0", "3/00", "-0/0"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match=re.escape(
            f"zero denominator in {text!r}")):
        as_fraction(text)
    doc = get_profile("cubic-surface").to_json()
    doc["top_form"][0]["value"] = text
    with pytest.raises(ValueError, match="zero denominator"):
        BaseProfile.from_json(doc)


def test_profile_json_round_trip():
    for label in ("cubic-surface", "dp3-degree1", "k3-quartic",
                  "dp-surface-4", "hypersurface-n3-d3"):
        profile = get_profile(label)
        assert BaseProfile.from_json(profile.to_json()) == profile


@settings(max_examples=50, deadline=None)
@given(random_profiles())
def test_canonical_is_minus_c1(random_profile):
    # K_X = -c_1(T_X) on every profile: in the parser and in the JSON form
    for profile in (random_profile, *map(get_profile, FIXED_LABELS)):
        assert parse_expr(profile, "K") == -profile.chern[0]
        doc = profile.to_json()
        assert doc["canonical"] == [
            {"exponents": e["exponents"],
             "value": fraction_str(-Fraction(e["value"]))}
            for e in doc["chern"][0]]


def test_profile_validation():
    with pytest.raises(ValueError):
        BaseProfile.make("bad", 2, ["H"], {(1,): 1}, [{(1,): 1}, {(2,): 1}])
    with pytest.raises(ValueError):
        BaseProfile.make("bad", 2, ["H"], {}, [{(1,): 1}])
    with pytest.raises(DegreeMismatchError):
        BaseProfile.make("bad", 2, ["H"], {}, [{(2,): 1}, {(2,): 1}])
