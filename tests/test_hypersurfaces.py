"""Hypersurface Chern/Segre data and the binomial identities."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from tautclass import chow, hypersurfaces
from tautclass.chow import PTClass, eval_top, segre_omega
from tautclass.exprparse import parse_expr
from tautclass.hypersurfaces import (MAX_COMB_POWER, MAX_HYPERSURFACE_DIM,
                                     HypersurfaceSpec, binom, comb_A_brute,
                                     comb_A_closed, comb_identity_A,
                                     cubic_mnef_closed_form,
                                     cubic_mnef_number, hypersurface_profile,
                                     recursion_check_A, segre_closed_form,
                                     segre_closed_form_factored,
                                     sum_negative_part, sum_positive_part)


def test_binom_negative_lower_index():
    assert binom(5, -1) == 0
    assert binom(5, 2) == 10


def test_cubic_threefold_profile():
    profile = hypersurface_profile(HypersurfaceSpec(3, 3))
    h = profile.symbol("H")
    assert profile.chern[0] == 2 * h
    assert profile.evaluate(profile.chern[1] * h) == 12
    assert profile.evaluate(profile.chern[2]) == -6
    # the registry's c_1 claim: n + 2 - d = 2
    assert eval_top(profile, parse_expr(profile, "1/3*z^2*c1*H^2")) == 2


def test_chern_recurrence_matches_binomial_sum():
    for n in range(1, 41):
        for d in range(1, 6):
            profile = hypersurface_profile(HypersurfaceSpec(n, d))
            for j in range(1, n + 1):
                # degree-j coefficient of (1+H)^(n+2) . sum_k (-dH)^k
                c = sum(math.comb(n + 2, i) * (-d) ** (j - i)
                        for i in range(j + 1))
                assert profile.chern[j - 1] == PTClass.make(profile,
                                                            {(0, (j,)): c})


def test_cubic_surface_profile_numbers():
    profile = hypersurface_profile(HypersurfaceSpec(2, 3))
    assert profile.evaluate(profile.chern[0] ** 2) == 3
    assert profile.evaluate(profile.chern[1]) == 9


def test_quartic_k3_profile_numbers():
    profile = hypersurface_profile(HypersurfaceSpec(2, 4))
    assert profile.chern[0].is_zero
    assert profile.evaluate(profile.chern[1]) == 24
    # the registry's c_1 claim: n + 2 - d = 0
    assert eval_top(profile, parse_expr(profile, "1/4*z*c1*H")) == 0


def test_segre_closed_form_examples():
    assert segre_closed_form(HypersurfaceSpec(3, 3), 2) == 0
    assert segre_closed_form(HypersurfaceSpec(2, 3), 1) == -1
    assert segre_closed_form(HypersurfaceSpec(3, 3), 3) == 10
    with pytest.raises(ValueError):
        segre_closed_form(HypersurfaceSpec(3, 3), 4)


def test_segre_closed_form_matches_series_inversion():
    # n = 127, 128 and the cap 200: packed key fields of 7 and 8 bits.
    cases = [(n, d) for n in range(2, 9) for d in range(1, 7)]
    for n, d in cases + [(127, 3), (128, 3), (MAX_HYPERSURFACE_DIM, 3)]:
        spec = HypersurfaceSpec(n, d)
        profile = hypersurface_profile(spec)
        segre = segre_omega(profile)
        for l in range(1, n + 1):
            # s_l(T) = (-1)^l s_l(Omega)
            omega_coeff = Fraction((-1) ** l) * segre_closed_form(spec, l)
            assert segre[l] == PTClass.make(
                profile, {(0, (l,)): omega_coeff})
            assert (segre_closed_form_factored(spec, l)
                    == segre_closed_form(spec, l))


def test_cubic_mnef_values():
    assert cubic_mnef_number(3) == -9
    assert cubic_mnef_number(4) == -36
    assert cubic_mnef_number(5) == cubic_mnef_closed_form(5) == -168
    with pytest.raises(ValueError):
        cubic_mnef_number(2)


def test_cubic_mnef_strictly_negative():
    # n = 3..72 covers every n of the mnef_scaling benchmark, 16..72
    for n in range(3, 73):
        assert cubic_mnef_number(n) == cubic_mnef_closed_form(n) < 0, n


def test_cubic_mnef_large_n():
    # 2n-1 = 127 fills 7 bits of a packed key field; 129 needs 8.
    for n in (40, 64, 65, 72, 120, MAX_HYPERSURFACE_DIM):
        assert cubic_mnef_number(n) == cubic_mnef_closed_form(n) < 0


def test_cubic_mnef_builds_no_class_by_make(monkeypatch):
    # the factor zeta + H is the atoms' terms joined, not PTClass.__add__'s
    # make, and eval_product raises its runs without a pairwise product;
    # the factor equals the class make builds from zeta + H
    makes, products, runs = [], [], []
    make, kernel = PTClass.make, chow._mul_packed
    evaluate = hypersurfaces.eval_product

    def counting_make(*args):
        makes.append(1)
        return make(*args)

    def counting_mul(*args):
        products.append(1)
        return kernel(*args)

    def capturing(profile, factors):
        runs.append((profile, factors))
        return evaluate(profile, factors)

    monkeypatch.setattr(PTClass, "make", staticmethod(counting_make))
    monkeypatch.setattr(chow, "_mul_packed", counting_mul)
    monkeypatch.setattr(hypersurfaces, "eval_product", capturing)
    for n in (3, 16, 72, MAX_HYPERSURFACE_DIM):
        cubic_mnef_number(n)
    assert makes == [] and products == []
    monkeypatch.undo()
    assert len(runs) == 4
    for profile, factors in runs:
        zeta = PTClass.zeta(profile)
        assert factors[:2] == [zeta, zeta]
        assert factors[-1] == zeta + profile.symbol("H")
        assert len(factors) == 2 * profile.dim - 1


def test_binomial_sums():
    assert sum_positive_part(3) == 96
    assert sum_positive_part(4) == 681
    assert sum_negative_part(3) == 33
    for part in (sum_positive_part, sum_negative_part):
        with pytest.raises(ValueError, match=f"n <= {MAX_HYPERSURFACE_DIM}"):
            part(MAX_HYPERSURFACE_DIM + 1)


def test_sum_combination_reproduces_mnef():
    # d (positive - 3 negative) with d = 3 is the modified-nef number
    for n in (*range(3, 13), MAX_HYPERSURFACE_DIM):
        combined = 3 * (sum_positive_part(n) - 3 * sum_negative_part(n))
        assert combined == cubic_mnef_number(n)


def test_comb_identity_examples():
    brute, closed = comb_identity_A(0, 5)
    assert brute == closed == Fraction(4, 15)
    assert comb_identity_A(1, 3)[0] == 2
    assert comb_identity_A(2, 3)[0] == 4
    # the Stirling closed form covers every k <= MAX_COMB_POWER
    for k in range(MAX_COMB_POWER + 1):
        for n in range(1, 61):
            assert comb_A_closed(k, n) == comb_A_brute(k, n), (k, n)
    with pytest.raises(ValueError, match=f"k <= {MAX_COMB_POWER}"):
        comb_A_closed(MAX_COMB_POWER + 1, 3)
    # both routes stop at n = MAX_HYPERSURFACE_DIM
    assert comb_A_brute(4, 200) == comb_A_closed(4, 200)
    with pytest.raises(ValueError, match="n <= 200"):
        comb_A_closed(4, 201)


def test_comb_identity_full_grid():
    for n in range(1, 31):
        for k in range(5):
            brute, closed = comb_identity_A(k, n)
            assert brute == closed


def test_recursion_check():
    assert recursion_check_A(1, 3)
    assert all(recursion_check_A(4, n) for n in range(2, 31))
    assert recursion_check_A(1, 2)
    assert all(recursion_check_A(k, 12) for k in range(1, MAX_COMB_POWER + 1))
    with pytest.raises(ValueError, match=f"k <= {MAX_COMB_POWER}"):
        recursion_check_A(MAX_COMB_POWER + 1, 3)
