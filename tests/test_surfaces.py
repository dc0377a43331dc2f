"""Del Pezzo surface lattices, curve enumeration and certificates."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from tautclass.chow import PTClass, eval_top
from tautclass.exprparse import parse_expr
from tautclass.hypersurfaces import weighted_ci_profile
from tautclass.profiles import get_profile
from tautclass.threefolds import WEIGHTED_CI
from tautclass import claims, surfaces
from tautclass.surfaces import (CurveClass, _a0_range,
                                _surface_chern_numbers,
                                chi_sym_cubic_coefficient,
                                chi_sym_tangent_surface, conic_classes,
                                conic_vmrt_class, curve_poly,
                                degenerate_members, degree4_lines_covered,
                                degree4_pencil_pairs, degree4_vmrt_pair_sum,
                                family, minus_one_curves, noether_check,
                                orbit_sum, reflect, residual_match,
                                simple_roots, surface_lattice,
                                surface_lattice_profile)


def test_lattice_invariants():
    for degree in range(1, 8):
        lattice = surface_lattice(degree)
        assert lattice.rank == 10 - degree
        assert lattice.pair(lattice.k, lattice.k) == degree
    with pytest.raises(ValueError):
        surface_lattice(8)


# (weights, degrees) of the del Pezzo surfaces of degree 1..4: a sextic in
# P(1,1,2,3), a quartic in P(1,1,1,2), a cubic in P^3 and (2,2) in P^4.
# dP_d is a hyperplane section of the threefold V_d, so each is V_d's
# weighted complete intersection with one weight-1 coordinate dropped.
WEIGHTED_DP_SURFACES = {d: (weights[1:], degrees)
                        for d, (weights, degrees) in WEIGHTED_CI.items()}


@pytest.mark.parametrize("degree", sorted(WEIGHTED_DP_SURFACES))
def test_weighted_route_matches_lattice(degree):
    # The weighted route, where H = -K, against the blow-up lattice at H = -K.
    weighted = weighted_ci_profile("wci", *WEIGHTED_DP_SURFACES[degree])
    lattice = surface_lattice_profile(degree)
    assert weighted.chern[0] == weighted.symbol("H")
    for profile in (weighted, lattice):
        assert profile.evaluate(profile.canonical ** 2) == degree
        assert profile.evaluate(profile.chern[1]) == 12 - degree
    for zp in range(4):
        assert eval_top(weighted, PTClass.zeta(weighted, zp)
                        * weighted.symbol("H") ** (3 - zp)) == eval_top(
            lattice, PTClass.zeta(lattice, zp) * (-lattice.canonical) ** (3 - zp))


def test_minus_one_counts():
    expected = {1: 240, 2: 56, 3: 27, 4: 16, 5: 10}
    for degree, count in expected.items():
        assert len(minus_one_curves(surface_lattice(degree))) == count


def test_minus_one_classes_are_lines():
    lattice = surface_lattice(3)
    for curve in minus_one_curves(lattice):
        assert lattice.selfint(curve) == -1
        assert lattice.pair(lattice.k, curve) == -1


def test_conic_counts_and_conditions():
    expected = {3: 27, 4: 10, 5: 5}
    for degree, count in expected.items():
        lattice = surface_lattice(degree)
        conics = conic_classes(lattice)
        assert len(conics) == count
        for fiber in conics:
            assert lattice.selfint(fiber) == 0
            assert lattice.pair(lattice.k, fiber) == -2
    with pytest.raises(ValueError):
        conic_classes(surface_lattice(2))


def test_cubic_conics_biject_with_lines():
    assert residual_match(3, "lines", "conics")
    assert residual_match(3, "conics", "lines")
    # equal sizes, no match: -K - l is a conic, never a line
    assert not residual_match(3, "lines", "lines")
    assert not residual_match(3, "conics", "conics")
    assert not residual_match(5, "conics", "conics")


def test_family_names():
    for degree in (3, 4, 5):
        lattice = surface_lattice(degree)
        assert family(degree, "lines") == minus_one_curves(lattice)
        assert family(degree, "conics") == conic_classes(lattice)
    for name in ("conic_vmrt", "line", ""):
        with pytest.raises(ValueError, match="unknown curve family"):
            family(3, name)
    with pytest.raises(ValueError):
        family(2, "conics")


@pytest.mark.parametrize("name, enumerator",
                         [("lines", "minus_one_curves"),
                          ("conics", "conic_classes")])
def test_count_op_calls_the_enumerator_it_finds_on_the_module(
        name, enumerator, monkeypatch):
    # a tracer counts enumerations by rebinding the module attribute, so
    # the count op must reach the enumerator through it
    original, calls = getattr(surfaces, enumerator), []

    def counting(lattice):
        calls.append(lattice.degree)
        return original(lattice)

    monkeypatch.setattr(surfaces, enumerator, counting)
    assert claims.OPS["surfaces.count"](degree=4, family=name) == {
        "lines": 16, "conics": 10}[name]
    assert calls == [4]


def test_degenerate_member_counts():
    for degree in (3, 4, 5):
        lattice = surface_lattice(degree)
        for fiber in conic_classes(lattice):
            pairs = degenerate_members(lattice, fiber)
            assert len(pairs) == 8 - degree
            firsts = [l1.coeffs for l1, _ in pairs]
            assert firsts == sorted(set(firsts))
            for l1, l2 in pairs:
                assert l1 + l2 == fiber and l1.coeffs < l2.coeffs
                assert lattice.selfint(l1) == lattice.selfint(l2) == -1
                assert lattice.pair(l1, l2) == 1
    with pytest.raises(ValueError):
        degenerate_members(surface_lattice(3), surface_lattice(3).k)


def test_degree4_pairing_and_coverage():
    assert residual_match(4, "conics", "conics")
    pairs = degree4_pencil_pairs()
    assert len(pairs) == 5
    lattice = surface_lattice(4)
    for p, q in pairs:
        assert p + q == -lattice.k
    assert degree4_lines_covered() == 16
    # every pencil pair covers all 16 lines, not just the first
    for pair in pairs:
        lines = set()
        for fiber in pair:
            for l1, l2 in degenerate_members(lattice, fiber):
                lines.update((l1, l2))
        assert lines == set(minus_one_curves(lattice))


def test_degree4_vmrt_pair_sum_is_twice_zeta():
    profile = surface_lattice_profile(4)
    assert degree4_vmrt_pair_sum() == PTClass.zeta(profile) * 2


def test_degree5_conics():
    lattice = surface_lattice(5)
    conics = conic_classes(lattice)
    for a, b in itertools.combinations(conics, 2):
        assert lattice.pair(a, b) == 1
    profile = surface_lattice_profile(5)
    assert orbit_sum(5, "conics") == curve_poly(profile, -2 * lattice.k)
    expected = (PTClass.zeta(profile) * 5
                + curve_poly(profile, lattice.k))
    assert orbit_sum(5, "conic_vmrt") == expected


def test_conic_vmrt_invariant_under_degeneration():
    # replacing F by l1 + l2 leaves the class unchanged
    for degree in (3, 4, 5):
        lattice = surface_lattice(degree)
        fiber = conic_classes(lattice)[0]
        cls = conic_vmrt_class(lattice, fiber)
        for l1, l2 in degenerate_members(lattice, fiber):
            assert conic_vmrt_class(lattice, l1 + l2) == cls


def _value(label: str, text: str) -> Fraction:
    profile = get_profile(label)
    return eval_top(profile, parse_expr(profile, text))


def test_cubic_certificate_values():
    # the registry's dp2.cubic.cert-* expressions, C = z - H + 2F
    a = _value("cubic-surface", "z*(z - H + 2F)*(z + H)")
    b = _value("cubic-surface", "(z - H + 2F)^2*(z + H)")
    assert (a, b) == (-1, -4)
    budget = _value("cubic-surface", "1/3*(z - 27/4*(z - H + 2F))*H^2")
    assert budget == Fraction(-23, 4)
    # boundary: a - (1/4) b = 0, so a - lam.b < 0 exactly for lam < 1/4
    assert a - Fraction(1, 4) * b == 0


def test_cubic_certificate_on_full_lattice():
    # the same numbers on the rank-7 profile, with H = -K and F = -K - E1,
    # so C = z - K - 2E1, and a fibre line pi^*[pt] = H^2
    profile = surface_lattice_profile(3)
    lattice = surface_lattice(3)
    fiber = -lattice.k - CurveClass((0, 1, 0, 0, 0, 0, 0))
    assert (conic_vmrt_class(lattice, fiber)
            == parse_expr(profile, "z - K - 2E1"))
    assert _value("dp-surface-3", "z*(z - K - 2E1)*(z - K)") == -1
    assert _value("dp-surface-3", "(z - K - 2E1)^2*(z - K)") == -4
    budget = _value("dp-surface-3", "(z - 27/4*(z - K - 2E1))*H^2")
    assert budget == Fraction(-23, 4)


def test_weyl_reflection_closure():
    for degree in range(1, 8):
        lattice = surface_lattice(degree)
        lines = set(minus_one_curves(lattice))
        for root in simple_roots(lattice):
            assert lattice.selfint(root) == -2
            assert lattice.pair(root, lattice.k) == 0
            assert {reflect(lattice, c, root) for c in lines} == lines
    for degree in (3, 4, 5):
        lattice = surface_lattice(degree)
        conics = set(conic_classes(lattice))
        for root in simple_roots(lattice):
            assert {reflect(lattice, c, root) for c in conics} == conics


def test_orbit_sums_are_the_weyl_invariant_closed_forms():
    # second route: W(E_r) permutes each family and, for d <= 6, fixes only
    # the multiples of K, so N classes of anticanonical degree k sum to
    # (kN/d)(-K); the conic dual VMRTs zeta + pi^*(K + 2F) then sum to
    # N zeta + N(d - 4)/d pi^*K
    vmrt_sums = {3: "27z - 9K", 4: "10z", 5: "5z + K", 6: "3z + K"}
    for degree in range(1, 8):
        lattice = surface_lattice(degree)
        profile = surface_lattice_profile(degree)
        minus_k = -profile.canonical
        zeta = PTClass.zeta(profile)
        names = ("lines", "conics") if degree >= 3 else ("lines",)
        for name, k in zip(names, (1, 2)):
            curves = family(degree, name)
            total = sum(curves[1:], curves[0])
            # the lattice sum is fixed by every simple reflection
            for root in simple_roots(lattice):
                assert reflect(lattice, total, root) == total
            assert curve_poly(profile, total) == orbit_sum(degree, name)
            closed = Fraction(k * len(curves), degree) * minus_k
            assert (orbit_sum(degree, name) == closed) == (degree <= 6)
        if degree >= 3:
            n = len(family(degree, "conics"))
            closed = n * zeta - Fraction(n * (degree - 4), degree) * minus_k
            vmrt_sum = orbit_sum(degree, "conic_vmrt")
            assert (vmrt_sum == closed) == (degree <= 6)
            if degree <= 6:
                assert vmrt_sum == parse_expr(profile, vmrt_sums[degree])
    # at d = 7 the lines E1, E2, H - E1 - E2 sum to H: invariant, yet no
    # multiple of K
    assert orbit_sum(7, "lines") == surface_lattice_profile(7).symbol("H")


def _weyl_orbit(lattice, seed):
    orbit, frontier = {seed}, [seed]
    roots = simple_roots(lattice)
    while frontier:
        curve = frontier.pop()
        for root in roots:
            image = reflect(lattice, curve, root)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def test_weyl_orbits_match_enumeration():
    # second route: lines are the Weyl orbit of E_r, conics that of H - E1
    for degree, count in zip(range(1, 7), (240, 56, 27, 16, 10, 6)):
        lattice = surface_lattice(degree)
        orbit = _weyl_orbit(lattice, CurveClass((0,) * lattice.r + (1,)))
        assert len(orbit) == count
        assert orbit == set(minus_one_curves(lattice))
    for degree, count in zip(range(3, 8), (27, 10, 5, 3, 2)):
        lattice = surface_lattice(degree)
        orbit = _weyl_orbit(lattice, CurveClass((1, -1) + (0,) * (lattice.r - 1)))
        assert len(orbit) == count
        assert orbit == set(conic_classes(lattice))
    # degree 7 has no root H - E1 - E2 - E3: E1, E2 form one orbit and
    # H - E1 - E2 is the third line
    lattice = surface_lattice(7)
    orbit = _weyl_orbit(lattice, CurveClass((0, 0, 1)))
    assert orbit == {CurveClass((0, 1, 0)), CurveClass((0, 0, 1))}
    assert set(minus_one_curves(lattice)) == orbit | {CurveClass((1, -1, -1))}


def test_enumeration_bounds_lose_nothing_in_a_wider_box():
    box = range(-3, 4)
    for degree in (5, 6, 7):
        lattice = surface_lattice(degree)
        for selfint, k, enumerated in ((-1, 1, minus_one_curves(lattice)),
                                       (0, 2, conic_classes(lattice))):
            a0s = _a0_range(lattice.r, selfint, k)
            ai_bound = math.isqrt(max(a0 * a0 for a0 in a0s) - selfint)
            # the box is strictly wider than the derived bounds
            assert box[0] < a0s[0] and a0s[-1] < box[-1]
            assert ai_bound < box[-1]
            found = [c for c in map(CurveClass, itertools.product(
                         box, repeat=lattice.rank))
                     if lattice.selfint(c) == selfint
                     and lattice.pair(lattice.k, c) == -k]
            assert found == list(enumerated)


def test_chi_sym_values():
    for degree in range(1, 10):
        assert chi_sym_tangent_surface(degree, 0) == 1
    # chi(T_X) = 2d - 10: 8 vector fields on the plane, 6 on a quadric
    assert chi_sym_tangent_surface(9, 1) == 8
    assert chi_sym_tangent_surface(8, 1) == 6


def test_chi_growth_threshold():
    for degree in range(1, 10):
        coeff = chi_sym_cubic_coefficient(degree)
        assert coeff == Fraction(degree - 6, 3)
        assert (coeff > 0) == (degree >= 7)


def test_noether_relation():
    for degree in range(1, 10):
        assert noether_check(degree)
    # the lattice rule at the two degrees past surface_lattice's range
    assert _surface_chern_numbers(8) == (8, 4)
    assert _surface_chern_numbers(9) == (9, 3)
