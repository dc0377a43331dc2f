"""Acceptance suite: one check per pinned criterion, every comparison exact.

Each test prints a single ``criterion NN: PASS/FAIL`` line (run with ``-s``
to see them all).  Criterion 9 is expected to fail: the recorded constant
-49/6 for the degree-2 divisor-case product is not reproducible from the
profile's own intersection numbers, which give -17/2 (see README).
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from tautclass import claims as claims_mod
from tautclass import schur
from tautclass.chow import (BaseProfile, PTClass, eval_top,
                            segre_omega)
from tautclass.exprparse import format_class, parse_expr
from tautclass.hypersurfaces import (HypersurfaceSpec, comb_identity_A,
                                     cubic_mnef_number, hypersurface_profile,
                                     recursion_check_A, segre_closed_form,
                                     sum_positive_part)
from tautclass.profiles import get_profile
from tautclass.surfaces import (conic_classes, conic_vmrt_class,
                                cubic_surface_certificate, curve_poly,
                                degenerate_members, degree4_pencil_pairs,
                                chi_sym_cubic_coefficient,
                                chi_sym_tangent_surface, minus_one_curves,
                                noether_check, reflect, simple_roots,
                                surface_lattice, surface_lattice_profile,
                                _enumerate_classes)
from tautclass.threefolds import (certificate_degree1,
                                  certificate_degree2_divisor,
                                  certificate_degree2_modnef, profile_triple,
                                  threefold_profile, vmrt_table)


def _report(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d}: {status} - {label}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def test_criterion_01_cubic_surface_ledger():
    failures: list[str] = []
    profile = get_profile("cubic-surface")
    for expr, expected in (("z^3", -6), ("z^2*H", 3), ("z^2*F", 2),
                           ("z*H*F", 2)):
        value = eval_top(profile, parse_expr(profile, expr))
        _check(failures, value == expected, f"{expr} = {value} != {expected}")
    cert = cubic_surface_certificate()
    _check(failures, cert.a == -1, f"a = {cert.a}")
    _check(failures, cert.b == -4, f"b = {cert.b}")
    _check(failures, cert.budget == Fraction(-23, 4), f"budget = {cert.budget}")
    _check(failures, cert.a - Fraction(1, 4) * cert.b == 0, "boundary a - b/4")
    _report(1, "cubic surface intersection ledger and certificate", failures)


def test_criterion_02_degree4_surface():
    failures: list[str] = []
    lattice = surface_lattice(4)
    conics = conic_classes(lattice)
    lines = minus_one_curves(lattice)
    _check(failures, len(conics) == 10, f"{len(conics)} conics")
    _check(failures, len(lines) == 16, f"{len(lines)} lines")
    pairs = degree4_pencil_pairs()
    _check(failures, len(pairs) == 5, f"{len(pairs)} pairs")
    _check(failures, all(p + q == -lattice.k for p, q in pairs),
           "pair sums differ from -K")
    covered: set = set()
    for fiber in conics:
        members = degenerate_members(lattice, fiber)
        _check(failures, len(members) == 4,
               f"{len(members)} degenerate members for {fiber.coeffs}")
    for fiber in pairs[0]:
        for l1, l2 in degenerate_members(lattice, fiber):
            covered.update((l1, l2))
    _check(failures, covered == set(lines), "pencil pair misses lines")
    profile = surface_lattice_profile(4)
    two_zeta = PTClass.zeta(profile) * 2
    for p, q in pairs:
        total = conic_vmrt_class(lattice, p) + conic_vmrt_class(lattice, q)
        _check(failures, total == two_zeta, "dual-VMRT pair sum != 2 zeta")
    _report(2, "degree-4 surface pencils and dual-VMRT pairing", failures)


def test_criterion_03_degree5_surface():
    failures: list[str] = []
    lattice = surface_lattice(5)
    conics = conic_classes(lattice)
    _check(failures, len(conics) == 5, f"{len(conics)} conics")
    _check(failures,
           all(lattice.pair(a, b) == 1
               for a, b in itertools.combinations(conics, 2)),
           "pairwise products differ from 1")
    total = conics[0]
    for c in conics[1:]:
        total = total + c
    _check(failures, total == -2 * lattice.k, "conic sum differs from -2K")
    profile = surface_lattice_profile(5)
    vmrt_sum = PTClass.zero(profile)
    for fiber in conics:
        vmrt_sum = vmrt_sum + conic_vmrt_class(lattice, fiber)
    expected = (PTClass.zeta(profile) * 5
                + curve_poly(profile, lattice.k))
    _check(failures, vmrt_sum == expected, "dual-VMRT sum != 5 zeta + K")
    _report(3, "degree-5 surface conic geometry", failures)


def test_criterion_04_curve_counts_and_timing():
    failures: list[str] = []
    expected_lines = {1: 240, 2: 56, 3: 27, 4: 16, 5: 10}
    start = time.perf_counter()
    degree1 = _enumerate_classes(surface_lattice(1), -1, 1)
    elapsed = time.perf_counter() - start
    _check(failures, len(degree1) == 240, f"degree 1: {len(degree1)}")
    _check(failures, elapsed < 5.0, f"degree-1 enumeration took {elapsed:.2f}s")
    for degree, count in expected_lines.items():
        found = len(minus_one_curves(surface_lattice(degree)))
        _check(failures, found == count, f"degree {degree}: {found} lines")
    for degree in (3, 4, 5):
        lattice = surface_lattice(degree)
        for fiber in conic_classes(lattice):
            members = degenerate_members(lattice, fiber)
            _check(failures, len(members) == 8 - degree,
                   f"degree {degree} fibre count {len(members)}")
    _report(4, "(-1)-curve counts and singular-fibre counts", failures)


def test_criterion_05_segre_closed_form_grid():
    failures: list[str] = []
    for n in range(2, 9):
        for d in range(1, 7):
            spec = HypersurfaceSpec(n, d)
            profile = hypersurface_profile(spec)
            segre = segre_omega(profile)
            for l in range(1, n + 1):
                closed = Fraction((-1) ** l) * segre_closed_form(spec, l)
                expected = PTClass.make(profile, {(0, (l,)): closed})
                _check(failures, segre[l] == expected,
                       f"(n,d,l) = ({n},{d},{l})")
    _report(5, "Segre closed form vs series inversion on the full grid",
            failures)


def test_criterion_06_cubic_modified_nef_identity():
    failures: list[str] = []
    for n in range(3, 13):
        closed = (Fraction(-9 * 2**n, 8 * (2 * n - 1) * (n + 1))
                  * math.comb(2 * n, n))
        value = cubic_mnef_number(n)
        _check(failures, value == closed, f"n = {n}: {value} != {closed}")
    _check(failures, cubic_mnef_number(3) == -9, "n = 3 value")
    _check(failures, sum_positive_part(3) == 96, "positive sum at n = 3")
    _check(failures, sum_positive_part(4) == 681, "positive sum at n = 4")
    _report(6, "cubic modified-nef intersection identity", failures)


def test_criterion_07_comb_identities():
    failures: list[str] = []
    for n in range(1, 31):
        for k in range(5):
            brute, closed = comb_identity_A(k, n)
            _check(failures, brute == closed, f"A({k},{n})")
    for n in range(2, 31):
        for k in range(1, 5):
            _check(failures, recursion_check_A(k, n), f"recursion ({k},{n})")
    _report(7, "A(k,n) closed forms and recursion", failures)


def test_criterion_08_threefold_triples():
    failures: list[str] = []
    _check(failures, profile_triple(threefold_profile(1, 42)) == (-78, -8, 2),
           "(1,42) triple")
    _check(failures, profile_triple(threefold_profile(2, 20)) == (-48, -4, 4),
           "(2,20) triple")
    for d in range(1, 7):
        for b3 in range(0, 61, 2):
            triple = profile_triple(threefold_profile(d, b3))
            _check(failures,
                   triple == (8 * d - 44 - b3, 4 * d - 12, 2 * d),
                   f"symbolic triple at (d,b3) = ({d},{b3})")
    cubic = hypersurface_profile(HypersurfaceSpec(3, 3))
    dp3 = threefold_profile(3, 10)
    for zp in range(6):
        h1 = cubic.symbol("H")
        h2 = dp3.symbol("H")
        lhs = eval_top(cubic, PTClass.zeta(cubic) ** zp * h1 ** (5 - zp))
        rhs = eval_top(dp3, PTClass.zeta(dp3) ** zp * h2 ** (5 - zp))
        _check(failures, lhs == rhs, f"route mismatch at zeta^{zp}")
    _report(8, "threefold intersection triples and route consistency",
            failures)


def test_criterion_09_certificates():
    failures: list[str] = []
    cert1 = certificate_degree1()
    modnef = certificate_degree2_modnef()
    divisor = certificate_degree2_divisor()
    _check(failures, cert1 == -11, f"degree-1 certificate = {cert1}")
    _check(failures, modnef == -8, f"degree-2 modified-nef = {modnef}")
    _check(failures, cert1 < 0 and modnef < 0 and divisor < 0,
           "certificates not all strictly negative")
    _check(failures, divisor == Fraction(-49, 6),
           f"degree-2 divisor-case product = {divisor}, recorded value -49/6 "
           "(exact expansion gives -17/2; see README and the claim "
           "dp3.cert.deg2.divisor)")
    _report(9, "threefold negativity certificates", failures)


def test_criterion_10_vmrt_table():
    failures: list[str] = []
    rows = vmrt_table()
    for d, text in ((5, "3z - H"), (4, "4z"), (3, "6z + 3H"),
                    (2, "12z + 16H")):
        profile = get_profile(f"dp3-degree{d}")
        _check(failures, rows[d].cls == parse_expr(profile, text),
               f"degree {d} class")
        _check(failures,
               format_class(profile, rows[d].cls) == text,
               f"degree {d} rendering")
    _check(failures, rows[1].cls is None and rows[1].k == 60,
           "degree-1 row shape")
    _check(failures, rows[1].h_coefficient == 180, "degree-1 bound")
    applies = [rows[d].not_big_certificate_applies() for d in range(1, 6)]
    _check(failures, applies == [True, True, True, True, False],
           f"not-big certificate pattern {applies}")
    _report(10, "dual-VMRT class table", failures)


def test_criterion_11_schur_suite():
    failures: list[str] = []

    def partitions_up_to(weight):
        def rec(remaining, cap, acc):
            yield acc
            for part in range(min(remaining, cap), 0, -1):
                yield from rec(remaining - part, part, acc + (part,))
        yield from rec(weight, weight, ())

    for mu in partitions_up_to(8):
        for n in range(1, 6):
            _check(failures, schur.schur_dim(mu, n) == schur.ssyt_count(mu, n),
                   f"SSYT mismatch at {mu}, n = {n}")
    for n in range(2, 11):
        for k in range(1, 11):
            _check(failures, schur.plethysm_rectangle_check(n, k),
                   f"rectangle identity at ({n},{k})")
    for n in range(2, 9):
        for d in range(1, 9):
            for k in range(1, 7):
                _check(failures, schur.bridge_identity_check(n, d, k),
                       f"bridge identity at ({n},{d},{k})")
    for n in range(2, 7):
        for r in range(n + 1):
            for j in range(1, n):
                _check(failures, schur.bott_vanishing(n, r, j),
                       f"Bott vanishing at ({n},{r},{j})")
    for n in range(1, 7):
        for p in range(n + 1):
            for k in range(-10, 11):
                _check(failures,
                       schur.euler_char_forms(n, p, k)
                       == (-1) ** n * schur.euler_char_forms(n, n - p, -k),
                       f"Serre duality at ({n},{p},{k})")
    _report(11, "Schur dimensions, Bott vanishing and bridge identity",
            failures)


def test_criterion_12_surface_riemann_roch():
    failures: list[str] = []
    for degree in range(1, 10):
        _check(failures, noether_check(degree), f"Noether at degree {degree}")
        coeff = chi_sym_cubic_coefficient(degree)
        _check(failures, (coeff > 0) == (degree >= 7),
               f"growth sign at degree {degree}")
        _check(failures, chi_sym_tangent_surface(degree, 0) == 1,
               f"chi(O) at degree {degree}")
    _report(12, "surface Riemann-Roch: Noether relation and growth threshold",
            failures)


def test_criterion_13_property_suites():
    failures: list[str] = []
    rng = random.Random(20260810)

    def compositions(total, parts):
        if parts == 1:
            return [(total,)]
        out = []
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                out.append((first,) + rest)
        return out

    def random_fraction():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    # series inversion on 200 random profiles
    for trial in range(200):
        dim = rng.randint(1, 4)
        nsyms = rng.randint(1, 3)
        chern = []
        for j in range(1, dim + 1):
            chern.append({mono: random_fraction()
                          for mono in compositions(j, nsyms)})
        profile = BaseProfile.make(f"rand-{trial}", dim,
                                   [f"D{i}" for i in range(nsyms)], {}, chern)
        segre = segre_omega(profile)
        total_s = PTClass.zero(profile)
        total_c = PTClass.one(profile)
        for j in range(dim + 1):
            total_s = total_s + segre[j]
            if j >= 1:
                total_c = total_c + (-1) ** j * profile.chern[j - 1]
        product = total_s * total_c
        truncated = PTClass.make(
            profile, {k: c for k, c in product.terms if sum(k[1]) <= dim})
        _check(failures, truncated == PTClass.one(profile),
               f"inversion failed on trial {trial}")

    # eval_top linearity on 200 random cases
    for trial in range(200):
        profile = get_profile(rng.choice(
            ["cubic-surface", "dp3-degree2", "k3-quartic"]))
        top = 2 * profile.dim - 1
        keys = [(zp, mono) for zp in range(top + 1)
                for mono in compositions(top - zp, profile.nsyms)]

        def random_class():
            chosen = [rng.choice(keys) for _ in range(rng.randint(1, 5))]
            return PTClass.make(profile,
                                {key: random_fraction() for key in chosen})

        cls_a, cls_b = random_class(), random_class()
        a, b = random_fraction(), random_fraction()
        lhs = eval_top(profile, a * cls_a + b * cls_b)
        rhs = a * eval_top(profile, cls_a) + b * eval_top(profile, cls_b)
        _check(failures, lhs == rhs, f"linearity failed on trial {trial}")

    # Weyl-reflection closure of the curve lists
    for degree in range(1, 8):
        lattice = surface_lattice(degree)
        lines = set(minus_one_curves(lattice))
        for root in simple_roots(lattice):
            _check(failures,
                   {reflect(lattice, c, root) for c in lines} == lines,
                   f"line closure at degree {degree}")
    for degree in (3, 4, 5):
        lattice = surface_lattice(degree)
        conics = set(conic_classes(lattice))
        for root in simple_roots(lattice):
            _check(failures,
                   {reflect(lattice, c, root) for c in conics} == conics,
                   f"conic closure at degree {degree}")

    # parser round-trip on 100 generated expressions
    profile = get_profile("cubic-surface")
    symbols = ["z", "H", "F", "K"]

    def random_expr(depth):
        if depth == 0:
            roll = rng.random()
            if roll < 0.4:
                return rng.choice(symbols)
            if roll < 0.6:
                return str(rng.randint(0, 9))
            return f"{rng.randint(1, 9)}/{rng.randint(2, 6)}"
        roll = rng.random()
        left, right = random_expr(depth - 1), random_expr(depth - 1)
        if roll < 0.35:
            return f"({left} + {right})"
        if roll < 0.6:
            return f"({left} - {right})"
        if roll < 0.85:
            return f"{left}*{right}"
        return f"({left})^{rng.randint(0, 3)}"

    for trial in range(100):
        text = random_expr(rng.randint(1, 3))
        cls = parse_expr(profile, text)
        printed = format_class(profile, cls)
        _check(failures, parse_expr(profile, printed) == cls,
               f"round-trip failed for {text!r} -> {printed!r}")

    _report(13, "property suites: inversion, linearity, Weyl closure, parser",
            failures)


def test_claim_registry_summary():
    # companion summary: the registry reproduces everything except the one
    # recorded constant documented in criterion 9
    results = claims_mod.run_claims()
    failures = [r.id for r in results if r.status == "fail"]
    print(f"claim registry: {len(results) - len(failures)} pass, "
          f"{len(failures)} fail ({', '.join(failures) or 'none'})")
    assert failures == ["dp3.cert.deg2.divisor"]
