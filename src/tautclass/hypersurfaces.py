"""Chern and Segre data of smooth hypersurfaces X in P^(n+1).

Chern classes of T_X come from truncating (1+H)^(n+2) / (1+dH), a case of
the weighted complete intersections below, and the Segre classes of the
cotangent bundle admit the closed form

    s_l(Omega_X) = ( C(n+l+1, l) - d C(n+l, l-1) ) H^l,

equivalently s_l(T_X) = (-1)^l s_l(Omega_X).  The module also carries the
binomial-sum identities behind the cubic "not modified nef" intersection
number and the auxiliary sums A(k, n).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .chow import BaseProfile, PTClass, eval_product
from .record import Record

# Evaluation cost grows at least quadratically in n (the Segre inversion
# alone is one power recurrence of O(n^2) part products), so a larger n is a
# usage error rather than a long wait.  d has at most 9 digits, so Chern
# numbers stay printable.
MAX_HYPERSURFACE_DIM = 200
# Largest power k of the sums A(k, n), for the direct sum and the closed form.
MAX_COMB_POWER = 8


def binom(a: int, b: int) -> int:
    """C(a, b), and 0 for b < 0 (b = -1 at the i = n end of the sums)."""
    return math.comb(a, b) if b >= 0 else 0


class HypersurfaceSpec(Record):
    """Dimension and degree of a smooth hypersurface in P^(n+1)."""

    __slots__ = ("n", "d")
    n: int
    d: int

    def __init__(self, n: int, d: int) -> None:
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if n > MAX_HYPERSURFACE_DIM:
            raise ValueError(f"need n <= {MAX_HYPERSURFACE_DIM}, got {n}")
        if d >= 10**9:
            raise ValueError("d has at most 9 digits")
        super().__init__(n, d)


def weighted_ci_chern(weights: tuple[int, ...], degrees: tuple[int, ...]
                      ) -> tuple[Fraction, list[int]]:
    """(H^n, [c_0..c_n]) with c_j(T_X) = c_j H^j for X of the given degrees
    in P(weights), smooth and away from its singular points: c(T_X) =
    prod(1+aH) / prod(1+dH), H^n = prod(degrees) / prod(weights) (Iano-
    Fletcher, Working with weighted complete intersections, 2000)."""
    n = len(weights) - len(degrees) - 1
    # The commonest weight's (1+aH)^m by binomials; one pass per other factor.
    a = max(set(weights), key=weights.count)
    m = weights.count(a)
    coeffs = [math.comb(m, j) * a**j for j in range(n + 1)]
    for b in (w for w in weights if w != a):
        for j in range(n, 0, -1):
            coeffs[j] += b * coeffs[j - 1]
    for d in degrees:
        for j in range(1, n + 1):
            coeffs[j] -= d * coeffs[j - 1]
    return Fraction(math.prod(degrees), math.prod(weights)), coeffs


def weighted_ci_profile(label: str, weights: tuple[int, ...],
                        degrees: tuple[int, ...]) -> BaseProfile:
    """Profile with basis {H} and the data of :func:`weighted_ci_chern`."""
    top, coeffs = weighted_ci_chern(weights, degrees)
    n = len(coeffs) - 1
    return BaseProfile.make(label, n, ("H",), {(n,): top},
                            [{(j,): coeffs[j]} for j in range(1, n + 1)])


@lru_cache(maxsize=128)
def hypersurface_profile(spec: HypersurfaceSpec) -> BaseProfile:
    """Degree-d hypersurface in P^(n+1): H^n = d, c_1 = (n+2-d) H."""
    return weighted_ci_profile(f"hypersurface-n{spec.n}-d{spec.d}",
                               (1,) * (spec.n + 2), (spec.d,))


def segre_closed_form(spec: HypersurfaceSpec, l: int) -> Fraction:
    """H^l-coefficient of s_l(T_X): (-1)^l (C(n+l+1,l) - d C(n+l,l-1))."""
    n, d = spec.n, spec.d
    if not 1 <= l <= n:
        raise ValueError(f"l must lie in 1..{n}, got {l}")
    value = binom(n + l + 1, l) - d * binom(n + l, l - 1)
    return Fraction((-1) ** l * value)


def segre_closed_form_factored(spec: HypersurfaceSpec, l: int) -> Fraction:
    """Same coefficient in the factored form C(n+l,l-1)((n+1)/l - d + 1)."""
    n, d = spec.n, spec.d
    if not 1 <= l <= n:
        raise ValueError(f"l must lie in 1..{n}, got {l}")
    factor = Fraction(n + 1, l) - d + 1
    return Fraction((-1) ** l) * binom(n + l, l - 1) * factor


def _central(n: int) -> Fraction:
    """2^n C(2n, n) / ((2n-1)(n+1)), the factor shared by the closed forms."""
    return Fraction(2**n * math.comb(2 * n, n), (2 * n - 1) * (n + 1))


def _agree(value: Fraction, closed: Fraction, what: str) -> Fraction:
    """Return value, raising if it differs from its closed form."""
    if value != closed:
        raise ArithmeticError(
            f"{what} {value} disagrees with closed form {closed}")
    return value


def cubic_mnef_closed_form(n: int) -> Fraction:
    """-9 . 2^n / (8(2n-1)(n+1)) . C(2n, n), for n >= 3."""
    if n < 3:
        raise ValueError("the identity is asserted only for n >= 3")
    return Fraction(-9, 8) * _central(n)


def cubic_mnef_number(n: int) -> Fraction:
    """zeta^2 . (zeta + pi^*H)^(2n-3) on the cubic hypersurface of dim n.

    Evaluated through the pushforward engine; the factor zeta + pi^*H is
    built from the terms of its two atoms, without re-validation.  The
    result is checked against the closed form and is strictly negative,
    which is what rules out zeta being modified nef.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    profile = hypersurface_profile(HypersurfaceSpec(n, 3))
    zeta = PTClass.zeta(profile)
    h = profile.symbol("H")
    # The atoms' keys (0, (1,)) and (1, (0,)) differ and are in sorted
    # order, so their terms concatenated are already canonical: the class
    # PTClass.make would build from zeta + h.
    factor = PTClass(profile, h.terms + zeta.terms)
    value = eval_product(profile, [zeta, zeta] + [factor] * (2 * n - 3))
    return _agree(value, cubic_mnef_closed_form(n), "engine value")


def _direct_sum(n: int, shift: int, closed: int) -> Fraction:
    """Sum over i of C(2n-3,i) C(2n-i+shift,n-i+shift-1), checked against
    its closed form closed/64 . 2^n C(2n, n) / ((2n-1)(n+1))."""
    if n < 3:
        raise ValueError("need n >= 3")
    HypersurfaceSpec(n, 3)  # caps n at MAX_HYPERSURFACE_DIM
    value = Fraction(sum(binom(2 * n - 3, i)
                         * binom(2 * n - i + shift, n - i + shift - 1)
                         for i in range(n + 1)))
    return _agree(value, Fraction(closed, 64) * _central(n), "direct sum")


def sum_positive_part(n: int) -> Fraction:
    """Direct sum over i of C(2n-3,i) C(2n-i+1,n-i), checked in closed form.

    Closed form: 3(27n^2+9n-14) 2^n / (64(2n-1)(n+1)) . C(2n, n).
    """
    return _direct_sum(n, 1, 3 * (27 * n * n + 9 * n - 14))


def sum_negative_part(n: int) -> Fraction:
    """Direct sum over i of C(2n-3,i) C(2n-i,n-i-1), checked in closed form.

    Closed form: 3(3n+2)(3n-1) 2^n / (64(2n-1)(n+1)) . C(2n, n).
    """
    return _direct_sum(n, 0, 3 * (3 * n + 2) * (3 * n - 1))


def _check_comb(k: int, n: int) -> None:
    if not 0 <= k <= MAX_COMB_POWER or not 1 <= n <= MAX_HYPERSURFACE_DIM:
        raise ValueError(f"need 0 <= k <= {MAX_COMB_POWER} and "
                         f"1 <= n <= {MAX_HYPERSURFACE_DIM}, got k = {k}, "
                         f"n = {n}")


def comb_A_brute(k: int, n: int) -> Fraction:
    """A(k, n) = sum over 0 <= i <= n of i^k / (i! (n-i)!), exactly.

    k is at most MAX_COMB_POWER and n at most MAX_HYPERSURFACE_DIM: the sum
    has n + 1 terms over factorial denominators, so n = 2000 takes a second.
    """
    _check_comb(k, n)
    return sum((Fraction(i**k, math.factorial(i) * math.factorial(n - i))
                for i in range(n + 1)), Fraction(0))


def comb_A_closed(k: int, n: int) -> Fraction:
    """A(k, n) = sum over j <= min(k, n) of S(k, j) 2^(n-j) / (n-j)!: i^k is
    the sum of the falling powers i(i-1)...(i-j+1) times the Stirling numbers
    S(k, j), and each falling power sums to 2^(n-j) / (n-j)!."""
    _check_comb(k, n)
    # row k of S(m, j) = j S(m-1, j) + S(m-1, j-1), from S(0, 0) = 1
    stirling = [1]
    for _ in range(k):
        stirling = [j * a + b for j, (a, b)
                    in enumerate(zip(stirling + [0], [0] + stirling))]
    return sum((Fraction(s * 2**(n - j), math.factorial(n - j))
                for j, s in enumerate(stirling[:n + 1])), Fraction(0))


def comb_identity_A(k: int, n: int) -> tuple[Fraction, Fraction]:
    """Pair (brute-force sum, closed form) for A(k, n), checked equal."""
    brute, closed = comb_A_brute(k, n), comb_A_closed(k, n)
    return _agree(brute, closed, f"A({k},{n}): direct sum"), closed


def recursion_check_A(k: int, n: int) -> bool:
    """Check A(k, n) = n A(k-1, n) - A(k-1, n-1) by direct summation."""
    if not 1 <= k <= MAX_COMB_POWER or n < 2:
        raise ValueError(f"need 1 <= k <= {MAX_COMB_POWER} and n >= 2")
    return comb_A_brute(k, n) == n * comb_A_brute(k - 1, n) - comb_A_brute(k - 1, n - 1)
