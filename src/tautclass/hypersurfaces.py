"""Chern and Segre data of smooth hypersurfaces X in P^(n+1).

Chern classes of T_X come from truncating (1+H)^(n+2) / (1+dH), and the
Segre classes of the cotangent bundle admit the closed form

    s_l(Omega_X) = ( C(n+l+1, l) - d C(n+l, l-1) ) H^l,

equivalently s_l(T_X) = (-1)^l s_l(Omega_X).  The module also carries the
binomial-sum identities behind the cubic "not modified nef" intersection
number and the auxiliary sums A(k, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chow import BaseProfile, PTClass, eval_product

# Evaluation cost grows at least quadratically in n (the Segre inversion
# alone takes O(n^2) products), so a larger n is a usage error rather than a
# long wait.  d has at most 9 digits, so Chern numbers stay printable.
MAX_HYPERSURFACE_DIM = 200


def binom(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 for b < 0.

    The b = -1 case appears at the i = n boundary of the binomial sums,
    where the bracket degenerates to 1.
    """
    if b < 0:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class HypersurfaceSpec:
    """Dimension and degree of a smooth hypersurface in P^(n+1)."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if self.n > MAX_HYPERSURFACE_DIM:
            raise ValueError(f"need n <= {MAX_HYPERSURFACE_DIM}, got {self.n}")
        if self.d >= 10**9:
            raise ValueError("d has at most 9 digits")


@lru_cache(maxsize=128)
def hypersurface_profile(spec: HypersurfaceSpec) -> BaseProfile:
    """Intersection profile of a degree-d hypersurface of dimension n.

    Basis {H} with H^n = d; c_j(T_X) is the degree-j coefficient of the
    series (1+H)^(n+2) / (1+dH), so in particular c_1 = (n+2-d) H.  From
    c(T_X) . (1+dH) = (1+H)^(n+2) the coefficients satisfy
    c_j = C(n+2, j) - d c_(j-1) with c_0 = 1.
    """
    n, d = spec.n, spec.d
    coeffs = [1]
    for j in range(1, n + 1):
        coeffs.append(math.comb(n + 2, j) - d * coeffs[-1])
    return BaseProfile.make(
        label=f"hypersurface-n{n}-d{d}",
        dim=n,
        basis=("H",),
        top_form={(n,): d},
        chern=[{(j,): coeffs[j]} for j in range(1, n + 1)],
    )


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

    Evaluated through the pushforward engine; the result is checked against
    the closed form and is strictly negative, which is what rules out zeta
    being modified nef.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    profile = hypersurface_profile(HypersurfaceSpec(n, 3))
    zeta = PTClass.zeta(profile)
    h = profile.symbol("H")
    value = eval_product(profile, [zeta, zeta] + [zeta + h] * (2 * n - 3))
    return _agree(value, cubic_mnef_closed_form(n), "engine value")


def sum_positive_part(n: int) -> Fraction:
    """Direct sum over i of C(2n-3,i) C(2n-i+1,n-i), checked in closed form.

    Closed form: 3(27n^2+9n-14) 2^n / (64(2n-1)(n+1)) . C(2n, n).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    HypersurfaceSpec(n, 3)  # caps n at MAX_HYPERSURFACE_DIM
    value = Fraction(sum(binom(2 * n - 3, i) * binom(2 * n - i + 1, n - i)
                         for i in range(n + 1)))
    closed = Fraction(3 * (27 * n * n + 9 * n - 14), 64) * _central(n)
    return _agree(value, closed, "direct sum")


def sum_negative_part(n: int) -> Fraction:
    """Direct sum over i of C(2n-3,i) C(2n-i,n-i-1), checked in closed form.

    Closed form: 3(3n+2)(3n-1) 2^n / (64(2n-1)(n+1)) . C(2n, n).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    HypersurfaceSpec(n, 3)  # caps n at MAX_HYPERSURFACE_DIM
    value = Fraction(sum(binom(2 * n - 3, i) * binom(2 * n - i, n - i - 1)
                         for i in range(n)))
    closed = Fraction(3 * (3 * n + 2) * (3 * n - 1), 64) * _central(n)
    return _agree(value, closed, "direct sum")


def comb_A_brute(k: int, n: int) -> Fraction:
    """A(k, n) = sum over 0 <= i <= n of i^k / (i! (n-i)!), exactly."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    return sum((Fraction(i**k, math.factorial(i) * math.factorial(n - i))
                for i in range(n + 1)), Fraction(0))


def comb_A_closed(k: int, n: int) -> Fraction | None:
    """Closed form of A(k, n) for k <= 4; None beyond the tabulated range."""
    if n < 1:
        raise ValueError("need n >= 1")
    base = Fraction(2**n, math.factorial(n))
    if k == 0:
        return base
    if k == 1:
        return Fraction(n, 2) * base
    if k == 2:
        return Fraction(n * (n + 1), 4) * base
    if k == 3:
        return Fraction(n * n * (n + 3), 8) * base
    if k == 4:
        return Fraction(n * (n + 1) * (n * n + 5 * n - 2), 16) * base
    return None


def comb_identity_A(k: int, n: int) -> tuple[Fraction, Fraction | None]:
    """Pair (brute-force sum, closed form) for A(k, n).

    For k <= 4 both entries are present and equal; for larger k only the
    direct summation is available.
    """
    brute = comb_A_brute(k, n)
    closed = comb_A_closed(k, n)
    if closed is not None:
        _agree(brute, closed, f"A({k},{n}): direct sum")
    return brute, closed


def recursion_check_A(k: int, n: int) -> bool:
    """Check A(k, n) = n A(k-1, n) - A(k-1, n-1) by direct summation."""
    if not 1 <= k <= 4 or n < 2:
        raise ValueError("need 1 <= k <= 4 and n >= 2")
    return comb_A_brute(k, n) == n * comb_A_brute(k - 1, n) - comb_A_brute(k - 1, n - 1)
