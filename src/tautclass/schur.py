"""Schur functor dimensions, twisted form-bundle Euler characteristics on
projective space, and the rank/first-Chern-class bridge identity.

Dimensions of Schur functors are computed with the Weyl product over the
shape padded to N rows, and independently by counting semistandard Young
tableaux.  Cohomology of Omega^p(k) on P^n is available both through the
Euler-sequence recursion for the Euler characteristic and through the
classical dimension formula for the individual groups.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

Partition = tuple[int, ...]

# The Weyl product runs over n^2 pairs of growing integers, so a large n is
# slow; 200 is the largest rank of a tangent bundle handled here.
MAX_SCHUR_DIM = 200
# S_mu(C^n) is a summand of (C^n)^(tensor |mu|), so with |mu| at most 1000
# its dimension is at most 200^1000 < 10^2302, which always prints.
MAX_SCHUR_WEIGHT = 1000
# With n <= 200 and |k| <= 10^20, |chi(P^n, Omega^p(k))| is below
# 2^(n+1) (|k| + 2n)^n < 10^4061, which always prints.
MAX_TWIST = 10**20
MAX_SSYT_WORK = 10**6


def normalize_partition(parts) -> Partition:
    """Validate a weakly decreasing sequence and strip trailing zeros."""
    mu = tuple(int(p) for p in parts)
    if any(p < 0 for p in mu):
        raise ValueError(f"negative part in {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {mu}")
    while mu and mu[-1] == 0:
        mu = mu[:-1]
    return mu


def rectangle(k: int, rows: int) -> Partition:
    """The partition (k, ..., k) with the given number of rows."""
    return (k,) * rows


def _check_caps(n: int, weight: int) -> None:
    """Refuse n outside 1..MAX_SCHUR_DIM and a weight above MAX_SCHUR_WEIGHT."""
    if not 1 <= n <= MAX_SCHUR_DIM:
        raise ValueError(f"need 1 <= n <= {MAX_SCHUR_DIM}, got {n}")
    if weight > MAX_SCHUR_WEIGHT:
        raise ValueError(f"need |mu| <= {MAX_SCHUR_WEIGHT}, got {weight}")


def schur_dim(mu, n: int) -> int:
    """dim of the Schur functor S_mu applied to an n-dimensional space.

    Weyl product over the shape padded with zeros to n rows:
    prod_{i<j} (mu_i - mu_j + j - i) / (j - i).  Shapes with more than n
    rows give the zero functor.  n is capped at MAX_SCHUR_DIM and the
    weight |mu| at MAX_SCHUR_WEIGHT, both before the product.
    """
    mu = normalize_partition(mu)
    _check_caps(n, sum(mu))
    if len(mu) > n:
        return 0
    padded = mu + (0,) * (n - len(mu))
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= padded[i] - padded[j] + j - i
            den *= j - i
    if num % den:
        raise ArithmeticError("Weyl product is not an integer")
    return num // den


def ssyt_count(mu, n: int) -> int:
    """Number of semistandard Young tableaux of shape mu with entries <= n.

    Brute-force filling, row by row: each row is a weakly increasing tuple
    from ``combinations_with_replacement``, kept when every entry exceeds
    the one above it.  Independent oracle for :func:`schur_dim` at small
    weight.  Row i has at most C(n + mu_i - 1, mu_i) fillings, so the
    filling writes at most |mu| times their product entries.  Above
    MAX_SSYT_WORK entries it is refused, and so is n above MAX_SCHUR_DIM.
    """
    mu = normalize_partition(mu)
    if n > MAX_SCHUR_DIM:
        raise ValueError(f"need n <= {MAX_SCHUR_DIM}, got {n}")
    if len(mu) > n:
        return 0
    work = sum(mu)
    if work <= MAX_SSYT_WORK:  # so that each binomial below stays small
        work *= math.prod(math.comb(n + length - 1, length) for length in mu)
    if work > MAX_SSYT_WORK:
        raise ValueError(f"ssyt_count{mu, n} would write more than "
                         f"{MAX_SSYT_WORK} entries")

    def count_from(row_index: int, above: tuple[int, ...]) -> int:
        if row_index == len(mu):
            return 1
        return sum(count_from(row_index + 1, row) for row
                   in itertools.combinations_with_replacement(
                       range(1, n + 1), mu[row_index])
                   if all(v > a for v, a in zip(row, above)))

    return count_from(0, ())


def sym_power_dim(n: int, k: int) -> int:
    """dim Sym^k of an n-dimensional space: C(n+k-1, n-1)."""
    return math.comb(n + k - 1, n - 1)


def plethysm_rectangle_check(n: int, k: int) -> bool:
    """Sym^k of the (n-1)-st wedge of an n-space is the rectangular Schur
    functor: both dimensions equal C(n+k-1, n-1)."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    _check_caps(n, (n - 1) * k)
    return schur_dim(rectangle(k, n - 1), n) == sym_power_dim(n, k)


def chi_line_bundle(n: int, m: int) -> int:
    """chi(P^n, O(m)) = C(m+n, n) as a polynomial in m, valid for all m."""
    num = math.prod(m + i for i in range(1, n + 1))
    return num // math.factorial(n)


def euler_char_forms(n: int, p: int, k: int) -> int:
    """chi(P^n, Omega^p(k)) via the Euler-sequence recursion.

    chi(Omega^p(k)) = C(n+1, p) chi(O(k-p)) - chi(Omega^(p-1)(k)), unrolled
    in p to sum_{i=0}^{p} (-1)^(p-i) C(n+1, i) chi(O(k-i)), with chi(O(m))
    the binomial polynomial, so the sum is total in k.  |k| is capped at
    MAX_TWIST before the sum.
    """
    if n > MAX_SCHUR_DIM:
        raise ValueError(f"need n <= {MAX_SCHUR_DIM}, got {n}")
    if not 0 <= p <= n:
        raise ValueError(f"p must lie in 0..{n}, got {p}")
    if abs(k) > MAX_TWIST:
        raise ValueError(f"need |k| <= {MAX_TWIST}")
    return sum((-1) ** (p - i) * math.comb(n + 1, i) * chi_line_bundle(n, k - i)
               for i in range(p + 1))


def form_cohomology_dims(n: int, p: int, k: int) -> tuple[int, ...]:
    """All h^q(P^n, Omega^p(k)) for q = 0..n, by the classical formula.

    Nonzero cohomology sits in exactly one degree: q = 0 for k > p,
    q = p for k = 0, q = n for k < p - n, and nowhere otherwise.
    """
    if n > MAX_SCHUR_DIM:
        raise ValueError(f"need n <= {MAX_SCHUR_DIM}, got {n}")
    if not 0 <= p <= n:
        raise ValueError(f"p must lie in 0..{n}, got {p}")
    dims = [0] * (n + 1)
    if k > p:
        dims[0] = math.comb(k + n - p, k) * math.comb(k - 1, p)
    elif k == 0:
        dims[p] = 1
    elif k < p - n:
        dims[n] = math.comb(p - k, -k) * math.comb(-k - 1, n - p)
    return tuple(dims)


def bott_vanishing(n: int, r: int, j: int) -> bool:
    """Whether H^j(P^n, Omega^r(r+j+1)) vanishes, for 1 <= j <= n-1.

    By Bott's formula intermediate cohomology of Omega^p(k) only occurs at
    p = j with k = 0; here the twist r+j+1 is positive, so this is always
    true in the stated range.
    """
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in 0..{n}, got {r}")
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in 1..{n - 1}, got {j}")
    return form_cohomology_dims(n, r, r + j + 1)[j] == 0


def schur_c1_multiplier(mu, n: int) -> Fraction:
    """c_1(S_mu E) = (|mu| dim(S_mu E) / n) c_1(E) for E of rank n;
    returns the scalar multiplier of c_1(E)."""
    mu = normalize_partition(mu)
    return Fraction(sum(mu) * schur_dim(mu, n), n)


def bridge_identity_check(n: int, d: int, k: int) -> bool:
    """Rank and first Chern class agree for the two descriptions of the
    twisted symmetric power on a degree-d hypersurface of dimension n.

    Sym^k(T_X(d-3)) and S_(k,...,k)(Omega_X) twisted by O((n-1)k) are
    compared through c_1(T_X) = (n+2-d)H and the weighted-sum rule for
    Schur functors; both have rank C(n+k-1, n-1) and slope k(n-1)(d-2)/n
    per unit rank.
    """
    if n < 2 or d < 1 or k < 1:
        raise ValueError("need n >= 2, d >= 1, k >= 1")
    # The rectangle's weight (n-1)k bounds k, so both shapes are refused
    # before either Weyl product.
    _check_caps(n, (n - 1) * k)
    # Left side: mu = (k) applied to the rank-n bundle T_X(d-3).
    rank_left = schur_dim((k,), n)
    c1_twisted_tangent = Fraction((n + 2 - d) + n * (d - 3))
    c1_left = schur_c1_multiplier((k,), n) * c1_twisted_tangent
    # Right side: rectangular mu on Omega_X, then twist by O((n-1)k).
    mu = rectangle(k, n - 1)
    rank_right = schur_dim(mu, n)
    c1_right = (schur_c1_multiplier(mu, n) * (d - n - 2)
                + rank_right * (n - 1) * k)
    if rank_left != sym_power_dim(n, k):
        return False
    return rank_left == rank_right and c1_left == c1_right
