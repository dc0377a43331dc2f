"""Picard lattices of del Pezzo surfaces and their conic-bundle divisors.

A degree-d del Pezzo surface (1 <= d <= 7) is modelled by the unimodular
lattice Z^(10-d) with form diag(1, -1, ..., -1) in the blow-up basis
(H, E1, ..., Er), r = 9 - d, and canonical class K = -3H + E1 + ... + Er.
Lines are classes with C^2 = K.C = -1, conics satisfy F^2 = 0, -K.F = 2,
and every conic pencil degenerates into 8 - d pairs of concurrent lines.

Enumeration is complete by an a-priori bound.  Write C = (a0; -a1, ..., -ar)
with target C^2 = s and -K.C = k, so that sum ai = 3 a0 - k and
sum ai^2 = a0^2 - s.  Cauchy-Schwarz, (sum ai)^2 <= r sum ai^2, gives

    (9 - r) a0^2 - 6k a0 + (k^2 + r s) <= 0,  i.e.
    ((9 - r) a0 - 3k)^2 <= 9k^2 - (9 - r)(k^2 + r s),

and as r <= 8 the leading coefficient 9 - r is positive, so a0 runs over
an integer interval.  With a0 fixed, the ai are placed one slot at a
time.  While m slots remain with sum S and sum of squares Q still to
place, Cauchy-Schwarz on the other m - 1 values, (S - v)^2 <=
(m - 1)(Q - v^2), reads (m v - S)^2 <= (m - 1)(m Q - S^2) for the next
value v.  Every class with the target invariants passes all of these
tests, so the search finds each of them exactly once, and the line and
conic counts are outputs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import sub

from .chow import BaseProfile, PTClass, dual_vmrt_generic
from .record import Record


class CurveClass(Record):
    """Integer divisor class in the basis (H, E1, ..., Er)."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __add__(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CurveClass":
        return CurveClass(tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: int) -> "CurveClass":
        return CurveClass(tuple(scalar * a for a in self.coeffs))

    __rmul__ = __mul__


class PicardLattice(Record):
    """Picard lattice of P^2 blown up in 9 - d points, degree d in 1..9."""

    __slots__ = ("degree",)
    degree: int

    @property
    def rank(self) -> int:
        return 10 - self.degree

    @property
    def r(self) -> int:
        """Number of exceptional basis vectors."""
        return self.rank - 1

    @property
    def k(self) -> CurveClass:
        """Canonical class (-3, 1, ..., 1)."""
        return CurveClass((-3,) + (1,) * self.r)

    def pair(self, a: CurveClass, b: CurveClass) -> int:
        """Intersection pairing for the form diag(1, -1, ..., -1)."""
        u, v = a.coeffs, b.coeffs
        return u[0] * v[0] - sum(x * y for x, y in zip(u[1:], v[1:]))

    def selfint(self, a: CurveClass) -> int:
        return self.pair(a, a)


def surface_lattice(degree: int) -> PicardLattice:
    if not 1 <= degree <= 7:
        raise ValueError(f"degree must lie in 1..7, got {degree}")
    return PicardLattice(degree)


@lru_cache(maxsize=None)
def surface_lattice_profile(degree: int) -> BaseProfile:
    """Profile over the blow-up basis (H, E1, ..., Er): the top form is the
    lattice pairing, c_1 = -K and c_2 the Euler number."""
    lattice = surface_lattice(degree)
    n = lattice.rank
    units = [CurveClass(tuple(int(j == i) for j in range(n))) for i in range(n)]
    top = {(u + v).coeffs: lattice.pair(u, v)
           for i, u in enumerate(units) for v in units[i:]}
    c1 = {u.coeffs: c for u, c in zip(units, (-lattice.k).coeffs)}
    c2 = {(2 * units[0]).coeffs: _surface_chern_numbers(degree)[1]}
    return BaseProfile.make(
        label=f"dp-surface-{degree}",
        dim=2,
        basis=("H",) + tuple(f"E{i}" for i in range(1, n)),
        top_form=top,
        chern=[c1, c2],
    )


@lru_cache(maxsize=None)
def cubic_surface_profile() -> BaseProfile:
    """Reduced two-symbol profile of the cubic surface.

    H is the hyperplane (anticanonical) class and F a conic-bundle fibre,
    so H^2 = 3, H.F = 2, F^2 = 0, c_1 = H and c_2 evaluates to 9.
    """
    return BaseProfile.make(
        label="cubic-surface",
        dim=2,
        basis=("H", "F"),
        top_form={(2, 0): 3, (1, 1): 2},
        chern=[{(1, 0): 1}, {(2, 0): 3}],
    )


def curve_poly(profile: BaseProfile, curve: CurveClass) -> PTClass:
    """Pulled-back divisor class of a curve class over a lattice profile."""
    if len(curve.coeffs) != profile.nsyms:
        raise ValueError("curve class length does not match the profile basis")
    return PTClass.make(
        profile,
        {(0, tuple(1 if j == i else 0 for j in range(profile.nsyms))): c
         for i, c in enumerate(curve.coeffs) if c})


def _box_solutions(slots: int, s: int, q: int):
    """Integer tuples of length slots >= 1 with sum s and sum of squares q,
    each once.  Needs s^2 <= slots * q, true for every a0 of ``_a0_range``."""
    if slots == 1:
        if q == s * s:
            yield (s,)
        return
    # Cauchy-Schwarz on the other slots - 1 values, (s - v)^2 <=
    # (slots - 1)(q - v^2), solved for v
    root = math.isqrt((slots - 1) * (slots * q - s * s))
    for v in range(-((root - s) // slots), (s + root) // slots + 1):
        for rest in _box_solutions(slots - 1, s - v, q - v * v):
            yield (v,) + rest


def _a0_range(r: int, selfint: int, anticanonical_degree: int) -> range:
    """Every a0 allowed by ((9 - r) a0 - 3k)^2 <= 9k^2 - (9 - r)(k^2 + r s)."""
    c, k = 9 - r, anticanonical_degree
    root = math.isqrt(9 * k * k - c * (k * k + r * selfint))
    return range(-((root - 3 * k) // c), (3 * k + root) // c + 1)


def _enumerate_classes(lattice: PicardLattice, selfint: int,
                       anticanonical_degree: int) -> list[CurveClass]:
    """All classes C with C^2 = selfint and -K.C = anticanonical_degree."""
    r = lattice.r
    if not 0 <= r <= 8:
        raise ValueError(f"the enumeration bound needs degree 1..9, "
                         f"got {lattice.degree}")
    found = []
    for a0 in _a0_range(r, selfint, anticanonical_degree):
        sum_target = 3 * a0 - anticanonical_degree
        sq_target = a0 * a0 - selfint
        for values in _box_solutions(r, sum_target, sq_target):
            found.append(CurveClass((a0,) + tuple(-a for a in values)))
    return sorted(found, key=lambda c: c.coeffs)


@lru_cache(maxsize=None)
def minus_one_curves(lattice: PicardLattice) -> tuple[CurveClass, ...]:
    """All classes with C^2 = -1 and K.C = -1, in lexicographic order."""
    return tuple(_enumerate_classes(lattice, selfint=-1, anticanonical_degree=1))


@lru_cache(maxsize=None)
def conic_classes(lattice: PicardLattice) -> tuple[CurveClass, ...]:
    """All classes with F^2 = 0 and -K.F = 2, in lexicographic order."""
    if lattice.degree < 3:
        raise ValueError("conic classes are enumerated for degree >= 3")
    return tuple(_enumerate_classes(lattice, selfint=0, anticanonical_degree=2))


def _require_conic(lattice: PicardLattice, fiber: CurveClass) -> None:
    if lattice.selfint(fiber) != 0 or lattice.pair(lattice.k, fiber) != -2:
        raise ValueError(f"{fiber.coeffs} is not a conic class")


def degenerate_members(lattice: PicardLattice,
                       fiber: CurveClass) -> tuple[tuple[CurveClass, CurveClass], ...]:
    """Unordered pairs of (-1)-classes summing to a conic class.

    There are exactly 8 - degree such pairs for every conic pencil.  Each
    pair (l1, l2) has l1.coeffs < l2.coeffs, in ascending order of l1.
    """
    _require_conic(lattice, fiber)
    lines = minus_one_curves(lattice)
    by_coeffs = {line.coeffs: line for line in lines}
    pairs = []
    for l1 in lines:
        l2 = by_coeffs.get(tuple(map(sub, fiber.coeffs, l1.coeffs)))
        if l2 is not None and l1.coeffs < l2.coeffs:
            pairs.append((l1, l2))
    return tuple(pairs)


def conic_vmrt_class(lattice: PicardLattice, fiber: CurveClass) -> PTClass:
    """Class zeta + pi^*(K + 2F) of the total dual VMRT of a conic bundle.

    The conic bundle defined by |F| has relative canonical class K + 2F
    over P^1, and its dual VMRT is a divisor of evaluation degree one.
    """
    _require_conic(lattice, fiber)
    profile = surface_lattice_profile(lattice.degree)
    relative_k = curve_poly(profile, lattice.k + 2 * fiber)
    return dual_vmrt_generic(profile, 1, -relative_k)


def family(degree: int, name: str) -> tuple[CurveClass, ...]:
    """The "lines" or the "conics" of the degree-d lattice."""
    if name not in ("lines", "conics"):
        raise ValueError(f"unknown curve family {name!r}")
    # looked up at call time, so a rebound enumerator is the one called
    return (minus_one_curves if name == "lines" else conic_classes)(
        surface_lattice(degree))


def orbit_sum(degree: int, name: str) -> PTClass:
    """Sum of a family as a class on ``dp-surface-<d>``; "conic_vmrt" sums
    :func:`conic_vmrt_class` over the conics.

    W(E_r) permutes the lines and the conics, and for d <= 6 it fixes only
    the multiples of K (Manin, Cubic Forms, ch. IV; Dolgachev, Classical
    Algebraic Geometry, ch. 8): N classes of anticanonical degree k sum to
    (kN/d)(-K), and the N conic dual VMRTs to N zeta + N(d - 4)/d pi^*K.
    At d = 7 the lines sum to H, invariant but no multiple of K."""
    lattice = surface_lattice(degree)
    profile = surface_lattice_profile(degree)
    if name == "conic_vmrt":
        vmrts = (conic_vmrt_class(lattice, f) for f in conic_classes(lattice))
        return sum(vmrts, PTClass.zero(profile))
    return curve_poly(profile, sum(family(degree, name),
                                   CurveClass((0,) * lattice.rank)))


def residual_match(degree: int, source: str, target: str) -> bool:
    """Whether C -> -K - C maps the source family onto the target family."""
    minus_k = -surface_lattice(degree).k
    return ({minus_k - c for c in family(degree, source)}
            == set(family(degree, target)))


def degree4_pencil_pairs() -> tuple[tuple[CurveClass, CurveClass], ...]:
    """The five pairs (C, C') of degree-4 conic classes with C + C' = -K.

    Degree 4 only: -K - C is a conic just when d = 4, as (-K - C)^2 = d - 4.
    """
    if not residual_match(4, "conics", "conics"):
        raise ArithmeticError("a degree-4 conic has no anticanonical partner")
    minus_k = -surface_lattice(4).k
    return tuple((c, minus_k - c) for c in family(4, "conics")
                 if c.coeffs < (minus_k - c).coeffs)


def degree4_vmrt_pair_sum() -> PTClass:
    """Common value of [C-dual] + [C'-dual] over the five pencil pairs, 2 zeta,
    the anticanonical class of P(T_X).  Degree 4 only, as the pencil pairs
    C + C' = -K exist only there."""
    lattice = surface_lattice(4)
    sums = {conic_vmrt_class(lattice, p) + conic_vmrt_class(lattice, q)
            for p, q in degree4_pencil_pairs()}
    if len(sums) != 1:
        raise ArithmeticError("pencil pairs do not share one dual-VMRT sum")
    return sums.pop()


def degree4_lines_covered() -> int:
    """Lines in the degenerate members of one pencil pair; degree 4 only,
    as the pencil pairs C + C' = -K exist only there."""
    lattice = surface_lattice(4)
    return len({line for fiber in degree4_pencil_pairs()[0]
                for pair in degenerate_members(lattice, fiber)
                for line in pair})


def quintic_conics_pairwise() -> bool:
    """Distinct degree-5 conic classes meet in exactly one point.  Degree 5
    only: C.C' = 1 holds for d = 5..7, but C.C' = 2 occurs for d = 3 and 4,
    so a degree argument would have a single value in use."""
    lattice = surface_lattice(5)
    conics = conic_classes(lattice)
    return all(lattice.pair(a, b) == 1
               for a, b in itertools.combinations(conics, 2))


def simple_roots(lattice: PicardLattice) -> tuple[CurveClass, ...]:
    """Simple roots (alpha^2 = -2, alpha.K = 0) of the lattice Weyl group."""
    r = lattice.r
    roots = []
    if r >= 3:
        roots.append(CurveClass((1, -1, -1, -1) + (0,) * (r - 3)))
    for i in range(1, r):
        coeffs = [0] * (r + 1)
        coeffs[i], coeffs[i + 1] = 1, -1
        roots.append(CurveClass(tuple(coeffs)))
    return tuple(roots)


def reflect(lattice: PicardLattice, curve: CurveClass,
            root: CurveClass) -> CurveClass:
    """Weyl reflection C -> C + (C.alpha) alpha for a (-2)-root alpha."""
    return curve + lattice.pair(curve, root) * root


def _surface_chern_numbers(degree: int) -> tuple[int, int]:
    """(c_1^2, c_2) of a del Pezzo surface from its blow-up lattice.

    c_1^2 = K^2 and c_2 is the topological Euler number 2 + b_2, both read
    from ``PicardLattice(degree)`` for every degree 1..9.
    """
    if not 1 <= degree <= 9:
        raise ValueError(f"degree must lie in 1..9, got {degree}")
    lattice = PicardLattice(degree)
    return lattice.pair(lattice.k, lattice.k), 2 + lattice.rank


def chi_sym_tangent_surface(degree: int, m: int) -> Fraction:
    """chi(X, Sym^m T_X) on a degree-d del Pezzo surface, exactly.

    Riemann-Roch with the Chern roots a, b of T_X: Sym^m has the m+1 roots
    i a + (m-i) b, and the symmetric sums reduce to c_1^2 and c_2 through
    a^2 + b^2 = c_1^2 - 2 c_2 and ab = c_2.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    c1sq, c2 = (Fraction(v) for v in _surface_chern_numbers(degree))
    rank = m + 1
    sum_i = Fraction(m * (m + 1), 2)
    sum_i_sq = Fraction(m * (m + 1) * (2 * m + 1), 6)
    sum_i_mi = m * sum_i - sum_i_sq
    ch2 = ((c1sq - 2 * c2) * sum_i_sq + 2 * c2 * sum_i_mi) / 2
    chi = ch2 + sum_i * c1sq / 2 + rank * (c1sq + c2) / 12
    if chi.denominator != 1:
        raise ArithmeticError(f"chi must be an integer, got {chi}")
    return chi


def chi_sym_cubic_coefficient(degree: int) -> Fraction:
    """Leading (m^3) coefficient of chi(Sym^m T_X), by finite differences.

    Equals (c_1^2 - c_2)/6 = (d - 6)/3; its sign, positive exactly for
    degree >= 7, decides whether chi eventually forces sections.  Note the
    1/6 factor: the growth statement is often quoted without it, which
    changes nothing about the sign threshold.
    """
    values = [chi_sym_tangent_surface(degree, m) for m in range(4)]
    return (values[3] - 3 * values[2] + 3 * values[1] - values[0]) / 6


def noether_check(degree: int) -> bool:
    """c_1^2 + c_2 = 12 on the Chern numbers of ``PicardLattice(degree)``.

    Both numbers come from one lattice with r blown-up points: K^2 = 9 - r
    and c_2 = 2 + rank = 3 + r, so the identity holds for every r and
    cannot fail.  A second, independent route, such as the weighted
    complete intersections of degrees 1..4, is open work (ROADMAP.md, the
    ``dp2.chi.noether`` row).
    """
    c1sq, c2 = _surface_chern_numbers(degree)
    return c1sq + c2 == 12
