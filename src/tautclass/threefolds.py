"""Del Pezzo threefolds of Picard rank one: profiles and dual-VMRT classes.

A degree-d del Pezzo threefold V_d (-K = 2H, d = H^3) is presented by the
profile with c_1 = 2H, H.c_2 = 12 and c_3 = (4 - b_3)[pt], which yields

    zeta^5 = 8d - 44 - b_3,   zeta^4.pi^*H = 4d - 12,   zeta^3.pi^*H^2 = 2d;

the registry claims ``dp3.triple.*`` pin them on ``dp3-degree1..3``.

The family of lines has a generically finite evaluation map of degree k,
and with r the number of lines inside a general fundamental divisor the
total dual VMRT has class k zeta + (r/d - k) pi^*H.  For d = 1 only the
bound r >= 240 is available, so that row has no class and its H-coefficient
is a lower bound.  The negativity certificates of degrees 1 and 2 are
products of classes zeta + a pi^*H, each one registry claim
(``dp3.cert.*``) evaluated from its product as text; the quartic K3
surface contributes its bitangent class.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .chow import BaseProfile, PTClass, dual_vmrt_generic, fraction_str
from .exprparse import format_class
from .hypersurfaces import weighted_ci_chern, weighted_ci_profile
from .record import Record
from .surfaces import minus_one_curves, surface_lattice

# (weights, degrees) of V_1..V_4: a sextic in P(1,1,1,2,3), a quartic in
# P(1,1,1,1,2), a cubic in P^4 and a (2,2) intersection in P^5 (Iskovskikh
# and Prokhorov, Fano varieties), so their b_3 is derived.  V_5 is a linear
# section of Gr(2,5); its b_3 = 0 is a literature default kept out of every
# verified claim.  The evaluation degrees k are reported values.
WEIGHTED_CI = {1: ((1, 1, 1, 2, 3), (6,)), 2: ((1, 1, 1, 1, 2), (4,)),
               3: ((1,) * 5, (3,)), 4: ((1,) * 6, (2, 2))}
B3_DEFAULTS = {5: 0}
EVALUATION_DEGREES = {1: 60, 2: 12, 3: 6, 4: 4, 5: 3}


@lru_cache(maxsize=None)
def default_b3(d: int) -> int:
    """b_3 = 4 - c_3[V_d], from the weighted Chern data for d <= 4; each
    d is computed once, since every dp3-degree<d> lookup reads it."""
    if d not in WEIGHTED_CI:
        return B3_DEFAULTS[d]
    top, coeffs = weighted_ci_chern(*WEIGHTED_CI[d])
    return int(4 - top * coeffs[3])


@lru_cache(maxsize=128)
def threefold_profile(d: int, b3: int) -> BaseProfile:
    """Profile with basis {H}, H^3 = d, c_1 = 2H, H.c_2 = 12, c_3 = (4-b_3)[pt],
    labelled dp3-degree<d> when b_3 is V_d's own."""
    if d < 1:
        raise ValueError("need d >= 1")
    if b3 < 0:
        raise ValueError("need b3 >= 0")
    if b3 % 2:
        raise ValueError(f"b3 = 2 h^(1,2) is even, got {b3}")
    return BaseProfile.make(
        f"dp3-degree{d}" if d <= 5 and b3 == default_b3(d)
        else f"dp3-d{d}-b3-{b3}", 3, ("H",), {(3,): d},
        [{(1,): 2}, {(2,): Fraction(12, d)}, {(3,): Fraction(4 - b3, d)}])


def default_threefold_profile(d: int) -> BaseProfile:
    return threefold_profile(d, default_b3(d))


def vmrt_class_threefold(d: int, k: int, r: int) -> PTClass:
    """Total dual VMRT class k zeta + (r/d - k) pi^*H on the degree-d profile."""
    if d < 1 or k < 1 or r < 1:
        raise ValueError("d, k, r must be positive")
    profile = default_threefold_profile(d)
    push = (k - Fraction(r, d)) * profile.symbol("H")
    return dual_vmrt_generic(profile, k, push)


class VmrtRow(Record):
    """One row k zeta + (r/d - k) pi^*H of the dual-VMRT class table.

    ``cls`` is None exactly when only the bound r >= r_min is known (d = 1);
    ``r`` then holds r_min.
    """

    __slots__ = ("degree", "k", "r", "cls")
    degree: int
    k: int
    r: int
    cls: PTClass | None

    @property
    def h_coefficient(self) -> Fraction:
        """m = r/d - k: exact when ``cls`` is set, else a lower bound."""
        return Fraction(self.r, self.degree) - self.k

    def not_big_certificate_applies(self) -> bool:
        """True when the H-coefficient is certainly >= 0.

        A dual VMRT of class k zeta + m pi^*H with m >= 0 prevents zeta
        from being in the interior of the pseudoeffective cone.
        """
        return self.h_coefficient >= 0

    def to_json(self) -> dict:
        d, k, r = self.degree, self.k, self.r
        m = fraction_str(self.h_coefficient)
        if self.cls is None:
            note = (f"k = {k}; only the bound r >= {r} is available, so the "
                    "H-coefficient is interval-valued")
            return {"degree": d, "k": k, "note": note, "r_min": r,
                    "h_coefficient_min": m,
                    "class": f"{k}z + m*H with m >= {m}"}
        note = (f"k = {k} from the line family; r = {r} matches the "
                f"(-1)-curve count of the degree-{d} surface section")
        return {"degree": d, "k": k, "note": note, "r": r, "h_coefficient": m,
                "class": format_class(self.cls.profile, self.cls)}


@lru_cache(maxsize=None)
def vmrt_table() -> Mapping[int, VmrtRow]:
    """Dual-VMRT classes for the irreducible line families, degrees 1..5.

    k is the reported evaluation degree and r the number of lines of the
    degree-d surface section, read from the enumeration; for d = 1 that
    count is only the bound r_min.  The read-only table is built once.
    """
    rows: dict[int, VmrtRow] = {}
    for d, k in EVALUATION_DEGREES.items():
        r = len(minus_one_curves(surface_lattice(d)))
        rows[d] = VmrtRow(d, k, r,
                          None if d == 1 else vmrt_class_threefold(d, k, r))
    return MappingProxyType(rows)


@lru_cache(maxsize=None)
def k3_quartic_profile() -> BaseProfile:
    """Profile of a smooth quartic K3 surface in P^3."""
    return weighted_ci_profile("k3-quartic", (1, 1, 1, 1), (4,))


def k3_bitangent_class() -> PTClass:
    """Bitangent-incidence divisor class 6 zeta + 8 pi^*H on P(T_S) for a
    quartic K3 surface S.

    Its sixth, zeta + 4/3 pi^*H, is the boundary pseudoeffective class.
    The registry claims ``dp3.k3.zeta3``, ``dp3.k3.zeta2h`` and
    ``dp3.k3.zetah2`` pin the sanity values zeta^3 = c_1^2 - c_2 = -24,
    zeta^2.pi^*H = 0 and zeta.pi^*H^2 = H^2 = 4 on ``k3-quartic``.
    """
    profile = k3_quartic_profile()
    return 6 * PTClass.zeta(profile) + 8 * profile.symbol("H")
