"""Exact graded class arithmetic on projectivised tangent bundles.

A variety X of dimension n enters all computations through a
:class:`BaseProfile`: an ordered divisor basis, the top intersection form on
degree-n monomials, and the Chern classes of the tangent bundle.  Classes on
the projectivisation P(T_X) are sparse polynomials in the tautological class
``zeta`` and pulled-back divisors, with ``fractions.Fraction`` coefficients;
there is one class type, :class:`PTClass`, and classes on X itself (Chern
classes, divisors) are its zeta-free values.  No floating point is used
anywhere.

Sign convention
---------------
P(T_X) -> X is the projectivisation parametrising rank-one quotients, and
zeta = c_1(O(1)).  Degree-(2n-1) products are evaluated through the
pushforward rule

    pi_* (zeta^(n-1+j) . pi^* a) = s_j(Omega_X) . a,

where the Segre classes of the cotangent bundle are the series inverse
s(Omega_X) = 1 / c(Omega_X), with c_j(Omega_X) = (-1)^j c_j(T_X).  Monomials
whose zeta-power is below n-1 push forward to zero.  This is the single
source of sign truth for the whole package; it is pinned by two anchor
values that the test suite treats as mandatory: zeta^3 = -6 on the
cubic-surface profile and zeta^5 = -78 on the degree-1 del Pezzo threefold
profile.

All values in this module are immutable and hashable records (subclasses of
:class:`tautclass.record.Record`), so they can be shared freely across
threads or processes.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from operator import index, mul, sub

from .record import Record

Exponents = tuple[int, ...]
PTKey = tuple[int, Exponents]
Scalar = int | Fraction

# The most terms a product may have, bounded before it is expanded.
MAX_TERMS = 10**6

# The one string form as_fraction accepts: "p" or "p/q" in ASCII digits.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


class DegreeMismatchError(ValueError):
    """Raised when a class fails a homogeneity or degree requirement."""


class ProfileMismatchError(ValueError):
    """Raised when values attached to different profiles are combined."""


def as_fraction(value: Scalar | str) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction.

    Any other string, such as '1e9999999', which ``Fraction`` would expand
    to a huge integer, and a zero denominator raise :class:`ValueError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"not a 'p/q' rational: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact scalar: {value!r}")


def _as_int(value: object) -> int:
    """``operator.index(value)``; a bool or a non-int raises ValueError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"not an integer: {value!r}")
    return index(value)


def fraction_str(value: Fraction) -> str:
    """Serialize a Fraction as a decimal-free 'p/q' (or bare 'p') string."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class BaseProfile(Record):
    """Finite intersection-theoretic presentation of a variety.

    ``top_form`` assigns a rational number to degree-``dim`` exponent
    vectors over ``basis`` (missing monomials evaluate to zero); keying by
    exponent vector makes the form symmetric by construction.
    ``chern_terms`` holds c_1..c_n of the tangent bundle, entry j
    homogeneous of degree j, as sorted exponent-vector term maps that
    :meth:`make` validates.  :attr:`chern` is the same data as zeta-free
    :class:`PTClass` values over the profile, and :attr:`canonical` is
    K_X = -c_1(T_X).  Profiles compare by value, so a profile rebuilt from
    its JSON equals the original.
    """

    __slots__ = ("label", "dim", "basis", "top_form", "chern_terms",
                 "__dict__")
    label: str
    dim: int
    basis: tuple[str, ...]
    top_form: tuple[tuple[Exponents, Fraction], ...]
    chern_terms: tuple[tuple[tuple[Exponents, Fraction], ...], ...]

    @staticmethod
    def make(label: str,
             dim: int,
             basis: Iterable[str],
             top_form: Mapping[Exponents, Scalar],
             chern: Iterable[Mapping[Exponents, Scalar]]
             ) -> "BaseProfile":
        basis = tuple(basis)
        if dim < 1:
            raise ValueError("dim must be positive")
        if len(set(basis)) != len(basis) or not basis:
            raise ValueError("basis symbols must be distinct and nonempty")

        def homogeneous(terms: Mapping[Exponents, Scalar], degree: int,
                        name: str) -> tuple[tuple[Exponents, Fraction], ...]:
            collected: dict[Exponents, Fraction] = {}
            for exps, value in terms.items():
                try:
                    exps = tuple(index(e) for e in exps)
                except TypeError:
                    raise ValueError(f"bad {name} exponents {exps}") from None
                if len(exps) != len(basis) or any(e < 0 for e in exps):
                    raise ValueError(f"bad {name} exponents {exps}")
                if sum(exps) != degree:
                    raise DegreeMismatchError(
                        f"{name} entry {exps} has degree {sum(exps)} != {degree}")
                collected[exps] = (collected.get(exps, Fraction(0))
                                   + as_fraction(value))
            return tuple(sorted((e, c) for e, c in collected.items() if c))

        form = homogeneous(top_form, dim, "top_form")
        chern = tuple(chern)
        if len(chern) != dim:
            raise ValueError(f"need exactly {dim} Chern entries, got {len(chern)}")
        return BaseProfile(
            label, dim, basis, form,
            tuple(homogeneous(terms, j, f"c_{j}")
                  for j, terms in enumerate(chern, start=1)))

    @property
    def nsyms(self) -> int:
        return len(self.basis)

    @cached_property
    def chern(self) -> tuple[PTClass, ...]:
        """c_1..c_n of the tangent bundle as zeta-free classes."""
        return tuple(PTClass(self, tuple(((0, e), c) for e, c in terms))
                     for terms in self.chern_terms)

    @cached_property
    def canonical(self) -> PTClass:
        """The canonical divisor class K_X = -c_1(T_X)."""
        return -self.chern[0]

    @cached_property
    def _form(self) -> dict[Exponents, Fraction]:
        return dict(self.top_form)

    @cached_property
    def _pushforward(self) -> tuple[int, dict[int, int], int]:
        """The pushforward functional on degree-(2n-1) monomials.

        A triple (D, table, width): the table maps each monomial
        zeta^(n-1+j) . m whose value s_j(Omega_X) . m on the top form is
        nonzero to D times that value, an integer, and its keys are packed
        with the width (2n-1).bit_length() that :func:`eval_product`
        multiplies at.  Each Segre term meets each top-form monomial that
        it divides once, so no monomials are enumerated; the values are
        summed as Fractions and packed once.
        """
        table: dict[PTKey, Fraction] = {}
        for j, s_j in enumerate(segre_omega(self)):
            for (_, e), s in s_j.terms:
                for exps, f in self.top_form:
                    m = tuple(map(sub, exps, e))
                    if min(m) >= 0:
                        key = (self.dim - 1 + j, m)
                        table[key] = table.get(key, 0) + s * f
        width = (2 * self.dim - 1).bit_length()
        return *_pack([(k, c) for k, c in table.items() if c], width), width

    @cached_property
    def names(self) -> dict[str, PTClass]:
        """Every name of the expression grammar and its class (shared, never
        changed): ``c1``..``cn`` (c_j(T_X)), ``K``, the basis symbols, then
        ``z``, a later name replacing an equal earlier one."""
        names = {f"c{j}": c for j, c in enumerate(self.chern, start=1)}
        names["K"] = self.canonical
        names.update((name, self.symbol(name)) for name in self.basis)
        names["z"] = PTClass.zeta(self)
        return names

    def symbol(self, name: str) -> PTClass:
        """The pulled-back divisor class of a basis symbol."""
        index = self.basis.index(name)
        exps = tuple(int(i == index) for i in range(self.nsyms))
        return PTClass(self, (((0, exps), Fraction(1)),))

    def evaluate(self, cls: PTClass) -> Fraction:
        """Evaluate a zeta-free degree-n class against the top form."""
        _require_profile(self, cls)
        if not _is_base(cls, self.dim):
            raise DegreeMismatchError(
                f"top evaluation needs a zeta-free class of degree {self.dim}, "
                f"got degrees {sorted(cls.total_degrees())}")
        form = self._form
        return sum((c * form.get(e, 0) for (_, e), c in cls.terms),
                   Fraction(0))

    def to_json(self) -> dict:
        def entries(terms) -> list[dict]:
            return [{"exponents": list(e), "value": fraction_str(c)}
                    for e, c in terms]

        return {
            "label": self.label,
            "dim": self.dim,
            "basis": list(self.basis),
            "top_form": entries(self.top_form),
            "chern": [entries(terms) for terms in self.chern_terms],
            "canonical": entries((e, -c) for e, c in self.chern_terms[0]),
        }

    @staticmethod
    def from_json(doc: Mapping) -> "BaseProfile":
        def terms(entries) -> dict[Exponents, str]:
            return {tuple(item["exponents"]): item["value"] for item in entries}

        return BaseProfile.make(
            doc["label"],
            _as_int(doc["dim"]),
            doc["basis"],
            terms(doc["top_form"]),
            [terms(entries) for entries in doc["chern"]],
        )


def segre_omega(profile: BaseProfile) -> tuple[PTClass, ...]:
    """Invert the total Chern class of Omega_X as a truncated power series.

    Returns s_0..s_n with s(Omega) = s_0 + ... + s_n the inverse of
    c(Omega) up to base degree n, so s_0 = 1.  With every c_i(Omega)
    written over one denominator D, the series 1 + sum_i D^i c_i(Omega)
    has integer coefficients, its inverse has part D^j s_j in base degree
    j, the lowest field of a packed key, and :func:`_pow_packed` computes
    that inverse as the power -1.  The series is packed with field width
    n.bit_length(): every term has zeta-power 0 and base degree at most n,
    so no field reaches 2^width and no pair is truncated.  The inversion
    runs on every call and its result is not kept; :func:`eval_top` and
    :func:`eval_product` read the profile's pushforward table, built once.
    """
    n = profile.dim
    width = n.bit_length()
    # c_i(Omega) = (-1)^i c_i(T_X), read from chern_terms so that the
    # inversion does not build the chern classes.
    omega = [_pack([((0, e), -c if i % 2 else c) for e, c in terms], width)
             for i, terms in enumerate(profile.chern_terms, start=1)]
    den = math.lcm(*(d for d, _ in omega))
    series = {0: 1}
    for i, (d, packed) in enumerate(omega, start=1):
        scale = den // d * den ** (i - 1)
        series.update((k, c * scale) for k, c in packed.items())
    mask = (1 << width) - 1
    parts: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for key, c in _pow_packed(series, -1, width, n).items():
        parts[key & mask][key] = c
    return tuple(_unpack(profile, den ** j, part, width)
                 for j, part in enumerate(parts))


def _pack(terms: Sequence[tuple[PTKey, Scalar]],
          width: int) -> tuple[int, dict[int, int]]:
    """Terms as (D, packed): integer numerators over one denominator D.

    D is the lcm of the coefficients' denominators.  From high to low bits
    a packed key holds the zeta-power, the base exponents e_1..e_k and
    their sum |e|, each in a ``width``-bit field.  While every field below
    the zeta-power stays under 2^width, adding two keys multiplies their
    monomials.
    """
    den = math.lcm(*(c.denominator for _, c in terms))
    packed: dict[int, int] = {}
    for (zp, exps), c in terms:
        key = zp
        for e in exps:
            key = key << width | e
        n, d = c.numerator, c.denominator
        packed[key << width | sum(exps)] = n if d == den else n * (den // d)
    return den, packed


def _unpack(profile: BaseProfile, den: int, packed: Mapping[int, int],
            width: int) -> PTClass:
    """The class of a zero-free packed map over D, inverse to :func:`_pack`.

    Packed keys sort as their (zeta-power, exponents) keys do.
    """
    top = width * (profile.nsyms + 1)
    shifts = range(top - width, 0, -width)
    mask = (1 << width) - 1
    return PTClass(profile, tuple([
        ((key >> top, tuple([key >> s & mask for s in shifts])),
         Fraction(c, den))
        for key, c in sorted(packed.items())]))


def _mul_packed(a: Mapping[int, int], b: Mapping[int, int], width: int,
                max_base_degree: int) -> dict[int, int]:
    """Exact product of two packed term maps, without zero terms.

    Pairs whose base degrees add up to more than ``max_base_degree`` are
    skipped.  The larger map is the outer loop, so the inner term list,
    built once, is the smaller one.  The caller keeps every field of every
    product below 2^width.
    """
    if len(a) < len(b):
        a, b = b, a
    mask = (1 << width) - 1
    b_terms = [(k, k & mask, c) for k, c in b.items()]
    acc: dict[int, int] = {}
    for k1, c1 in a.items():
        room = max_base_degree - (k1 & mask)
        for k2, d2, c2 in b_terms:
            if d2 <= room:
                key = k1 + k2
                acc[key] = acc.get(key, 0) + c1 * c2
    return {k: c for k, c in acc.items() if c}


def _pow_packed(f: Mapping[int, int], m: int, width: int,
                max_base_degree: int) -> dict[int, int]:
    """f^m for a packed term map f, truncated like the kernel.

    f^1 is f.  Otherwise f^m takes one of three routes: a two-term f is
    raised by the binomial theorem, an f whose base-degree-0 part is one
    monomial by J.C.P. Miller's recurrence, and any other f is multiplied
    out.

    The binomial route (m >= 2): f = a + b, with b of base degree no lower
    than a, has the terms t_j = C(m, j) c_a^(m-j) c_b^j on the keys
    (m-j) k_a + j k_b, computed in one pass from t_0 = c_a^m by
    t_j = t_(j-1) (m-j+1) c_b / (j c_a).  That division is exact, since
    t_(j-1) (m-j+1) c_b = j c_a t_j and t_j is an integer.  The base
    degree of t_j does not fall with j, so the pass stops at the first t_j
    past ``max_base_degree``, and no term is kept when t_0 is past it.

    The recurrence: graded by base degree, f = P_0 + P_1 + ...  When P_0
    is one monomial c_0 zeta^d (f need not be homogeneous: z^2 + H + F
    qualifies), Q = f^m has parts Q_0 = c_0^m zeta^(dm) and, from
    f Q' = m f' Q (J.C.P. Miller's recurrence; Knuth, TAOCP vol. 2, 4.7),

        k P_0 Q_k = sum_{i >= 1} ((m+1) i - k) P_i Q_{k-i}.

    Q_k reads only lower parts, so stopping at base degree
    ``max_base_degree`` is exact.  Dividing by zeta^d subtracts P_0's key
    (the zeta-power is the top field), and that is done once: P_0 is taken
    out of the levels, and every other level's keys are shifted down by
    P_0's key, so each product key is already the key of Q_k.  Dividing by
    k c_0 is exact because f^m has integer coefficients.  Each part Q_k is
    a list of (key, coefficient) pairs; level k walks only the levels i
    that f has, in increasing order up to k, skips a zero weight, and the
    result map is built once, from all parts, at the end.  When P_0 is
    missing or has several terms (H + F + E1, z + H + 1), f is multiplied
    m times.  For m = -1, P_0 must be the constant 1, and then
    Q_k = -(P_1 Q_{k-1} + ... + P_k Q_0); any other negative m or constant
    part raises :class:`ValueError`.
    """
    if m == 1:
        return f
    mask = (1 << width) - 1
    if m >= 2 and len(f) == 2:
        (ka, ca), (kb, cb) = sorted(f.items(), key=lambda t: t[0] & mask)
        key, degree, c = ka * m, (ka & mask) * m, ca ** m
        step, rise = kb - ka, (kb & mask) - (ka & mask)
        power = {}
        for j in range(m + 1):
            if degree > max_base_degree:
                break
            power[key] = c
            key += step
            degree += rise
            c = c * (m - j) * cb // ((j + 1) * ca)
        return power
    levels: dict[int, list[tuple[int, int]]] = {}
    for key, c in f.items():
        levels.setdefault(key & mask, []).append((key, c))
    if m < 0 and (m != -1 or levels.get(0) != [(0, 1)]):
        raise ValueError(f"no power {m} of a series with constant part "
                         f"{levels.get(0, [])}: only 1 has a power -1 here")
    if len(levels.get(0, ())) != 1:
        power = f
        for _ in range(m - 1):
            power = _mul_packed(power, f, width, max_base_degree)
        return power
    (k0, c0), = levels.pop(0)
    shifted = [(i, [(key - k0, c) for key, c in levels[i]])
               for i in sorted(levels)]
    top = max(levels, default=0)
    last = max_base_degree if m < 0 else min(max_base_degree, m * top)
    parts = [[(k0 * m, c0 ** abs(m))]]  # c_0 = 1 when m = -1
    for k in range(1, last + 1):
        acc: dict[int, int] = {}
        for i, terms in shifted:
            if i > k:
                break
            weight = (m + 1) * i - k
            if not weight:
                continue
            lower = parts[k - i]
            for k1, c1 in terms:
                c1 *= weight
                for k2, c2 in lower:
                    key = k1 + k2
                    acc[key] = acc.get(key, 0) + c1 * c2
        divisor = k * c0
        part = []
        for key, c in acc.items():
            if c:
                q, r = divmod(c, divisor)
                if r:
                    raise ArithmeticError(
                        f"power recurrence left remainder {r} at level {k}")
                part.append((key, q))
        parts.append(part)
    return {key: c for part in parts for key, c in part}


# PTClass.__init__ sets its slots with this, past Record.__setattr__.
_set = object.__setattr__


class PTClass(Record):
    """Sparse graded class on P(T_X) in zeta and pulled-back divisors.

    Terms map (zeta power, base exponent vector) to a Fraction; the class
    points to the profile it lives over, and arithmetic between classes
    over different profiles is rejected.  Every atom and product is a new
    class, so construction is spelled out rather than left to
    :class:`Record`'s field loop; equality and hashing are :class:`Record`'s,
    one ``attrgetter`` call on (profile, terms).
    """

    __slots__ = ("profile", "terms")
    profile: BaseProfile
    terms: tuple[tuple[tuple[int, Exponents], Fraction], ...]

    def __init__(self, profile: BaseProfile,
                 terms: tuple[tuple[tuple[int, Exponents], Fraction], ...]
                 ) -> None:
        _set(self, "profile", profile)
        _set(self, "terms", terms)

    @staticmethod
    def make(profile: BaseProfile,
             terms: Mapping[tuple[int, Exponents], Scalar]) -> "PTClass":
        collected: dict[tuple[int, Exponents], Fraction] = {}
        for (zp, exps), coeff in terms.items():
            try:
                zp, exps = index(zp), tuple(index(e) for e in exps)
            except TypeError:
                raise ValueError(f"bad term key ({zp!r}, {exps})") from None
            if zp < 0 or len(exps) != profile.nsyms or any(e < 0 for e in exps):
                raise ValueError(f"bad term key ({zp}, {exps})")
            q = as_fraction(coeff)
            if q:
                key = (zp, exps)
                collected[key] = collected.get(key, Fraction(0)) + q
        normalized = tuple(sorted((k, c) for k, c in collected.items() if c))
        return PTClass(profile, normalized)

    @staticmethod
    def zero(profile: BaseProfile) -> "PTClass":
        return PTClass(profile, ())

    @staticmethod
    def one(profile: BaseProfile) -> "PTClass":
        return PTClass.zeta(profile, 0)

    @staticmethod
    def zeta(profile: BaseProfile, power: int = 1) -> "PTClass":
        key = (power, (0,) * profile.nsyms)
        if power < 0:
            raise ValueError(f"bad term key {key}")
        return PTClass(profile, ((key, Fraction(1)),))

    @property
    def profile_label(self) -> str:
        """Label of the profile, for display."""
        return self.profile.label

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PTClass") -> "PTClass":
        _require_profile(self.profile, other)
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        return PTClass.make(self.profile, acc)

    def __sub__(self, other: "PTClass") -> "PTClass":
        return self + (-other)

    def __neg__(self) -> "PTClass":
        return PTClass(self.profile, tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other: "PTClass | Scalar") -> "PTClass":
        if type(other) is PTClass or not isinstance(other, (int, Fraction)):
            return _product(self.profile, (self, other))
        # one exact Fraction; a term whose coefficient is 1 takes it as is
        q = other if type(other) is Fraction else Fraction(other)
        return PTClass(self.profile, tuple(
            [(k, q if c == 1 else c * q) for k, c in self.terms] if q else ()))

    def __rmul__(self, other: Scalar) -> "PTClass":
        return self * other

    def __pow__(self, power: int) -> "PTClass":
        if power < 0:
            raise ValueError("negative power")
        return _product(self.profile, (self,) * power)

    def total_degrees(self) -> set[int]:
        return {zp + sum(e) for (zp, e), _ in self.terms}

    def homogeneous_degree(self) -> int | None:
        """Common total degree zeta-power + |monomial|, None if zero."""
        degrees = self.total_degrees()
        if not degrees:
            return None
        if len(degrees) > 1:
            raise DegreeMismatchError(
                f"class mixes total degrees {sorted(degrees)}")
        return degrees.pop()


def _chain(profile: BaseProfile, runs: Sequence[tuple[PTClass, int]],
           width: int, bound: int, table: Mapping[int, int] | None = None
           ) -> tuple[int, dict[int, int] | int]:
    """The product of the runs f^m as packed numerators over one denominator.

    Each f is packed once with field width ``width`` and raised by
    :func:`_pow_packed`; the powers are multiplied by :func:`_mul_packed`,
    both dropping base degree above ``bound``, and the product is returned
    packed.  Given a ``table`` on packed keys, the last run is paired with
    the others' product by :func:`_contract`, and the product's value is
    returned.  The caller keeps every field below the zeta-power under
    2^width.

    Before anything is multiplied, the term count of the product and of
    every partial product is bounded a priori: a run of a t-term f has at
    most C(t+m-1, m) terms, one per multiset of m terms, and the product,
    the contracted run included, has at most C(D+k+1, k+1), the number of
    monomials in zeta and the k basis symbols of total degree at most D,
    the sum of m times each f's largest total degree.  When the smaller
    bound is above MAX_TERMS it raises :class:`ValueError`.  The minimum
    passes MAX_TERMS only if the multiset bound does, so the degree bound,
    a pass over every term, is computed only then.
    """
    terms = math.prod(math.comb(len(f.terms) + m - 1, m) for f, m in runs)
    if terms > MAX_TERMS:
        top = sum(m * max(zp + sum(e) for (zp, e), _ in f.terms)
                  for f, m in runs)
        terms = min(terms,
                    math.comb(top + profile.nsyms + 1, profile.nsyms + 1))
        if terms > MAX_TERMS:
            raise ValueError(f"the product may have {terms} terms, more "
                             f"than {MAX_TERMS}")
    den, nums = 1, None
    for i, (factor, m) in enumerate(runs, start=1):
        factor_den, f = _pack(factor.terms, width)
        den *= factor_den ** m
        f = _pow_packed(f, m, width, bound)
        if table is not None and i == len(runs):
            return den, _contract({0: 1} if nums is None else nums, f, table)
        nums = f if nums is None else _mul_packed(nums, f, width, bound)
    return den, nums


def _contract(a: Mapping[int, int], b: Mapping[int, int],
              table: Mapping[int, int]) -> int:
    """sum_a A[a] sum_b B[b] T[a+b], the table's value on the product of
    two packed maps, which is not built; a key missing from T reads 0.  The
    smaller map is the Python loop, and each inner sum is C-level iterators;
    the key 0 (a lone run is contracted with 1) shifts no key of b.
    """
    if len(a) > len(b):
        a, b = b, a
    get, zeros = table.get, itertools.repeat(0)
    return sum(c * sum(map(mul, b.values(),
                           map(get, map(k.__add__, b) if k else b, zeros)))
               for k, c in a.items())


def _product(profile: BaseProfile, factors: Sequence[PTClass]) -> PTClass:
    """The formal product of the factors, multiplied in one integer chain.

    Consecutive equal factors form one run f^m for :func:`_chain`, so X^k
    is one power.  Nothing is truncated: the chain's bound is the sum of
    the factors' largest base degrees, and its field width is the bound's
    bit length.  Every factor's profile is checked first; a zero factor
    then gives the zero class, a single factor is returned as it is, and
    no factors give 1.
    """
    for factor in factors:
        _require_profile(profile, factor)
    if not factors:
        return PTClass.one(profile)
    if len(factors) == 1:
        return factors[0]
    runs = [(factor, len(list(group)))
            for factor, group in itertools.groupby(factors)]
    if any(factor.is_zero for factor, _ in runs):
        return PTClass.zero(profile)
    bound = sum(m * max(sum(e) for (_, e), _ in factor.terms)
                for factor, m in runs)
    width = max(bound.bit_length(), 1)
    return _unpack(profile, *_chain(profile, runs, width, bound), width)


def _require_profile(profile: BaseProfile, cls: PTClass) -> None:
    if cls.profile is not profile and cls.profile != profile:
        raise ProfileMismatchError(f"class over {cls.profile.label!r} used "
                                   f"with a different profile {profile.label!r}")


def _is_base(cls: PTClass, degree: int) -> bool:
    """Whether every term of a class is zeta-free of base degree ``degree``."""
    return all(zp == 0 and sum(e) == degree for (zp, e), _ in cls.terms)


def eval_top(profile: BaseProfile, cls: PTClass) -> Fraction:
    """Intersection number of a homogeneous degree-(2n-1) class on P(T_X).

    Each monomial zeta^(n-1+j) . pi^* m pushes forward to s_j(Omega_X) . m,
    which is then evaluated against the top form; monomials with zeta-power
    below n-1 contribute zero.  This is :func:`eval_product` of the one
    factor ``cls``, with its guards: the zero class gives 0, and a class of
    mixed or wrong degree raises :class:`DegreeMismatchError`.  Its one run
    is contracted with 1: the dot product with the pushforward table.
    """
    return eval_product(profile, (cls,))


def eval_product(profile: BaseProfile, factors: Iterable[PTClass]) -> Fraction:
    """The value of :func:`eval_top` on the product of the factors.

    The product is not built: :func:`_chain` multiplies every run but the
    last and contracts the last with that product and the profile's
    pushforward table, on the same packed keys; one Fraction is reduced.
    The running product drops base monomials of degree > dim X: they
    vanish on X, no later factor lowers their degree, and their zeta-power
    is then below n-1.  Consecutive equal factors form one run f^m, and
    each run's profile and degree are checked first, so a zero factor gives
    0, and a product that is not homogeneous of top degree raises
    :class:`DegreeMismatchError` as on the formal product.

    The runs go through :func:`_chain`, as in the formal product, and
    :func:`_pow_packed` raises each: a two-term f, such as zeta + aH, by
    the binomial theorem; another f with a pure zeta term by J.C.P.
    Miller's power recurrence, which also inverts c(Omega_X) in
    :func:`segre_omega` (as the power -1); and any other f is multiplied
    out.  The chain uses the table's field width
    (2n-1).bit_length() and bound n.  The factors are homogeneous with
    non-negative exponents and degrees adding up to 2n-1, so no base
    exponent or base degree of a factor, partial product or contracted
    pair exceeds 2n-1 < 2^width, and no field carries.  So a contracted
    pair of base degree above n needs no test: its key is not in the table,
    whose keys zeta^(n-1+j) . m have base degree n-j <= n, and it reads 0.
    """
    runs = [(factor, len(list(group)))
            for factor, group in itertools.groupby(factors)]
    for factor, _ in runs:
        _require_profile(profile, factor)
    if any(factor.is_zero for factor, _ in runs):
        return Fraction(0)
    n = profile.dim
    degree = sum(factor.homogeneous_degree() * m for factor, m in runs)
    if degree != 2 * n - 1:
        raise DegreeMismatchError(
            f"eval_top on {profile.label!r} needs total degree "
            f"{2 * n - 1} (= 2*{n}-1), got {degree}")
    table_den, table, width = profile._pushforward
    den, value = _chain(profile, runs, width, n, table)
    return Fraction(value, den * table_den)


def restrict_to_section(splitting: Iterable[int], quotient_index: int,
                        eps: Scalar) -> Fraction:
    """Degree of zeta + eps.pi^*H on the section picked by a quotient.

    For a line l with H.l = 1 and T_X|_l splitting into line bundles of the
    given degrees, the section of P(T_X|_l) defined by the quotient onto the
    summand of degree a_q meets zeta + eps.pi^*H in degree a_q + eps.
    """
    degrees = tuple(map(_as_int, splitting))
    if not 0 <= quotient_index < len(degrees):
        raise IndexError(
            f"quotient index {quotient_index} out of range for a "
            f"{len(degrees)}-summand splitting")
    return degrees[quotient_index] + as_fraction(eps)


def dual_vmrt_generic(profile: BaseProfile, deg_e: int,
                      pushforward_c1: PTClass) -> PTClass:
    """Divisor class of a total dual VMRT from its two ingredients.

    For a minimal rational curve family with generically finite evaluation
    map of degree deg_e, the total dual VMRT has class
    deg_e . zeta - pi^* (pushforward of c_1 of the relative tangent sheaf).
    """
    if deg_e <= 0:
        raise ValueError("deg_e must be a positive integer")
    _require_profile(profile, pushforward_c1)
    if not _is_base(pushforward_c1, 1):
        raise DegreeMismatchError(
            "pushforward class must be zeta-free and homogeneous of degree 1")
    return PTClass.zeta(profile) * deg_e - pushforward_c1
