"""Claim registry and batch verification.

Claims live in a checked-in JSON document (``data/registry.json``) so the
expected constants are auditable without reading source code.  Each claim
binds one operation with arguments to an expected value; expected values
carry a provenance tag: ``reported`` for constants taken from the source
material under audit, ``derived`` for values recomputed here by an
independent route, ``trivial`` for definitional facts.  Every comparison is
exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Mapping
from fractions import Fraction

from . import hypersurfaces as hyp
from . import schur
from . import surfaces
from . import threefolds
from .chow import (PTClass, as_fraction, eval_top, fraction_str,
                   restrict_to_section, segre_omega, dual_vmrt_generic)
from .exprparse import format_class, parse_expr
from .profiles import get_profile
from .record import Record

PROVENANCE_TAGS = ("reported", "derived", "trivial")


class _FrozenDict(dict):
    """A read-only dict that hashes by its items."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs) -> None:
        raise TypeError("claim data is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self) -> tuple:
        return _FrozenDict, (dict(self),)


def _freeze(value: object) -> object:
    """JSON data made read-only: objects as _FrozenDicts, arrays as tuples."""
    if isinstance(value, dict):
        return _FrozenDict({k: _freeze(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(map(_freeze, value))
    return value


class Claim(Record):
    """A named expected value bound to the operation that recomputes it.

    ``args`` and ``expected`` are frozen on construction (objects become
    read-only dicts, arrays tuples), so a claim is hashable and a loaded
    registry cannot be changed through it.
    """

    __slots__ = ("id", "description", "anchor", "op", "args", "expected",
                 "provenance")
    id: str
    description: str
    anchor: str
    op: str
    args: Mapping[str, object]
    expected: Mapping[str, object]
    provenance: str

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "args", _freeze(self.args))
        object.__setattr__(self, "expected", _freeze(self.expected))


class ClaimResult(Record):
    __slots__ = ("id", "status", "computed", "expected", "provenance",
                 "elapsed")
    id: str
    status: str  # "pass" | "fail"
    computed: str
    expected: str
    provenance: str
    elapsed: float


# ---------------------------------------------------------------------------
# Operation bindings
# ---------------------------------------------------------------------------
# A claim's ``args`` are its op's keyword arguments.  Every op reaches the
# library through a module attribute at call time, so rebinding a library
# function (as a tracer does) is seen here.

def _op_eval_expr(profile: str, expr: str) -> Fraction:
    base = get_profile(profile)
    return eval_top(base, parse_expr(base, expr))


def _op_segre_top(profile: str) -> Fraction:
    base = get_profile(profile)
    return base.evaluate(segre_omega(base)[base.dim])


def _op_dual_vmrt(profile: str, deg_e: int, pushforward: str) -> PTClass:
    base = get_profile(profile)
    return dual_vmrt_generic(base, deg_e, parse_expr(base, pushforward))


def _op_degenerate_count(degree: int) -> int:
    lattice = surfaces.surface_lattice(degree)
    counts = {len(surfaces.degenerate_members(lattice, f))
              for f in surfaces.conic_classes(lattice)}
    if len(counts) != 1:
        raise ArithmeticError(f"pencils disagree on member count: {counts}")
    return counts.pop()


def _op_lattice_check(degree: int) -> bool:
    lattice = surfaces.surface_lattice(degree)
    return lattice.pair(lattice.k, lattice.k) == lattice.degree


def _hyp_profile(n: int, d: int):
    return hyp.hypersurface_profile(hyp.HypersurfaceSpec(n, d))


def _op_chern_value(n: int, d: int, j: int) -> Fraction:
    profile = _hyp_profile(n, d)
    return profile.evaluate(profile.chern[j - 1] * profile.symbol("H") ** (n - j))


def _op_c1_square(n: int, d: int) -> Fraction:
    profile = _hyp_profile(n, d)
    return profile.evaluate(profile.chern[0] ** 2 * profile.symbol("H") ** (n - 2))


def _op_comb_A_match(k: int, n: int) -> bool:
    brute, closed = hyp.comb_identity_A(k, n)
    return closed is not None and brute == closed


def _part(values: tuple, index: int) -> object:
    # a real position only: Python would read index -1 as the last part
    if not 0 <= index < len(values):
        raise IndexError(f"index must lie in 0..{len(values) - 1}, got {index}")
    return values[index]


def _op_cubic_certificate(component: str) -> object:
    certificate = surfaces.cubic_surface_certificate()
    if component not in certificate._fields:
        raise ValueError(f"component must be one of "
                         f"{', '.join(certificate._fields)}, got {component!r}")
    return getattr(certificate, component)


OPS: dict[str, Callable[..., object]] = {
    "chow.eval_expr": _op_eval_expr,
    "chow.segre_top": _op_segre_top,
    "chow.dual_vmrt": _op_dual_vmrt,
    "chow.restrict_section": lambda splitting, quotient_index, eps:
        restrict_to_section(splitting, quotient_index, eps),
    "surfaces.lattice_check": _op_lattice_check,
    "surfaces.minus_one_count": lambda degree:
        len(surfaces.minus_one_curves(surfaces.surface_lattice(degree))),
    "surfaces.conic_count": lambda degree:
        len(surfaces.conic_classes(surfaces.surface_lattice(degree))),
    "surfaces.degenerate_count": _op_degenerate_count,
    "surfaces.degree4_pairing": lambda: surfaces.degree4_pairing(),
    "surfaces.conic_pair_count": lambda: len(surfaces.degree4_pencil_pairs()),
    "surfaces.degree4_vmrt_pair_sum": lambda: surfaces.degree4_vmrt_pair_sum(),
    "surfaces.degree4_lines_covered": lambda: surfaces.degree4_lines_covered(),
    "surfaces.quintic_pairwise": lambda: surfaces.quintic_conics_pairwise(),
    "surfaces.degree5_sum": lambda: surfaces.degree5_sum(),
    "surfaces.degree5_vmrt_sum": lambda: surfaces.degree5_vmrt_sum(),
    "surfaces.cubic_conics_match_lines":
        lambda: surfaces.cubic_conics_match_lines(),
    "surfaces.cubic_certificate": _op_cubic_certificate,
    "surfaces.chi_sym": lambda degree, m:
        surfaces.chi_sym_tangent_surface(degree, m),
    "surfaces.noether_all": lambda:
        all(surfaces.noether_check(d) for d in range(1, 10)),
    "surfaces.chi_growth_threshold": lambda:
        all((surfaces.chi_sym_cubic_coefficient(d) > 0) == (d >= 7)
            for d in range(1, 10)),
    "hyp.chern_value": _op_chern_value,
    "hyp.c1_coeff": lambda n, d:
        dict(_hyp_profile(n, d).chern[0].terms).get((0, (1,)), Fraction(0)),
    "hyp.c1_square": _op_c1_square,
    "hyp.segre_closed": lambda n, d, l:
        hyp.segre_closed_form(hyp.HypersurfaceSpec(n, d), l),
    "hyp.mnef": lambda n: hyp.cubic_mnef_number(n),
    "hyp.sum_positive": lambda n: hyp.sum_positive_part(n),
    "hyp.sum_negative": lambda n: hyp.sum_negative_part(n),
    "hyp.comb_A": lambda k, n: hyp.comb_identity_A(k, n)[0],
    "hyp.comb_A_match": _op_comb_A_match,
    "hyp.recursion_A": lambda k, n: hyp.recursion_check_A(k, n),
    "threefolds.triple": lambda d, b3, index: _part(
        threefolds.profile_triple(threefolds.threefold_profile(d, b3)), index),
    "threefolds.vmrt_class": lambda d: threefolds.vmrt_table()[d].cls,
    "threefolds.vmrt_k": lambda d: threefolds.vmrt_table()[d].k,
    "threefolds.vmrt_m_min":
        lambda d: threefolds.vmrt_table()[d].h_coefficient,
    "threefolds.not_big": lambda d:
        threefolds.vmrt_table()[d].not_big_certificate_applies(),
    "threefolds.certificate_degree1": lambda: threefolds.certificate_degree1(),
    "threefolds.certificate_degree2_modnef":
        lambda: threefolds.certificate_degree2_modnef(),
    "threefolds.certificate_degree2_divisor":
        lambda: threefolds.certificate_degree2_divisor(),
    "threefolds.k3_class": lambda: threefolds.k3_bitangent_class(),
    "threefolds.k3_normalized":
        lambda: Fraction(1, 6) * threefolds.k3_bitangent_class(),
    "threefolds.k3_value": lambda index:
        _part(threefolds.profile_triple(threefolds.k3_quartic_profile()), index),
    "schur.dim": lambda partition, n: schur.schur_dim(partition, n),
    "schur.ssyt": lambda partition, n: schur.ssyt_count(partition, n),
    "schur.rectangle": lambda n, k: schur.plethysm_rectangle_check(n, k),
    "schur.euler_forms": lambda n, p, k: schur.euler_char_forms(n, p, k),
    "schur.bott": lambda n, r, j: schur.bott_vanishing(n, r, j),
    "schur.bridge": lambda n, d, k: schur.bridge_identity_check(n, d, k),
}


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

EXPECTED_KINDS = ("rational", "int", "bool", "class", "interval")
# Required keys of a registry entry and their JSON types.
ENTRY_KEYS = {"id": str, "description": str, "op": str, "expected": dict,
              "provenance": str}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_arg(value: object) -> bool:
    return (_is_int(value) or isinstance(value, str)
            or (isinstance(value, list) and all(map(_is_int, value))))


def load_registry(path: str | os.PathLike | None = None) -> tuple[Claim, ...]:
    """Load and validate a claim registry, by default the built-in one."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "registry.json")
    with open(path, encoding="utf-8") as file:
        try:
            raw = json.load(file)
        except RecursionError:
            raise ValueError("registry JSON is nested too deeply") from None
    entries = raw.get("claims") if isinstance(raw, dict) else None
    if not isinstance(entries, list):
        raise ValueError('registry must be an object with a "claims" list')
    claims = []
    seen: set[str] = set()
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"claim #{index}: entry must be an object")
        for key, kind in ENTRY_KEYS.items():
            if not isinstance(entry.get(key), kind):
                raise ValueError(f"claim #{index}: missing or bad {key!r}")
        claim_id, expected = entry["id"], entry["expected"]
        args = entry.get("args", {})
        if claim_id in seen:
            raise ValueError(f"duplicate claim id {claim_id!r}")
        seen.add(claim_id)
        if entry["provenance"] not in PROVENANCE_TAGS:
            raise ValueError(f"{claim_id}: bad provenance {entry['provenance']!r}")
        if len(expected) != 1 or next(iter(expected)) not in EXPECTED_KINDS:
            raise ValueError(f"{claim_id}: bad expected spec {expected!r}")
        if not isinstance(args, dict):
            raise ValueError(f"{claim_id}: args must be an object")
        for name, value in args.items():
            if not _is_arg(value):
                raise ValueError(f"{claim_id}: arg {name!r} must be an int, a "
                                 f"string or a list of ints, not {value!r}")
        claims.append(Claim(claim_id, entry["description"],
                            entry.get("anchor", ""), entry["op"], args,
                            expected, entry["provenance"]))
    return tuple(claims)


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, PTClass):
        return format_class(value.profile, value)
    return str(value)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, Fraction)


def _spec_fraction(spec: object) -> Fraction:
    if isinstance(spec, bool):
        raise ValueError(f"{spec!r} is a boolean, not a rational")
    return as_fraction(spec)


def _decode_expected(expected: Mapping[str, object]
                     ) -> tuple[str, Callable[[object], bool]]:
    """Rendered text and match test of an expected-value spec.

    Raises on a spec that cannot be decoded: an unknown kind, a value of the
    wrong type, an interval that is not an object with keys from {min, max},
    an unknown profile or an unparsable class.
    """
    kind, spec = next(iter(expected.items()))
    if kind == "rational":
        value = _spec_fraction(spec)
        return str(spec), lambda c: _is_number(c) and c == value
    if kind == "int":
        if not _is_int(spec):
            raise ValueError(f"int spec {spec!r} is not an integer")
        return str(spec), lambda c: _is_number(c) and c == spec
    if kind == "bool":
        if not isinstance(spec, bool):
            raise ValueError(f"bool spec {spec!r} is not a boolean")
        return "true" if spec else "false", lambda c: c is spec
    if kind == "class":
        cls = parse_expr(get_profile(spec["profile"]), spec["expr"])
        return _render(cls), lambda c: isinstance(c, PTClass) and c == cls
    if kind == "interval":
        if not (isinstance(spec, dict) and spec and set(spec) <= {"min", "max"}):
            raise ValueError(f"interval spec {spec!r} is not a nonempty object "
                             "with keys from min, max")
        low, high = (_spec_fraction(spec[key]) if key in spec else None
                     for key in ("min", "max"))
        text = " and ".join(f"{sign} {spec[key]}" for key, sign
                            in (("min", ">="), ("max", "<=")) if key in spec)
        return text, lambda c: (_is_number(c) and (low is None or c >= low)
                                and (high is None or c <= high))
    raise ValueError(f"bad expected kind {kind!r}")


def _check(claim: Claim) -> tuple[str, str, str]:
    """Status, computed text and expected text of one claim."""
    try:
        expected, matches = _decode_expected(claim.expected)
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        return "fail", f"error: bad expected spec: {exc}", json.dumps(
            claim.expected, sort_keys=True)
    op = OPS.get(claim.op)
    if op is None:
        return "fail", f"error: unknown operation {claim.op!r}", expected
    try:
        computed = op(**claim.args)
        status = "pass" if matches(computed) else "fail"
        return status, _render(computed), expected
    except Exception as exc:  # diagnostic, keep running
        return "fail", f"error: {exc}", expected


def run_claims(filter_prefix: str | None = None,
               registry: tuple[Claim, ...] | None = None
               ) -> tuple[ClaimResult, ...]:
    """Run claims in registry order; failures carry a diagnostic and the
    run continues."""
    results = []
    for claim in load_registry() if registry is None else registry:
        if filter_prefix and not claim.id.startswith(filter_prefix):
            continue
        start = time.perf_counter()
        status, computed, expected = _check(claim)
        results.append(ClaimResult(claim.id, status, computed, expected,
                                   claim.provenance,
                                   time.perf_counter() - start))
    return tuple(results)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(results: tuple[ClaimResult, ...], format: str = "json") -> str:
    """Render the results of a run as a JSON or markdown report.

    Output is byte-identical across runs for the same registry: per-claim
    timings stay on the in-memory result objects and are not emitted.  Both
    summaries keep a "skipped" count, always 0, as part of the report format.
    """
    passed = sum(r.status == "pass" for r in results)
    failed = len(results) - passed
    if format == "json":
        doc = {
            "claims": [{
                "id": r.id,
                "status": r.status,
                "computed": r.computed,
                "expected": r.expected,
                "provenance": r.provenance,
            } for r in results],
            "summary": {"pass": passed, "fail": failed, "skipped": 0},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if format == "markdown":
        groups: dict[str, list[ClaimResult]] = {}
        for result in results:
            groups.setdefault(result.id.split(".")[0], []).append(result)
        lines = ["# Claim verification report", ""]
        for group in sorted(groups):
            lines.append(f"## {group}")
            lines.append("")
            lines.append("| claim | status | computed | expected |")
            lines.append("| --- | --- | --- | --- |")
            for r in groups[group]:
                lines.append(f"| {r.id} | {r.status} | {r.computed} | {r.expected} |")
            lines.append("")
        lines.append(f"**summary:** {passed} pass, {failed} fail, 0 skipped")
        lines.append("")
        return "\n".join(lines)
    raise ValueError(f"unknown format {format!r}")
