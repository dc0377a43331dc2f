"""Del Pezzo threefold profiles, dual-VMRT table and certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tautclass import threefolds
from tautclass.chow import BaseProfile, eval_top
from tautclass.claims import run_claims
from tautclass.exprparse import parse_expr
from tautclass.hypersurfaces import weighted_ci_profile
from tautclass.profiles import get_profile
from tautclass.threefolds import (default_threefold_profile,
                                  k3_bitangent_class, k3_quartic_profile,
                                  threefold_profile, vmrt_class_threefold,
                                  vmrt_table)


def _value(profile, text):
    return eval_top(profile, parse_expr(profile, text))


def _triple(profile):
    """(zeta^(2n-1), zeta^(2n-2).pi^*H, zeta^(2n-3).pi^*H^2) on a profile
    with basis {H}."""
    top = 2 * profile.dim - 1
    return tuple(_value(profile, text) for text in
                 (f"z^{top}", f"z^{top - 1}*H", f"z^{top - 2}*H^2"))


def test_profile_triples():
    # the registry's dp3.triple.* claims name only the label, so the b_3
    # each label defaults to is pinned here
    for d, b3, triple in ((1, 42, (-78, -8, 2)), (2, 20, (-48, -4, 4)),
                          (3, 10, (-30, 0, 6))):
        assert get_profile(f"dp3-degree{d}") == threefold_profile(d, b3)
        assert _triple(threefold_profile(d, b3)) == triple


@pytest.mark.parametrize("d, b3", [(2, 21), (5, 1), (3, 11)])
def test_odd_b3_is_rejected(d, b3):
    # b_3 = 2 h^(1,2) by Hodge symmetry; these data would give a
    # non-integral chi(T_X), e.g. -39/2 at (2, 21)
    with pytest.raises(ValueError, match="even"):
        threefold_profile(d, b3)


def test_triple_symbolic_grid():
    for d in range(1, 7):
        for b3 in range(0, 61, 6):
            triple = _triple(threefold_profile(d, b3))
            assert triple == (8 * d - 44 - b3, 4 * d - 12, 2 * d)


@pytest.mark.parametrize(
    "label", [*(f"dp3-degree{d}" for d in range(1, 5)), "k3-quartic"])
def test_weighted_route_matches_hand_route(label):
    # Whole profiles, not only eval numbers: V_1..V_4 from weighted_ci_profile
    # against the hand-written family at b_3 = 4 - c_3 . H^3, label included,
    # and the K3 quartic (c_1 = 0, c_2 = 24, H^2 = 4) against hypersurface-n2-d4.
    if label == "k3-quartic":
        k3 = get_profile(label)
        assert k3.chern[0].is_zero and k3.evaluate(k3.chern[1]) == 24
        assert k3.top_form == (((2,), 4),)
        assert BaseProfile("hypersurface-n2-d4", k3.dim, k3.basis,
                           k3.top_form, k3.chern_terms) == get_profile(
            "hypersurface-n2-d4")
        return
    d = int(label[-1])
    weighted = weighted_ci_profile(label, *threefolds.WEIGHTED_CI[d])
    b3 = 4 - weighted.evaluate(weighted.chern[2])
    assert weighted == threefold_profile(d, b3) == get_profile(label)


def test_vmrt_class_examples():
    for d, k, r, text in ((5, 3, 10, "3z - H"), (4, 4, 16, "4z"),
                          (3, 6, 27, "6z + 3H"), (2, 12, 56, "12z + 16H")):
        profile = default_threefold_profile(d)
        assert vmrt_class_threefold(d, k, r) == parse_expr(profile, text)


def test_vmrt_table_rows():
    rows = vmrt_table()
    assert rows[4].h_coefficient == 0  # the pseudoeffectivity pivot
    assert rows[5].h_coefficient == -1
    assert rows[3].h_coefficient == 3
    assert rows[2].h_coefficient == 16
    assert rows[1].cls is None
    assert rows[1].k == 60 and rows[1].h_coefficient == 180
    # cross-check: r equals the surface (-1)-curve count for d >= 2
    from tautclass.surfaces import minus_one_curves, surface_lattice
    for d in range(2, 6):
        assert rows[d].r == len(minus_one_curves(surface_lattice(d)))
    assert rows[1].r == len(minus_one_curves(surface_lattice(1)))


def test_vmrt_table_json_has_notes():
    rows = vmrt_table()
    for d, row in rows.items():
        doc = row.to_json()
        assert doc["degree"] == d and doc["note"]
    assert vmrt_table()[5].to_json()["class"] == "3z - H"
    assert "m >= 180" in vmrt_table()[1].to_json()["class"]


def test_vmrt_table_built_once(monkeypatch):
    assert vmrt_table() is vmrt_table()
    with pytest.raises(TypeError):
        vmrt_table()[6] = vmrt_table()[5]
    # one cold verify run builds the four exact rows once, not per claim
    vmrt_table.cache_clear()
    calls = []
    build = threefolds.vmrt_class_threefold

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(threefolds, "vmrt_class_threefold", counting_build)
    run_claims()
    assert len(calls) == 4


def test_default_profiles_derive_b3_once(monkeypatch):
    # every dp3-degree<d> lookup reads default_b3(d); the weighted Chern
    # data behind it is computed once per d, and a label is one object
    threefolds.default_b3.cache_clear()
    calls = []
    chern = threefolds.weighted_ci_chern

    def counting(*args):
        calls.append(args)
        return chern(*args)

    monkeypatch.setattr(threefolds, "weighted_ci_chern", counting)
    for d in range(1, 6):
        profiles = {id(get_profile(f"dp3-degree{d}")) for _ in range(5)}
        assert len(profiles) == 1
    assert sorted(calls) == sorted(threefolds.WEIGHTED_CI.values())


def test_not_big_certificate():
    rows = vmrt_table()
    assert [rows[d].not_big_certificate_applies() for d in range(1, 6)] == [
        True, True, True, True, False]


def test_certificates():
    assert _value(get_profile("dp3-degree1"),
                  "z*(z+H)*(z+3H)^2*(z+4H)") == -11
    degree2 = get_profile("dp3-degree2")
    assert _value(degree2, "z^2*(z+2H)^3") == -8
    divisor = _value(degree2, "z*(z+H)*(z+4/3H)*(z+3/2H)^2")
    # exact expansion of the five-factor product; the registry's recorded
    # constant -49/6 for the same product is off by 1/3 (see README)
    assert divisor == Fraction(-51, 6)
    assert divisor < 0


def test_k3_quartic_data():
    profile = k3_quartic_profile()
    assert k3_bitangent_class() == parse_expr(profile, "6z + 8H")
    assert (Fraction(1, 6) * k3_bitangent_class()
            == parse_expr(profile, "z + 4/3H"))
    assert _triple(profile) == (-24, 0, 4)
