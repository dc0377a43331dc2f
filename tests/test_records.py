"""Value-record semantics, and the import cost they were built to avoid.

Profiles, classes, specs and claims are immutable values: equal fields mean
equal, equally hashed objects (profiles are compared by value, and
``lru_cache`` keys on specs and lattices), and nothing compares equal to a
plain tuple.  The library builds them without ``dataclasses``, which with
the ``inspect`` module it pulls in was a large share of a cold
``tautclass verify``.
"""

from __future__ import annotations

import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tautclass.chow import BaseProfile, PTClass
from tautclass.claims import Claim, load_registry
from tautclass.hypersurfaces import HypersurfaceSpec
from tautclass.profiles import get_profile
from tautclass.surfaces import CurveClass

SRC = Path(__file__).resolve().parent.parent / "src"


def _claim(**changes) -> Claim:
    fields = dict(id="c", description="d", anchor="a", op="eval_expr",
                  args={"profile": "cubic-surface", "expr": "z^3"},
                  expected={"rational": "-6"}, provenance="derived")
    return Claim(**{**fields, **changes})


def _records():
    profile = get_profile("cubic-surface")
    return {
        "PTClass": profile.symbol("H"),
        "BaseProfile": profile,
        "CurveClass": CurveClass((1, -1, 0)),
        "HypersurfaceSpec": HypersurfaceSpec(3, 3),
        "Claim": _claim(),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_fields_cannot_be_set_or_deleted(name):
    record = _records()[name]
    field = next(iter(type(record).__annotations__))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


def test_equal_fields_mean_equal_records_and_hashes():
    profile = get_profile("cubic-surface")
    rebuilt = BaseProfile.from_json(profile.to_json())
    assert rebuilt is not profile
    pairs = [
        (rebuilt, profile),
        (PTClass(rebuilt, profile.symbol("H").terms), profile.symbol("H")),
        (CurveClass((1, -1, 0)), CurveClass(coeffs=(1, -1, 0))),
        (HypersurfaceSpec(3, 4), HypersurfaceSpec(n=3, d=4)),
    ]
    for left, right in pairs:
        assert left == right and not left != right
        assert hash(left) == hash(right)
    assert _claim() == _claim() and hash(_claim()) == hash(_claim())
    assert CurveClass((1, 0)) != CurveClass((0, 1))
    assert HypersurfaceSpec(3, 4) != HypersurfaceSpec(4, 3)
    assert _claim() != _claim(provenance="reported")
    assert profile.symbol("H") != profile.symbol("F")
    assert len({HypersurfaceSpec(3, 3), HypersurfaceSpec(3, 3)}) == 1


def test_records_never_equal_a_tuple_of_their_fields():
    profile = get_profile("cubic-surface")
    h = profile.symbol("H")
    assert h != (h.profile, h.terms)
    assert profile != (profile.label, profile.dim, profile.basis,
                       profile.top_form, profile.chern_terms)
    assert CurveClass((1, 0)) != ((1, 0),)
    assert HypersurfaceSpec(3, 3) != (3, 3)


def test_cached_properties_still_cache():
    profile = get_profile("dp3-degree2")
    assert profile.chern is profile.chern
    assert profile.canonical is profile.canonical


def test_construction_and_repr():
    assert repr(HypersurfaceSpec(3, 4)) == "HypersurfaceSpec(n=3, d=4)"
    assert repr(CurveClass((1, 0))) == "CurveClass(coeffs=(1, 0))"
    with pytest.raises(TypeError):
        CurveClass()
    with pytest.raises(TypeError):
        CurveClass((1, 0), (0, 1))
    with pytest.raises(TypeError):
        CurveClass((1, 0), coeffs=(0, 1))
    with pytest.raises(TypeError):
        CurveClass(degree=1)


def test_records_survive_pickling():
    profile = get_profile("cubic-surface")
    cls = profile.symbol("H") * Fraction(1, 2)
    copy = pickle.loads(pickle.dumps(cls))
    assert copy == cls and copy.profile == profile
    for record in (HypersurfaceSpec(3, 3), CurveClass((1, -1, 0))):
        assert pickle.loads(pickle.dumps(record)) == record


def test_claims_are_hashable_and_read_only():
    registry = load_registry()
    assert len(set(registry)) == len(registry)
    assert hash(load_registry()[0]) == hash(registry[0])
    claim = next(c for c in registry if c.op == "schur.dim")
    with pytest.raises(TypeError):
        claim.args["x"] = 1
    with pytest.raises(TypeError):
        claim.expected.update(int=0)
    with pytest.raises(TypeError):
        del claim.args["partition"]
    assert claim == load_registry()[registry.index(claim)]
    # arrays and nested objects are frozen too
    assert isinstance(claim.args["partition"], tuple)
    nested = _claim(expected={"interval": {"min": "1"}})
    with pytest.raises(TypeError):
        nested.expected["interval"]["max"] = "2"
    assert hash(nested) == hash(_claim(expected={"interval": {"min": "1"}}))
    for record in (claim, nested):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        with pytest.raises(TypeError):
            copy.args["x"] = 1


@pytest.mark.parametrize("n, d", [(0, 3), (201, 3), (3, 10**9)])
def test_hypersurface_spec_bounds(n, d):
    with pytest.raises(ValueError):
        HypersurfaceSpec(n, d)


@pytest.mark.parametrize("code, loaded", [
    pytest.param("import tautclass", ["tautclass"], id="package"),
    pytest.param("import tautclass.cli", ["tautclass", "tautclass.cli"],
                 id="cli"),
    pytest.param("from tautclass.cli import main; "
                 "main(['schur', 'dim', '--partition', '2,1', '--dim', '3'])",
                 ["tautclass", "tautclass.cli", "tautclass.schur"],
                 id="schur-dim"),
    pytest.param("from tautclass.cli import main; "
                 "main(['verify', '--format', 'json'])",
                 sorted(["tautclass"] + [
                     f"tautclass.{info.name}" for info
                     in pkgutil.iter_modules([str(SRC / "tautclass")])]),
                 id="verify"),
])
def test_cli_import_skips_dataclasses_and_inspect(code, loaded):
    # Deterministic stand-in for a start-up timing: each entry point loads
    # only the layers it uses, and none loads dataclasses or inspect (these
    # modules and the per-class code generation of @dataclass were about a
    # fifth of a cold `tautclass verify`).
    script = ("import sys; sys.path.insert(0, sys.argv[1]); " + code + "; "
              "print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('tautclass', 'dataclasses', 'inspect')"
              "), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stderr.strip() == str(loaded)
