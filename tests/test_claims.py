"""Claim registry, report emission and the command-line interface."""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import tautclass
from tautclass import hypersurfaces, schur, surfaces, threefolds
from tautclass.chow import BaseProfile, PTClass
from tautclass.claims import (OPS, Claim, _render, emit, load_registry,
                              run_claims)
from tautclass.cli import main
from tautclass.profiles import MAX_HYPERSURFACE_DIM, get_profile


def test_registry_loads_and_ids_unique():
    registry = load_registry()
    assert len(registry) > 100
    assert len({c.id for c in registry}) == len(registry)
    for claim in registry:
        assert claim.op in OPS, claim.op
        assert claim.provenance in ("reported", "derived", "trivial")


def test_every_dispatch_op_is_claimed():
    # no silent dead operations: the registry exercises every binding
    used = {c.op for c in load_registry()}
    assert used == set(OPS)


LAYERS = ("chow", "hypersurfaces", "surfaces", "threefolds", "schur")
DOC = Path(__file__).parents[1] / "docs" / "claims-coverage.md"
MARKER = "<!-- Generated below: PYTHONPATH=src python tests/test_claims.py -->"


def public_functions(layer):
    """Name -> public function of a library layer, in definition order."""
    module = importlib.import_module(f"tautclass.{layer}")
    return {name: value for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__}


def claim_calls():
    """Claim id -> "layer.name" of each public function the claim calls, as
    a profile hook sees them: from anywhere, with every cache cleared first,
    so memoized bodies run and their calls count."""
    functions = [(f"{layer}.{name}", fn) for layer in LAYERS
                 for name, fn in public_functions(layer).items()]
    names = {getattr(fn, "__wrapped__", fn).__code__: name
             for name, fn in functions}
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            called.add(names[frame.f_code])

    calls, previous = {}, sys.getprofile()
    sys.setprofile(hook)
    try:
        for claim in load_registry():
            for _, fn in functions:
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
            called.clear()
            run_claims(registry=(claim,))
            calls[claim.id] = frozenset(called)
    finally:
        sys.setprofile(previous)
    return calls


def coverage_tables():
    """The doc below its marker: per function, `prefix.*` for each two-part
    id prefix whose claims all call it, else the ids of the claims that do."""
    calls, groups, lines = claim_calls(), {}, []
    for claim_id in calls:
        prefix = ".".join(claim_id.split(".")[:2])
        groups.setdefault(prefix, []).append(claim_id)
    for layer in LAYERS:
        lines += ["", f"## {layer}", "", "| operation | claims |",
                  "| --- | --- |"]
        for name in public_functions(layer):
            cells = []
            for prefix, ids in groups.items():
                callers = [i for i in ids if f"{layer}.{name}" in calls[i]]
                cells += [f"{prefix}.*"] if callers == ids else callers
            row = ", ".join(f"`{cell}`" for cell in cells) or "none"
            lines.append(f"| `{name}` | {row} |")
    return "\n" + "\n".join(lines) + "\n"


def test_coverage_doc_is_generated():
    text = DOC.read_text(encoding="utf-8")
    assert text.partition(MARKER)[2] == coverage_tables(), (
        "docs/claims-coverage.md is stale: regenerate it with "
        "PYTHONPATH=src python tests/test_claims.py")


# Public functions that no claim calls: second routes that tests compare
# the claimed ones against.
REFERENCE_ROUTES = {
    "hypersurfaces.segre_closed_form_factored",  # test_hypersurfaces
    "surfaces.simple_roots",  # test_surfaces Weyl-orbit tests
    "surfaces.reflect",  # test_surfaces Weyl-orbit tests
}


def test_claims_call_every_public_function():
    names = {f"{layer}.{name}" for layer in LAYERS
             for name in public_functions(layer)}
    assert names - set().union(*claim_calls().values()) == REFERENCE_ROUTES


def test_full_run_has_single_known_failure():
    results = run_claims()
    failures = [r for r in results if r.status == "fail"]
    assert [f.id for f in failures] == ["dp3.cert.deg2.divisor"]
    assert failures[0].computed == "-17/2"
    assert [r.status for r in results].count("pass") == len(results) - 1
    assert len(results) == len(load_registry())


def test_filter_prefix():
    results = run_claims("dp2.surface")
    assert len(results) == 7
    assert all(r.id.startswith("dp2.surface4.") for r in results)
    assert all(r.status == "pass" for r in results)
    assert all(r.status == "pass" for r in run_claims("hyp.cubic"))


def test_unknown_op_fails_with_diagnostic_and_run_continues():
    registry = (
        Claim("x.bad", "bad", "", "no.such_op", {}, {"int": 1}, "trivial"),
        Claim("x.bad-class", "bad class spec", "", "threefolds.vmrt_class",
              {"d": 5}, {"class": {"profile": "no-such", "expr": "z"}},
              "derived"),
        Claim("x.bad-args", "args do not match the op", "", "schur.dim",
              {"partition": [2, 2], "dim": 3}, {"int": 6}, "derived"),
        Claim("x.good", "good", "", "schur.dim",
              {"partition": [2, 2], "n": 3}, {"int": 6}, "derived"),
        # the degree-1 row has no class, only the bound m >= 180
        Claim("x.no-class", "d = 1 has no class", "", "threefolds.vmrt_class",
              {"d": 1}, {"class": {"profile": "dp3-degree1", "expr": "60z"}},
              "derived"),
        Claim("x.m-bound", "d = 1 bound", "", "threefolds.vmrt_m_min",
              {"d": 1}, {"rational": "180"}, "derived"),
    )
    results = run_claims(registry=registry)
    assert [r.status for r in results] == [
        "fail", "fail", "fail", "pass", "fail", "pass"]
    assert "unknown operation" in results[0].computed
    assert results[1].computed.startswith("error:")
    assert "no-such" in results[1].computed
    assert results[2].computed.startswith("error:")
    assert "dim" in results[2].computed
    assert results[4].computed == "None"
    assert results[5].computed == "180"


def test_deeply_nested_class_spec_fails_its_claim(tmp_path, capsys):
    # a hostile expected spec fails its own claim; the run goes on
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"claims": [{
        "id": "t.deep", "description": "d", "anchor": "",
        "op": "threefolds.vmrt_class", "args": {"d": 5},
        "expected": {"class": {"profile": "dp3-degree5",
                               "expr": "(" * 300 + "z" + ")" * 300}},
        "provenance": "derived"}]}))
    assert main(["verify", "--registry", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    claim = json.loads(out)["claims"][0]
    assert claim["status"] == "fail"
    assert claim["computed"].startswith("error: bad expected spec")


@pytest.mark.parametrize("spec", [
    {"interval": {}}, {"interval": []}, {"interval": "abc"},
    {"interval": {"min": "-100", "mx": "1"}}, {"interval": {"min": True}},
    {"rational": True}, {"rational": "1e99999"},
    {"interval": {"max": "1e99999"}}], ids=repr)
def test_malformed_number_spec_fails_its_claim(spec):
    # hyp.mnef at n = 3 is -9, which each spec would otherwise pass or
    # show with an empty or misread expected column
    claim = Claim("t.spec", "d", "", "hyp.mnef", {"n": 3}, spec, "derived")
    ok = Claim("t.ok", "d", "", "hyp.mnef", {"n": 3},
               {"interval": {"min": "-100", "max": "1"}}, "derived")
    bad, good = run_claims(registry=(claim, ok))
    assert bad.status == "fail"
    assert bad.computed.startswith("error: bad expected spec")
    assert bad.expected == json.dumps(spec, sort_keys=True)
    assert (good.status, good.expected) == ("pass", ">= -100 and <= 1")


def test_emit_json_schema_and_determinism():
    first = emit(run_claims("schur"), "json")
    second = emit(run_claims("schur"), "json")
    assert first == second  # byte-identical across runs
    doc = json.loads(first)
    assert set(doc) == {"claims", "summary"}
    assert set(doc["summary"]) == {"pass", "fail", "skipped"}
    assert doc["summary"]["pass"] == len(doc["claims"])
    for entry in doc["claims"]:
        assert set(entry) == {"id", "status", "computed", "expected",
                              "provenance"}


def test_emit_markdown_renders_classes():
    text = emit(run_claims("dp3.vmrt"), "markdown")
    assert "| dp3.vmrt.degree5 | pass | 3z - H | 3z - H |" in text
    assert "## dp3" in text
    with pytest.raises(ValueError):
        emit(run_claims("dp3.vmrt"), "html")


def test_cli_verify_filter_and_exit_codes(capsys):
    assert main(["verify", "--filter", "dp2."]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0
    # the full registry carries the one recorded-constant failure
    assert main(["verify"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 1


def test_cli_verify_markdown(capsys):
    assert main(["verify", "--filter", "chow.", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Claim verification report")


def test_cli_verify_registry_override(tmp_path, capsys):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"claims": [{
        "id": "t.one", "description": "d", "anchor": "",
        "op": "schur.dim", "args": {"partition": [1], "n": 3},
        "expected": {"int": 3}, "provenance": "trivial"}]}))
    assert main(["verify", "--registry", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["pass"] == 1


def test_unprintable_claim_value_fails_alone(tmp_path, capsys):
    # chi(Sym^m T) on a cubic surface grows like m^3, so at m = 10^2000 its
    # numerator has over 6000 digits, more than str() prints; that claim
    # fails with the error and the run goes on.  The twist cap refuses
    # k = 10^30 before the sum, whose value would have over 5000 digits.
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"claims": [
        {"id": f"t.{i}", "description": "d", "anchor": "", "op": op,
         "args": args, "expected": {"int": 6}, "provenance": "trivial"}
        for i, (op, args) in enumerate((
            ("schur.euler_forms", {"n": 3, "p": 1, "k": 2}),
            ("schur.euler_forms", {"n": 200, "p": 0, "k": 10**30}),
            ("surfaces.chi_sym", {"degree": 3, "m": 10**2000})))]}))
    assert main(["verify", "--registry", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    claims = json.loads(out)["claims"]
    assert [c["status"] for c in claims] == ["pass", "fail", "fail"]
    assert claims[1]["computed"] == "error: need |k| <= 100000000000000000000"
    assert claims[2]["computed"].startswith("error: Exceeds the limit (4300")


def test_cli_verify_rejects_non_integer_arg(tmp_path, capsys):
    # a float must not be truncated into a different, passing claim
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"claims": [{
        "id": "t.float", "description": "d", "anchor": "",
        "op": "hyp.mnef", "args": {"n": 3.7},
        "expected": {"rational": "-9"}, "provenance": "reported"}]}))
    assert main(["verify", "--registry", str(path)]) == 2
    assert "t.float" in capsys.readouterr().err


def test_cli_verify_rejects_malformed_registry(tmp_path, capsys):
    # a registry of the wrong shape is a usage error, not a traceback; so
    # is one nested past the depth that json.loads can recurse to
    no_id = {"claims": [{"description": "d", "op": "schur.dim",
                         "args": {"partition": [1], "n": 3},
                         "expected": {"int": 3}, "provenance": "trivial"}]}
    path = tmp_path / "registry.json"
    for text, message in (
            (json.dumps(no_id), "claim #0: missing or bad 'id'"),
            (json.dumps([1, 2]), 'an object with a "claims" list'),
            (json.dumps({"claims": [1]}), "claim #0: entry must be an object"),
            ('{"claims": ' + "[" * 200_000, "nested too deeply")):
        path.write_text(text)
        assert main(["verify", "--registry", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and message in err


def test_cli_verify_missing_registry(capsys):
    assert main(["verify", "--registry", "/no/such/registry.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_eval(capsys):
    assert main(["eval", "--profile", "dp3-degree2",
                 "--expr", "z^2*(z+2*H)^3"]) == 0
    out = capsys.readouterr().out
    assert "value: -8" in out
    assert main(["eval", "--profile", "cubic-surface", "--expr", "z + H"]) == 0
    out = capsys.readouterr().out
    assert "degree: 1" in out


def test_cli_eval_errors(capsys):
    assert main(["eval", "--profile", "no-such", "--expr", "z"]) == 2
    capsys.readouterr()
    assert main(["eval", "--profile", "cubic-surface", "--expr", "z*(z+H"]) == 2
    assert capsys.readouterr() == ("", "error: expected ')' (offset 7)\n")
    assert main(["eval", "--profile", "cubic-surface",
                 "--expr", "z^3 + z"]) == 2
    assert capsys.readouterr() == (
        "", "error: class mixes total degrees [1, 3]\n")
    assert main(["eval", "--profile", "cubic-surface",
                 "--expr", "1/0*z^3"]) == 2
    assert "offset 1" in capsys.readouterr().err


def test_cli_eval_rejects_oversized_hypersurface_label(capsys):
    for n in ("201", "7" * 5000):
        assert main(["eval", "--profile", f"hypersurface-n{n}-d3",
                     "--expr", "z"]) == 2
        assert f"n <= {MAX_HYPERSURFACE_DIM}" in capsys.readouterr().err
    assert MAX_HYPERSURFACE_DIM == 200
    assert get_profile("hypersurface-n200-d3").dim == 200


def test_cli_eval_rejects_oversized_hypersurface_degree(capsys):
    assert main(["eval", "--profile", f"hypersurface-n3-d{'7' * 4000}",
                 "--expr", "z^5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "9 digits" in err
    assert get_profile("hypersurface-n3-d999999999").label == (
        "hypersurface-n3-d999999999")


def test_hypersurface_caps_hold_on_the_claim_route():
    # registry args build HypersurfaceSpec directly, without a label
    registry = tuple(
        Claim(f"t.{i}", "d", "", op, args, {"int": expected}, "trivial")
        for i, (op, args, expected) in enumerate((
            ("hyp.c1_coeff", {"n": 201, "d": 3}, 200),
            ("hyp.segre_closed", {"n": 201, "d": 3, "l": 1}, 0),
            ("hyp.c1_coeff", {"n": 3, "d": 10**9}, 5 - 10**9),
            ("hyp.c1_coeff", {"n": 200, "d": 3}, 199),
            ("hyp.sum_positive", {"n": 201}, 0),
            ("hyp.sum_negative", {"n": 201}, 0))))
    results = run_claims(registry=registry)
    assert [r.status for r in results] == ["fail", "fail", "fail", "pass",
                                           "fail", "fail"]
    for i in (0, 1, 4, 5):
        assert results[i].computed == (
            f"error: need n <= {MAX_HYPERSURFACE_DIM}, got 201")
    assert results[2].computed == "error: d has at most 9 digits"
    assert hypersurfaces.HypersurfaceSpec(200, 3).n == 200


@pytest.mark.parametrize("op, args, message", [
    ("hyp.comb_A", {"k": 2, "n": 201}, "1 <= n <= 200, got k = 2, n = 201"),
    ("hyp.comb_A", {"k": 9, "n": 3}, "0 <= k <= 8"),
    ("hyp.comb_A_match", {"k": 4, "n": 201}, "n = 201"),
    ("hyp.recursion_A", {"k": 4, "n": 201}, "n = 201"),
    ("schur.euler_forms", {"n": 5000, "p": 5000, "k": 1}, "need n <= 200"),
    ("schur.euler_forms", {"n": 201, "p": 1, "k": 1}, "need n <= 200"),
    ("schur.bott", {"n": 201, "r": 1, "j": 1}, "need n <= 200"),
    ("schur.ssyt", {"partition": [5, 5], "n": 12}, "more than 1000000"),
    ("schur.ssyt", {"partition": [2000], "n": 2}, "more than 1000000"),
    ("schur.ssyt", {"partition": [1], "n": 201}, "need n <= 200"),
    ("schur.euler_forms", {"n": 3, "p": 1, "k": -10**21},
     "need |k| <= 100000000000000000000"),
])
def test_brute_force_ops_are_capped_on_the_claim_route(op, args, message):
    # each op refuses an oversized input before it starts work, so a
    # hand-built claim fails at once with an error
    claim = Claim("t.cap", "d", "", op, args, {"int": 0}, "trivial")
    result = run_claims(registry=(claim,))[0]
    assert result.status == "fail"
    assert result.computed.startswith("error: ") and message in result.computed


def test_rectangle_claim_checks_n_before_building_the_shape(monkeypatch):
    calls = []
    monkeypatch.setattr(schur, "rectangle", lambda *args: calls.append(args))
    claim = Claim("t.cap", "d", "", "schur.rectangle", {"n": 201, "k": 2},
                  {"bool": True}, "trivial")
    result = run_claims(registry=(claim,))[0]
    assert result.status == "fail"
    assert result.computed == "error: need 1 <= n <= 200, got 201"
    assert calls == []


def test_bridge_claim_checks_the_weight_before_any_weyl_product(monkeypatch):
    # the rectangle (k, ..., k) with n - 1 rows weighs 199 000 here, so the
    # claim is refused before schur_dim((k,), n) runs its product
    calls = []
    monkeypatch.setattr(schur, "schur_dim", lambda *args: calls.append(args))
    claim = Claim("t.bridge", "d", "", "schur.bridge",
                  {"n": 200, "d": 3, "k": 1000}, {"bool": True}, "trivial")
    result = run_claims(registry=(claim,))[0]
    assert result.status == "fail"
    assert result.computed == "error: need |mu| <= 1000, got 199000"
    assert calls == []


def test_part_picking_ops_accept_only_real_parts():
    # each hostile claim's expected value is the part that Python's negative
    # indexing or getattr would pick, so a typo cannot pass as another number
    cases = [
        ("threefolds.triple", {"d": 1, "b3": 42, "index": -3}, {"int": -78},
         "error: index must lie in 0..2, got -3"),
        ("threefolds.triple", {"d": 1, "b3": 42, "index": 3}, {"int": 0},
         "error: index must lie in 0..2, got 3"),
        ("threefolds.k3_value", {"index": -1}, {"int": 4},
         "error: index must lie in 0..2, got -1"),
        ("surfaces.cubic_certificate", {"component": "_fields"},
         {"int": 0}, "error: component must be one of a, b, budget, "
         "got '_fields'"),
        ("surfaces.cubic_certificate", {"component": "c"}, {"int": 0},
         "error: component must be one of a, b, budget, got 'c'"),
        ("threefolds.triple", {"d": 1, "b3": 42, "index": 0}, {"int": -78},
         "-78"),
        ("threefolds.k3_value", {"index": 2}, {"int": 4}, "4"),
        ("surfaces.cubic_certificate", {"component": "budget"},
         {"rational": "-23/4"}, "-23/4"),
    ]
    registry = tuple(Claim(f"t.{i}", "d", "", op, args, expected, "trivial")
                     for i, (op, args, expected, _) in enumerate(cases))
    results = run_claims(registry=registry)
    assert [r.computed for r in results] == [case[3] for case in cases]
    assert [r.status for r in results] == ["fail"] * 5 + ["pass"] * 3


def test_hypersurface_labels_have_one_spelling(capsys):
    # "\u0660" is ARABIC-INDIC DIGIT ZERO, which int() reads as 0
    for label in ("hypersurface-n003-d3", "hypersurface-n3-d03",
                  "hypersurface-n0-d3", "hypersurface-n3-d0",
                  "hypersurface-n1\u0660-d3"):
        with pytest.raises(KeyError, match="leading zeros"):
            get_profile(label)
        assert main(["eval", "--profile", label, "--expr", "z"]) == 2
        assert capsys.readouterr().out == ""


def test_profile_labels_match_exactly(capsys):
    for label in ("dp3-degree2\n", "dp-surface-3\n", "hypersurface-n3-d3\n"):
        with pytest.raises(KeyError):
            get_profile(label)
        assert main(["eval", "--profile", label, "--expr", "z"]) == 2
        assert capsys.readouterr().out == ""


def test_profile_routes_share_one_object():
    assert get_profile("dp3-degree2") is threefolds.default_threefold_profile(2)
    assert get_profile("hypersurface-n4-d3") is (
        hypersurfaces.hypersurface_profile(hypersurfaces.HypersurfaceSpec(4, 3)))
    assert get_profile("dp-surface-3") is get_profile("dp-surface-3")


def test_render_class_over_unnamed_profile():
    # dp3-d2-b3-22 is no get_profile label; the class carries its profile.
    profile = threefolds.threefold_profile(2, 22)
    h = profile.symbol("H")
    assert _render(3 * PTClass.zeta(profile) - h) == "3z - H"


def test_cold_run_makes_each_profile_once(monkeypatch):
    for builder in (surfaces.cubic_surface_profile,
                    surfaces.surface_lattice_profile,
                    threefolds.k3_quartic_profile,
                    threefolds.threefold_profile,
                    hypersurfaces.hypersurface_profile):
        builder.cache_clear()
    threefolds.vmrt_table.cache_clear()
    made = Counter()
    make = BaseProfile.make

    def counting_make(*args, **kwargs):
        profile = make(*args, **kwargs)
        made[profile.label] += 1
        return profile

    monkeypatch.setattr(BaseProfile, "make", staticmethod(counting_make))
    run_claims()
    assert len(made) == 14
    assert set(made.values()) == {1}


# Every functools cache in the library without a maxsize, with its whole
# key set: each takes its keys from a small fixed set.
UNBOUNDED_CACHE_KEYS = {
    "surfaces.surface_lattice_profile": [(d,) for d in range(1, 8)],
    "surfaces.minus_one_curves": [(surfaces.PicardLattice(d),)
                                  for d in range(1, 10)],
    "surfaces.conic_classes": [(surfaces.PicardLattice(d),)
                               for d in range(3, 10)],
    "surfaces.cubic_surface_profile": [()],
    "threefolds.k3_quartic_profile": [()],
    "threefolds.vmrt_table": [()],
}


def test_every_library_cache_is_bounded():
    unbounded = {}
    for info in pkgutil.iter_modules(tautclass.__path__):
        layer = info.name
        module = importlib.import_module(f"tautclass.{layer}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_parameters")
                    and value.__module__ == module.__name__
                    and value.cache_parameters()["maxsize"] is None):
                unbounded[f"{layer}.{name}"] = value
    assert sorted(unbounded) == sorted(UNBOUNDED_CACHE_KEYS)
    for name, cached in unbounded.items():
        cached.cache_clear()
        for args in UNBOUNDED_CACHE_KEYS[name]:
            cached(*args)
        assert cached.cache_info().currsize == len(UNBOUNDED_CACHE_KEYS[name])
    # other degrees raise before anything is cached
    for cached, args in ((surfaces.surface_lattice_profile, (0,)),
                         (surfaces.surface_lattice_profile, (8,)),
                         *((surfaces.minus_one_curves,
                            (surfaces.PicardLattice(d),)) for d in (-1, 0, 10)),
                         *((surfaces.conic_classes,
                            (surfaces.PicardLattice(d),)) for d in (2, 10))):
        size = cached.cache_info().currsize
        with pytest.raises(ValueError):
            cached(*args)
        assert cached.cache_info().currsize == size


def test_cli_surface_curves(capsys):
    assert main(["surface", "curves", "--degree", "3"]) == 0
    vectors = json.loads(capsys.readouterr().out)
    assert len(vectors) == 27
    assert all(len(v) == 7 for v in vectors)
    assert main(["surface", "curves", "--degree", "4", "--conics"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 10


def test_cli_vmrt_table(capsys):
    assert main(["vmrt", "table"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["degree"] for row in rows] == [1, 2, 3, 4, 5]
    assert rows[4]["class"] == "3z - H"
    assert rows[0]["r_min"] == 240


def test_cli_schur_dim(capsys):
    assert main(["schur", "dim", "--partition", "2,2", "--dim", "3"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["schur", "dim", "--partition", "1,2", "--dim", "3"]) == 2
    capsys.readouterr()
    assert main(["schur", "dim", "--partition", "a", "--dim", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: invalid literal for int() with base 10: 'a'\n")


@pytest.mark.parametrize("partition", ["\uff13,1_0", "1_0", "\uff13", "+3",
                                       " 3", "3,-1", "\uff17"])
def test_cli_schur_dim_reads_ascii_digits_only(capsys, partition):
    # int() reads "\uff13" (FULLWIDTH DIGIT THREE) as 3 and "1_0" as 10;
    # each text is also refused as --dim and as surface curves --degree
    assert main(["schur", "dim", "--partition", partition, "--dim", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid literal")
    for argv in (["schur", "dim", "--partition", "2", "--dim", partition],
                 ["surface", "curves", "--degree", partition]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: invalid literal for int() with base 10: "
                f"{partition!r}\n")


if __name__ == "__main__":
    head = DOC.read_text(encoding="utf-8").partition(MARKER)[0]
    DOC.write_text(head + MARKER + coverage_tables(), encoding="utf-8")
