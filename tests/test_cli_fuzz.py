"""A fuzz test over the command line.

Every argv carries its command's required flags, so argparse accepts it,
and each input is small by construction: exponents up to 6 (or far over
the cap), sums and products of a few factors, short partitions, and
claims whose int arguments are small or far over every cap.  The property
is the one a user sees: the exit code is 0, 1 or 2, nothing escapes
``main`` (which would print a traceback), and a usage error is one
message that starts with ``error:``.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from tautclass.claims import PROVENANCE_TAGS, load_registry
from tautclass.cli import main
from tautclass.profiles import FIXED_LABELS

LABELS = FIXED_LABELS + (
    "hypersurface-n3-d3", "hypersurface-n200-d3", "hypersurface-n201-d3",
    "hypersurface-n3-d999999999", "hypersurface-n3-d1000000000",
    "hypersurface-n03-d3", "hypersurface-n3-d03", "dp3-degree05",
    "dp-surface-8", "no-such", "")

# Basis symbols of the fixed profiles, K, Chern classes in and out of
# range, and names no profile has.
ATOMS = st.one_of(
    st.sampled_from(("z", "H", "F", "E1", "E8", "K", "c1", "c3", "c0", "c9",
                     "x", "zz", "K3")),
    st.integers(0, 99).map(str),
    st.sampled_from(("1/0", "4/3", "0/5", "1" * 4000, "9" * 5000, "٣")))
# 0..6, over the cap of 399, non-ASCII digits and a missing exponent.
EXPONENTS = st.one_of(
    st.integers(0, 6).map(str),
    st.sampled_from(("400", "1" * 30, "²", "٣", "")))
# At most four leaves, so a product has at most four factors.
EXPRESSIONS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*", "")), inner)
        .map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        st.tuples(inner, EXPONENTS).map(lambda t: f"({t[0]})^{t[1]}")),
    max_leaves=4)
# The parser allows 100 levels of parentheses.
NESTED = st.tuples(EXPRESSIONS, st.sampled_from((0, 1, 2, 99, 100, 101))).map(
    lambda t: "(" * t[1] + t[0] + ")" * t[1])

EVAL = st.tuples(st.sampled_from(LABELS), NESTED).map(
    lambda t: ["eval", f"--profile={t[0]}", f"--expr={t[1]}"])

HOSTILE_INTS = ("", ",", "-1", "+1", " 1", "1_0", "٣", "７", "01", "9" * 30)
PARTITIONS = st.one_of(
    st.lists(st.integers(0, 6), max_size=4).map(
        lambda parts: ",".join(map(str, parts))),
    st.sampled_from(HOSTILE_INTS + ("1000", "1001", "1,2", "2,-1", "a")))
DIMS = st.one_of(st.integers(0, 8).map(str),
                 st.sampled_from(HOSTILE_INTS + ("201",)))
SCHUR = st.one_of(
    st.tuples(PARTITIONS, DIMS),
    # at the caps: n = 200, and a weight of 1000
    st.sampled_from((("1", "200"), ("2,1", "200"), ("1000", "2"),
                     ("500,500", "3"))),
).map(lambda t: ["schur", "dim", f"--partition={t[0]}", f"--dim={t[1]}"])

SURFACE = st.tuples(
    st.one_of(st.integers(0, 10).map(str), st.sampled_from(HOSTILE_INTS)),
    st.booleans(),
).map(lambda t: ["surface", "curves", f"--degree={t[0]}"]
      + ["--conics"] * t[1])

# Each op with the argument names its registry claims pass it.
OP_ARGS = {}
for _claim in load_registry():
    OP_ARGS.setdefault(_claim.op, set()).update(_claim.args)
OP_ARGS = {op: sorted(names) for op, names in sorted(OP_ARGS.items())}
OP_ARGS["no.such_op"] = []

ARG_VALUES = st.one_of(
    st.integers(-2, 4),
    st.sampled_from((10**30, -10**30)),
    st.sampled_from(("x", "a", "budget", "cubic-surface", "z", "z^3",
                     "(z+H)^2")),
    st.lists(st.integers(0, 3), max_size=3))
EXPECTED = st.one_of(
    st.fixed_dictionaries({"int": st.one_of(st.integers(-3, 3),
                                            st.just("1"))}),
    st.fixed_dictionaries({"rational": st.sampled_from(
        ("1/2", "-78", "1/0", "1e99999", "x", True, 3))}),
    st.fixed_dictionaries({"bool": st.sampled_from((True, 1, "true"))}),
    st.fixed_dictionaries({"class": st.sampled_from((
        {"profile": "dp3-degree5", "expr": "3z - H"},
        {"profile": "no-such", "expr": "z"},
        {"profile": "cubic-surface", "expr": "(" * 101 + "z" + ")" * 101},
        {"profile": "cubic-surface"}, "z", None))}),
    st.fixed_dictionaries({"interval": st.sampled_from((
        {"min": "-100", "max": "1"}, {}, [], "abc", {"mx": "1"},
        {"min": True}))}))


@st.composite
def claims(draw):
    op = draw(st.sampled_from(sorted(OP_ARGS)))
    names = OP_ARGS[op] + draw(st.lists(st.sampled_from(("n", "extra")),
                                        max_size=1))
    args = {name: draw(ARG_VALUES) for name in names
            if draw(st.integers(0, 9))}  # sometimes an argument is missing
    return {"id": "", "description": "d", "anchor": "", "op": op,
            "args": args, "expected": draw(EXPECTED),
            "provenance": draw(st.sampled_from(PROVENANCE_TAGS))}


# Changes to one entry that the registry refuses as a whole.
BROKEN_ENTRY = st.sampled_from((
    {"args": {"n": True}}, {"args": {"n": 1.5}}, {"args": {"n": None}},
    {"args": {"n": ["1"]}}, {"args": {"n": {"a": 1}}}, {"args": []},
    {"expected": {}}, {"expected": {"float": 1}},
    {"expected": {"int": 1, "bool": True}}, {"expected": 1},
    {"provenance": "x"}, {"op": 1}, {"id": None}, {"id": "t.0"}))


@st.composite
def registries(draw):
    entries = draw(st.lists(claims(), max_size=4))
    for index, entry in enumerate(entries):
        entry["id"] = f"t.{index}"
    if entries and draw(st.booleans()):
        draw(st.sampled_from(entries)).update(draw(BROKEN_ENTRY))
    return json.dumps({"claims": entries}).encode()


# Registry documents, then JSON that is not a registry or not JSON at all.
DOCUMENTS = st.one_of(
    registries(),
    st.sampled_from((b"[]", b"1", b'"x"', b"null", b'{"claims": 3}',
                     b'{"claims": [1]}', b"{", b"[" * 100_000,
                     b"\xff\xfe", b"")))
VERIFY = st.tuples(
    DOCUMENTS,
    st.sampled_from(([], ["--filter=t."], ["--filter=zzz"])),
    st.sampled_from(("json", "markdown")))

ARGVS = st.one_of(EVAL, SCHUR, SURFACE, VERIFY,
                  st.just(["vmrt", "table"]),
                  st.sampled_from(("schur", "dp2.", "zzz")).map(
                      lambda prefix: ["verify", f"--filter={prefix}"]))


@pytest.fixture(scope="module")
def registry_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "registry.json"


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(ARGVS)
def test_cli_exits_cleanly_on_any_input(registry_path, argv):
    if isinstance(argv, tuple):  # a verify run over a written document
        document, flags, format = argv
        registry_path.write_bytes(document)
        argv = ["verify", f"--registry={registry_path}",
                f"--format={format}", *flags]
    status, err = _run(argv)
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
