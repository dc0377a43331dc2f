"""Seeded inputs, operations and output checks of the benchmark workloads.

Nothing here imports tautclass at module level: the worker times that
import itself.  Library functions are always looked up through their
module at call time, so a traced run sees the tracer's wrappers and an
untraced run sees the originals.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("verify_cold", "mnef_scaling", "eval_mix")

# cubic_mnef_number(n) over this range costs from ~10 ms to ~0.2 s per op.
MNEF_NS = tuple(range(16, 73))

FIXED_LABELS = (
    "cubic-surface", "k3-quartic",
    "dp3-degree1", "dp3-degree2", "dp3-degree3", "dp3-degree4", "dp3-degree5",
    "dp-surface-1", "dp-surface-2", "dp-surface-3", "dp-surface-4",
    "dp-surface-5", "dp-surface-6", "dp-surface-7",
)
EVAL_LABELS = FIXED_LABELS + tuple(
    f"hypersurface-n{n}-d{d}" for n in range(3, 7) for d in range(2, 5))

EXPECTED_CLAIMS = 104
KNOWN_FAILURE = ("dp3.cert.deg2.divisor", "-17/2")

# Intersection numbers that pin the sign convention of the reference route.
ANCHORS = (("cubic-surface", "z", 3, Fraction(-6)),
           ("dp3-degree1", "z", 5, Fraction(-78)))

CHILD_TIMEOUT_S = 60
# A fixed hash seed keeps set iteration, and so the work counts of traced
# runs, identical from one process to the next.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def label_shape(label: str) -> tuple[int, tuple[str, ...]]:
    """Dimension and divisor basis that a profile label stands for."""
    if label == "cubic-surface":
        return 2, ("H", "F")
    if label == "k3-quartic":
        return 2, ("H",)
    if label.startswith("dp3-degree"):
        return 3, ("H",)
    if label.startswith("dp-surface-"):
        r = 9 - int(label.rsplit("-", 1)[1])
        return 2, ("H",) + tuple(f"E{i}" for i in range(1, r + 1))
    if label.startswith("hypersurface-n"):
        return int(label.split("-")[1][1:]), ("H",)
    raise ValueError(f"no shape for label {label!r}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _cycles(seed, name: str, items):
    """Endless seeded shuffles of ``items``: every item once per cycle."""
    rng = random.Random(f"{name}:{seed}")
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def mnef_inputs(seed):
    """Seeded sequence of n; each run of len(MNEF_NS) ops covers every n."""
    return _cycles(seed, "mnef", MNEF_NS)


@dataclass(frozen=True)
class EvalInput:
    """A product of rational linear forms over one profile label."""

    label: str
    degree: int
    top: int
    factors: tuple[tuple[tuple[tuple[str, Fraction], ...], int], ...]
    text: str


def _form_text(form) -> str:
    text = ""
    for symbol, coeff in form:
        term = f"{abs(coeff)}*{symbol}"
        if not text:
            text = term if coeff > 0 else f"-{term}"
        else:
            text += f" {'+' if coeff > 0 else '-'} {term}"
    return f"({text})"


def _linear_form(rng: random.Random, basis: tuple[str, ...]):
    form = []
    for symbol in ("z",) + basis:
        if rng.random() < 0.75:
            form.append((symbol,
                         Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                                  rng.randint(1, 3))))
    if rng.random() < 0.2:
        form.append(("K", Fraction(rng.choice((-2, -1, 1, 2)),
                                   rng.randint(1, 2))))
    if not form:
        form.append(("z", Fraction(1)))
    return tuple(form)


def eval_inputs(seed):
    """Endless seeded eval inputs; each label once per len(EVAL_LABELS) ops.

    About one input in five is below top degree.  Some factors are grouped
    as ``(L)^m``; no exponent exceeds the top degree 2n-1 of the label, and
    no expression text repeats.
    """
    rng = random.Random(f"eval:{seed}")
    seen: set[tuple[str, str]] = set()
    for label in _cycles(seed, "eval-labels", EVAL_LABELS):
        dim, basis = label_shape(label)
        top = 2 * dim - 1
        while True:
            degree = top if rng.random() >= 0.2 else rng.randint(1, top - 1)
            factors = []
            left = degree
            while left:
                exponent = 1
                if left >= 2 and rng.random() < 0.3:
                    exponent = rng.randint(2, min(3, left))
                factors.append((_linear_form(rng, basis), exponent))
                left -= exponent
            text = "*".join(_form_text(form) if exponent == 1
                            else f"{_form_text(form)}^{exponent}"
                            for form, exponent in factors)
            if (label, text) not in seen:
                seen.add((label, text))
                break
        yield EvalInput(label, degree, top, tuple(factors), text)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def mnef_op(n: int):
    """One ``cubic_mnef_number(n)``."""
    from tautclass import hypersurfaces
    return hypersurfaces.cubic_mnef_number(n)


def eval_op(item: EvalInput):
    """The calls ``tautclass eval`` makes, in its order.

    Returns the profile, the parsed class, its printed form and the value
    text (None below top degree, where only the class is printed).
    """
    from tautclass import chow, exprparse, profiles
    profile = profiles.get_profile(item.label)
    cls = exprparse.parse_expr(profile, item.text)
    printed = exprparse.format_class(profile, cls)
    degree = cls.homogeneous_degree()
    value = None
    if degree is None or degree == 2 * profile.dim - 1:
        value = chow.fraction_str(chow.eval_top(profile, cls))
    return profile, cls, printed, value


def eval_checked_value(item: EvalInput, result) -> Fraction:
    """Value to compare with the reference, computed outside timing.

    Below top degree the class is multiplied by z^(top - degree) first, so
    every op is checked through an intersection number, not class text.
    """
    from tautclass import chow, exprparse
    profile, cls, _, value = result
    if value is not None:
        return Fraction(value)
    zeta_power = exprparse.parse_expr(profile, f"z^{item.top - item.degree}")
    return chow.eval_top(profile, cls * zeta_power)


def eval_roundtrip_ok(result) -> bool:
    """``parse_expr(format_class(c)) == c``."""
    from tautclass import exprparse
    profile, cls, printed, _ = result
    return exprparse.parse_expr(profile, printed) == cls


def check_mnef(n: int, value) -> str | None:
    from tautclass import hypersurfaces
    expected = hypersurfaces.cubic_mnef_closed_form(n)
    if value != expected:
        return f"cubic_mnef_number({n}) = {value}, closed form {expected}"
    return None


def run_verify_child(trace: bool, spans_path: Path | None = None) -> dict:
    """One ``tautclass verify --format json`` in a fresh interpreter.

    The child times itself from just before ``import tautclass`` until the
    report is flushed, and reports that (and, traced, its counters) as the
    last line of its standard error.
    """
    cmd = [sys.executable, str(HERE / "verify_child.py"), str(SRC),
           "1" if trace else "0", str(spans_path or "")]
    proc = subprocess.run(cmd, capture_output=True, env=CHILD_ENV,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stderr.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise RuntimeError(f"verify child exited {proc.returncode} silently")
    try:
        meta = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"verify child failed: {lines[-1]}") from None
    meta["stdout"] = proc.stdout
    meta["returncode"] = proc.returncode
    return meta


def check_verify_report(meta: dict, first: bytes | None) -> str | None:
    """103 of 104 claims pass; the known failure computes -17/2; same bytes."""
    data = meta["stdout"]
    if meta["returncode"] != 1:
        return f"verify exited {meta['returncode']}, expected 1"
    if first is not None and data != first:
        return "report bytes differ between samples"
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    claims = doc.get("claims", [])
    failed = [(c["id"], c["computed"]) for c in claims if c["status"] != "pass"]
    if len(claims) != EXPECTED_CLAIMS or failed != [KNOWN_FAILURE]:
        return f"{len(claims)} claims, non-passing {failed}"
    summary = doc.get("summary", {})
    if summary.get("pass") != EXPECTED_CLAIMS - 1 or summary.get("fail") != 1:
        return f"summary {summary}"
    return None


# ---------------------------------------------------------------------------
# Reference values for eval_mix (sympy, independent of chow's arithmetic)
# ---------------------------------------------------------------------------

class Reference:
    """Intersection numbers on P(T_X) computed with sympy's sparse rings.

    Only the profile's data (top form, Chern classes, canonical class) is
    read from tautclass, through its JSON form.  Products are expanded in sympy, dropping base
    monomials of degree > n, which vanish on X; each z^(n-1+j) m then
    pushes forward to s_j(Omega_X) m with s(Omega_X) = 1 / c(Omega_X).
    """

    def __init__(self, doc: dict) -> None:
        from sympy import QQ
        from sympy.polys.rings import ring
        self.QQ = QQ
        self.dim = doc["dim"]
        self.ring, *gens = ring(["z", *doc["basis"]], QQ)
        self.symbols = dict(zip(["z", *doc["basis"]], gens))
        if "canonical" in doc:
            self.symbols["K"] = self._poly(doc["canonical"])
        self.top = {tuple(t["exponents"]): self._q(t["value"])
                    for t in doc["top_form"]}
        c_omega = [self.ring.one] + [
            self._poly(c) * (-1) ** j
            for j, c in enumerate(doc["chern"], start=1)]
        segre = [self.ring.one]
        for j in range(1, self.dim + 1):
            segre.append(-sum((c_omega[i] * segre[j - i]
                               for i in range(1, j + 1)), self.ring.zero))
        self.segre = segre

    def _q(self, value):
        value = Fraction(value)
        return self.QQ(value.numerator, value.denominator)

    def _poly(self, terms):
        poly = self.ring.zero
        for term in terms:
            poly += self.ring({(0, *term["exponents"]): self._q(term["value"])})
        return poly

    def _truncate(self, poly):
        return self.ring({m: c for m, c in poly.items()
                          if sum(m[1:]) <= self.dim})

    def value(self, factors, extra_z: int = 0) -> Fraction:
        product = self.symbols["z"] ** extra_z
        for form, exponent in factors:
            linear = sum((self.symbols[s] * self._q(c) for s, c in form),
                         self.ring.zero)
            for _ in range(exponent):
                product = self._truncate(product * linear)
        total = self.QQ(0)
        for monomial, coeff in product.items():
            j = monomial[0] - (self.dim - 1)
            if j < 0:
                continue
            base = self.ring({(0, *monomial[1:]): coeff})
            for exps, c in (self.segre[j] * base).items():
                total += c * self.top.get(tuple(exps[1:]), self.QQ(0))
        return Fraction(int(total.numerator), int(total.denominator))


def check_anchors(references: dict) -> None:
    """The reference route must reproduce the pinned anchor values."""
    for label, symbol, power, expected in ANCHORS:
        got = references[label].value(((((symbol, Fraction(1)),), power),))
        if got != expected:
            raise AssertionError(
                f"reference {symbol}^{power} on {label} = {got}, "
                f"anchor {expected}")
