"""Per-layer tracing of tautclass from outside the library.

The tracer replaces the public functions of each layer module, and the
``PTClass``/``BasePoly`` ``__mul__``/``__pow__`` and ``BaseProfile.evaluate``
methods, with wrappers that record a span per call.  Every module-level
binding of a traced function is replaced (``claims.eval_top`` and
``chow.eval_top`` are two bindings of one function), so calls inside the
library are seen as well as calls from the benchmark.  ``uninstall`` puts
every original back.

A span's self time is its duration minus the time its child spans cover;
the tracer's own bookkeeping after a call returns is charged to neither.
Spans and counters stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns

LAYERS = ("chow", "exprparse", "profiles", "hypersurfaces", "surfaces",
          "threefolds", "schur", "claims", "cli")

# Per-term coercion helper called from every class constructor: wrapping it
# would multiply the tracing overhead without marking a layer boundary.
UNTRACED = frozenset({"chow.as_fraction"})

_METHODS = (("PTClass", "__mul__", "chow.ptclass_mul"),
            ("PTClass", "__pow__", "chow.ptclass_pow"),
            ("BasePoly", "__mul__", "chow.basepoly_mul"),
            ("BasePoly", "__pow__", "chow.basepoly_pow"),
            ("BaseProfile", "evaluate", "chow.evaluate"))

_MARK = "__perfbench_wrapper__"


def _layer_modules():
    return [importlib.import_module(f"tautclass.{layer}") for layer in LAYERS]


def _tautclass_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "tautclass" or name.startswith("tautclass."))]


def installed_wrappers() -> int:
    """Number of tracer wrappers currently bound anywhere in tautclass."""
    chow = importlib.import_module("tautclass.chow")
    count = sum(1 for module in _tautclass_modules()
                for value in vars(module).values()
                if getattr(value, _MARK, False))
    for cls_name, method, _ in _METHODS:
        cls = getattr(chow, cls_name, None)
        if cls is not None and getattr(vars(cls).get(method), _MARK, False):
            count += 1
    return count


class Tracer:
    """Spans and work counters for one traced run."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._dims: dict[str, int] = {}
        self._seen: dict[str, set] = {}
        self._bindings: list[tuple] = []
        chow = importlib.import_module("tautclass.chow")
        # Empty tuples when a class is gone: isinstance is then always False.
        self._ptclass = getattr(chow, "PTClass", ())
        self._basepoly = getattr(chow, "BasePoly", ())
        self._profile_type = getattr(chow, "BaseProfile", ())
        self._counts = {
            "chow.ptclass_mul": self._count_ptclass_mul,
            "chow.ptclass_pow": self._count_peak,
            "chow.basepoly_mul": self._count_basepoly_mul,
            "chow.eval_top": self._count_eval_top,
            "profiles.get_profile": self._count_repeat_arg0,
            "surfaces.minus_one_curves": self._count_enum,
            "surfaces.conic_classes": self._count_enum,
            "exprparse.parse_expr": self._count_parse,
        }
        self._plan(chow)

    # -- installation -----------------------------------------------------

    def _plan(self, chow) -> None:
        targets: dict[int, tuple[str, object]] = {}
        for module in _layer_modules():
            layer = module.__name__.split(".")[-1]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                targets[id(value)] = (name, value)
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in targets.items()}
        for module in _tautclass_modules():
            for attr, value in vars(module).items():
                if id(value) in targets and targets[id(value)][1] is value:
                    self._bindings.append((module, attr, value,
                                           wrappers[id(value)]))
        for cls_name, method, name in _METHODS:
            cls = getattr(chow, cls_name, None)
            if cls is not None and method in vars(cls):
                fn = vars(cls)[method]
                self._bindings.append((cls, method, fn, self._wrap(name, fn)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        call = self._call
        layer = name.split(".")[0]
        count = self._counts.get(name)

        def wrapper(*args, **kwargs):
            return call(name, layer, count, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- recording --------------------------------------------------------

    def _add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _call(self, name, layer, count, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [0, layer, span_id]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = perf_counter_ns()
            stack.pop()
            self._finish(name, parent, frame, span_id, start, end, True)
            if parent is None or parent[1] != layer:
                self._add(f"{layer}.errors", 1)
            if parent is not None:
                parent[0] += perf_counter_ns() - start
            raise
        end = perf_counter_ns()
        stack.pop()
        if count is not None:
            try:
                count(name, args, result)
            except (AttributeError, TypeError, ValueError):
                # A representation the counter does not know: count the
                # miss rather than fail the op.
                self._add("trace.count_misses", 1)
        if isinstance(result, self._profile_type):
            self._dims[result.label] = result.dim
        self._finish(name, parent, frame, span_id, start, end, False)
        if parent is not None:
            parent[0] += perf_counter_ns() - start
        return result

    def _finish(self, name, parent, frame, span_id, start, end, error):
        self._add(f"{name}.calls", 1)
        self._add(f"{name}.self_ns", end - start - frame[0])
        self.spans.append((span_id, parent[2] if parent else 0, self.op,
                           name, start, end, error))

    def _count_peak(self, name, args, result) -> None:
        key = "chow.peak_terms"
        self.counters[key] = max(self.counters.get(key, 0), len(result.terms))

    def _count_ptclass_mul(self, name, args, result) -> None:
        self._count_peak(name, args, result)
        other = args[1]
        if not isinstance(other, self._ptclass):
            return
        self._add(f"{name}.term_pairs", len(args[0].terms) * len(other.terms))
        dim = self._dims.get(result.profile_label)
        if dim is None:
            return
        # Terms on the basis zeta^i . m (i < n, deg m <= n) of A(P(T_X)).
        useful = sum(1 for (zp, exps), _ in result.terms
                     if zp < dim and sum(exps) <= dim)
        self._add(f"{name}.result_terms", len(result.terms))
        self._add(f"{name}.useful_terms", useful)

    def _count_basepoly_mul(self, name, args, result) -> None:
        other = args[1]
        if isinstance(other, self._basepoly):
            self._add(f"{name}.term_pairs",
                      len(args[0].terms) * len(other.terms))

    def _count_eval_top(self, name, args, result) -> None:
        self._add(f"{name}.monomials", len(args[1].terms))

    def _repeat(self, name, key) -> None:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self._add(f"{name}.repeats", 1)
        seen.add(key)

    def _count_repeat_arg0(self, name, args, result) -> None:
        self._repeat(name, args[0])

    def _count_enum(self, name, args, result) -> None:
        self._add("surfaces.enum.calls", 1)
        self._repeat("surfaces.enum", (name, args[0]))

    def _count_parse(self, name, args, result) -> None:
        self._repeat(name, (args[0].label, args[1]))

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: id, parent, op, name, ns."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, op, name, start, end, error in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent,
                                      "op": op, "name": name,
                                      "start_ns": start, "end_ns": end,
                                      "error": error}) + "\n")
