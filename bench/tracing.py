"""Span tracing for the traced run, installed from outside the package.

``Tracer.install`` replaces each public function named in ``SPANS`` with a
wrapper that records a span: name, start, end and the enclosing span.
Modules import each other's functions by name (``from .core import
validate``), so every ``colorder.*`` module binding of a wrapped function
is replaced, not only the defining one.  Spans stay in memory and are
written once, at exit; a span's self time is its duration minus the
durations of its direct children.

Per-pair methods such as ``FinStruct.color`` (millions of calls in one
``grow``) are deliberately not wrapped: the wrapper would cost more than
the work and drown every other number.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# span name -> (module, attribute path inside the module)
SPANS = {
    "core.validate": ("colorder.core", "validate"),
    "core.parse_struct": ("colorder.core", "parse_struct"),
    "core.format_struct": ("colorder.core", "format_struct"),
    "core.canonical_code": ("colorder.core", "canonical_code"),
    "core.restrict": ("colorder.core", "FinStruct.restrict"),
    "core.is_embedding": ("colorder.core", "is_embedding"),
    "types.enumerate_types": ("colorder.types", "enumerate_types"),
    "types.type_build": ("colorder.types", "OnePointType.build"),
    "types.realize_type": ("colorder.types", "realize_type"),
    "types.type_of_point": ("colorder.types", "type_of_point"),
    "katetov.apply_K": ("colorder.katetov", "apply_K"),
    "katetov.compare_types": ("colorder.katetov", "compare_types"),
    "katetov.pair_color": ("colorder.katetov", "pair_color"),
    "katetov.format_extended": ("colorder.katetov", "format_extended"),
    "limit.grow": ("colorder.limit", "grow"),
    "limit.realizer_of": ("colorder.limit", "Approximation.realizer_of"),
    "limit.realize": ("colorder.limit", "Approximation.realize"),
    "limit.extend_partial_iso": ("colorder.limit", "extend_partial_iso"),
    "limit.embed": ("colorder.limit", "embed"),
    "refuter.refute": ("colorder.refuter", "refute"),
    "refuter.strategy_answer": ("colorder.refuter", "*.answer"),
    "refuter.structure_hash": ("colorder.refuter", "structure_hash"),
    "refuter.check_certificate": ("colorder.refuter", "check_certificate"),
    "refuter.format_certificate": ("colorder.refuter", "format_certificate"),
    "refuter.parse_certificate": ("colorder.refuter", "parse_certificate"),
    "cli.run": ("colorder.cli", "run"),
}

CERT_KINDS = ("MonochromaticTriangle", "EquivarianceViolation", "StrategyInconsistent")
# work counts read from public state around the wrapped calls
COUNTS = ("types.enumerate_types.types_out", "katetov.pair_color.payload_bytes",
          "limit.grow.steps", "limit.grow.ledger_hits", "limit.grow.existing_hits",
          "limit.grow.realized", "limit.extend_partial_iso.forced_growth",
          *(f"refuter.certs.{k}" for k in CERT_KINDS))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = list(SPANS)
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter({k: 0 for k in COUNTS})
        self.prog_answer_s: list[float] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``before(*args)`` runs untimed ahead of the call and its result
        goes to ``after(ctx, result, *args)``, which reads public state."""
        ix = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name_of)
            self.name_of.append(ix)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            ctx = before(*args, **kwargs) if before else None
            self.stack.append(i)
            self.start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if after:
                after(ctx, result, *args, **kwargs)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name, _ in SPANS.values()}
        refuter = modules["colorder.refuter"]

        c = self.counts
        sub_answer = refuter.SubprocessStrategy.answer

        def timed_prog_answer(strategy, ctx):
            t = time.perf_counter()
            try:
                return sub_answer(strategy, ctx)
            finally:
                self.prog_answer_s.append(time.perf_counter() - t)

        refuter.SubprocessStrategy.answer = timed_prog_answer

        def types_out(_, result, *a, **k):
            c["types.enumerate_types.types_out"] += len(result)

        def payload(_, result, *a, **k):
            c["katetov.pair_color.payload_bytes"] += len(result.code)

        def grow_before(a, steps):
            return len(a.current.points), len(a.ledger)

        def grow_after(ctx, a, _, steps):
            realized = len(a.current.points) - ctx[0]
            recorded = len(a.ledger) - ctx[1]
            c["limit.grow.steps"] += steps
            c["limit.grow.realized"] += realized
            c["limit.grow.existing_hits"] += recorded - realized
            c["limit.grow.ledger_hits"] += steps - recorded

        def iso_before(a, p, u):
            return len(a.current.points)

        def iso_after(before_n, result, a, p, u):
            c["limit.extend_partial_iso.forced_growth"] += len(a.current.points) > before_n

        def cert_kind(_, cert, *a, **k):
            c[f"refuter.certs.{cert.kind}"] += 1

        hooks = {"types.enumerate_types": (None, types_out),
                 "katetov.pair_color": (None, payload),
                 "limit.grow": (grow_before, grow_after),
                 "limit.extend_partial_iso": (iso_before, iso_after),
                 "refuter.refute": (None, cert_kind)}

        for name, (modname, path) in SPANS.items():
            before, after = hooks.get(name, (None, None))
            if path == "*.answer":
                for cls in (*refuter.BUNDLED_STRATEGIES.values(), refuter.SubprocessStrategy):
                    self._wrap_method(name, cls, "answer")
                continue
            owner, _, attr = path.rpartition(".")
            if owner:
                self._wrap_method(name, getattr(modules[modname], owner), attr,
                                  before, after)
                continue
            orig = getattr(modules[modname], attr)
            traced = self.wrap(name, orig, before, after)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "colorder":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def _wrap_method(self, name, cls, attr, before=None, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, before, after)))
        else:
            setattr(cls, attr, self.wrap(name, raw, before, after))

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name, plus the work counts."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter({k: 0 for k in self.names})
        self_s = {k: 0.0 for k in self.names}
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return {"calls": dict(calls), "self_s": self_s, "counts": dict(self.counts),
                "prog_answer_s": self.prog_answer_s}

    def write_spans(self, path: Path) -> None:
        """All spans as tab-separated lines: index, name, parent, start, end."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart\tend\n")
            for i in range(len(self.name_of)):
                fh.write(f"{i}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
