"""Refutation engine for purported homogeneous one-point extensions.

A strategy claims to extend the generic limit by one virtual point ``t``
over a fixed base and type: queried with any existing point it must answer
with the order side and color between ``t`` and that point.  The refuter
runs the two-realizer procedure: it realizes the strategy's full type at a
fresh point, asks for the color q to that point, realizes a second point of
the same type at distance q from the first, and compares the strategy's
answers on the two.  Equal answers close a monochromatic triangle; unequal
answers break equivariance under the partial isomorphism swapping the two
realizers.  Either way a machine-checkable certificate comes out; answers
that contradict the strategy's own type constraints yield a strategy-fault
certificate instead.

The module also bundles the positive control: on pure linear orders (no
colors) the canonical cut strategy survives every sampled automorphism
approximation, as expected where pushouts exist.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import random
import shlex
import subprocess
from dataclasses import dataclass
from typing import Protocol

from .core import (ColorTerm, FinStruct, InputError, canonical_code,
                   format_struct, parse_struct, validate)
from .limit import Approximation, PartialIso, extend_partial_iso
from .types import OnePointType, format_type, parse_type, point_key

MONO = "MonochromaticTriangle"
EQUIV = "EquivarianceViolation"
FAULT = "StrategyInconsistent"

ABOVE = "above"  # the virtual point lies above the queried point
BELOW = "below"


@dataclass(frozen=True)
class StrategyAnswer:
    side: str
    color: ColorTerm | None
    self_claim: bool = False

    def tokens(self) -> tuple[str, str]:
        if self.self_claim:
            return ("self", "-")
        return (self.side, self.color.text())

    @staticmethod
    def from_tokens(side: str, color: str) -> "StrategyAnswer":
        if side == "self":
            return StrategyAnswer("", None, self_claim=True)
        if side not in (ABOVE, BELOW):
            raise InputError(f"bad answer side {side!r}")
        return StrategyAnswer(side, ColorTerm.parse(color))


@dataclass(frozen=True)
class QueryContext:
    """Everything a strategy may consult: the structure, the fixed base and
    type, the queried point, and a hash pinning the structure state."""

    current: FinStruct
    base_points: tuple[str, ...]
    tau: OnePointType
    point: str
    structure_hash: str


class ExtensionStrategy(Protocol):
    name: str

    def answer(self, ctx: QueryContext) -> StrategyAnswer: ...


def structure_hash(s: FinStruct) -> str:
    return hashlib.sha256(canonical_code(s).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Bundled strategies
# ---------------------------------------------------------------------------

class ConstantStrategy:
    """Same side and color for every point."""

    name = "constant"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        return StrategyAnswer(ABOVE, ColorTerm.base(0, 0))


class SupportEchoStrategy:
    """Echoes the type's color at its largest support point."""

    name = "support-echo"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        color = ctx.tau.colors[-1] if ctx.tau.colors else ColorTerm.base(0, 0)
        return StrategyAnswer(ABOVE, color)


class OrderSensitiveStrategy:
    """Answers depend on how many base points precede the queried point."""

    name = "order-sensitive"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        here = ctx.current.index(ctx.point)
        k = sum(1 for p in ctx.base_points if ctx.current.index(p) < here)
        return StrategyAnswer(ABOVE, ColorTerm.base(0, k % 2))


class IndexSensitiveStrategy:
    """Answers keyed to the digits in the queried point's name, so two
    realizers of one type get different colors."""

    name = "index-sensitive"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        digits = "".join(ch for ch in ctx.point if ch.isdigit())
        n = int(digits) if digits else 0
        return StrategyAnswer(ABOVE, ColorTerm.base(0, n % 3))


class SeededRandomStrategy:
    """Pseudo-random but replayable: answers are a fixed hash of the seed
    and the point name."""

    name = "randomized-with-fixed-seed"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        h = int.from_bytes(
            hashlib.sha256(f"{self.seed}:{ctx.point}".encode()).digest()[:4],
            "big")
        side = ABOVE if h & 1 else BELOW
        return StrategyAnswer(side, ColorTerm.base(0, (h >> 1) % 3))


class SubprocessStrategy:
    """External strategy speaking the line protocol on stdin/stdout.

    Each query goes out as ``query <point-id> <structure-hash>`` and the
    program must reply ``answer <above|below> <color-term>``, or
    ``answer self -`` to claim the virtual point coincides with the queried
    one (which is rejected as a strategy fault).
    """

    def __init__(self, argv: list[str]):
        if not argv:
            raise InputError("empty strategy command")
        self.name = f"prog:{argv[0]}"
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, bufsize=1)
        except OSError as exc:
            raise InputError(f"cannot start strategy {argv[0]!r}: {exc}") from exc

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.write(f"query {ctx.point} {ctx.structure_hash}\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            pass  # the program has exited; its stdout reads as empty
        line = self._proc.stdout.readline()
        tok = line.split()
        if len(tok) != 3 or tok[0] != "answer":
            raise InputError(f"bad strategy protocol line {line!r}")
        return StrategyAnswer.from_tokens(tok[1], tok[2])

    def close(self) -> None:
        """Close both pipes and reap the program, killing it after 10 s."""
        for pipe in (self._proc.stdin, self._proc.stdout):
            with contextlib.suppress(BrokenPipeError):
                pipe.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


BUNDLED_STRATEGIES = {
    s.name: s for s in (ConstantStrategy, SupportEchoStrategy,
                        OrderSensitiveStrategy, IndexSensitiveStrategy,
                        SeededRandomStrategy)
}


def make_strategy(name: str, seed: int = 0) -> ExtensionStrategy:
    if name.startswith("prog:"):
        try:
            argv = shlex.split(name[len("prog:"):])
        except ValueError as exc:
            raise InputError(f"bad strategy command: {exc}") from None
        return SubprocessStrategy(argv)
    try:
        cls = BUNDLED_STRATEGIES[name]
    except KeyError:
        raise InputError(f"unknown strategy {name!r}") from None
    return cls(seed) if cls is SeededRandomStrategy else cls()


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

QueryRecord = tuple[str, str, str, str]      # point, hash, side|self, color|-
ExtendRecord = tuple[str, str, str]          # fwd|bwd, point, image


@dataclass(frozen=True)
class RefutationCertificate:
    """Machine-checkable evidence against one strategy run.

    ``queries`` records every strategy answer in order; for the triangle and
    equivariance kinds, ``alpha`` is the partial isomorphism fixing the base
    pointwise and swapping the two realizers, extended along ``transcript``.
    """

    kind: str
    structure: FinStruct
    base_points: tuple[str, ...]
    tau_text: str
    queries: tuple[QueryRecord, ...]
    t1: str | None = None
    t2: str | None = None
    q: ColorTerm | None = None
    q2: ColorTerm | None = None
    side1: str | None = None
    side2: str | None = None
    alpha: PartialIso | None = None
    transcript: tuple[ExtendRecord, ...] = ()
    extension_depth: int = 0
    reason: str = ""


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class _StrategyFault(Exception):
    def __init__(self, code: str):
        self.code = code
        super().__init__(code)


class _Session:
    """One refutation run: owns the approximation, the query log, and the
    consistency bookkeeping for the virtual point."""

    def __init__(self, x: FinStruct, tau: OnePointType,
                 strategy: ExtensionStrategy):
        if tau.base != x:
            raise InputError("type must sit over the given base")
        self.x = x
        self.tau = tau
        self.strategy = strategy
        self.a = Approximation(seed=x)
        self.queries: list[QueryRecord] = []
        # virtual data of t against the base
        self.vcol: dict[str, ColorTerm] = dict(zip(tau.support, tau.colors))
        self.vbelow: set[str] = set(tau.support[: tau.cut])

    def ask(self, point: str) -> StrategyAnswer:
        h = structure_hash(self.a.current)
        ctx = QueryContext(self.a.current, self.x.points, self.tau, point, h)
        ans = self.strategy.answer(ctx)
        if not ans.self_claim and (ans.color is None
                                   or ans.side not in (ABOVE, BELOW)):
            raise InputError("strategy returned a malformed answer")
        side, color = ans.tokens()
        self.queries.append((point, h, side, color))
        if ans.self_claim:
            raise _StrategyFault("self-claim")
        if ans.color.level > self.x.level:
            raise _StrategyFault("level-bound")
        return ans

    def prequery_base(self) -> None:
        """Fix the virtual point's relation to every base point outside the
        type's support, checking the strategy stays inside the class."""
        for v in self.x.points:
            if v in self.vcol:
                continue
            ans = self.ask(v)
            self.vcol[v] = ans.color
            if ans.side == ABOVE:
                self.vbelow.add(v)
        below_positions = sorted(self.x.index(v) for v in self.vbelow)
        if below_positions != list(range(len(below_positions))):
            raise _StrategyFault("incoherent-order")
        for v, w in self.x.pairs():
            if self.vcol[v] == self.vcol[w] == self.x.color(v, w):
                raise _StrategyFault("virtual-triangle")

    def full_type(self) -> OnePointType:
        colors = tuple(self.vcol[v] for v in self.x.points)
        return OnePointType.build(self.x, self.x.points, len(self.vbelow),
                                  colors, self.x.level)


def refute(x: FinStruct, tau: OnePointType, strategy: ExtensionStrategy,
           depth: int) -> RefutationCertificate:
    """Run the two-realizer procedure against a strategy.

    Always returns a certificate: a monochromatic triangle when the strategy
    treats both realizers alike, an equivariance violation when it does not,
    and a strategy fault when its answers leave the class on their own.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    v = validate(x)
    if not v:
        raise InputError(f"invalid base structure: {v.reason}")
    session = _Session(x, tau, strategy)

    def fault(code: str) -> RefutationCertificate:
        return RefutationCertificate(
            kind=FAULT, structure=session.a.current, base_points=x.points,
            tau_text=format_type(tau), queries=tuple(session.queries),
            reason=code)

    try:
        session.prequery_base()
        full = session.full_type()
        t1 = session.a.realize(full)
        ans1 = session.ask(t1)
        q, side1 = ans1.color, ans1.side
        if any(c == q for c in session.vcol.values()):
            raise _StrategyFault("virtual-triangle")

        cur = session.a.current
        supp2 = cur.sorted_points(x.points + (t1,))
        colors2 = tuple(q if p == t1 else session.vcol[p] for p in supp2)
        cut2 = supp2.index(t1) + 1
        tau2 = OnePointType.build(cur, supp2, cut2, colors2, cur.level)
        t2 = session.a.realize(tau2)
        ans2 = session.ask(t2)
        q2, side2 = ans2.color, ans2.side
    except _StrategyFault as f:
        return fault(f.code)

    alpha = PartialIso(tuple((p, p) for p in x.points) + ((t1, t2),))
    assert alpha.check(session.a.current), "realizers are not interchangeable"
    transcript: list[ExtendRecord] = []
    cur_iso = alpha
    for k in range(depth):
        if k % 2 == 0:
            taken = set(cur_iso.domain())
            cands = [p for p in session.a.current.points if p not in taken]
            if not cands:
                break
            u = cands[0]
            _, cur_iso = extend_partial_iso(session.a, cur_iso, u)
            transcript.append(("fwd", u, cur_iso.fwd()[u]))
        else:
            taken = set(cur_iso.range())
            cands = [p for p in session.a.current.points if p not in taken]
            if not cands:
                break
            u = cands[0]
            _, inv = extend_partial_iso(session.a, cur_iso.inverse(), u)
            cur_iso = inv.inverse()
            transcript.append(("bwd", u, inv.fwd()[u]))

    kind = MONO if (q2 == q and side2 == side1) else EQUIV
    return RefutationCertificate(
        kind=kind, structure=session.a.current, base_points=x.points,
        tau_text=format_type(tau), queries=tuple(session.queries),
        t1=t1, t2=t2, q=q, q2=q2, side1=side1, side2=side2,
        alpha=cur_iso, transcript=tuple(transcript),
        extension_depth=len(transcript))


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------

def _replay_fault_analysis(x: FinStruct, tau: OnePointType,
                           queries: tuple[QueryRecord, ...]) -> str | None:
    """Re-run the consistency analysis on recorded answers; returns the first
    fault code, or None if the record is fault-free."""
    vcol = dict(zip(tau.support, tau.colors))
    vbelow = set(tau.support[: tau.cut])
    base_records = [r for r in queries if r[0] in x.pos and r[0] not in vcol]
    other_records = [r for r in queries if r[0] not in x.pos]

    def parse_answer(rec: QueryRecord) -> StrategyAnswer:
        return StrategyAnswer.from_tokens(rec[2], rec[3])

    for rec in base_records:
        ans = parse_answer(rec)
        if ans.self_claim:
            return "self-claim"
        if ans.color.level > x.level:
            return "level-bound"
        vcol[rec[0]] = ans.color
        if ans.side == ABOVE:
            vbelow.add(rec[0])
    if len(vcol) == len(x.points):
        below_positions = sorted(x.index(v) for v in vbelow)
        if below_positions != list(range(len(below_positions))):
            return "incoherent-order"
        for v, w in x.pairs():
            if vcol[v] == vcol[w] == x.color(v, w):
                return "virtual-triangle"
    for rec in other_records:
        ans = parse_answer(rec)
        if ans.self_claim:
            return "self-claim"
        if ans.color.level > x.level:
            return "level-bound"
    if other_records:
        first = parse_answer(other_records[0])
        if any(c == first.color for c in vcol.values()):
            return "virtual-triangle"
    return None


def check_certificate(cert: RefutationCertificate,
                      strategy: ExtensionStrategy) -> CheckResult:
    """Independently re-verify every field of a certificate.

    Checks structure validity, both realizers' types, the partial
    isomorphism (which must fix the base pointwise), the back-and-forth
    transcript, the recorded strategy answers (re-queried), and the verdict
    condition for the certificate's kind.
    """
    s = cert.structure
    try:
        v = validate(s)
    except InputError as exc:
        return CheckResult(False, f"malformed-structure: {exc}")
    if not v:
        return CheckResult(False, f"invalid-structure: {v.reason}")
    if any(p not in s for p in cert.base_points):
        return CheckResult(False, "base-not-in-structure")
    x = s.restrict(cert.base_points)
    if tuple(x.points) != tuple(cert.base_points):
        return CheckResult(False, "base-order-mismatch")
    try:
        tau = parse_type(cert.tau_text, x)
    except InputError as exc:
        return CheckResult(False, f"bad-type: {exc}")

    # replay every recorded answer against the strategy
    for point, h, side, color in cert.queries:
        if point not in s:
            return CheckResult(False, "query-point-missing")
        ctx = QueryContext(s, x.points, tau, point, h)
        got = strategy.answer(ctx).tokens()
        if got != (side, color):
            return CheckResult(False, f"answer-mismatch at {point}")

    if cert.kind == FAULT:
        found = _replay_fault_analysis(x, tau, cert.queries)
        if found is None:
            return CheckResult(False, "fault-not-reproduced")
        if found != cert.reason:
            return CheckResult(False, f"fault-mismatch: {found} != {cert.reason}")
        return CheckResult(True)

    if cert.kind not in (MONO, EQUIV):
        return CheckResult(False, f"unknown-kind {cert.kind!r}")
    if _replay_fault_analysis(x, tau, cert.queries) is not None:
        return CheckResult(False, "hidden-strategy-fault")
    if cert.t1 is None or cert.t2 is None or cert.q is None or cert.q2 is None:
        return CheckResult(False, "missing-fields")
    if cert.t1 not in s or cert.t2 not in s or cert.t1 == cert.t2:
        return CheckResult(False, "bad-realizers")
    if cert.t1 in x.pos or cert.t2 in x.pos:
        return CheckResult(False, "realizer-inside-base")

    # both realizers must carry the strategy's full type over the base
    recorded = {p: StrategyAnswer.from_tokens(side, color)
                for p, _, side, color in cert.queries}
    vcol = dict(zip(tau.support, tau.colors))
    vbelow = set(tau.support[: tau.cut])
    for p in cert.base_points:
        if p in vcol:
            continue
        if p not in recorded:
            return CheckResult(False, "unqueried-base-point")
        vcol[p] = recorded[p].color
        if recorded[p].side == ABOVE:
            vbelow.add(p)
    expected_key = (tuple(cert.base_points), len(vbelow),
                    tuple(vcol[p] for p in cert.base_points))
    for t in (cert.t1, cert.t2):
        if point_key(s, t, cert.base_points) != expected_key:
            return CheckResult(False, f"realizer-type-mismatch at {t}")
    if s.color(cert.t1, cert.t2) != cert.q:
        return CheckResult(False, "pair-color-mismatch")
    for t, rec_q, rec_side in ((cert.t1, cert.q, cert.side1),
                               (cert.t2, cert.q2, cert.side2)):
        if t not in recorded:
            return CheckResult(False, "unqueried-realizer")
        if recorded[t].color != rec_q or recorded[t].side != rec_side:
            return CheckResult(False, "recorded-answer-mismatch")

    # alpha must fix the base pointwise and swap the realizers
    if cert.alpha is None:
        return CheckResult(False, "missing-alpha")
    amap = cert.alpha.fwd()
    for p in cert.base_points:
        if amap.get(p) != p:
            return CheckResult(False, "alpha-moves-base")
    if amap.get(cert.t1) != cert.t2:
        return CheckResult(False, "alpha-misses-realizers")
    if not cert.alpha.check(s):
        return CheckResult(False, "alpha-not-iso")

    # transcript replay: proper back-and-forth from the seed map
    seed_pairs = tuple((p, p) for p in cert.base_points) + ((cert.t1, cert.t2),)
    iso = PartialIso(seed_pairs)
    if not iso.check(s):
        return CheckResult(False, "seed-iso-invalid")
    for direction, u, w in cert.transcript:
        if direction == "fwd":
            if u in iso.domain() or w in iso.range():
                return CheckResult(False, "transcript-collision")
            iso = iso.extended(u, w)
        elif direction == "bwd":
            if u in iso.range() or w in iso.domain():
                return CheckResult(False, "transcript-collision")
            iso = iso.extended(w, u)
        else:
            return CheckResult(False, "bad-transcript-direction")
        if not iso.check(s):
            return CheckResult(False, "transcript-step-invalid")
    if len(cert.transcript) != cert.extension_depth:
        return CheckResult(False, "depth-mismatch")
    if set(iso.pairs) != set(cert.alpha.pairs):
        return CheckResult(False, "alpha-transcript-divergence")

    if cert.kind == MONO:
        if cert.q2 != cert.q or cert.side1 != cert.side2:
            return CheckResult(False, "triangle-condition-fails")
    else:
        if cert.q2 == cert.q and cert.side1 == cert.side2:
            return CheckResult(False, "no-violation")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Certificate text form
# ---------------------------------------------------------------------------

def format_certificate(cert: RefutationCertificate) -> str:
    lines = ["certificate v1", f"kind {cert.kind}", "STRUCTURE"]
    lines.append(format_struct(cert.structure, "final").rstrip("\n"))
    lines.append("POINTS")
    lines.append(("x " + " ".join(cert.base_points)).rstrip())
    lines.append(f"type {cert.tau_text}")
    if cert.t1 is not None:
        lines.append(f"t1 {cert.t1}")
    if cert.t2 is not None:
        lines.append(f"t2 {cert.t2}")
    if cert.q is not None:
        lines.append(f"q {cert.q.text()}")
    if cert.q2 is not None:
        lines.append(f"qprime {cert.q2.text()}")
    if cert.side1 is not None:
        lines.append(f"side1 {cert.side1}")
    if cert.side2 is not None:
        lines.append(f"side2 {cert.side2}")
    lines.append(f"depth {cert.extension_depth}")
    lines.append("ALPHA")
    if cert.alpha is not None:
        lines.extend(f"pair {u} {v}" for u, v in cert.alpha.pairs)
    lines.append("TRANSCRIPT")
    lines.extend(f"query {p} {h} {side} {color}"
                 for p, h, side, color in cert.queries)
    lines.extend(f"extend {d} {u} {w}" for d, u, w in cert.transcript)
    lines.append("VERDICT")
    if cert.kind == FAULT:
        lines.append(f"{FAULT} reason={cert.reason}")
    elif cert.kind == MONO:
        lines.append(f"{MONO} q={cert.q.text()}")
    else:
        lines.append(f"{EQUIV} q={cert.q.text()} qprime={cert.q2.text()}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> RefutationCertificate:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "certificate v1":
        raise InputError("missing certificate header")
    if len(lines) < 2 or not lines[1].startswith("kind ") or len(lines[1].split()) < 2:
        raise InputError("missing certificate kind")
    kind = lines[1].split()[1]
    sections: dict[str, list[str]] = {}
    current = None
    for raw in lines[2:]:
        line = raw.rstrip("\n")
        if line.strip() in ("STRUCTURE", "POINTS", "ALPHA", "TRANSCRIPT", "VERDICT"):
            current = line.strip()
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
        elif line.strip():
            raise InputError(f"stray line outside sections: {line!r}")
    for needed in ("STRUCTURE", "POINTS", "ALPHA", "TRANSCRIPT", "VERDICT"):
        if needed not in sections:
            raise InputError(f"missing section {needed}")

    _, structure = parse_struct("\n".join(sections["STRUCTURE"]))
    fields: dict[str, str] = {}
    base_points: tuple[str, ...] = ()
    tau_text = ""
    for line in sections["POINTS"]:
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "x":
            base_points = tuple(tok[1:])
        elif tok[0] == "type" and len(tok) > 1:
            tau_text = line.split(None, 1)[1]
        elif tok[0] != "type" and len(tok) == 2:
            fields[tok[0]] = tok[1]
        else:
            raise InputError(f"bad points line {line!r}")
    alpha_pairs = []
    for line in sections["ALPHA"]:
        tok = line.split()
        if not tok:
            continue
        if tok[0] != "pair" or len(tok) != 3:
            raise InputError(f"bad alpha line {line!r}")
        alpha_pairs.append((tok[1], tok[2]))
    queries: list[QueryRecord] = []
    transcript: list[ExtendRecord] = []
    for line in sections["TRANSCRIPT"]:
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "query" and len(tok) == 5:
            queries.append((tok[1], tok[2], tok[3], tok[4]))
        elif tok[0] == "extend" and len(tok) == 4:
            transcript.append((tok[1], tok[2], tok[3]))
        else:
            raise InputError(f"bad transcript line {line!r}")
    verdict_lines = [l for l in sections["VERDICT"] if l.strip()]
    if not verdict_lines:
        raise InputError("empty verdict")
    vtok = verdict_lines[0].split()
    if vtok[0] != kind:
        raise InputError("verdict does not match kind")
    reason = ""
    for t in vtok[1:]:
        if t.startswith("reason="):
            reason = t[len("reason="):]

    def color_field(key: str) -> ColorTerm | None:
        return ColorTerm.parse(fields[key]) if key in fields else None

    try:
        depth = int(fields.get("depth", "0"))
    except ValueError:
        raise InputError(f"bad depth {fields['depth']!r}") from None

    return RefutationCertificate(
        kind=kind, structure=structure, base_points=base_points,
        tau_text=tau_text, queries=tuple(queries),
        t1=fields.get("t1"), t2=fields.get("t2"),
        q=color_field("q"), q2=color_field("qprime"),
        side1=fields.get("side1"), side2=fields.get("side2"),
        alpha=PartialIso(tuple(alpha_pairs)) if alpha_pairs else None,
        transcript=tuple(transcript),
        extension_depth=depth, reason=reason)


# ---------------------------------------------------------------------------
# Positive control: pure linear orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlReport:
    """Outcome of exercising the cut strategy on a pure linear order: the
    number of invariance checks performed across sampled base-fixing partial
    isomorphisms, and how many failed (none, where pushouts exist)."""

    order: tuple[str, ...]
    cut: int
    depth: int
    samples: int
    checks: int
    violations: int
    grown: int


def control_lo(order: tuple[str, ...] | list[str], cut: int, depth: int,
               samples: int, seed: int = 1729) -> ControlReport:
    """Exercise the canonical one-point extension of a pure linear order.

    The virtual point sits directly below the upper part of the cut; sampled
    back-and-forth partial isomorphisms fixing the order pointwise must
    leave every answer unchanged.
    """
    fixed = tuple(order)
    if len(set(fixed)) != len(fixed):
        raise InputError("duplicate points in the order")
    if not 0 <= cut <= len(fixed):
        raise InputError(f"cut {cut} out of range")
    if depth < 0 or samples < 0:
        raise InputError("depth and samples must be nonnegative")

    points = list(fixed)
    counter = itertools.count()

    def grow_at(pos: int) -> str:
        p = f"g{next(counter)}"
        while p in points:
            p = f"g{next(counter)}"
        points.insert(pos, p)
        return p

    def below_t(p: str) -> bool:
        # p < t iff p is below every upper-cut element of the fixed order
        if cut == len(fixed):
            return True
        return points.index(p) < points.index(fixed[cut])

    rng = random.Random(seed)
    checks = violations = 0
    for _ in range(samples):
        pairs: dict[str, str] = {p: p for p in fixed}
        for step in range(depth):
            forward = step % 2 == 0
            m = pairs if forward else {v: u for u, v in pairs.items()}
            free = [p for p in points if p not in m]
            if not free:
                free = [grow_at(len(points))]
            u = rng.choice(free)
            dom_sorted = sorted(m, key=points.index)
            lo = max((points.index(m[d]) for d in dom_sorted
                      if points.index(d) < points.index(u)), default=-1)
            hi = min((points.index(m[d]) for d in dom_sorted
                      if points.index(d) > points.index(u)),
                     default=len(points))
            taken = set(m.values())
            cands = [p for p in points[lo + 1: hi] if p not in taken]
            if not cands:
                cands = [grow_at(hi)]
            w = rng.choice(cands)
            if forward:
                pairs[u] = w
            else:
                pairs[w] = u
        for du, dv in pairs.items():
            checks += 1
            if below_t(du) != below_t(dv):
                violations += 1
    return ControlReport(fixed, cut, depth, samples, checks, violations,
                         next(counter))


def format_control_report(r: ControlReport) -> str:
    lines = ["control-lo report",
             ("order " + " ".join(r.order)).rstrip(),
             f"cut {r.cut}",
             f"depth {r.depth}",
             f"samples {r.samples}",
             f"checks {r.checks}",
             f"grown {r.grown}",
             f"violations {r.violations}"]
    return "\n".join(lines) + "\n"
