"""Refutation engine for purported homogeneous one-point extensions.

A strategy claims to extend the generic limit by one virtual point ``t``
over a fixed base and type: queried with any existing point it must answer
with the order side and color between ``t`` and that point.  The refuter
runs the two-realizer procedure: it realizes the strategy's full type at a
fresh point, asks for the color q to that point, realizes a second point of
the same type at distance q from the first, and compares the strategy's
answers on the two.  Equal answers close a monochromatic triangle; unequal
answers break equivariance under the partial isomorphism swapping the two
realizers.  Either way a machine-checkable certificate comes out.  Some
answers that contradict the type yield a strategy-fault certificate
instead: the faults are those ``_fault_analysis`` states, and a triangle
of the strategy's own claims through ``t2`` is not among them, so such a
run still ends in one of the two kinds above.  :func:`refute` and
:func:`check_certificate` find a fault with that one analysis, so they
agree on it.
The checker states each rule once: it checks the partial isomorphism once
and reads the transcript as a spelling of its pairs.  The certificate text
is spelled once, by ``_frame``: the writer fills it in, and the reader
holds the text it read to it.

The module also bundles the positive control: on pure linear orders (no
colors) the canonical cut strategy survives every sampled automorphism
approximation, as expected where pushouts exist.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import random
import select
import shlex
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Iterable, Protocol

from .core import (ColorTerm, FinStruct, InputError, Palette, canonical_code,
                   format_struct, parse_struct_lines, validate)
from .limit import (Approximation, PartialIso, format_pairs, parse_pair_lines,
                    realize_image)
from .types import OnePointType, check_realizable, format_type, parse_type, point_key

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

class Strategy(contextlib.AbstractContextManager):
    """Base of every strategy ``make_strategy`` returns, so each one can be
    used in ``with``; it holds nothing to release on leaving the block."""

    def __exit__(self, *exc_info) -> None:
        pass


class ConstantStrategy(Strategy):
    """Same side and color for every point."""

    name = "constant"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        return StrategyAnswer(ABOVE, ColorTerm.base(0, 0))


class SupportEchoStrategy(Strategy):
    """Echoes the type's color at its largest support point."""

    name = "support-echo"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        color = ctx.tau.colors[-1] if ctx.tau.colors else ColorTerm.base(0, 0)
        return StrategyAnswer(ABOVE, color)


class OrderSensitiveStrategy(Strategy):
    """Answers depend on how many base points precede the queried point."""

    name = "order-sensitive"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        here = ctx.current.index(ctx.point)
        k = sum(1 for p in ctx.base_points if ctx.current.index(p) < here)
        return StrategyAnswer(ABOVE, ColorTerm.base(0, k % 2))


class IndexSensitiveStrategy(Strategy):
    """Answers keyed to the digits in the queried point's name, so two
    realizers of one type get different colors."""

    name = "index-sensitive"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        digits = "".join(ch for ch in ctx.point if ch.isdigit())
        n = int(digits) if digits else 0
        return StrategyAnswer(ABOVE, ColorTerm.base(0, n % 3))


class SeededRandomStrategy(Strategy):
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


ANSWER_DEADLINE_S = 10.0  # how long a prog: strategy may take over one reply
MAX_REPLY_BYTES = 1 << 20  # how long one reply line of a prog: strategy may be


class SubprocessStrategy(Strategy):
    """External strategy speaking the line protocol on stdin/stdout.

    Each query goes out as ``query <point-id> <structure-hash>`` and the
    program must reply ``answer <above|below> <color-term>``, or
    ``answer self -`` to claim the virtual point coincides with the queried
    one (which is rejected as a strategy fault).  Bytes that are not UTF-8
    read as U+FFFD, so such a reply is a malformed line, not a crash.  A
    reply that takes longer than ``ANSWER_DEADLINE_S``, or runs past
    ``MAX_REPLY_BYTES`` without a newline, raises InputError, so a stalled
    strategy ends the run with exit 1 and no certificate.  There is no
    ``timeout`` fault certificate: checking one would mean waiting out the
    same deadline.  The program runs in a session of its own, so leaving
    the ``with`` block can end everything it started.
    """

    def __init__(self, argv: list[str]):
        if not argv:
            raise InputError("empty strategy command")
        self.name = f"prog:{argv[0]}"
        self._pending = bytearray()  # bytes read past the last reply line
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                start_new_session=True)
        except OSError as exc:
            raise InputError(f"cannot start strategy {argv[0]!r}: {exc}") from exc

    def _reply_line(self) -> str:
        """The program's next line, or what it wrote before closing its
        stdout.  The pipe is read with ``os.read``, never through a buffered
        file, so ``select`` sees every byte not yet in ``_pending``; each
        read is searched for the newline on its own."""
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + ANSWER_DEADLINE_S
        end = self._pending.find(b"\n")
        while end < 0:
            if len(self._pending) > MAX_REPLY_BYTES:
                raise InputError(f"strategy {self.name!r} sent a reply longer "
                                 f"than {MAX_REPLY_BYTES} bytes")
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise InputError(f"strategy {self.name!r} did not answer "
                                 f"within {ANSWER_DEADLINE_S:g} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                end = len(self._pending) - 1  # the program closed its stdout
                break
            self._pending += chunk
            end = self._pending.find(b"\n", len(self._pending) - len(chunk))
        line = self._pending[:end + 1]
        del self._pending[:end + 1]
        return line.decode("utf-8", errors="replace")

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.write(f"query {ctx.point} {ctx.structure_hash}\n".encode())
            self._proc.stdin.flush()
        except BrokenPipeError:
            pass  # the program has exited; its stdout reads as empty
        line = self._reply_line()
        tok = line.split()
        if len(tok) != 3 or tok[0] != "answer":
            raise InputError(f"bad strategy protocol line {line!r}")
        return StrategyAnswer.from_tokens(tok[1], tok[2])

    def __exit__(self, *exc_info) -> None:
        """Close both pipes, give the program 1 s to exit on EOF, then kill
        its whole process group: a program that exits on EOF still exits
        on its own, and neither it nor anything it started outlives the
        block."""
        for pipe in (self._proc.stdin, self._proc.stdout):
            with contextlib.suppress(BrokenPipeError):
                pipe.close()
        with contextlib.suppress(subprocess.TimeoutExpired):
            self._proc.wait(timeout=1)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self._proc.pid, signal.SIGKILL)
        self._proc.wait()


BUNDLED_STRATEGIES = {
    s.name: s for s in (ConstantStrategy, SupportEchoStrategy,
                        OrderSensitiveStrategy, IndexSensitiveStrategy,
                        SeededRandomStrategy)
}


def make_strategy(name: str, seed: int = 0) -> Strategy:
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
    A strategy fault sets none of the fields after ``queries`` but
    ``reason``, and no other kind sets ``reason``.
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

    def recorded_answers(self) -> tuple[tuple[str | None, str | None], ...]:
        """The answers recorded at ``t1`` and ``t2`` as (side, color text)
        tokens, None where a field is unset."""
        return tuple((side, None if c is None else c.text())
                     for side, c in ((self.side1, self.q), (self.side2, self.q2)))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _fault_analysis(x: FinStruct, tau: OnePointType, queries: Iterable[QueryRecord]
                    ) -> tuple[str | None, dict[str, ColorTerm], set[str],
                               dict[str, tuple[str, str]]]:
    """The first strategy fault in the query log's last answer at each
    point (None if there is none), the virtual point's colors and below-set
    over the base, and those last answers' tokens by point.  :func:`refute`
    runs it after every answer and :func:`check_certificate` on the
    replayed log, so they agree on faults.

    The faults, in this order: at a base point, a ``self`` answer or a
    color above the base level; once every base point has a color, a
    below-set that is not an initial segment (``incoherent-order``) or two
    base points whose color equals both their virtual colors
    (``virtual-triangle``); at a non-base point, a ``self`` answer or a
    color above the base level; and the first non-base answer, ``t1``'s,
    equal to a virtual color over the base (``virtual-triangle``).  Only
    ``t1``'s color is held against the base: ``t2``'s answer closing a
    triangle with a base point is no fault."""
    last = {point: (side, color) for point, _, side, color in queries}
    vcol = dict(zip(tau.support, tau.colors))
    vbelow = set(tau.support[: tau.cut])
    parsed = {p: StrategyAnswer.from_tokens(*tokens)
              for p, tokens in last.items() if p not in vcol}
    others = [ans for p, ans in parsed.items() if p not in x.pos]

    def first_fault() -> str | None:
        for p, ans in parsed.items():
            if p not in x.pos:
                continue
            if ans.self_claim:
                return "self-claim"
            if ans.color.level > x.level:
                return "level-bound"
            vcol[p] = ans.color
            if ans.side == ABOVE:
                vbelow.add(p)
        if len(vcol) == len(x.points):
            below_positions = sorted(x.index(v) for v in vbelow)
            if below_positions != list(range(len(below_positions))):
                return "incoherent-order"
            for v, w in x.pairs():
                if vcol[v] == vcol[w] == x.color(v, w):
                    return "virtual-triangle"
        for ans in others:
            if ans.self_claim:
                return "self-claim"
            if ans.color.level > x.level:
                return "level-bound"
        if others and any(c == others[0].color for c in vcol.values()):
            return "virtual-triangle"
        return None

    return first_fault(), vcol, vbelow, last


def refute(x: FinStruct, tau: OnePointType, strategy: ExtensionStrategy,
           depth: int) -> RefutationCertificate:
    """Run the two-realizer procedure against a strategy.

    Always returns a certificate: a strategy fault when its answers show
    one of the faults :func:`_fault_analysis` states, else a monochromatic
    triangle when the strategy treats both realizers alike and an
    equivariance violation when it does not.

    Each query sees the base plus the non-base points queried so far, this
    one included: the base points outside the type's support are asked
    first, then ``t1`` right after its realization, then ``t2`` right after
    its; the back-and-forth asks nothing, and walks two dicts, the map and
    its inverse, each step one :func:`realize_image` on one of them and an
    update of both.  :func:`check_certificate` rebuilds every query's
    structure from this.  After each answer the log so far goes through
    :func:`_fault_analysis`, and the first fault ends the run.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    v = validate(x)
    if not v:
        raise InputError(f"invalid base structure: {v.reason}")
    if tau.base != x:
        raise InputError("type must sit over the given base")
    check_realizable(x, tau)
    a = Approximation(seed=x)
    queries: list[QueryRecord] = []

    def ask(point: str) -> tuple[StrategyAnswer, str | None]:
        """The strategy's answer at ``point`` in the current structure, and
        the first fault of the answers so far, this one logged."""
        h = structure_hash(a.current)
        ans = strategy.answer(QueryContext(a.current, x.points, tau, point, h))
        if not ans.self_claim and (ans.color is None
                                   or ans.side not in (ABOVE, BELOW)):
            raise InputError("strategy returned a malformed answer")
        queries.append((point, h, *ans.tokens()))
        return ans, _fault_analysis(x, tau, queries)[0]

    def fault(code: str) -> RefutationCertificate:
        return RefutationCertificate(
            kind=FAULT, structure=a.current, base_points=x.points,
            tau_text=format_type(tau), queries=tuple(queries), reason=code)

    for p in x.points:
        if p not in tau.support and (code := ask(p)[1]):
            return fault(code)
    # no fault here: one in an answer ended the loop, and a built type has none
    _, vcol, vbelow, _ = _fault_analysis(x, tau, queries)
    full = OnePointType.build(x, x.points, len(vbelow),
                              tuple(vcol[p] for p in x.points), x.level)
    t1 = a.realize(full)
    ans1, code = ask(t1)
    if code:
        return fault(code)
    q, side1 = ans1.color, ans1.side

    cur = a.current
    supp2 = cur.sorted_points(x.points + (t1,))
    colors2 = tuple(q if p == t1 else vcol[p] for p in supp2)
    cut2 = supp2.index(t1) + 1
    tau2 = OnePointType.build(cur, supp2, cut2, colors2, cur.level)
    t2 = a.realize(tau2)
    ans2, code = ask(t2)
    if code:
        return fault(code)
    q2, side2 = ans2.color, ans2.side

    fwd = {p: p for p in x.points} | {t1: t2}
    bwd = {w: u for u, w in fwd.items()}
    transcript: list[ExtendRecord] = []
    for k in range(depth):
        forth = k % 2 == 0  # even steps extend the map, odd steps its inverse
        side, other = (fwd, bwd) if forth else (bwd, fwd)
        u = next((p for p in a.current.points if p not in side), None)
        if u is None:
            break
        w = side[u] = realize_image(a, a.current, side, u)
        other[w] = u
        transcript.append(("fwd" if forth else "bwd", u, w))

    kind = MONO if (q2 == q and side2 == side1) else EQUIV
    return RefutationCertificate(
        kind=kind, structure=a.current, base_points=x.points,
        tau_text=format_type(tau), queries=tuple(queries),
        t1=t1, t2=t2, q=q, q2=q2, side1=side1, side2=side2,
        alpha=PartialIso(tuple(fwd.items())), transcript=tuple(transcript),
        extension_depth=len(transcript))


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------

def check_certificate(cert: RefutationCertificate,
                      strategy: ExtensionStrategy) -> CheckResult:
    """Independently re-verify every field of a certificate, each rule once.

    Checks structure validity, the base (points of the structure in its
    order), the type (held to its canonical spelling), each recorded query
    (its structure hash and the strategy's answer, re-asked in that
    structure: the base plus the non-base points queried so far, this one
    included, as :func:`refute` asks), and then the kind's fields.  A
    strategy fault must be the one the replayed answers show, with no
    back-and-forth field set.  Otherwise no fault may show and no reason be
    set; both realizers must be distinct non-base points of the full type,
    with their recorded answers; the transcript steps must alternate as
    :func:`refute` takes them and, after the seed map, spell alpha pair for
    pair; alpha's one order-and-color check then also rejects a second image
    of a base point or of ``t1``; and the verdict condition must hold.
    """
    # check a copy whose private palette has the same texts under the same
    # ids, so what checking enters (a forged type's colors) stays out of
    # the caller's palette
    s, palette = cert.structure, Palette()
    for text in s.palette.texts:
        palette.id_text(text)
    s = FinStruct.of_rows(s.points, s.rows, palette, s.level)
    try:
        v = validate(s)
    except InputError as exc:
        return CheckResult(False, f"malformed-structure: {exc}")
    if not v:
        return CheckResult(False, f"invalid-structure: {v.reason}")
    if s.sorted_points(cert.base_points) != tuple(cert.base_points):
        return CheckResult(False, "base-order-mismatch")
    x = s.restrict(cert.base_points)
    try:
        tau = parse_type(cert.tau_text, x)
    except InputError as exc:
        return CheckResult(False, f"bad-type: {exc}")
    if format_type(tau) != cert.tau_text:
        return CheckResult(False, "type-not-canonical")

    # replay every recorded answer in the structure its query saw
    seen, seen_hash = x, structure_hash(x)
    for point, h, side, color in cert.queries:
        if point not in s:
            return CheckResult(False, "query-point-missing")
        if point not in seen:
            seen = s.restrict((*seen.points, point))
            seen_hash = structure_hash(seen)
        if seen_hash != h:
            return CheckResult(False, f"hash-mismatch at {point}")
        answer = strategy.answer(QueryContext(seen, x.points, tau, point, h))
        if answer.tokens() != (side, color):
            return CheckResult(False, f"answer-mismatch at {point}")
    fault, vcol, vbelow, last = _fault_analysis(x, tau, cert.queries)

    if cert.kind == FAULT:
        if fault is None:
            return CheckResult(False, "fault-not-reproduced")
        if fault != cert.reason:
            return CheckResult(False, f"fault-mismatch: {fault} != {cert.reason}")
        if (cert.t1, cert.t2, cert.q, cert.q2, cert.side1, cert.side2, cert.alpha,
                cert.transcript, cert.extension_depth) != (None,) * 7 + ((), 0):
            return CheckResult(False, "fault-with-back-and-forth")
        return CheckResult(True)

    if cert.kind not in (MONO, EQUIV):
        return CheckResult(False, f"unknown-kind {cert.kind!r}")
    if fault is not None:
        return CheckResult(False, "hidden-strategy-fault")
    if cert.reason:
        return CheckResult(False, "reason-without-fault")
    t1, t2 = cert.t1, cert.t2
    if t1 == t2 or any(t not in s or t in x for t in (t1, t2)):
        return CheckResult(False, "bad-realizers")

    # both realizers must carry the strategy's full type over the base
    if len(vcol) != len(x.points):
        return CheckResult(False, "unqueried-base-point")
    expected_key = (x.points, len(vbelow), tuple(s.palette.id(vcol[p]) for p in x.points))
    for t in (t1, t2):
        if point_key(s, t, x.points) != expected_key:
            return CheckResult(False, f"realizer-type-mismatch at {t}")
    if s.color(t1, t2) != cert.q:
        return CheckResult(False, "pair-color-mismatch")
    if (last.get(t1), last.get(t2)) != cert.recorded_answers():
        return CheckResult(False, "recorded-answer-mismatch")

    # the transcript spells alpha past the seed map, as ``refute`` walks its
    # back-and-forth: fwd on even steps, bwd (its pair flipped) on odd ones
    pairs = [(p, p) for p in x.points] + [(t1, t2)]
    for k, (direction, u, w) in enumerate(cert.transcript):
        if direction != ("fwd" if k % 2 == 0 else "bwd"):
            return CheckResult(False, f"transcript-step-order at step {k}")
        pairs.append((u, w) if direction == "fwd" else (w, u))
    if len(cert.transcript) != cert.extension_depth:
        return CheckResult(False, "depth-mismatch")
    if cert.alpha is None or tuple(pairs) != cert.alpha.pairs:
        return CheckResult(False, "alpha-transcript-divergence")
    if not cert.alpha.check(s):
        return CheckResult(False, "alpha-not-iso")

    same = (cert.side1, cert.q) == (cert.side2, cert.q2)
    if cert.kind == MONO and not same:
        return CheckResult(False, "triangle-condition-fails")
    if cert.kind == EQUIV and same:
        return CheckResult(False, "no-violation")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Certificate text form
# ---------------------------------------------------------------------------

_SECTIONS = ("STRUCTURE", "POINTS", "ALPHA", "TRANSCRIPT", "VERDICT")


def _frame(cert: RefutationCertificate, structure: str = "") -> str:
    """Certificate v1 with ``structure`` as the body of its STRUCTURE
    section: the one spelling of every line outside that section.  Every
    kind but a strategy fault has all six realizer fields; one the reader
    did not find is None and shows as ``None``, so the text lacks a line
    the frame has."""
    (side1, q), (side2, q2) = cert.recorded_answers()
    scalars = (("t1", cert.t1), ("t2", cert.t2), ("q", q), ("qprime", q2),
               ("side1", side1), ("side2", side2))
    if cert.kind == FAULT:
        verdict = f"reason={cert.reason}"
    elif cert.kind == MONO:
        verdict = f"q={q}"
    else:
        verdict = f"q={q} qprime={q2}"
    text = [f"certificate v1\nkind {cert.kind}\nSTRUCTURE\n", structure, "POINTS\n"]
    text.append(" ".join(("x", *cert.base_points)) + "\n")
    text.append(f"type {cert.tau_text}\n")
    if cert.kind != FAULT:
        text += [f"{key} {value}\n" for key, value in scalars]
    text.append(f"depth {cert.extension_depth}\nALPHA\n")
    text.append(format_pairs(cert.alpha.pairs if cert.alpha is not None else ()))
    text.append("TRANSCRIPT\n")
    text += [f"query {p} {h} {side} {color}\n" for p, h, side, color in cert.queries]
    text += [f"extend {d} {u} {w}\n" for d, u, w in cert.transcript]
    text.append(f"VERDICT\n{cert.kind} {verdict}\n")
    return "".join(text)


def format_certificate(cert: RefutationCertificate) -> str:
    return _frame(cert, format_struct(cert.structure, "final"))


def parse_certificate(text: str) -> RefutationCertificate:
    """Read certificate v1 strictly: blank lines aside, the text must be
    what :func:`format_certificate` writes, except that the STRUCTURE
    section is :func:`parse_struct`'s to read (its color lines may come in
    any order; an error there or in ALPHA cites its line in the text).
    The fields are read leniently, and the text is accepted only if its
    lines outside the structure equal :func:`_frame` of what was read; any
    other text raises InputError."""
    raw = text.splitlines()
    heads = [i for i, line in enumerate(raw) if line in _SECTIONS]
    if [raw[i] for i in heads] != list(_SECTIONS):
        raise InputError("certificate is not in canonical form")
    # each section as (line number, line) pairs, numbered as in the text
    structure, points, alpha, transcript_lines, verdict = (
        enumerate(raw[i + 1:j], i + 2) for i, j in zip(heads, heads[1:] + [len(raw)]))
    points, transcript_lines, verdict = ([line for _, line in section if line.strip()]
                                         for section in (points, transcript_lines, verdict))
    head = [line for line in raw[:heads[0]] if line.strip()]
    fields = {key: values for key, *values in map(str.split, head + points)}
    tau_text = next((line[5:] for line in points
                     if line.startswith("type ") and line[5:].strip()), None)

    def first(key: str) -> str | None:
        return next(iter(fields.get(key, ())), None)

    try:
        depth = int(first("depth") or 0)
    except ValueError:
        raise InputError(f"bad depth {first('depth')!r}") from None
    q, q2 = (None if first(key) is None else ColorTerm.parse(first(key))
             for key in ("q", "qprime"))
    records = [line.split() for line in transcript_lines]
    queries = [tuple(tok[1:]) for tok in records if tok[0] == "query" and len(tok) == 5]
    transcript = [tuple(tok[1:]) for tok in records if tok[0] == "extend" and len(tok) == 4]
    reasons = [t for t in " ".join(verdict).split() if t.startswith("reason=")]
    pairs = parse_pair_lines(alpha)
    cert = RefutationCertificate(
        kind=first("kind"), structure=parse_struct_lines(structure)[1],
        base_points=tuple(fields.get("x", ())), tau_text=tau_text,
        queries=tuple(queries), t1=first("t1"), t2=first("t2"), q=q, q2=q2,
        side1=first("side1"), side2=first("side2"),
        alpha=pairs if pairs.pairs else None, transcript=tuple(transcript),
        extension_depth=depth, reason=reasons[0][len("reason="):] if reasons else "")
    outside = head + ["STRUCTURE"] + [line for line in raw[heads[1]:] if line.strip()]
    if "".join(line + "\n" for line in outside) != _frame(cert):
        raise InputError("certificate is not in canonical form")
    return cert


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
            lo = max((points.index(m[d]) for d in m
                      if points.index(d) < points.index(u)), default=-1)
            hi = min((points.index(m[d]) for d in m
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
