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
run still ends in one of the two kinds above.  That one analysis gives
the fault and the strategy's full type over the base: :func:`refute`
builds both realizers' types from it, and :func:`check_certificate` holds
the fault, or both realizers, to it, so they agree on both.
A certificate stores each fact once: its kind, the answers at the
realizers, alpha and the depth are read off the query log and the
transcript, so the checker states each rule once.  The certificate text
is spelled once, by ``_frame``: the writer fills it in, and the reader
reads the stored fields and holds the text it read to it.

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
from typing import Iterable, Iterator, Protocol

from .core import (ColorTerm, FinStruct, InputError, Palette, canonical_code, first_free,
                   parse_struct_lines, struct_chunks, validate)
from .limit import Approximation, PartialIso, format_pairs, realize_image
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

    ``queries`` records every strategy answer in order.  A strategy fault
    sets ``reason`` and nothing after ``queries``; any other run sets the
    realizers ``t1`` and ``t2`` and the back-and-forth ``transcript``.  The
    kind, the answers at the realizers, alpha and the depth (the length of
    the transcript) are read off these fields.
    """

    structure: FinStruct
    base_points: tuple[str, ...]
    tau_text: str
    queries: tuple[QueryRecord, ...]
    t1: str | None = None
    t2: str | None = None
    transcript: tuple[ExtendRecord, ...] = ()
    reason: str = ""

    def recorded_answers(self) -> tuple[tuple[str | None, str | None], ...]:
        """The log's last answers at ``t1`` and ``t2`` as (side, color
        text) tokens, ``(None, None)`` for a point it does not hold."""
        last = {point: (side, color) for point, _, side, color in self.queries}
        return tuple(last.get(t, (None, None)) for t in (self.t1, self.t2))

    @property
    def kind(self) -> str:
        """A strategy fault when ``reason`` is set; else a monochromatic
        triangle when the answers at ``t1`` and ``t2`` agree, and an
        equivariance violation when they do not."""
        if self.reason:
            return FAULT
        first, second = self.recorded_answers()
        return MONO if first == second else EQUIV

    @property
    def alpha(self) -> PartialIso:
        """The partial isomorphism the transcript spells: the seed map,
        each base point to itself in order and then ``t1`` to ``t2``,
        followed by each step's pair, a ``bwd`` step's flipped."""
        seed = tuple((p, p) for p in self.base_points) + ((self.t1, self.t2),)
        return PartialIso(seed + tuple((w, u) if d == "bwd" else (u, w)
                                       for d, u, w in self.transcript))


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _misfit(answers: Iterable[StrategyAnswer], level: int) -> str | None:
    """The one rule that reads a single answer: the fault of the first
    ``self`` answer or color above ``level``, None if there is none."""
    for ans in answers:
        if ans.self_claim or ans.color.level > level:
            return "self-claim" if ans.self_claim else "level-bound"
    return None


def _fault_analysis(x: FinStruct, tau: OnePointType, queries: Iterable[QueryRecord]
                    ) -> tuple[str | None, int, tuple[ColorTerm | None, ...]]:
    """The one reading of the strategy's answers: the first strategy fault
    in the query log's last answer at each point (None if there is none),
    and the strategy's full type over the base, as its cut and one color
    per base point, None where neither the type nor an answer gives one.
    :func:`refute` runs it after every answer and builds both realizers'
    types from it; :func:`check_certificate` runs it on the replayed log
    and holds the fault, or both realizers, to it.

    The faults, in this order: at a base point, a ``self`` answer or a
    color above the base level (:func:`_misfit`); once every base point has
    a color, a below-set that is not an initial segment
    (``incoherent-order``) or two base points whose color equals both their
    virtual colors (``virtual-triangle``); the same rule at a non-base
    point; and the first non-base answer, ``t1``'s, equal to a virtual
    color over the base (``virtual-triangle``).  Only ``t1``'s color is
    held against the base: ``t2``'s answer closing a triangle with a base
    point is no fault."""
    last = {point: (side, color) for point, _, side, color in queries}
    vcol: list[ColorTerm | None] = [None] * len(x.points)
    below = [False] * len(x.points)
    for k, (p, c) in enumerate(zip(tau.support, tau.colors)):
        vcol[x.pos[p]], below[x.pos[p]] = c, k < tau.cut
    own = set(tau.support)  # the type's own colors; no answer there is read
    base, others = [], []  # the answers read, at base and at non-base points
    for p, tokens in last.items():
        if p not in own:
            ans = StrategyAnswer.from_tokens(*tokens)
            if p in x:
                base.append(ans)
                vcol[x.pos[p]], below[x.pos[p]] = ans.color, ans.side == ABOVE
            else:
                others.append(ans)
    cut, colors = sum(below), tuple(vcol)

    if fault := _misfit(base, x.level):
        return fault, cut, colors
    if None not in colors:
        if not all(below[:cut]):
            return "incoherent-order", cut, colors
        pairs = itertools.combinations(zip(x.points, colors), 2)
        if any(c == d == x.color(v, w) for (v, c), (w, d) in pairs):
            return "virtual-triangle", cut, colors
    if fault := _misfit(others, x.level):
        return fault, cut, colors
    if others and others[0].color in colors:
        return "virtual-triangle", cut, colors
    return None, cut, colors


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
    structure from this, and each structure is hashed once: the base, then
    after each realizer.  Until the last base answer only that answer can
    fault, so it alone goes through :func:`_misfit`; from the last base
    answer on, the log so far goes through :func:`_fault_analysis` after
    each answer, and the first fault ends the run.  With no fault, both
    realizers' types come from that analysis, with no second check:
    ``t1`` realizes the strategy's full type over the base, and ``t2`` the
    same type with ``t1`` added in the color ``q`` of ``t1``'s answer.
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

    def ask(point: str, h: str) -> StrategyAnswer:
        """The strategy's answer at ``point`` in the current structure,
        whose hash is ``h``, logged."""
        ans = strategy.answer(QueryContext(a.current, x.points, tau, point, h))
        if not ans.self_claim and (ans.color is None
                                   or ans.side not in (ABOVE, BELOW)):
            raise InputError("strategy returned a malformed answer")
        queries.append((point, h, *ans.tokens()))
        return ans

    def certificate(**fields) -> RefutationCertificate:
        return RefutationCertificate(a.current, x.points, format_type(tau),
                                     tuple(queries), **fields)

    h = structure_hash(a.current)
    asked = [p for p in x.points if p not in tau.support]
    for p in asked[:-1]:
        if code := _misfit((ask(p, h),), x.level):
            return certificate(reason=code)
    if asked:
        ask(asked[-1], h)
    # a given type has no fault, so with no base answer there is none
    code, cut, colors = _fault_analysis(x, tau, queries)
    if code:
        return certificate(reason=code)
    # no fault, so the full type closes no triangle (virtual-triangle) and
    # stays within the level (level-bound, and check_realizable above)
    ids = tuple(map(x.palette.id, colors))
    t1 = a.realize(OnePointType(x, x.points, cut, ids, x.level))
    ans1 = ask(t1, structure_hash(a.current))
    if code := _fault_analysis(x, tau, queries)[0]:
        return certificate(reason=code)
    # t1, over all of x, sits at position cut; t2 joins it in the color q
    # it answered, which no virtual color equals (virtual-triangle)
    supp2 = (*x.points[:cut], t1, *x.points[cut:])
    ids2 = (*ids[:cut], x.palette.id(ans1.color), *ids[cut:])
    t2 = a.realize(OnePointType(a.current, supp2, cut + 1, ids2, x.level))
    ask(t2, structure_hash(a.current))
    if code := _fault_analysis(x, tau, queries)[0]:
        return certificate(reason=code)

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
    return certificate(t1=t1, t2=t2, transcript=tuple(transcript))


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
    included, as :func:`refute` asks), and then the fields of its kind.  A
    strategy fault must be the one the replayed answers show, with no
    realizer or step set.  Otherwise no fault may show; both realizers must
    be distinct non-base points the log asks, of the strategy's full type
    that the same analysis gives :func:`refute`, joined in the color
    answered at ``t1``; the transcript steps must alternate as
    :func:`refute` takes them; and alpha, the map they spell after the seed
    map, passes one order-and-color check, which also rejects a second
    image of a base point or of ``t1``.  The kind, alpha and the depth are
    read off the stored fields, so no rule compares a copy with its source.
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
    fault, cut, colors = _fault_analysis(x, tau, cert.queries)

    if cert.kind == FAULT:
        if fault is None:
            return CheckResult(False, "fault-not-reproduced")
        if fault != cert.reason:
            return CheckResult(False, f"fault-mismatch: {fault} != {cert.reason}")
        if (cert.t1, cert.t2, cert.transcript) != (None, None, ()):
            return CheckResult(False, "fault-with-back-and-forth")
        return CheckResult(True)

    if fault is not None:
        return CheckResult(False, "hidden-strategy-fault")
    t1, t2 = cert.t1, cert.t2
    answers = cert.recorded_answers()
    if t1 == t2 or any(t not in s or t in x for t in (t1, t2)) or (None, None) in answers:
        return CheckResult(False, "bad-realizers")

    # both realizers must carry the strategy's full type over the base
    if None in colors:
        return CheckResult(False, "unqueried-base-point")
    expected_key = (x.points, cut, tuple(map(s.palette.id, colors)))
    for t in (t1, t2):
        if point_key(s, t, x.points) != expected_key:
            return CheckResult(False, f"realizer-type-mismatch at {t}")
    if s.color(t1, t2).text() != answers[0][1]:
        return CheckResult(False, "pair-color-mismatch")

    # the steps alternate as ``refute`` walks its back-and-forth, fwd on
    # even steps and bwd on odd ones; alpha is the map they spell
    for k, (direction, _, _) in enumerate(cert.transcript):
        if direction != ("fwd" if k % 2 == 0 else "bwd"):
            return CheckResult(False, f"transcript-step-order at step {k}")
    if not cert.alpha.check(s):
        return CheckResult(False, "alpha-not-iso")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Certificate text form
# ---------------------------------------------------------------------------

SECTIONS = ("STRUCTURE", "POINTS", "ALPHA", "TRANSCRIPT", "VERDICT")


def _frame(cert: RefutationCertificate, structure: Iterable[str] = ()) -> Iterator[str]:
    """Certificate v1 as a stream, with the chunks of ``structure`` as the
    body of its STRUCTURE section: the one spelling of every line outside
    that section, the ``kind``, ``q``, ``qprime``, ``side1``, ``side2``,
    ``depth``, ALPHA and verdict lines spelling what is read off the stored
    fields.  Every kind but a strategy fault has both realizers; one the
    reader did not find is None and shows as ``None``, so the text lacks a
    line the frame has."""
    kind = cert.kind
    (side1, q), (side2, q2) = cert.recorded_answers()
    scalars = (("t1", cert.t1), ("t2", cert.t2), ("q", q), ("qprime", q2),
               ("side1", side1), ("side2", side2))
    if kind == FAULT:
        verdict = f"reason={cert.reason}"
    elif kind == MONO:
        verdict = f"q={q}"
    else:
        verdict = f"q={q} qprime={q2}"
    text = ["POINTS\n", " ".join(("x", *cert.base_points)) + "\n", f"type {cert.tau_text}\n"]
    if kind != FAULT:
        text += [f"{key} {value}\n" for key, value in scalars]
    text.append(f"depth {len(cert.transcript)}\nALPHA\n")
    if kind != FAULT:
        text.append(format_pairs(cert.alpha.pairs))
    text.append("TRANSCRIPT\n")
    text += [f"query {p} {h} {side} {color}\n" for p, h, side, color in cert.queries]
    text += [f"extend {d} {u} {w}\n" for d, u, w in cert.transcript]
    text.append(f"VERDICT\n{kind} {verdict}\n")
    return itertools.chain((f"certificate v1\nkind {kind}\nSTRUCTURE\n",), structure,
                           ("".join(text),))


def format_certificate(cert: RefutationCertificate) -> str:
    return "".join(certificate_chunks(cert))


def certificate_chunks(cert: RefutationCertificate) -> Iterator[str]:
    """:func:`format_certificate` as a stream: the frame's head, the
    structure's ``core.struct_chunks``, then the rest of the frame."""
    return _frame(cert, struct_chunks(cert.structure, "final"))


def parse_certificate(text: str) -> RefutationCertificate:
    """Read certificate v1 strictly: blank lines aside, the text must be
    what :func:`format_certificate` writes, except that the STRUCTURE
    section is :func:`parse_struct`'s to read (its color lines may come in
    any order; an error there cites its line in the text).  Only the
    stored fields are read, leniently, and the text is accepted only if its
    lines outside the structure equal :func:`_frame` of what was read; any
    other text raises InputError, citing the first line that differs (the
    text's last line for a missing one) unless a section head is missing or
    out of order."""
    raw = text.splitlines()
    heads = [i for i, line in enumerate(raw) if line in SECTIONS]
    if [raw[i] for i in heads] != list(SECTIONS):
        raise InputError("certificate is not in canonical form")
    points, _, records, verdict = ([line.split() for line in raw[i + 1:j] if line.strip()]
                                   for i, j in zip(heads[1:], heads[2:] + [len(raw)]))
    fields = {key: values for key, *values in points}
    tau_text = next((line[5:] for line in raw[heads[1] + 1:heads[2]]
                     if line.startswith("type ") and line[5:].strip()), None)
    t1, t2 = (next(iter(fields.get(key, ())), None) for key in ("t1", "t2"))
    queries = tuple(tuple(tok[1:]) for tok in records if tok[0] == "query" and len(tok) == 5)
    transcript = tuple(tuple(tok[1:]) for tok in records if tok[0] == "extend" and len(tok) == 4)
    reasons = [t for t in itertools.chain(*verdict) if t.startswith("reason=")]
    cert = RefutationCertificate(
        structure=parse_struct_lines(enumerate(raw[heads[0] + 1:heads[1]], heads[0] + 2))[1],
        base_points=tuple(fields.get("x", ())), tau_text=tau_text, queries=queries,
        t1=t1, t2=t2, transcript=transcript,
        reason=reasons[0][len("reason="):] if reasons else "")
    # the lines outside the structure, numbered as in the text, against the frame's
    numbered = itertools.chain(enumerate(raw[:heads[0] + 1], 1),
                               enumerate(raw[heads[1]:], heads[1] + 1))
    outside = [(n, line) for n, line in numbered if line.strip()]
    frame = "".join(_frame(cert)).splitlines()
    if [line for _, line in outside] != frame:
        for (n, line), want in itertools.zip_longest(outside, frame, fillvalue=(len(raw), None)):
            if line != want:
                raise InputError(f"line {n}: certificate is not in canonical form")
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
        p = first_free(map("g{}".format, counter), points)
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
