import ast
import dataclasses
import errno
import hashlib
import inspect
import os
import random
import re
import stat
import sys
import textwrap
from pathlib import Path

import pytest

from colorder import refuter
from colorder.core import ColorTerm, FinStruct, InputError, pair_of
from colorder.limit import realize_image
from colorder.refuter import (ABOVE, BELOW, BUNDLED_STRATEGIES, EQUIV, FAULT,
                              MONO, QueryContext,
                              RefutationCertificate, StrategyAnswer,
                              SubprocessStrategy, certificate_chunks,
                              check_certificate, control_lo, format_certificate,
                              format_control_report, make_strategy,
                              parse_certificate, refute)
from colorder.types import OnePointType, enumerate_types, format_type, parse_type
from golden_cases import GOLDEN
from helpers import (all_structures, colors_of, reference_check, reference_iso_check,
                     struct_of)

B = ColorTerm.base
TYPE_A = "type supp=a cut=1 colors=b:0:1 level=0"


def battery():
    return [make_strategy(name) for name in BUNDLED_STRATEGIES]


def mono_certificate():
    """A deterministic MonochromaticTriangle certificate."""
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    cert = refute(x, tau, make_strategy("constant"), 3)
    assert cert.kind == MONO
    return x, tau, cert


def equiv_certificate():
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    cert = refute(x, tau, make_strategy("index-sensitive"), 3)
    assert cert.kind == EQUIV
    return x, tau, cert


def fault_certificate():
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 0),), 0)
    cert = refute(x, tau, make_strategy("constant"), 3)
    assert cert.kind == FAULT and cert.reason == "virtual-triangle"
    return x, tau, cert


# ---------------------------------------------------------------------------
# the procedure
# ---------------------------------------------------------------------------

def test_constant_strategy_yields_triangle():
    _, _, cert = mono_certificate()
    assert cert.recorded_answers() == ((ABOVE, "b:0:0"), (ABOVE, "b:0:0"))
    assert cert.structure.color(cert.t1, cert.t2) == B(0, 0)
    assert check_certificate(cert, make_strategy("constant")).ok


def test_identity_dependent_strategy_breaks_equivariance():
    _, _, cert = equiv_certificate()
    first, second = cert.recorded_answers()
    assert first[1] != second[1]
    assert len(cert.transcript) == 3
    assert check_certificate(cert, make_strategy("index-sensitive")).ok


class ScriptedStrategy:
    """Answers by the number of non-base points in the structure it is
    shown: ``script[0]`` at a base point, ``script[1]`` at ``t1`` and
    ``script[2]`` at ``t2``, so each check replays it."""

    name = "scripted"

    def __init__(self, *script: StrategyAnswer):
        self.script = script

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        return self.script[len(ctx.current.points) - len(ctx.base_points)]


SELF = StrategyAnswer("", None, self_claim=True)
FINE = StrategyAnswer(ABOVE, B(0, 0))
OVER = StrategyAnswer(ABOVE, B(1, 0))  # a color above the base's level 0
TWO_FACED = (FINE, FINE, StrategyAnswer(ABOVE, B(0, 1)))  # q, then another color


def test_deliberate_second_answer_flip():
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    cert = refute(x, tau, ScriptedStrategy(*TWO_FACED), 2)
    assert cert.kind == EQUIV
    assert cert.recorded_answers() == ((ABOVE, "b:0:0"), (ABOVE, "b:0:1"))
    assert check_certificate(cert, ScriptedStrategy(*TWO_FACED)).ok


def test_self_claim_is_a_strategy_fault():
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 0),), 0)
    cert = refute(x, tau, ScriptedStrategy(SELF, SELF, SELF), 3)
    assert cert.kind == FAULT and cert.reason == "self-claim"
    assert check_certificate(cert, ScriptedStrategy(SELF, SELF, SELF)).ok


ONE = FinStruct.build("a", {})
FREE = OnePointType.build(ONE, (), 0, (), 0)
MISSING = "/nonexistent"
# a bad side with a color: only the side tells the answer malformed
SIDEWAYS = StrategyAnswer("sideways", B(0, 0))


@pytest.mark.parametrize("make, message", [
    (lambda: StrategyAnswer.from_tokens("sideways", "b:0:0"), "bad answer side 'sideways'"),
    (lambda: make_strategy("nope"), "unknown strategy 'nope'"),
    (lambda: make_strategy("prog:'x"), "bad strategy command: No closing quotation"),
    (lambda: make_strategy("prog:"), "empty strategy command"),
    (lambda: make_strategy(f"prog:{MISSING}"), f"cannot start strategy {MISSING!r}: "
     f"{FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), MISSING)}"),
    (lambda: refute(ONE, FREE, make_strategy("constant"), -1), "depth must be nonnegative"),
    (lambda: refute(ONE, OnePointType.build(FinStruct.build("b", {}), (), 0, (), 0),
                    make_strategy("constant"), 1), "type must sit over the given base"),
    (lambda: refute(ONE, FREE, ScriptedStrategy(SIDEWAYS, SIDEWAYS, SIDEWAYS), 1),
     "strategy returned a malformed answer"),
    (lambda: control_lo(("a", "a"), 0, 1, 1), "duplicate points in the order"),
])
def test_refuter_messages(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("type_text,script,reason", [
    ("type supp= cut=0 colors= level=0", (SELF, FINE, FINE), "self-claim"),
    ("type supp= cut=0 colors= level=0", (OVER, FINE, FINE), "level-bound"),
    (TYPE_A, (FINE, FINE, SELF), "self-claim"),
    (TYPE_A, (FINE, FINE, OVER), "level-bound"),
], ids=["self-at-base", "over-level-at-base", "self-at-t2", "over-level-at-t2"])
def test_fault_at_a_base_point_or_at_t2(type_text, script, reason):
    """A fault in a base point's answer ends the run before any point is
    realized; one in the second realizer's answer ends it after both are."""
    x = FinStruct.build("a", {})
    cert = refute(x, parse_type(type_text, x), ScriptedStrategy(*script), 3)
    assert (cert.kind, cert.reason) == (FAULT, reason)
    assert [q[0] for q in cert.queries] == (["a"] if script[0] != FINE else ["u0", "u1"])
    assert check_certificate(cert, ScriptedStrategy(*script)).ok
    assert reference_check(cert, ScriptedStrategy(*script))


def test_inconsistent_constant_answer_is_a_fault():
    _, _, cert = fault_certificate()
    assert check_certificate(cert, make_strategy("constant")).ok


def test_alpha_fixes_base_and_swaps_realizers():
    x, _, cert = mono_certificate()
    amap = cert.alpha.fwd()
    for p in x.points:
        assert amap[p] == p
    assert amap[cert.t1] == cert.t2
    assert cert.alpha.check(cert.structure)


def test_refute_is_deterministic():
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    c1 = refute(x, tau, make_strategy("constant"), 3)
    c2 = refute(x, tau, make_strategy("constant"), 3)
    assert format_certificate(c1) == format_certificate(c2)


def chain_base(n: int) -> FinStruct:
    """Points ``p0`` < ... < ``p<n-1>``, pair ``(p_i, p_j)`` colored
    ``b:0:i``: valid, since a triangle's two lower pairs share a color and
    its top pair has another."""
    pts = [f"p{i}" for i in range(n)]
    return FinStruct.build(pts, {pair_of(pts[i], pts[j]): B(0, i)
                                 for i in range(n) for j in range(i + 1, n)})


class ShiftedStrategy:
    """Answers ``b:0:<k + 1>`` at ``p<k>``, so over a chain base the full
    type closes no triangle, and ``b:0:0`` at every other point."""

    name = "shifted"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        k = int(ctx.point[1:]) + 1 if ctx.point in ctx.base_points else 0
        return StrategyAnswer(ABOVE, B(0, k))


def count_hashes_and_answers(monkeypatch, x, tau, strategy) -> tuple[dict, RefutationCertificate]:
    """The certificate of a depth-3 ``refute``, with how many structures
    it hashed and how many logged answers it read."""
    counts = {"hash": 0, "parse": 0}
    structure_hash, from_tokens = refuter.structure_hash, StrategyAnswer.from_tokens

    def hashing(s):
        counts["hash"] += 1
        return structure_hash(s)

    def parsing(*tokens):
        counts["parse"] += 1
        return from_tokens(*tokens)

    with monkeypatch.context() as mp:
        mp.setattr(refuter, "structure_hash", hashing)
        mp.setattr(StrategyAnswer, "from_tokens", staticmethod(parsing))
        cert = refute(x, tau, strategy, 3)
    return counts, cert


def test_refute_hashes_each_structure_once_and_reads_answers_once(monkeypatch):
    """Over an n-point base, ``refute`` hashes three structures, the base
    and the base with each realizer, and reads the log's answers only from
    the last base answer on: the n base answers, then once more with each
    realizer's.  Under the free type and ``constant``, the 400-point chain
    base gives a fault at the last base answer, after one hash and one
    reading; the certificate bytes were pinned before either rule."""
    n = 12
    x = chain_base(n)
    counts, cert = count_hashes_and_answers(monkeypatch, x, OnePointType(x, (), 0, ()),
                                            ShiftedStrategy())
    assert counts == {"hash": 3, "parse": n + (n + 1) + (n + 2)}
    assert cert.kind == MONO
    assert check_certificate(cert, ShiftedStrategy()).ok

    n = 400
    x = chain_base(n)
    counts, cert = count_hashes_and_answers(monkeypatch, x, OnePointType(x, (), 0, ()),
                                            make_strategy("constant"))
    assert counts == {"hash": 1, "parse": n}
    assert (cert.kind, cert.reason) == (FAULT, "virtual-triangle")
    text = format_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "c42d7e057d040e25"
    assert check_certificate(cert, make_strategy("constant")).ok


@pytest.mark.parametrize("name", ["refute_constant.txt", "refute_index_depth20.txt",
                                  "refute_fault_order.txt", "refute_fault_triangle.txt"])
def test_certificate_chunks_join_to_format_certificate(name):
    """A certificate streams as the frame's head, one chunk per point of its
    final structure after the header and point lines, then the rest of the
    frame; joined, the chunks are :func:`format_certificate`'s text, which
    the ``refute`` goldens pin."""
    text = Path(GOLDEN, name).read_text()
    cert = parse_certificate(text)
    chunks = list(certificate_chunks(cert))
    assert len(chunks) == len(cert.structure.points) + 3
    assert chunks[0].endswith("STRUCTURE\n") and chunks[1].startswith("structure final ")
    assert chunks[-1].startswith("POINTS\n")
    assert "".join(chunks) == format_certificate(cert) == text


def test_battery_full_coverage():
    """Every bundled strategy earns an accepted certificate on every base of
    size at most 2 and every budget-2 type, at depth 3."""
    kinds = set()
    for x in all_structures(2, 2):
        for tau in enumerate_types(x, 0, 2):
            for strategy in battery():
                cert = refute(x, tau, strategy, 3)
                fresh = make_strategy(strategy.name)
                res = check_certificate(cert, fresh)
                assert res.ok, (strategy.name, tau, res.reason)
                kinds.add(cert.kind)
    assert kinds == {MONO, EQUIV, FAULT}


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_battery_at_smaller_depths(depth):
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    for strategy in battery():
        cert = refute(x, tau, strategy, depth)
        if cert.kind != FAULT:
            assert len(cert.transcript) == depth
        assert check_certificate(cert, make_strategy(strategy.name)).ok


class SizeSensitiveStrategy:
    """Deterministic, but reads the structure it is shown: each answer
    follows the number of points the structure had when asked."""

    name = "size-sensitive"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        n = len(ctx.current.points)
        return StrategyAnswer(ABOVE if n % 2 else BELOW, B(0, n % 3))


def test_structure_reading_strategy_certificates_accepted():
    """Every honest certificate of a strategy that reads ``ctx.current`` is
    accepted: the checker re-asks each query in the structure it saw, not in
    the final one."""
    bases = (FinStruct.build("a", {}),
             FinStruct.build("ab", {pair_of("a", "b"): B(0, 0)}),
             FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                     pair_of("a", "c"): B(0, 1),
                                     pair_of("b", "c"): B(0, 0)}))
    kinds = set()
    for x in bases:
        for tau in enumerate_types(x, 0, 2):
            for depth in (0, 3, 12):
                cert = refute(x, tau, SizeSensitiveStrategy(), depth)
                res = check_certificate(cert, SizeSensitiveStrategy())
                assert res.ok, (format_type(tau), depth, res.reason)
                kinds.add(cert.kind)
    assert kinds == {EQUIV, FAULT}


class HashedStrategy:
    """Deterministic in (seed, structure hash, point).  At a base point it
    answers the side the type's cut gives and a color no other base point
    gets; anywhere else, a side and one of ``b:0:0``-``b:0:2`` drawn from
    a hash of the seed, the hash of the structure it is shown and the
    point."""

    name = "hashed"

    def __init__(self, seed: int):
        self.seed = seed

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        if ctx.point in ctx.base_points:
            k, below = ctx.base_points.index(ctx.point), ctx.tau.support[:ctx.tau.cut]
            under = bool(below) and k <= ctx.base_points.index(below[-1])
            return StrategyAnswer(ABOVE if under else BELOW, B(0, 3 + k))
        key = f"{self.seed}:{ctx.structure_hash}:{ctx.point}".encode()
        h = int.from_bytes(hashlib.sha256(key).digest()[:4], "big")
        return StrategyAnswer(ABOVE if h & 1 else BELOW, B(0, (h >> 1) % 3))


def test_hashed_strategy_certificates_accepted():
    """Completeness over strategies whose answers follow the hash of the
    structure they are shown: every honest certificate, over 1- to 3-point
    bases, every budget-2 type, depths 0-6 and three seeds, is accepted by
    the checker and by the reference, also read back from its text, so the
    checker rebuilds each query's structure to its hash."""
    bases = [FinStruct.build("a", {})]
    bases += [FinStruct.build("ab", {pair_of("a", "b"): B(0, k)}) for k in (0, 1)]
    bases.append(FinStruct.build("abc", {pair_of("a", "b"): B(0, 0), pair_of("a", "c"): B(0, 1),
                                         pair_of("b", "c"): B(0, 0)}))
    kinds = []
    for seed in range(3):
        strategy = HashedStrategy(seed)
        for x in bases:
            for tau in enumerate_types(x, 0, 2):
                cert = refute(x, tau, strategy, len(kinds) % 7)
                for c in (cert, parse_certificate(format_certificate(cert))):
                    res = check_certificate(c, strategy)
                    assert res.ok and reference_check(c, strategy), (seed, tau, res.reason)
                kinds.append(cert.kind)
    assert min(map(kinds.count, (MONO, EQUIV, FAULT))) > 10


# ---------------------------------------------------------------------------
# certificate verification and the mutation battery
# ---------------------------------------------------------------------------

def recolor(s: FinStruct, u: str, v: str, c: ColorTerm) -> FinStruct:
    cols = colors_of(s)
    cols[pair_of(u, v)] = c
    return struct_of(s.points, cols, s.level)


def test_certificate_roundtrip_accepted():
    for maker, name in ((mono_certificate, "constant"),
                        (equiv_certificate, "index-sensitive"),
                        (fault_certificate, "constant")):
        _, _, cert = maker()
        text = format_certificate(cert)
        again = parse_certificate(text)
        assert check_certificate(again, make_strategy(name)).ok
        assert format_certificate(again) == text


def test_point_named_like_a_verdict_field_round_trips():
    """A point named ``reason=z`` on the last transcript line, just above
    the VERDICT head, is read as a point and nothing else."""
    text = re.sub(r"\bu4\b", "reason=z", (Path(GOLDEN) / "refute_index.txt").read_text())
    assert text.splitlines()[-3:-1] == ["extend fwd u2 reason=z", "VERDICT"]
    cert = parse_certificate(text)
    assert cert.reason == ""
    assert format_certificate(cert) == text


def forged_hash(cert: RefutationCertificate, k: int = 0) -> RefutationCertificate:
    """The certificate with the structure hash of query ``k`` forged."""
    queries = list(cert.queries)
    point, _, side, color = queries[k]
    queries[k] = (point, "deadbeefdeadbeef", side, color)
    return dataclasses.replace(cert, queries=tuple(queries))


def forged_type(cert: RefutationCertificate) -> RefutationCertificate:
    """The certificate with its type claiming ``b:0:7`` for ``b:0:1``, a
    color neither realizer has to the base."""
    return dataclasses.replace(cert, tau_text=cert.tau_text.replace("b:0:1", "b:0:7"))


def mono_mutants(cert: RefutationCertificate):
    s, a, steps = cert.structure, cert.base_points[0], cert.transcript
    other = next(p for p in s.points
                 if p not in (cert.t1, cert.t2) and p not in cert.base_points)
    yield dataclasses.replace(cert, structure=recolor(s, cert.t1, cert.t2, B(0, 5)))
    yield dataclasses.replace(cert, structure=recolor(s, a, cert.t1, B(0, 5)))
    yield dataclasses.replace(cert, t2=a)
    yield dataclasses.replace(cert, t2=cert.t1)
    yield dataclasses.replace(cert, t1=other)
    yield dataclasses.replace(cert, t1=cert.t2, t2=cert.t1)
    yield dataclasses.replace(cert, transcript=steps[:-1] + (steps[-1][:2] + (cert.t1,),))
    yield dataclasses.replace(cert, transcript=steps + (("bwd", a, a),))
    yield dataclasses.replace(cert, transcript=(("bwd",) + steps[0][1:],) + steps[1:])
    yield dataclasses.replace(cert, queries=cert.queries[1:])
    flipped = list(cert.queries)
    point, h, side, color = flipped[0]
    flipped[0] = (point, h, BELOW if side == ABOVE else ABOVE, color)
    yield dataclasses.replace(cert, queries=tuple(flipped))
    yield dataclasses.replace(cert, reason="virtual-triangle")
    yield forged_type(cert)
    yield forged_hash(cert)


def test_mono_mutants_rejected():
    _, _, cert = mono_certificate()
    count = 0
    for mutant in mono_mutants(cert):
        res = check_certificate(mutant, make_strategy("constant"))
        assert not res.ok, f"mutant accepted: {res}"
        count += 1
    assert count >= 10


def test_transcript_replay_names_each_fault():
    """Alpha is the map the transcript spells: a step in an unknown
    direction is out of the fwd/bwd order, and a step whose pair repeats a
    point or breaks the order and colors makes that map no partial
    isomorphism."""
    _, _, cert = mono_certificate()
    s, (fwd, bwd) = cert.structure, cert.transcript[:2]
    assert fwd[0] == "fwd" and bwd[0] == "bwd"
    a, t1, t2 = cert.base_points[0], cert.t1, cert.t2
    seed = ((a, a), (t1, t2))
    # a fresh image that no partial isomorphism extending the seed map has
    wrong = next(w for w in s.points if w not in (a, t2)
                 and not reference_iso_check(seed + ((fwd[1], w),), s))

    def reason(first, second=bwd):
        mutant = dataclasses.replace(cert, transcript=(first, second) + cert.transcript[2:])
        return check_certificate(mutant, make_strategy("constant")).reason

    assert reason(("sideways",) + fwd[1:]) == "transcript-step-order at step 0"
    for first, second in ((("fwd", a, fwd[2]), bwd),         # domain collision
                          (("fwd", fwd[1], t2), bwd),        # range collision
                          (fwd, ("bwd", t2, bwd[2])),        # range collision
                          (fwd, ("bwd", bwd[1], t1)),        # domain collision
                          (("fwd", fwd[1], wrong), bwd)):    # breaks the map
        assert reason(first, second) == "alpha-not-iso"


def equiv_mutants(cert: RefutationCertificate):
    s, a, steps = cert.structure, cert.base_points[0], cert.transcript
    other = next(p for p in s.points
                 if p not in (cert.t1, cert.t2) and p not in cert.base_points)
    yield dataclasses.replace(cert, structure=recolor(s, cert.t1, cert.t2, B(0, 5)))
    yield dataclasses.replace(cert, structure=recolor(s, a, cert.t2, B(0, 5)))
    yield dataclasses.replace(cert, t1=cert.t2, t2=cert.t1)
    yield dataclasses.replace(cert, t2=other)
    yield dataclasses.replace(cert, transcript=steps + (("bwd", a, a),))
    yield dataclasses.replace(cert, transcript=(steps[1], steps[0]) + steps[2:])
    yield dataclasses.replace(cert, queries=cert.queries[:-1])
    first_answer = cert.recorded_answers()[0][1]
    rewritten = list(cert.queries)
    point, h, side, color = rewritten[-1]
    rewritten[-1] = (point, h, side, first_answer)
    yield dataclasses.replace(cert, queries=tuple(rewritten))
    yield dataclasses.replace(cert, base_points=cert.base_points + (cert.t1,))
    yield dataclasses.replace(cert, reason="virtual-triangle")
    yield forged_type(cert)
    yield forged_hash(cert)


def test_equiv_mutants_rejected():
    _, _, cert = equiv_certificate()
    count = 0
    for mutant in equiv_mutants(cert):
        res = check_certificate(mutant, make_strategy("index-sensitive"))
        assert not res.ok, f"mutant accepted: {res}"
        count += 1
    assert count >= 10


def fault_mutants(cert: RefutationCertificate):
    s, a = cert.structure, cert.base_points[0]
    yield dataclasses.replace(cert, reason="self-claim")
    yield dataclasses.replace(cert, reason="level-bound")
    yield dataclasses.replace(cert, reason="")
    yield dataclasses.replace(cert, queries=())
    yield dataclasses.replace(cert, queries=cert.queries[:-1])
    rewritten = list(cert.queries)
    point, h, side, color = rewritten[-1]
    rewritten[-1] = (point, h, side, B(0, 1).text())
    yield dataclasses.replace(cert, queries=tuple(rewritten))
    mono_cols = {k: B(0, 0) for k in colors_of(s)}
    if len(s.points) >= 3:
        yield dataclasses.replace(cert, structure=struct_of(s.points, mono_cols, s.level))
    yield dataclasses.replace(cert, base_points=())
    yield dataclasses.replace(cert, base_points=cert.base_points * 2)
    yield dataclasses.replace(cert, tau_text="type supp= cut=0 colors= level=0")
    yield dataclasses.replace(cert, t1=cert.queries[-1][0])
    yield dataclasses.replace(cert, transcript=(("fwd", a, a),))
    yield forged_hash(cert)


def test_fault_mutants_rejected():
    _, _, cert = fault_certificate()
    count = 0
    for mutant in fault_mutants(cert):
        res = check_certificate(mutant, make_strategy("constant"))
        assert not res.ok, f"mutant accepted: {res}"
        count += 1
    assert count >= 10


SWEEP_SEED = 21


def sweep_strategy(name: str):
    """A bundled strategy by name, or the structure-reading one."""
    return SizeSensitiveStrategy() if name == SizeSensitiveStrategy.name else make_strategy(name)


SWEEP_STRATEGIES = (*sorted(BUNDLED_STRATEGIES), SizeSensitiveStrategy.name)


def honest_certificates() -> list[tuple[str, RefutationCertificate]]:
    """(strategy name, certificate) pairs from ``refute``: over a one-point
    base, both two-point bases and a three-point one, each bundled strategy
    and the structure-reading one meet their budget-2 types in a seeded
    order until each has given two triangle or equivariance certificates
    and one fault certificate (or runs out of types); the requested depth
    cycles through 0-6 over the kept ones."""
    rng = random.Random(SWEEP_SEED)
    bases = [FinStruct.build("a", {})]
    bases += [FinStruct.build("ab", {pair_of("a", "b"): B(0, k)}) for k in (0, 1)]
    bases.append(FinStruct.build("abc", {pair_of("a", "b"): B(0, 0), pair_of("a", "c"): B(0, 1),
                                         pair_of("b", "c"): B(0, 0)}))
    out = []
    for base in bases:
        for name in SWEEP_STRATEGIES:
            left = {True: 1, False: 2}  # fault certificates, the others
            types = enumerate_types(base, 0, 2)
            for tau in rng.sample(types, len(types)):
                cert = refute(base, tau, sweep_strategy(name), len(out) % 7)
                if left[cert.kind == FAULT]:
                    left[cert.kind == FAULT] -= 1
                    out.append((name, cert))
                if not any(left.values()):
                    break
    return out


FAULT_REASONS = ("", "self-claim", "level-bound", "incoherent-order", "virtual-triangle",
                 "unheard-of")


def single_edits(cert: RefutationCertificate, rng: random.Random, per_field: int = 6):
    """Seeded edits of one stored field of ``cert`` each: up to
    ``per_field`` of each kind, drawn from every way to edit that field
    over the structure's points, a few colors, the types over the base and
    a few spellings of them, the recorded hashes and a forged one, and the
    fault reasons."""
    s, base, replace = cert.structure, cert.base_points, dataclasses.replace
    pts = s.points + ("zz",)
    colors = sorted({*colors_of(s).values(), *(B(0, k) for k in range(4)), B(1, 0)},
                    key=ColorTerm.sort_key)

    def pick(options):
        return rng.sample(options, min(per_field, len(options)))

    def edited(seq, k, item):  # item None drops entry k; k past the end appends
        return tuple(seq[:k]) + (() if item is None else (item,)) + tuple(seq[k + 1:])

    def swapped(seq, k):
        return tuple(seq[:k]) + (seq[k + 1], seq[k]) + tuple(seq[k + 2:])

    for (u, v), c in pick([(uv, c) for uv in s.pairs() for c in colors if c != s.color(*uv)]):
        yield replace(cert, structure=recolor(s, u, v, c))
    bases = [edited(base, k, p) for k in range(len(base) + 1) for p in (*pts, None)]
    bases += [swapped(base, k) for k in range(len(base) - 1)]
    yield from pick([replace(cert, base_points=b) for b in dict.fromkeys(bases) if b != base])
    texts = [format_type(t) for t in enumerate_types(s.restrict(base), 0, 2)]
    texts += [cert.tau_text + " ", cert.tau_text.replace(" ", "  ", 1), "type", ""]
    yield from pick([replace(cert, tau_text=t) for t in texts if t != cert.tau_text])
    hashes = sorted({h for _, h, _, _ in cert.queries} | {"deadbeefdeadbeef"})
    tokens = (pts, hashes, (ABOVE, BELOW, "self"), [c.text() for c in colors] + ["-"])
    for i, news in enumerate(tokens):  # point, hash, side, color
        yield from pick([replace(cert, queries=edited(cert.queries, k,
                                                      query[:i] + (new,) + query[i + 1:]))
                         for k, query in enumerate(cert.queries)
                         for new in news if new != query[i]])
    for field in ("t1", "t2"):
        yield from pick([replace(cert, **{field: p}) for p in (*pts, None)
                         if p != getattr(cert, field)])
    steps = cert.transcript
    options = [edited(steps, k, None) for k in range(len(steps))]
    options += [swapped(steps, k) for k in range(len(steps) - 1)]
    for k, step in enumerate(steps):
        for i, old in enumerate(step):
            news = ("fwd", "bwd", "sideways") if i == 0 else pts
            options += [edited(steps, k, step[:i] + (new,) + step[i + 1:])
                        for new in news if new != old]
    yield from (replace(cert, transcript=o) for o in pick(options))
    flip = {"fwd": "bwd", "bwd": "fwd"}  # a step's pair spelled the other way round
    yield from pick([replace(cert, transcript=edited(steps, k, (flip[d], w, u)))
                     for k, (d, u, w) in enumerate(steps)])
    yield from (replace(cert, reason=r) for r in FAULT_REASONS if r != cert.reason)


def test_checker_agrees_with_the_reference_on_single_edits():
    """Every honest certificate is accepted, and on every seeded edit of one
    of its fields the checker's verdict is the reference checker's; an
    accepted edit reads back from its text and is accepted again."""
    rng = random.Random(SWEEP_SEED)
    kinds, depths, verdicts = set(), set(), []
    certs = honest_certificates()
    for name, cert in certs:
        strategy = sweep_strategy(name)
        kinds.add(cert.kind)
        if cert.kind != FAULT:
            depths.add(len(cert.transcript))
        assert check_certificate(cert, strategy).ok and reference_check(cert, strategy)
        for m in single_edits(cert, rng):
            ok = check_certificate(m, strategy).ok
            assert ok == reference_check(m, strategy), (name, m)
            verdicts.append(ok)
            if ok:
                assert check_certificate(parse_certificate(format_certificate(m)), strategy).ok
    assert kinds == {MONO, EQUIV, FAULT} and depths == set(range(7))
    assert {len(cert.base_points) for _, cert in certs} == {1, 2, 3}
    assert {name for name, _ in certs} == set(SWEEP_STRATEGIES)
    assert len(verdicts) > 1000 and 0 < sum(verdicts) < len(verdicts)


def checker_reasons() -> list[re.Pattern]:
    """Every reason ``check_certificate`` can return, read from its source:
    each ``CheckResult(False, ...)`` text, a formatted field matching any
    text."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(check_certificate)))
    patterns = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "CheckResult" \
                and len(node.args) == 2:
            reason = node.args[1]
            parts = reason.values if isinstance(reason, ast.JoinedStr) else [reason]
            patterns.append(re.compile("".join(
                re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts)))
    return patterns


def test_readme_names_only_reasons_the_checker_returns():
    """Each `rejected <reason>` the README names, with ``<k>`` read as a
    step number, is a reason the checker can return."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named = [" ".join(m.split()).replace("<k>", "3")
             for m in re.findall(r"`rejected\s+([^`]+)`", readme.read_text())]
    patterns = checker_reasons()
    assert len(named) >= 3
    for reason in named:
        assert any(p.fullmatch(reason) for p in patterns), reason
    for retired in ("transcript-collision", "transcript-step-invalid", "missing-fields",
                    "missing-alpha", "alpha-moves-base", "alpha-misses-realizers",
                    "realizer-inside-base", "unqueried-realizer", "base-not-in-structure",
                    "bad-transcript-direction", "unknown-kind 'x'", "reason-without-fault",
                    "recorded-answer-mismatch", "depth-mismatch", "alpha-transcript-divergence",
                    "triangle-condition-fails", "no-violation"):
        assert not any(p.fullmatch(retired) for p in patterns)


def lacking_base_query() -> tuple[RefutationCertificate, str]:
    """The first non-fault depth-0 certificate over a two-point base whose
    type leaves a base point to its query, with that query dropped."""
    x = FinStruct.build("ab", {pair_of("a", "b"): B(0, 0)})
    for tau in enumerate_types(x, 0, 2):
        for name in sorted(BUNDLED_STRATEGIES):
            cert = refute(x, tau, make_strategy(name), 0)
            if cert.kind != FAULT and len(tau.support) < 2:
                queries = tuple(q for q in cert.queries if q[0] in tau.support or q[0] not in x)
                return dataclasses.replace(cert, queries=queries), name
    raise AssertionError("no such certificate")


def reason_cases() -> list[tuple[str, RefutationCertificate, str, str]]:
    """(mutant name, certificate, strategy name, reason): one named mutant
    of a small honest certificate for each reason the checker can give."""
    _, _, mono = mono_certificate()
    _, _, equiv = equiv_certificate()
    _, _, fault = fault_certificate()
    replace, s, a, t1 = dataclasses.replace, mono.structure, mono.base_points[0], mono.t1
    first, h, _, color = mono.queries[0]
    holed = colors_of(s)
    del holed[pair_of(a, t1)]
    sideways = (("sideways",) + mono.transcript[0][1:],) + mono.transcript[1:]
    return [
        ("pair-uncolored", replace(mono, structure=struct_of(s.points, holed)), "constant",
         f"malformed-structure: missing color for pair ({a}, {t1})"),
        ("pair-over-level", replace(mono, structure=recolor(s, a, t1, B(1, 0))), "constant",
         "invalid-structure: level-bound"),
        ("base-unknown-point", replace(mono, base_points=("zz",)), "constant",
         "base-order-mismatch"),
        ("type-unparsable", replace(mono, tau_text="type"), "constant",
         "bad-type: bad type text 'type'"),
        ("type-trailing-space", replace(mono, tau_text=mono.tau_text + " "), "constant",
         "type-not-canonical"),
        ("query-at-unknown-point", replace(mono, queries=(("zz", h, ABOVE, color),)),
         "constant", "query-point-missing"),
        ("query-hash-forged", forged_hash(mono), "constant", f"hash-mismatch at {first}"),
        ("query-side-flipped", replace(mono, queries=((first, h, BELOW, color),)
                                       + mono.queries[1:]),
         "constant", f"answer-mismatch at {first}"),
        ("fault-claimed-without-one", replace(mono, reason="virtual-triangle"), "constant",
         "fault-not-reproduced"),
        ("fault-misnamed", replace(fault, reason="self-claim"), "constant",
         "fault-mismatch: virtual-triangle != self-claim"),
        ("fault-with-depth-and-alpha", replace(fault, transcript=(("fwd", a, a),)), "constant",
         "fault-with-back-and-forth"),
        ("fault-called-triangle", replace(fault, reason=""), "constant", "hidden-strategy-fault"),
        ("realizer-in-base", replace(mono, t2=a), "constant", "bad-realizers"),
        ("base-query-dropped", *lacking_base_query(), "unqueried-base-point"),
        ("realizer-of-another-type", forged_type(mono), "constant",
         "realizer-type-mismatch at u0"),
        # the realizers swapped: the answer at t1 is then the old t2's
        ("q-forged", replace(equiv, t1=equiv.t2, t2=equiv.t1), "index-sensitive",
         "pair-color-mismatch"),
        ("alpha-second-image-of-base",
         replace(mono, transcript=mono.transcript + (("bwd", a, a),)), "constant",
         "alpha-not-iso"),
        ("step-sideways", replace(mono, transcript=sideways), "constant",
         "transcript-step-order at step 0"),
    ]


REASON_CASES = reason_cases()


@pytest.mark.parametrize("cert,name,reason", [case[1:] for case in REASON_CASES],
                         ids=[case[0] for case in REASON_CASES])
def test_each_named_mutant_gets_its_reason(cert, name, reason):
    assert check_certificate(cert, make_strategy(name)) == refuter.CheckResult(False, reason)
    assert not reference_check(cert, make_strategy(name))


def test_named_mutants_reach_every_reason():
    """The named mutants give every reason the checker's source names, one
    reason each."""
    patterns = checker_reasons()
    reached = [[p for p in patterns if p.fullmatch(case[-1])] for case in REASON_CASES]
    assert all(len(hits) == 1 for hits in reached)
    assert sorted(hits[0].pattern for hits in reached) == sorted(p.pattern for p in patterns)


def test_forged_hash_names_its_query():
    """Forging the structure hash of any query is rejected at that query."""
    for maker, name in ((mono_certificate, "constant"),
                        (equiv_certificate, "index-sensitive"),
                        (fault_certificate, "constant")):
        _, _, cert = maker()
        for k, (point, *_) in enumerate(cert.queries):
            res = check_certificate(forged_hash(cert, k), make_strategy(name))
            assert res.reason == f"hash-mismatch at {point}"


def test_checking_leaves_the_certificate_palette_as_it_was():
    """Checking an honest or a forged certificate enters no color into the
    palette of its structure: a forged type's color stays out of it."""
    _, _, mono = mono_certificate()
    forged = forged_type(mono)
    assert forged.tau_text == "type supp=a cut=1 colors=b:0:7 level=0"
    cases = [(maker()[2], name, True) for maker, name in ((mono_certificate, "constant"),
                                                          (equiv_certificate, "index-sensitive"),
                                                          (fault_certificate, "constant"))]
    cases += [(forged, "constant", False), (forged_hash(mono), "constant", False),
              (parse_certificate(format_certificate(forged)), "constant", False)]
    for cert, name, honest in cases:
        palette = cert.structure.palette
        before = (list(palette.texts), dict(palette.ids))
        assert check_certificate(cert, make_strategy(name)).ok == honest
        assert (palette.texts, palette.ids) == before
    assert check_certificate(forged, make_strategy("constant")).reason == \
        "realizer-type-mismatch at u0"


def test_parse_certificate_rejects_garbage():
    with pytest.raises(InputError):
        parse_certificate("not a certificate\n")
    _, _, cert = mono_certificate()
    text = format_certificate(cert)
    with pytest.raises(InputError):
        parse_certificate(text.replace("VERDICT", "VERDIKT"))


def test_parse_certificate_reads_the_structure_leniently():
    """Blank lines aside, only the structure section may differ from what
    the writer writes: its color lines may come in any order."""
    _, _, cert = equiv_certificate()
    text = format_certificate(cert)
    colors = [line for line in text.splitlines() if line.startswith("color ")]
    reordered = text.replace("\n".join(colors), "\n".join(reversed(colors)))
    assert reordered != text
    again = parse_certificate(reordered.replace("\n", "\n\n"))
    assert format_certificate(again) == text
    assert check_certificate(again, make_strategy("index-sensitive")).ok


def test_parse_certificate_refuses_a_triangle_without_q():
    """The ``q`` line spells the log's answer at ``t1``: a triangle
    certificate without it is refused, not a crash, citing the line where
    the frame has it."""
    _, _, cert = mono_certificate()
    text = format_certificate(cert)
    line = f"q {cert.recorded_answers()[0][1]}"
    cut = text.replace(f"\n{line}\n", "\n", 1)
    assert cut != text
    lineno = text.splitlines().index(line) + 1
    with pytest.raises(InputError, match=f"^line {lineno}: certificate is not in canonical form$"):
        parse_certificate(cut)


# ---------------------------------------------------------------------------
# external strategies over the line protocol
# ---------------------------------------------------------------------------

def write_program(tmp_path, reply: str) -> str:
    """A line-protocol program that sends ``reply`` to every query."""
    script = tmp_path / "program.py"
    script.write_text(textwrap.dedent(f"""\
        #!/usr/bin/env python3
        import sys
        for line in sys.stdin:
            tok = line.split()
            if tok and tok[0] == "query":
                sys.stdout.write("{reply}\\n")
                sys.stdout.flush()
    """))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


@pytest.fixture
def constant_program(tmp_path):
    return write_program(tmp_path, "answer above b:0:0")


def test_subprocess_strategy_roundtrip(constant_program):
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    with SubprocessStrategy([sys.executable, constant_program]) as strategy:
        cert = refute(x, tau, strategy, 2)
    assert cert.kind == MONO
    with SubprocessStrategy([sys.executable, constant_program]) as checker:
        assert check_certificate(cert, checker).ok


def test_subprocess_strategy_is_reaped_when_refute_raises(tmp_path):
    """Leaving the ``with`` by an exception still closes both pipes and
    reaps the program; a leaked pipe would fail the suite with a
    ResourceWarning."""
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    program = write_program(tmp_path, "answer above nonsense")
    with pytest.raises(InputError, match="bad color term"):
        with SubprocessStrategy([sys.executable, program]) as strategy:
            refute(x, tau, strategy, 2)
    assert strategy._proc.returncode == 0
    assert strategy._proc.stdin.closed and strategy._proc.stdout.closed


@pytest.mark.parametrize("name", sorted(BUNDLED_STRATEGIES))
def test_every_bundled_strategy_works_in_with(name):
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    with make_strategy(name) as strategy:
        cert = refute(x, tau, strategy, 2)
    with make_strategy(name) as checker:
        assert check_certificate(cert, checker).ok


# ---------------------------------------------------------------------------
# positive control
# ---------------------------------------------------------------------------

def test_control_empty_order_is_trivially_equivariant():
    r = control_lo((), 0, 3, 10)
    assert r.violations == 0


def test_control_two_points_middle_cut():
    r = control_lo(("a", "b"), 1, 3, 20)
    assert r.violations == 0
    assert r.checks > 0


def test_control_all_small_orders_and_cuts():
    for size in range(4):
        order = tuple(f"p{i}" for i in range(size))
        for cut in range(size + 1):
            r = control_lo(order, cut, 3, 20)
            assert r.violations == 0, (size, cut)


def test_control_has_no_triangle_condition():
    # pure linear orders carry no colors, so the triangle half of the
    # refutation procedure is vacuous; the report only ever counts order
    # equivariance checks
    r = control_lo(("a", "b", "c"), 2, 3, 20)
    assert r.violations == 0
    text = format_control_report(r)
    assert "violations 0" in text


def test_control_is_deterministic():
    r1 = control_lo(("a", "b"), 1, 3, 20)
    r2 = control_lo(("a", "b"), 1, 3, 20)
    assert format_control_report(r1) == format_control_report(r2)


def test_control_grows_past_a_taken_name():
    """Over the order ``g0`` the first growth skips the taken ``g0`` and
    names ``g1``; ``grown`` counts both names drawn."""
    r = control_lo(("g0",), 0, 1, 1)
    assert (r.grown, r.checks, r.violations) == (2, 2, 0)


def test_control_takes_zero_and_refuses_negative_depth_or_samples():
    assert control_lo(("a",), 0, 0, 1).checks == 1
    assert control_lo(("a",), 0, 1, 0).checks == 0
    for depth, samples in ((-1, 1), (1, -1)):
        with pytest.raises(InputError, match="depth and samples must be nonnegative"):
            control_lo(("a",), 0, depth, samples)


def test_control_rejects_bad_cut():
    with pytest.raises(InputError) as exc:
        control_lo(("a",), 5, 3, 10)
    assert str(exc.value) == "cut 5 out of range"


def test_back_and_forth_reads_no_color_text(monkeypatch):
    """At depth 100, ``realize_image`` calls no ``ColorTerm.text`` and
    builds a ``ColorTerm`` only at the first read of a palette id."""
    inside: list[str] = []
    counts = {"text": 0, "built": 0, "first_reads": 0}
    text, post_init = ColorTerm.text, ColorTerm.__post_init__

    def counting_text(self):
        counts["text"] += bool(inside)
        return text(self)

    def counting_post_init(self):
        counts["built"] += bool(inside)
        post_init(self)

    def traced(a, s, mapping, u):
        read = len(a.current.palette._terms)
        inside.append(u)
        try:
            return realize_image(a, s, mapping, u)
        finally:
            inside.pop()
            counts["first_reads"] += len(a.current.palette._terms) - read

    monkeypatch.setattr(ColorTerm, "text", counting_text)
    monkeypatch.setattr(ColorTerm, "__post_init__", counting_post_init)
    monkeypatch.setattr(refuter, "realize_image", traced)
    x = FinStruct.build("a", {})
    tau = OnePointType.build(x, ("a",), 1, (B(0, 1),), 0)
    cert = refute(x, tau, make_strategy("index-sensitive"), 100)
    assert len(cert.transcript) == 100
    assert counts["text"] == 0
    assert counts["built"] == counts["first_reads"]
