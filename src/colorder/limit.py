"""Finite approximations of the generic limit.

An approximation grows a level-0 structure by realizing one-point types on a
deterministic dovetailing schedule: rounds sweep (window, budget) blocks in
increasing window+budget, and each block enumerates every type over every
subset of the first ``window`` created points.  A ledger of realized tasks
keeps growth idempotent.  Partial isomorphisms extend by transporting the
type of a new point through the map and realizing it on the other side,
growing the approximation whenever no realizer exists yet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import Embedding, FinStruct, InputError, format_struct, validate
from .types import (OnePointType, enumerate_types, fresh_point_name,
                    point_key, realize_type)


class Approximation:
    """A growing finite stage of the generic limit.

    Owned by one logical actor at a time; all growth goes through
    :func:`grow`, :func:`extend_partial_iso` or :func:`embed`.
    """

    def __init__(self, seed: FinStruct | None = None, budget_cap: int = 2):
        seed = FinStruct.empty() if seed is None else seed
        if seed.level != 0:
            raise InputError("approximations live at level 0")
        v = validate(seed)
        if not v:
            raise InputError(f"invalid seed structure: {v.reason}")
        if budget_cap < 1:
            raise InputError("budget cap must be at least 1")
        self.current = seed
        self.budget_cap = budget_cap
        self.ledger: set[tuple] = set()  # keys of realized types
        self.birth: list[str] = list(seed.points)
        self.steps_done = 0
        self._tasks = self._schedule()

    # -- schedule -----------------------------------------------------------

    def _schedule(self) -> Iterator[OnePointType]:
        for total in itertools.count(1):
            for window in range(total):
                budget = total - window
                if budget > self.budget_cap:
                    continue
                for sub in self.substructures(window):
                    yield from enumerate_types(sub, 0, budget)

    def substructures(self, window: int) -> Iterator[FinStruct]:
        """The restrictions to every subset of the first ``window`` created
        points, by size, then by creation order."""
        first = self.birth[:window]
        for size in range(len(first) + 1):
            for subset in itertools.combinations(first, size):
                yield self.current.restrict(subset)

    def realizer_of(self, tau: OnePointType) -> str | None:
        """Smallest point (in structure order) realizing the task, if any."""
        supp = set(tau.support)
        key = tau.key()
        for u in self.current.points:
            if u not in supp and point_key(self.current, u, tau.support) == key:
                return u
        return None

    def realize(self, tau: OnePointType) -> str:
        new, u = realize_type(self.current, tau,
                              name=fresh_point_name(self.current))
        self.current = new
        self.birth.append(u)
        self.ledger.add(tau.key())
        return u

    def format(self, name: str = "approx") -> str:
        out = [format_struct(self.current, name), "ledger\n"]
        lines = sorted(
            f"task supp={','.join(supp)} cut={cut} "
            f"colors={','.join(c.text() for c in cols)}\n"
            for supp, cut, cols in self.ledger)
        return "".join(out) + "".join(lines)


def grow(a: Approximation, steps: int) -> Approximation:
    """Run ``steps`` schedule steps; each takes the next task and realizes
    it unless the ledger already covers it or a realizer already exists."""
    for _ in range(steps):
        tau = next(a._tasks)
        a.steps_done += 1
        key = tau.key()
        if key in a.ledger:
            continue
        if a.realizer_of(tau) is not None:
            a.ledger.add(key)
            continue
        a.realize(tau)
    return a


def saturation_check(a: Approximation, window: int, budget: int) -> bool:
    """Audit, by direct re-enumeration, that every budgeted type over every
    subset of the first ``window`` created points has a realizer.  A zero
    window inspects no subsets at all and holds vacuously."""
    if window == 0:
        return True
    return all(a.realizer_of(tau) is not None
               for sub in a.substructures(window)
               for tau in enumerate_types(sub, 0, budget))


# ---------------------------------------------------------------------------
# Partial isomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialIso:
    """A finite order- and color-preserving partial bijection within one
    approximation, stored as (domain point, range point) pairs."""

    pairs: tuple[tuple[str, str], ...]

    def domain(self) -> tuple[str, ...]:
        return tuple(u for u, _ in self.pairs)

    def range(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.pairs)

    def fwd(self) -> dict[str, str]:
        return dict(self.pairs)

    def inverse(self) -> "PartialIso":
        return PartialIso(tuple((v, u) for u, v in self.pairs))

    def extended(self, u: str, v: str) -> "PartialIso":
        return PartialIso(self.pairs + ((u, v),))

    def check(self, s: FinStruct) -> bool:
        """A bijection between points of ``s`` that preserves order and
        colors; its inverse then does too."""
        fwd = self.fwd()
        if len(fwd) != len(self.pairs) or len(set(fwd.values())) != len(fwd):
            return False
        if any(u not in s or v not in s for u, v in self.pairs):
            return False
        return all((s.index(a) < s.index(c)) == (s.index(b) < s.index(d))
                   and s.color(a, c) == s.color(b, d)
                   for (a, b), (c, d) in itertools.combinations(self.pairs, 2))


def extend_partial_iso(a: Approximation, p: PartialIso,
                       u: str) -> tuple[Approximation, PartialIso]:
    """Extend a partial isomorphism to cover ``u``.

    Transports the type of ``u`` over the domain through the map and pairs
    ``u`` with the smallest realizer on the range side, growing the
    approximation when none exists yet.  Never fails.
    """
    if u not in a.current:
        raise InputError(f"unknown point {u!r}")
    fwd = p.fwd()
    if u in fwd:
        raise InputError(f"point {u!r} already in the domain")
    if not p.check(a.current):
        raise InputError("not a partial isomorphism")
    dom = a.current.sorted_points(fwd)
    _, cut, colors = point_key(a.current, u, dom)
    mapped = tuple(fwd[d] for d in dom)
    target = OnePointType.build(a.current, mapped, cut, colors, a.current.level)
    v = a.realizer_of(target)
    if v is None:
        v = a.realize(target)
    return a, p.extended(u, v)


def embed(a: Approximation, s: FinStruct) -> tuple[Approximation, Embedding]:
    """Embed a valid structure into the approximation point by point, each
    point realized as a type over the images of its predecessors."""
    v = validate(s)
    if not v:
        raise InputError(f"invalid structure: {v.reason}")
    if s.level != 0:
        raise InputError("only level-0 structures embed into an approximation")
    mapping: dict[str, str] = {}
    for i, q in enumerate(s.points):
        preds = s.points[:i]
        images = tuple(mapping[p] for p in preds)
        colors = tuple(s.color(p, q) for p in preds)
        target = OnePointType.build(a.current, images, len(images), colors, 0)
        found = a.realizer_of(target)
        mapping[q] = found if found is not None else a.realize(target)
    return a, Embedding.build(s, a.current, mapping)


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def format_pairs(p: PartialIso) -> str:
    return "".join(f"pair {u} {v}\n" for u, v in p.pairs)


def parse_pairs(text: str) -> PartialIso:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] != "pair" or len(tok) != 3:
            raise InputError(f"line {lineno}: expected 'pair <id> <id>'")
        pairs.append((tok[1], tok[2]))
    return PartialIso(tuple(pairs))
