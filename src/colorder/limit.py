"""Finite approximations of the generic limit.

An approximation grows a level-0 structure by realizing one-point types on a
deterministic dovetailing schedule: rounds sweep (window, budget) blocks in
increasing window+budget, and each block enumerates every type over every
subset of the first ``window`` created points.  A ledger of realized tasks
keeps growth idempotent.  Partial isomorphisms extend by transporting the
type of a new point through the map and realizing it on the other side,
growing the approximation whenever no realizer exists yet; that one step,
:func:`realize_image`, also embeds structures and drives the refuter's
back-and-forth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .core import (Embedding, FinStruct, InputError, copied_rows, first_free, format_struct,
                   gather, preserves, read_lines, row_masks, struct_chunks, validate)
from .types import (OnePointType, check_realizable, enumerate_types, insert_point,
                    point_key)


class Approximation:
    """A growing finite stage of the generic limit.

    Owned by one logical actor at a time; all growth goes through one write
    step, which :meth:`realize` reaches after checking the type and
    :func:`realize_image` reaches directly.

    The approximation owns its rows, copy-on-write.  Reading
    :attr:`current` marks them shared, and the structure read stays as it
    was; the next realization then copies each row as it inserts the new
    point's entry.  Otherwise the realization inserts in place, so growth
    that nobody reads (a run of :func:`grow` steps) copies no row.  The
    write path (the schedule's restrictions, :meth:`realizer_of`, the check
    in :meth:`realize` and the new point's name) reads the structure
    without marking it.  The seed's rows are the caller's, so they count
    as read.

    A point's birth id is its index in ``birth``.  For each birth id the
    approximation keeps its neighbour masks: each color id mapped to the
    bitmask, over birth ids, of the points joined to that point in that
    color.  They are built once from the seed rows and updated after each
    realization (the new point's masks are those built while coloring it,
    and each old point gains the new point's bit in one mask), so a new point
    is colored with O(n) big-int operations.  The masks live here, not in
    the structures: ``OnePointType.base`` holds earlier structures, which
    stay immutable.
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
        self._s = seed  # the structure grown so far
        self._shared = True  # its rows may be read elsewhere: the seed's are the caller's
        self.budget_cap = budget_cap
        self.ledger: set[tuple] = set()  # keys of realized types: color texts, palette-free
        self.birth: list[str] = list(seed.points)
        self.steps_done = 0
        # u0, u1, ...; no name is ever freed, so each one passed is taken
        self._names = map("u{}".format, itertools.count())
        self._masks = row_masks(seed.rows)  # neighbour masks, by birth id
        self._ids = list(range(len(seed.points)))  # birth ids, by position
        self._tasks = self._schedule()

    @property
    def current(self) -> FinStruct:
        """The structure grown so far.  It stays as it is: the next
        realization copies its rows before writing them."""
        self._shared = True
        return self._s

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
                yield self._s.restrict(subset)

    def realizer_of(self, tau: OnePointType) -> str | None:
        """Smallest point (in structure order) realizing the task, if any.
        Only the points between the support points around the cut can; each
        one's row is gathered at the support positions (``core.gather``)
        and compared, as a tuple, with the type's ids."""
        s = self._s
        idx = [s.pos[p] for p in tau.support]
        ids = s.palette.translate_ids(tau.base.palette, tau.ids)
        # the points with the type's cut lie strictly between two support points
        lo = idx[tau.cut - 1] + 1 if tau.cut else 0
        hi = idx[tau.cut] if tau.cut < len(idx) else len(s.points)
        get, rows = gather(idx), s.rows
        return next((s.points[i] for i in range(lo, hi) if get(rows[i]) == ids), None)

    def realize(self, tau: OnePointType) -> str:
        """Realize ``tau`` as a new point named ``u<k>``, the first such
        name the structure does not use (seed names are skipped), after
        checking that ``tau`` fits the current structure."""
        check_realizable(self._s, tau)
        return self._realize(tau)

    def _realize(self, tau: OnePointType) -> str:
        """The write step, unchecked: ``tau`` must fit the current
        structure.  Colors the new point from the kept masks, and writes
        the rows in place unless :attr:`current` was read since the last
        write."""
        f = self._s
        u = first_free(self._names, f)
        rows = copied_rows(f.rows) if self._shared else f.rows
        self._s = insert_point(f, tau, u, self._masks, self._ids, rows)
        self._shared = False
        self.birth.append(u)
        self.ledger.add(tau.key())
        return u

    def format(self, name: str = "approx") -> str:
        """The text of :meth:`chunks`, made at once from the owned
        structure, so nothing is marked read."""
        return format_struct(self._s, name) + self._ledger_text()

    def chunks(self, name: str = "approx") -> Iterator[str]:
        """:meth:`format` as a stream: ``core.struct_chunks`` of
        :attr:`current`, then the ledger in one chunk.  They print the
        approximation as it is now: the structure is read, so growing it
        meanwhile copies its rows first, and the ledger is spelled here."""
        return itertools.chain(struct_chunks(self.current, name), (self._ledger_text(),))

    def _ledger_text(self) -> str:
        return "ledger\n" + "".join(sorted(
            f"task supp={','.join(supp)} cut={cut} colors={','.join(texts)}\n"
            for supp, cut, texts in self.ledger))


def grow(a: Approximation, steps: int) -> Approximation:
    """Run ``steps`` schedule steps; each takes the next task and realizes
    it unless the ledger already covers it or a realizer already exists."""
    if steps < 0:
        raise InputError("steps must be nonnegative")
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
        return preserves(self.pairs, s, s)


def realize_image(a: Approximation, s: FinStruct, mapping: dict[str, str],
                  u: str) -> str:
    """The one extension step: transport the type of ``u`` over the domain
    of ``mapping`` (points of ``s``) through the map into the approximation,
    and return its smallest realizer there, realizing the type when none
    exists yet.  ``mapping`` must embed its domain into ``a.current``.

    The target needs no re-check: it is the type of an existing point of
    a valid ``s`` carried through a map that preserves order and colors,
    so its support is ordered, agrees with ``a.current`` and closes no
    monochromatic triangle.  Every caller passes such a map: ``embed``
    builds its map with this step from a validated structure,
    ``extend_partial_iso`` checks its map first, and ``refute`` starts
    from the map fixing the base and sending ``t1`` to ``t2``, a realizer
    of the same type over it, and extends it only by this step.  The
    certificate checker checks the finished map once, and so every step
    along with it."""
    dom = s.sorted_points(mapping)
    _, cut, ids = point_key(s, u, dom)  # ids in s.palette, foreign only from embed
    target = OnePointType(a.current, tuple(mapping[d] for d in dom), cut,
                          a.current.palette.translate_ids(s.palette, ids), a.current.level)
    v = a.realizer_of(target)
    return a._realize(target) if v is None else v


def extend_partial_iso(a: Approximation, p: PartialIso,
                       u: str) -> tuple[Approximation, PartialIso]:
    """Extend a partial isomorphism of the approximation to cover ``u``
    by one :func:`realize_image` step.  Never fails on a valid map."""
    if u not in a.current:
        raise InputError(f"unknown point {u!r}")
    if u in p.domain():
        raise InputError(f"point {u!r} already in the domain")
    if not p.check(a.current):
        raise InputError("not a partial isomorphism")
    return a, p.extended(u, realize_image(a, a.current, p.fwd(), u))


def embed(a: Approximation, s: FinStruct) -> tuple[Approximation, Embedding]:
    """Embed a valid structure into the approximation point by point, each
    point realized as the image of its type over its predecessors."""
    v = validate(s)
    if not v:
        raise InputError(f"invalid structure: {v.reason}")
    if s.level != 0:
        raise InputError("only level-0 structures embed into an approximation")
    mapping: dict[str, str] = {}
    for q in s.points:
        mapping[q] = realize_image(a, s, mapping, q)
    return a, Embedding(s, a.current, tuple(mapping.items()))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def format_pairs(pairs: Iterable[tuple[str, str]]) -> str:
    """One ``pair <u> <v>`` line per pair: a partial isomorphism's
    ``pairs`` or an embedding's ``mapping``."""
    return "".join(f"pair {u} {v}\n" for u, v in pairs)


def parse_pairs(source: str | TextIO) -> PartialIso:
    """Parse ``pair <id> <id>`` lines, blank lines skipped, from a text or
    an open text file, split as ``core.read_lines`` splits them."""
    pairs = []
    for lineno, raw in enumerate(read_lines(source), 1):
        tok = raw.split()
        if not tok:
            continue
        if tok[0] != "pair" or len(tok) != 3:
            raise InputError(f"line {lineno}: expected 'pair <id> <id>'")
        pairs.append((tok[1], tok[2]))
    return PartialIso(tuple(pairs))
