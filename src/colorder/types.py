"""One-point extension types: extraction, enumeration, realization.

A type describes how a single new point would sit over an ambient structure:
a support (the points it is explicitly related to), a cut (its position
among the sorted support) and one color per support point.  The extension of
the support by the new point must itself be a valid structure.

A type's colors are ids in its base's palette, so enumeration, ordering,
realizer search and realization compare ints.  A type over one palette is
carried to another only through ``Palette.translate``.  Its identity,
``OnePointType.key()``, spells the colors as canonical texts, which
``format_type`` and a limit's ledger read.  Color terms are made only at
the boundary: ``parse_type``, strategies, level checks and certificates
read ``OnePointType.colors``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, MutableSequence, Sequence

from .core import (HOLE, ColorTerm, FinStruct, InputError, copied_rows, first_free, gather,
                   preserves, row_masks, stored_row, validate)

@dataclass(frozen=True, eq=False)
class OnePointType:
    """A partial one-point extension of ``base``.

    ``support`` lists the involved base points in base order, ``cut`` in
    [0, len(support)] places the new point among them (0 = below all), and
    ``ids`` aligns with ``support``: color ids in ``base.palette``; a
    crossing to another palette goes through ``Palette.translate``.
    ``key()``, the support, the cut and the colors' canonical texts, is the
    palette-free identity: two types are equal when their bases are equal
    and their keys are, and the level plays no role in either.  ``colors``
    reads the ids as terms for boundary readers: strategies, level checks
    and certificates.
    """

    base: FinStruct
    support: tuple[str, ...]
    cut: int
    ids: tuple[int, ...]
    level: int = 0

    @staticmethod
    def build(base: FinStruct, support: Sequence[str], cut: int,
              colors: Sequence[ColorTerm], level: int) -> "OnePointType":
        """Checked construction over a valid ``base``: beside the input
        checks, only the triangles through the new point need inspecting."""
        supp = tuple(support)
        cols = tuple(colors)
        if len(supp) != len(cols):
            raise InputError("support and colors must align")
        if base.sorted_points(supp) != supp:
            raise InputError("support must list distinct base points in base order")
        if not 0 <= cut <= len(supp):
            raise InputError(f"cut {cut} out of range for support of size {len(supp)}")
        for c in cols:
            if c.level > level:
                raise InputError(f"color {c.text()} exceeds type level {level}")
        idx = [base.pos[p] for p in supp]
        ids = tuple(map(base.palette.id, cols))
        for i, j in itertools.combinations(range(len(supp)), 2):
            if base.rows[idx[i]][idx[j]] == ids[i] == ids[j]:
                raise InputError("invalid one-point extension: monochromatic "
                                 f"triangle on {supp[i]}, {supp[j]} and the new point")
        return OnePointType(base, supp, cut, ids, level)

    @property
    def colors(self) -> tuple[ColorTerm, ...]:
        return tuple(map(self.base.palette.color, self.ids))

    def key(self) -> tuple[tuple[str, ...], int, tuple[str, ...]]:
        return (self.support, self.cut, tuple(map(self.base.palette.texts.__getitem__, self.ids)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OnePointType):
            return NotImplemented
        return self.key() == other.key() and self.base == other.base

    @cached_property
    def column(self) -> tuple[tuple[int, ...], int]:
        """The layout: the support positions in the base and the gap.
        Computed once per type, without reading base rows.
        ``katetov.PairTemplates`` builds one template per pair of layouts
        over a base and fills it with the two types' colors; a position
        outside the support reads the next level's marker from the
        template."""
        return tuple(map(self.base.pos.__getitem__, self.support)), gap_index(self)


def insert_position(ambient: FinStruct, support: Sequence[str], cut: int) -> int:
    """Minimal placement of the new point in ``ambient``: immediately after
    the largest support point below the cut, or at the very bottom."""
    if cut == 0:
        return 0
    return ambient.index(support[cut - 1]) + 1


def gap_index(tau: OnePointType) -> int:
    """Position of the type's element among the base points: the number of
    base points below it under the minimal consistent placement."""
    return insert_position(tau.base, tau.support, tau.cut)


def order_key(tau: OnePointType) -> tuple:
    """Sort key of the type order over one base.

    Encodes four rules, in order: separation by a base point (the gap),
    support size, the largest point of the support symmetric difference (the
    type containing it comes first), and the color at the largest support
    point where the colorings disagree.  :func:`enumerate_types` walks
    this order without building the key; a test holds the walk to it.
    """
    pos, color = tau.base.pos, tau.base.palette.color
    return (gap_index(tau), len(tau.support),
            tuple(-pos[p] for p in reversed(tau.support)),
            tuple(color(c).sort_key() for c in reversed(tau.ids)))


def point_key(s: FinStruct, u: str, over_sorted: tuple[str, ...]) -> tuple:
    """Support, cut and color ids (in ``s.palette``) of an existing point over
    a sorted subset, computed without materializing the base restriction."""
    i = s.index(u)
    if u in over_sorted:
        raise InputError(f"degenerate pair ({u!r}, {u!r})")
    idx = list(map(s.index, over_sorted))
    ids = gather(idx)(s.rows[i])
    if HOLE in ids:
        v = over_sorted[ids.index(HOLE)]
        raise InputError("missing color for pair ({}, {})".format(*sorted((u, v))))
    return (over_sorted, sum(1 for j in idx if j < i), ids)


def type_of_point(s: FinStruct, u: str, over: Iterable[str]) -> OnePointType:
    """Read off the type of an existing point over a point subset.

    The base of the returned type is ``s`` without ``u``; support, cut and
    colors are the induced data of ``u`` over ``over``.
    """
    if u not in s:
        raise InputError(f"unknown point {u!r}")
    over_set = set(over)
    if u in over_set:
        raise InputError(f"point {u!r} may not lie in its own support")
    supp = s.sorted_points(over_set)
    if len(supp) != len(over_set):
        raise InputError("support contains unknown points")
    _, cut, ids = point_key(s, u, supp)
    base = s.restrict(p for p in s.points if p != u)
    return OnePointType(base, supp, cut, ids, s.level)


def allowed_colors(x: FinStruct, level: int, budget: int) -> list[int]:
    """The enumeration's color pool as ids in ``x.palette``, in the color
    order: budget-many base colors per level up to ``level``, plus the
    marker and pair-code colors of a valid ``x``, each pair read once.
    The base part is empty, with no loop over levels, when no support can
    use it: over an empty base or at a budget below 1."""
    levels = range(level + 1) if x.points and budget > 0 else ()
    pool = [x.palette.id_text(f"b:{l}:{n}") for l in levels for n in range(budget)]
    used: set[int] = set()
    for i, row in enumerate(x.rows):
        used.update(row[i + 1:])
    pal = x.palette.color
    seen = (c for c in used if pal(c).kind != "b" and pal(c).level <= level)
    return sorted([*pool, *seen], key=lambda c: pal(c).sort_key())


MAX_TYPES = 100_000  # the most types one enumeration may produce


def check_type_count(x: FinStruct, level: int, budget: int) -> None:
    """Reject an enumeration over ``x`` that passes ``MAX_TYPES`` by size
    alone, reading no row: n points and a pool of at least
    P = budget * (level + 1) base colors give at least
    1 + 2nP + 3 C(n, 2) (P^2 - 1) types."""
    n, p = len(x.points), max(budget, 0) * max(level + 1, 0)
    if 1 + 2 * n * p + 3 * (n * (n - 1) // 2) * (p * p - 1) > MAX_TYPES:
        raise InputError(f"more than {MAX_TYPES} types")


def enumerate_types(x: FinStruct, level: int, budget: int) -> list[OnePointType]:
    """All valid types over ``x`` whose colors come from the budgeted pool,
    in the canonical type order, which the enumeration walks: by gap, then
    support size, then supports by descending positions, then colors in
    the color order with the largest support point's varying slowest.
    A support can be colored only if its subsets can, so gap 0 grows each
    colorable support by every position below its smallest, and each of
    its colorings by the colors of the new point that close no triangle.
    Gap g + 1 reuses the colorings of the supports holding position g,
    with the cut just above it.  More than ``MAX_TYPES`` types raise
    InputError, before the base is read when its size shows it, and else
    before a support's colorings past the cap are built."""
    check_type_count(x, level, budget)
    v = validate(x)
    if not v:
        raise InputError(f"invalid base structure: {v.reason}")
    if x.level > level:
        raise InputError("base structure exceeds the enumeration level")
    pool = allowed_colors(x, level, budget)
    out: list[OnePointType] = []
    holding: list[list] = [[] for _ in x.points]  # (support, colorings) by the positions held

    def emit(supp: tuple[str, ...], cut: int, colorings: list[tuple[int, ...]]) -> None:
        out.extend(OnePointType(x, supp, cut, ids, level) for ids in colorings)
        if len(out) > MAX_TYPES:
            raise InputError(f"more than {MAX_TYPES} types")

    emit((), 0, [()])
    walk = [((), (), [()])]  # colorable supports (positions, points, colorings), grown as walked
    for idx, supp, colorings in walk:
        for q in reversed(range(idx[0] if idx else len(x.points))):
            seg = gather(idx)(x.rows[q])  # q's pairs with the support
            # q may not take the color of a support point whose pair with q
            # has that color too: the three would close a triangle
            valid = ((c, *cols) for cols in colorings
                     for bad in [{a for a, b in zip(cols, seg) if a == b}]
                     for c in pool if c not in bad)
            new = list(itertools.islice(valid, MAX_TYPES + 1 - len(out)))
            if new:
                held, wider = (q, *idx), (x.points[q], *supp)
                emit(wider, 0, new)
                walk.append((held, wider, new))
                for i in held:
                    holding[i].append((wider, new))
    for p, point in enumerate(x.points):  # gap p + 1, just above position p
        for supp, colorings in holding[p]:
            emit(supp, supp.index(point) + 1, colorings)
    return out


def check_realizable(f: FinStruct, tau: OnePointType) -> None:
    """Raise InputError unless ``tau`` fits ``f``: its support lies in ``f``
    in the same order and colors, and its colors are within ``f``'s level."""
    for p in tau.support:
        if p not in f:
            raise InputError(f"support point {p!r} missing from the ambient structure")
    if not preserves(zip(tau.support, tau.support), tau.base, f):
        raise InputError("type support disagrees with the ambient structure")
    for c in tau.colors:
        if c.level > f.level:
            raise InputError(f"type color {c.text()} exceeds ambient level {f.level}")


def insert_point(f: FinStruct, tau: OnePointType, u: str, masks: list[dict[int, int]],
                 ids: list[int], rows: Iterable[MutableSequence[int]]) -> FinStruct:
    """Extend ``f`` by a new point ``u`` realizing ``tau``, unchecked:
    ``tau`` must fit ``f`` (see :func:`check_realizable`).  The one writer
    of rows: ``rows`` yields ``f``'s rows in order, and each gets the new
    point's entry in place.  Pass ``f.rows`` itself only when nothing else
    reads ``f`` again, as ``f`` is then left unusable; otherwise copies
    (:func:`core.copied_rows`, each copy made as it is written).

    The support colors are copied from the type; the new point is placed at
    the minimal consistent position; colors to the remaining points are
    chosen in position order, each the smallest base color that closes no
    monochromatic triangle with the points colored so far.

    ``ids[v]`` is an id of the point at position ``v``, and ``masks[i]``
    maps each color id to the bitmask, over ids, of the points joined to
    point ``i`` in that color.  A color is then admissible for a point
    exactly when its mask shares no bit with the new point's mask so far,
    so each point costs a few big-int ANDs.  Both are updated in place to
    describe the result: the new point's id is ``len(masks)``, and an old
    point's mask takes its bit as soon as their color is fixed (no test
    reads that bit, as the new point's own masks hold old ids only).
    """
    pal, pos = f.palette, f.pos
    new = [HOLE] * len(f.points)  # color ids from u, by old position
    assigned: dict[int, int] = {}  # the new point's masks
    bit = 1 << len(masks)  # the new point's bit in the old points' masks
    for p, c in zip(tau.support, pal.translate_ids(tau.base.palette, tau.ids)):
        i = ids[pos[p]]
        new[pos[p]] = c
        assigned[c] = assigned.get(c, 0) | 1 << i
        masks[i][c] = masks[i].get(c, 0) | bit
    smallest = pal.admissible_base
    for v, i in enumerate(ids):
        if new[v] == HOLE:
            c = new[v] = smallest(assigned, masks[i])
            assigned[c] = assigned.get(c, 0) | 1 << i
            masks[i][c] = masks[i].get(c, 0) | bit
    ins = insert_position(f, tau.support, tau.cut)
    ids.insert(ins, len(masks))
    masks.append(assigned)
    out = []
    for row, c in zip(rows, new):
        row.insert(ins, c)  # a memmove
        out.append(row)
    new.insert(ins, HOLE)
    out.insert(ins, stored_row(new))
    pts = (*f.points[:ins], u, *f.points[ins:])
    return FinStruct.of_rows(pts, tuple(out), pal, f.level)


def realize_type(f: FinStruct, tau: OnePointType,
                 name: str | None = None) -> tuple[FinStruct, str]:
    """Extend ``f`` by one new point realizing ``tau``, after checking that
    ``tau`` fits ``f``; see :func:`insert_point`."""
    check_realizable(f, tau)
    u = first_free(map("u{}".format, itertools.count()), f) if name is None else name
    if u in f:
        raise InputError(f"point {u!r} already present")
    return insert_point(f, tau, u, row_masks(f.rows), list(range(len(f.points))),
                        copied_rows(f.rows)), u


def transport(tau: OnePointType, mapping: Mapping[str, str],
              new_base: FinStruct) -> OnePointType:
    """Carry a type along an order-preserving point mapping.

    The image type has support ``mapping[support]`` with the same cut and
    colors, anchored on ``new_base``.
    """
    supp = tuple(mapping[p] for p in tau.support)
    return OnePointType.build(new_base, supp, tau.cut, tau.colors, tau.level)


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def format_type(tau: OnePointType) -> str:
    supp, cut, texts = tau.key()
    return f"type supp={','.join(supp)} cut={cut} colors={','.join(texts)} level={tau.level}"


def parse_type(text: str, base: FinStruct) -> OnePointType:
    tok = text.split()
    if len(tok) != 5 or tok[0] != "type":
        raise InputError(f"bad type text {text!r}")
    fields = {}
    for t in tok[1:]:
        k, _, v = t.partition("=")
        fields[k] = v
    try:
        supp = tuple(p for p in fields["supp"].split(",") if p)
        cut = int(fields["cut"])
        cols = tuple(ColorTerm.parse(c) for c in fields["colors"].split(",") if c)
        level = int(fields["level"])
    except (KeyError, ValueError) as exc:
        raise InputError(f"bad type text {text!r}") from exc
    return OnePointType.build(base, supp, cut, cols, level)
