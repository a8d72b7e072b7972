"""Finite edge-colored linear orders and their basic category.

A structure is a finite linearly ordered set of named points together with a
total coloring of unordered point pairs.  The single semantic constraint is
that no three points carry the same color on all three of their pairs.  This
module provides the color universe, validation, embeddings, deterministic
amalgamation, canonical codes, and the line-oriented text format.

A structure keeps its colors in position-indexed rows of small-int ids into
a palette of canonical color texts, so hot loops compare ints; a color's
``ColorTerm`` is parsed from its text on first read, and ``validate``
reads only each color's level, off the text.  Ids cross from one palette
to another only through ``Palette.translate``, and terms are made only
where a color is read or written as text.  That is the one
representation: ``FinStruct.build`` and ``parse_struct_lines`` turn their
input into one map per point, from each later position to the pair's
color id, for one private checked constructor that fills the rows from
those maps, and ``FinStruct.of_rows`` is the unchecked constructor (the
frozenset-keyed form of a coloring lives in ``tests/helpers.py`` as a
reference).  Reading streams: ``parse_struct_lines`` takes numbered lines
one at a time, which :func:`read_lines` splits from a text or an open file
one bounded chunk at a time, so a reader holds the maps, whose size grows
with the lines read, but never the file's text or a list of every line.

Costs: a color lookup is O(1); ``validate`` makes O(n^2) big-int operations
over per-color neighbour bitmasks (:func:`row_masks`); realizing a point
picks each of its colors from such masks, and since a stored row is an
``array('i')`` (:func:`stored_row`), each old row takes its new entry
with one memmove, after one memcpy only when the structure was read
(``limit.Approximation.current``); a functor extension
(``katetov.apply_K``) keeps the rows of its type elements lazy: a reader of
ids computes a pair color's text on each read and looks its id up in
``Palette.ids``, the one text-to-id table, and printing takes each row's
lines from the extension (``line_printer``) without entering them.
Printing streams: :func:`struct_chunks` yields the header and then one
chunk of color lines per point, so writing a structure holds one row's
text at a time, not the whole text.
"""

from __future__ import annotations

import itertools
import re
from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from collections.abc import Callable, Container, Iterable, Iterator, Mapping, Sequence
from operator import itemgetter
from typing import TextIO


class InputError(ValueError):
    """Malformed input: duplicate points, missing or duplicate pair colors,
    bad mappings, unparsable text.  Distinct from semantic invalidity."""


# ---------------------------------------------------------------------------
# Colors
# ---------------------------------------------------------------------------

BASE = "b"
MARKER = "m"
PAIRCODE = "k"

_KIND_RANK = {BASE: 0, MARKER: 1, PAIRCODE: 2}
_PAYLOAD = re.compile("[0-9a-f]+")  # a pair code's payload: lowercase hex, ASCII only


@dataclass(frozen=True)
class ColorTerm:
    """A color in the leveled universe.

    Level-l colors come in three kinds: numbered base colors ``b:l:n``, the
    single marker color ``m:l`` (l >= 1), and pair-class colors ``k:l:<hex>``
    (l >= 1) whose payload is a canonical code in lowercase hex.
    """

    kind: str
    level: int
    index: int = 0
    code: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise InputError(f"unknown color kind {self.kind!r}")
        if self.level < 0 or self.index < 0:
            raise InputError("negative level or index in color term")
        if self.kind in (MARKER, PAIRCODE) and self.level < 1:
            raise InputError(f"{self.kind!r} colors exist only at level >= 1")
        if self.kind == PAIRCODE and not _PAYLOAD.fullmatch(self.code):
            raise InputError("pair-code payload must be lowercase hex")

    @staticmethod
    def base(level: int, index: int) -> "ColorTerm":
        return ColorTerm(BASE, level, index=index)

    @staticmethod
    def marker(level: int) -> "ColorTerm":
        return ColorTerm(MARKER, level)

    @staticmethod
    def pair_code(level: int, code: str) -> "ColorTerm":
        return ColorTerm(PAIRCODE, level, code=code)

    def sort_key(self) -> tuple:
        return (self.level, _KIND_RANK[self.kind], self.index, self.code)

    def text(self) -> str:
        if self.kind == BASE:
            return f"b:{self.level}:{self.index}"
        if self.kind == MARKER:
            return f"m:{self.level}"
        return f"k:{self.level}:{self.code}"

    @staticmethod
    def parse(text: str) -> "ColorTerm":
        parts = text.split(":")
        try:
            if parts[0] == "b" and len(parts) == 3:
                return ColorTerm.base(int(parts[1]), int(parts[2]))
            if parts[0] == "m" and len(parts) == 2:
                return ColorTerm.marker(int(parts[1]))
            if parts[0] == "k" and len(parts) == 3:
                return ColorTerm.pair_code(int(parts[1]), parts[2])
        except InputError as exc:
            raise InputError(f"bad color term {text!r}: {exc}") from exc
        except ValueError as exc:
            raise InputError(f"bad color term {text!r}") from exc
        raise InputError(f"bad color term {text!r}")


def _text_level(text: str) -> int:
    """The level of the color whose canonical text is ``text``, read off
    the text (``b:<l>:``, ``m:<l>``, ``k:<l>:``) without parsing it."""
    return int(text.split(":", 2)[1])


def color_less(c1: ColorTerm, c2: ColorTerm) -> bool:
    """Strict total order on colors: by level, then kind (base < marker <
    pair code), then index or code payload."""
    return c1.sort_key() < c2.sort_key()


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

HOLE = -1  # row entry of the diagonal and of a pair left uncolored


def stored_row(ids: Iterable[int]) -> array:
    """A row as a structure stores it: an ``array('i')`` of color ids.
    Copying one is a memcpy and inserting an entry a memmove; fill it from
    a list or tuple, which array copies in one C loop."""
    return array("i", ids)


_WHOLE = itemgetter(slice(None))


def copied_rows(rows: Iterable[Sequence[int]]) -> Iterator[array]:
    """``rows``, each copied as it is read, by a slice taken in C: one
    memcpy for a stored row, and a stored row from a lazy one."""
    return map(_WHOLE, rows)


def gather(idx: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A reader that takes a row and gives back its entries at positions
    ``idx`` as a tuple, read in C: the one way to read a row segment."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return (lambda row: (row[idx[0]],)) if idx else (lambda row: ())


def first_free(names: Iterable[str], used: Container[str]) -> str:
    """The first of ``names`` that ``used`` lacks: the one search behind
    the names of realized, grown and amalgamated points (``u<k>``,
    ``g<k>``, ``<p>.a<k>``) and of type elements (``t<i>``, ``t<i>'``,
    ...).  ``names`` must hold a free one; an iterator is advanced past
    the name returned."""
    return next(p for p in names if p not in used)


def pair_of(u: str, v: str) -> frozenset:
    if u == v:
        raise InputError(f"degenerate pair ({u!r}, {u!r})")
    return frozenset((u, v))


class Palette:
    """An append-only table of canonical color texts; a color's id is its
    position, and its text (``ColorTerm.text()``) is its one identity.

    Structures derived from one another, and the one-point types over
    them, share a palette, so their rows and type colors compare as ints.
    Ids never change meaning, so a palette may list colors that some
    structure sharing it does not use: an enumeration's pool and a
    translation add colors.  A palette keeps texts only: a color's
    ``ColorTerm`` is parsed from its text on first read (:meth:`color`),
    so a color that is only ever printed, or whose level alone is read
    (:func:`_text_level`), never becomes a term.
    """

    __slots__ = ("texts", "ids", "base_ids", "_terms")

    def __init__(self):
        self.texts: list[str] = []
        self.ids: dict[str, int] = {}
        self.base_ids: dict[int, int] = {}  # id of b:0:n, by n
        self._terms: dict[int, ColorTerm] = {}  # terms read so far, by id

    def id(self, c: ColorTerm) -> int:
        """The id of ``c``, appending its text if new."""
        return self.id_text(c.text())

    def id_text(self, text: str) -> int:
        """The id of the color whose canonical text is ``text``, appending
        it if new.  ``text`` must be canonical: what ``ColorTerm.text()``
        returns for a valid term."""
        got = self.ids.get(text)
        if got is None:
            got = self.ids[text] = len(self.texts)
            self.texts.append(text)
            if text.startswith("b:0:"):
                self.base_ids[int(text[4:])] = got
        return got

    def color(self, c: int) -> ColorTerm:
        """The color with id ``c``, parsed from its text on first read."""
        got = self._terms.get(c)
        if got is None:
            got = self._terms[c] = ColorTerm.parse(self.texts[c])
        return got

    def translate(self, other: "Palette") -> "_IdMap":
        """Map the ids of ``other`` to the ids of the same colors here,
        adding each color this palette lacks."""
        return _IdMap(self, other)

    def translate_ids(self, other: "Palette", ids: tuple[int, ...]) -> tuple[int, ...]:
        """``ids`` of ``other`` as the ids of the same colors here: ``ids``
        itself when ``other`` is this palette, else through :meth:`translate`."""
        return ids if other is self else tuple(map(self.translate(other).__getitem__, ids))

    def admissible_base(self, a: Mapping[int, int], b: Mapping[int, int]) -> int:
        """Id of the smallest level-0 base color (by the color order) whose
        masks in ``a`` and ``b`` share no bit, appending the color if new.

        ``a`` and ``b`` map color ids to the bitmasks of the points joined
        to either end of the pair being colored (a missing id is an empty
        mask), so a color is rejected exactly when some third point is
        joined to both ends in it.  The search walks the present prefix
        ``b:0:0, b:0:1, ...`` and stops at the first base color that is
        absent or closes no monochromatic triangle.
        """
        n = 0
        while (c := self.base_ids.get(n)) is not None and a.get(c, 0) & b.get(c, 0):
            n += 1
        return c if c is not None else self.id_text(f"b:0:{n}")


class _IdMap(dict):
    """Ids of a source palette mapped to the ids of the same colors in a
    target palette (HOLE to HOLE), looked up by text on first use.  A color
    the target lacks is added to it, so its new id equals no row entry that
    already exists, and a lazy row that reads the color later gets that id.
    """

    def __init__(self, target: Palette, source: Palette):
        super().__init__({HOLE: HOLE})
        self._target, self._source = target, source.texts

    def __missing__(self, c: int) -> int:
        got = self[c] = self._target.id_text(self._source[c])
        return got


def _check_id(what: str, p: str) -> None:  # one token of a line
    if not p or any(ch.isspace() for ch in p):
        raise InputError(f"bad {what} {p!r}")


def _check_points(pts: tuple[str, ...]) -> None:
    seen = set()
    for p in pts:
        _check_id("point id", p)
        if p in seen:
            raise InputError(f"duplicate point {p!r}")
        seen.add(p)


def _check_complete(s: "FinStruct") -> None:
    """Reject an uncolored pair (the first in position order) and a
    negative level."""
    for i, row in enumerate(s.rows):
        tail = row[i + 1:]
        if HOLE in tail:
            u, v = sorted((s.points[i], s.points[i + 1 + tail.index(HOLE)]))
            raise InputError(f"missing color for pair ({u}, {v})")
    if s.level < 0:
        raise InputError("negative level")


def _build_checked(pts: tuple[str, ...], maps: Sequence[Mapping[int, int]],
                   palette: Palette, level: int) -> "FinStruct":
    """The checked structure over ``palette`` whose pair at positions
    ``(i, j)``, ``i < j``, has color id ``maps[i][j]``: one map per point,
    holding its later positions only, as a reader fills them line by line.
    Map ``i`` is complete when it holds ``n - 1 - i`` entries, so the first
    short map holds the first missing pair in position order.  Points,
    completeness and level are checked before any row is allocated, so a
    missing pair costs no O(n^2) memory, however many color lines were
    read: a reader keeps maps, not rows, for this reason.  Each row is
    stored once and filled in place."""
    _check_points(pts)
    n = len(pts)
    i = next((i for i, m in enumerate(maps) if len(m) < n - 1 - i), None)
    if i is not None:
        j = next(j for j in range(i + 1, n) if j not in maps[i])
        u, v = sorted((pts[i], pts[j]))
        raise InputError(f"missing color for pair ({u}, {v})")
    if level < 0:
        raise InputError("negative level")
    rows = tuple(stored_row([HOLE]) * n for _ in pts)
    for i, (row, m) in enumerate(zip(rows, maps)):
        for j, c in m.items():
            row[j] = rows[j][i] = c
    return FinStruct.of_rows(pts, rows, palette, level)


class FinStruct:
    """A finite linear order with a total pair coloring.

    ``points`` lists the points in increasing order.  Colors are stored as
    position-indexed rows of small-int ids: ``rows[i][j]`` is the id of the
    color between points ``i`` and ``j`` (HOLE on the diagonal) and
    ``palette.color(id)`` is that color (``palette.texts[id]`` its text), so
    a lookup costs two position lookups and two indexings.  ``rows`` is a
    tuple of :func:`stored_row` arrays, or, for a functor extension, a lazy
    provider with the same indexing whose stored rows are such arrays.
    ``level`` bounds the levels of all colors.

    Values are immutable after construction.  Arrays are mutable, so this
    is a rule of the code, not of the type: no code writes a row after
    :meth:`of_rows`.  A new structure copies the rows it changes, and
    earlier structures, kept as ``OnePointType.base`` or by a caller, stay
    as they were.  The one exception is a ``limit.Approximation``'s
    structure that nobody has read: its next realization writes its rows
    in place (``types.insert_point``), since no one can see them change.

    :meth:`build` is the one checked constructor and :meth:`of_rows` the
    unchecked one; a structure with a HOLE off the diagonal can only come
    from :meth:`of_rows`, and :func:`validate` reports it as malformed.
    The frozenset-keyed constructor and view of a coloring live in
    ``tests/helpers.py`` (``struct_of``, ``colors_of``) as test references.
    """

    @staticmethod
    def of_rows(points: tuple[str, ...], rows: Sequence[Sequence[int]],
                palette: Palette, level: int) -> "FinStruct":
        """Unchecked construction from rows over ``palette``."""
        s = FinStruct.__new__(FinStruct)
        s.points, s.rows, s.palette, s.level = points, rows, palette, level
        return s

    @staticmethod
    def build(points: Sequence[str], colors: Mapping[frozenset, ColorTerm],
              level: int = 0) -> "FinStruct":
        """Checked construction from a coloring keyed by two-element
        frozensets of point names."""
        pts = tuple(points)
        pos = {p: i for i, p in enumerate(pts)}
        palette = Palette()
        maps: list[dict[int, int]] = [{} for _ in pts]
        for key, c in colors.items():
            ends = sorted(pos.get(p, -1) for p in key)
            if len(ends) != 2 or ends[0] < 0:
                raise InputError(f"color given for unknown pair {sorted(key)}")
            maps[ends[0]][ends[1]] = palette.id(c)
        return _build_checked(pts, maps, palette, level)

    @staticmethod
    def empty(level: int = 0) -> "FinStruct":
        return FinStruct.of_rows((), (), Palette(), level)

    @cached_property
    def pos(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: str) -> bool:
        return p in self.pos

    def index(self, p: str) -> int:
        try:
            return self.pos[p]
        except KeyError:
            raise InputError(f"unknown point {p!r}") from None

    def color(self, u: str, v: str) -> ColorTerm:
        c = self.rows[self.pos[u]][self.pos[v]]
        if c == HOLE:
            raise KeyError(pair_of(u, v))
        return self.palette.color(c)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All pairs (u, v) with u before v, in lexicographic position order."""
        for i, j in itertools.combinations(range(len(self.points)), 2):
            yield self.points[i], self.points[j]

    def restrict(self, subset: Iterable[str]) -> "FinStruct":
        idx = sorted(map(self.index, set(subset)))
        get = gather(idx)
        rows = tuple(stored_row(get(self.rows[i])) for i in idx)
        return FinStruct.of_rows(tuple(self.points[i] for i in idx), rows,
                                 self.palette, self.level)

    def sorted_points(self, subset: Iterable[str]) -> tuple[str, ...]:
        sub = set(subset)
        return tuple(p for p in self.points if p in sub)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinStruct):
            return NotImplemented
        return (self.points == other.points and self.level == other.level
                and preserves(zip(self.points, self.points), other, self))

    __hash__ = None  # structures hold mappings; hash their canonical code


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`validate`.  ``triple`` names the first violating
    points (by order position) when a monochromatic triangle exists."""

    ok: bool
    reason: str = ""
    triple: tuple[str, str, str] | None = None
    color: ColorTerm | None = None

    def __bool__(self) -> bool:
        return self.ok


def row_masks(rows: Iterable[Iterable[int]]) -> list[dict[int, int]]:
    """Per row, each color id in it mapped to the bitmask of the positions
    holding it (HOLE included): the points joined to that row's point in
    that color."""
    masks = []
    for row in rows:
        m: dict[int, int] = {}
        bit = 1
        for c in row:
            m[c] = m.get(c, 0) | bit
            bit <<= 1
        masks.append(m)
    return masks


def _lowest_bit(m: int) -> int:
    return (m & -m).bit_length() - 1


def validate(s: FinStruct) -> Verdict:
    """Check the class membership of a structure.

    Returns a valid verdict iff no three points carry one color on all three
    pairs and every color's level is within the structure's level.  Malformed
    structures (duplicate points, partial coloring) raise InputError instead.
    The level bound is checked first; either violation names the first
    offending pair or triple in position order.

    One pass over each row past the diagonal, so each pair is read once,
    builds per point and color the bitmask of the later points joined to
    it in that color (bit 0 the next point); a pair (i, j) of color c then
    closes a triangle with exactly the points k > j set in both masks of
    c, so the scan costs one big-int AND per pair.
    """
    pts, rows, pal, texts = s.points, s.rows, s.palette.color, s.palette.texts
    _check_points(pts)
    tails = [row[i + 1:] for i, row in enumerate(rows)]
    masks = row_masks(tails)
    if s.level < 0 or any(HOLE in m for m in masks):
        _check_complete(s)
    used = {c for m in masks for c in m}
    over = [c for c in used if _text_level(texts[c]) > s.level]
    for i, m in enumerate(masks):
        later = [(_lowest_bit(m[c]), c) for c in over if c in m]
        if later:
            j, c = min(later)
            return Verdict(False, "level-bound", (pts[i], pts[i + 1 + j], pts[i]), pal(c))
    for i, (mi, tail) in enumerate(zip(masks, tails)):
        for j, c in enumerate(tail, i + 1):
            common = (mi[c] >> (j - i)) & masks[j].get(c, 0)
            if common:
                k = j + 1 + _lowest_bit(common)
                return Verdict(False, "monochromatic-triangle", (pts[i], pts[j], pts[k]), pal(c))
    return Verdict(True)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def preserves(pairs: Iterable[tuple[str, str]], s: FinStruct, t: FinStruct) -> bool:
    """True iff ``pairs`` (a point of ``s``, a point of ``t``) form an
    injective map that keeps the order and the color of every two points;
    an unknown point gives False.  Sorted by source position, both sides
    must strictly increase, and each source row must agree with its image
    row at every later source, so each pair is read once on either side.
    The one order-and-color check: ``is_embedding``, ``PartialIso.check``,
    ``types.check_realizable`` and ``FinStruct.__eq__`` call it."""
    spos, tpos = s.pos, t.pos
    try:
        ij = sorted([(spos[u], tpos[v]) for u, v in pairs])
    except KeyError:
        return False
    if not all(i0 < i1 and j0 < j1 for (i0, j0), (i1, j1) in zip(ij, ij[1:])):
        return False
    srows, trows = s.rows, t.rows
    trans = None if s.palette is t.palette else t.palette.translate(s.palette)
    for k, (i, j) in enumerate(ij, 1):
        srow, trow = srows[i], trows[j]
        for a, b in ij[k:]:
            c = srow[a]
            if (c if trans is None else trans[c]) != trow[b]:   # s's colors as ids of t
                return False
    return True


def is_embedding(mapping: Mapping[str, str], s: FinStruct, t: FinStruct) -> bool:
    """True iff ``mapping`` is an injective, order- and color-preserving map
    of the points of ``s`` into ``t``."""
    return len(mapping) == len(s.points) and preserves(mapping.items(), s, t)


@dataclass(frozen=True)
class Embedding:
    """An order- and color-preserving injection between structures.

    ``mapping`` pairs source points with their images, listed in source
    order.  :meth:`build` checks a map that comes from outside.  The code's
    own embeddings hold by construction and use the plain constructor: the
    identity, the amalgam maps, ``limit.embed``'s map and the functor's
    morphism map.
    """

    source: FinStruct
    target: FinStruct
    mapping: tuple[tuple[str, str], ...]

    @staticmethod
    def build(source: FinStruct, target: FinStruct,
              mapping: Mapping[str, str]) -> "Embedding":
        if not is_embedding(mapping, source, target):
            raise InputError("not an embedding")
        pairs = tuple((p, mapping[p]) for p in source.points)
        return Embedding(source, target, pairs)

    @staticmethod
    def identity(s: FinStruct) -> "Embedding":
        return Embedding(s, s, tuple((p, p) for p in s.points))

    @cached_property
    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    def apply(self, p: str) -> str:
        return self.as_dict[p]

    def compose(self, then: "Embedding") -> "Embedding":
        """This embedding followed by ``then``.  Two middle structures that
        are different objects are compared as text (points, level and pair
        texts), which enters no color into either palette."""
        mid, other = self.target, then.source
        if mid is not other and (mid.points, mid.level, canonical_code(mid)) != (
                other.points, other.level, canonical_code(other)):
            raise InputError("non-composable embeddings")
        return Embedding.build(
            self.source, then.target,
            {p: then.apply(q) for p, q in self.mapping})


# ---------------------------------------------------------------------------
# Amalgamation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Amalgam:
    result: FinStruct
    left: Embedding   # a -> result
    right: Embedding  # b -> result


def amalgamate(a: FinStruct, b: FinStruct, over: FinStruct,
               into_a: Embedding, into_b: Embedding) -> Amalgam:
    """Amalgamate ``a`` and ``b`` over a common substructure.

    Deterministic policy: disjoint amalgamation (nothing outside the common
    part is identified); the order is completed by sorting new points first
    by their cut over the common part, a-side before b-side, then by original
    relative order, the new points of cut k right before the k-th common
    point; in that order a new point keeps its name unless a common or an
    earlier new point has it, and is then ``<p>.a`` (``<p>.b`` from ``b``),
    else the first free of ``<p>.a1``, ``<p>.a2``, ...; cross colors are
    assigned pair by pair in position order, each the smallest base color
    creating no monochromatic triangle with the pairs colored so far.
    """
    for s, label in ((a, "left"), (b, "right"), (over, "common")):
        v = validate(s)
        if not v:
            raise InputError(f"invalid {label} structure: {v.reason}")
    if into_a.source != over or into_a.target != a:
        raise InputError("left embedding does not go from the common part into the left structure")
    if into_b.source != over or into_b.target != b:
        raise InputError("right embedding does not go from the common part into the right structure")
    if not is_embedding(into_a.as_dict, over, a) or not is_embedding(into_b.as_dict, over, b):
        raise InputError("invalid embedding of the common part")

    level = max(a.level, b.level, over.level)
    # each side's map starts as its embedding reversed, and walking a side
    # counts the cut over the common part at each new point.  One sort puts
    # a new point by (cut, side, original position) and common point g by
    # (g, 2, 0), after the new points of its cut; no two keys tie, so names
    # are never compared.  The new points are named in that order
    maps = ({q: g for g, q in into_a.mapping}, {q: g for g, q in into_b.mapping})
    order = [(g, 2, 0, p) for g, p in enumerate(over.points)]
    for side, (s, m) in enumerate(zip((a, b), maps)):
        cut = 0
        for i, p in enumerate(s.points):
            if p in m:
                cut += 1
            else:
                order.append((cut, side, i, p))
    order.sort()

    used = set(over.points)
    merged: list[str] = []
    for _, side, _, p in order:
        name = p
        if side < 2:
            tag = f"{p}.{'ab'[side]}"
            name = maps[side][p] = first_free(
                itertools.chain((p, tag), (f"{tag}{k}" for k in itertools.count(1))), used)
        used.add(name)
        merged.append(name)

    # rows over the merged order: both sides' own pairs first (they agree on
    # the common part), then the cross pairs, position-lexicographic, each the
    # smallest admissible base color
    at = {p: k for k, p in enumerate(merged)}
    palette = Palette()
    rows = [[HOLE] * len(merged) for _ in merged]
    for s, m in zip((a, b), maps):
        trans = palette.translate(s.palette)
        idx = [at[m[p]] for p in s.points]
        for i, row in enumerate(s.rows):
            for j in range(i + 1, len(idx)):
                rows[idx[i]][idx[j]] = rows[idx[j]][idx[i]] = trans[row[j]]
    masks = row_masks(rows)
    for i, j in itertools.combinations(range(len(merged)), 2):
        if rows[i][j] != HOLE:
            continue
        c = rows[i][j] = rows[j][i] = palette.admissible_base(masks[i], masks[j])
        masks[i][c] = masks[i].get(c, 0) | 1 << j
        masks[j][c] = masks[j].get(c, 0) | 1 << i

    result = FinStruct.of_rows(tuple(merged), tuple(map(stored_row, rows)), palette, level)
    return Amalgam(result, *(Embedding(s, result, tuple((p, m[p]) for p in s.points))
                             for s, m in zip((a, b), maps)))


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

CanonicalCode = str


def code_of_parts(n: int, color_texts: Iterable[str], marked_positions: Iterable[int]) -> CanonicalCode:
    return (str(n) + "|" + ";".join(color_texts) + "|"
            + ",".join(str(i) for i in marked_positions))


def _pair_texts(s: FinStruct) -> Iterator[Iterable[str]]:
    """Per position ``i``, the texts of the pair colors between point ``i``
    and every later point, in position order.  A row provider with a
    ``row_texts(i)`` method (a functor extension) gives them itself;
    stored rows are read through the palette's texts, and an uncolored
    pair raises InputError."""
    row_texts = getattr(s.rows, "row_texts", None)
    if row_texts is not None:
        yield from map(row_texts, range(len(s.points)))
        return
    texts = s.palette.texts
    for i, row in enumerate(s.rows):
        tail = row[i + 1:]
        if HOLE in tail:
            _check_complete(s)  # raises on the first uncolored pair
        yield map(texts.__getitem__, tail)


def canonical_code(s: FinStruct, marked: Sequence[str] = ()) -> CanonicalCode:
    """Total serialization of a structure with marked points, equal for two
    inputs iff the unique order bijection between them preserves colors and
    carries the k-th mark to the k-th mark."""
    for m in marked:
        if m not in s:
            raise InputError(f"marked point {m!r} not in structure")
    return code_of_parts(len(s.points), itertools.chain.from_iterable(_pair_texts(s)),
                         (s.index(m) for m in marked))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def format_struct(s: FinStruct, name: str = "s") -> str:
    return "".join(struct_chunks(s, name))


def struct_chunks(s: FinStruct, name: str = "s") -> Iterator[str]:
    """The text of ``s`` as a stream: the header and point lines in one
    chunk, then one chunk per point, its color lines toward every later
    point.  Every check runs before this returns, so a writer may open its
    output after the call: the name must read back, and an uncolored pair
    or a negative level raises InputError.  A row provider with a
    ``line_printer`` (a functor extension, complete by construction)
    prints its own rows; stored rows print by :func:`stored_lines`."""
    _check_id("structure name", name)
    pts, rows = s.points, s.rows
    printer = getattr(rows, "line_printer", None)
    if printer is not None:
        row_lines = printer(pts)
    else:
        _check_complete(s)
        row_lines = partial(stored_lines, pts, s.palette.texts, rows)
    head = f"structure {name} level {s.level}\n"
    return itertools.chain((head + "".join([f"point {p}\n" for p in pts]),),
                           map(row_lines, range(len(pts))))


def stored_lines(points: Sequence[str], texts: Sequence[str], rows: Sequence[Sequence[int]],
                 i: int) -> str:
    """The color lines of point ``i`` toward every later point, read off
    its stored row ``rows[i]``, one f-string line per pair."""
    u = points[i]
    return "".join([f"color {u} {v} {texts[c]}\n"
                    for v, c in zip(points[i + 1:], rows[i][i + 1:])])


READ_CHUNK = 1 << 16  # characters split into lines at a time


def read_lines(source: str | TextIO) -> Iterator[str]:
    """The lines of a text, or of a text file open for reading in the
    default newline mode, equal to the text's ``splitlines()``, split one
    chunk at a time, so a reader holds one chunk's lines, never a list of
    every line.  Every chunk but the last ends just after a ``\\n``: a
    text's runs to the first ``\\n`` at offset ``READ_CHUNK`` or later,
    and a file's full read of ``READ_CHUNK`` characters is completed to the
    end of its line (``open`` turns every line end into ``\\n``; a short
    read is the file's last).  Every separator ``splitlines`` knows is one character
    except ``\\r\\n``, which that ``\\n`` ends, so no line break spans two
    chunks."""
    chunks = (_text_chunks if isinstance(source, str) else _file_chunks)(source, READ_CHUNK)
    return itertools.chain.from_iterable(map(str.splitlines, chunks))


def _text_chunks(text: str, size: int) -> Iterator[str]:
    start, n = 0, len(text)
    while start < n:
        end = text.find("\n", start + size) + 1 or n
        yield text[start:end]
        start = end


def _file_chunks(fh: TextIO, size: int) -> Iterator[str]:
    chunk = fh.read(size)
    while len(chunk) == size:
        yield chunk + fh.readline()
        chunk = fh.read(size)
    yield chunk


def parse_struct(source: str | TextIO) -> tuple[str, FinStruct]:
    """Parse the line format from a text or an open text file.  Rejects
    duplicate points, duplicate pairs and missing pairs.  The source is
    split into lines a chunk at a time (:func:`read_lines`), so reading
    holds one chunk's lines and what :func:`parse_struct_lines` keeps, and
    a file's error, a byte that is not UTF-8 among them, is raised when the
    reader reaches it."""
    return parse_struct_lines(enumerate(read_lines(source), 1))


def parse_struct_lines(lines: Iterable[tuple[int, str]]) -> tuple[str, FinStruct]:
    """:func:`parse_struct` over ``(line number, line)`` pairs, read once
    and in order, so ``lines`` may be a stream: an open file's, or one
    section of a certificate's.  An error that one line makes is raised
    when that line is read.  The reader keeps the points, the palette and
    one map per point, from each later position to its pair's color id,
    and builds the rows from the maps after the last line
    (:func:`_build_checked`)."""
    name = None
    level = 0
    points: dict[str, int] = {}  # insertion-ordered, O(1) membership
    maps: list[dict[int, int]] = []  # per position i: later position j -> color id
    palette = Palette()
    ids = palette.ids
    for lineno, raw in lines:
        tok = raw.split()
        if not tok:
            continue
        key = tok[0]
        if key == "color":
            if len(tok) != 4:
                raise InputError(f"line {lineno}: bad color line")
            _, u, v, term = tok
            i, j = points.get(u), points.get(v)
            if i is None or j is None:
                raise InputError(f"line {lineno}: color for unknown point")
            if i == j:
                raise InputError(f"line {lineno}: degenerate pair ({u!r}, {u!r})")
            i, j = (i, j) if i < j else (j, i)
            m = maps[i]
            if j in m:
                raise InputError(f"line {lineno}: duplicate pair ({u}, {v})")
            c = ids.get(term)  # a canonical text already entered
            if c is None:
                try:
                    c = palette.id(ColorTerm.parse(term))
                except InputError as exc:
                    raise InputError(f"line {lineno}: {exc}") from None
            m[j] = c
        elif key == "point":
            if len(tok) != 2:
                raise InputError(f"line {lineno}: bad point line")
            if tok[1] in points:
                raise InputError(f"line {lineno}: duplicate point {tok[1]!r}")
            points[tok[1]] = len(points)
            maps.append({})
        elif key == "structure":
            if name is not None or len(tok) != 4 or tok[2] != "level":
                raise InputError(f"line {lineno}: bad structure header")
            name = tok[1]
            try:
                level = int(tok[3])
            except ValueError:
                raise InputError(f"line {lineno}: bad level") from None
        else:
            raise InputError(f"line {lineno}: unknown directive {key!r}")
    if name is None:
        raise InputError("missing structure header")
    return name, _build_checked(tuple(points), maps, palette, level)
