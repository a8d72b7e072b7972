"""The one-point-extension functor on colored linear orders.

``apply_K`` extends a structure by one new element per budgeted type: the
original points keep their order and colors, each type element is placed at
its minimal consistent position and ordered against other type elements by
the type order, one sort key (``types.order_key``) that encodes its four
rules; colors between a type element and an unsupported base point use the
next level's marker, and colors between two type elements encode the
isomorphism class of their joint configuration; the tests keep a
frozenset-keyed ``PairStructure`` as the reference.

A configuration's shape depends only on the base and the two types'
layouts (``OnePointType.column``), so a :class:`PairTemplates` map builds
one template per pair of layouts and a pair color fills it with the two
types' color texts, each hexed once per color id.  Templates hold base
pair texts, so a map belongs to one base: an extension's lazy rows keep
their base's map as long as they live, and :func:`pair_text` builds one
for its single call.  Printing streams an extension row by row
(:func:`extended_chunks`).  Type elements of one layout sit next to each
other, so a type element's row meets them in runs, and
``_ExtensionRows.line_printer`` makes one ``%`` format string per row: each
run's color line, with the row's name and parts and the template's fixed
parts in place, repeated once per element of the run, and each base
point's line with its stored text.  One fill, in C, puts in every later
position's name and parts.  Printing adds no palette entry and builds no
``ColorTerm``.  Only a reader of ids enters a pair color into the palette
they share with their base, as its canonical text; ``Palette.ids`` is the
one table from that text to its id.  A pair text is a template filled as
:func:`spell` fills it.
The morphism map checks its embedding once, then maps each type element to
the element whose key is the type's key with the support carried along the
embedding, making the whole thing a functor that raises the level by one;
its result is an embedding by construction and is not re-checked.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, repeat

from .core import (HOLE, ColorTerm, Embedding, FinStruct, InputError, first_free,
                   is_embedding, stored_lines, stored_row, struct_chunks)
from .types import OnePointType, enumerate_types, format_type, gap_index, order_key

LT = -1
EQ = 0
GT = 1


def compare_types(xi: OnePointType, psi: OnePointType) -> int:
    """Strict total order on types over one base: LT, EQ or GT as the
    ``order_key`` of ``xi`` is below, equal to or above that of ``psi``.
    That one sort key encodes the four rules of the type order."""
    if xi.base != psi.base:
        raise InputError("types over different bases are incomparable")
    k1, k2 = order_key(xi), order_key(psi)
    return EQ if k1 == k2 else LT if k1 < k2 else GT


# ---------------------------------------------------------------------------
# Pair colors
# ---------------------------------------------------------------------------

def pair_color(xi: OnePointType, psi: OnePointType) -> ColorTerm:
    """The color between two type elements: a pair-class color whose payload
    is the canonical code of their joint configuration.  Equivalent pairs,
    and pairs carried into each other by embeddings, receive the same color;
    inequivalent pairs receive distinct colors; no base color is consumed.
    The color is :func:`pair_text` of the pair in type order, parsed into a
    term.
    """
    cmp = compare_types(xi, psi)
    if cmp == EQ:
        raise InputError("pair structure requires two distinct types")
    lo, hi = (xi, psi) if cmp == LT else (psi, xi)
    return ColorTerm.parse(pair_text(lo, hi))


def pair_text(lo: OnePointType, hi: OnePointType) -> str:
    """The canonical text ``k:<level+1>:<hex>`` of :func:`pair_color` for
    two distinct types over one base, ``lo`` below ``hi`` in type order,
    built without a ``ColorTerm`` from a :class:`PairTemplates` map made for
    this one call.  The tests' ``PairStructure`` builds the same
    configuration point by point from the definitions and is the reference.
    """
    return PairTemplates(lo.base).text(lo, hi)


class PairTemplates(dict):
    """The pair-color templates of one base, keyed by the layouts of the
    lower and the higher type (``OnePointType.column``).

    A pair's configuration is the support union with one mark per type, the
    lower type's mark first.  Once the base and the two layouts are known,
    its shape is fixed: the union size, the mark indices, the base pair
    texts inside the union, the ``?`` between the marks, and which entries
    are a support color of ``lo`` or of ``hi`` or the next level's marker.
    A template is that shape as a ``%`` format string: the pair text with a
    ``%s`` slot for each of ``lo``'s parts and a ``%%s`` for each of
    ``hi``'s, each type's in support order.  Every part is hexed already,
    and ``"3b"``, the hex of ``;``, joins them, which spells the hex of the
    joined texts.  :meth:`parts` hexes each color text once per color id,
    in one table the map's templates share, so a pair costs one lookup and
    two C-level fills, and no hex.  Building a template reads base rows
    only inside the support union.
    """

    def __init__(self, base: FinStruct):
        super().__init__()
        self._base = base
        texts = base.palette.texts
        self._hex = cache(lambda c: texts[c].encode().hex())   # color id -> hex of its text
        self._marker = ColorTerm.marker(base.level + 1).text().encode().hex()
        self._head = f"k:{base.level + 1}:"

    def parts(self, tau: OnePointType) -> tuple[str, ...]:
        """The hex of the text of each of ``tau``'s support colors."""
        return tuple(map(self._hex, tau.ids))

    def entry(self, lo_layout: tuple, lo_parts: tuple[str, ...], hi_layout: tuple) -> str:
        """The template of the two layouts with the lower type's parts put
        in: what :func:`spell` fills with the higher type's parts, a pair
        text with a ``%s`` slot for each of them."""
        return self[lo_layout, hi_layout] % lo_parts

    def text(self, lo: OnePointType, hi: OnePointType) -> str:
        return spell(self.entry(lo.column, self.parts(lo), hi.column), self.parts(hi))

    def __missing__(self, key: tuple) -> str:
        (lo_supp, lo_gap), (hi_supp, hi_gap) = key
        # a mark's entries come in the position order of the other end, so
        # each type's slots come in support order, as the fills take its
        # parts, when its support positions ascend
        assert [*lo_supp] == sorted(lo_supp)
        assert [*hi_supp] == sorted(hi_supp)
        seq: list = sorted({*lo_supp, *hi_supp})   # the support union, as positions
        # a mark is the map from its type's support positions to their
        # slot; it goes after the union positions below its type's gap.
        # lo's gap is not above hi's, so inserting hi first puts lo first on
        # a tie.  hi's slots stay escaped through lo's fill
        k_hi = bisect_left(seq, hi_gap)
        k_lo = bisect_left(seq, lo_gap)
        seq.insert(k_hi, dict.fromkeys(hi_supp, "%%s"))
        seq.insert(k_lo, dict.fromkeys(lo_supp, "%s"))
        rows, hexed, marker = self._base.rows, self._hex, self._marker
        out: list[str] = []
        for i, a in enumerate(seq):
            for b in seq[i + 1:]:
                if a.__class__ is dict:    # a mark: its color toward b, or the hole
                    out.append(a.get(b, marker) if b.__class__ is int else "3f")
                elif b.__class__ is dict:  # a base position below a mark
                    out.append(b.get(a, marker))
                else:                      # two base positions: the base color
                    out.append(hexed(rows[a][b]))
        got = self[key] = (self._head + f"{len(seq)}|".encode().hex() + "3b".join(out)
                           + f"|{k_lo},{k_hi + 1}".encode().hex())
        return got


def spell(entry: str, hi_parts: tuple[str, ...]) -> str:
    """The one spelling of a pair text: an entry of
    :meth:`PairTemplates.entry` filled with the higher type's parts."""
    return entry % hi_parts


# ---------------------------------------------------------------------------
# The object and morphism maps
# ---------------------------------------------------------------------------

class _ExtensionRows(Sequence):
    """Lazy row provider of an extended structure.

    The rows of base points are stored, as ``core.stored_row`` arrays: they
    hold the base colors and the colors to every type element.  The row of
    a type element is a view whose entries against other type elements are
    pair colors, computed from the base's ``templates``.  Printing reads
    such a row as lines through :meth:`line_printer`, a canonical code as
    texts through :meth:`row_texts`, both from one ``%`` format per row,
    filled once (:meth:`_row`); a reader of ids goes through
    :meth:`cid`, which fills the pair's template and looks its text up in
    the palette's ``ids``, adding it on first read, so large extensions
    stay usable as long as only a sparse set of their pairs is inspected.
    A slice of that view is a stored row too.
    Type elements sit in type order, so the lower position of a pair holds
    the lower type.
    """

    def __init__(self, base_rows: list, types: list, base: FinStruct):
        self._rows = base_rows   # position -> stored row, or None for a type element
        self._types = types      # position -> type, or None for a base point
        self._palette = base.palette
        self.templates = PairTemplates(base)
        self._marks: list | None = None   # per position, made on the first print
        self._parts: list = []            # per position, made with _marks
        self._part_args: tuple = ()       # _parts flattened, made with _marks

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> Sequence[int]:
        row = self._rows[i]   # IndexError out of range
        return row if row is not None else _ElementRow(self, i % len(self._rows))

    def cid(self, i: int, j: int) -> int:
        """Color id between type element ``i`` and position ``j``."""
        row = self._rows[j]
        if row is not None:
            return row[i]
        if i == j:
            return HOLE
        lo, hi = (i, j) if i < j else (j, i)
        return self._palette.id_text(self.templates.text(self._types[lo], self._types[hi]))

    def row_texts(self, i: int) -> Iterable[str]:
        """The color texts between position ``i`` and every later position,
        in position order: a stored row's entries through the palette, and
        a type element's row split off its :meth:`_row`, so reading texts
        enters no color into the palette."""
        row = self._rows[i]
        if row is not None:
            return map(self._palette.texts.__getitem__, row[i + 1:])
        if self._marks is None:
            self._mark_types()
        return self._row(i, "", "\n", self._part_args).split("\n")[:-1]

    def line_printer(self, points: Sequence[str]) -> Callable[[int], str]:
        """``core.struct_chunks``'s printer of these rows under ``points``:
        position -> its color lines toward every later position.  A stored
        row prints by ``core.stored_lines``, a type element's row by
        :meth:`_row`, one format filled once with each later position's
        name and parts."""
        if self._marks is None:
            self._mark_types()
        args = _flattened([(p, *parts) for p, parts in zip(points, self._parts)])
        rows, texts = self._rows, self._palette.texts

        def row_lines(i: int) -> str:
            if rows[i] is not None:
                return stored_lines(points, texts, rows, i)
            return self._row(i, "color " + points[i].replace("%", "%%") + " %s ", "\n", args)
        return row_lines

    def _row(self, i: int, lead: str, end: str, args: tuple) -> str:
        """The entries of type element ``i`` toward every later position,
        each ``lead + <pair text> + end``, as one ``%`` format filled once,
        in C, with every later position's arguments (``args``, per position,
        :func:`_flattened`).  Toward a base point the pair text is the
        stored one.  Toward a run of type elements of one layout it is one
        :meth:`PairTemplates.entry`, with a ``%s`` slot for each of the
        higher type's parts, repeated once per element of the run; the fill
        spells each as :func:`spell` does."""
        rows, texts, marks = self._rows, self._palette.texts, self._marks
        lo_layout, lo_parts = marks[i][0], self._parts[i]
        entry = self.templates.entry
        pieces: list[str] = []
        j, n = i + 1, len(rows)
        while j < n:
            m = marks[j]
            if m is None:
                pieces.append(lead + texts[rows[j][i]] + end)
                j += 1
                continue
            layout, stop = m
            pieces.append((lead + entry(lo_layout, lo_parts, layout) + end) * (stop - j))
            j = stop
        flat, off = args
        return "".join(pieces) % flat[off[i + 1]:]

    def _mark_types(self) -> None:
        """Per position, None for a base point, and for a type element its
        layout and the end of its run: the first later position that is not
        a type element of its layout.  Type elements of one layout sit next
        to each other, in type order, so each layout makes one run.  Sets
        ``_parts`` too: per position, its type's parts, () for a base point,
        and ``_part_args``, those :func:`_flattened`.  Building an extension
        computes none of them: only printing and reading texts do."""
        parts = self.templates.parts
        self._parts = [() if tau is None else parts(tau) for tau in self._types]
        self._part_args = _flattened(self._parts)
        marks: list = [None if tau is None else [tau.column, 0] for tau in self._types]
        stop, after = len(marks), None   # after: the mark of position j + 1
        for j in range(len(marks) - 1, -1, -1):
            m = marks[j]
            if m is not None:
                if after is None or after[0] != m[0]:
                    stop = j + 1
                m[1] = stop
            after = m
        self._marks = marks


def _flattened(args: list) -> tuple[tuple, list[int]]:
    """Per-position ``%`` arguments as one tuple, and the offset of each
    position's arguments in it, with the end's offset last."""
    return tuple(chain.from_iterable(args)), [*accumulate(map(len, args), initial=0)]


class _ElementRow(Sequence):
    """The row of one type element, read through its provider."""

    __slots__ = ("_rows", "_i")

    def __init__(self, rows: _ExtensionRows, i: int):
        self._rows, self._i = rows, i

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return stored_row([self._rows.cid(self._i, k) for k in range(*j.indices(len(self)))])
        n = len(self)
        if not -n <= j < n:
            raise IndexError(j)
        return self._rows.cid(self._i, j % n)


@dataclass(frozen=True)
class ExtendedStructure:
    """Result of one functor application: the base structure together with
    one element per budgeted type, as a structure one level up."""

    base: FinStruct
    struct: FinStruct
    elements: tuple[tuple[str, OnePointType], ...]  # (element id, type), in type order

    def element_ids(self) -> tuple[str, ...]:
        return tuple(tid for tid, _ in self.elements)

    def type_of(self, tid: str) -> OnePointType:
        for t, tau in self.elements:
            if t == tid:
                return tau
        raise InputError(f"no type element {tid!r}")


def apply_K(x: FinStruct, budget: int) -> ExtendedStructure:
    """Extend ``x`` by every budgeted type over it.

    The output restricted to ``x`` is ``x`` itself; every new element
    realizes exactly its defining type; the result is valid one level up.
    ``enumerate_types`` rejects an invalid base and one with too many types.
    """
    level = x.level + 1
    taus = enumerate_types(x, x.level, budget)

    # element i is t<i>, else the first of t<i>', t<i>'', ... that the base
    # lacks; the other elements' names carry other digits
    pos = x.pos
    ids = [t if t not in pos else first_free(accumulate(repeat("'"), initial=t), pos)
           for t in map("t{}".format, range(len(taus)))]

    # One sort lays out the points: a type element by (gap, 0, type index),
    # base position i by (i, 1, i).  The gap is the type order's first rule,
    # so the elements of one gap keep their type order, below the base point
    # that closes the gap.  A base point's stored row starts as all marker;
    # its base row goes in at the base positions, and each type's support
    # colors at its element's.  The extension extends x's palette, whose ids
    # never change meaning.
    layout = sorted([(gap_index(tau), 0, k) for k, tau in enumerate(taus)]
                    + [(i, 1, i) for i in range(len(x.points))])
    points = tuple(x.points[k] if is_base else ids[k] for _, is_base, k in layout)
    types = [None if is_base else taus[k] for _, is_base, k in layout]  # None: a base point
    marker = x.palette.id(ColorTerm.marker(level))
    at = [j for j, tau in enumerate(types) if tau is None]   # base index -> position
    base_rows: list = [None] * len(points)   # None: a type element, whose row stays lazy
    for j, row in zip(at, x.rows):
        new = base_rows[j] = stored_row([marker]) * len(points)
        for k, c in zip(at, row):
            new[k] = c
    for j, tau in enumerate(types):
        if tau is not None:
            for p, c in zip(tau.support, tau.ids):
                base_rows[at[pos[p]]][j] = c
    rows = _ExtensionRows(base_rows, types, x)
    struct = FinStruct.of_rows(points, rows, x.palette, level)
    return ExtendedStructure(x, struct, tuple(zip(ids, taus)))


def apply_K_morphism(e: Embedding, budget: int) -> Embedding:
    """The functor on embeddings: base points map as before, the element of
    a type maps to the element of the transported type, found by its key.
    Only ``e``, an embedding within one level, is checked."""
    if e.source.level != e.target.level or not is_embedding(e.as_dict, e.source, e.target):
        raise InputError("not an embedding")
    kx = apply_K(e.source, budget)
    ky = apply_K(e.target, budget)
    lookup = {tau.key(): tid for tid, tau in ky.elements}
    mapping = dict(e.mapping)
    for tid, tau in kx.elements:
        supp, cut, texts = tau.key()
        mapping[tid] = lookup[tuple(map(e.apply, supp)), cut, texts]
    return Embedding(kx.struct, ky.struct, tuple((p, mapping[p]) for p in kx.struct.points))


def iterate_K(x: FinStruct, stages: int, budgets: Sequence[int]) -> list[ExtendedStructure]:
    """Iterate the functor, raising the level once per stage.  Each stage's
    base embeds into the next by inclusion."""
    if stages < 0:
        raise InputError("stages must be nonnegative")
    if len(budgets) != stages:
        raise InputError(f"need {stages} budgets, got {len(budgets)}")
    exts: list[ExtendedStructure] = []
    cur = x
    for b in budgets:
        ext = apply_K(cur, b)
        exts.append(ext)
        cur = ext.struct
    return exts


def format_extended(ext: ExtendedStructure, name: str = "K") -> str:
    return "".join(extended_chunks(ext, name))


def extended_chunks(ext: ExtendedStructure, name: str = "K") -> Iterator[str]:
    """:func:`format_extended` as a stream: ``core.struct_chunks`` of the
    extension, then its ``types`` sidecar in one chunk.  The name is
    checked before this returns."""
    sidecar = "types\n" + "".join([f"{tid} {format_type(tau)}\n" for tid, tau in ext.elements])
    return chain(struct_chunks(ext.struct, name), (sidecar,))
