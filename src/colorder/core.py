"""Finite edge-colored linear orders and their basic category.

A structure is a finite linearly ordered set of named points together with a
total coloring of unordered point pairs.  The single semantic constraint is
that no three points carry the same color on all three of their pairs.  This
module provides the color universe, validation, embeddings, deterministic
amalgamation, canonical codes, and the line-oriented text format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Iterator, Mapping, Sequence


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
_HEX_DIGITS = "0123456789abcdef"


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
        if self.kind == PAIRCODE:
            if not self.code or self.code.strip(_HEX_DIGITS):
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
        except ValueError as exc:
            raise InputError(f"bad color term {text!r}") from exc
        raise InputError(f"bad color term {text!r}")


def color_less(c1: ColorTerm, c2: ColorTerm) -> bool:
    """Strict total order on colors: by level, then kind (base < marker <
    pair code), then index or code payload."""
    return c1.sort_key() < c2.sort_key()


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

def pair_of(u: str, v: str) -> frozenset:
    if u == v:
        raise InputError(f"degenerate pair ({u!r}, {u!r})")
    return frozenset((u, v))


@dataclass(frozen=True, eq=False)
class FinStruct:
    """A finite linear order with a total pair coloring.

    ``points`` lists the points in increasing order.  ``colors`` maps each
    unordered pair (a two-element frozenset of point names) to a ColorTerm.
    ``level`` bounds the levels of all colors.  Values are immutable after
    construction; use :meth:`build` for checked construction.
    """

    points: tuple[str, ...]
    colors: Mapping[frozenset, ColorTerm]
    level: int

    @staticmethod
    def build(points: Sequence[str], colors: Mapping[frozenset, ColorTerm],
              level: int = 0) -> "FinStruct":
        pts = tuple(points)
        seen = set()
        for p in pts:
            if not p or any(ch.isspace() for ch in p):
                raise InputError(f"bad point id {p!r}")
            if p in seen:
                raise InputError(f"duplicate point {p!r}")
            seen.add(p)
        expected = {pair_of(u, v) for u, v in itertools.combinations(pts, 2)}
        for key in colors:
            if key not in expected:
                raise InputError(f"color given for unknown pair {sorted(key)}")
        missing = expected - set(colors)
        if missing:
            u, v = sorted(next(iter(missing)))
            raise InputError(f"missing color for pair ({u}, {v})")
        if level < 0:
            raise InputError("negative level")
        return FinStruct(pts, dict(colors), level)

    @staticmethod
    def empty(level: int = 0) -> "FinStruct":
        return FinStruct((), {}, level)

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
        return self.colors[pair_of(u, v)]

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All pairs (u, v) with u before v, in lexicographic position order."""
        for i, j in itertools.combinations(range(len(self.points)), 2):
            yield self.points[i], self.points[j]

    def restrict(self, subset: Iterable[str]) -> "FinStruct":
        keep = set(subset)
        for p in keep:
            if p not in self.pos:
                raise InputError(f"unknown point {p!r}")
        pts = tuple(p for p in self.points if p in keep)
        cols = {pair_of(u, v): self.color(u, v)
                for u, v in itertools.combinations(pts, 2)}
        return FinStruct(pts, cols, self.level)

    def sorted_points(self, subset: Iterable[str]) -> tuple[str, ...]:
        sub = set(subset)
        return tuple(p for p in self.points if p in sub)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FinStruct):
            return NotImplemented
        if self.points != other.points or self.level != other.level:
            return False
        return all(self.color(u, v) == other.color(u, v)
                   for u, v in self.pairs())

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


def validate(s: FinStruct) -> Verdict:
    """Check the class membership of a structure.

    Returns a valid verdict iff no three points carry one color on all three
    pairs and every color's level is within the structure's level.  Malformed
    structures (duplicate points, partial coloring) raise InputError instead.
    """
    FinStruct.build(s.points, s.colors, s.level)  # well-formedness gate
    for u, v in s.pairs():
        c = s.color(u, v)
        if c.level > s.level:
            return Verdict(False, "level-bound", (u, v, u), c)
    for i, j, k in itertools.combinations(range(len(s.points)), 3):
        u, v, w = s.points[i], s.points[j], s.points[k]
        c = s.color(u, v)
        if c == s.color(u, w) and c == s.color(v, w):
            return Verdict(False, "monochromatic-triangle", (u, v, w), c)
    return Verdict(True)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def is_embedding(mapping: Mapping[str, str], s: FinStruct, t: FinStruct) -> bool:
    """True iff ``mapping`` is an injective, order- and color-preserving map
    of the points of ``s`` into ``t``."""
    if set(mapping) != set(s.points):
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    if any(im not in t for im in images):
        return False
    for u, v in s.pairs():
        mu, mv = mapping[u], mapping[v]
        if t.index(mu) >= t.index(mv):
            return False
        if t.color(mu, mv) != s.color(u, v):
            return False
    return True


@dataclass(frozen=True)
class Embedding:
    """An order- and color-preserving injection between structures.

    ``mapping`` pairs source points with their images, listed in source
    order.  Use :meth:`build` for checked construction.
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
        """This embedding followed by ``then``."""
        if self.target != then.source:
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


def _fresh_id(candidate: str, used: set[str], side: str) -> str:
    if candidate not in used:
        return candidate
    bumped = f"{candidate}.{side}"
    k = 0
    while bumped in used:
        k += 1
        bumped = f"{candidate}.{side}{k}"
    return bumped


def smallest_admissible_base(forbidden: Container[ColorTerm]) -> ColorTerm:
    """Smallest base color (by the color order) not in ``forbidden``.

    The forbidden colors are those carried by both other sides of some
    triangle through the pair being colored.
    """
    n = 0
    while ColorTerm.base(0, n) in forbidden:
        n += 1
    return ColorTerm.base(0, n)


def amalgamate(a: FinStruct, b: FinStruct, over: FinStruct,
               into_a: Embedding, into_b: Embedding) -> Amalgam:
    """Amalgamate ``a`` and ``b`` over a common substructure.

    Deterministic policy: disjoint amalgamation (nothing outside the common
    part is identified); the order is completed by sorting new points first
    by their cut over the common part, a-side before b-side, then by original
    relative order; cross colors are assigned pair by pair in position order,
    each the smallest base color creating no monochromatic triangle with the
    pairs colored so far.
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
    image_a = {into_a.apply(p) for p in over.points}
    image_b = {into_b.apply(p) for p in over.points}
    back_a = {into_a.apply(p): p for p in over.points}
    back_b = {into_b.apply(p): p for p in over.points}

    def cut_over_common(s: FinStruct, image: set[str], p: str) -> int:
        return sum(1 for q in s.points[: s.index(p)] if q in image)

    # (cut, side, original position) -> deterministic completion of the order
    new_points: list[tuple[int, int, int, str]] = []
    for side, s, image in ((0, a, image_a), (1, b, image_b)):
        for i, p in enumerate(s.points):
            if p not in image:
                new_points.append((cut_over_common(s, image, p), side, i, p))
    new_points.sort(key=lambda t: t[:3])

    used = set(over.points)
    name_of: dict[tuple[int, str], str] = {}
    for cut, side, i, p in new_points:
        name = _fresh_id(p, used, "a" if side == 0 else "b")
        used.add(name)
        name_of[(side, p)] = name

    merged: list[str] = []
    by_cut: dict[int, list[tuple[int, int, str]]] = {}
    for cut, side, i, p in new_points:
        by_cut.setdefault(cut, []).append((side, i, p))
    for gap in range(len(over.points) + 1):
        for side, i, p in by_cut.get(gap, ()):
            merged.append(name_of[(side, p)])
        if gap < len(over.points):
            merged.append(over.points[gap])

    map_a = {p: (back_a[p] if p in image_a else name_of[(0, p)]) for p in a.points}
    map_b = {p: (back_b[p] if p in image_b else name_of[(1, p)]) for p in b.points}
    preimage_a = {q: p for p, q in map_a.items()}
    preimage_b = {q: p for p, q in map_b.items()}

    colors: dict[frozenset, ColorTerm] = {}
    for u, v in itertools.combinations(merged, 2):
        if u in preimage_a and v in preimage_a:
            colors[pair_of(u, v)] = a.color(preimage_a[u], preimage_a[v])
        elif u in preimage_b and v in preimage_b:
            colors[pair_of(u, v)] = b.color(preimage_b[u], preimage_b[v])

    # cross pairs, position-lexicographic, smallest admissible base color
    for u, v in itertools.combinations(merged, 2):
        if pair_of(u, v) in colors:
            continue
        forbidden = {c for w in merged if w not in (u, v)
                     and (c := colors.get(pair_of(u, w))) is not None
                     and c == colors.get(pair_of(v, w))}
        colors[pair_of(u, v)] = smallest_admissible_base(forbidden)

    result = FinStruct.build(merged, colors, level)
    verdict = validate(result)
    assert verdict.ok, f"amalgam invalid: {verdict.reason}"
    return Amalgam(result,
                   Embedding.build(a, result, map_a),
                   Embedding.build(b, result, map_b))


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

CanonicalCode = str


def code_of_parts(n: int, color_texts: Iterable[str], marked_positions: Iterable[int]) -> CanonicalCode:
    return (str(n) + "|" + ";".join(color_texts) + "|"
            + ",".join(str(i) for i in marked_positions))


def canonical_code(s: FinStruct, marked: Sequence[str] = ()) -> CanonicalCode:
    """Total serialization of a structure with marked points, equal for two
    inputs iff the unique order bijection between them preserves colors and
    carries the k-th mark to the k-th mark."""
    for m in marked:
        if m not in s:
            raise InputError(f"marked point {m!r} not in structure")
    texts = (s.color(u, v).text() for u, v in s.pairs())
    return code_of_parts(len(s.points), texts, (s.index(m) for m in marked))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def format_struct(s: FinStruct, name: str = "s") -> str:
    lines = [f"structure {name} level {s.level}"]
    lines.extend(f"point {p}" for p in s.points)
    lines.extend(f"color {u} {v} {s.color(u, v).text()}" for u, v in s.pairs())
    return "\n".join(lines) + "\n"


def parse_struct(text: str) -> tuple[str, FinStruct]:
    """Parse the line format.  Rejects duplicate points, duplicate pairs and
    missing pairs."""
    name = None
    level = 0
    points: dict[str, None] = {}  # insertion-ordered, O(1) membership
    colors: dict[frozenset, ColorTerm] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "structure":
            if name is not None or len(tok) != 4 or tok[2] != "level":
                raise InputError(f"line {lineno}: bad structure header")
            name = tok[1]
            try:
                level = int(tok[3])
            except ValueError:
                raise InputError(f"line {lineno}: bad level") from None
        elif tok[0] == "point":
            if len(tok) != 2:
                raise InputError(f"line {lineno}: bad point line")
            if tok[1] in points:
                raise InputError(f"line {lineno}: duplicate point {tok[1]!r}")
            points[tok[1]] = None
        elif tok[0] == "color":
            if len(tok) != 4:
                raise InputError(f"line {lineno}: bad color line")
            u, v, term = tok[1], tok[2], tok[3]
            if u not in points or v not in points:
                raise InputError(f"line {lineno}: color for unknown point")
            key = pair_of(u, v)
            if key in colors:
                raise InputError(f"line {lineno}: duplicate pair ({u}, {v})")
            colors[key] = ColorTerm.parse(term)
        else:
            raise InputError(f"line {lineno}: unknown directive {tok[0]!r}")
    if name is None:
        raise InputError("missing structure header")
    return name, FinStruct.build(tuple(points), colors, level)
