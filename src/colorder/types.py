"""One-point extension types: extraction, enumeration, realization.

A type describes how a single new point would sit over an ambient structure:
a support (the points it is explicitly related to), a cut (its position
among the sorted support) and one color per support point.  The extension of
the support by the new point must itself be a valid structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import (ColorTerm, FinStruct, InputError, pair_of,
                   smallest_admissible_base, validate)

@dataclass(frozen=True)
class OnePointType:
    """A partial one-point extension of ``base``.

    ``support`` lists the involved base points in base order, ``cut`` in
    [0, len(support)] places the new point among them (0 = below all), and
    ``colors`` aligns with ``support``.  Equality over the same base is by
    (support, cut, colors); the level plays no role in identity.
    """

    base: FinStruct
    support: tuple[str, ...]
    cut: int
    colors: tuple[ColorTerm, ...]
    level: int = field(compare=False, default=0)

    @staticmethod
    def build(base: FinStruct, support: Sequence[str], cut: int,
              colors: Sequence[ColorTerm], level: int) -> "OnePointType":
        """Checked construction over a valid ``base``: beside the input
        checks, only the triangles through the new point need inspecting."""
        supp = tuple(support)
        cols = tuple(colors)
        if len(supp) != len(cols):
            raise InputError("support and colors must align")
        if tuple(base.sorted_points(supp)) != supp or len(set(supp)) != len(supp):
            raise InputError("support must list distinct base points in base order")
        if not 0 <= cut <= len(supp):
            raise InputError(f"cut {cut} out of range for support of size {len(supp)}")
        for c in cols:
            if c.level > level:
                raise InputError(f"color {c.text()} exceeds type level {level}")
        for i, j in itertools.combinations(range(len(supp)), 2):
            if cols[i] == cols[j] == base.color(supp[i], supp[j]):
                raise InputError("invalid one-point extension: monochromatic "
                                 f"triangle on {supp[i]}, {supp[j]} and the new point")
        return OnePointType(base, supp, cut, cols, level)

    def key(self) -> tuple:
        return (self.support, self.cut, self.colors)

    def color_of(self, p: str) -> ColorTerm:
        return self.colors[self.support.index(p)]


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
    point where the colorings disagree.
    """
    pos = tau.base.pos
    return (gap_index(tau), len(tau.support),
            tuple(-pos[p] for p in reversed(tau.support)),
            tuple(c.sort_key() for c in reversed(tau.colors)))


def point_key(s: FinStruct, u: str, over_sorted: tuple[str, ...]) -> tuple:
    """The ``OnePointType.key()`` of an existing point over a sorted subset,
    computed without materializing the base restriction."""
    pos = s.index(u)
    cut = sum(1 for p in over_sorted if s.index(p) < pos)
    return (over_sorted, cut, tuple(s.color(p, u) for p in over_sorted))


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
    _, cut, colors = point_key(s, u, supp)
    base = s.restrict(p for p in s.points if p != u)
    return OnePointType(base, supp, cut, colors, s.level)


def allowed_colors(x: FinStruct, level: int, budget: int) -> list[ColorTerm]:
    """The color pool for enumeration: budget-many base colors per level up
    to ``level``, plus marker and pair-code colors already occurring in x."""
    pool = [ColorTerm.base(l, n) for l in range(level + 1) for n in range(budget)]
    seen = sorted({c for c in x.colors.values() if c.kind != "b" and c.level <= level},
                  key=ColorTerm.sort_key)
    return pool + seen


def enumerate_types(x: FinStruct, level: int, budget: int) -> list[OnePointType]:
    """All valid types over ``x`` whose colors come from the budgeted pool,
    sorted by the canonical type order."""
    v = validate(x)
    if not v:
        raise InputError(f"invalid base structure: {v.reason}")
    if x.level > level:
        raise InputError("base structure exceeds the enumeration level")
    pool = allowed_colors(x, level, budget)
    out: list[OnePointType] = []
    for size in range(len(x.points) + 1):
        for supp in itertools.combinations(x.points, size):
            supp_pairs = [(i, j, x.color(supp[i], supp[j]))
                          for i, j in itertools.combinations(range(size), 2)]
            for cols in itertools.product(pool, repeat=size):
                if any(cols[i] == cols[j] == c for i, j, c in supp_pairs):
                    continue
                for cut in range(size + 1):
                    out.append(OnePointType(x, supp, cut, cols, level))
    out.sort(key=order_key)
    return out


def fresh_point_name(s: FinStruct, stem: str = "u") -> str:
    k = 0
    while f"{stem}{k}" in s:
        k += 1
    return f"{stem}{k}"


def realize_type(f: FinStruct, tau: OnePointType,
                 name: str | None = None) -> tuple[FinStruct, str]:
    """Extend ``f`` by one new point realizing ``tau``.

    The support colors are copied from the type; the new point is placed at
    the minimal consistent position; colors to the remaining points are
    chosen in position order, each the smallest base color that closes no
    monochromatic triangle.
    """
    for p in tau.support:
        if p not in f:
            raise InputError(f"support point {p!r} missing from the ambient structure")
    for p, q in itertools.combinations(tau.support, 2):
        if f.index(p) >= f.index(q) or f.color(p, q) != tau.base.color(p, q):
            raise InputError("type support disagrees with the ambient structure")
    for c in tau.colors:
        if c.level > f.level:
            raise InputError(f"type color {c.text()} exceeds ambient level {f.level}")
    u = fresh_point_name(f) if name is None else name
    if u in f:
        raise InputError(f"point {u!r} already present")
    pos = insert_position(f, tau.support, tau.cut)
    pts = list(f.points)
    pts.insert(pos, u)

    cols = dict(f.colors)
    assigned: dict[str, ColorTerm] = dict(zip(tau.support, tau.colors))
    for s, c in assigned.items():
        cols[pair_of(s, u)] = c
    for v in f.points:
        if v in assigned:
            continue
        c = smallest_admissible_base(
            {c for w, c in assigned.items() if f.color(v, w) == c})
        assigned[v] = c
        cols[pair_of(v, u)] = c
    return FinStruct(tuple(pts), cols, f.level), u


def transport(tau: OnePointType, mapping: Mapping[str, str],
              new_base: FinStruct) -> OnePointType:
    """Carry a type along an order-preserving point mapping.

    The image type has support ``mapping[support]`` with the same cut and
    colors, anchored on ``new_base``.
    """
    supp = tuple(mapping[p] for p in tau.support)
    if tuple(new_base.sorted_points(supp)) != supp:
        raise InputError("mapping does not preserve the support order")
    return OnePointType.build(new_base, supp, tau.cut, tau.colors, tau.level)


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def format_type(tau: OnePointType) -> str:
    supp = ",".join(tau.support)
    cols = ",".join(c.text() for c in tau.colors)
    return f"type supp={supp} cut={tau.cut} colors={cols} level={tau.level}"


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
