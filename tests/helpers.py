"""Brute-force oracles for the test suite.

Everything here is written directly from the definitions (exhaustive search,
no reuse of the library's enumeration or comparison logic) so that library
results can be checked against an independent source of truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from colorder.core import (HOLE, ColorTerm, FinStruct, InputError, Palette,
                           code_of_parts, pair_of, stored_row)
from colorder.refuter import (ABOVE, BELOW, ExtensionStrategy, QueryContext, StrategyAnswer,
                              structure_hash)
from colorder.types import format_type, parse_type, realize_type

POINT_NAMES = "abcdefgh"


def struct_of(points, colors: Mapping[frozenset, ColorTerm], level: int = 0) -> FinStruct:
    """A structure from a coloring keyed by two-element frozensets of point
    names, without checks: a pair left out stays a HOLE, which ``validate``
    reports as malformed.  Tests build deliberately broken structures with
    it."""
    pts = tuple(points)
    pos = {p: i for i, p in enumerate(pts)}
    palette = Palette()
    rows = [[HOLE] * len(pts) for _ in pts]
    for key, c in colors.items():
        i, j = (pos[p] for p in key)
        rows[i][j] = rows[j][i] = palette.id(c)
    return FinStruct.of_rows(pts, tuple(map(stored_row, rows)), palette, level)


def colors_of(s: FinStruct) -> dict[frozenset, ColorTerm]:
    """The coloring of ``s`` keyed by two-element frozensets of point names
    (colored pairs only)."""
    pts, rows = s.points, s.rows
    return {pair_of(pts[i], pts[j]): s.palette.color(rows[i][j])
            for i, j in itertools.combinations(range(len(pts)), 2)
            if rows[i][j] != HOLE}


def base_colors(n: int) -> list[ColorTerm]:
    return [ColorTerm.base(0, i) for i in range(n)]


def has_mono_triangle(points, colorfn) -> bool:
    for u, v, w in itertools.combinations(points, 3):
        if colorfn(u, v) == colorfn(u, w) == colorfn(v, w):
            return True
    return False


def all_structures(max_size: int, num_colors: int, level: int = 0) -> list[FinStruct]:
    """Every valid structure on up to max_size named points over the first
    num_colors level-0 base colors."""
    out = []
    palette = base_colors(num_colors)
    for n in range(max_size + 1):
        pts = tuple(POINT_NAMES[:n])
        pairs = list(itertools.combinations(pts, 2))
        for assignment in itertools.product(palette, repeat=len(pairs)):
            cmap = {pair_of(u, v): c for (u, v), c in zip(pairs, assignment)}
            if has_mono_triangle(pts, lambda u, v: cmap[pair_of(u, v)]):
                continue
            out.append(struct_of(pts, cmap, level))
    return out


def brute_force_types(x: FinStruct, level: int, budget: int):
    """Independent enumeration of (support, cut, colors) triples: build each
    candidate extension literally and scan every triangle in it."""
    pool = [ColorTerm.base(l, n) for l in range(level + 1) for n in range(budget)]
    pool += sorted({c for c in colors_of(x).values()
                    if c.kind != "b" and c.level <= level},
                   key=ColorTerm.sort_key)
    found = []
    for size in range(len(x.points) + 1):
        for supp in itertools.combinations(x.points, size):
            for cut in range(size + 1):
                for cols in itertools.product(pool, repeat=size):
                    by_point = dict(zip(supp, cols))
                    pts = list(supp)
                    pts.insert(cut, "*")

                    def colorfn(u, v):
                        if u == "*":
                            return by_point[v]
                        if v == "*":
                            return by_point[u]
                        return x.color(u, v)

                    if not has_mono_triangle(pts, colorfn):
                        found.append((supp, cut, tuple(cols)))
    return found


def text_keys(triples) -> set:
    """Oracle triples as ``OnePointType.key()`` spells them: each color as
    its canonical text."""
    return {(supp, cut, tuple(map(ColorTerm.text, cols))) for supp, cut, cols in triples}


def marked_isomorphic(s: FinStruct, ms, t: FinStruct, mt) -> bool:
    """Search all bijections for one preserving order, colors and marks."""
    if len(s.points) != len(t.points) or len(ms) != len(mt):
        return False
    for perm in itertools.permutations(t.points):
        m = dict(zip(s.points, perm))
        if any(t.index(m[u]) >= t.index(m[v]) for u, v in s.pairs()):
            continue
        if any(t.color(m[u], m[v]) != s.color(u, v) for u, v in s.pairs()):
            continue
        if all(m[a] == b for a, b in zip(ms, mt)):
            return True
    return False


def all_embeddings(s: FinStruct, t: FinStruct) -> list[dict]:
    """All order- and color-preserving injections of s into t."""
    out = []
    for image in itertools.combinations(t.points, len(s.points)):
        m = dict(zip(s.points, image))
        if all(t.color(m[u], m[v]) == s.color(u, v) for u, v in s.pairs()):
            out.append(m)
    return out


def consistent_placements(base: FinStruct, support, cut: int) -> list[int]:
    """All insertion positions for a new point that agree with its cut over
    the support."""
    ok = []
    for pos in range(len(base.points) + 1):
        if all((base.index(sp) < pos) == (i < cut)
               for i, sp in enumerate(support)):
            ok.append(pos)
    return ok


def color_rank(c: ColorTerm) -> tuple:
    """The color order from its definition: by level, then kind (base <
    marker < pair code), then index or code payload."""
    return (c.level, "bmk".index(c.kind), c.index, c.code)


def reference_type_less(xi, psi) -> bool:
    """The type order applied rule by rule, with the gap taken from the
    consistent placements rather than from the library."""
    base = xi.base
    g1 = min(consistent_placements(base, xi.support, xi.cut))
    g2 = min(consistent_placements(base, psi.support, psi.cut))
    if g1 != g2:                                   # (1) a base point separates
        return g1 < g2
    if len(xi.support) != len(psi.support):        # (2) support size
        return len(xi.support) < len(psi.support)
    diff = set(xi.support) ^ set(psi.support)
    if diff:                                       # (3) largest difference point
        return max(diff, key=base.index) in xi.support
    c1 = dict(zip(xi.support, xi.colors))
    c2 = dict(zip(psi.support, psi.colors))
    for p in sorted(xi.support, key=base.index, reverse=True):
        if c1[p] != c2[p]:                         # (4) color at largest disagreement
            return color_rank(c1[p]) < color_rank(c2[p])
    return False


def reference_iso_check(pairs, s: FinStruct) -> bool:
    """A partial isomorphism check by copying: restrict ``s`` to both sides
    and require an embedding in each direction."""
    fwd = dict(pairs)
    if len(fwd) != len(pairs) or len(set(fwd.values())) != len(fwd):
        return False
    if any(u not in s or v not in s for u, v in pairs):
        return False
    dom = s.restrict(fwd)
    rng = s.restrict(fwd.values())
    return (reference_is_embedding(fwd, dom, rng)
            and reference_is_embedding({v: u for u, v in pairs}, rng, dom))


def reference_verdict(s: FinStruct):
    """``validate`` from its definition, as (ok, reason, triple, color): the
    level bound over all pairs in position order first, then every triple in
    position order, each compared color by color."""
    for u, v in s.pairs():
        if s.color(u, v).level > s.level:
            return False, "level-bound", (u, v, u), s.color(u, v)
    for u, v, w in itertools.combinations(s.points, 3):
        c = s.color(u, v)
        if c == s.color(u, w) == s.color(v, w):
            return False, "monochromatic-triangle", (u, v, w), c
    return True, "", None, None


def random_coloring(rng, names, num_colors: int) -> dict:
    """A frozenset-keyed level-0 coloring of ``names`` with no monochromatic
    triangle: each pair, in lexicographic position order, takes a random one
    of the first ``num_colors`` base colors that closes no triangle with an
    earlier point, or an unused color when none is left."""
    col: dict[tuple[int, int], int] = {}
    fresh = num_colors
    for j in range(len(names)):
        for i in range(j):
            ok = [c for c in range(num_colors)
                  if not any(col[(k, i)] == c == col[(k, j)] for k in range(i))]
            if ok:
                col[(i, j)] = rng.choice(ok)
            else:
                col[(i, j)], fresh = fresh, fresh + 1
    return {pair_of(names[i], names[j]): ColorTerm.base(0, c) for (i, j), c in col.items()}


def reference_realize(f: FinStruct, tau, name: str):
    """``realize_type`` as a copy of the frozenset-keyed coloring dict: the
    new point goes right after the support point below its cut; the support
    colors come from the type and every other point, in position order,
    takes the smallest level-0 base color closing no monochromatic triangle
    with the points colored so far."""
    pos = f.points.index(tau.support[tau.cut - 1]) + 1 if tau.cut else 0
    pts = list(f.points)
    pts.insert(pos, name)
    cols = colors_of(f)
    assigned = dict(zip(tau.support, tau.colors))
    for s, c in assigned.items():
        cols[pair_of(s, name)] = c
    for v in f.points:
        if v in assigned:
            continue
        forbidden = {c for w, c in assigned.items() if f.color(v, w) == c}
        n = 0
        while ColorTerm.base(0, n) in forbidden:
            n += 1
        assigned[v] = cols[pair_of(v, name)] = ColorTerm.base(0, n)
    return struct_of(pts, cols, f.level)


def reference_is_embedding(mapping, s: FinStruct, t: FinStruct) -> bool:
    """An injective map of all points of ``s`` into ``t`` that keeps the order
    and the color of every pair."""
    if set(mapping) != set(s.points) or len(set(mapping.values())) != len(mapping):
        return False
    if any(im not in t for im in mapping.values()):
        return False
    return all(t.points.index(mapping[u]) < t.points.index(mapping[v])
               and t.color(mapping[u], mapping[v]) == s.color(u, v)
               for u, v in itertools.combinations(s.points, 2))


def order_type_vs_point(tau, v: str) -> int:
    """-1 if the type's element comes before base point ``v`` under its
    lowest consistent placement, 1 if after."""
    if v not in tau.base:
        raise InputError(f"unknown base point {v!r}")
    gap = min(consistent_placements(tau.base, tau.support, tau.cut))
    return 1 if tau.base.index(v) < gap else -1


@dataclass(frozen=True)
class PairStructure:
    """The joint configuration of two type elements: their support union
    with both elements inserted, all colors except the undefined one between
    the two marks."""

    points: tuple[str, ...]
    colors: Mapping[frozenset, ColorTerm]  # total except the marked pair
    marked: tuple[str, str]                # lower mark first

    def code(self) -> str:
        pos = {p: i for i, p in enumerate(self.points)}
        texts = []
        hole = pair_of(*self.marked)
        for i, j in itertools.combinations(range(len(self.points)), 2):
            key = pair_of(self.points[i], self.points[j])
            texts.append("?" if key == hole else self.colors[key].text())
        return code_of_parts(len(self.points),
                             texts, (pos[self.marked[0]], pos[self.marked[1]]))


def _mark_ids(taken: set[str]) -> tuple[str, str]:
    stem = "!"
    while stem + "0" in taken or stem + "1" in taken:
        stem += "!"
    return stem + "0", stem + "1"


def pair_structure(xi, psi, ordered: bool = False) -> PairStructure:
    """The marked structure of a pair of distinct types, from the
    definitions: the lower mark by ``reference_type_less`` (or ``xi`` when
    ``ordered``), each mark placed against every union point by
    ``order_type_vs_point``, the lower mark first when no union point lies
    between them, and the colors read point by point."""
    if ordered:
        lo, hi = xi, psi
    else:
        if xi.base != psi.base:
            raise InputError("types over different bases are incomparable")
        if xi.key() == psi.key():
            raise InputError("pair structure requires two distinct types")
        lo, hi = (xi, psi) if reference_type_less(xi, psi) else (psi, xi)
    base = xi.base
    union = base.sorted_points(set(xi.support) | set(psi.support))
    m_lo, m_hi = _mark_ids(set(union))
    marks = [(m_lo, lo), (m_hi, hi)]
    seq = []
    for u in union:
        while marks and order_type_vs_point(marks[0][1], u) == -1:
            seq.append(marks.pop(0)[0])
        seq.append(u)
    seq.extend(m for m, _ in marks)
    marker = ColorTerm.marker(base.level + 1)
    colors = {pair_of(u, v): base.color(u, v) for u, v in itertools.combinations(union, 2)}
    for mark, tau in ((m_lo, lo), (m_hi, hi)):
        own = dict(zip(tau.support, tau.colors))
        for u in union:
            colors[pair_of(u, mark)] = own.get(u, marker)
    return PairStructure(tuple(seq), colors, (m_lo, m_hi))


def reference_pair_color(xi, psi, ordered: bool = False) -> ColorTerm:
    """``katetov.pair_color`` from the reference pair structure's code."""
    code = pair_structure(xi, psi, ordered).code()
    return ColorTerm.pair_code(xi.base.level + 1, code.encode().hex())


# ---------------------------------------------------------------------------
# The certificate checker from its definitions
# ---------------------------------------------------------------------------

def reference_restrict(s: FinStruct, subset) -> FinStruct:
    """The substructure on ``subset``, copied pair by pair into a new
    palette, its points in the order of ``s``."""
    pts = [p for p in s.points if p in set(subset)]
    return struct_of(pts, {pair_of(u, v): s.color(u, v)
                           for u, v in itertools.combinations(pts, 2)}, s.level)


def reference_fault(x: FinStruct, tau, answers):
    """What a strategy's last answers (point -> (side, color) tokens) claim
    about the virtual point over the base ``x``: the first fault, or None,
    with the virtual point's colors and the base points below it.  Answers
    at the type's support are not read.  Faults, in the order they are
    sought: a base answer that claims the virtual point itself or a color
    above the base's level (in the order the points were first asked);
    once every base point has a color, a below-set that is not an initial
    segment of the base, then a base pair colored like the virtual point's
    two colors to its ends; a non-base answer that claims the virtual point
    or a color above the level; and a first non-base answer whose color
    equals a virtual color over the base."""
    vcol = dict(zip(tau.support, tau.colors))
    below = set(tau.support[:tau.cut])
    asked = [(p, side, color) for p, (side, color) in answers.items() if p not in vcol]

    def own_fault(side: str, color: str):
        if side == "self":
            return "self-claim"
        if ColorTerm.parse(color).level > x.level:
            return "level-bound"
        return None

    for p, side, color in asked:
        if p in x:
            if fault := own_fault(side, color):
                return fault, vcol, below
            vcol[p] = ColorTerm.parse(color)
            if side == ABOVE:
                below.add(p)
    if set(vcol) == set(x.points):
        if any(v not in below and w in below for v, w in x.pairs()):
            return "incoherent-order", vcol, below
        if any(vcol[v] == vcol[w] == x.color(v, w) for v, w in x.pairs()):
            return "virtual-triangle", vcol, below
    new = [(side, color) for p, side, color in asked if p not in x]
    for side, color in new:
        if fault := own_fault(side, color):
            return fault, vcol, below
    if new and ColorTerm.parse(new[0][1]) in vcol.values():
        return "virtual-triangle", vcol, below
    return None, vcol, below


def reference_check(cert, strategy) -> bool:
    """Whether ``cert`` is evidence against ``strategy``, from the
    definitions: the structure is colored in full and valid; the base is
    distinct points of it, listed in order, and the type is canonical over
    it; every query's structure (the base and the non-base points asked so
    far, copied out of the structure) has the recorded hash, and the
    strategy, asked there, gives the recorded answer; the answers' claims
    show the recorded fault, or none.  A certificate with a reason is a
    fault certificate and leaves both realizers unset and the transcript
    empty.  Otherwise both realizers are distinct non-base points that the
    log asks, that carry the claimed virtual colors and cut over the base,
    and whose pair has the color answered at ``t1``; the transcript
    alternates fwd, bwd, ... from fwd; and alpha, worked out here as the
    map fixing the base and sending ``t1`` to ``t2`` followed by the
    steps' pairs (a bwd pair flipped), is a partial isomorphism.  The
    answers, alpha and the depth come from the log and the transcript, and
    the kind from the reason, never from the certificate's properties."""
    s, base = cert.structure, tuple(cert.base_points)
    try:
        if not reference_verdict(s)[0]:
            return False
    except KeyError:  # an uncolored pair
        return False
    if any(p not in s for p in base):
        return False
    at = [s.points.index(p) for p in base]
    if at != sorted(set(at)):
        return False
    x = reference_restrict(s, base)
    try:
        tau = parse_type(cert.tau_text, x)
    except InputError:
        return False
    if format_type(tau) != cert.tau_text:
        return False
    asked: set[str] = set()
    answers = {}
    for point, h, side, color in cert.queries:
        if point not in s:
            return False
        asked.add(point)
        seen = reference_restrict(s, asked | set(base))
        if structure_hash(seen) != h:
            return False
        answers[point] = strategy.answer(QueryContext(seen, base, tau, point, h)).tokens()
        if answers[point] != (side, color):
            return False
    fault, vcol, below = reference_fault(x, tau, answers)
    t1, t2, steps = cert.t1, cert.t2, cert.transcript
    if cert.reason:
        return fault == cert.reason and t1 is None and t2 is None and steps == ()
    if fault is not None:
        return False

    if t1 == t2 or t1 not in answers or t2 not in answers:
        return False
    if t1 not in s or t2 not in s or t1 in base or t2 in base:
        return False
    if set(vcol) != set(base):
        return False
    for t in (t1, t2):
        if any(s.color(t, p) != vcol[p] or (s.index(p) < s.index(t)) != (p in below)
               for p in base):
            return False
    if s.color(t1, t2) != ColorTerm.parse(answers[t1][1]):
        return False
    if [d for d, _, _ in steps] != ["fwd" if k % 2 == 0 else "bwd" for k in range(len(steps))]:
        return False
    spelled = [(u, w) if d == "fwd" else (w, u) for d, u, w in steps]
    return reference_iso_check([(p, p) for p in base] + [(t1, t2)] + spelled, s)


# ---------------------------------------------------------------------------
# Strategies that never fault
# ---------------------------------------------------------------------------

def realized_answers(tau) -> dict[str, StrategyAnswer]:
    """Each base point's answer as ``realize_type`` of ``tau`` over its base
    gives it: the side of the new point and its color to the base point.
    Together they claim a full type that shows no fault."""
    f, t = realize_type(tau.base, tau)
    return {p: StrategyAnswer(ABOVE if f.index(p) < f.index(t) else BELOW, f.color(t, p))
            for p in tau.base.points}


def first_base_color_outside(colors) -> ColorTerm:
    return next(c for c in map(ColorTerm.base, itertools.repeat(0), itertools.count())
                if c not in colors)


class TypeKeyedStrategy(ExtensionStrategy):
    """Answers each base point as a realization of the type does, and any
    other point from above, in the smallest base color absent from its
    colors to the base.  Two points of one type over the base get one
    answer, so the refuter closes a monochromatic triangle."""

    name = "type-keyed"

    def __init__(self):
        self.said: dict[str, StrategyAnswer] = {}  # by point, from the first query on

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        said = self.said = self.said or realized_answers(ctx.tau)
        if ctx.point in ctx.tau.base:
            return said[ctx.point]
        return StrategyAnswer(ABOVE, first_base_color_outside(
            {ctx.current.color(ctx.point, p) for p in ctx.base_points}))


class CommittedStrategy(TypeKeyedStrategy):
    """Answers each base point as a realization of the type does, keeps
    every answer, and gives each new point, from above, the smallest base
    color that closes no triangle with an earlier answer.  The second
    realizer is joined to the first in the first's answer, so it gets
    another: the refuter finds an equivariance violation.  It holds state,
    so a checker must replay it from a fresh instance."""

    name = "committed"

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        said = self.said = self.said or realized_answers(ctx.tau)
        if ctx.point not in said:
            closing = {a.color for r, a in said.items()
                       if a.color == ctx.current.color(ctx.point, r)}
            said[ctx.point] = StrategyAnswer(ABOVE, first_base_color_outside(closing))
        return said[ctx.point]


class LocalTableStrategy(ExtensionStrategy):
    """One strategy of the 2-color *local table* class over a one-point
    base ``a``: ``table[0]`` answers ``a``, and ``table[1 + 2 * above +
    n]`` any other point, above ``a`` or not, joined to it in ``b:0:n``.
    Two realizers of one type read alike, so no table tells them apart."""

    name = "local-table"

    def __init__(self, table: tuple[StrategyAnswer, ...]):
        self.table = table

    def answer(self, ctx: QueryContext) -> StrategyAnswer:
        (a,) = ctx.base_points
        if ctx.point == a:
            return self.table[0]
        above = ctx.current.index(a) < ctx.current.index(ctx.point)
        return self.table[1 + 2 * above + ctx.current.color(ctx.point, a).index]


# ---------------------------------------------------------------------------
# Amalgamation from its policy
# ---------------------------------------------------------------------------

def reference_amalgamate(a: FinStruct, b: FinStruct, over: FinStruct,
                         into_a: Mapping[str, str], into_b: Mapping[str, str]):
    """``amalgamate`` from its stated policy, as (points, coloring keyed by
    two-element frozensets, left map, right map).  A point of ``a`` or ``b``
    outside the image of ``over`` is new; its cut is the number of image
    points below it on its side.  The new points of cut k go right before
    the k-th common point (after the last when k is the size of ``over``),
    left side first, each side in its own order.  In that order each new
    point is named ``<p>`` if no common point and no earlier new point has
    that name, else ``<p>.a`` (``<p>.b`` on the right), else the first free
    of ``<p>.a1``, ``<p>.a2``, ...  Each side's pairs keep their colors,
    and every other pair, in position order, takes the smallest ``b:0:n``
    that closes no triangle with the pairs colored before it."""
    new = []   # (cut, side, position on the side, point)
    for side, (s, into) in enumerate(((a, into_a), (b, into_b))):
        image = set(into.values())
        for i, p in enumerate(s.points):
            if p not in image:
                new.append((sum(q in image for q in s.points[:i]), side, i, p))
    slots = []   # (side, point) in the amalgam's order; side None for a common point
    for k in range(len(over.points) + 1):
        slots += [(side, p) for cut, side, _, p in sorted(new) if cut == k]
        if k < len(over.points):
            slots.append((None, over.points[k]))
    used = set(over.points)
    maps = ({im: g for g, im in into_a.items()}, {im: g for g, im in into_b.items()})
    points = []
    for side, p in slots:
        name = p
        if side is not None:
            tag = "ab"[side]
            candidates = itertools.chain((p, f"{p}.{tag}"),
                                         (f"{p}.{tag}{k}" for k in itertools.count(1)))
            name = next(c for c in candidates if c not in used)
            maps[side][p] = name
        used.add(name)
        points.append(name)
    cols = {}
    for s, m in zip((a, b), maps):
        for u, v in s.pairs():
            cols[pair_of(m[u], m[v])] = s.color(u, v)
    for u, v in itertools.combinations(points, 2):
        if pair_of(u, v) in cols:
            continue
        n = 0
        while any(cols.get(pair_of(u, w)) == ColorTerm.base(0, n) == cols.get(pair_of(v, w))
                  for w in points if w not in (u, v)):
            n += 1
        cols[pair_of(u, v)] = ColorTerm.base(0, n)
    return tuple(points), cols, maps[0], maps[1]


# ---------------------------------------------------------------------------
# The structure reader
# ---------------------------------------------------------------------------

def reference_parse_struct(text: str) -> tuple[str, FinStruct]:
    """The structure reader as one dict keyed by ``(i, j)`` position
    pairs, ``i < j``, filled line by line and then copied into rows, with
    the first missing pair found by a walk over every pair in position
    order.  Its messages are the reader's.  A duplicate point is refused
    at its own line, so the points need no second check."""
    name = None
    level = 0
    points: dict[str, int] = {}
    pair_ids: dict[tuple[int, int], int] = {}
    palette = Palette()
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
            points[tok[1]] = len(points)
        elif tok[0] == "color":
            if len(tok) != 4:
                raise InputError(f"line {lineno}: bad color line")
            u, v, term = tok[1], tok[2], tok[3]
            if u not in points or v not in points:
                raise InputError(f"line {lineno}: color for unknown point")
            i, j = points[u], points[v]
            if i == j:
                raise InputError(f"line {lineno}: degenerate pair ({u!r}, {u!r})")
            key = (i, j) if i < j else (j, i)
            if key in pair_ids:
                raise InputError(f"line {lineno}: duplicate pair ({u}, {v})")
            try:
                pair_ids[key] = palette.id(ColorTerm.parse(term))
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
        else:
            raise InputError(f"line {lineno}: unknown directive {tok[0]!r}")
    if name is None:
        raise InputError("missing structure header")
    pts = tuple(points)
    n = len(pts)
    missing = next((ij for ij in itertools.combinations(range(n), 2) if ij not in pair_ids),
                   None)
    if missing is not None:
        u, v = sorted(pts[k] for k in missing)
        raise InputError(f"missing color for pair ({u}, {v})")
    if level < 0:
        raise InputError("negative level")
    rows = [[HOLE] * n for _ in pts]
    for (i, j), c in pair_ids.items():
        rows[i][j] = rows[j][i] = c
    return name, FinStruct.of_rows(pts, tuple(map(stored_row, rows)), palette, level)
