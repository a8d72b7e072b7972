"""Brute-force oracles for the test suite.

Everything here is written directly from the definitions (exhaustive search,
no reuse of the library's enumeration or comparison logic) so that library
results can be checked against an independent source of truth.
"""

from __future__ import annotations

import itertools

from colorder.core import ColorTerm, FinStruct, is_embedding, pair_of

POINT_NAMES = "abcdefgh"


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
            out.append(FinStruct(pts, cmap, level))
    return out


def brute_force_types(x: FinStruct, level: int, budget: int):
    """Independent enumeration of (support, cut, colors) triples: build each
    candidate extension literally and scan every triangle in it."""
    pool = [ColorTerm.base(l, n) for l in range(level + 1) for n in range(budget)]
    pool += sorted({c for c in x.colors.values()
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
    return (is_embedding(fwd, dom, rng)
            and is_embedding({v: u for u, v in pairs}, rng, dom))
