import hashlib
import itertools
import random
from pathlib import Path

import pytest

from colorder.core import (ColorTerm, FinStruct, InputError, canonical_code,
                           format_struct, is_embedding, pair_of, parse_struct,
                           validate)
from colorder.limit import (Approximation, PartialIso, embed,
                            extend_partial_iso, format_pairs, grow,
                            parse_pairs, saturation_check)
from colorder.types import OnePointType, enumerate_types, parse_type
from golden_cases import GOLDEN
from helpers import (all_structures, random_coloring, reference_is_embedding,
                     reference_iso_check, reference_realize, struct_of)

B = ColorTerm.base


def grown(steps: int, seed: FinStruct | None = None) -> Approximation:
    return grow(Approximation(seed=seed), steps)


# ---------------------------------------------------------------------------
# growth and saturation
# ---------------------------------------------------------------------------

def test_first_step_realizes_the_free_type():
    a = grown(1)
    assert len(a.current.points) == 1


def test_growth_is_valid_at_every_stage():
    a = Approximation()
    for _ in range(30):
        grow(a, 5)
        assert validate(a.current).ok


def test_growth_realizes_all_budget1_types_over_first_point():
    a = grown(60)
    first = a.birth[0]
    sub = a.current.restrict((first,))
    for tau in enumerate_types(sub, 0, 1):
        assert a.realizer_of(tau) is not None
        assert tau.key() in a.ledger


def test_grow_is_idempotent_on_realized_tasks():
    # the second schedule step re-enumerates the free type at budget 2;
    # the ledger prevents a duplicate realizer
    a = grown(1)
    assert len(a.current.points) == 1 and len(a.ledger) == 1
    grow(a, 1)
    assert len(a.current.points) == 1 and len(a.ledger) == 1
    size = len(grown(40).current.points)
    b = grown(40)
    assert len(b.current.points) == size


def test_ledger_is_palette_free():
    # a task parsed over an equal seed whose palette lists b:0:1 first has
    # other color ids than over the approximation's own palette
    pairs = [(pair_of("a", "b"), B(0, 0)), (pair_of("a", "c"), B(0, 1)),
             (pair_of("b", "c"), B(0, 1))]
    seed = FinStruct.build("abc", dict(pairs))
    copy = FinStruct.build("abc", dict(reversed(pairs)))
    assert copy == seed and copy.palette.texts != seed.palette.texts
    text = "type supp=a cut=0 colors=b:0:0 level=0"
    own, foreign = parse_type(text, seed), parse_type(text, copy)
    assert own.ids != foreign.ids
    a = Approximation(seed)
    a.realize(foreign)
    assert a.ledger == {own.key()}
    # steps 1-4 meet the free type; step 5 is this task over {a}, which
    # realizes a new point unless the ledger already holds it
    fresh = grow(Approximation(seed), 4)
    size = len(fresh.current.points)
    assert own.key() not in fresh.ledger
    grow(fresh, 1)
    assert own.key() in fresh.ledger and len(fresh.current.points) == size + 1
    grow(a, 4)
    size, tasks = len(a.current.points), len(a.ledger)
    grow(a, 1)
    assert (len(a.current.points), len(a.ledger)) == (size, tasks)
    assert "task supp=a cut=0 colors=b:0:0\n" in a.format()


def test_saturation_window_zero_is_vacuous():
    assert saturation_check(Approximation(), 0, 1)


def test_fresh_approximation_is_not_saturated():
    assert not saturation_check(Approximation(), 1, 1)


def test_saturation_after_coverage():
    a = Approximation()
    for _ in range(40):
        grow(a, 25)
        if saturation_check(a, 2, 1):
            break
    assert saturation_check(a, 2, 1)


class ReferenceCheckedApproximation(Approximation):
    """Compares every realization with the frozenset-dict reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0

    def _realize(self, tau: OnePointType) -> str:
        # copy the rows without reading ``current``, so that growth writes
        # them in place as it does unchecked
        s = self._s
        prev = FinStruct.of_rows(s.points, tuple(row[:] for row in s.rows), s.palette, s.level)
        u = super()._realize(tau)
        assert self.current == reference_realize(prev, tau, u)
        self.checked += 1
        return u


class BaseKeepingApproximation(Approximation):
    """Keeps the base of every realized task, with its bytes and verdict
    at the time of the realization."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kept: list = []

    def _realize(self, tau: OnePointType) -> str:
        self.kept.append(snapshot(tau.base))
        return super()._realize(tau)


def snapshot(s: FinStruct) -> tuple:
    return s, format_struct(s), validate(s)


def test_kept_structures_stay_as_they_were():
    """Rows are mutable arrays, yet no code writes one after it is stored:
    the approximation's earlier structures and the bases of its realized
    tasks (restrictions from the schedule, and the whole structure for an
    embed's transported types) format to the same bytes and validate the
    same after the approximation grows further."""
    rng = random.Random(4)
    a = grow(BaseKeepingApproximation(budget_cap=3), 300)
    kept = [snapshot(a.current)]
    names = [f"e{k}" for k in range(5)]
    a, _ = embed(a, FinStruct.build(names, random_coloring(rng, names, 3)))
    kept.append(snapshot(a.current))
    grow(a, 600)
    kept.extend(a.kept)
    assert any(s is not a.current and len(s) > 30 for s, _, _ in kept)
    for s, body, verdict in kept:
        assert (format_struct(s), validate(s)) == (body, verdict)


def test_rows_are_copied_only_after_a_read():
    """Growth that keeps ``current`` after every step and growth that never
    reads it give the same bytes; each kept structure stays as it was read;
    a realization after a read leaves the structure read with no row of
    the new one, and with no read it writes the old rows in place."""
    read, kept = Approximation(budget_cap=3), []
    for _ in range(300):
        before = read.current
        grow(read, 1)
        if read._s is not before:
            assert not {*map(id, before.rows)} & {*map(id, read._s.rows)}
        kept.append(snapshot(read.current))
    unread = Approximation(budget_cap=3)
    old = []
    for _ in range(300):
        old.append(unread._s.rows[:1])  # read past ``current``, so nothing is shared
        grow(unread, 1)
    assert read.format() == unread.format()
    assert len(unread._s) > 30
    for s, body, verdict in kept:
        assert (format_struct(s), validate(s)) == (body, verdict)
    rows = {*map(id, unread._s.rows)}
    assert all(id(row) in rows for first in old for row in first)


def test_every_realization_matches_the_dict_reference():
    """Grown from a non-empty seed, then by embeds and back-and-forth steps:
    every new point, colored from the neighbour masks the approximation
    keeps across realizations, equals the reference's, which rescans every
    colored pair."""
    rng = random.Random(9)
    seed = FinStruct.build("pqrs", random_coloring(rng, "pqrs", 2))
    a = grow(ReferenceCheckedApproximation(seed, budget_cap=3), 400)
    grown_n = a.checked
    for size in (4, 5, 6):
        names = [f"e{k}" for k in range(size)]
        a, e = embed(a, FinStruct.build(names, random_coloring(rng, names, 3)))
        assert reference_is_embedding(e.as_dict, e.source, e.target)
    embedded_n = a.checked - grown_n
    over = seed.points[:2]
    classes: dict = {}
    for u in a.current.points:
        if u not in over:
            key = (sum(a.current.index(q) < a.current.index(u) for q in over),
                   tuple(a.current.color(q, u) for q in over))
            classes.setdefault(key, []).append(u)
    t1, t2 = next(ps for ps in classes.values() if len(ps) >= 2)[:2]
    p = PartialIso(tuple((q, q) for q in over) + ((t1, t2),))
    for k in range(12):
        side = p if k % 2 == 0 else p.inverse()
        u = next(q for q in reversed(a.current.points) if q not in side.domain())
        a, side = extend_partial_iso(a, side, u)
        p = side if k % 2 == 0 else side.inverse()
    assert grown_n > 20 and embedded_n > 0 and a.checked - grown_n - embedded_n > 0
    assert validate(a.current).ok


# ---------------------------------------------------------------------------
# partial isomorphisms
# ---------------------------------------------------------------------------

def test_check_agrees_with_reference_on_small_maps():
    """Every list of at most three pairs, including repeated points on
    either side, reversed orders, color mismatches and an unknown point."""
    for s in all_structures(3, 2):
        names = s.points + ("zz",)
        pairs = list(itertools.product(names, repeat=2))
        for size in range(4):
            for chosen in itertools.product(pairs, repeat=size):
                assert PartialIso(chosen).check(s) == reference_iso_check(chosen, s)


def test_extend_empty_iso_pairs_free_types():
    a = grown(30)
    u = a.current.points[0]
    a, p = extend_partial_iso(a, PartialIso(()), u)
    assert p.pairs[0][0] == u
    assert p.check(a.current)


def test_extend_transports_color_and_side():
    x = FinStruct.build("x", {})
    a = grown(80, seed=x)
    # find a point above x with some color; its image must match both
    p0 = PartialIso((("x", "x"),))
    candidates = [u for u in a.current.points
                  if u != "x" and a.current.index(u) > a.current.index("x")]
    t1 = candidates[0]
    q = a.current.color("x", t1)
    a, p1 = extend_partial_iso(a, p0, t1)
    t2 = p1.fwd()[t1]
    assert a.current.color("x", t2) == q
    assert a.current.index(t2) > a.current.index("x")
    assert p1.check(a.current)


def test_back_and_forth_alternation_stays_iso():
    a = grown(60)
    p = PartialIso(())
    for k in range(4):
        if k % 2 == 0:
            u = next(q for q in a.current.points if q not in p.domain())
            a, p = extend_partial_iso(a, p, u)
        else:
            u = next(q for q in a.current.points if q not in p.range())
            a, inv = extend_partial_iso(a, p.inverse(), u)
            p = inv.inverse()
        assert p.check(a.current)
    assert len(p.pairs) == 4


def test_extend_rejects_duplicate_domain_point():
    a = grown(10)
    u = a.current.points[0]
    a, p = extend_partial_iso(a, PartialIso(()), u)
    with pytest.raises(InputError) as exc:
        extend_partial_iso(a, p, u)
    assert str(exc.value) == f"point {u!r} already in the domain"


def test_extend_rejects_a_map_that_breaks_order_or_color():
    a = grown(60)
    s = a.current
    pts = s.points
    x, y = pts[0], pts[1]
    swapped = PartialIso(((x, y), (y, x)))  # keeps the color, breaks the order
    # fixes the lowest point x and sends w to v, both above x, in another color
    w, v = next((w, v) for w, v in itertools.permutations(pts[1:], 2)
                if s.color(x, w) != s.color(x, v))
    recolored = PartialIso(((x, x), (w, v)))
    assert reference_iso_check(swapped.pairs, s) is False
    assert reference_iso_check(recolored.pairs, s) is False
    for bad in (swapped, recolored):
        u = next(q for q in pts if q not in bad.domain())
        with pytest.raises(InputError, match="not a partial isomorphism"):
            extend_partial_iso(a, bad, u)


def test_genericity_on_two_point_substructures():
    """Any isomorphism between 2-point substructures of the first 8 points
    extends over any requested third point."""
    a = Approximation()
    while len(a.current.points) < 8:
        grow(a, 25)
    first8 = a.birth[:8]
    code_of = {}
    for pair in itertools.combinations(first8, 2):
        supp = a.current.sorted_points(pair)
        code_of[pair] = canonical_code(a.current.restrict(supp))
    extensions = 0
    for dom in itertools.combinations(first8, 2):
        for rng in itertools.combinations(first8, 2):
            if code_of[dom] != code_of[rng]:
                continue
            dsorted = a.current.sorted_points(dom)
            rsorted = a.current.sorted_points(rng)
            p = PartialIso(tuple(zip(dsorted, rsorted)))
            assert p.check(a.current)
            for w in first8:
                if w in dsorted:
                    continue
                a, p2 = extend_partial_iso(a, p, w)
                assert p2.check(a.current)
                extensions += 1
    assert extensions > 50


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_empty_structure():
    a = grown(5)
    a, e = embed(a, FinStruct.empty())
    assert e.mapping == ()


def test_embed_single_point():
    a = grown(5)
    s = FinStruct.build("z", {})
    a, e = embed(a, s)
    assert is_embedding(e.as_dict, s, a.current)


def test_embed_three_point_structure():
    a = grown(20)
    s = FinStruct.build("xyz", {pair_of("x", "y"): B(0, 0),
                                pair_of("x", "z"): B(0, 1),
                                pair_of("y", "z"): B(0, 0)})
    a, e = embed(a, s)
    assert is_embedding(e.as_dict, s, a.current)
    # the image is marked-isomorphic to the source
    image = tuple(e.apply(p) for p in s.points)
    assert canonical_code(s, s.points) == canonical_code(
        a.current.restrict(image), image)


def test_embed_a_color_the_approximation_never_used():
    """A parsed structure has its own palette; its colors cross into the
    approximation's, b:0:7 included, which no growth step ever uses."""
    _, s = parse_struct("structure s level 0\npoint x\npoint y\npoint z\n"
                        "color x y b:0:7\ncolor x z b:0:0\ncolor y z b:0:7\n")
    a = grown(20)
    assert "b:0:7" not in a.current.palette.ids
    a, e = embed(a, s)
    assert is_embedding(e.as_dict, s, a.current) and validate(a.current).ok
    assert a.current.color(e.apply("x"), e.apply("y")) == B(0, 7)


MONO3 = struct_of("abc", {pair_of(u, v): B(0, 0) for u, v in itertools.combinations("abc", 2)})
LEVEL1 = FinStruct.build("ab", {pair_of("a", "b"): ColorTerm.marker(1)}, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: Approximation(seed=LEVEL1), "approximations live at level 0"),
    (lambda: Approximation(seed=MONO3), "invalid seed structure: monochromatic-triangle"),
    (lambda: Approximation(budget_cap=0), "budget cap must be at least 1"),
    (lambda: grow(Approximation(), -5), "steps must be nonnegative"),
    (lambda: embed(Approximation(), LEVEL1),
     "only level-0 structures embed into an approximation"),
])
def test_limit_messages(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


def test_embed_rejects_invalid_structure():
    with pytest.raises(InputError) as exc:
        embed(Approximation(), MONO3)
    assert str(exc.value) == "invalid structure: monochromatic-triangle"


# ---------------------------------------------------------------------------
# determinism and text forms
# ---------------------------------------------------------------------------

def test_two_equal_runs_serialize_identically():
    a1 = grown(150)
    a2 = grown(150)
    assert a1.format() == a2.format()


def test_approximation_chunks_join_to_its_format():
    """``Approximation.chunks`` streams the structure one row per chunk,
    then the ledger; joined, the chunks are :meth:`Approximation.format`'s
    text, which the ``limit-build`` golden pins.  Chunks asked for before
    further growth print the approximation as it was when they were asked
    for, so asking reads the structure and the next point copies the rows;
    :meth:`Approximation.format` reads it without marking it."""
    a = grow(Approximation(budget_cap=2), 60)
    n = len(a._s.points)
    rows = {*map(id, a._s.rows)}
    text = a.format()
    assert text == Path(GOLDEN, "limit_build.txt").read_text()
    grow(a, 40)
    assert len(a._s.points) > n and rows <= {*map(id, a._s.rows)}   # written in place
    n, text = len(a._s.points), a.format()
    rows, chunks = {*map(id, a._s.rows)}, a.chunks()
    grow(a, 40)
    assert len(a._s.points) > n and not rows & {*map(id, a._s.rows)}   # copied first
    chunks = list(chunks)
    assert len(chunks) == n + 2 and chunks[-1].startswith("ledger\n")
    assert "".join(chunks) == text != a.format()
    assert "".join(a.chunks("w")) == a.format("w")


def test_seeded_runs_are_deterministic(two_point):
    a1 = grown(100, seed=two_point)
    a2 = grown(100, seed=two_point)
    assert a1.format() == a2.format()
    assert a1.format() != grown(100).format()


def test_realized_names_skip_the_seed_names():
    """Each realized point takes the first ``u<k>`` not yet in the structure,
    as a scan from ``u0`` finds it, around the seed's ``u0`` and ``u2``."""
    seed = FinStruct.build(["u0", "x", "u2"], {pair_of("u0", "x"): B(0, 0),
                                               pair_of("u0", "u2"): B(0, 1),
                                               pair_of("x", "u2"): B(0, 0)})
    new = grown(40, seed=seed).birth[3:]
    assert new[:3] == ["u1", "u3", "u4"]
    taken = set(seed.points)
    for u in new:
        assert u == next(f"u{k}" for k in itertools.count() if f"u{k}" not in taken)
        taken.add(u)


def test_grow_6000_steps_bytes():
    """Byte pin of an approximation well past the golden sizes; the digest
    was taken from the realizer that rescanned every colored point for each
    new pair."""
    a = grow(Approximation(budget_cap=3), 6000)
    body = format_struct(a.current).encode()
    assert (len(a.current.points), hashlib.sha256(body).hexdigest()) == (
        418, "3c8002a5be82784ce615b9d406c0ba1c3bcdb47ceea0e6fa9cde1710ec458d4b")


def test_pair_lines_roundtrip():
    p = PartialIso((("a", "b"), ("c", "d")))
    assert parse_pairs(format_pairs(p.pairs)) == p
    with pytest.raises(InputError):
        parse_pairs("pair a\n")
