import itertools
import random
import signal
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colorder import types
from colorder.core import (ColorTerm, FinStruct, InputError, format_struct, pair_of,
                           parse_struct, validate)
from colorder.types import (MAX_TYPES, OnePointType, enumerate_types, format_type,
                            insert_position, parse_type, realize_type,
                            transport, type_of_point)
from colorder.limit import Approximation, grow
from golden_cases import data
from helpers import (all_structures, brute_force_types, colors_of,
                     consistent_placements, reference_realize, text_keys)

B = ColorTerm.base


# ---------------------------------------------------------------------------
# type_of_point
# ---------------------------------------------------------------------------

def test_read_off_simple(two_point):
    tau = type_of_point(two_point, "b", ("a",))
    assert tau.support == ("a",) and tau.cut == 1 and tau.colors == (B(0, 0),)


def test_read_off_empty_support(two_point):
    tau = type_of_point(two_point, "b", ())
    assert tau.support == () and tau.cut == 0 and tau.colors == ()


def test_read_off_middle_point():
    s = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                pair_of("a", "c"): B(0, 1),
                                pair_of("b", "c"): B(0, 0)})
    tau = type_of_point(s, "b", ("a", "c"))
    assert tau.cut == 1
    assert tau.colors == (B(0, 0), B(0, 0))


def test_read_off_rejects_point_in_support(two_point):
    with pytest.raises(InputError) as exc:
        type_of_point(two_point, "b", ("b",))
    assert str(exc.value) == "point 'b' may not lie in its own support"


AB = FinStruct.build("ab", {pair_of("a", "b"): B(0, 0)})
LEVEL1 = FinStruct.build("ab", {pair_of("a", "b"): ColorTerm.marker(1)}, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: OnePointType.build(AB, ("a",), 0, (), 0), "support and colors must align"),
    (lambda: OnePointType.build(AB, ("a",), 2, (B(0, 0),), 0),
     "cut 2 out of range for support of size 1"),
    (lambda: OnePointType.build(AB, ("a",), 0, (B(1, 0),), 0), "color b:1:0 exceeds type level 0"),
    (lambda: type_of_point(AB, "z", ()), "unknown point 'z'"),
    (lambda: type_of_point(AB, "a", ("z",)), "support contains unknown points"),
    (lambda: enumerate_types(LEVEL1, 0, 1), "base structure exceeds the enumeration level"),
])
def test_type_messages(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_count_over_empty():
    assert len(enumerate_types(FinStruct.empty(), 0, 2)) == 1


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_count_over_singleton(one_point, budget):
    assert len(enumerate_types(one_point, 0, budget)) == 1 + 2 * budget


def test_count_over_two_points(two_point):
    # free type, 2x2 singleton types per side, 3 cuts x (2^2 - 1) full types
    assert len(enumerate_types(two_point, 0, 2)) == 18


def test_enumeration_matches_brute_force():
    for x in all_structures(3, 2):
        for budget in (1, 2):
            got = {t.key() for t in enumerate_types(x, 0, budget)}
            want = text_keys(brute_force_types(x, 0, budget))
            assert got == want
            assert len(got) == len(enumerate_types(x, 0, budget))  # no duplicates


@pytest.mark.parametrize("budget", [2, 3])
def test_build_accepts_exactly_the_brute_force_types(budget):
    pool = [B(0, n) for n in range(budget)]
    for x in all_structures(3, 2):
        valid = set(brute_force_types(x, 0, budget))
        for size in range(len(x.points) + 1):
            for supp in itertools.combinations(x.points, size):
                for cut in range(size + 1):
                    for cols in itertools.product(pool, repeat=size):
                        if (supp, cut, cols) in valid:
                            tau = OnePointType.build(x, supp, cut, cols, 0)
                            assert tau.key() == (supp, cut, tuple(map(ColorTerm.text, cols)))
                        else:
                            with pytest.raises(InputError):
                                OnePointType.build(x, supp, cut, cols, 0)


def test_enumeration_is_sorted_and_valid(two_point):
    from colorder.katetov import compare_types
    taus = enumerate_types(two_point, 0, 2)
    for t1, t2 in zip(taus, taus[1:]):
        assert compare_types(t1, t2) == -1
    for tau in taus:
        OnePointType.build(tau.base, tau.support, tau.cut, tau.colors, tau.level)


def test_walk_holds_every_cap(monkeypatch, two_point):
    """With the size bound out of the way, the walk itself raises at every
    cap below the count, and a cap of exactly the count passes."""
    taus = enumerate_types(two_point, 0, 2)
    monkeypatch.setattr(types, "check_type_count", lambda *args: None)
    for cap in range(len(taus) + 1):
        monkeypatch.setattr(types, "MAX_TYPES", cap)
        if cap < len(taus):
            with pytest.raises(InputError, match=f"^more than {cap} types$"):
                enumerate_types(two_point, 0, 2)
        else:
            assert enumerate_types(two_point, 0, 2) == taus


def test_enumeration_cap_stops_before_a_whole_color_list():
    """Over three points at budget 100 the cap is passed inside a two-point
    support, whose colorings alone would number nearly 100**2 per support:
    the walk builds no more of them than the cap needs.  Its traced peak is
    near 18 MiB; building each support's whole list first peaks near
    190 MiB."""
    x = parse_struct(Path(data("three_point.txt")).read_text())[1]
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"more than {MAX_TYPES} types"):
            enumerate_types(x, 0, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_budget_zero_visits_only_colorable_supports():
    """A valid 30-point base at budget 0 has one type, over the empty
    support.  No one-point support can be colored, so no larger one is
    tried; a walk over all 2**30 supports runs past the alarm and fails."""
    pts = [f"p{i}" for i in range(30)]
    # the highest bit where i and j differ: three points never share it
    x = FinStruct.build(pts, {pair_of(pts[i], pts[j]): B(0, (i ^ j).bit_length() - 1)
                              for i, j in itertools.combinations(range(30), 2)})

    def expire(*_):
        raise TimeoutError("the enumeration took more than 10 s")

    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        taus = enumerate_types(x, 0, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    assert list(map(format_type, taus)) == ["type supp= cut=0 colors= level=0"]


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def test_realize_on_its_own_support(two_point):
    tau = OnePointType.build(two_point, ("a", "b"), 1, (B(0, 0), B(0, 1)), 0)
    g, u = realize_type(two_point, tau)
    assert g.points == ("a", u, "b")
    assert g.color("a", u) == B(0, 0) and g.color("b", u) == B(0, 1)


def test_realize_fills_with_smallest_admissible(two_point):
    tau = OnePointType.build(two_point, ("b",), 1, (B(0, 1),), 0)
    g, u = realize_type(two_point, tau)
    assert g.points == ("a", "b", u)
    # triangle a,b,u carries colors 0,0,1 -> not monochromatic, so b:0:0 is fine
    assert g.color("a", u) == B(0, 0)
    assert validate(g).ok


def test_realize_avoids_forced_triangle(two_point):
    tau = OnePointType.build(two_point, ("b",), 1, (B(0, 0),), 0)
    g, u = realize_type(two_point, tau)
    # c(a,u) = b:0:0 would close the triangle with c(a,b) = c(b,u) = b:0:0
    assert g.color("a", u) == B(0, 1)
    assert validate(g).ok


def test_round_trip_exhaustive():
    for f in all_structures(3, 2):
        for tau in enumerate_types(f, 0, 2):
            g, u = realize_type(f, tau)
            assert validate(g).ok
            back = type_of_point(g, u, tau.support)
            assert back.key() == tau.key()
            assert back.base == f


def test_minimal_placement_oracle():
    for f in all_structures(3, 2):
        for tau in enumerate_types(f, 0, 2):
            placements = consistent_placements(f, tau.support, tau.cut)
            assert placements, "every type must have a consistent placement"
            assert insert_position(f, tau.support, tau.cut) == min(placements)


def test_realize_rejects_foreign_support(two_point):
    other = FinStruct.build("xy", {pair_of("x", "y"): B(0, 0)})
    tau = OnePointType.build(other, ("x",), 0, (B(0, 0),), 0)
    with pytest.raises(InputError):
        realize_type(two_point, tau)


@pytest.mark.parametrize("realize", [
    lambda f, tau: realize_type(f, tau),
    lambda f, tau: Approximation(seed=f).realize(tau),
], ids=["realize_type", "Approximation.realize"])
def test_realize_rejects_a_support_that_disagrees(two_point, realize):
    """A type over another coloring of the same points: realized here, it
    would close the triangle a, b, new point in b:0:0."""
    other = FinStruct.build("ab", {pair_of("a", "b"): B(0, 1)})
    tau = OnePointType.build(other, ("a", "b"), 1, (B(0, 0), B(0, 0)), 0)
    with pytest.raises(InputError, match="type support disagrees"):
        realize(two_point, tau)
    # the same colors in the other order
    with pytest.raises(InputError, match="type support disagrees"):
        realize(FinStruct.build("ba", {pair_of("a", "b"): B(0, 1)}), tau)


def test_transport_rejects_an_order_reversing_mapping(two_point):
    """The image support must list the base points in base order, which
    ``OnePointType.build`` checks for every transported type."""
    tau = OnePointType.build(two_point, ("a", "b"), 1, (B(0, 1), B(0, 2)), 0)
    assert transport(tau, {"a": "a", "b": "b"}, two_point) == tau
    with pytest.raises(InputError, match="support must list distinct base points in base order"):
        transport(tau, {"a": "b", "b": "a"}, two_point)


def test_realize_rejects_colliding_name(two_point):
    tau = OnePointType.build(two_point, (), 0, (), 0)
    with pytest.raises(InputError) as exc:
        realize_type(two_point, tau, name="a")
    assert str(exc.value) == "point 'a' already present"


def test_realize_names_the_first_free_u():
    """Over a structure holding ``u0`` and ``u1``, the new point is ``u2``."""
    x = FinStruct.build(["u0", "u1"], {pair_of("u0", "u1"): B(0, 0)})
    tau = OnePointType.build(x, ("u1",), 1, (B(0, 1),), 0)
    f, u = realize_type(x, tau)
    assert u == "u2"
    assert f.points == ("u0", "u1", "u2")


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def test_type_text_roundtrip(two_point):
    for tau in enumerate_types(two_point, 0, 2):
        text = format_type(tau)
        assert parse_type(text, two_point) == tau


def test_type_text_free(two_point):
    tau = OnePointType.build(two_point, (), 0, (), 0)
    assert format_type(tau) == "type supp= cut=0 colors= level=0"
    assert parse_type(format_type(tau), two_point) == tau


@pytest.fixture(scope="module")
def grown_structure():
    return grow(Approximation(budget_cap=3), 700).current


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("ambient", "restriction", "parsed")))
def test_realize_type_matches_the_dict_reference(grown_structure, seed, anchor):
    """Random valid types over a grown approximation, anchored on it, on
    the restriction to their support, or on a separately parsed copy of
    that restriction (its own palette), with colors up to b:0:5 (some
    absent from the approximation), realize exactly as the frozenset-dict
    reference does."""
    rng = random.Random(seed)
    f = grown_structure
    for _ in range(50):
        supp = f.sorted_points(rng.sample(f.points, rng.randint(0, 5)))
        base = f if anchor == "ambient" else f.restrict(supp)
        if anchor == "parsed":
            base = parse_struct(format_struct(base))[1]
        cols = [B(0, rng.choice((0, 1, 2, 3, 5))) for _ in supp]
        try:
            tau = OnePointType.build(base, supp, rng.randint(0, len(supp)), cols, 0)
            break
        except InputError:
            continue
    new, u = realize_type(f, tau, name="fresh")
    ref = reference_realize(f, tau, "fresh")
    assert u == "fresh" and new.points == ref.points
    assert colors_of(new) == colors_of(ref)
    assert validate(new).ok


def test_type_equality_agrees_with_key_across_palettes():
    """Equal types over equal bases are equal even when the palettes list
    their colors in different orders."""
    text = "structure s level 0\npoint a\n"
    _, x = parse_struct(text)
    _, y = parse_struct(text)
    y.palette.id(B(0, 5))
    a = parse_type("type supp=a cut=1 colors=b:0:1 level=0", x)
    b = parse_type("type supp=a cut=1 colors=b:0:1 level=0", y)
    assert x == y and a.ids != b.ids
    assert a.key() == b.key() and a == b
    assert a != parse_type("type supp=a cut=1 colors=b:0:5 level=0", y)
