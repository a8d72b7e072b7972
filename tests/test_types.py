import itertools

import pytest

from colorder.core import ColorTerm, FinStruct, InputError, pair_of, validate
from colorder.types import (OnePointType, enumerate_types, format_type,
                            insert_position, parse_type, realize_type,
                            type_of_point)
from helpers import all_structures, brute_force_types, consistent_placements

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
    with pytest.raises(InputError):
        type_of_point(two_point, "b", ("b",))


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
            want = set(brute_force_types(x, 0, budget))
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
                            assert tau.key() == (supp, cut, cols)
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


def test_realize_rejects_colliding_name(two_point):
    tau = OnePointType.build(two_point, (), 0, (), 0)
    with pytest.raises(InputError):
        realize_type(two_point, tau, name="a")


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
