import itertools

import pytest

from colorder.core import (ColorTerm, FinStruct, InputError, canonical_code,
                           is_embedding, pair_of, validate)
from colorder.limit import (Approximation, PartialIso, embed,
                            extend_partial_iso, format_pairs, grow,
                            parse_pairs, saturation_check)
from colorder.types import enumerate_types
from helpers import all_structures, reference_iso_check

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
    with pytest.raises(InputError):
        extend_partial_iso(a, p, u)


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


def test_embed_rejects_invalid_structure():
    bad = FinStruct(("a", "b", "c"),
                    {pair_of(u, v): B(0, 0)
                     for u, v in itertools.combinations("abc", 2)}, 0)
    with pytest.raises(InputError):
        embed(Approximation(), bad)


# ---------------------------------------------------------------------------
# determinism and text forms
# ---------------------------------------------------------------------------

def test_two_equal_runs_serialize_identically():
    a1 = grown(150)
    a2 = grown(150)
    assert a1.format() == a2.format()


def test_seeded_runs_are_deterministic(two_point):
    a1 = grown(100, seed=two_point)
    a2 = grown(100, seed=two_point)
    assert a1.format() == a2.format()
    assert a1.format() != grown(100).format()


def test_pair_lines_roundtrip():
    p = PartialIso((("a", "b"), ("c", "d")))
    assert parse_pairs(format_pairs(p)) == p
    with pytest.raises(InputError):
        parse_pairs("pair a\n")
