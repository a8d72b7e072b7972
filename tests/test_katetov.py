import hashlib
import itertools
import random
from pathlib import Path

import pytest

from colorder.cli import run
from colorder.core import (HOLE, PAIRCODE, ColorTerm, Embedding, FinStruct,
                           InputError, Palette, canonical_code, format_struct,
                           is_embedding, pair_of, parse_struct, validate)
from colorder.katetov import (EQ, GT, LT, PairTemplates, apply_K, apply_K_morphism,
                              compare_types, extended_chunks, format_extended, gap_index,
                              iterate_K, pair_color, pair_text)
from colorder.types import (OnePointType, enumerate_types, order_key, realize_type,
                            transport, type_of_point)
from golden_cases import GOLDEN, data
from helpers import (all_embeddings, all_structures, colors_of, consistent_placements,
                     order_type_vs_point, pair_structure, random_coloring,
                     reference_pair_color, reference_type_less, struct_of)

B = ColorTerm.base


def small_structures():
    return all_structures(2, 2)


# ---------------------------------------------------------------------------
# placement of a type against base points
# ---------------------------------------------------------------------------

def test_free_type_is_minimal(two_point):
    free = OnePointType.build(two_point, (), 0, (), 0)
    assert order_type_vs_point(free, "a") == LT
    assert order_type_vs_point(free, "b") == LT


def test_transitivity_forces_below(two_point):
    xi = OnePointType.build(two_point, ("b",), 1, (B(0, 0),), 0)
    assert order_type_vs_point(xi, "a") == GT  # a < b < xi forces a < xi


def test_minimal_consistent_placement(two_point):
    xi = OnePointType.build(two_point, ("a",), 1, (B(0, 0),), 0)
    assert order_type_vs_point(xi, "b") == LT  # a < xi < b
    placements = consistent_placements(two_point, xi.support, xi.cut)
    assert gap_index(xi) == min(placements)


# ---------------------------------------------------------------------------
# the type order
# ---------------------------------------------------------------------------

def test_compare_rule1(one_point):
    free = OnePointType.build(one_point, (), 0, (), 0)
    above = OnePointType.build(one_point, ("a",), 1, (B(0, 0),), 0)
    assert compare_types(free, above) == LT
    assert compare_types(above, free) == GT


def test_compare_rule4(one_point):
    t1 = OnePointType.build(one_point, ("a",), 0, (B(0, 0),), 0)
    t2 = OnePointType.build(one_point, ("a",), 0, (B(0, 1),), 0)
    assert compare_types(t1, t2) == LT


def test_compare_rule2_same_gap(two_point):
    xi = OnePointType.build(two_point, ("b",), 1, (B(0, 0),), 0)
    psi = OnePointType.build(two_point, ("a", "b"), 2, (B(0, 0), B(0, 1)), 0)
    # independent check that both sit in the same gap (above b)
    assert consistent_placements(two_point, xi.support, xi.cut) == [2]
    assert min(consistent_placements(two_point, psi.support, psi.cut)) == 2
    assert compare_types(xi, psi) == LT


def test_compare_is_strict_total_order():
    for x in all_structures(3, 2):
        for budget in (1, 2):
            taus = enumerate_types(x, 0, budget)
            for i, t1 in enumerate(taus):
                assert compare_types(t1, t1) == EQ
                for t2 in taus[i + 1:]:
                    assert compare_types(t1, t2) == LT
                    assert compare_types(t2, t1) == GT


def test_enumeration_follows_reference_order(one_point):
    """Every adjacent pair of enumerated types is strictly increasing under
    the rule-by-rule reference order, including the marker and pair-code
    colors of a functor stage."""
    cases = [(x, 0, budget) for x in all_structures(3, 2) for budget in (1, 2, 3)]
    cases.append((apply_K(one_point, 1).struct, 1, 1))
    for x, level, budget in cases:
        taus = enumerate_types(x, level, budget)
        for t1, t2 in zip(taus, taus[1:]):
            assert reference_type_less(t1, t2)
            assert not reference_type_less(t2, t1)
    assert len(taus) == 9296
    assert {c.kind for tau in taus for c in tau.colors} == {"b", "m", "k"}


def test_enumeration_order_is_the_sort_by_order_key(one_point):
    """enumerate_types walks the type order and builds no sort key; the
    order it returns is that of sorting the same types, shuffled, by
    order_key, on seeded 2- to 4-point bases at budgets 1-3, on stage 2
    of the iterated functor over one point, and on K(one point) one level
    up, whose pool (b:0:0, b:1:0, b:2:0, m:1, k:1:...) is not listed in
    the color order."""
    rng = random.Random(15)
    cases = []
    for names in ("pq", "pqr", "pqrs"):
        x = FinStruct.build(names, random_coloring(rng, names, 2))
        cases.extend(enumerate_types(x, 0, budget) for budget in (1, 2, 3))
    stage2 = iterate_K(one_point, 2, [1, 1])[1]
    cases.append([tau for _, tau in stage2.elements])
    cases.append(enumerate_types(apply_K(one_point, 1).struct, 2, 1))
    for taus in cases:
        shuffled = taus[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled, key=order_key) == taus
    assert len(cases[-2]) == 9296
    assert len(cases[-1]) == 16662


def test_compare_rule3_largest_difference_point():
    three = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                    pair_of("a", "c"): B(0, 1),
                                    pair_of("b", "c"): B(0, 0)})
    # both sit below a; the supports differ in b and c, and c is larger
    low = OnePointType.build(three, ("a", "c"), 0, (B(0, 0), B(0, 0)), 0)
    high = OnePointType.build(three, ("a", "b"), 0, (B(0, 0), B(0, 1)), 0)
    assert gap_index(low) == gap_index(high) == 0
    assert reference_type_less(low, high)
    assert compare_types(low, high) == LT
    assert compare_types(high, low) == GT


def test_compare_rejects_different_bases(one_point, two_point):
    f1 = OnePointType.build(one_point, (), 0, (), 0)
    f2 = OnePointType.build(two_point, (), 0, (), 0)
    with pytest.raises(InputError):
        compare_types(f1, f2)


# ---------------------------------------------------------------------------
# pair structures and pair colors
# ---------------------------------------------------------------------------

def test_pair_structure_reflexive_code(two_point):
    taus = enumerate_types(two_point, 0, 2)
    xi, psi = taus[0], taus[5]
    assert pair_structure(xi, psi).code() == pair_structure(xi, psi).code()


def test_pair_structure_across_isomorphic_bases():
    """Corresponding pairs over two disjoint singleton bases share a code."""
    from helpers import marked_isomorphic
    x1 = FinStruct.build("a", {})
    x2 = FinStruct.build("z", {})
    pairs1 = list(itertools.combinations(enumerate_types(x1, 0, 1), 2))
    pairs2 = list(itertools.combinations(enumerate_types(x2, 0, 1), 2))
    for (xi1, psi1), (xi2, psi2) in zip(pairs1, pairs2):
        p1, p2 = pair_structure(xi1, psi1), pair_structure(xi2, psi2)
        assert p1.code() == p2.code()
        # cross-check one instance with the brute-force marked-iso oracle on
        # the filled structures (hole colored alike on both sides)
        filler = ColorTerm.marker(2)
        def filled(p):
            cols = dict(p.colors)
            cols[pair_of(*p.marked)] = filler
            return struct_of(p.points, cols, 2)
        assert marked_isomorphic(filled(p1), p1.marked, filled(p2), p2.marked)


def test_pair_structure_sees_support_colors(one_point):
    xi = OnePointType.build(one_point, ("a",), 0, (B(0, 0),), 0)
    psi1 = OnePointType.build(one_point, ("a",), 1, (B(0, 0),), 0)
    psi2 = OnePointType.build(one_point, ("a",), 1, (B(0, 1),), 0)
    assert pair_structure(xi, psi1).code() != pair_structure(xi, psi2).code()


def test_pair_structure_mark_order_matches_local_comparison():
    """The ambient order of the two marks agrees with the order computed
    inside the restriction to the support union."""
    for x in all_structures(3, 2):
        taus = enumerate_types(x, 0, 1)
        for xi, psi in itertools.combinations(taus, 2):
            union = x.sorted_points(set(xi.support) | set(psi.support))
            local = x.restrict(union)
            xi_l = OnePointType.build(local, xi.support, xi.cut, xi.colors, 0)
            psi_l = OnePointType.build(local, psi.support, psi.cut, psi.colors, 0)
            assert compare_types(xi_l, psi_l) == compare_types(xi, psi)


def test_pair_color_matches_the_reference_structure(one_point):
    """``pair_color`` equals the code of the reference pair structure on
    every type pair of a budget-2 extension of each small structure, in both
    argument orders, and so does the lazy rows' ``pair_text`` of the pair in
    type order, there and on seeded stage-2 pairs whose base pairs carry
    pair-code colors."""
    checked = 0
    for x in all_structures(3, 2):
        taus = [tau for _, tau in apply_K(x, 2).elements]
        for lo, hi in itertools.combinations(taus, 2):
            want = reference_pair_color(lo, hi)
            assert pair_color(lo, hi) == want
            assert pair_color(hi, lo) == want
            assert ColorTerm.parse(pair_text(lo, hi)) == want
            checked += 1
    assert checked == 8272
    stage2 = iterate_K(one_point, 2, [1, 1])[-1]
    assert any(c.kind == "k" for c in colors_of(stage2.base).values())
    taus = [tau for _, tau in stage2.elements]
    rng = random.Random(6)
    for _ in range(2000):
        i, j = sorted(rng.sample(range(len(taus)), 2))
        assert ColorTerm.parse(pair_text(taus[i], taus[j])) == reference_pair_color(
            taus[i], taus[j])


def test_pair_color_rejects_equal_types_and_different_bases(one_point, two_point):
    xi = OnePointType.build(two_point, ("a",), 0, (B(0, 0),), 0)
    same = OnePointType.build(two_point, ("a",), 0, (B(0, 0),), 0)
    with pytest.raises(InputError, match="^pair structure requires two distinct types$"):
        pair_color(xi, xi)
    with pytest.raises(InputError, match="^pair structure requires two distinct types$"):
        pair_color(xi, same)
    free = OnePointType.build(one_point, (), 0, (), 0)
    with pytest.raises(InputError, match="^types over different bases are incomparable$"):
        pair_color(xi, free)


def test_pair_color_distinct_for_nonisomorphic_unions(two_point):
    xi = OnePointType.build(two_point, ("a",), 0, (B(0, 0),), 0)
    psi = OnePointType.build(two_point, ("b",), 0, (B(0, 0),), 0)
    mu = OnePointType.build(two_point, ("a", "b"), 0, (B(0, 0), B(0, 1)), 0)
    assert pair_color(xi, psi) != pair_color(xi, mu)


def test_pair_color_functorial():
    """Pair colors are preserved along every embedding at desk scale."""
    structures = small_structures()
    checked = 0
    for x in structures:
        taus = enumerate_types(x, 0, 2)
        for y in structures:
            for emb in all_embeddings(x, y):
                for xi, psi in itertools.combinations(taus, 2):
                    fxi = transport(xi, emb, y)
                    fpsi = transport(psi, emb, y)
                    assert pair_color(fxi, fpsi) == pair_color(xi, psi)
                    checked += 1
    assert checked > 300


def test_claim_equivalence_preserved_both_directions():
    """Pairs are equivalent iff their images under any embedding are."""
    structures = small_structures()
    for x in structures:
        taus = enumerate_types(x, 0, 2)
        pairs = list(itertools.combinations(taus, 2))
        codes = [pair_structure(xi, psi).code() for xi, psi in pairs]
        assert [pair_color(xi, psi) for xi, psi in pairs] == [
            ColorTerm.pair_code(1, c.encode().hex()) for c in codes]
        for y in structures:
            for emb in all_embeddings(x, y):
                images = [(transport(xi, emb, y), transport(psi, emb, y))
                          for xi, psi in pairs]
                icodes = [pair_structure(xi, psi).code() for xi, psi in images]
                assert [pair_color(xi, psi) for xi, psi in images] == [
                    ColorTerm.pair_code(1, c.encode().hex()) for c in icodes]
                for i in range(len(pairs)):
                    for j in range(i + 1, len(pairs)):
                        assert (codes[i] == codes[j]) == (icodes[i] == icodes[j])


def digest_of(text: str) -> tuple[int, str]:
    body = text.encode("utf-8")
    return len(body), hashlib.sha256(body).hexdigest()


def test_three_point_extension_and_stage_two_pair_bytes():
    """Byte pins at the sizes where most layouts occur: the k-apply text of
    a seeded three-color 3-point base at budget 3, and 2000 seeded stage-2
    pair texts over a lazy base.  Both digests were taken from the pair
    colors that walked each pair's configuration, before templates."""
    x = FinStruct.build("xyz", random_coloring(random.Random(6), "xyz", 3))
    assert len(set(colors_of(x).values())) == 3
    ext = apply_K(x, 3)
    assert digest_of(format_extended(ext)) == (
        1738421, "63a6c1ebbdc0e536ba9da6aeec86d00a8c3dd4790c18194557f2ed31050aa74b")
    n = len(ext.elements)
    assert len(ext.struct.rows.templates) == 209 < n * (n - 1) // 2
    taus = [tau for _, tau in iterate_K(FinStruct.build("a", {}), 2, [1, 1])[-1].elements]
    rng = random.Random(14)
    texts = []
    for _ in range(2000):
        i, j = sorted(rng.sample(range(len(taus)), 2))
        texts.append(pair_text(taus[i], taus[j]) + "\n")
    assert digest_of("".join(texts)) == (
        1225204, "5f1a9165663b0d240bbeb1db9b8a0233e03fd0f7913f4f20cae5c8991c77340f")


def test_pair_templates_belong_to_one_base():
    """Two bases on the same points with other colors on every pair share
    every layout, so a template kept by layouts alone would give the second
    base the first one's base pair texts.  Read in either order in one
    process, each base's pair colors equal the reference, and the two
    differ on every pair of keys whose support union holds a base pair."""
    def three(ab, ac, bc):
        return FinStruct.build("abc", {pair_of("a", "b"): B(0, ab),
                                       pair_of("a", "c"): B(0, ac),
                                       pair_of("b", "c"): B(0, bc)})

    for order in ((0, 1, 2), (1, 2, 0)), ((1, 2, 0), (0, 1, 2)):
        texts = []
        for colors in order:
            ext = apply_K(three(*colors), 2)
            s = ext.struct
            got = {}
            for (u, lo), (v, hi) in itertools.combinations(ext.elements, 2):
                text = s.palette.texts[s.rows[s.pos[u]][s.pos[v]]]
                assert text == pair_text(lo, hi) == reference_pair_color(lo, hi).text()
                got[lo.key(), hi.key()] = text, len({*lo.support, *hi.support})
            texts.append(got)
        first, second = texts
        common = first.keys() & second.keys()
        assert len(common) == 990
        for key in common:
            (a, union), (b, _) = first[key], second[key]
            assert (a != b) == (union >= 2)


def test_four_point_extension_matches_the_reference():
    """Every type pair of a budget-1 extension of a seeded 4-point base,
    read through the lazy rows, has the reference pair color.  At budget 1
    a layout fixes its type, so each pair builds its own template."""
    x = FinStruct.build("wxyz", random_coloring(random.Random(0), "wxyz", 3))
    ext = apply_K(x, 1)
    s = ext.struct
    pairs = list(itertools.combinations(ext.elements, 2))
    assert len(pairs) == 496
    for (u, lo), (v, hi) in pairs:
        assert s.color(u, v) == reference_pair_color(lo, hi)
    assert len(s.rows.templates) == len(pairs)


# ---------------------------------------------------------------------------
# the object map
# ---------------------------------------------------------------------------

def test_K_of_empty():
    ext = apply_K(FinStruct.empty(), 7)
    assert len(ext.struct.points) == 1


def test_K_of_singleton(one_point):
    ext = apply_K(one_point, 1)
    assert len(ext.struct.points) == 1 + 3


def test_K_primes_an_element_name_the_base_holds():
    """Element i is named t<i>, else the first of t<i>', t<i>'', ... that
    neither the base nor an earlier element holds."""
    x = FinStruct.build(("t0", "t0'", "t2"), {pair_of("t0", "t0'"): B(0, 0),
                                              pair_of("t0", "t2"): B(0, 1),
                                              pair_of("t0'", "t2"): B(0, 0)})
    ext = apply_K(x, 1)
    assert ext.element_ids()[:5] == ("t0''", "t1", "t2'", "t3", "t4")
    assert set(ext.struct.points) == set(x.points) | set(ext.element_ids())


def test_K_of_two_points(two_point):
    ext = apply_K(two_point, 2)
    assert len(ext.struct.points) == 20
    assert validate(ext.struct).ok


def test_K_restricts_to_base(two_point):
    ext = apply_K(two_point, 2)
    assert ext.struct.restrict(two_point.points) == struct_of(
        two_point.points, colors_of(two_point), ext.struct.level)
    # 0, 1 and 2 points, type elements among them, read through the lazy rows
    s, ids = ext.struct, ext.element_ids()
    for sub in ((), ids[:1], ("b",), (ids[0], ids[-1]), ("a", ids[5])):
        r = s.restrict(sub)
        assert r.points == s.sorted_points(sub)
        assert colors_of(r) == {pair_of(u, v): s.color(u, v)
                                for u, v in itertools.combinations(r.points, 2)}
        assert [list(row) for row in r.rows] == [
            [HOLE if u == v else r.palette.id(s.color(u, v)) for v in r.points] for u in r.points]


def test_K_extends_the_base_palette():
    """The extension adds its colors to its base's palette, whose ids never
    change meaning, so the base (a lazy stage among them) reads as before."""
    x = apply_K(FinStruct.build("a", {}), 1).struct
    before = [list(row) for row in x.rows]
    ext = apply_K(x, 1)
    assert ext.struct.palette is x.palette
    assert [list(row) for row in x.rows] == before
    assert validate(x).ok
    assert [list(row) for row in ext.struct.restrict(x.points).rows] == before


def test_K_is_triangle_free_exhaustively():
    patterns = {0: 0, 1: 0, 2: 0, 3: 0}
    for x in all_structures(3, 2):
        for budget in (1, 2):
            ext = apply_K(x, budget)
            assert validate(ext.struct).ok
            tids = set(ext.element_ids())
            for tri in itertools.combinations(ext.struct.points, 3):
                patterns[sum(1 for p in tri if p in tids)] += 1
    assert all(patterns[k] > 0 for k in patterns)


def test_K_elements_realize_their_types():
    for x in all_structures(2, 2):
        ext = apply_K(x, 2)
        for tid, tau in ext.elements:
            got = type_of_point(ext.struct, tid, tau.support)
            assert got.key() == tau.key()


def test_K_marker_outside_support(one_point):
    ext = apply_K(one_point, 1)
    marker = ColorTerm.marker(1)
    for tid, tau in ext.elements:
        if not tau.support:
            assert ext.struct.color("a", tid) == marker
        else:
            assert ext.struct.color("a", tid) == tau.colors[0]


def test_K_pairs_use_pair_codes(two_point):
    ext = apply_K(two_point, 2)
    ids = ext.element_ids()
    for u, v in itertools.combinations(ids, 2):
        assert ext.struct.color(u, v).kind == "k"
        assert ext.struct.color(u, v).level == 1


# ---------------------------------------------------------------------------
# the morphism map
# ---------------------------------------------------------------------------

def test_K_of_identity_is_identity(two_point):
    ke = apply_K_morphism(Embedding.identity(two_point), 2)
    assert all(u == v for u, v in ke.mapping)


def test_K_morphism_is_embedding_and_natural():
    structures = small_structures()
    for x in structures:
        for y in structures:
            for emb in all_embeddings(x, y):
                e = Embedding.build(x, y, emb)
                ke = apply_K_morphism(e, 2)
                assert is_embedding(ke.as_dict, ke.source, ke.target)
                for p in x.points:  # naturality: restriction to the base
                    assert ke.as_dict[p] == emb[p]


def test_K_morphism_rejects_a_hand_made_non_embedding():
    """The morphism map checks the embedding it is given: a map that swaps
    the order, one that changes a color, and one between two levels."""
    y = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0), pair_of("a", "c"): B(0, 1),
                                pair_of("b", "c"): B(0, 0)})
    x = y.restrict("ab")
    for pairs in ((("a", "b"), ("b", "a")),    # order swapped
                  (("a", "a"), ("b", "c"))):   # b:0:0 carried to b:0:1
        with pytest.raises(InputError, match="^not an embedding$"):
            apply_K_morphism(Embedding(x, y, pairs), 2)
    up = FinStruct.build("abc", colors_of(y), level=1)
    with pytest.raises(InputError, match="^not an embedding$"):
        apply_K_morphism(Embedding(x, up, (("a", "a"), ("b", "b"))), 2)


def test_K_morphism_adds_only_the_marker_to_the_palettes():
    """The morphism map reads no pair color of either extension, so each
    palette gains the next level's marker and nothing else."""
    y = FinStruct.build("abcd", {pair_of(u, v): B(0, (i + j) % 3)
                                 for (i, u), (j, v) in itertools.combinations(enumerate("abcd"), 2)})
    z = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0), pair_of("a", "c"): B(0, 1),
                                pair_of("b", "c"): B(0, 0)})
    for x, target in ((y.restrict("abc"), y), (z.restrict("ab"), z)):
        before = (list(x.palette.texts), list(target.palette.texts))
        apply_K_morphism(Embedding.build(x, target, {p: p for p in x.points}), 2)
        assert (x.palette.texts, target.palette.texts) == tuple(t + ["m:1"] for t in before)


def test_composing_morphism_maps_reads_the_middle_as_text():
    """The morphism maps of ``a -> ab`` and ``ab -> abc`` carry two
    separately built extensions of ``ab``; composing them compares the two
    as text, so the shared palette gains exactly what checking the
    composite map alone adds."""

    def maps():
        z = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0), pair_of("a", "c"): B(0, 1),
                                    pair_of("b", "c"): B(0, 0)})
        y = z.restrict("ab")
        kf = apply_K_morphism(Embedding.build(z.restrict("a"), y, {"a": "a"}), 2)
        kg = apply_K_morphism(Embedding.build(y, z, {"a": "a", "b": "b"}), 2)
        assert kf.target is not kg.source
        return z.palette, kf, kg

    palette, kf, kg = maps()
    before = len(palette.texts)
    kf.compose(kg)
    composed = palette.texts[before:]
    palette, kf, kg = maps()
    Embedding.build(kf.source, kg.target, {p: kg.apply(q) for p, q in kf.mapping})
    assert palette.texts[before:] == composed


def test_K_preserves_composition():
    structures = small_structures()
    for x in structures:
        for y in structures:
            for f in all_embeddings(x, y):
                ef = Embedding.build(x, y, f)
                for z in structures:
                    for g in all_embeddings(y, z):
                        eg = Embedding.build(y, z, g)
                        lhs = apply_K_morphism(ef.compose(eg), 2)
                        rhs = apply_K_morphism(ef, 2).compose(apply_K_morphism(eg, 2))
                        assert lhs.mapping == rhs.mapping
                        assert lhs.source.points == rhs.source.points
                        assert lhs.target.points == rhs.target.points


def test_K_is_faithful():
    structures = small_structures()
    for x in structures:
        for y in structures:
            embs = all_embeddings(x, y)
            for m1, m2 in itertools.combinations(embs, 2):
                k1 = apply_K_morphism(Embedding.build(x, y, m1), 2)
                k2 = apply_K_morphism(Embedding.build(x, y, m2), 2)
                assert k1.mapping != k2.mapping


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def test_iterate_zero_stages(two_point):
    assert iterate_K(two_point, 0, ()) == []


def test_iterate_one_stage_equals_apply(two_point):
    chain = iterate_K(two_point, 1, (2,))
    assert len(chain) == 1
    assert chain[0].struct == apply_K(two_point, 2).struct


def test_iterate_rejects_bad_budget_list(two_point):
    with pytest.raises(InputError) as exc:
        iterate_K(two_point, 2, (1,))
    assert str(exc.value) == "need 2 budgets, got 1"


def test_type_of_rejects_an_unknown_element(two_point):
    with pytest.raises(InputError) as exc:
        apply_K(two_point, 1).type_of("zz")
    assert str(exc.value) == "no type element 'zz'"


def test_iterate_levels_climb(one_point):
    chain = iterate_K(one_point, 2, (1, 1))
    assert chain[0].struct.level == 1
    assert chain[1].struct.level == 2
    # the inclusion is the natural transformation: stage-1 points persist
    assert set(chain[0].struct.points) <= set(chain[1].struct.points)


def test_iterate_second_stage_realizes_all_budget_types(one_point):
    """Every budgeted type over stage 1 has a realizing element in stage 2."""
    chain = iterate_K(one_point, 2, (1, 1))
    stage1, stage2 = chain
    lookup = {tau.key(): tid for tid, tau in stage2.elements}
    s2 = stage2.struct
    audited = 0
    for tau in enumerate_types(stage1.struct, 1, 1):
        tid = lookup[tau.key()]
        pos = s2.index(tid)
        assert sum(1 for p in tau.support if s2.index(p) < pos) == tau.cut
        assert all(s2.color(p, tid) == c
                   for p, c in zip(tau.support, tau.colors))
        audited += 1
    assert audited == len(stage2.elements)


def record_pair_reads(monkeypatch) -> list[tuple]:
    """Record, from now on, every pair color that a ``PairTemplates`` map
    is asked for, as (map, lower type, higher type)."""
    asked: list[tuple] = []
    text = PairTemplates.text

    def recording(self, lo, hi):
        asked.append((self, lo, hi))
        return text(self, lo, hi)

    monkeypatch.setattr(PairTemplates, "text", recording)
    return asked


def pairs_asked(asked, rows) -> list[tuple[int, int]]:
    """The position pairs, lower first, that the lazy rows ``rows`` asked
    their own templates for among the records ``asked``."""
    pos = {id(t): i for i, t in enumerate(rows._types) if t is not None}
    return [(pos[id(lo)], pos[id(hi)]) for m, lo, hi in asked if m is rows.templates]


def test_stage_two_extension_stays_lazy(monkeypatch):
    """Building stage 2 computes none of its type-type pair colors, and
    reading a few of them computes only those, reading stage-1 pair colors
    only inside the support unions of the pairs read."""
    one = FinStruct.build("a", {})
    asked = record_pair_reads(monkeypatch)
    ext = iterate_K(one, 2, [1, 1])[-1]
    s = ext.struct
    assert pairs_asked(asked, s.rows) == []
    assert not any(t.startswith("k:2:") for t in s.palette.texts)
    built = len(asked)
    ids = ext.element_ids()
    assert len(ids) == 9296
    picks = [(ids[0], ids[5]), (ids[9000], ids[17]), (ids[4001], ids[4000])]
    for u, v in picks:
        assert s.color(u, v) == pair_color(ext.type_of(u), ext.type_of(v))
    s.color(ids[5], ids[0])                           # a pair read before
    s.color(ext.base.points[0], ids[3])               # base to type: stored
    assert set(pairs_asked(asked, s.rows)) == {tuple(sorted((s.pos[u], s.pos[v])))
                                                for u, v in picks}
    unions = [{ext.base.pos[p] for p in ext.type_of(u).support + ext.type_of(v).support}
              for u, v in picks]
    base_asked = pairs_asked(asked[built:], ext.base.rows)
    assert base_asked
    assert all(any({i, j} <= un for un in unions) for i, j in base_asked)


def test_extended_chunks_join_to_format_extended():
    """The streamed text of an extension is its header and point lines,
    one chunk of color lines per point toward every later point, then the
    ``types`` sidecar; joined, the chunks are :func:`format_extended`'s text,
    which the ``k-apply`` and ``k-iterate`` goldens pin.  A bad name raises
    when the chunks are asked for, before the first is read."""
    two = parse_struct(Path(data("two_point.txt")).read_text())[1]
    ext = apply_K(two, 2)
    n = len(ext.struct.points)
    chunks = list(extended_chunks(ext))
    assert len(chunks) == n + 2
    assert chunks[0].startswith("structure K level 1\n") and chunks[-1].startswith("types\n")
    for i, (u, chunk) in enumerate(zip(ext.struct.points, chunks[1:-1])):
        lines = chunk.splitlines(True)
        assert len(lines) == n - 1 - i
        assert all(line.startswith(f"color {u} ") for line in lines)
    golden = Path(GOLDEN, "k_apply_two_point.txt").read_text()
    assert "".join(chunks) == format_extended(ext) == golden
    empty = parse_struct(Path(data("empty.txt")).read_text())[1]
    stages = iterate_K(empty, 2, [2, 2])
    joined = "".join(itertools.chain.from_iterable(
        extended_chunks(e, f"stage{i + 1}") for i, e in enumerate(stages)))
    assert joined == "".join(format_extended(e, f"stage{i + 1}") for i, e in enumerate(stages))
    assert joined == Path(GOLDEN, "k_iterate_empty.txt").read_text()
    with pytest.raises(InputError, match="bad structure name ''"):
        extended_chunks(ext, "")


def test_format_extended_builds_no_pair_code_term(monkeypatch):
    """Formatting an extension reads every type-type pair color from its
    template: it builds no ``k:`` ColorTerm, computes no id and enters no
    color into the palette.  The texts and terms read back afterwards
    through ids are the pair colors."""
    three = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                    pair_of("a", "c"): B(0, 1),
                                    pair_of("b", "c"): B(0, 0)})
    asked = record_pair_reads(monkeypatch)
    ext = apply_K(three, 2)
    s = ext.struct
    assert pairs_asked(asked, s.rows) == []             # building computes none
    assert not any(t.startswith("k:") for t in s.palette.texts)
    kinds, id_reads = [], []
    post_init, id_text = ColorTerm.__post_init__, Palette.id_text

    def counting(self):
        kinds.append(self.kind)
        post_init(self)

    def reading(self, text):
        id_reads.append(text)
        return id_text(self, text)

    monkeypatch.setattr(ColorTerm, "__post_init__", counting)
    monkeypatch.setattr(Palette, "id_text", reading)
    palette_size = len(s.palette.texts)
    format_extended(ext)
    monkeypatch.undo()
    assert PAIRCODE not in kinds
    assert len(ext.elements) == 52
    assert id_reads == []
    assert len(s.palette.texts) == palette_size
    for (u, tu), (v, tv) in itertools.combinations(ext.elements, 2):
        color = pair_color(tu, tv)
        assert s.palette.texts[s.rows[s.pos[u]][s.pos[v]]] == color.text()
        assert s.color(u, v) == color


def test_printed_pair_texts_equal_the_colors_read_through_ids(monkeypatch):
    """The text path of an extension (stored rows through the palette,
    type-type pairs straight from the templates) gives the bytes of the id
    path: the restricted copy reads every color through ``cid``.  Printing
    agrees before and after a seeded sample of reads through ids, which
    computes some of the type-type pair colors but not all, and so do
    canonical codes with and without marks.  A
    full id-path copy of the 4-point budget-3 extension (668 points) takes
    seconds, so there a seeded sample of rows is compared, and its printed
    text, where rows share their templates most, is pinned by digest,
    streamed and joined; the digest was taken before rows printed from
    hexed parts.  Printing enters no color into the palette."""
    rng = random.Random(16)
    for names in ("pq", "pqr", "pqrs"):
        x = FinStruct.build(names, random_coloring(rng, names, 3))
        for budget in (1, 2, 3):
            ext = apply_K(x, budget)
            s = ext.struct
            n = len(s.points)
            if n > 200:
                assert (names, budget, n) == ("pqrs", 3, 668)
                palette_size = len(s.palette.texts)
                chunks = list(extended_chunks(ext))
                assert len(chunks) == n + 2
                pinned = (40144546,
                          "76b0d9a6d3dd4eb6eafced7e39d7ca0b63a1cf2145537ed94ee8cecc461153e9")
                assert digest_of("".join(chunks)) == digest_of(format_extended(ext)) == pinned
                assert len(s.palette.texts) == palette_size
                texts = s.palette.texts
                for i in rng.sample(range(n), 24):
                    assert list(s.rows.row_texts(i)) == [texts[c] for c in s.rows[i][i + 1:]]
                continue
            cold = format_struct(s)
            with monkeypatch.context() as mp:
                asked = record_pair_reads(mp)
                warm = apply_K(x, budget).struct
                for _ in range(n):
                    warm.color(*rng.sample(warm.points, 2))
            assert 0 < len(set(pairs_asked(asked, warm.rows))) < n * (n - 1) // 2
            marks = rng.sample(s.points, 2)
            ids = s.restrict(s.points)
            assert format_struct(warm) == cold == format_struct(ids)
            for m in ((), marks):
                assert canonical_code(warm, m) == canonical_code(s, m) == canonical_code(ids, m)


def test_percent_signs_in_point_names_print_as_read_through_ids(tmp_path):
    """A type element's color lines are one ``%`` format, with the row's
    own name in it escaped and every later name an argument, so names that
    hold ``%`` print as they are.  The ``k-apply`` text, the printed
    extension and its canonical codes equal those of the restricted copy,
    which reads every color through ids and prints each line by itself."""
    names = ("%", "%s", "a%%b", "%(x)s")
    x = FinStruct.build(names, random_coloring(random.Random(34), names, 2))
    base, out = tmp_path / "base.txt", tmp_path / "k.txt"
    base.write_text(format_struct(x, "base"))
    assert run(["k-apply", "--base", str(base), "--budget", "1", "--out", str(out)]) == 0
    ext = apply_K(x, 1)
    s = ext.struct
    assert [p for p in s.points if p in names] == list(names)
    assert len(ext.elements) > 4
    ids = s.restrict(s.points)
    text = format_struct(ids, "K")
    assert all(f"color {u} {v} " in text for u, v in itertools.combinations(s.points, 2))
    printed = format_extended(ext)
    assert out.read_text() == printed and printed.startswith(text)
    assert format_struct(s) == format_struct(ids)
    for marks in ((), names, ("%(x)s", ext.element_ids()[-1], "a%%b")):
        assert canonical_code(s, marks) == canonical_code(ids, marks)


def test_negative_indices_read_as_a_tuple_of_arrays_reads():
    """A lazy extension's rows take negative indices as a tuple of arrays
    does, row and entry alike: ``rows[i - n][j - n]`` is ``rows[i][j]``, the
    stored rows of the restricted copy, HOLE on the diagonal; an index out
    of range raises IndexError.  Reading the diagonal enters no color."""
    x = FinStruct.build("ab", {pair_of("a", "b"): B(0, 0)})
    s = apply_K(x, 1).struct
    n = len(s.points)
    assert n == 7 and s.points[-1] not in x.points
    palette_size = len(s.palette.texts)
    assert s.rows[-1][n - 1] == s.rows[n - 1][-1] == HOLE
    assert len(s.palette.texts) == palette_size
    ids = s.restrict(s.points)
    for i, j in itertools.product(range(n), repeat=2):
        assert s.rows[i][j] == s.rows[i - n][j - n] == ids.rows[i][j]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            s.rows[bad]
        for i in (0, n - 1):
            with pytest.raises(IndexError):
                s.rows[i][bad]


def test_pair_color_reads_only_its_support_union(monkeypatch):
    """Over a lazy extension, which computes no type-type pair color when
    built, a type's column reads no base row, and a pair color reads only
    the base pairs inside the two supports' union."""
    three = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                    pair_of("a", "c"): B(0, 1),
                                    pair_of("b", "c"): B(0, 0)})
    asked = record_pair_reads(monkeypatch)
    ext = apply_K(three, 2)
    s = ext.struct
    assert pairs_asked(asked, s.rows) == []
    ids = ext.element_ids()
    colors = (ColorTerm.marker(1), B(1, 0), B(0, 1))   # distinct: no triangle
    xi = OnePointType.build(s, s.sorted_points({ids[3], "b", ids[40]}), 1, colors, 1)
    psi = OnePointType.build(s, s.sorted_points({"a", ids[7], ids[40]}), 3, colors, 1)
    assert set(pairs_asked(asked, s.rows)) == {(s.pos[ids[3]], s.pos[ids[40]]),
                                               (s.pos[ids[7]], s.pos[ids[40]])}
    read = len(asked)
    xi.column, psi.column
    assert len(asked) == read
    union = {s.pos[p] for p in xi.support + psi.support}
    got = pair_color(xi, psi)
    read = pairs_asked(asked, s.rows)
    assert all({i, j} <= union for i, j in read)
    assert len(set(read)) == 3                  # every type-type pair of the union
    assert got == reference_pair_color(xi, psi)


def test_realize_type_over_an_extension(one_point):
    """``realize_type`` reads an extension's lazy rows through ids and
    copies a type element's row as a slice: the result is valid, keeps the
    extension, and its new point realizes the type."""
    ext = apply_K(one_point, 1)
    s, ids = ext.struct, ext.element_ids()
    colors = (B(1, 0), B(0, 0), ColorTerm.marker(1))   # distinct: no triangle
    tau = OnePointType.build(s, s.sorted_points({ids[0], "a", ids[-1]}), 2, colors, 1)
    f, u = realize_type(s, tau)
    assert validate(f)
    assert f.restrict(s.points) == s
    assert type_of_point(f, u, tau.support).key() == tau.key()
    assert [f.color(u, p) for p in tau.support] == list(colors)
