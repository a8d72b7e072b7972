import hashlib
import itertools
import random
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colorder.core import (ColorTerm, Embedding, FinStruct, InputError,
                           amalgamate, canonical_code, color_less,
                           is_embedding, pair_of, parse_struct, format_struct,
                           struct_chunks, validate)
from colorder.katetov import apply_K, format_extended
from colorder.limit import Approximation, grow
from colorder.types import OnePointType, point_key, realize_type
from golden_cases import data
from helpers import (all_embeddings, all_structures, colors_of, marked_isomorphic,
                     random_coloring, reference_amalgamate, reference_is_embedding,
                     reference_verdict, struct_of)

B = ColorTerm.base
M = ColorTerm.marker


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_empty_structure():
    assert validate(FinStruct.empty()).ok


def test_validate_monochromatic_triangle():
    s = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                pair_of("a", "c"): B(0, 0),
                                pair_of("b", "c"): B(0, 0)})
    v = validate(s)
    assert not v.ok
    assert v.reason == "monochromatic-triangle"
    assert v.triple == ("a", "b", "c")


def test_validate_two_colors_is_fine():
    s = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                pair_of("a", "c"): B(0, 0),
                                pair_of("b", "c"): B(0, 1)})
    assert validate(s).ok


def test_validate_level_bound():
    s = FinStruct.build("ab", {pair_of("a", "b"): B(1, 0)}, level=0)
    v = validate(s)
    assert not v.ok and v.reason == "level-bound"


def test_validate_reports_first_triple_in_position_order():
    cols = {pair_of(u, v): B(0, 0) for u, v in itertools.combinations("abcd", 2)}
    cols[pair_of("a", "b")] = B(0, 1)
    s = FinStruct.build("abcd", cols)
    v = validate(s)
    assert v.triple == ("a", "c", "d")


def test_malformed_input_is_an_error_not_invalidity():
    with pytest.raises(InputError):
        FinStruct.build("aa", {})
    with pytest.raises(InputError):
        FinStruct.build("ab", {})  # missing the pair color
    # a hand-built broken value is caught by validate's gate
    broken = struct_of(("a", "b"), {}, 0)
    with pytest.raises(InputError):
        validate(broken)


def test_validate_agrees_with_brute_force_scan():
    # every cataloged structure is accepted, and flipping one pair of a valid
    # 3-point structure to close a triangle is rejected
    for s in all_structures(3, 2):
        assert validate(s).ok
    s = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                pair_of("a", "c"): B(0, 1),
                                pair_of("b", "c"): B(0, 0)})
    assert validate(s).ok
    cols = colors_of(s)
    cols[pair_of("a", "c")] = B(0, 0)
    assert not validate(struct_of(("a", "b", "c"), cols, 0)).ok


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 40), st.integers(0, 1),
       st.sampled_from(["none", "triangle", "level", "both"]))
def test_validate_matches_brute_force_triple_scan(seed, n, level, plant):
    """Verdict, reason, first triple and color against the triple scan, on
    random structures of up to 40 points with a triangle planted among the
    late points and a color above the level bound planted anywhere."""
    rng = random.Random(seed)
    names = [f"p{k}" for k in rng.sample(range(1000), n)]
    cols = random_coloring(rng, names, 3)
    if plant in ("triangle", "both") and n >= 6:
        i, j, k = sorted(rng.sample(range(n // 2, n), 3))
        c = B(0, rng.randrange(3))
        for u, v in ((i, j), (i, k), (j, k)):
            cols[pair_of(names[u], names[v])] = c
    if plant in ("level", "both") and n >= 2:
        i = rng.randrange(n - 1)
        for j in rng.sample(range(i + 1, n), min(3, n - 1 - i)):
            cols[pair_of(names[i], names[j])] = B(level + 1, rng.randrange(3))
    s = FinStruct.build(names, cols, level)
    expected = reference_verdict(s)
    for t in (s, parse_struct(format_struct(s))[1]):
        v = validate(t)
        assert (v.ok, v.reason, v.triple, v.color) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_restrict_eq_and_embeddings_match_their_definitions(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    names = [f"p{k}" for k in rng.sample(range(100), n)]
    s = FinStruct.build(names, random_coloring(rng, names, 3))
    sub = set(rng.sample(names, rng.randint(0, n)))
    r = s.restrict(sub)
    assert r.points == tuple(p for p in names if p in sub)
    assert colors_of(r) == {k: c for k, c in colors_of(s).items() if k <= sub}

    # equal iff same points, level and colors, however each was built
    copy = parse_struct(format_struct(s))[1]
    assert copy == s and s == copy and s.restrict(names) == s
    assert FinStruct.build(names, colors_of(s), 1) != s
    if n >= 2:
        u, v = rng.sample(names, 2)
        cols = colors_of(s)
        cols[pair_of(u, v)] = B(0, 1) if s.color(u, v) == B(0, 0) else B(0, 0)
        assert FinStruct.build(names, cols) != s
        assert s != FinStruct.build(names[::-1], colors_of(s))

    if n:
        # same points and palette lineage, colors differing at the first point
        first = [OnePointType.build(s, s.points[:1], 1, (B(0, k),), 0) for k in (0, 1, 0)]
        g1, g2, g3 = (realize_type(s, tau, "z")[0] for tau in first)
        assert g1 != g2 and g1 == g3

    assert is_embedding({p: p for p in r.points}, r, s)
    for _ in range(20):
        images = rng.sample(names + ["zz"], len(r.points))
        if rng.random() < 0.5:
            images.sort(key=lambda p: names.index(p) if p in names else n)
        if images and rng.random() < 0.2:
            images[-1] = images[0]
        m = dict(zip(r.points, images))
        for src, dst, mm in ((r, s, m), (r, copy, m), (copy.restrict(sub), s, m)):
            assert is_embedding(mm, src, dst) == reference_is_embedding(mm, src, dst)
    # 0- and 1-point sources, over the target's palette and over another one
    for size in range(min(n, 1) + 1):
        for src in (s.restrict(names[:size]), copy.restrict(names[:size])):
            for images in itertools.permutations(names + ["zz"], size):
                m = dict(zip(src.points, images))
                for dst in (s, copy):
                    assert is_embedding(m, src, dst) == reference_is_embedding(m, src, dst)


# ---------------------------------------------------------------------------
# color order
# ---------------------------------------------------------------------------

def test_color_less_examples():
    assert color_less(B(0, 0), B(0, 1))
    assert color_less(B(0, 5), M(1))
    assert not color_less(M(1), B(1, 0))
    assert color_less(B(1, 0), M(1))


def _term_sample():
    terms = [B(l, n) for l in range(3) for n in range(5)]
    terms += [M(l) for l in range(1, 4)]
    terms += [ColorTerm.pair_code(l, code) for l in range(1, 3)
              for code in ("00", "01", "ff", "0a1b")]
    return terms


def test_color_less_is_a_strict_total_order():
    terms = _term_sample()
    assert len(terms) <= 50
    for c in terms:
        assert not color_less(c, c)
    for c1, c2 in itertools.combinations(terms, 2):
        assert color_less(c1, c2) != color_less(c2, c1)
    for c1, c2, c3 in itertools.permutations(terms[:12], 3):
        if color_less(c1, c2) and color_less(c2, c3):
            assert color_less(c1, c3)


@given(st.integers(0, 3), st.integers(0, 9), st.integers(0, 3), st.integers(0, 9))
def test_color_less_base_orders_like_pairs(l1, n1, l2, n2):
    assert color_less(B(l1, n1), B(l2, n2)) == ((l1, n1) < (l2, n2))


def test_color_term_text_roundtrip():
    for c in _term_sample():
        assert ColorTerm.parse(c.text()) == c


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_identity_is_an_embedding(two_point):
    assert is_embedding({"a": "a", "b": "b"}, two_point, two_point)


def test_order_reversal_is_not_an_embedding(two_point):
    assert not is_embedding({"a": "b", "b": "a"}, two_point, two_point)


def test_inclusion_is_an_embedding(two_point):
    t = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                pair_of("a", "c"): B(0, 1),
                                pair_of("b", "c"): B(0, 0)})
    assert is_embedding({"a": "a", "b": "b"}, two_point, t)
    # color mismatch breaks it
    t2 = FinStruct.build("abc", {pair_of("a", "b"): B(0, 1),
                                 pair_of("a", "c"): B(0, 1),
                                 pair_of("b", "c"): B(0, 0)})
    assert not is_embedding({"a": "a", "b": "b"}, two_point, t2)


def test_a_color_the_target_lacks_breaks_an_embedding(two_point):
    """Translating the source's b:0:7 adds it to the target's palette; the
    new id matches no row entry, so the map stays rejected."""
    s = FinStruct.build("ab", {pair_of("a", "b"): B(0, 7)})
    for _ in range(2):
        assert not is_embedding({"a": "a", "b": "b"}, s, two_point)
    assert "b:0:7" in two_point.palette.ids
    assert is_embedding({"a": "a", "b": "b"}, two_point, two_point)


def test_embedding_build_rejects_bad_maps(two_point):
    with pytest.raises(InputError):
        Embedding.build(two_point, two_point, {"a": "b", "b": "a"})


def test_compose_refuses_a_different_middle_structure(two_point):
    """Composing needs the same middle structure: one that differs in a
    point, in one pair color or in its level is refused, and an equal one
    built apart composes."""
    f = Embedding.identity(two_point)
    for middle in (FinStruct.build("ax", {pair_of("a", "x"): B(0, 0)}),
                   FinStruct.build("ab", {pair_of("a", "b"): B(0, 1)}),
                   FinStruct.build("ab", {pair_of("a", "b"): B(0, 0)}, level=1)):
        with pytest.raises(InputError, match="^non-composable embeddings$"):
            f.compose(Embedding.identity(middle))
    copy = FinStruct.build("ab", {pair_of("a", "b"): B(0, 0)})
    assert f.compose(Embedding.identity(copy)).mapping == (("a", "a"), ("b", "b"))


# ---------------------------------------------------------------------------
# amalgamation
# ---------------------------------------------------------------------------

def test_amalgamate_identity_case():
    x = FinStruct.build("x", {})
    am = amalgamate(x, x, x, Embedding.identity(x), Embedding.identity(x))
    assert am.result == x
    assert am.left.mapping == (("x", "x"),) == am.right.mapping


def test_amalgamate_forced_fresh_color():
    x = FinStruct.build("x", {})
    a = FinStruct.build(["x", "a1"], {pair_of("x", "a1"): B(0, 0)})
    b = FinStruct.build(["x", "b1"], {pair_of("x", "b1"): B(0, 0)})
    am = amalgamate(a, b, x, Embedding.build(x, a, {"x": "x"}),
                    Embedding.build(x, b, {"x": "x"}))
    cross = am.result.color(am.left.apply("a1"), am.right.apply("b1"))
    # brute force: of the candidate colors, exactly b:0:0 closes a triangle
    from helpers import has_mono_triangle
    forbidden = []
    for cand in (B(0, 0), B(0, 1), B(0, 2)):
        cols = {pair_of("x", "a1"): B(0, 0), pair_of("x", "b1"): B(0, 0),
                pair_of("a1", "b1"): cand}
        if has_mono_triangle(("x", "a1", "b1"),
                             lambda u, v: cols[pair_of(u, v)]):
            forbidden.append(cand)
    assert forbidden == [B(0, 0)]
    assert cross == B(0, 1)
    assert validate(am.result).ok


def test_amalgamate_over_empty():
    e = FinStruct.empty()
    p = FinStruct.build("p", {})
    q = FinStruct.build("q", {})
    am = amalgamate(p, q, e, Embedding.build(e, p, {}), Embedding.build(e, q, {}))
    assert am.result.points == ("p", "q")
    # no triangle constraint exists, so the smallest color is free to use
    assert am.result.color("p", "q") == B(0, 0)


def test_amalgamate_name_collision_keeps_sides_apart():
    x = FinStruct.build("x", {})
    a = FinStruct.build(["x", "n"], {pair_of("x", "n"): B(0, 0)})
    b = FinStruct.build(["x", "n"], {pair_of("x", "n"): B(0, 1)})
    am = amalgamate(a, b, x, Embedding.build(x, a, {"x": "x"}),
                    Embedding.build(x, b, {"x": "x"}))
    assert len(am.result.points) == 3
    assert am.result.color("x", am.left.apply("n")) == B(0, 0)
    assert am.result.color("x", am.right.apply("n")) == B(0, 1)


def test_amalgamate_exhaustive_small_instances():
    """For every common substructure X of every pair (a, b), the amalgam is
    valid and both composites agree on X."""
    structures = [s for s in all_structures(3, 3) if len(s.points) <= 3]
    subs = [s for s in structures if len(s.points) <= 2]
    checked = 0
    for x in subs:
        for a in structures:
            ia = all_embeddings(x, a)
            if not ia:
                continue
            for b in structures:
                ib = all_embeddings(x, b)
                if not ib:
                    continue
                ea = Embedding.build(x, a, ia[0])
                eb = Embedding.build(x, b, ib[0])
                am = amalgamate(a, b, x, ea, eb)
                assert validate(am.result).ok
                for p in x.points:
                    assert am.left.apply(ea.apply(p)) == am.right.apply(eb.apply(p))
                assert is_embedding(am.left.as_dict, a, am.result)
                assert is_embedding(am.right.as_dict, b, am.result)
                checked += 1
    assert checked > 100


# names for a common part: the structures' own (so a new point may meet a
# common name), names that force the numbered suffixes on either side, and
# names no side uses
COMMON_NAMES = (("a", "b"), ("a", "a.a"), ("a.b", "a"), ("y", "z"))


def test_amalgamate_refuses_embeddings_that_do_not_fit(two_point):
    """Each embedding must go from the common part into its own side, and
    each must be an embedding; the other side may be right."""
    x = FinStruct.build("a", {})
    other = FinStruct.build("ab", {pair_of("a", "b"): B(0, 1)})
    good = Embedding.build(x, two_point, {"a": "a"})
    bad = Embedding(x, two_point, (("a", "zz"),))  # unchecked: a point two_point lacks
    cases = [((good, Embedding.build(x, other, {"a": "a"})),
              "right embedding does not go from the common part into the right structure"),
             ((Embedding.build(x, other, {"a": "a"}), good),
              "left embedding does not go from the common part into the left structure"),
             ((good, bad), "invalid embedding of the common part"),
             ((bad, good), "invalid embedding of the common part")]
    for (into_a, into_b), message in cases:
        with pytest.raises(InputError) as exc:
            amalgamate(two_point, two_point, x, into_a, into_b)
        assert str(exc.value) == message


def test_amalgamate_matches_the_reference_policy():
    """Over every common part of up to two points, under each naming, every
    a and b of up to three points in two colors and every pair of
    embeddings, the amalgam's points, pair colors and both maps are the
    reference policy's."""
    structures = all_structures(3, 2)
    commons = {}   # points -> structure, so a renaming that changes nothing is kept once
    for x in (s for s in structures if len(s.points) <= 2):
        for names in COMMON_NAMES:
            rename = dict(zip(x.points, names))
            renamed = struct_of(names[:len(x.points)],
                                {pair_of(rename[u], rename[v]): x.color(u, v)
                                 for u, v in x.pairs()})
            commons[renamed.points, canonical_code(renamed)] = renamed
    checked, bumped, cross = 0, set(), set()
    for x in commons.values():
        for a in structures:
            ia = all_embeddings(x, a)
            for b in structures:
                for ma, mb in itertools.product(ia, all_embeddings(x, b)):
                    am = amalgamate(a, b, x, Embedding.build(x, a, ma), Embedding.build(x, b, mb))
                    points, cols, left, right = reference_amalgamate(a, b, x, ma, mb)
                    got = am.result
                    assert got.points == points, (x.points, a.points, b.points, ma, mb)
                    assert colors_of(got) == cols and got.level == 0
                    assert am.left.as_dict == left and am.right.as_dict == right
                    bumped.update(p[p.index("."):] for p in points if "." in p)
                    cross.update(cols.values())
                    checked += 1
    assert checked > 1000 and {".a", ".b", ".a1", ".b1"} <= bumped and B(0, 2) in cross


# ---------------------------------------------------------------------------
# canonical codes
# ---------------------------------------------------------------------------

def test_code_ignores_point_names():
    assert canonical_code(FinStruct.build("a", {})) == canonical_code(FinStruct.build("z", {}))


def test_code_sees_colors(two_point):
    other = FinStruct.build("ab", {pair_of("a", "b"): B(0, 1)})
    assert canonical_code(two_point) != canonical_code(other)


def test_code_on_renamed_structure(two_point):
    renamed = FinStruct.build("uv", {pair_of("u", "v"): B(0, 0)})
    assert canonical_code(two_point) == canonical_code(renamed)
    assert marked_isomorphic(two_point, (), renamed, ())


def test_code_equality_is_marked_isomorphism():
    """Code equality coincides with brute-force marked isomorphism on all
    structures up to size 4 over 3 colors: every code-equal pair is verified
    isomorphic by the search oracle, and a seeded sample of code-distinct
    pairs is verified non-isomorphic."""
    import random
    structures = [s for s in all_structures(4, 3) if s.points]
    coded = [(s, canonical_code(s), canonical_code(s, (s.points[0],)))
             for s in structures]
    groups: dict[str, list[int]] = {}
    for i, (_, code, _) in enumerate(coded):
        groups.setdefault(code, []).append(i)
    for members in groups.values():
        for i, j in itertools.combinations(members, 2):
            s, _, smk = coded[i]
            t, _, tmk = coded[j]
            assert marked_isomorphic(s, (), t, ())
            assert (smk == tmk) == marked_isomorphic(
                s, (s.points[0],), t, (t.points[0],))
    rng = random.Random(7)
    for _ in range(400):
        i, j = rng.randrange(len(coded)), rng.randrange(len(coded))
        s, cs, csm = coded[i]
        t, ct, ctm = coded[j]
        assert (cs == ct) == marked_isomorphic(s, (), t, ())
        assert (csm == ctm) == marked_isomorphic(s, (s.points[0],),
                                                 t, (t.points[0],))


def test_code_marks_matter(two_point):
    assert canonical_code(two_point, ("a",)) != canonical_code(two_point, ("b",))


@given(st.permutations(["a", "b", "c"]))
def test_code_invariant_under_renaming(new_names):
    s = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0),
                                pair_of("a", "c"): B(0, 1),
                                pair_of("b", "c"): B(0, 0)})
    rename = dict(zip("abc", new_names))
    cols = {pair_of(rename[u], rename[v]): s.color(u, v) for u, v in s.pairs()}
    t = FinStruct.build([rename[p] for p in s.points], cols)
    assert canonical_code(s) == canonical_code(t)
    assert canonical_code(s, ("b",)) == canonical_code(t, (rename["b"],))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_struct_text_roundtrip(two_point):
    name, parsed = parse_struct(format_struct(two_point, "demo"))
    assert name == "demo" and parsed == two_point


def test_two_spellings_of_one_color_share_a_palette_id():
    """``b:0:01`` and ``b:0:1`` are one color: parsing gives them one id and
    printing spells it canonically; the parsed structure equals, and embeds
    like, the same structure built from terms."""
    text = ("structure s level 0\npoint a\npoint b\npoint c\n"
            "color a b b:0:01\ncolor a c b:0:1\ncolor b c b:0:0\n")
    _, parsed = parse_struct(text)
    assert parsed.rows[0][1] == parsed.rows[0][2]
    assert sorted(parsed.palette.texts) == ["b:0:0", "b:0:1"]
    assert format_struct(parsed).splitlines()[4:] == [
        "color a b b:0:1", "color a c b:0:1", "color b c b:0:0"]
    built = FinStruct.build("abc", {pair_of("a", "b"): B(0, 1),
                                    pair_of("a", "c"): B(0, 1),
                                    pair_of("b", "c"): B(0, 0)})
    assert parsed == built and built == parsed
    for sub in ("ab", "ac", "bc", "abc"):
        ident = {p: p for p in sub}
        assert is_embedding(ident, built.restrict(sub), parsed)
        assert is_embedding(ident, parsed.restrict(sub), built)
    assert not is_embedding({"a": "a", "b": "c"}, parsed.restrict("ab"),
                            FinStruct.build("ac", {pair_of("a", "c"): B(0, 0)}))


def test_parse_rejects_duplicate_pair():
    text = "structure s level 0\npoint a\npoint b\ncolor a b b:0:0\ncolor b a b:0:1\n"
    with pytest.raises(InputError):
        parse_struct(text)


def test_parse_rejects_missing_pair():
    text = "structure s level 0\npoint a\npoint b\n"
    with pytest.raises(InputError):
        parse_struct(text)


def test_uncolored_pair_is_an_error_not_a_color():
    # a HOLE row entry must not index the palette from its end
    s = struct_of(("a", "b", "c"), {pair_of("a", "b"): B(0, 0),
                                    pair_of("b", "c"): B(0, 1)}, 0)
    readers = (validate, format_struct, canonical_code,
               lambda s: point_key(s, "c", ("a",)))
    for read in readers:
        with pytest.raises(InputError, match=r"missing color for pair \(a, c\)"):
            read(s)
    bare = struct_of(("a", "b"), {}, 0)  # an empty palette
    for read in (format_struct, canonical_code):
        with pytest.raises(InputError, match=r"missing color for pair \(a, b\)"):
            read(bare)


def test_format_struct_writes_the_pairs_in_position_order():
    """The row-by-row writer gives, on stored rows, the lines of a reference
    that walks ``s.pairs()`` and reads each color as a term: on 0, 1 and 2
    points and on a seeded grown approximation.  An uncolored pair in the
    last row still raises the first missing pair's message."""
    def reference(s, name):
        lines = [f"structure {name} level {s.level}"]
        lines.extend(f"point {p}" for p in s.points)
        lines.extend(f"color {u} {v} {s.color(u, v).text()}" for u, v in s.pairs())
        return "\n".join(lines) + "\n"

    seed = FinStruct.build("xyz", random_coloring(random.Random(17), "xyz", 2))
    grown = grow(Approximation(seed, budget_cap=2), 300).current
    assert len(grown) > 30
    for s in (FinStruct.empty(), FinStruct.empty(2), FinStruct.build("a", {}),
              FinStruct.build("ab", {pair_of("a", "b"): B(0, 3)}, 1), grown):
        assert format_struct(s, "w") == reference(s, "w")
    colors = {pair_of(u, v): B(0, 0) for u, v in itertools.combinations("abcd", 2)
              if (u, v) != ("c", "d")}
    holed = struct_of(("a", "b", "c", "d"), colors, 0)
    for read in (format_struct, canonical_code, struct_chunks):
        with pytest.raises(InputError, match=r"^missing color for pair \(c, d\)$"):
            read(holed)


def test_struct_chunks_join_to_format_struct():
    """The streamed text is the header and point lines, then one chunk per
    point holding its color lines toward every later point; joined, the
    chunks are :func:`format_struct`'s text.  Checked on the structures of
    the goldens' data files and on a seeded grown approximation.  The name
    and every pair are checked when the chunks are asked for, before the
    first is read."""
    seed = FinStruct.build("xyz", random_coloring(random.Random(18), "xyz", 2))
    grown = grow(Approximation(seed, budget_cap=2), 200).current
    files = ("amal_left.txt", "amal_over.txt", "amal_right.txt", "embed_target.txt",
             "empty.txt", "five_point.txt", "mono3.txt", "one_point.txt", "three_point.txt",
             "two_point.txt")
    structs = [parse_struct(Path(data(f)).read_text())[1] for f in files]
    for s in (*structs, grown):
        chunks = list(struct_chunks(s, "w"))
        n = len(s.points)
        assert len(chunks) == n + 1
        assert chunks[0] == f"structure w level {s.level}\n" + "".join(
            f"point {p}\n" for p in s.points)
        for i, (u, chunk) in enumerate(zip(s.points, chunks[1:])):
            lines = chunk.splitlines(True)
            assert len(lines) == n - 1 - i
            assert all(line.startswith(f"color {u} ") and line.endswith("\n")
                       for line in lines)
        assert "".join(chunks) == format_struct(s, "w")
    with pytest.raises(InputError, match="bad structure name 'a b'"):
        struct_chunks(grown, "a b")


def test_parse_rejects_duplicate_point():
    text = "structure s level 0\npoint a\npoint a\n"
    with pytest.raises(InputError):
        parse_struct(text)


HEAD = "structure s level 0\n"
AB = HEAD + "point a\npoint b\n"
M1 = "structure s level 1\npoint a\npoint b\n"


@pytest.mark.parametrize("text, message", [
    ("structure s\n", "line 1: bad structure header"),
    ("structure s level 0 x\n", "line 1: bad structure header"),
    (HEAD + "structure t level 0\n", "line 2: bad structure header"),
    ("structure s level one\n", "line 1: bad level"),
    (HEAD + "point\n", "line 2: bad point line"),
    (HEAD + "point a b\n", "line 2: bad point line"),
    (HEAD + "point a\n\npoint a\n", "line 4: duplicate point 'a'"),
    (AB + "color a b\n", "line 4: bad color line"),
    (AB + "color a c b:0:0\n", "line 4: color for unknown point"),
    (AB + "color a a b:0:0\n", "line 4: degenerate pair ('a', 'a')"),
    (AB + "color a b b:0:0\ncolor b a b:0:1\n", "line 5: duplicate pair (b, a)"),
    (AB + "colour a b b:0:0\n", "line 4: unknown directive 'colour'"),
    (AB + "color a b b:0:0\ncolor a b b:0:1\nedge a b\n", "line 5: duplicate pair (a, b)"),
    ("point a\n", "missing structure header"),
    ("", "missing structure header"),
    (AB, "missing color for pair (a, b)"),
    ("structure s level -1\n", "negative level"),
    (AB + "color a b b:0\n", "line 4: bad color term 'b:0'"),
    # a term the constructor refuses keeps the constructor's own reason
    # (see the next test)
    (AB + "color a b b:0:-1\n",
     "line 4: bad color term 'b:0:-1': negative level or index in color term"),
    (AB + "color a b m:0\n", "line 4: bad color term 'm:0': 'm' colors exist only at level >= 1"),
    (M1 + "color a b k:1:AB\n",
     "line 4: bad color term 'k:1:AB': pair-code payload must be lowercase hex"),
])
def test_structure_reader_messages(text, message):
    """Each bad text gets exactly this message, with the line number
    wherever the reader gives one; the first error in a text wins, so a
    duplicate pair is reported before a later unknown directive."""
    with pytest.raises(InputError) as exc:
        parse_struct(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: ColorTerm.base(0, -1), "negative level or index in color term"),
    (lambda: ColorTerm.marker(-1), "negative level or index in color term"),
    (lambda: ColorTerm.marker(0), "'m' colors exist only at level >= 1"),
    (lambda: ColorTerm.pair_code(0, "ab"), "'k' colors exist only at level >= 1"),
    (lambda: ColorTerm.pair_code(1, "AB"), "pair-code payload must be lowercase hex"),
    (lambda: ColorTerm.pair_code(1, ""), "pair-code payload must be lowercase hex"),
    (lambda: ColorTerm("z", 0), "unknown color kind 'z'"),
])
def test_color_term_messages(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


MONO3 = struct_of("abc", {pair_of(u, v): B(0, 0) for u, v in itertools.combinations("abc", 2)})
AB_STRUCT = FinStruct.build("ab", {pair_of("a", "b"): B(0, 0)})
A_STRUCT = FinStruct.build("a", {})


@pytest.mark.parametrize("make, message", [
    (lambda: FinStruct.build("ab", {frozenset("ac"): B(0, 0)}),
     "color given for unknown pair ['a', 'c']"),
    (lambda: AB_STRUCT.index("c"), "unknown point 'c'"),
    (lambda: canonical_code(AB_STRUCT, ["c"]), "marked point 'c' not in structure"),
    (lambda: amalgamate(MONO3, A_STRUCT, A_STRUCT, Embedding.identity(A_STRUCT),
                        Embedding.identity(A_STRUCT)),
     "invalid left structure: monochromatic-triangle"),
])
def test_structure_operation_messages(make, message):
    with pytest.raises(InputError) as exc:
        make()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# row storage
# ---------------------------------------------------------------------------

def test_every_producer_stores_array_rows():
    """build, parse_struct, restrict, amalgamate, realize_type and the
    approximation's insert_point, and apply_K's stored base rows (and a
    slice of a lazy type-element row) are all array('i') rows."""
    def stored(rows):
        return len(rows) > 0 and all(type(r) is array and r.typecode == "i" for r in rows)

    x = FinStruct.build("abc", {pair_of("a", "b"): B(0, 0), pair_of("a", "c"): B(0, 1),
                                pair_of("b", "c"): B(0, 0)})
    over = x.restrict("a")
    y = FinStruct.build("ad", {pair_of("a", "d"): B(0, 2)})
    amalgam = amalgamate(x, y, over, Embedding.build(over, x, {"a": "a"}),
                         Embedding.build(over, y, {"a": "a"}))
    realized, _ = realize_type(x, OnePointType.build(x, ("b",), 1, (B(0, 1),), 0))
    ext = apply_K(x, 1).struct
    base_rows = [ext.rows[ext.pos[p]] for p in x.points]
    element = next(i for i, p in enumerate(ext.points) if p not in x)
    for rows in (x.rows, parse_struct(format_struct(x))[1].rows, x.restrict("ac").rows,
                 over.rows, amalgam.result.rows, realized.rows,
                 grow(Approximation(budget_cap=2), 60).current.rows,
                 base_rows, [ext.rows[element][:]]):
        assert stored(rows)


def test_a_read_structure_parses_each_color_text_once(monkeypatch):
    """The reader enters each distinct color text with its parsed term, so
    ``validate``'s level bound reads the kept terms and parses nothing
    again.  The structure is the ``k-apply`` text of the five-point base at
    budget 2 (398 points, 61,848 distinct color texts), cut before its
    ``types`` sidecar; the whole text is pinned by digest."""
    base = parse_struct(Path(data("five_point.txt")).read_text())[1]
    text = format_extended(apply_K(base, 2))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "0333de512c41f0f7"
    parse = ColorTerm.parse
    parsed = []
    monkeypatch.setattr(ColorTerm, "parse", staticmethod(lambda t: parsed.append(t) or parse(t)))
    s = parse_struct(text.split("types\n")[0])[1]
    assert validate(s).ok
    assert len(s.points) == 398
    assert len(parsed) == len(set(parsed)) == len(s.palette.texts) == 61848
