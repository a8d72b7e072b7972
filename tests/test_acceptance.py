"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion is exhaustive at its stated scale and asserts its stated
time budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import time
from contextlib import contextmanager

from colorder.core import (ColorTerm, Embedding, FinStruct, canonical_code,
                           pair_of)
from colorder.katetov import (EQ, GT, LT, apply_K, apply_K_morphism,
                              compare_types, pair_color)
from colorder.limit import (Approximation, PartialIso, extend_partial_iso,
                            grow, saturation_check)
from colorder.refuter import (BUNDLED_STRATEGIES, EQUIV, FAULT, MONO,
                              check_certificate, control_lo, make_strategy,
                              refute)
from colorder.types import enumerate_types, transport
from helpers import (all_embeddings, all_structures, brute_force_types,
                     pair_structure, reference_pair_color, text_keys)

B = ColorTerm.base


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"criterion {number} took {dt:.1f}s (budget {budget_s}s)"
    print(f"PASS criterion {number}: {label} ({dt:.1f}s)")


def serialize_embedding(e: Embedding) -> str:
    return (canonical_code(e.source) + "->" + canonical_code(e.target) + ":"
            + ";".join(f"{u}>{v}" for u, v in e.mapping))


def test_criterion_01_total_order():
    with criterion(1, "type comparison is a strict total order", 30):
        violations = 0
        for x in all_structures(3, 2):
            for budget in (1, 2):
                taus = enumerate_types(x, 0, budget)
                for i, t1 in enumerate(taus):
                    if compare_types(t1, t1) != EQ:
                        violations += 1
                    for t2 in taus[i + 1:]:
                        if compare_types(t1, t2) != LT or compare_types(t2, t1) != GT:
                            violations += 1
        assert violations == 0


def test_criterion_02_triangle_freeness():
    with criterion(2, "no monochromatic triangles in any extension", 60):
        cases = 0
        for x in all_structures(3, 2):
            for budget in (1, 2):
                ext = apply_K(x, budget)
                s = ext.struct
                for i, j, k in itertools.combinations(range(len(s.points)), 3):
                    u, v, w = s.points[i], s.points[j], s.points[k]
                    c = s.color(u, v)
                    assert not (c == s.color(u, w) and c == s.color(v, w)), \
                        (x.points, budget, (u, v, w))
                cases += 1
        assert cases == 20


def test_criterion_03_functor_laws():
    with criterion(3, "functor laws and naturality", 30):
        structures = all_structures(2, 2)
        for x in structures:
            kid = apply_K_morphism(Embedding.identity(x), 2)
            kx = apply_K(x, 2)
            assert serialize_embedding(kid) == serialize_embedding(
                Embedding.identity(kx.struct))
            for y in structures:
                for f in all_embeddings(x, y):
                    ef = Embedding.build(x, y, f)
                    kf = apply_K_morphism(ef, 2)
                    for p in x.points:
                        assert kf.as_dict[p] == f[p]  # naturality on the base
                    for z in structures:
                        for g in all_embeddings(y, z):
                            eg = Embedding.build(y, z, g)
                            lhs = apply_K_morphism(ef.compose(eg), 2)
                            rhs = kf.compose(apply_K_morphism(eg, 2))
                            assert serialize_embedding(lhs) == serialize_embedding(rhs)


def test_criterion_04_equivalence_preservation():
    with criterion(4, "pair equivalence preserved both ways by every embedding", 60):
        structures = all_structures(2, 2)
        violations = 0
        for x in structures:
            taus = enumerate_types(x, 0, 2)
            pairs = list(itertools.combinations(taus, 2))
            codes = [pair_structure(a, b).code() for a, b in pairs]
            assert [pair_color(a, b) for a, b in pairs] == [
                ColorTerm.pair_code(1, c.encode().hex()) for c in codes]
            for y in structures:
                for f in all_embeddings(x, y):
                    images = [(transport(a, f, y), transport(b, f, y)) for a, b in pairs]
                    icodes = [pair_structure(a, b).code() for a, b in images]
                    assert [pair_color(a, b) for a, b in images] == [
                        ColorTerm.pair_code(1, c.encode().hex()) for c in icodes]
                    for i in range(len(pairs)):
                        for j in range(i + 1, len(pairs)):
                            if (codes[i] == codes[j]) != (icodes[i] == icodes[j]):
                                violations += 1
        assert violations == 0


def test_criterion_05_type_count_oracle():
    with criterion(5, "type counts match the brute-force enumerator", 60):
        for x in all_structures(3, 2):
            for budget in (1, 2):
                got = enumerate_types(x, 0, budget)
                want = brute_force_types(x, 0, budget)
                assert len(got) == len(want)
                assert {t.key() for t in got} == text_keys(want)
        one = FinStruct.build("a", {})
        two = FinStruct.build("ab", {pair_of("a", "b"): B(0, 0)})
        assert len(enumerate_types(FinStruct.empty(), 0, 2)) == 1
        for budget in (1, 2):
            assert len(enumerate_types(one, 0, budget)) == 1 + 2 * budget
        assert len(enumerate_types(two, 0, 2)) == 18


def test_criterion_06_pair_color_functoriality():
    with criterion(6, "pair colors inherited along every embedding", 60):
        structures = all_structures(2, 2)
        for x in structures:
            pairs = list(itertools.combinations(enumerate_types(x, 0, 2), 2))
            colors = [pair_color(xi, psi) for xi, psi in pairs]
            assert colors == [reference_pair_color(xi, psi) for xi, psi in pairs]
            for y in structures:
                for f in all_embeddings(x, y):
                    for (xi, psi), color in zip(pairs, colors):
                        fxi, fpsi = transport(xi, f, y), transport(psi, f, y)
                        assert pair_color(fxi, fpsi) == color
                        assert reference_pair_color(fxi, fpsi) == color


def test_criterion_07_limit_engine():
    with criterion(7, "saturation at (w=3, B=1) and two-point homogeneity", 60):
        a = Approximation()
        for _ in range(60):
            grow(a, 25)
            if saturation_check(a, 3, 1):
                break
        assert saturation_check(a, 3, 1)
        while len(a.current.points) < 8:
            grow(a, 25)

        first8 = a.birth[:8]
        failures = 0
        subsets = [()]
        subsets += [(p,) for p in first8]
        subsets += list(itertools.combinations(first8, 2))
        code_of = {s: canonical_code(a.current.restrict(a.current.sorted_points(s)))
                   for s in subsets}
        for dom in subsets:
            for rng in subsets:
                if len(dom) != len(rng) or code_of[dom] != code_of[rng]:
                    continue
                dsorted = a.current.sorted_points(dom)
                rsorted = a.current.sorted_points(rng)
                p = PartialIso(tuple(zip(dsorted, rsorted)))
                for w in first8:
                    if w in dsorted:
                        continue
                    a, p2 = extend_partial_iso(a, p, w)
                    if not p2.check(a.current):
                        failures += 1
        assert failures == 0


def test_criterion_08_refutation_battery():
    with criterion(8, "certificates for every strategy, mutants all rejected", 120):
        from test_refuter import (equiv_certificate, equiv_mutants,
                                  fault_certificate, fault_mutants,
                                  mono_certificate, mono_mutants)
        misclassified = 0
        for x in all_structures(2, 2):
            for tau in enumerate_types(x, 0, 2):
                for name in BUNDLED_STRATEGIES:
                    cert = refute(x, tau, make_strategy(name), 3)
                    if cert.kind not in (MONO, EQUIV, FAULT):
                        misclassified += 1
                    if not check_certificate(cert, make_strategy(name)).ok:
                        misclassified += 1
        for maker, mutate, name in (
                (mono_certificate, mono_mutants, "constant"),
                (equiv_certificate, equiv_mutants, "index-sensitive"),
                (fault_certificate, fault_mutants, "constant")):
            _, _, cert = maker()
            mutants = list(mutate(cert))
            assert len(mutants) >= 10
            for mutant in mutants:
                if check_certificate(mutant, make_strategy(name)).ok:
                    misclassified += 1
        assert misclassified == 0


def test_criterion_09_positive_control():
    with criterion(9, "cut strategy equivariant on all small linear orders", 30):
        total_violations = 0
        for size in range(4):
            order = tuple(f"p{i}" for i in range(size))
            for cut in range(size + 1):
                r = control_lo(order, cut, 3, 20)
                total_violations += r.violations
        assert total_violations == 0


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI golden file reproduces byte-identically", 120):
        import os
        from colorder.cli import run
        from golden_cases import CASES, CHECK_CASES, GOLDEN
        for name, argv, expected in CASES + CHECK_CASES:
            runs = []
            for k in (1, 2):
                out = tmp_path / f"{name}.{k}"
                assert run(argv + ["--out", str(out)]) == expected
                runs.append(out.read_bytes())
            assert runs[0] == runs[1], f"{name} differs between runs"
            with open(os.path.join(GOLDEN, name), "rb") as fh:
                assert runs[0] == fh.read(), f"{name} differs from the golden file"
