"""The mutation sweep's list of functions (``FUNCTIONS`` of
``tests/mutation_sweep.py``) names only functions and classes that exist,
and every known equivalent mutant it reads is one that list makes, so no
entry of ``mutation_equivalents.txt`` goes stale unnoticed."""

from pathlib import Path

from mutation_sweep import FUNCTIONS, known_equivalents, mutation_sites

SRC = Path(__file__).resolve().parent.parent / "src"


def test_known_equivalents_are_current_mutants():
    idents = {m.ident for m in mutation_sites(SRC, FUNCTIONS)}   # raises on a stale name
    assert sorted(set(known_equivalents()) - idents) == []
