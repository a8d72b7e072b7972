#!/usr/bin/env python3
"""A seeded mutation sweep over named hot-path functions.

Draws ``ast`` mutants inside the listed functions: comparison flips
(``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``in``/``not in``,
``is``/``is not``), ``+ 1``/``- 1`` swaps, ``and``/``or`` swaps,
``True``/``False`` swaps and swapped arms of a conditional expression
(``a if c else b`` => ``b if c else a``).  Each mutant runs in a
temporary copy of the tree, never in the tree itself: first against its
module's test file, stopping at the first failure, and, if it survives
that, against the whole suite but ``LIST_TEST``, which checks this
script's list against the source text that a mutant changes.  Before the
first mutant the whole suite runs once on the unmutated copy, and the
sweep exits 2 if it fails, since every mutant would then count as killed.
A run past its timeout counts as a kill (``hung``), since a flipped loop
test can spin forever.
Every run loads ``mutation_profile.py``, from next to this script, as a
pytest plugin: Hypothesis tests fail at their first failing example,
with no shrinking.

    python3 tests/mutation_sweep.py                  # 100 mutants, seed 1
    python3 tests/mutation_sweep.py --count 40
    python3 tests/mutation_sweep.py --tree OTHER --functions types.enumerate_types

The report lists killed mutants with the first test that failed, hung
mutants, and survivors.  A survivor named in ``mutation_equivalents.txt``
(one mutant id per line, ``#`` and a reason after it) is a known
equivalent mutant.  The exit status is 1 when any other mutant survives.
Stdlib only; the file name keeps it out of the test run.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EQUIVALENTS = HERE / "mutation_equivalents.txt"
PROFILE = HERE / "mutation_profile.py"  # the pytest plugin every run loads

# the hot paths that the row and snapshot rewrites touch, the type walk,
# every fresh-name search, the streamed printers and readers, and the
# refuter's reading of the strategy's answers with the checker that holds a
# certificate to it;
# ``module.Qual.name``, a class meaning all of it
FUNCTIONS = (
    "types.insert_point", "limit.Approximation._realize", "limit.Approximation.realizer_of",
    "limit.Approximation.current", "core.copied_rows", "core.Palette.id",
    "types.point_key", "core.read_lines", "core._text_chunks", "core._file_chunks",
    "core.parse_struct_lines", "core._build_checked", "core.format_struct", "core.struct_chunks",
    "core.stored_lines", "core._pair_texts", "katetov.PairTemplates",
    "katetov._ExtensionRows", "katetov._ElementRow", "katetov.apply_K",
    "katetov.format_extended", "katetov.extended_chunks", "limit.Approximation.chunks",
    "refuter._frame", "refuter.certificate_chunks", "refuter.parse_certificate",
    "cli._reading", "cli._prettify", "cli._emit",
    "types.enumerate_types", "core.first_free", "types.realize_type", "core.amalgamate",
    "refuter.control_lo", "refuter._misfit", "refuter._fault_analysis", "refuter.refute",
    "refuter.check_certificate",
)
MEMORY_LIMIT = 2 << 30  # address space of each test run
SEED = 1                # draws the mutants when fewer are asked for than there are sites
TIMEOUT = 60.0          # seconds for a module's tests; the whole suite gets 4 * TIMEOUT
# reads the mutation sites off the source, so under a mutant it fails on any
# listed equivalent, whose site the mutant rewrites; it runs unmutated only
LIST_TEST = "tests/test_mutation_list.py"

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}


@dataclass(frozen=True)
class Mutant:
    module: str   # e.g. "types"
    ident: str    # "<function>: <original> => <mutated>", stable across edits elsewhere
    start: int    # byte span of the replaced node in the module's source
    end: int
    text: str     # the replacement


def _is_one(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1 and type(node.value) is int


def _variants(node: ast.AST):
    """The mutated copies of one node, if it is a mutation site."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            new = copy.deepcopy(node)
            new.ops[k] = FLIPS[type(op)]()
            yield new
    elif (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Add, ast.Sub))
          and _is_one(node.right if isinstance(node, ast.BinOp) else node.value)):
        new = copy.deepcopy(node)
        new.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
        yield new
    elif isinstance(node, ast.BoolOp):
        new = copy.deepcopy(node)
        new.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        yield new
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        yield ast.Constant(not node.value)
    elif isinstance(node, ast.IfExp):
        new = copy.deepcopy(node)
        new.body, new.orelse = new.orelse, new.body
        yield new


def _find(tree: ast.Module, qualname: str) -> ast.AST:
    body, node = tree.body, None
    for part in qualname.split("."):
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            raise SystemExit(f"no function {qualname!r}")
        body = node.body
    return node


def mutation_sites(src: Path, functions: tuple[str, ...]) -> list[Mutant]:
    """Every mutant of the listed functions, in list order, then by position."""
    out: list[Mutant] = []
    parsed: dict[str, tuple[bytes, list[int], ast.Module]] = {}
    for name in functions:
        module, qualname = name.split(".", 1)
        if module not in parsed:
            raw = (src / "colorder" / f"{module}.py").read_bytes()
            starts = [0, *(m.end() for m in re.finditer(b"\n", raw))]
            parsed[module] = raw, starts, ast.parse(raw)
        raw, starts, tree = parsed[module]
        root = _find(tree, qualname)
        # f-string parts carry unreliable positions; leave them alone
        skip = {id(n) for js in ast.walk(root) if isinstance(js, ast.JoinedStr)
                for n in ast.walk(js)}
        seen: dict[str, int] = {}
        nodes = sorted((n for n in ast.walk(root) if id(n) not in skip and hasattr(n, "lineno")),
                       key=lambda n: (n.lineno, n.col_offset, -n.end_lineno, -n.end_col_offset))
        for node in nodes:
            start = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            original = " ".join(raw[start:end].decode().split())
            for new in _variants(node):
                text = ast.unparse(new)
                if isinstance(node, ast.AugAssign):
                    if node.lineno != node.end_lineno:
                        continue
                else:  # parenthesized, with the line breaks kept
                    text = "(" + text + "\n" * (node.end_lineno - node.lineno) + ")"
                ident = f"{name}: {original} => {' '.join(ast.unparse(new).split())}"
                seen[ident] = seen.get(ident, 0) + 1
                if seen[ident] > 1:
                    ident += f" #{seen[ident]}"
                out.append(Mutant(module, ident, start, end, text))
    return out


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(tree: Path, targets: list[str], timeout: float) -> tuple[str, str]:
    """("killed", first failing test) or ("hung", "") or ("survived", "").
    The plugin is imported from ``plugins`` next to ``tree``, the only
    entry of ``PYTHONPATH``, so no outer path can shadow the copied tree."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
           "-p", PROFILE.stem, "--continue-on-collection-errors", *targets]
    env = dict(os.environ, PYTHONPATH=str(tree.parent / "plugins"))
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True,
                            preexec_fn=_limit_memory)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "hung", ""
    if proc.returncode == 0:
        return "survived", ""
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M)
    return "killed", first.group(1) if first else f"exit {proc.returncode}"


def known_equivalents() -> dict[str, str]:
    out = {}
    for line in EQUIVALENTS.read_text().splitlines():
        ident, _, reason = line.partition("  # ")
        if ident.strip() and not ident.startswith("#"):
            out[ident.strip()] = reason.strip()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=HERE.parent,
                    help="the tree to mutate (default: this one); it is copied, never edited")
    ap.add_argument("--functions", nargs="+", default=FUNCTIONS, metavar="MODULE.NAME")
    ap.add_argument("--count", type=int, default=100)
    args = ap.parse_args()

    sites = mutation_sites(args.tree / "src", tuple(args.functions))
    chosen = sorted(random.Random(SEED).sample(sites, min(args.count, len(sites))),
                    key=sites.index)
    equivalents = known_equivalents()
    print(f"{len(chosen)} of {len(sites)} mutants, seed {SEED}", flush=True)

    results: dict[str, list[str]] = {"killed": [], "hung": [], "survived": [], "equivalent": []}
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(args.tree, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*"))
        (tree.parent / "plugins").mkdir()
        shutil.copy(PROFILE, tree.parent / "plugins")
        verdict, test = run_tests(tree, ["tests"], 4 * TIMEOUT)
        if verdict != "survived":
            print(f"the unmutated suite does not pass: {verdict} {test}")
            return 2
        for k, m in enumerate(chosen, 1):
            path = tree / "src" / "colorder" / f"{m.module}.py"
            raw = path.read_bytes()
            path.write_bytes(raw[:m.start] + m.text.encode() + raw[m.end:])
            started = time.monotonic()
            try:
                verdict, test = run_tests(tree, [f"tests/test_{m.module}.py"], TIMEOUT)
                if verdict == "survived":
                    verdict, test = run_tests(tree, ["tests", f"--ignore={LIST_TEST}"],
                                              4 * TIMEOUT)
            finally:
                path.write_bytes(raw)
            if verdict == "survived" and m.ident in equivalents:
                verdict, test = "equivalent", equivalents[m.ident]
            line = m.ident + (f"  [{test}]" if test else "")
            results[verdict].append(line)
            print(f"[{k}/{len(chosen)}] {verdict:10} {time.monotonic() - started:5.1f}s  {line}",
                  flush=True)

    for verdict, idents in results.items():
        print(f"\n{verdict}: {len(idents)}")
        print("".join(f"  {i}\n" for i in idents), end="")
    return 1 if results["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
