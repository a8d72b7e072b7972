"""Seeded fuzzing of the text formats through the CLI.

Line and token mutations of structure, type, pair and certificate texts run
through ``cli.run`` in one child process whose address space is capped, so
a blow-up fails the test, not the machine.  A structure mutant is read by
``validate``, ``types`` and ``refute``, and by ``amalgamate --left`` or
``embed --structure`` in turn.  Every run must end in exit 0, 1 or 2 with
no traceback.  A certificate line mutant (whole lines deleted, duplicated,
moved, swapped, shuffled, cut off or inserted, so no line is new) that
changes the header, the verdict or a POINTS line other than ``type`` must
exit 1: those lines are the certificate's frame, which the reader holds to
what the writer writes.  A token mutant may forge a field value, which is
the checker's to reject.

A second case swaps the value of one numeric or name argument of a golden
invocation (``check-cert`` ones included) for a drawn one, in the same
capped child.  ``--level``, ``--seed`` and ``--name``, which no golden
invocation of ``types``, ``refute``, ``check-cert`` or ``k-apply`` spells,
are first added there with their defaults, so they are drawn too.  Every
drawn value has a bounded cost: negatives, 0, 1, 2 and small counts, a
huge ``--budget`` or ``--level`` (which the type cap rejects from the
base's size), budget lists whose length differs from ``--stages``,
malformed type texts and partial-isomorphism files.  An ``amalgamate``
invocation draws ``--left-map``, ``--right-map`` or both from seeded pair
files over its points.  A huge ``--steps`` or ``--depth`` is a long job,
not a fault, so none is drawn.  Exit 1 must come with ``error:`` or the
usage line on stderr.

Run ``python tests/test_fuzz.py SEED COUNT`` to fuzz the texts by hand, and
``python tests/test_fuzz.py --args SEED COUNT`` to fuzz argument values; each
prints a JSON summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
ADDRESS_SPACE = 1 << 30   # bytes
SEED = 13
COUNT = 600               # mutants per input
ARG_COUNT = 1000          # argument-value draws

TYPE_A = "type supp=a cut=1 colors=b:0:1 level=0\n"
TOKENS = ("a", "b", "u0", "x", "t1", "q", "pair", "point", "color", "structure",
          "level", "b:0:0", "b:0:01", "b:1:0", "m:0", "k:0:ff", "b:0:-1", "99",
          "-1", "supp=a", "cut=9", "colors=", "level=7", "query", "extend",
          "fwd", "above", "self", "-", "POINTS", "None", "reason=self-claim")


def line_mutant(rng: random.Random, lines: list[str], pool: list[str]) -> list[str]:
    """``lines`` with whole lines rearranged: no line is new to the inputs."""
    out = list(lines)
    i = rng.randrange(len(out))
    op = rng.randrange(7)
    if op == 0:
        del out[i]
    elif op == 1:
        out.insert(i, out[i])
    elif op == 2:
        out.insert(rng.randrange(len(out)), out.pop(i))
    elif op == 3:
        j = rng.randrange(len(out))
        out[i], out[j] = out[j], out[i]
    elif op == 4:
        run = out[i:i + rng.randrange(2, 6)]
        rng.shuffle(run)
        out[i:i + len(run)] = run
    elif op == 5:
        del out[i:]
    else:
        out.insert(i, rng.choice(pool))
    return out


def token_mutant(rng: random.Random, lines: list[str]) -> list[str]:
    """``lines`` with one token replaced, dropped or doubled, or one line
    cut short."""
    out = list(lines)
    i = rng.randrange(len(out))
    tok = out[i].split(" ")
    k = rng.randrange(len(tok))
    op = rng.randrange(4)
    if op == 0:
        tok[k] = rng.choice(TOKENS)
    elif op == 1:
        del tok[k]
    elif op == 2:
        tok.insert(k, tok[k])
    else:
        tok = [out[i][:rng.randrange(len(out[i]) + 1)]]
    out[i] = " ".join(tok)
    return out


def frame_lines(lines: list[str]) -> list[str] | None:
    """The lines before STRUCTURE, the POINTS lines other than ``type`` and
    the verdict section; None without one of those section heads."""
    lines = [line for line in lines if line.strip()]
    if any(head not in lines for head in ("STRUCTURE", "POINTS", "ALPHA", "VERDICT")):
        return None
    points = lines[lines.index("POINTS") + 1:lines.index("ALPHA")]
    return (lines[:lines.index("STRUCTURE")]
            + [line for line in points if not line.startswith("type ")]
            + lines[lines.index("VERDICT"):])


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cli_run(argv: list[str]) -> tuple[int | None, str]:
    """The exit code and stderr of ``cli.run(argv)``; an exception, which
    the CLI would print as a traceback, gives None and a traceback line."""
    from colorder.cli import run

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return run(argv), err.getvalue()
    except Exception as exc:
        return None, f"Traceback: {exc!r}"


def fuzz(seed: int, count: int) -> dict:
    """Run ``count`` mutants of every input and return the number of runs,
    of certificate runs that must exit 1, and the first few failures."""
    from golden_cases import GOLDEN, data

    certs = {name: strategy for name, strategy in (
        ("refute_constant.txt", "constant"),
        ("refute_index.txt", "index-sensitive"),
        ("refute_fault_order.txt", "randomized-with-fixed-seed"),
        ("refute_fault_triangle.txt", "constant"))}
    texts = {name: _read(os.path.join(GOLDEN, name)) for name in certs}
    for name in ("two_point.txt", "three_point.txt", "embed_target.txt", "iso_id_a.txt"):
        texts[name] = _read(data(name))
    texts["type"] = TYPE_A
    pool = sorted({line for text in texts.values() for line in text.splitlines()})
    rng = random.Random(seed)
    runs, frame_runs, failures = 0, 0, []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")

        def argvs(name: str, k: int) -> list[list[str]]:
            """The invocations that read mutant ``k`` of input ``name``."""
            if name in certs:
                return [["check-cert", "--cert", path, "--strategy", certs[name]]]
            if name == "type":
                return [["refute", "--base", data("one_point.txt"), "--type-file", path,
                         "--strategy", "constant", "--depth", "2"]]
            if name == "iso_id_a.txt":
                return [["limit-extend-iso", "--steps", "10", "--seed-file",
                         data("two_point.txt"), "--iso", path, "--point", "b"]]
            # amalgamate and embed take turns, each a line and a token mutant
            composite = (["amalgamate", "--left", path, "--right", data("three_point.txt"),
                          "--over", data("one_point.txt")],
                         ["embed", "--steps", "0", "--budget", "2", "--structure", path])
            return [["validate", path], ["types", "--base", path, "--budget", "1"],
                    ["refute", "--base", path, "--type", "type supp= cut=0 colors= level=0",
                     "--strategy", "index-sensitive", "--depth", "2"],
                    composite[k // 2 % 2]]

        for name, text in texts.items():
            lines = text.splitlines()
            for k in range(count):
                by_line = k % 2 == 0
                mutant = line_mutant(rng, lines, pool) if by_line else token_mutant(rng, lines)
                with open(path, "w") as fh:
                    fh.write("".join(line + "\n" for line in mutant))
                must_exit_1 = (by_line and name in certs
                               and frame_lines(mutant) != frame_lines(lines))
                for argv in argvs(name, k):
                    code, err = cli_run(argv)
                    runs += 1
                    frame_runs += must_exit_1
                    if (code not in (0, 1, 2) or "Traceback" in err
                            or (must_exit_1 and code != 1)):
                        failures.append({"argv": argv[0], "input": name, "code": code,
                                         "stderr": err[-300:],
                                         "mutant": "\n".join(mutant)[-2000:]})
    return {"runs": runs, "frame_runs": frame_runs, "failures": failures[:5]}


SMALL = ("-2", "-1", "0", "1", "2", "3", "x", "", "1.5")
ARG_VALUES = {
    "--budget": SMALL + ("1000000000",),
    "--level": SMALL + ("1000000000",),
    "--cut": SMALL,
    "--seed": SMALL,
    "--name": ("", " ", "K", "a b", "x\ny", "K.1", "-", "stage1"),
    "--stages": ("-1", "0", "1", "3", "x"),        # the golden budget list has 2
    "--budgets": ("", ",", "2", "-1", "0,0,0", "2,2,2", "2,x"),
    "--depth": SMALL,
    "--steps": SMALL,
    "--size": SMALL,
    "--samples": SMALL,
    "--point": ("a", "b", "u0", "u3", "zz", "-", ""),
    "--type": ("", "type", TYPE_A.strip(), "type supp= cut=0 colors= level=0",
               "type supp=a cut=0 colors=b:0:0 level=0", "type supp=a cut=2 colors=b:0:1 level=0",
               "type supp=a cut=-1 colors=b:0:1 level=0", "type supp=z cut=1 colors=b:0:1 level=0",
               "type supp=a,a cut=1 colors=b:0:1,b:0:1 level=0",
               "type supp=a cut=1 colors=b:0:1 level=1", "type supp=a cut=1 colors=m:1 level=0",
               "type supp=a cut=1 colors=k:1:ff level=0", "type supp=a cut=1 colors= level=0"),
}
ISO_TEXTS = ("", "pair a a\n", "pair b b\n", "pair a b\n", "pair b a\n", "pair a a\npair a a\n",
             "pair a a\npair b a\n", "pair a zz\n", "pair u0 a\n", "pair a\n", "nonsense\n")
# an option no golden invocation of the command spells, spelled with its
# default so that a draw may replace it
DEFAULTS = {"types": ("--level", "0"), "k-apply": ("--name", "K"),
            "refute": ("--seed", "0"), "check-cert": ("--seed", "0")}
MAP_POINTS = ("x", "a1", "b1", "zz")   # the amalgamate golden's points, and an unknown one
MAP_FILES = 16
VALID_MAPS = ("pair x x\n", "pair x a1\n", "pair x b1\n")   # each valid on one side at least


def map_text(rng: random.Random) -> str:
    """An amalgamate map file: up to three pair lines over ``MAP_POINTS``,
    now and then with a malformed line."""
    lines = [f"pair {rng.choice(MAP_POINTS)} {rng.choice(MAP_POINTS)}"
             for _ in range(rng.randrange(4))]
    if rng.randrange(8) == 0:
        lines.insert(rng.randrange(len(lines) + 1), "pair x")
    return "".join(line + "\n" for line in lines)


def fuzz_args(seed: int, count: int) -> dict:
    """Run ``count`` golden invocations, each with the value of one covered
    argument swapped for a drawn one (an ``amalgamate`` one with one map
    file drawn or both), and return the number of runs, the arguments
    drawn and the first few failures."""
    from golden_cases import CASES, CHECK_CASES

    cases = [[*argv, *DEFAULTS.get(argv[0], ())] for _, argv, _ in CASES + CHECK_CASES]
    cases = [argv for argv in cases
             if argv[0] == "amalgamate" or any(a in ARG_VALUES or a == "--iso" for a in argv)]
    rng = random.Random(seed)
    drawn, failures = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        def files(kind: str, texts) -> tuple[str, ...]:
            """A missing file, a directory and one file per text."""
            paths = [os.path.join(tmp, "missing.txt"), tmp]
            for k, text in enumerate(texts):
                paths.append(os.path.join(tmp, f"{kind}{k}.txt"))
                with open(paths[-1], "w") as fh:
                    fh.write(text)
            return tuple(paths)

        values = dict(ARG_VALUES, **{"--iso": files("iso", ISO_TEXTS)})
        maps = files("map", [*VALID_MAPS, *(map_text(rng) for _ in range(MAP_FILES))])
        for _ in range(count):
            argv = list(rng.choice(cases))
            if argv[0] == "amalgamate":   # one map file or both, never neither
                flags = rng.choice((["--left-map"], ["--right-map"], ["--left-map", "--right-map"]))
                for flag in flags:
                    argv += [flag, rng.choice(maps)]
                drawn.update(flags)
            else:
                i = rng.choice([i for i, a in enumerate(argv) if a in values])
                argv[i + 1] = rng.choice(values[argv[i]])
                drawn.add(argv[i])
            code, err = cli_run(argv)
            if (code not in (0, 1, 2) or "Traceback" in err
                    or (code == 1 and "error:" not in err and "usage:" not in err)):
                failures.append({"argv": argv, "code": code, "stderr": err[-300:]})
    return {"runs": count, "drawn": sorted(drawn), "failures": failures[:5]}


def _child(*args: str) -> dict:
    child = subprocess.run([sys.executable, __file__, *args],
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_mutated_inputs_end_in_a_defined_exit_code():
    summary = _child(str(SEED), str(COUNT))
    assert summary["failures"] == []
    assert summary["runs"] == COUNT * 18
    assert summary["frame_runs"] > COUNT


READER_SEED = 29
READER_MUTANTS = 40       # line and token mutants per text, of each kind


def test_structure_reader_matches_the_reference_reader():
    """The reader and ``helpers.reference_parse_struct`` give the same
    name, points, level, rows and palette texts, or the same InputError
    text, on canonical texts, on their lines shuffled, and on line and
    token mutants of both."""
    from colorder.core import InputError, format_struct, parse_struct
    from colorder.katetov import apply_K
    from colorder.limit import Approximation, grow
    from golden_cases import data
    from helpers import reference_parse_struct

    def outcome(read, text: str):
        try:
            name, s = read(text)
        except InputError as exc:
            return str(exc)
        return name, s.points, s.level, [list(row) for row in s.rows], s.palette.texts

    two = parse_struct(_read(data("two_point.txt")))[1]
    canonical = [_read(data(name)) for name in
                 ("empty.txt", "one_point.txt", "two_point.txt", "three_point.txt",
                  "embed_target.txt", "mono3.txt")]
    canonical += [format_struct(grow(Approximation(budget_cap=2), 40).current, "grown"),
                  format_struct(apply_K(two, 1).struct, "K")]
    pool = sorted({line for text in canonical for line in text.splitlines()})
    rng = random.Random(READER_SEED)
    verdicts = set()
    for text in canonical:
        lines = text.splitlines()
        shuffled = rng.sample(lines, len(lines))
        variants = [lines, shuffled]
        for base in (lines, shuffled):
            variants += [line_mutant(rng, base, pool) for _ in range(READER_MUTANTS)]
            variants += [token_mutant(rng, base) for _ in range(READER_MUTANTS)]
        for variant in variants:
            mutant = "".join(line + "\n" for line in variant)
            got = outcome(parse_struct, mutant)
            assert got == outcome(reference_parse_struct, mutant), mutant
            verdicts.add(type(got))
    assert verdicts == {str, tuple}


def test_drawn_argument_values_end_in_a_defined_exit_code():
    summary = _child("--args", str(SEED), str(ARG_COUNT))
    assert summary["failures"] == []
    assert summary["drawn"] == sorted([*ARG_VALUES, "--iso", "--left-map", "--right-map"])


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    sys.path.insert(0, SRC)
    if sys.argv[1] == "--args":
        print(json.dumps(fuzz_args(int(sys.argv[2]), int(sys.argv[3]))))
    else:
        print(json.dumps(fuzz(int(sys.argv[1]), int(sys.argv[2]))))
