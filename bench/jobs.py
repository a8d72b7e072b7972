"""Seeded inputs, fixed job lists and output checks for the three workloads.

A job is one user-level operation: an in-process ``colorder.cli.run`` call
where the subcommand exists and is affordable, otherwise the library calls
that subcommand makes.  Every job returns its text output; ``fingerprint``
reduces that output to the value pinned in ``pins.json``.

Inputs come from finite pools so that every output can be pinned once:
pool member ``i`` is a pure function of ``i``, and the workload seed only
chooses which members fill the slots of a round.  The ``limit`` workload
is one growing approximation whose embeds depend on every earlier job, so
there the seed picks one of ``LIMIT_VARIANTS`` sets of embedded structures.

The job lists are sized from measurements on a 2-core machine: each round
takes about 5-7 host-normalized seconds, and the per-class counts keep the
p50 and p90 job latencies inside one class of job rather than on a
boundary between two.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("functor", "limit", "refute")
BASE_COLORS = 3
POOL = 12                # members per functor base cell
STAGE2_PAIRS = 2000      # stage-2 pair colors per sort-heavy job
STAGE2_SIZE = 9296       # type elements of stage 2 of K(one point; budgets 1,1)
PAIR_BLOCKS = 32
LIMIT_VARIANTS = 16
REFUTE_POOL = 240
PROG_STRATEGY = "prog_strategy.py"
BUNDLED = ("constant", "support-echo", "order-sensitive", "index-sensitive",
           "randomized-with-fixed-seed")

# functor: (subcommand, base size, budget, jobs per round)
# The 14 cheapest jobs (2x2 k-apply, 4x2 and 3x3 types) come first by cost, so
# p50, the 23rd job of 45, falls in the middle of the twelve 2x3 k-apply jobs;
# p90 falls among the six 3x3 k-apply jobs, after the k-iterate job.
FUNCTOR_CELLS = (("k-apply", 3, 3, 6), ("k-apply", 3, 2, 8), ("k-apply", 2, 3, 12),
                 ("k-apply", 2, 2, 8), ("types", 4, 3, 4), ("types", 4, 2, 3),
                 ("types", 3, 3, 3))
# limit: grow in chunks, one round trip, back-and-forth chains, then the seeded
# embeds.  Everything before the embeds is the same for every seed.  The job
# counts put p50 among the back-and-forth steps and p90 among the late grow
# chunks, so that neither sits on a step between two classes of job; the
# embedded structures are small enough to stay below those chunks.
GROW_STEPS, GROW_CHUNK, GROW_BUDGET = 2300, 50, 3
EMBEDS, EMBED_SIZES = 8, (4, 6)
CHAINS, CHAIN_STEPS = 4, 4
# refute: (certificate kind, uses the prog: strategy, one entry per job).  An
# entry is the size of the final back-and-forth map, base plus first realizer
# plus depth, which sets a job's cost, so depth = size - 1 - base size.  Fault
# certificates end before the back-and-forth and run at depth 3.  p90, the
# 4th-largest job of 40, falls among the three size-40 jobs.
REFUTE_SLOTS = (("StrategyInconsistent", False, (None,) * 10),
                ("StrategyInconsistent", True, (None,) * 3),
                ("MonochromaticTriangle", False, (24, 24, 25, 26, 28, 31, 34, 40)),
                ("EquivarianceViolation", False, (24, 24, 24, 25, 25, 26, 28, 31, 34, 40,
                                                  47, 62)),
                ("EquivarianceViolation", True, (24, 24, 25, 26, 28, 31, 40)))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Job:
    """One timed operation.  ``prepare`` runs untimed before ``run``;
    ``fingerprint`` maps the output to the pinned value."""

    kind: str
    key: str
    run: Callable[[], str]
    fingerprint: Callable[[str], str] = digest
    prepare: Callable[[], None] | None = None


@dataclass
class Inputs:
    """Everything a workload generates before its first job."""

    workload: str
    workdir: Path
    files: dict[str, Path] = field(default_factory=dict)
    plan: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Input generation, independent of the program under test
# ---------------------------------------------------------------------------

def random_coloring(rng: random.Random, n: int, colors: int) -> dict[tuple[int, int], int]:
    """A randomly drawn coloring of the pairs of n points with no
    monochromatic triangle, by restarting on a dead end.  Pairs are colored
    in lexicographic order, so the triangles closed by (i, j) are those
    through a point k < i."""
    while True:
        col: dict[tuple[int, int], int] = {}
        for i, j in itertools.combinations(range(n), 2):
            ok = [c for c in range(colors)
                  if not any(col[(k, i)] == c == col[(k, j)] for k in range(i))]
            if not ok:
                break
            col[(i, j)] = rng.choice(ok)
        else:
            return col


def struct_text(names: list[str], col: dict[tuple[int, int], int], name: str = "s") -> str:
    lines = [f"structure {name} level 0"]
    lines.extend(f"point {p}" for p in names)
    lines.extend(f"color {names[i]} {names[j]} b:0:{col[(i, j)]}"
                 for i, j in itertools.combinations(range(len(names)), 2))
    return "\n".join(lines) + "\n"


def functor_base(n: int, i: int) -> str:
    rng = random.Random(f"functor-base-{n}-{i}")
    return struct_text([f"x{k}" for k in range(n)], random_coloring(rng, n, BASE_COLORS), "base")


def stage2_pairs(block: int) -> list[tuple[int, int]]:
    rng = random.Random(f"functor-pairs-{block}")
    return [tuple(sorted(rng.sample(range(STAGE2_SIZE), 2))) for _ in range(STAGE2_PAIRS)]


def refute_member(i: int) -> dict:
    """Pool member i of the refute workload: a 1-3-point base, a valid
    budget-2 type over it, a strategy and the strategy seed."""
    rng = random.Random(f"refute-{i}")
    n = rng.choice((1, 1, 2, 2, 2, 3))
    names = [f"x{k}" for k in range(n)]
    col = random_coloring(rng, n, 2)
    while True:
        supp = sorted(rng.sample(range(n), rng.randint(0, n)))
        cols = [rng.randrange(2) for _ in supp]
        if not any(cols[a] == cols[b] == col[(supp[a], supp[b])]
                   for a, b in itertools.combinations(range(len(supp)), 2)):
            break
    cut = rng.randint(0, len(supp))
    tau = (f"type supp={','.join(names[k] for k in supp)} cut={cut} "
           f"colors={','.join(f'b:0:{c}' for c in cols)} level=0")
    strategy = rng.choice(BUNDLED + ("prog",) * 2)
    return {"base": struct_text(names, col, "base"), "base_size": n, "type": tau,
            "strategy": strategy, "strategy_seed": i % 5}


def limit_embed_structure(variant: int, j: int) -> str:
    rng = random.Random(f"limit-embed-{variant}-{j}")
    n = rng.randint(*EMBED_SIZES)
    names = [f"e{k}" for k in range(n)]
    return struct_text(names, random_coloring(rng, n, BASE_COLORS), "probe")


# ---------------------------------------------------------------------------
# Plans: which pool members fill the slots of a round
# ---------------------------------------------------------------------------

def plan(workload: str, seed: int, pins: dict) -> list:
    """The slots of one round for a seed.  ``pins`` are the workload's
    pinned outputs; the refute plan reads certificate kinds from them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "functor":
        slots = [("k-iterate", rng.randrange(PAIR_BLOCKS))]
        for cmd, n, budget, count in FUNCTOR_CELLS:
            slots.extend((cmd, n, budget, rng.randrange(POOL)) for _ in range(count))
        rng.shuffle(slots)
        return slots
    if workload == "limit":
        return [seed % LIMIT_VARIANTS]
    if workload == "refute":
        pool = [refute_member(i) for i in range(REFUTE_POOL)]
        slots = []
        for kind, prog, sizes in REFUTE_SLOTS:
            members = [i for i, m in enumerate(pool)
                       if pins[f"refute/{i}"].split()[0] == kind
                       and (m["strategy"] == "prog") == prog]
            for size in sizes:
                i = rng.choice(members)
                slots.append((i, 3 if size is None else size - 1 - pool[i]["base_size"]))
        rng.shuffle(slots)
        return slots
    raise ValueError(f"unknown workload {workload!r}")


def pool_plans(workload: str) -> list[list]:
    """Plans that together cover every pool member, for pinning."""
    if workload == "functor":
        return [[("k-iterate", b) for b in range(PAIR_BLOCKS)]
                + [(cmd, n, budget, i) for cmd, n, budget, _ in FUNCTOR_CELLS
                   for i in range(POOL)]]
    if workload == "limit":
        return [[v] for v in range(LIMIT_VARIANTS)]
    return [[(i, 3) for i in range(REFUTE_POOL)]]


def make_inputs(workload: str, workdir: Path, slots: list) -> Inputs:
    """Write the CLI input files of a plan."""
    inp = Inputs(workload, workdir, plan=slots)

    def write(name: str, text: str) -> None:
        path = workdir / name
        path.write_text(text)
        inp.files[name] = path

    if workload == "functor":
        write("one.txt", struct_text(["a"], {}, "one"))
        for slot in inp.plan:
            if slot[0] != "k-iterate":
                _, n, _, i = slot
                write(f"base-{n}-{i}.txt", functor_base(n, i))
    elif workload == "limit":
        variant = inp.plan[0]
        for j in range(EMBEDS):
            write(f"embed-{j}.txt", limit_embed_structure(variant, j))
    else:
        for i, _ in inp.plan:
            write(f"base-{i}.txt", refute_member(i)["base"])
    return inp


# ---------------------------------------------------------------------------
# Rounds: the fixed job list, built fresh for every round
# ---------------------------------------------------------------------------

def _cli(argv: list[str], out: Path) -> str:
    from colorder import cli
    code = cli.run(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    return f"exit {code}\n{text}"


def prog_command() -> str:
    """The external strategy, by a path relative to the repository root,
    which is the working directory of every benchmark process."""
    return f"prog:{sys.executable} -I -S bench/{PROG_STRATEGY}"


def functor_round(inp: Inputs) -> list[Job]:
    from colorder.core import parse_struct
    from colorder.katetov import iterate_K
    from colorder.types import format_type

    out = inp.workdir / "functor.out"
    jobs = []
    for slot in inp.plan:
        if slot[0] == "k-iterate":
            block = slot[1]

            def run(block=block) -> str:
                one = parse_struct(inp.files["one.txt"].read_text())[1]
                ext = iterate_K(one, 2, [1, 1])[-1]
                ids = ext.element_ids()
                lines = [f"{tid} {format_type(tau)}\n" for tid, tau in ext.elements]
                lines.extend(f"{ids[i]} {ids[j]} {ext.struct.color(ids[i], ids[j]).text()}\n"
                             for i, j in stage2_pairs(block))
                return "".join(lines)

            jobs.append(Job("k-iterate", f"k-iterate/pairs{block}", run))
        else:
            cmd, n, budget, i = slot
            argv = [cmd, "--base", str(inp.files[f"base-{n}-{i}.txt"]), "--budget", str(budget)]
            jobs.append(Job(cmd, f"{cmd}/{n}x{budget}/{i}",
                            lambda argv=argv: _cli(argv, out)))
    return jobs


def _same_type_pair(a, over: tuple[str, ...], rng: random.Random) -> tuple[str, str]:
    """Two points of the approximation with one type over ``over``,
    read straight off the structure."""
    s = a.current
    classes: dict[tuple, list[str]] = {}
    for p in s.points:
        if p in over:
            continue
        cut = sum(1 for q in over if s.index(q) < s.index(p))
        classes.setdefault((cut, tuple(s.color(q, p) for q in over)), []).append(p)
    pairs = [ps for _, ps in sorted(classes.items(), key=lambda kv: kv[1][0]) if len(ps) >= 2]
    return tuple(rng.sample(rng.choice(pairs), 2))


def limit_round(inp: Inputs) -> list[Job]:
    from colorder.core import format_struct, parse_struct, validate
    from colorder.limit import Approximation, PartialIso, embed, extend_partial_iso, grow

    variant = inp.plan[0]
    state: dict = {}
    jobs = []

    for k in range(GROW_STEPS // GROW_CHUNK):
        def run(first=k == 0) -> str:
            if first:
                state["a"] = Approximation(budget_cap=GROW_BUDGET)
            a = grow(state["a"], GROW_CHUNK)
            return f"points {len(a.current.points)} steps {a.steps_done}"
        jobs.append(Job("grow", f"grow/{k}", run, fingerprint=str))

    def round_trip() -> str:
        text = format_struct(state["a"].current, "approx")
        _, s = parse_struct(text)
        return text + f"verdict {validate(s).ok} points {len(s.points)}\n"
    jobs.append(Job("round-trip", "round-trip", round_trip))

    for c in range(CHAINS):
        rng = random.Random(f"limit-chain-{c}")

        def start(rng=rng) -> None:
            a = state["a"]
            over = tuple(a.current.sorted_points(rng.sample(a.birth[:6], rng.randint(1, 2))))
            t1, t2 = _same_type_pair(a, over, rng)
            state["iso"] = PartialIso(tuple((p, p) for p in over) + ((t1, t2),))

        for step in range(CHAIN_STEPS):
            def run(step=step, rng=rng) -> str:
                a, iso = state["a"], state["iso"]
                if step % 2 == 0:
                    u = rng.choice([p for p in a.current.points if p not in iso.fwd()])
                    a, iso = extend_partial_iso(a, iso, u)
                    v = iso.fwd()[u]
                else:
                    u = rng.choice([p for p in a.current.points if p not in set(iso.range())])
                    a, inv = extend_partial_iso(a, iso.inverse(), u)
                    iso, v = inv.inverse(), inv.fwd()[u]
                state["a"], state["iso"] = a, iso
                return f"{'fwd' if step % 2 == 0 else 'bwd'} {u} {v}\n"
            jobs.append(Job("back-and-forth", f"bf/{c}/{step}", run,
                            prepare=start if step == 0 else None))

    for j in range(EMBEDS):
        def run(j=j) -> str:
            s = parse_struct(inp.files[f"embed-{j}.txt"].read_text())[1]
            state["a"], e = embed(state["a"], s)
            return "".join(f"pair {u} {v}\n" for u, v in e.mapping)
        jobs.append(Job("embed", f"embed/{variant}/{j}", run))
    return jobs


def cert_fingerprint(out: str) -> str:
    """Meaning of a refute + check-cert job: the checker's verdict, the
    certificate kind and its fault reason.  Byte layout is not pinned."""
    head, _, verdict = out.rpartition("\n=== check-cert\n")
    if not verdict.startswith("exit 0\naccepted"):
        return "check-cert " + " ".join(verdict.split()[:4])
    kind, reason = "?", ""
    in_verdict = False
    for line in head.splitlines():
        if line.startswith("kind "):
            kind = line.split()[1]
        elif line.strip() == "VERDICT":
            in_verdict = True
        elif in_verdict:
            reason = next((t[len("reason="):] for t in line.split() if t.startswith("reason=")), "")
            in_verdict = False
    return f"{kind} {reason}".rstrip()


def refute_round(inp: Inputs) -> list[Job]:
    cert, verdict = inp.workdir / "cert.txt", inp.workdir / "verdict.txt"
    jobs = []
    for i, depth in inp.plan:
        m = refute_member(i)
        strategy = prog_command() if m["strategy"] == "prog" else m["strategy"]
        seed = str(m["strategy_seed"])
        refute = ["refute", "--base", str(inp.files[f"base-{i}.txt"]), "--type", m["type"],
                  "--strategy", strategy, "--seed", seed, "--depth", str(depth)]
        check = ["check-cert", "--cert", str(cert), "--strategy", strategy, "--seed", seed]

        def run(refute=refute, check=check) -> str:
            from colorder import cli
            code = cli.run(refute + ["--out", str(cert)])
            text = cert.read_text() if cert.exists() else ""
            checked = _cli(check, verdict)
            cert.unlink(missing_ok=True)
            return f"exit {code}\n{text}\n=== check-cert\n{checked}"
        jobs.append(Job("refute", f"refute/{i}", run, fingerprint=cert_fingerprint))
    return jobs


def make_round(inp: Inputs) -> list[Job]:
    if inp.workload == "functor":
        return functor_round(inp)
    if inp.workload == "limit":
        return limit_round(inp)
    return refute_round(inp)
