"""Command-line surface.

Every subcommand is a thin wrapper over one library operation, reads and
writes the line-oriented text formats, and is byte-deterministic.  Each
subcommand is declared once, by the ``@_subcommand`` decorator on its
handler; the parser is built once per process, as the module loads, and
``run`` only parses.  Exit codes: 0 success; 1 malformed input (a
certificate not in canonical form and an external strategy's undecodable,
overlong or off-protocol reply included), a usage error, or an ``--out``
file that cannot be written; 2 semantic negative (invalid structure,
rejected certificate, control violations).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import TextIO

from .core import (Embedding, FinStruct, InputError, amalgamate, parse_struct,
                   struct_chunks, validate)
from .katetov import apply_K, extended_chunks, iterate_K
from .limit import (Approximation, embed, extend_partial_iso, format_pairs,
                    grow, parse_pairs)
from .refuter import (SECTIONS, certificate_chunks, check_certificate, control_lo,
                      format_control_report, make_strategy,
                      parse_certificate, refute)
from .types import enumerate_types, format_type, parse_type

_SECTION_HEADS = ("structure", "ledger", "types", "embedding", *SECTIONS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, usage on stderr
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


_PARSER = _Parser(prog="colorder")
_SUBPARSERS = _PARSER.add_subparsers(dest="command", required=True)


def _arg(*flags, **kwargs) -> tuple[tuple, dict]:
    return flags, kwargs


# Added after each subcommand's own options, so they end every usage line.
_OUTPUT_OPTIONS = (
    _arg("--out", help="write output to this file instead of stdout"),
    _arg("--format", choices=("compact", "pretty"), default="compact",
         help="whitespace style of the output"),
)

_APPROXIMATION_OPTIONS = (
    _arg("--steps", type=int, required=True),
    _arg("--budget", type=int, default=2),
    _arg("--seed-file"),
)


def _subcommand(name: str, help: str, *arguments):
    """Declare subcommand ``name`` with ``arguments`` (from ``_arg``) and
    the output options; ``run`` dispatches it to the decorated handler."""
    def declare(handler):
        p = _SUBPARSERS.add_parser(name, help=help)
        for flags, kwargs in (*arguments, *_OUTPUT_OPTIONS):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=handler)
        return handler
    return declare


def _prettify(chunks: Iterable[str]) -> Iterator[str]:
    """Insert a blank line before each section header, line by line, with
    tokens unchanged; empty output becomes one empty line.  Every chunk
    ends a line."""
    first = True
    for chunk in chunks:
        for line in chunk.splitlines():
            head = line.split(None, 1)
            if head and head[0] in _SECTION_HEADS and not first:
                yield "\n"
            first = False
            yield line + "\n"
    if first:
        yield "\n"


def _emit(args, chunks: Iterable[str]) -> None:
    """Write the output's chunks as they come, to stdout or to ``--out``.
    Every check that printing makes runs before the chunks are asked for
    (the chunk forms check when called), so output that fails writes
    nothing."""
    if args.format == "pretty":
        chunks = _prettify(chunks)
    if not args.out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(args.out, "w", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc


@contextlib.contextmanager
def _reading(path: str) -> Iterator[TextIO]:
    """The file at ``path``, open for reading while the block runs.  A file
    that cannot be opened, or a byte that is not UTF-8 once a read
    reaches it, raises InputError."""
    try:
        with open(path) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read(path: str) -> str:
    with _reading(path) as fh:
        return fh.read()


def _load_struct(path: str) -> FinStruct:
    with _reading(path) as fh:
        return parse_struct(fh)[1]


def _build_approximation(args) -> Approximation:
    seed = _load_struct(args.seed_file) if args.seed_file else None
    a = Approximation(seed=seed, budget_cap=args.budget)
    return grow(a, args.steps)


@_subcommand("validate", "check a structure file", _arg("file"))
def _cmd_validate(args) -> int:
    s = _load_struct(args.file)
    verdict = validate(s)
    if verdict.ok:
        _emit(args, ["valid\n"])
        return 0
    u, v, w = verdict.triple
    _emit(args, [f"invalid {verdict.reason} {u} {v} {w} {verdict.color.text()}\n"])
    return 2


@_subcommand(
    "amalgamate", "amalgamate two structures over a common part",
    _arg("--left", required=True),
    _arg("--right", required=True),
    _arg("--over", required=True),
    _arg("--left-map", help="pair lines mapping the common part into the left structure"),
    _arg("--right-map", help="pair lines mapping the common part into the right structure"))
def _cmd_amalgamate(args) -> int:
    left = _load_struct(args.left)
    right = _load_struct(args.right)
    over = _load_struct(args.over)

    def load_map(path, target):
        if path is None:
            mapping = {p: p for p in over.points}
        else:
            pairs = parse_pairs(_read(path)).pairs
            mapping = dict(pairs)
            if len(mapping) < len(pairs):   # a common point listed twice
                raise InputError("not an embedding")
        return Embedding.build(over, target, mapping)

    am = amalgamate(left, right, over, load_map(args.left_map, left),
                    load_map(args.right_map, right))
    _emit(args, chain(struct_chunks(am.result, "amalgam"),
                      ("embedding left\n", format_pairs(am.left.mapping),
                       "embedding right\n", format_pairs(am.right.mapping))))
    return 0


@_subcommand(
    "types", "enumerate one-point types over a structure",
    _arg("--base", required=True),
    _arg("--level", type=int, default=0),
    _arg("--budget", type=int, required=True))
def _cmd_types(args) -> int:
    base = _load_struct(args.base)
    taus = enumerate_types(base, args.level, args.budget)
    _emit(args, (format_type(t) + "\n" for t in taus))
    return 0


@_subcommand(
    "k-apply", "apply the extension functor once",
    _arg("--base", required=True),
    _arg("--budget", type=int, required=True),
    _arg("--name", default="K"))
def _cmd_k_apply(args) -> int:
    base = _load_struct(args.base)
    ext = apply_K(base, args.budget)
    _emit(args, extended_chunks(ext, args.name))
    return 0


@_subcommand(
    "k-iterate", "iterate the extension functor",
    _arg("--base", required=True),
    _arg("--stages", type=int, required=True),
    _arg("--budgets", required=True, help="comma-separated, one per stage"))
def _cmd_k_iterate(args) -> int:
    base = _load_struct(args.base)
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b]
    except ValueError:
        raise InputError(f"bad budget list {args.budgets!r}") from None
    stages = iterate_K(base, args.stages, budgets)
    _emit(args, chain.from_iterable(extended_chunks(ext, f"stage{i + 1}")
                                    for i, ext in enumerate(stages)))
    return 0


@_subcommand("limit-build", "grow a generic-limit approximation",
             *_APPROXIMATION_OPTIONS)
def _cmd_limit_build(args) -> int:
    a = _build_approximation(args)
    _emit(args, a.chunks())
    return 0


@_subcommand(
    "limit-extend-iso", "extend a partial isomorphism by one point",
    *_APPROXIMATION_OPTIONS,
    _arg("--iso", required=True, help="file of 'pair <id> <id>' lines"),
    _arg("--point", required=True))
def _cmd_limit_extend_iso(args) -> int:
    a = _build_approximation(args)
    p = parse_pairs(_read(args.iso))
    a, p2 = extend_partial_iso(a, p, args.point)
    _emit(args, chain((format_pairs(p2.pairs),), a.chunks()))
    return 0


@_subcommand("embed", "embed a structure into an approximation",
             *_APPROXIMATION_OPTIONS, _arg("--structure", required=True))
def _cmd_embed(args) -> int:
    a = _build_approximation(args)
    s = _load_struct(args.structure)
    a, e = embed(a, s)
    _emit(args, chain((format_pairs(e.mapping),), a.chunks()))
    return 0


@_subcommand(
    "refute", "run the refutation procedure against a strategy",
    _arg("--base", required=True),
    _arg("--type", dest="type_text", help="type in text form"),
    _arg("--type-file", help="file holding the type text"),
    _arg("--strategy", required=True,
         help="bundled name or prog:<command> for the line protocol"),
    _arg("--depth", type=int, default=3),
    _arg("--seed", type=int, default=0))
def _cmd_refute(args) -> int:
    base = _load_struct(args.base)
    if (args.type_text is None) == (args.type_file is None):
        raise InputError("give exactly one of --type and --type-file")
    type_text = args.type_text if args.type_file is None else _read(args.type_file).strip()
    tau = parse_type(type_text, base)
    with make_strategy(args.strategy, args.seed) as strategy:
        cert = refute(base, tau, strategy, args.depth)
    _emit(args, certificate_chunks(cert))
    return 0


@_subcommand(
    "check-cert", "verify a refutation certificate",
    _arg("--cert", required=True),
    _arg("--strategy", required=True),
    _arg("--seed", type=int, default=0))
def _cmd_check_cert(args) -> int:
    with _reading(args.cert) as fh:
        cert = parse_certificate(fh)
    with make_strategy(args.strategy, args.seed) as strategy:
        result = check_certificate(cert, strategy)
    if result.ok:
        _emit(args, ["accepted\n"])
        return 0
    _emit(args, [f"rejected {result.reason}\n"])
    return 2


@_subcommand(
    "control-lo", "positive control on pure linear orders",
    _arg("--size", type=int, required=True),
    _arg("--cut", type=int, required=True),
    _arg("--depth", type=int, default=3),
    _arg("--samples", type=int, default=20),
    _arg("--seed", type=int, default=1729))
def _cmd_control_lo(args) -> int:
    if args.size < 0:
        raise InputError("size must be nonnegative")
    order = tuple(f"p{i}" for i in range(args.size))
    report = control_lo(order, args.cut, args.depth, args.samples, args.seed)
    _emit(args, [format_control_report(report)])
    return 0 if report.violations == 0 else 2


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
