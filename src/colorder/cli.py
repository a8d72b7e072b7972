"""Command-line surface.

Every subcommand is a thin wrapper over one library operation, reads and
writes the line-oriented text formats, and is byte-deterministic.  Exit
codes: 0 success, 1 malformed input or usage error, 2 semantic negative
(invalid structure, rejected certificate, control violations).
"""

from __future__ import annotations

import argparse
import sys

from .core import (Embedding, FinStruct, InputError, amalgamate,
                   format_struct, parse_struct, validate)
from .katetov import apply_K, format_extended, iterate_K
from .limit import (Approximation, embed, extend_partial_iso, format_pairs,
                    grow, parse_pairs)
from .refuter import (check_certificate, control_lo, format_certificate,
                      format_control_report, make_strategy,
                      parse_certificate, refute)
from .types import enumerate_types, format_type, parse_type

_SECTION_HEADS = ("structure", "ledger", "types", "embedding", "STRUCTURE",
                  "POINTS", "ALPHA", "TRANSCRIPT", "VERDICT")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, usage on stderr
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _prettify(text: str) -> str:
    """Insert a blank line before each section header; tokens unchanged."""
    out: list[str] = []
    for i, line in enumerate(text.splitlines()):
        if i and line.split() and line.split()[0] in _SECTION_HEADS:
            out.append("")
        out.append(line)
    return "\n".join(out) + "\n"


def _emit(args, text: str) -> None:
    if getattr(args, "format", "compact") == "pretty":
        text = _prettify(text)
    if getattr(args, "out", None):
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_struct(path: str) -> FinStruct:
    return parse_struct(_read(path))[1]


def _build_approximation(args) -> Approximation:
    seed = _load_struct(args.seed_file) if args.seed_file else None
    a = Approximation(seed=seed, budget_cap=args.budget)
    return grow(a, args.steps)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--format", choices=("compact", "pretty"),
                   default="compact", help="whitespace style of the output")


def build_parser() -> _Parser:
    parser = _Parser(prog="colorder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure file")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("amalgamate", help="amalgamate two structures over a common part")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--over", required=True)
    p.add_argument("--left-map", help="pair lines mapping the common part into the left structure")
    p.add_argument("--right-map", help="pair lines mapping the common part into the right structure")
    _add_common(p)

    p = sub.add_parser("types", help="enumerate one-point types over a structure")
    p.add_argument("--base", required=True)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--budget", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("k-apply", help="apply the extension functor once")
    p.add_argument("--base", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--name", default="K")
    _add_common(p)

    p = sub.add_parser("k-iterate", help="iterate the extension functor")
    p.add_argument("--base", required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--budgets", required=True, help="comma-separated, one per stage")
    _add_common(p)

    p = sub.add_parser("limit-build", help="grow a generic-limit approximation")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--seed-file")
    _add_common(p)

    p = sub.add_parser("limit-extend-iso", help="extend a partial isomorphism by one point")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--seed-file")
    p.add_argument("--iso", required=True, help="file of 'pair <id> <id>' lines")
    p.add_argument("--point", required=True)
    _add_common(p)

    p = sub.add_parser("embed", help="embed a structure into an approximation")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--budget", type=int, default=2)
    p.add_argument("--seed-file")
    p.add_argument("--structure", required=True)
    _add_common(p)

    p = sub.add_parser("refute", help="run the refutation procedure against a strategy")
    p.add_argument("--base", required=True)
    p.add_argument("--type", dest="type_text", help="type in text form")
    p.add_argument("--type-file", help="file holding the type text")
    p.add_argument("--strategy", required=True,
                   help="bundled name or prog:<command> for the line protocol")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("check-cert", help="verify a refutation certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("control-lo", help="positive control on pure linear orders")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--cut", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=1729)
    _add_common(p)

    return parser


def _cmd_validate(args) -> int:
    s = _load_struct(args.file)
    verdict = validate(s)
    if verdict.ok:
        _emit(args, "valid\n")
        return 0
    u, v, w = verdict.triple
    _emit(args, f"invalid {verdict.reason} {u} {v} {w} {verdict.color.text()}\n")
    return 2


def _cmd_amalgamate(args) -> int:
    left = _load_struct(args.left)
    right = _load_struct(args.right)
    over = _load_struct(args.over)

    def load_map(path, target):
        if path is None:
            mapping = {p: p for p in over.points}
        else:
            mapping = dict(parse_pairs(_read(path)).pairs)
        return Embedding.build(over, target, mapping)

    am = amalgamate(left, right, over, load_map(args.left_map, left),
                    load_map(args.right_map, right))
    text = format_struct(am.result, "amalgam")
    text += "embedding left\n" + "".join(
        f"pair {u} {v}\n" for u, v in am.left.mapping)
    text += "embedding right\n" + "".join(
        f"pair {u} {v}\n" for u, v in am.right.mapping)
    _emit(args, text)
    return 0


def _cmd_types(args) -> int:
    base = _load_struct(args.base)
    taus = enumerate_types(base, args.level, args.budget)
    _emit(args, "".join(format_type(t) + "\n" for t in taus))
    return 0


def _cmd_k_apply(args) -> int:
    base = _load_struct(args.base)
    ext = apply_K(base, args.budget)
    _emit(args, format_extended(ext, args.name))
    return 0


def _cmd_k_iterate(args) -> int:
    base = _load_struct(args.base)
    try:
        budgets = [int(b) for b in args.budgets.split(",") if b]
    except ValueError:
        raise InputError(f"bad budget list {args.budgets!r}") from None
    chain = iterate_K(base, args.stages, budgets)
    text = "".join(format_extended(ext, f"stage{i + 1}")
                   for i, ext in enumerate(chain))
    _emit(args, text)
    return 0


def _cmd_limit_build(args) -> int:
    a = _build_approximation(args)
    _emit(args, a.format())
    return 0


def _cmd_limit_extend_iso(args) -> int:
    a = _build_approximation(args)
    p = parse_pairs(_read(args.iso))
    a, p2 = extend_partial_iso(a, p, args.point)
    _emit(args, format_pairs(p2) + a.format())
    return 0


def _cmd_embed(args) -> int:
    a = _build_approximation(args)
    s = _load_struct(args.structure)
    a, e = embed(a, s)
    text = "".join(f"pair {u} {v}\n" for u, v in e.mapping) + a.format()
    _emit(args, text)
    return 0


def _cmd_refute(args) -> int:
    base = _load_struct(args.base)
    if (args.type_text is None) == (args.type_file is None):
        raise InputError("give exactly one of --type and --type-file")
    type_text = args.type_text or _read(args.type_file).strip()
    tau = parse_type(type_text, base)
    strategy = make_strategy(args.strategy, args.seed)
    try:
        cert = refute(base, tau, strategy, args.depth)
    finally:
        if hasattr(strategy, "close"):
            strategy.close()
    _emit(args, format_certificate(cert))
    return 0


def _cmd_check_cert(args) -> int:
    cert = parse_certificate(_read(args.cert))
    strategy = make_strategy(args.strategy, args.seed)
    try:
        result = check_certificate(cert, strategy)
    finally:
        if hasattr(strategy, "close"):
            strategy.close()
    if result.ok:
        _emit(args, "accepted\n")
        return 0
    _emit(args, f"rejected {result.reason}\n")
    return 2


def _cmd_control_lo(args) -> int:
    if args.size < 0:
        raise InputError("size must be nonnegative")
    order = tuple(f"p{i}" for i in range(args.size))
    report = control_lo(order, args.cut, args.depth, args.samples, args.seed)
    _emit(args, format_control_report(report))
    return 0 if report.violations == 0 else 2


_COMMANDS = {
    "validate": _cmd_validate,
    "amalgamate": _cmd_amalgamate,
    "types": _cmd_types,
    "k-apply": _cmd_k_apply,
    "k-iterate": _cmd_k_iterate,
    "limit-build": _cmd_limit_build,
    "limit-extend-iso": _cmd_limit_extend_iso,
    "embed": _cmd_embed,
    "refute": _cmd_refute,
    "check-cert": _cmd_check_cert,
    "control-lo": _cmd_control_lo,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
