"""Compare two sets of benchmark results.

    python3 bench/compare.py BEFORE AFTER

BEFORE and AFTER are files or directories of files holding the captured
stdout of ``run.py``.  For every workload and metric the helper prints each
side's median and quartiles over its runs and a verdict against the bound
in ``BENCHMARK.json``:

- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and the runs do not all fall on one side;
- ``regression`` / ``improvement``: the medians differ by more than the
  bound;
- ``within bound`` otherwise.

Per-layer metrics have no bound and get the relative change only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, from every ``# meta`` line found."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta "):])
                for name, v in meta["metrics"].items():
                    values[(meta["workload"], name)].append(v)
    return values


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    if am == 0:
        return "n/a (zero median)"
    change = (bm - am) / abs(am)
    worse = change if better == "lower" else -change
    if bound is None:
        return f"{change:+.1%}"
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm) if bm else 0.0)
    b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
    a_wins = max(a) < min(b) if better == "lower" else min(a) > max(b)
    if spread > bound and not (a_wins or b_wins):
        return f"unresolved ({change:+.1%}, spread {spread:.1%} > bound {bound:.0%})"
    if worse > bound:
        return f"REGRESSION ({change:+.1%}, bound {bound:.0%})"
    if -worse > bound:
        return f"improvement ({change:+.1%}, bound {bound:.0%})"
    return f"within bound ({change:+.1%}, bound {bound:.0%})"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(Path(sys.argv[1])), load(Path(sys.argv[2]))
    regressions = 0
    for key in sorted(before.keys() & after.keys()):
        workload, name = key
        better, bound = info.get(name, ("lower", None))
        a, b = before[key], after[key]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        v = verdict(a, b, better, bound)
        regressions += v.startswith("REGRESSION")
        print(f"{workload:8} {name:42} before {am:12.6g} [{a1:.6g}, {a3:.6g}] n={len(a):<3}"
              f" after {bm:12.6g} [{b1:.6g}, {b3:.6g}] n={len(b):<3} {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
