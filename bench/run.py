"""colorder benchmark: one workload run, untraced or traced.

    python3 bench/run.py --workload functor --seed 1 --seconds 40 --trace 0

Untraced, it starts ``SETUP_RUNS`` set-up-only workload processes and one
measuring process that runs the workload's fixed job list in rounds for
about ``--seconds``, and prints the end-to-end metrics.  Job times are in
host-normalized seconds (see ``worker.py``); the ``# meta`` line also
gives the raw wall time and the reference loop's median time.  Traced, it runs
one untraced round and two traced rounds of the same seed, each in its own
process, prints the per-layer metrics and the tracing overhead, and flags
the run if the two traced rounds disagree on any call or work count.
``--workload all`` runs the three workloads one after another.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it, starting ``# meta``,
records the workload, seed, Python version, nproc and sample counts;
``compare.py`` reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from jobs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 6          # set-up-only processes per run, besides the measuring one
RUN_LIMIT = 170         # seconds for a whole invocation, all processes included


class RunFailed(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one workload process to completion and return its result.  The
    process gets its own session, so a timeout kills it together with any
    strategy subprocess it started."""
    fd, result = tempfile.mkstemp(suffix=".json", dir=ROOT / ".bench_work")
    os.close(fd)
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), *args, "--result", result]
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code is None:
            raise RunFailed(f"workload process timed out: {' '.join(args)}")
        if code != 0:
            raise RunFailed(f"workload process exited {code}: {' '.join(args)}")
        return json.loads(Path(result).read_text())
    finally:
        Path(result).unlink(missing_ok=True)


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_RUNS)]
    r = spawn(common + ["--seconds", str(seconds)], deadline)
    setups.append(r["setup_s"])
    lat = r["latencies_s"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(r["round_wall_s"]), "s", len(r["round_wall_s"])),
        "job_s.p50": (statistics.median(lat), "s", len(lat)),
        "job_s.p90": (statistics.quantiles(lat, n=10)[8], "s", len(lat)),
        "peak_rss_mb": (r["peak_rss_mb"], "MB", 1),
        "job_ok_frac": (1 - r["failed"] / r["attempted"], "ratio", r["attempted"]),
    }
    raw = r["raw"]
    return {"metrics": metrics, "attempted": r["attempted"], "failed": r["failed"],
            "failures": r["failures"], "deterministic": True, "kind_p50_s": r["kind_p50_s"],
            "raw_wall_s": statistics.median(raw["round_wall_s"]),
            "ref_s.p50": statistics.median(raw["ref_s"])}


def traced(workload: str, seed: int, deadline: float):
    from tracing import COUNTS, SPANS

    common = ["--workload", workload, "--seed", str(seed), "--rounds", "1"]
    base = spawn(common, deadline)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    runs = [spawn(common + ["--trace", "--spans", str(out / f"spans-{workload}-{k}.tsv")],
                  deadline) for k in (1, 2)]
    t1, t2 = (r["trace"] for r in runs)
    failures = [f for r in (base, *runs) for f in r["failures"]]
    diff = sorted(k for d in ("calls", "counts") for k in t1[d] if t1[d][k] != t2[d][k])
    if diff:
        failures.append(f"traced rounds of one seed disagree on {', '.join(diff)}")
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (t1["calls"][name], "count", 2)
        metrics[f"{name}.self_s"] = (statistics.mean(t["self_s"][name] for t in (t1, t2)), "s", 2)
    for name in COUNTS:
        metrics[name] = (t1["counts"][name], "count", 2)
    steps = t1["counts"]["limit.grow.steps"]
    metrics["limit.grow.realized_ratio"] = (
        t1["counts"]["limit.grow.realized"] / steps if steps else 0.0, "ratio", 2)
    prog = t1["prog_answer_s"] + t2["prog_answer_s"]
    metrics["refuter.strategy_answer.prog_s.p50"] = (
        statistics.median(prog) if prog else 0.0, "s", len(prog))
    traced_wall = statistics.mean(r["round_wall_s"][0] for r in runs)
    metrics["trace_overhead_s"] = (traced_wall - base["round_wall_s"][0], "s", 3)
    return {"metrics": metrics, "attempted": sum(r["attempted"] for r in (base, *runs)),
            "failed": sum(r["failed"] for r in (base, *runs)), "failures": failures,
            "deterministic": not diff}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "colorder" / "__init__.py").is_file():
        print(f"error: no colorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            if args.trace:
                r = traced(workload, args.seed, deadline)
            else:
                r = untraced(workload, args.seed, args.seconds, deadline)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            total.update(correct=False, attempted=total["attempted"] + 1,
                         failed=total["failed"] + 1)
            status = 1
            continue
        metrics = r.pop("metrics")
        for line in r.pop("failures"):
            print(f"FAILED {workload}: {line}", file=sys.stderr)
        for name, (value, unit, n) in metrics.items():
            shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
            print(f"{workload:8} {name:45} {shown} {unit:6} n={n}")
        meta = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "python": platform.python_version(),
                "nproc": os.cpu_count(), **r,
                "metrics": {k: v[0] for k, v in metrics.items()},
                "samples": {k: v[2] for k, v in metrics.items()}}
        print("# meta " + json.dumps(meta))
        prefix = f"{workload}." if args.workload == "all" else ""
        total["correct"] = total["correct"] and r["failed"] == 0 and r["deterministic"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
        total["metrics"].update({prefix + k: {"value": v, "unit": u}
                                 for k, (v, u, _) in metrics.items()})
    print(json.dumps(total))
    return status


if __name__ == "__main__":
    sys.exit(main())
