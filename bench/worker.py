"""One workload process, started by ``run.py``.

It caps its own address space, imports colorder from ``src/``, generates
the seeded inputs and writes the CLI input files, then runs the workload's
fixed job list in rounds, one job after another on one thread.  Each job
is timed alone; its output check runs outside the timed region.  The
result goes to the JSON file named by ``--result``.

Set-up time runs from ``--t0``, the parent's clock reading just before it
started this process (``perf_counter`` is system-wide on Linux), to the
start of the first job.

Job times are reported in host-normalized seconds.  The host is a shared
VM whose speed changes by up to 2x within a minute, and from one job to
the next, for reasons outside the program.  So before every job and after
the last (outside the timed regions) the worker times ``reference``, a
fixed stdlib-only loop shaped like colorder's inner loops, and scales a
job's raw time by ``REF_NOMINAL_S`` over the mean of the two reference
samples that bracket it: the time the job would take on a host that runs
the reference loop in ``REF_NOMINAL_S``.  The reference loop calls no
colorder code, so a change to the program moves a normalized time by the
same share as the raw one.  The raw times are kept in the result too.
Set-up time is not normalized: it is mostly process start and imports,
which do not follow the reference loop's speed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 3 << 30     # bytes; a combinatorial blow-up fails jobs, not the machine
JOB_TIMEOUT = 60            # seconds
MIN_SAMPLES = 100           # job latencies per run, so p90 has ten beyond it
REF_NOMINAL_S = 0.010       # seconds the reference loop takes on the nominal host
REF_POINTS = 44             # reference structure size: 13244 triples, about 10 ms


@dataclass(frozen=True)
class _Term:
    kind: str
    level: int
    index: int


class _Coloring:
    """A fixed pair coloring, read the way ``FinStruct.color`` reads one."""

    def __init__(self, n: int):
        self.points = [f"p{i}" for i in range(n)]
        self.pos = {p: i for i, p in enumerate(self.points)}
        self.colors = {(self.points[i], self.points[j]): _Term("b", 0, (i * 7 + j * 3) % 5)
                       for i, j in itertools.combinations(range(n), 2)}

    def color(self, u: str, v: str) -> _Term:
        if self.pos[u] > self.pos[v]:
            u, v = v, u
        return self.colors[(u, v)]


def reference() -> float:
    """Time one pass of the reference loop: build a small colored structure
    and scan its triples for monochromatic ones, as ``validate`` does."""
    t = time.perf_counter()
    s = _Coloring(REF_POINTS)
    hits = 0
    for u, v, w in itertools.combinations(s.points, 3):
        c = s.color(u, v)
        if c == s.color(u, w) and c == s.color(v, w):
            hits += 1
    return time.perf_counter() - t


def host_factors(refs: list[float], jobs: int) -> list[float]:
    """Scale of each of ``jobs`` jobs, where ``refs[k]`` was taken just
    before job k and ``refs[jobs]`` after the last one: the host's speed
    is read from the two samples that bracket the job.  (Medians over
    wider windows track the host's changes of speed worse.)"""
    return [2 * REF_NOMINAL_S / (refs[k] + refs[k + 1]) for k in range(jobs)]


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT} s")


def run_rounds(jobs_mod, inp, pins, seconds: float, rounds: int | None, setup_t0: float):
    """Run rounds of the job list: exactly ``rounds`` of them if given,
    otherwise while the next round is expected to end within ``seconds``
    (and until ``MIN_SAMPLES`` job latencies are in).  Job times come back
    raw and host-normalized."""
    raw, refs, kinds, round_sizes, failures = [], [], [], [], []
    walls: list[float] = []
    setup_s = None
    attempted = 0
    signal.signal(signal.SIGALRM, _alarm)
    began = time.perf_counter()
    while True:
        wall = 0.0
        round_jobs = jobs_mod.make_round(inp)
        for job in round_jobs:
            attempted += 1
            error = out = None
            dt = 0.0
            try:
                if job.prepare:
                    job.prepare()
                if setup_s is None:
                    setup_s = time.perf_counter() - setup_t0
                refs.append(reference())
                t = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT)
                try:
                    out = job.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    dt = time.perf_counter() - t
            except Exception as exc:   # a failed job, not a failed run
                error = f"{job.key}: {type(exc).__name__}: {exc}"
            if error is None:
                got = job.fingerprint(out)
                want = pins.get(job.key)
                if got != want:
                    error = f"{job.key}: output {got!r}, pinned {want!r}"
            if error is not None:
                failures.append(error)
            if len(refs) < attempted:   # prepare raised before the sample
                refs.append(reference())
            wall += dt
            raw.append(dt)
            kinds.append(job.kind)
        round_sizes.append(len(round_jobs))
        walls.append(wall)
        elapsed = time.perf_counter() - began
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif elapsed + statistics.median(walls) > seconds and len(raw) >= MIN_SAMPLES:
            break
    refs.append(reference())
    factors = host_factors(refs, len(raw))
    latencies = [dt * f for dt, f in zip(raw, factors)]
    norm_walls, k = [], 0
    for n in round_sizes:
        norm_walls.append(sum(latencies[k:k + n]))
        k += n
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(dt)
    return {"setup_s": setup_s, "round_wall_s": norm_walls, "latencies_s": latencies,
            "raw": {"round_wall_s": walls, "latencies_s": raw, "ref_s": refs},
            "kind_p50_s": {k: statistics.median(v) for k, v in by_kind.items()},
            "attempted": attempted, "failed": len(failures), "failures": failures[:10]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, help="run exactly this many rounds")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    sys.path.insert(0, str(ROOT / "src"))
    import colorder  # noqa: F401  (set-up time includes importing the package)
    import jobs

    pins = json.loads((ROOT / "bench" / "pins.json").read_text())
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        inp = jobs.make_inputs(args.workload, workdir,
                               jobs.plan(args.workload, args.seed, pins[args.workload]))
        if args.setup_only:
            result = {"setup_s": time.perf_counter() - args.t0}
        else:
            tracer = None
            if args.trace:
                from tracing import Tracer
                tracer = Tracer()
                tracer.install()
            result = run_rounds(jobs, inp, pins[args.workload], args.seconds, args.rounds,
                                args.t0)
            if tracer:
                result["trace"] = tracer.summary()
                if args.spans:
                    tracer.write_spans(Path(args.spans))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
