"""Regenerate ``pins.json``: the expected output of every pool member.

Run from anywhere with ``python3 bench/pin.py [workload ...]``; with no
workload named it re-pins all three, which takes a few minutes.
Pins are made once, on a commit whose tests pass, and change only when a
pool, a job list or the program's pinned output format changes on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    path = ROOT / "bench" / "pins.json"
    pins: dict[str, dict[str, str]] = json.loads(path.read_text()) if path.exists() else {}
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or jobs.WORKLOADS:
        pins[workload] = {}
        for slots in jobs.pool_plans(workload):
            workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=work))
            try:
                inp = jobs.make_inputs(workload, workdir, slots)
                for job in jobs.make_round(inp):
                    if job.prepare:
                        job.prepare()
                    pins[workload][job.key] = job.fingerprint(job.run())
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload}: {len(pins[workload])} pins", file=sys.stderr)
    path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
