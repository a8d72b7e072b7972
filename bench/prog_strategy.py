"""External strategy for the refute workload, speaking colorder's line
protocol on stdin/stdout: ``query <point> <hash>`` in, ``answer <side>
<color>`` out.  Answers are a fixed hash of the point name and the
structure hash, so replays agree; a few get ``answer self -``, which the
refuter reports as a strategy fault."""

import hashlib
import sys

for line in sys.stdin:
    tok = line.split()
    if len(tok) != 3 or tok[0] != "query":
        break
    h = int.from_bytes(hashlib.sha256(f"prog:{tok[1]}:{tok[2]}".encode()).digest()[:4], "big")
    if h % 13 == 0:
        reply = "answer self -"
    else:
        reply = f"answer {'above' if h & 1 else 'below'} b:0:{(h >> 1) % 3}"
    sys.stdout.write(reply + "\n")
    sys.stdout.flush()
