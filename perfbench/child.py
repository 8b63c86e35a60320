"""One untraced CLI invocation, timed from after the imports to the CSV written.

    python3 child.py <expected exactsens dir> <cli arguments...>

Prints one JSON line: the CLI's exit code, the ``time.monotonic()`` reading
right after ``import exactsens.cli``, the seconds of a fixed speed probe run
just before the CLI, and the wall and CPU (user + sys, all threads) seconds
of ``exactsens.cli.main``.  Refuses to run an exactsens imported from
anywhere but the expected directory.

The probe is a pure-Python loop, which the scan and the simulation loop
resemble, and in-place numpy passes over an array larger than a core's
private cache, which the reference-set layers resemble.  It uses no
exactsens code, so a change to the program cannot move it; it only reads how
fast the machine is at that moment.
"""

import json
import sys
import time
from pathlib import Path


def probe() -> float:
    """Seconds for a fixed interpreter loop and a fixed pass over a 2 MiB array."""
    import numpy as np

    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i % 7
    a = np.ones(1 << 18)  # small enough not to raise the child's peak RSS
    for _ in range(600):
        np.multiply(a, 1.0000001, out=a)
        np.add(a, 1.0, out=a)
    return time.perf_counter() - t0


def main() -> int:
    import exactsens.cli as cli

    imported = time.monotonic()
    expected, argv = Path(sys.argv[1]).resolve(), sys.argv[2:]
    if Path(cli.__file__).resolve().parent != expected:
        print(f"exactsens imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2
    probe_s = probe()
    t0, c0 = time.perf_counter(), time.process_time()
    rc = cli.main(argv)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    print(json.dumps({"rc": rc, "imported": imported, "probe_s": probe_s,
                      "wall_s": wall, "cpu_s": cpu}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
