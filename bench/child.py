"""Time one in-process ``strap.cli.main`` call; runs in a fresh interpreter.

    python3 bench/child.py [--trace-out FILE] -- run-regression ...

Prints one JSON line with the exit code, the wall time of the call, the
speed scale measured during it (speed.py) and the process's peak RSS. With
--trace-out, every layer boundary in tracer.STRAP_WRAPS records a span, and
the spans and counters are written to FILE after the call. strap is imported from the checkout's own src/.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import strap.cli  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, install_strap_wraps  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace-out", type=Path, default=None)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install_strap_wraps(tracer)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        code = strap.cli.main(argv)
        wall_s = time.perf_counter() - start
    if tracer:
        tracer.restore()
        tracer.dump(args.trace_out)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(
        {"exit": code, "wall_s": wall_s, "scale": probe.scale(), "peak_rss_mb": peak_kib / 1024}
    ))


if __name__ == "__main__":
    main()
