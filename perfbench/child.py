"""One measured hardylp invocation, in the fresh interpreter it runs in.

    python3 perfbench/child.py [--trace SPANS_FILE] [HARDYLP_ARGV ...]

Times the import of `hardylp.cli` (numpy included) and the `main(argv)`
call, lets the program's stdout through untouched, and writes its timings
as the last line of stderr: `PERFBENCH {"setup_s": ..., "wall_s": ...,
"exit": ...}`.  With no argv it only imports, which gives a set-up sample.
With --trace it wraps the program after the import (see spans.py) and
writes the spans to SPANS_FILE after `main` returns.  The parent sets
PYTHONPATH to the checkout's src/.
"""

import json
import os
import sys
import time

MARKER = "PERFBENCH "


def main(args: list[str]) -> int:
    spans_path = None
    if args[:1] == ["--trace"]:
        spans_path, args = args[1], args[2:]

    t0 = time.perf_counter()
    import hardylp.cli as cli

    setup_s = time.perf_counter() - t0

    here = os.path.dirname(os.path.abspath(__file__))
    expected = os.path.join(os.path.dirname(here), "src", "hardylp")
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        print(f"hardylp imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2

    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    record = {"setup_s": setup_s, "wall_s": None, "exit": None}
    if args:
        t1 = time.perf_counter()
        record["exit"] = cli.main(args)
        record["wall_s"] = time.perf_counter() - t1
    sys.stdout.flush()
    if tracer is not None:
        tracer.write(spans_path)
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
