"""A traced cold CLI invocation.

    python3 perfbench/cli_shim.py OUT VERB [ARGS...]

Installs the layer wrappers, runs ``bordismkit.cli.main`` on the arguments
exactly as ``python -m bordismkit.cli`` would, and writes the layer record
(plus import and main time) to OUT.  Untraced runs call the real entry point
instead; the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tracing


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    from bordismkit import cli
    import_s = time.perf_counter() - t0
    recorder = tracing.Tracer()
    tracing.install(recorder)
    t1 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - t1
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "main_s": main_s, "verb": cli_args[0],
                       "layers": recorder.raw()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
