"""Traced CLI launch: ``python3 bench/cli_child.py <claimcheck arguments>``.

Runs ``claimcheck.cli.main`` as ``python -m claimcheck.cli`` would, with a
span around the import of the CLI and around every public function it
reaches, and writes the spans as the last line of stderr.
"""

import json
import sys
import time

from tracing import CHILD_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    start = time.perf_counter()
    import claimcheck.cli as cli

    tracer.spans.append(["cli.import", -1, start, time.perf_counter(), None])
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(CHILD_MARKER.decode() + json.dumps(tracer.spans) + "\n")


if __name__ == "__main__":
    sys.exit(main())
