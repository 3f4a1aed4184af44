"""``python -m ptdimer`` with the layer wrappers installed, for traced runs.

Usage: python3 perfbench/cli_traced.py <summary.json> <ptdimer arguments...>

Times the package import as the ``cli.import`` layer, runs ``ptdimer.cli.main``
inside a ``cli`` span, and writes the tracer's summary to the given file.
"""

import json
import sys
import time

start = time.perf_counter()
import ptdimer.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - start

from tracing import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("cli.import", import_s)
    tracer.install()
    try:
        with tracer.span("cli", "main"):
            code = ptdimer.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
