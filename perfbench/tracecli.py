"""Run the ``oamqkd`` CLI in this process with the layer tracer installed.

Usage: ``python3 perfbench/tracecli.py SPANS_JSON [CLI arguments...]``

Exits with the CLI's status and writes the spans it recorded, the byte
counts and the wall-clock time at which ``cli.main`` was entered to
``SPANS_JSON``, for the traced run of the ``cli_d4_transcript`` workload.
"""

import json
import sys
import time
from pathlib import Path

from spans import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from oamqkd import cli

    tracer = Tracer()
    tracer.install()
    main_started_at = time.time()
    with tracer.span("cli.main"):
        status = cli.main(argv)
    tracer.uninstall()
    spans, nbytes = tracer.take()
    spans_path.write_text(
        json.dumps({"spans": spans, "nbytes": nbytes, "main_started_at": main_started_at})
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
