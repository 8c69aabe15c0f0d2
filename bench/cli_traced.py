"""Run one ``multiroots`` command with the tracer installed.

    python3 bench/cli_traced.py solve --format json < problem.json

Prints one JSON line: the command's exit code, its captured standard output
and the tracer's counters.  The import of ``multiroots.cli`` happens before
the tracer is installed; ``run.py`` measures import cost on its own.
"""

import contextlib
import io
import json
import sys

import multiroots.cli as cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer().install()
    tracer.op = 0
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:    # argparse exits on bad arguments
            code = exc.code
    tracer.uninstall()
    print(json.dumps({"exit": code, "stdout": captured.getvalue(),
                      "summary": tracer.summary()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
