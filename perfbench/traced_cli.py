"""Run one cemoments CLI command with the span tracer installed.

    PYTHONPATH=src python perfbench/traced_cli.py trace --lambda 2 --cap 5

Stdout is the command's own output. After the command returns, the tracer
report goes to stderr as one line prefixed with tracer.MARK.
"""

import json
import sys

import tracer


def main(argv):
    spans = tracer.install()
    cli = sys.modules["cemoments.cli"]
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(tracer.MARK + json.dumps(spans.report()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
