"""Run the urblock CLI with every layer traced.

    python perfbench/traced_cli.py SPANS_FILE CLI_ARG...

behaves like ``python -m urblock.cli CLI_ARG...`` (same output, same exit
code) and writes the spans of the run to SPANS_FILE.
"""

import sys

import urblock.cli
from tracer import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return urblock.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main())
