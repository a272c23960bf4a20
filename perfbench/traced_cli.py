"""Run the dbasim command line with the span tracer installed.

Usage: traced_cli.py SPANS_PATH DBASIM_ARGS...   (with dbasim's src/ on PYTHONPATH)

Imports ``dbasim.cli``, installs the tracer, runs ``main`` on the remaining
arguments, writes the spans to SPANS_PATH and exits with main's code.
"""

import sys

import dbasim.cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return dbasim.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
