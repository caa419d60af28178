"""One traced cold operation, for cli-cold's traced rounds.

    python -X importtime cold_child.py SPANS_JSON <torifano command line>

Imports torifano first, so that -X importtime charges it with everything it
loads, then wraps the package's functions, runs ``torifano.cli.main`` and
writes the spans to SPANS_JSON.
"""

import sys

import torifano  # noqa: F401  (first: see the module docstring)
from torifano import cli

import spans


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
