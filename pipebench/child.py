"""Run one splitcast CLI command under the tracer.

Usage: python3 pipebench/child.py TRACE_JSON splitcast-arguments...

The tracer's totals are written to TRACE_JSON for the parent benchmark to
merge; the exit status is the command's.  ``splitcast`` must be importable,
which the parent arranges through PYTHONPATH.
"""

import json
import sys

import splitcast.cli

from tracer import Tracer


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return splitcast.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tracer.totals(), fh)


if __name__ == "__main__":
    sys.exit(main())
