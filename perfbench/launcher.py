"""One traced command-line invocation.

    PYTHONPATH=src python perfbench/launcher.py SPANS_OUT ARG...

Imports ``homalgebra.cli``, wraps the layer boundaries, calls
``homalgebra.cli.main(ARGS)`` and writes the spans to SPANS_OUT when it exits.
The header's ``ready`` is the ``time.monotonic()`` reading taken once the
import finished, so the parent can tell start-up from the run.
"""

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import homalgebra.cli as cli
    ready = time.monotonic()
    from spans import Recorder
    rec = Recorder()
    missing = rec.install()
    try:
        return rec.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        rec.write(out, {"ready": ready, "missing": missing})


if __name__ == "__main__":
    sys.exit(main())
