"""Run a ``repro`` CLI command inside the benchmark's measurement.

``python -m benchmarks.e2e.launch SPEED_DIR SPAN_DIR serve --port 0 ...``
starts host-speed sampling (:mod:`benchmarks.e2e.speed`) into
``SPEED_DIR``, installs the span wrappers of :mod:`benchmarks.e2e.spans`
unless ``SPAN_DIR`` is ``-``, and then calls ``repro.cli.main`` with the
remaining arguments.  A server's forked pool workers inherit both.
"""

import sys

from benchmarks.e2e import speed


def main(argv):
    speed_dir, span_dir, args = argv[0], argv[1], argv[2:]
    speed.start(speed_dir)
    import repro.cli

    if span_dir != "-":
        from benchmarks.e2e import spans

        spans.install(span_dir)
    return repro.cli.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
