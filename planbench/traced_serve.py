"""``repro serve`` with the benchmark's layer spans installed.

Usage: ``python planbench/traced_serve.py SPANS.json serve [repro serve options]``.
Runs the unmodified CLI in this process and writes every recorded span to
``SPANS.json`` after the server has shut down (SIGINT drains it gracefully).
"""

from __future__ import annotations

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
