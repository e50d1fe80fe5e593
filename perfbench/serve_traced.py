"""Start ``repro serve`` with the span recorder installed.

Usage: ``python perfbench/serve_traced.py --spans-out FILE -- <serve flags>``.
The wrappers go in before :func:`repro.cli.main` runs, so every request
and simulation the server handles is traced. ``repro serve`` drains and
returns on SIGINT; the spans are then written to ``FILE``.
"""

from __future__ import annotations

import argparse
import sys

import spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    rec = spans.Recorder()
    spans.install(rec)
    from repro.cli import main as cli_main

    try:
        code = cli_main(["serve", *serve_args])
    finally:
        rec.dump(args.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
