#!/usr/bin/env python3
"""Standalone acceptance driver: one pass/fail line per criterion.

Usage: python scripts/run_acceptance.py [--seed N] [--timings]
Exit code 0 iff every criterion passes.
"""

import argparse
import inspect
import os
import sys
import time

# run from a checkout: the engine source sits in <repo>/src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from quadpic import acceptance  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    parser.add_argument("--timings", action="store_true", help="append wall time per criterion")
    args = parser.parse_args()
    failures = 0
    for fn in acceptance.ALL_CRITERIA:
        kwargs = {"seed": args.seed} if "seed" in inspect.signature(fn).parameters else {}
        start = time.perf_counter()
        result = fn(**kwargs)
        elapsed = time.perf_counter() - start
        suffix = f"  [{elapsed:.2f}s]" if args.timings else ""
        print(result.line() + suffix, flush=True)
        if not result.passed:
            failures += 1
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
