#!/usr/bin/env python3
"""Run `formloc reproduce` on every built-in scenario.

Writes one subdirectory per scenario (metrics.csv + manifest.txt) under
--out.  Each run prints its `outcome: X (expected Y)` line under the
scenario's name, and the script exits 1 if any run fails or lands in an
unexpected outcome.

    python3 scripts/reproduce_all.py --out runs
"""

import argparse
import sys
from pathlib import Path

from formloc import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="formloc_runs", help="base output directory")
    args = parser.parse_args()

    failed = []
    for name in sorted(cli.SCENARIOS):
        print(f"{name}:")
        if cli.main(["reproduce", name, "--out", str(Path(args.out) / name)]) != 0:
            failed.append(name)
    if failed:
        print(f"\nnot as expected: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
