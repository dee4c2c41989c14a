#!/usr/bin/env python3
"""Reproduce the two-spring two-mass benchmark end to end.

Thin wrapper over ``momabs paper-example``: writes the four scenario CSVs,
their SVG plots, and report.txt into the output directory, then exits with
the CLI's status code (0 iff every check passed).  Runs from a source
checkout: the package is imported from ``src/`` next to this directory.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momabs.cli import main  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="benchmark_out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--step", type=float, default=1e-3)
    parser.add_argument("--horizon", type=float, default=10.0)
    return parser.parse_args()


if __name__ == "__main__":
    args = parse_args()
    sys.exit(
        main(
            [
                "paper-example",
                "--out", args.out,
                "--seed", str(args.seed),
                "--step", str(args.step),
                "--horizon", str(args.horizon),
            ]
        )
    )
