#!/usr/bin/env python3
"""Record the paper-example check values that the benchmark compares against.

    python3 bench/record_paper_reference.py

Runs ``momabs paper-example`` for seeds 0 .. PAPER_SEEDS-1 with the
benchmark's environment and writes ``paper_reference.json`` next to this
file: seed -> check name -> [passed, value, threshold].  The committed file
was recorded from the package before any optimisation; re-record only when
a change is meant to alter check values, and say so in the change.
"""

import json
import sys
import tempfile

import run  # sets the BLAS thread cap before numpy loads

sys.path.insert(0, str(run.SRC))
from workloads import PAPER_REFERENCE, PAPER_SEEDS, parse_checks, run_cli  # noqa: E402


def main() -> int:
    recorded = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as out:
        for seed in range(PAPER_SEEDS):
            code, text = run_cli(["paper-example", "--out", out, "--seed", str(seed)])
            if code != 0:
                print(text, file=sys.stderr)
                return 1
            recorded[str(seed)] = parse_checks(text)
    PAPER_REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PAPER_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
