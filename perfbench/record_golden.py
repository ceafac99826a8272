"""Record the SHA-256 digest of every (spec, suite) JSON report of ``an-tower``.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``.  Run it only on a commit whose reports are
known to be right: the benchmark counts any later report that differs as a
failed operation.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
warnings.simplefilter("ignore", RuntimeWarning)

import hinak  # noqa: E402
from workloads import GOLDEN, AnTower, report_digest, spec_key  # noqa: E402


def main() -> int:
    digests = {}
    for spec in AnTower.specs(hinak.AlgebraSpec):
        for suite in hinak.checks.applicable_suites(spec):
            report = hinak.run_suite(spec, suite)
            if not report.passed:
                print(f"refusing to record a failing report: {spec_key(spec)} {suite}", file=sys.stderr)
                return 1
            digests[f"{spec_key(spec)}|{suite}"] = report_digest(report.to_json())
            print(f"{spec_key(spec)} {suite}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
