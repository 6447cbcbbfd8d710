#!/usr/bin/env python3
"""Run every verification suite over the bounded parameter grid.

Prints one report line per check and a final tally; exits nonzero if
any check fails.  This is the long-form companion of ``moycalc verify``:
the CLI runs one suite at chosen parameters, this script sweeps them
all at the sizes the acceptance tests pin down.
"""

from __future__ import annotations

import sys
from time import perf_counter

from moycalc.reporting import Report, all_passed
from moycalc.verify import SUITES

# (suite, n, k) in report order; a suite ignores the parameter it does not take
GRID = (
    *(("moy", 0, k) for k in (2, 3, 4)),
    *(("reidemeister", 0, k) for k in (2, 3, 4)),
    *(("bijections", n, 3) for n in (2, 3, 4, 5)),
    *(("hecke", n, 0) for n in (2, 3, 4, 5)),
    *(("groth", 4, k) for k in (2, 3, 4)),
    ("foam", 0, 0),
)


def gather() -> list[Report]:
    return [report for name, n, k in GRID for report in SUITES[name].run(n, k)]


def main() -> int:
    start = perf_counter()
    reports = gather()
    for report in reports:
        print(report.line())
    elapsed = perf_counter() - start
    failed = sum(1 for r in reports if not r.passed)
    print(
        f"-- {len(reports)} checks, {failed} failed, {elapsed:.1f}s"
    )
    return 0 if all_passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
