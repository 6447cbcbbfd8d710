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

from moycalc.foamalg import verify_foam
from moycalc.reporting import Report, all_passed
from moycalc.tangleinv import reidemeister_suite
from moycalc.verify import bijections_suite, groth_suite, hecke_suite
from moycalc.webgraph import verify_moy


def gather() -> list[Report]:
    reports: list[Report] = []
    for k in (2, 3, 4):
        reports.extend(verify_moy(k))
    for k in (2, 3, 4):
        reports.extend(reidemeister_suite(k))
    for n in (2, 3, 4, 5):
        reports.extend(bijections_suite(n, 3))
    for n in (2, 3, 4, 5):
        reports.extend(hecke_suite(n))
    for k in (2, 3, 4):
        reports.extend(groth_suite(4, k))
    reports.extend(verify_foam())
    return reports


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
