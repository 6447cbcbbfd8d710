"""Check reports: a tiny shared result type for verification runs.

Every verifier produces a list of ``Report`` values; the CLI renders
them either as human-readable lines or as line-delimited records whose
``anchor`` field restates the claim being checked, so a record is
meaningful on its own.  ``Report.of_failures`` is the one rule from a
claim's failed cases to its verdict and witness.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Report", "render_reports", "all_passed"]


@dataclass(frozen=True)
class Report:
    """Outcome of one check.

    check:   short stable identifier, e.g. "moy-III-k3"
    anchor:  one-sentence self-contained statement of the claim
    passed:  whether the claim held exactly
    witness: computed evidence (values, dimensions, timings)
    """

    check: str
    anchor: str
    passed: bool
    witness: str = ""

    @classmethod
    def of_failures(
        cls, check: str, anchor: str, failures: list[str], held: str
    ) -> Report:
        """Passed when no case failed.  The witness is ``held`` on a pass;
        on a failure it names every failed case, in order."""
        witness = "failed at " + ", ".join(failures) if failures else held
        return cls(check, anchor, not failures, witness)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" [{self.witness}]" if self.witness else ""
        return f"{status} {self.check}: {self.anchor}{tail}"

    def record(self) -> str:
        fields = [
            f"check={self.check}",
            f"passed={'true' if self.passed else 'false'}",
            f"anchor={self.anchor!r}",
            f"witness={self.witness!r}",
        ]
        return " ".join(fields)


def render_reports(reports: list[Report], fmt: str = "text") -> str:
    if fmt == "text":
        return "\n".join(r.line() for r in reports)
    if fmt == "records":
        return "\n".join(r.record() for r in reports)
    raise ValueError(f"unknown format {fmt!r}")


def all_passed(reports: list[Report]) -> bool:
    return all(r.passed for r in reports)
