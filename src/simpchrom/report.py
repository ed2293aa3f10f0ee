"""Verdict and guard vocabulary shared by every checker in the package."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"


class GuardError(Exception):
    """A size or search-space guard rejected the computation.

    ``limit`` names the guard that fired so callers (and the CLI exit-code
    logic) can distinguish guard rejections from bad input; ``measured`` is
    the size it measured and ``bound`` the limit that size exceeds.
    """

    def __init__(self, limit: str, measured: int, bound: int, message: str):
        super().__init__(message)
        self.limit, self.measured, self.bound = limit, measured, bound


def check_limit(name: str, measured: int, bound: int, what: str,
                route: str | None = None) -> None:
    """GuardError ``name`` when ``measured`` exceeds ``bound``, saying
    "<measured> <what> exceed the <bound> limit" and then "; <route>" when
    a cheaper route exists."""
    if measured > bound:
        message = f"{measured} {what} exceed the {bound} limit"
        raise GuardError(name, measured, bound,
                         f"{message}; {route}" if route else message)


# Live states a state-summed inclusion-exclusion may carry from one
# generator to the next, and states it may sum over its whole walk.  chi_c's
# refusals on 35-100 vertices measured 260-345 B of peak RSS per live key
# (the dict being built included; a key's packed value grows with r, to
# 118 B on 100 vertices, whose refusal peaks at 187 MB against 158 MB with
# one state per exponent), so the first is a budget of 65-90 MB; one
# generator can at most double the count before the check.  Time goes with
# the second: 25 full steps, more than any sum of 25 generators takes.
STATE_LIMIT = 2 ** 18
STATE_WORK_LIMIT = 25 * STATE_LIMIT


def check_live_states(live: int, summed: int, route: str) -> None:
    """GuardError unless ``live`` states fit under STATE_LIMIT and the
    ``summed`` states of the walk so far under STATE_WORK_LIMIT; ``route``
    names the cheaper route to take instead.  Called once per generator, so
    the common case costs two comparisons."""
    if live > STATE_LIMIT or summed > STATE_WORK_LIMIT:
        check_limit("live_states", live, STATE_LIMIT, "live states", route)
        check_limit("state_work", summed, STATE_WORK_LIMIT, "states summed", route)


@dataclass(frozen=True)
class CheckReport:
    """Structured pass/fail verdict with a concrete witness on failure.

    ``witness`` is None on success; on failure it holds whatever concrete
    data pinpoints the violation (an index, a subset, a coefficient pair).
    ``details`` carries computed values and the convention flags in effect.
    """

    name: str
    verdict: str
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "witness": self.witness,
            "details": self.details,
        }


def report(name: str, ok: bool, witness: dict | None = None, **details) -> CheckReport:
    """Build a PASS/FAIL report in one line."""
    return CheckReport(name, PASS if ok else FAIL, witness if not ok else None, details)
