"""Precision schedules: the rule that shrinks the target half-width between rounds.

Three variants. The halving schedule divides by 2. The poly-log schedule
divides by 2 * max(1, log2(1/g))^epsilon, so the precision decays
super-exponentially once g is small; the max(1, .) floor keeps the step
at least a halving even when log2(1/g) < 1, which every downstream round
bound relies on. The adaptive-ratio schedule divides by
2 * max(1, (1-s)/s) where s is the fraction of arms that survived the
previous round.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

_ITERATION_CAP = 10**6


@dataclass(frozen=True)
class Schedule:
    """Precision-update rule; ``epsilon`` is the poly-log exponent in (0, 1]."""

    kind: str
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in ("geometric", "polylog", "adaptive"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "polylog":
            if self.epsilon is None or not 0.0 < self.epsilon <= 1.0:
                raise ValueError("polylog schedule needs epsilon in (0, 1]")
        elif self.epsilon is not None:
            raise ValueError(f"{self.kind} schedule takes no epsilon")

    def label(self) -> str:
        """Short name, e.g. 'polylog(0.5)'; epsilon is printed with ``:g``
        unless that rounds it, so ``parse`` always gives the schedule back."""
        if self.kind == "polylog":
            eps = f"{self.epsilon:g}"
            return f"polylog({eps if float(eps) == self.epsilon else repr(self.epsilon)})"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Inverse of ``label()``: 'geometric', 'adaptive', 'polylog(eps)', or a
        bare 'polylog' meaning 'polylog(0.5)'. Raises ValueError otherwise."""
        m = re.fullmatch(r"(geometric|adaptive|polylog)(?:\((.*)\))?", text.strip())
        if m is None:
            raise ValueError(f"unknown schedule {text!r}")
        kind, eps = m.groups()
        if eps is not None:
            return cls(kind, float(eps))
        return cls(kind, 0.5 if kind == "polylog" else None)


GEOMETRIC = Schedule("geometric")
ADAPTIVE_RATIO = Schedule("adaptive")


def polylog(epsilon: float) -> Schedule:
    return Schedule("polylog", epsilon)


def next_precision(g: float, schedule: Schedule, survivor_fraction: float | None = None) -> float:
    """One schedule step; always returns a value <= g/2."""
    if not 0.0 < g <= 1.0:
        raise ValueError("precision must lie in (0, 1]")
    if schedule.kind == "geometric":
        return g / 2.0
    if schedule.kind == "polylog":
        return g / (2.0 * max(1.0, math.log2(1.0 / g)) ** schedule.epsilon)
    if survivor_fraction is None:
        raise ValueError("adaptive schedule needs the surviving-arm fraction")
    if not 0.0 < survivor_fraction <= 1.0:
        raise ValueError("survivor_fraction must lie in (0, 1]")
    s = survivor_fraction
    return g / (2.0 * max(1.0, (1.0 - s) / s))


def rounds_to_precision(g0: float, target: float, schedule: Schedule) -> int:
    """Number of schedule steps to bring the half-width from g0 down to target.

    For the halving schedule this equals ceil(log2(g0/target)) exactly.
    The adaptive schedule is rejected: its steps depend on runtime data.
    """
    if not 0.0 < g0 <= 1.0:
        raise ValueError("g0 must lie in (0, 1]")
    if not 0.0 < target <= g0:
        raise ValueError("target must lie in (0, g0]")
    if schedule.kind == "adaptive":
        raise ValueError("adaptive schedule has no data-free round count")
    g = g0
    count = 0
    while g > target:
        g = next_precision(g, schedule)
        count += 1
        if count > _ITERATION_CAP:
            raise RuntimeError("iteration cap exceeded; schedule failed to converge")
    return count


def polylog_rounds_bound(g0: float, target: float, epsilon: float) -> float:
    """Closed-form cap (2/epsilon + 1) * r0 + 2 on poly-log steps to reach target,
    with r0 = log2(g0/target) / log2(log2(g0/target)). Needs g0 > 2*target so the
    inner logarithm is positive.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    ratio = g0 / target
    if ratio <= 2.0:
        raise ValueError("bound needs g0 > 2 * target")
    log_ratio = math.log2(ratio)
    r0 = log_ratio / math.log2(log_ratio)
    return (2.0 / epsilon + 1.0) * r0 + 2.0
