"""Closed-form round-count caps and regret-bound shapes used as test oracles.

These are order expressions evaluated with constant factor 1. Every
logarithm over a gap ratio is floored at 1 so arms sitting exactly at the
minimal gap contribute a positive term; the results are scaling
diagnostics, never asserted as absolute regret ceilings. Both functions
take an instance's plain numbers (``delta_min``, the ``gaps`` tuple), and
each raises ValueError on an input it cannot take or a result that is not
a finite float, so a caller never sees an infinite bound.
"""

from __future__ import annotations

import math

from .schedules import Schedule


def rmax_bound(delta_min: float, schedule: Schedule) -> int:
    """Cap on the number of completed scan rounds before commitment.

    Halving and adaptive schedules use ceil(log2(2/delta_min)); the adaptive
    rule shrinks at least as fast as halving, so the same cap applies. The
    poly-log schedule uses ceil((2/eps + 1) * log2(2/d) / log2(log2(2/d)) + 2)
    with the inner log-log floored at 1 to keep the expression finite near
    delta_min = 1. The poly-log schedule reaches half-width d/2 in far fewer
    steps than this cap; a grid test pins that soundness margin.
    """
    if not 0.0 < delta_min <= 1.0 or math.isinf(2.0 / delta_min):
        raise ValueError(f"delta_min must lie in (0, 1] with 2/delta_min a finite float, got {delta_min:g}")
    if schedule.kind == "polylog":
        inner = math.log2(2.0 / delta_min)
        denom = max(1.0, math.log2(inner))
        cap = (2.0 / schedule.epsilon + 1.0) * inner / denom + 2.0
        if not math.isfinite(cap):
            raise ValueError(f"round-count cap is not a finite float at delta_min={delta_min:g}, "
                             f"epsilon={schedule.epsilon:g}")
        return math.ceil(cap)
    return math.ceil(math.log2(2.0 / delta_min))


def regret_bound(gaps: tuple[float, ...], horizon: float, schedule: Schedule) -> float:
    """Shape of the regret guarantee for ``gaps`` (``BanditInstance.gaps``,
    the best arm's own gap 0) and the given schedule, constant factor 1.

    Halving (and adaptive, which has no published bound of its own):
    sum over suboptimal arms of (1/gap) * max(1, log2(gap/delta_min)) * ln(T).
    Poly-log with exponent eps uses gamma = 2*eps and the per-arm term
    log2(1/gap)^gamma + log2(gap/delta_min) / (gamma * log2 log2(gap/delta_min)),
    every log floored at 1. A bound past the float range is a ValueError.
    """
    if not gaps:
        raise ValueError("gaps must be non-empty")
    if any(g < 0.0 for g in gaps):
        raise ValueError("gaps must be non-negative")
    if min(gaps) != 0.0:
        raise ValueError("the best arm's own gap must be 0")
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    delta_min = min((g for g in gaps if g > 0.0), default=None)
    if delta_min is None:
        raise ValueError("all gaps zero: regret bound undefined")
    log_horizon = math.log(horizon)
    total = 0.0
    for gap in gaps:
        if gap <= 0.0:
            continue
        ratio_log = max(1.0, math.log2(gap / delta_min))
        if schedule.kind == "polylog":
            gamma = 2.0 * schedule.epsilon
            inv_log = max(1.0, math.log2(1.0 / gap))
            loglog = max(1.0, math.log2(ratio_log))
            term = inv_log**gamma + ratio_log / (gamma * loglog)
        else:
            term = ratio_log
        total += term / gap
    bound = total * log_horizon
    if not math.isfinite(bound):
        raise ValueError(f"regret bound is not a finite float at delta_min={delta_min:g}, T={horizon:g}")
    return bound
