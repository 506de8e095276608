"""The confidence rule of the round-based policies and their per-round pull budgets."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """Per-deviation failure probability delta of a round-based policy.

    ``Rule()`` is the default, delta = 1/T^3, clamped to 1/8 for T < 2;
    ``Rule(delta)`` fixes delta, which must lie in (0, 1). This is the one
    place a delta is checked.

    The clean event needs every per-pull running mean to stay within
    ``sqrt(ln(1/delta) / 2n)`` of its arm's true mean. By two-sided
    Hoeffding each such check fails with probability at most 2 delta, and
    an episode makes at most T checks, so the clean event fails with
    probability at most 2 T delta. The regret of a failed episode is at
    most T, so E[regret] <= E[regret | clean] + 2 T^2 delta. At 1/T^3 the
    failure term is at most 2/T; 1/T^2 would already keep it at most 2
    while cutting ln(1/delta) from 3 ln T to 2 ln T.
    """

    delta: float | None = None

    def __post_init__(self):
        if self.delta is not None and not 0.0 < self.delta < 1.0:  # also rejects nan
            raise ValueError("delta must lie in (0, 1)")

    def delta_for(self, horizon: int) -> float:
        """The delta of an episode of ``horizon`` steps."""
        if self.delta is not None:
            return self.delta
        if horizon < 2:
            return 0.125
        try:
            return 1.0 / float(horizon) ** 3
        except OverflowError:
            raise OverflowError("horizon too large: T^3 overflows a float") from None

    def label(self) -> str:
        """The ``@delta`` suffix of a policy spec; empty for the default."""
        return "" if self.delta is None else f"@{self.delta!r}"


def round_budget(g: float, log_inv_delta: float) -> int:
    """Pull count ceil(2 ln(1/delta) / g^2), from ``log_inv_delta`` = ln(1/delta),
    guaranteeing a radius of at most g/2."""
    if not 0.0 < g <= 1.0:
        raise ValueError("precision must lie in (0, 1]")
    g_sq = g * g
    raw = 2.0 * log_inv_delta / g_sq if g_sq else math.inf
    if math.isinf(raw):
        raise OverflowError("pull budget overflows")
    return math.ceil(raw)
